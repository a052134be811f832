"""Command line harness for sweeps, scenario runs, replays and calibration.

All commands are pure functions of their config file, scenario file and
seed: two invocations with the same inputs produce byte-identical output
files and stdout.  Exit codes: 0 success, 1 scenario outcome mismatch,
2 bad input (config, scenario, CLI arguments, malformed logs).
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import stat
import sys
from collections import Counter
from dataclasses import replace
from itertools import islice
from typing import Iterable

from .config import RunConfig, load_config, load_scenario
from .controller import SENSOR_COUNT, TraceRow, run_scenario
from .errors import ConfigError, ScenarioError
from .estimation import (
    CalibrationData,
    _estimator,
    _read_lines,
    _smooth,
    auto_calibration,
    read_calibration,
    write_calibration,
)
from .line import NerveLineSpec, _in_press_order, _sweep_presses

TRACE_HEADER = ("t_ms", "phase", "sensor", "raw", "filtered", "p", "regime")
SWEEP_HEADER = ("position_mm", "mean_p_spiked", "var_p_spiked", "mean_p_smooth", "var_p_smooth")
FRAMES_HEADER = ("t_ms", "sensor", "counts")
REPLAY_HEADER = ("t_ms", "sensor", "raw", "filtered", "p", "regime")


def _write_lines(path: str, header: tuple[str, ...], lines: Iterable[str]) -> None:
    """Write ``header`` as a CSV row, then ``lines``, each already ending in a newline.

    A regular file is overwritten in place and then cut to the bytes written,
    also when a write fails part-way; cutting it to zero on open frees blocks
    that the write allocates again.  Devices and pipes are only written.  The
    file that stdout goes to (``--out /dev/stdout > file``) is written at
    stdout's offset, so that what the command prints next follows the rows.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    status = os.fstat(fd)
    regular = stat.S_ISREG(status.st_mode)
    try:
        to_stdout = regular and os.path.samestat(status, os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # stdout is closed, or has no descriptor (captured in process)
        to_stdout = False
    if to_stdout:
        os.close(fd)
        sys.stdout.flush()
        fd, regular = os.dup(sys.stdout.fileno()), False
    with open(fd, "w", newline="", encoding="ascii") as handle:
        try:
            handle.write(",".join(header) + "\n")
            handle.writelines(lines)
            handle.flush()  # so a successful write is cut at its end, never to zero
        finally:
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` run, with ``--seed`` in place of its seed when given."""
    config = load_config(args.config)
    return config if args.seed is None else replace(config, seed=args.seed)


def _calibration_table(config: RunConfig) -> dict[int, CalibrationData]:
    if config.calibration_file is not None:
        try:
            table = read_calibration(config.calibration_file)
        except ValueError as exc:
            raise ValueError(f"{config.calibration_file}: {exc}") from None
        missing = sorted(set(config.sensors) - set(table))
        if missing:
            raise ConfigError(
                f"calibration_file: no calibration for sensors {missing} in {config.calibration_file}"
            )
        return table
    by_spec: dict[NerveLineSpec, CalibrationData] = {}  # identical lines calibrate once
    for spec in config.sensors.values():
        if spec not in by_spec:
            by_spec[spec] = auto_calibration(spec)
    return {i: by_spec[spec] for i, spec in config.sensors.items()}


def _position_grid(length_mm: float, pitch_mm: float) -> list[float]:
    count = int(length_mm // pitch_mm)
    positions = [min(k * pitch_mm, length_mm) for k in range(count + 1)]
    if positions[-1] < length_mm:
        positions.append(length_mm)
    return positions


def _mean_pvariance(tally: Iterable[tuple[float, int]], n: int) -> tuple[float, float]:
    """`statistics.fmean` and `pvariance` of n values given as (value, times) pairs, to the same bits."""
    den = 1  # every float's denominator is a power of two, so the largest one is a common one
    total = squares = 0  # of the values times den
    for p, k in tally:
        num, d = p.as_integer_ratio()
        if d > den:
            scale, den = d // den, d
            total *= scale
            squares *= scale * scale
        else:
            num *= den // d
        total += num * k
        squares += num * num * k
    return total / den / n, (squares * n - total * total) / (den * den * n * n)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.sensor not in config.sensors:
        raise ConfigError(f"--sensor: sensor {args.sensor} is not configured")
    spec = config.sensors[args.sensor]
    calibration = _calibration_table(config)[args.sensor]
    positions = _position_grid(spec.effective_length_mm, spec.spike_pitch_mm)

    runs = [  # spiked skin, then smooth
        _sweep_presses(
            spec,
            positions,
            args.jitter_mm,
            args.repeats,
            random.Random(config.seed),
            config.noise_sd_counts,
            quantize,
        )
        for quantize in (True, False)
    ]

    estimate = _estimator(calibration)
    lines = []
    for position, *rows in zip(positions, *runs):
        line = f"{float(position)!r}"
        for samples, codes in rows:
            if codes is None:
                tally = Counter(samples).items()  # (touched_mm, counts) -> presses
            else:
                tally = [(sample, codes.count(code)) for code, sample in enumerate(samples)]
            p_tally = [(estimate(counts)[0], k) for (_, counts), k in tally if k]
            mean, variance = _mean_pvariance(p_tally, args.repeats)
            line += f",{mean!r},{variance!r}"
        lines.append(line + "\n")
    _write_lines(args.out, SWEEP_HEADER, lines)
    if args.frames_out is not None:
        spiked = _in_press_order(runs[0])
        frames = (f"{t_ms},{args.sensor},{counts}\n" for t_ms, (_, counts) in enumerate(spiked))
        _write_lines(args.frames_out, FRAMES_HEADER, frames)

    print(f"wrote {args.out} rows={len(positions)} repeats={args.repeats} seed={config.seed}")
    return 0


def _trace_lines(rows: Iterable[TraceRow]) -> Iterable[str]:
    """The trace CSV lines of ``rows``, formatting each tick's ``t_ms,phase`` and each held sample once.

    `run_scenario` repeats a held sample's very ``filtered`` float, and every other row has a new one;
    so a row with its sensor's last ``filtered`` reuses its whole ``sensor,raw,filtered,p,regime`` text.
    """
    last_filtered: list[float | None] = [None] * SENSOR_COUNT  # per sensor, with the text it gives
    last_text = [""] * SENSOR_COUNT
    head_t_ms = None
    for t_ms, phase, sensor, raw, filtered, p, regime in rows:
        if t_ms != head_t_ms:
            head_t_ms, head = t_ms, f"{t_ms},{phase._value_},"
        if filtered is not last_filtered[sensor]:
            last_filtered[sensor] = filtered
            last_text[sensor] = f"{sensor},{raw},{filtered!r},{p!r},{regime._value_}\n"
        yield head + last_text[sensor]


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    scenario = load_scenario(args.scenario, config)
    if args.no_spikes:
        config = replace(config, quantize_to_spikes=False)
    result = run_scenario(scenario, config, _calibration_table(config))

    out = args.out if args.out is not None else f"{scenario.name}_trace.csv"
    _write_lines(out, TRACE_HEADER, _trace_lines(result.rows))

    print(f"outcome={result.outcome} steps={result.ticks}")
    if result.outcome != scenario.expected_outcome:
        print(
            f"outcome mismatch: expected {scenario.expected_outcome}, got {result.outcome}",
            file=sys.stderr,
        )
        return 1
    return 0


def _frame_problem(lineno: int, line: str, sensors: dict[str, tuple[int, int | None]]) -> str:
    """Why ``cmd_replay`` rejects frame ``line``: its first failed check, given each full scale and last t_ms."""
    parts = line.split(",")
    if len(parts) != 3:
        return f"line {lineno}: expected 3 fields, got {len(parts)}"
    try:
        t_ms, sensor, counts = map(int, parts)
        plain = f"{t_ms},{sensor},{counts}" == line  # plain decimal, as sweep --frames-out writes it
    except ValueError:
        plain = False
    if not plain:
        return f"line {lineno}: fields must be integers, got {line!r}"
    if parts[1] not in sensors:
        return f"line {lineno}: sensor {sensor} is not configured"
    full_scale, previous = sensors[parts[1]]
    if not 0 <= counts <= full_scale:
        return f"line {lineno}: counts {counts} outside 0..{full_scale}"
    return f"line {lineno}: t_ms {t_ms} not after t_ms {previous} of sensor {sensor}"  # the one check left


def cmd_replay(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    calibration = _calibration_table(config)
    a = config.filter_coefficient_a
    # per sensor, keyed by its decimal spelling: [full scale, estimator, last t_ms,
    # last filtered value, the count the filter stands still at or None, the text it gives]
    sensors = {
        str(sensor): [spec.adc_full_scale, _estimator(calibration[sensor]), None, None, None, ""]
        for sensor, spec in config.sensors.items()
    }
    known_counts: dict[str, int] = {}  # each plain non-negative counts field met in this log
    try:
        lines = _read_lines(args.log)
        if not lines:
            raise ValueError("line 1: empty log")
        if tuple(lines[0].split(",")) != FRAMES_HEADER:
            raise ValueError(f"line 1: expected header {','.join(FRAMES_HEADER)!r}, got {lines[0]!r}")
        out_lines = []
        for lineno, line in enumerate(islice(lines, 1, None), start=2):
            # a line passes only as the text of three plain decimal integers, so it
            # is its own head; any failure goes to _frame_problem for the message
            try:
                t_text, sensor_text, counts_text = line.split(",")
                state = sensors[sensor_text]
                full_scale, estimate, previous, filtered, held, tail = state
                counts = known_counts.get(counts_text)
                if counts is None:
                    counts = int(counts_text)
                    if counts < 0 or str(counts) != counts_text:
                        raise ValueError
                    known_counts[counts_text] = counts
                t_ms = int(t_text)
                if counts > full_scale or str(t_ms) != t_text or (previous is not None and t_ms <= previous):
                    raise ValueError
            except (KeyError, ValueError):
                limits = {key: (kept[0], kept[2]) for key, kept in sensors.items()}
                raise ValueError(_frame_problem(lineno, line, limits)) from None
            state[2] = t_ms
            if held is None or counts != held:  # else the filter stands still at counts: its last text repeats
                filtered, state[4] = _smooth(a, filtered, counts)
                state[3] = filtered
                p, regime = estimate(filtered)
                state[5] = tail = f",{filtered!r},{p!r},{regime._value_}\n"
            out_lines.append(line + tail)
    except ValueError as exc:
        raise ValueError(f"{args.log}: {exc}") from None

    # opened only once the whole log is accepted, so a bad line leaves --out as it was
    _write_lines(args.out, REPLAY_HEADER, out_lines)
    print(f"wrote {args.out} frames={len(out_lines)}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rng = random.Random(config.seed)
    table = {
        sensor: auto_calibration(
            config.sensors[sensor], noise_sd_counts=config.noise_sd_counts, rng=rng
        )
        for sensor in sorted(config.sensors)
    }
    write_calibration(args.out, table)
    print(f"wrote {args.out} sensors={len(table)}")
    return 0


@functools.cache  # once per process, on the first main call; importing builds nothing
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nerveline",
        description="Simulate and analyze resistive nerve-line tactile sensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="press along one line and tabulate p statistics")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--sensor", type=int, default=0)
    sweep.add_argument("--repeats", type=int, default=100)
    sweep.add_argument("--jitter-mm", type=float, default=2.5)
    sweep.add_argument("--out", default="sweep.csv")
    sweep.add_argument("--frames-out", default=None, help="also write a replayable frame log")
    sweep.set_defaults(func=cmd_sweep)

    run = sub.add_parser("run", help="run a scripted scenario to completion")
    run.add_argument("--config", required=True)
    run.add_argument("--scenario", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None, help="trace CSV path (default <name>_trace.csv)")
    run.add_argument("--no-spikes", action="store_true", help="model a smooth skin")
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser("replay", help="re-estimate from a recorded frame log")
    replay.add_argument("--config", required=True)
    replay.add_argument("--log", required=True)
    replay.add_argument("--out", default="replay.csv")
    replay.set_defaults(func=cmd_replay)

    calibrate_cmd = sub.add_parser("calibrate", help="capture calibration triplets")
    calibrate_cmd.add_argument("--config", required=True)
    calibrate_cmd.add_argument("--seed", type=int, default=None)
    calibrate_cmd.add_argument("--out", default="calibration.txt")
    calibrate_cmd.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
