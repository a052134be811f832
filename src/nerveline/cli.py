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
from pathlib import Path
from typing import Iterable

from .config import RunConfig, load_config, load_scenario
from .controller import run_scenario
from .errors import ConfigError, ScenarioError
from .estimation import (
    CalibrationData,
    _estimator,
    _smooth,
    auto_calibration,
    read_calibration,
    write_calibration,
)
from .line import NerveLineSpec, simulate_sweep

TRACE_HEADER = ("t_ms", "phase", "sensor", "raw", "filtered", "p", "regime")
SWEEP_HEADER = ("position_mm", "mean_p_spiked", "var_p_spiked", "mean_p_smooth", "var_p_smooth")
FRAMES_HEADER = ("t_ms", "sensor", "counts")
REPLAY_HEADER = ("t_ms", "sensor", "raw", "filtered", "p", "regime")


def _write_lines(path: str, header: tuple[str, ...], lines: Iterable[str]) -> None:
    """Write ``header`` as a CSV row, then ``lines``, each already ending in a newline.

    A regular file is overwritten in place and then cut to the bytes written,
    also when a write fails part-way; cutting it to zero on open frees blocks
    that the write allocates again.  Devices and pipes are only written.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="", encoding="ascii") as handle:
        try:
            handle.write(",".join(header) + "\n")
            handle.writelines(lines)
            handle.flush()  # so a successful write is cut at its end, never to zero
        finally:
            fd = handle.fileno()
            if stat.S_ISREG(os.fstat(fd).st_mode):
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
    ratios = [(p.as_integer_ratio(), k) for p, k in tally]
    den = max(d for (_, d), _ in ratios)  # every denominator is a power of two, so divides this one
    scaled = [(num * (den // d), k) for (num, d), k in ratios]
    total = sum(m * k for m, k in scaled)
    squares = sum(m * m * k for m, k in scaled)
    return total / den / n, (squares * n - total * total) / (den * den * n * n)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.sensor not in config.sensors:
        raise ConfigError(f"--sensor: sensor {args.sensor} is not configured")
    spec = config.sensors[args.sensor]
    calibration = _calibration_table(config)[args.sensor]
    positions = _position_grid(spec.effective_length_mm, spec.spike_pitch_mm)

    runs = {}
    for label, quantize in (("spiked", True), ("smooth", False)):
        runs[label] = simulate_sweep(
            spec,
            positions,
            jitter_mm=args.jitter_mm,
            repeats=args.repeats,
            rng=random.Random(config.seed),
            noise_sd_counts=config.noise_sd_counts,
            quantize_to_spikes=quantize,
        )

    estimate = _estimator(calibration)
    lines = []
    for row, position in enumerate(positions):
        line = f"{float(position)!r}"
        for label in ("spiked", "smooth"):
            block = runs[label][row * args.repeats : (row + 1) * args.repeats]
            tally = Counter(block)  # (touched_mm, counts) -> presses
            p_tally = [(estimate(counts)[0], k) for (_, counts), k in tally.items()]
            mean, variance = _mean_pvariance(p_tally, len(block))
            line += f",{mean!r},{variance!r}"
        lines.append(line + "\n")
    _write_lines(args.out, SWEEP_HEADER, lines)
    if args.frames_out is not None:
        frames = (f"{t_ms},{args.sensor},{counts}\n" for t_ms, (_, counts) in enumerate(runs["spiked"]))
        _write_lines(args.frames_out, FRAMES_HEADER, frames)

    print(f"wrote {args.out} rows={len(positions)} repeats={args.repeats} seed={config.seed}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    scenario = load_scenario(args.scenario, config)
    if args.no_spikes:
        config = replace(config, quantize_to_spikes=False)
    result = run_scenario(scenario, config, _calibration_table(config))

    out = args.out if args.out is not None else f"{scenario.name}_trace.csv"
    lines = (
        f"{t_ms},{phase._value_},{sensor},{raw},{filtered!r},{p!r},{regime._value_}\n"
        for t_ms, phase, sensor, raw, filtered, p, regime in result.rows
    )
    _write_lines(out, TRACE_HEADER, lines)

    print(f"outcome={result.outcome} steps={result.ticks}")
    if result.outcome != scenario.expected_outcome:
        print(
            f"outcome mismatch: expected {scenario.expected_outcome}, got {result.outcome}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    calibration = _calibration_table(config)
    a = config.filter_coefficient_a
    # per sensor: [full scale, estimator, last t_ms, last filtered value]
    sensors = {
        sensor: [spec.adc_full_scale, _estimator(calibration[sensor]), None, None]
        for sensor, spec in config.sensors.items()
    }
    try:
        lines = Path(args.log).read_text(encoding="ascii").splitlines()
        if not lines:
            raise ValueError("line 1: empty log")
        if tuple(lines[0].split(",")) != FRAMES_HEADER:
            raise ValueError(f"line 1: expected header {','.join(FRAMES_HEADER)!r}, got {lines[0]!r}")
        out_lines = []
        for lineno, line in enumerate(islice(lines, 1, None), start=2):
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(parts)}")
            try:
                t_ms, sensor, counts = map(int, parts)
                head = f"{t_ms},{sensor},{counts}"
                if head != line:  # plain decimal, as sweep --frames-out writes it
                    raise ValueError
            except ValueError:
                raise ValueError(f"line {lineno}: fields must be integers, got {line!r}") from None
            state = sensors.get(sensor)
            if state is None:
                raise ValueError(f"line {lineno}: sensor {sensor} is not configured")
            full_scale, estimate, previous, filtered = state
            if not 0 <= counts <= full_scale:
                raise ValueError(f"line {lineno}: counts {counts} outside 0..{full_scale}")
            if previous is not None and t_ms <= previous:
                raise ValueError(f"line {lineno}: t_ms {t_ms} not after t_ms {previous} of sensor {sensor}")
            state[2] = t_ms
            state[3] = filtered = _smooth(a, filtered, counts)
            p, regime = estimate(filtered)
            out_lines.append(f"{head},{filtered!r},{p!r},{regime._value_}\n")
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
