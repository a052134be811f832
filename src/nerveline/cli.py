"""Command line harness for sweeps, scenario runs, replays and calibration.

All commands are pure functions of their config file, scenario file and
seed: two invocations with the same inputs produce byte-identical output
files and stdout.  Exit codes: 0 success, 1 scenario outcome mismatch,
2 bad input (config, scenario, CLI arguments, malformed logs).
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from dataclasses import replace
from itertools import chain, islice
from typing import Any, Callable, Iterable, TypeVar

from .config import RunConfig, load_config, load_scenario, read_calibration
from .controller import SENSOR_COUNT, TraceRow, run_scenario
from .errors import CalibrationError, ConfigError
from .estimation import (
    CalibrationData,
    _channel,
    _read_lines,
    _write_lines,
    auto_calibration,
    write_calibration,
)
from .line import NerveLineSpec, _sweep_presses

TRACE_HEADER = "t_ms,phase,sensor,raw,filtered,p,regime"
SWEEP_HEADER = "position_mm,mean_p_spiked,var_p_spiked,mean_p_smooth,var_p_smooth"
FRAMES_HEADER = "t_ms,sensor,counts"
REPLAY_HEADER = "t_ms,sensor,raw,filtered,p,regime"

# the most presses per position that `sweep --repeats` accepts, and the most positions on a sweep's grid
MAX_REPEATS = 1_000_000
MAX_POSITIONS = 10_000

K = TypeVar("K")


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` run, with ``--seed`` in place of its seed when given."""
    config = load_config(args.config)
    return config if args.seed is None else replace(config, seed=args.seed)


def _calibrated(sensor: int, spec: NerveLineSpec, **noise: Any) -> CalibrationData:
    """`auto_calibration` of line ``sensor``, naming the sensor when its poses do not order."""
    try:
        return auto_calibration(spec, **noise)
    except CalibrationError as exc:
        raise CalibrationError(f"sensor {sensor}: {exc}") from None


def _calibration_table(config: RunConfig) -> dict[int, CalibrationData]:
    if config.calibration_file is not None:
        table = read_calibration(config.calibration_file)
        missing = sorted(set(config.sensors) - set(table))
        if missing:
            raise ConfigError(f"calibration_file: no calibration for sensors {missing} in {config.calibration_file}")
        return table
    by_spec: dict[NerveLineSpec, CalibrationData] = {}  # identical lines calibrate once, named by the lowest index
    for i, spec in sorted(config.sensors.items()):
        if spec not in by_spec:
            by_spec[spec] = _calibrated(i, spec)
    return {i: by_spec[spec] for i, spec in config.sensors.items()}


def _position_grid(length_mm: float, pitch_mm: float) -> list[float]:
    count = int(length_mm // pitch_mm)
    positions = [min(k * pitch_mm, length_mm) for k in range(count + 1)]
    if positions[-1] < length_mm:
        positions.append(length_mm)
    return positions


def _common_ratios(values: dict[K, float]) -> tuple[dict[K, int], int]:
    """Each value as a numerator over one denominator shared by all, the largest of theirs, and that denominator.

    Every float's denominator is a power of two, so the largest one is a common one.
    """
    ratios = {key: value.as_integer_ratio() for key, value in values.items()}
    den = max((d for _, d in ratios.values()), default=1)
    return {key: num * (den // d) for key, (num, d) in ratios.items()}, den


def _mean_pvariance(tally: Iterable[tuple[K, int]], nums: dict[K, int], den: int, n: int) -> tuple[float, float]:
    """`statistics.fmean` and `pvariance` of n values given as (key, times) pairs, to the same bits.

    Key ``key`` stands for the value ``nums[key] / den``, as `_common_ratios` gives them.
    """
    total = squares = 0
    for key, k in tally:
        num = nums[key]
        total += num * k
        squares += num * num * k
    return total / den / n, (squares * n - total * total) / (den * den * n * n)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.sensor not in config.sensors:
        raise ConfigError(f"--sensor: sensor {args.sensor} is not configured")
    if args.repeats < 1:  # checked before anything is drawn
        raise ValueError(f"--repeats: must be >= 1, got {args.repeats}")
    if args.repeats > MAX_REPEATS:
        raise ValueError(f"--repeats: at most {MAX_REPEATS} presses per position, got {args.repeats}")
    if not 0.0 <= args.jitter_mm < math.inf:
        raise ValueError(f"--jitter-mm: must be finite and non-negative, got {args.jitter_mm}")
    spec = config.sensors[args.sensor]
    length, pitch = spec.effective_length_mm, spec.spike_pitch_mm
    spans = length // pitch  # `_position_grid` has spans + 1 positions, and one more when the end is no spike
    if spans + 1 + (spans * pitch < length) > MAX_POSITIONS:  # checked before the grid is built
        raise ValueError(
            f"--sensor {args.sensor}: spike_pitch_mm {pitch!r} along effective_length_mm {length!r}"
            f" gives over {MAX_POSITIONS} sweep positions"
        )
    calibration = _calibration_table(config)[args.sensor]
    positions = _position_grid(length, pitch)

    in_order = args.frames_out is not None
    runs = [  # spiked skin, then smooth; only the frame log needs the spiked presses in order
        _sweep_presses(
            spec,
            positions,
            args.jitter_mm,
            args.repeats,
            random.Random(config.seed),
            config.noise_sd_counts,
            quantize,
            in_order and quantize,
        )
        for quantize in (True, False)
    ]

    channel = _channel(0.0, calibration)  # a = 0 passes each count through exactly
    read = {counts for run in runs for tally, _ in run for counts, _ in tally}
    p_nums, p_den = _common_ratios({counts: channel(counts)[1] for counts in read})  # p once per distinct count
    lines = [SWEEP_HEADER + "\n"]
    for position, *rows in zip(positions, *runs):
        line = f"{float(position)!r}"
        for tally, _ in rows:
            mean, variance = _mean_pvariance(tally, p_nums, p_den, args.repeats)
            line += f",{mean!r},{variance!r}"
        lines.append(line + "\n")
    _write_lines(args.out, lines)
    if in_order:
        spiked = chain.from_iterable(samples for _, samples in runs[0])
        frames = (f"{t_ms},{args.sensor},{counts}\n" for t_ms, (_, counts) in enumerate(spiked))
        _write_lines(args.frames_out, chain([FRAMES_HEADER + "\n"], frames))

    print(f"wrote {args.out} rows={len(positions)} repeats={args.repeats} seed={config.seed}")
    return 0


def _trace_lines(rows: Iterable[TraceRow]) -> Iterable[str]:
    """The trace CSV lines of ``rows``, formatting each tick's ``t_ms,phase`` and each held sample once.

    A sensor's ``p`` and ``regime`` follow from its ``filtered`` value, so a row with its sensor's last
    ``raw`` and ``filtered`` values reuses that row's whole ``sensor,raw,filtered,p,regime`` text.
    """
    last_raw: list[int | None] = [None] * SENSOR_COUNT  # per sensor, with its filtered value and the text they give
    last_filtered: list[float | None] = [None] * SENSOR_COUNT
    last_text = [""] * SENSOR_COUNT
    head_t_ms = None
    for t_ms, phase, sensor, raw, filtered, p, regime in rows:
        if t_ms != head_t_ms:
            head_t_ms, head = t_ms, f"{t_ms},{phase._value_},"
        if filtered != last_filtered[sensor] or raw != last_raw[sensor]:
            last_raw[sensor], last_filtered[sensor] = raw, filtered
            last_text[sensor] = f"{sensor},{raw},{filtered!r},{p!r},{regime._value_}\n"
        yield head + last_text[sensor]


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    scenario = load_scenario(args.scenario, config)
    if args.no_spikes:
        config = replace(config, quantize_to_spikes=False)
    result = run_scenario(scenario, config, _calibration_table(config))

    out = args.out if args.out is not None else f"{scenario.name}_trace.csv"
    _write_lines(out, chain([TRACE_HEADER + "\n"], _trace_lines(result.rows)))

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
    # per sensor, keyed by its decimal spelling: [full scale, channel, last t_ms, last sample, the text it gives]
    sensors = {
        str(sensor): [spec.adc_full_scale, _channel(config.filter_coefficient_a, calibration[sensor]), None, None, ""]
        for sensor, spec in config.sensors.items()
    }
    known_counts: dict[str, int] = {}  # each plain non-negative counts field met in this log
    try:
        lines = _read_lines(args.log)
        if not lines:
            raise ValueError("line 1: empty log")
        if lines[0] != FRAMES_HEADER:
            raise ValueError(f"line 1: expected header {FRAMES_HEADER!r}, got {lines[0]!r}")
        out_lines = []
        for line in islice(lines, 1, None):
            # a line passes only as the text of three plain decimal integers, so it
            # is its own head; any failure goes to _frame_problem for the message
            try:
                t_text, sensor_text, counts_text = line.split(",")
                state = sensors[sensor_text]
                full_scale, channel, previous, last, tail = state
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
                # every frame before this one was accepted, and the header is line 1
                raise ValueError(_frame_problem(len(out_lines) + 2, line, limits)) from None
            state[2] = t_ms
            sample = channel(counts)
            if sample is not last:  # else a held sample: the channel repeats its tuple, and its text repeats
                filtered, p, regime = state[3] = sample
                state[4] = tail = f",{filtered!r},{p!r},{regime._value_}\n"
            out_lines.append(line + tail)
    except ValueError as exc:
        raise ValueError(f"{args.log}: {exc}") from None

    # opened only once the whole log is accepted, so a bad line leaves --out as it was
    _write_lines(args.out, chain([REPLAY_HEADER + "\n"], out_lines))
    print(f"wrote {args.out} frames={len(out_lines)}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rng = random.Random(config.seed)
    table = {
        sensor: _calibrated(sensor, config.sensors[sensor], noise_sd_counts=config.noise_sd_counts, rng=rng)
        for sensor in sorted(config.sensors)
    }
    write_calibration(args.out, table)
    print(f"wrote {args.out} sensors={len(table)}")
    return 0


# per command: its function, its help, and each option's add_argument keywords
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, dict[str, dict[str, Any]]]] = {
    "sweep": (cmd_sweep, "press along one line and tabulate p statistics", {
        "--config": {"required": True},
        "--seed": {"type": int, "default": None},
        "--sensor": {"type": int, "default": 0},
        "--repeats": {"type": int, "default": 100},
        "--jitter-mm": {"type": float, "default": 2.5},
        "--out": {"default": "sweep.csv"},
        "--frames-out": {"default": None, "help": "also write a replayable frame log"},
    }),
    "run": (cmd_run, "run a scripted scenario to completion", {
        "--config": {"required": True},
        "--scenario": {"required": True},
        "--seed": {"type": int, "default": None},
        "--out": {"default": None, "help": "trace CSV path (default <name>_trace.csv)"},
        "--no-spikes": {"action": "store_true", "help": "model a smooth skin"},
    }),
    "replay": (cmd_replay, "re-estimate from a recorded frame log", {
        "--config": {"required": True},
        "--log": {"required": True},
        "--out": {"default": "replay.csv"},
    }),
    "calibrate": (cmd_calibrate, "capture calibration triplets", {
        "--config": {"required": True},
        "--seed": {"type": int, "default": None},
        "--out": {"default": "calibration.txt"},
    }),
}


# per command: the namespace of its defaults, and each option's action
Plain = dict[str, tuple[dict[str, Any], dict[str, argparse.Action]]]


@functools.cache  # once per process, on the first main call; importing builds nothing
def _build_parser() -> tuple[argparse.ArgumentParser, Plain]:
    """The parser, and what `_plain_args` reads of it."""
    parser = argparse.ArgumentParser(
        prog="nerveline",
        description="Simulate and analyze resistive nerve-line tactile sensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    plain = {}
    for name, (func, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        actions = {option: command.add_argument(option, **keywords) for option, keywords in options.items()}
        defaults = {"command": name, "func": func, **{action.dest: action.default for action in actions.values()}}
        plain[name] = defaults, actions
    return parser, plain


def _plain_args(argv: list[str], plain: Plain) -> argparse.Namespace | None:
    """What ``parse_args(argv)`` gives a plain argv, or None for any other.

    A plain argv is a command, then whole option names, each followed by a value that does not start with ``-``,
    or alone for a flag, with every required option given and each value one its option's type accepts.
    """
    if not argv or argv[0] not in plain:
        return None
    defaults, actions = plain[argv[0]]
    values = dict(defaults)
    given = set()
    tokens = iter(argv[1:])
    for option in tokens:
        action = actions.get(option)
        if action is None:
            return None
        if action.nargs == 0:  # a flag
            value = action.const
        else:
            value = next(tokens, "-")  # a missing value is read as one that starts with -
            if value[:1] == "-":
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except ValueError:
                    return None
        values[action.dest] = value
        given.add(option)
    if any(action.required and option not in given for option, action in actions.items()):
        return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``parse_args(argv)``: `_plain_args` reads a plain argv, and argparse every other, so it alone words
    every usage, help and error text."""
    parser, plain = _build_parser()
    args = _plain_args(argv, plain)
    return parser.parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError, ScenarioError and CalibrationError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
