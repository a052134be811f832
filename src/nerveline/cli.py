"""Command line harness for sweeps, scenario runs, replays and calibration.

All commands are pure functions of their config file, scenario file and
seed: two invocations with the same inputs produce byte-identical output
files and stdout.  Exit codes: 0 success, 1 scenario outcome mismatch,
2 bad input (config, scenario, CLI arguments, malformed logs).
"""

from __future__ import annotations

import argparse
import csv
import random
import statistics
import sys
from pathlib import Path

from .config import RunConfig, load_config, load_scenario
from .controller import run_scenario
from .errors import ConfigError, ScenarioError
from .estimation import (
    CalibrationData,
    FilterState,
    auto_calibration,
    calibrate,
    estimate_p,
    filter_step,
    read_calibration,
    write_calibration,
)
from .line import ContactPoint, ContactSet, sense, simulate_sweep

TRACE_HEADER = ("t_ms", "phase", "sensor", "raw", "filtered", "p", "regime")
SWEEP_HEADER = ("position_mm", "mean_p_spiked", "var_p_spiked", "mean_p_smooth", "var_p_smooth")
FRAMES_HEADER = ("t_ms", "sensor", "counts")
REPLAY_HEADER = ("t_ms", "sensor", "raw", "filtered", "p", "regime")

CALIBRATION_WINDOW = 100


def _calibration_table(config: RunConfig) -> dict[int, CalibrationData]:
    if config.calibration_file is not None:
        table = read_calibration(config.calibration_file)
        missing = sorted(set(config.sensors) - set(table))
        if missing:
            raise ConfigError(
                f"calibration_file: no calibration for sensors {missing} in {config.calibration_file}"
            )
        return table
    return {i: auto_calibration(spec) for i, spec in config.sensors.items()}


def _position_grid(length_mm: float, pitch_mm: float) -> list[float]:
    count = int(length_mm // pitch_mm)
    positions = [min(k * pitch_mm, length_mm) for k in range(count + 1)]
    if positions[-1] < length_mm:
        positions.append(length_mm)
    return positions


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.seed
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
            rng=random.Random(seed),
            noise_sd_counts=config.noise_sd_counts,
            quantize_to_spikes=quantize,
        )

    with open(args.out, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        for row, position in enumerate(positions):
            cells: list[str] = [repr(float(position))]
            for label in ("spiked", "smooth"):
                block = runs[label][row * args.repeats : (row + 1) * args.repeats]
                p_values = [estimate_p(s.reading.counts, calibration).p for s in block]
                cells.append(repr(statistics.fmean(p_values)))
                cells.append(repr(statistics.pvariance(p_values)))
            writer.writerow(cells)

    if args.frames_out is not None:
        with open(args.frames_out, "w", newline="", encoding="ascii") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(FRAMES_HEADER)
            for sample in runs["spiked"]:
                writer.writerow([sample.reading.t_ms, args.sensor, sample.reading.counts])

    print(f"wrote {args.out} rows={len(positions)} repeats={args.repeats} seed={seed}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    scenario = load_scenario(args.scenario, config)
    seed = args.seed if args.seed is not None else config.seed
    calibration = _calibration_table(config)
    quantize = config.quantize_to_spikes and not args.no_spikes
    result = run_scenario(
        scenario,
        config.sensors,
        config.controller,
        seed=seed,
        filter_coefficient_a=config.filter_coefficient_a,
        noise_sd_counts=config.noise_sd_counts,
        calibration=calibration,
        quantize_to_spikes=quantize,
        hand=config.hand,
    )

    out = args.out if args.out is not None else f"{scenario.name}_trace.csv"
    with open(out, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for record in result.trace:
            for sensor in sorted(record.samples):
                sample = record.samples[sensor]
                writer.writerow(
                    [
                        record.t_ms,
                        record.phase.value,
                        sensor,
                        sample.raw,
                        repr(sample.filtered),
                        repr(sample.estimate.p),
                        sample.estimate.regime.value,
                    ]
                )

    print(f"outcome={result.outcome} steps={result.ticks}")
    if result.outcome != scenario.expected_outcome:
        print(
            f"outcome mismatch: expected {scenario.expected_outcome}, got {result.outcome}",
            file=sys.stderr,
        )
        return 1
    return 0


def _parse_frames(path: str, config: RunConfig) -> list[tuple[int, int, int]]:
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: empty log")
    if tuple(lines[0].split(",")) != FRAMES_HEADER:
        raise ValueError(f"line 1: expected header {','.join(FRAMES_HEADER)!r}, got {lines[0]!r}")
    frames: list[tuple[int, int, int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            t_ms, sensor, counts = (int(part, 10) for part in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: fields must be integers, got {line!r}") from None
        if sensor not in config.sensors:
            raise ValueError(f"line {lineno}: sensor {sensor} is not configured")
        full_scale = config.sensors[sensor].adc_full_scale
        if not 0 <= counts <= full_scale:
            raise ValueError(f"line {lineno}: counts {counts} outside 0..{full_scale}")
        frames.append((t_ms, sensor, counts))
    return frames


def cmd_replay(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    frames = _parse_frames(args.log, config)
    calibration = _calibration_table(config)
    filters = {i: FilterState(coefficient_a=config.filter_coefficient_a) for i in config.sensors}
    with open(args.out, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REPLAY_HEADER)
        for t_ms, sensor, counts in frames:
            filters[sensor], filtered = filter_step(filters[sensor], counts)
            estimate = estimate_p(filtered, calibration[sensor], t_ms=t_ms)
            writer.writerow(
                [t_ms, sensor, counts, repr(filtered), repr(estimate.p), estimate.regime.value]
            )
    print(f"wrote {args.out} frames={len(frames)}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.seed
    rng = random.Random(seed)
    table: dict[int, CalibrationData] = {}
    for sensor in sorted(config.sensors):
        spec = config.sensors[sensor]
        poses = (
            ContactSet(),
            ContactSet(contacts=(ContactPoint(spec.effective_length_mm),), quantize_to_spikes=False),
            ContactSet(contacts=(ContactPoint(0.0),), quantize_to_spikes=False),
        )
        streams = [
            [
                sense(spec, pose, noise_sd_counts=config.noise_sd_counts, rng=rng).counts
                for _ in range(CALIBRATION_WINDOW)
            ]
            for pose in poses
        ]
        table[sensor] = calibrate(*streams, window=CALIBRATION_WINDOW)
    write_calibration(args.out, table)
    print(f"wrote {args.out} sensors={len(table)}")
    return 0


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
