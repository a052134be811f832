"""Seeded inputs and operation catalogue for the three workloads.

Every input file an operation reads is written here into a work directory,
so nerveline only ever sees generated files.  Each workload draws its
operations from a finite catalogue (a pool of sweep seeds, noisy configs
and frame-log seeds), which is what lets ``digests.json`` hold the expected
output of every operation any benchmark seed can produce.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-dense", "scenario-mix", "replay-long")

SHIPPED_SCENARIOS = (
    "no_scissors",
    "scissors_moved_back",
    "scissors_present",
    "scissors_regrasp",
)
MULTI_CONTACT = "multi_contact"
SCENARIOS = SHIPPED_SCENARIOS + (MULTI_CONTACT,)

SWEEP_REPEATS = 100
SWEEP_SEEDS = tuple(range(101, 133))
SWEEP_SENSORS = (0, 1, 2, 3)

NOISE_SIGMAS = (1, 3, 8)
NOISE_SEEDS = tuple(range(1001, 1021))

LOG_SEEDS = tuple(range(501, 517))
LOG_FRAMES_PER_SENSOR = 1500
LOG_SENSORS = (0, 1, 2, 3)
LOG_DT_MS = 10
SEGMENT_FRAMES = (40, 200)

# Raw-count bands on the shipped line (calibration 1023/236/93).  Segments
# last at least SEGMENT_FRAMES[0] frames, long enough for the 5 Hz filter
# to settle inside the band, so the replayed estimate visits every regime.
REGIME_BANDS = {
    "none": (1023, 1023),
    "fingertip": (300, 1000),
    "body": (93, 220),
}

# Two presses and a light fingertip touch on sensor 0.  The 31 mm press has
# a bridge resistance, so the ladder fold does not collapse to the nearest
# press, and lies off the 5 mm spike pitch, so the spiked skin (snapped to
# 30 mm) and --no-spikes give different outputs; the 72 mm touch goes down
# the bridge-quality path, alone during Lower and alongside the presses later.
MULTI_CONTACT_YAML = """\
name: multi_contact
goal: lift
expected_outcome: lifted
object_pose_mm: {x: 120.0, y: 40.0}
rules:
  - sensor: 0
    position_mm: 31.0
    bridge_ohm: 5000.0
    phases: [VerifyGrasp, Lift]
  - sensor: 0
    position_mm: 50.0
    phases: [CloseFingers, VerifyGrasp, Lift]
  - sensor: 0
    position_mm: 72.0
    bridge_ohm: 40000.0
    phases: [Lower, CloseFingers, VerifyGrasp, Lift]
"""

NOISY_CONFIG_TEMPLATE = """\
seed: {seed}
dt_ms: 10
noise_sd_counts: {sigma}.0
quantize_to_spikes: true
filter:
  cutoff_hz: 5.0
sensors:
  - index: 0
  - index: 1
  - index: 2
  - index: 3
controller:
  touch_threshold_p: 90.0
  base_threshold_p: 50.0
  step_mm: 5.0
  wrist_rotation_deg: 20.0
  max_retries: 2
  max_regrasp_steps: 16
  window_n: 10
  dwell_ticks: 10
  watched_sensor_grasp: 0
  watched_sensor_regrasp: 1
"""


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv (relative to the work dir) and its output files."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]


def sweep_op(seed: int, sensor: int) -> Op:
    return Op(
        (
            "sweep", "--config", "default.yaml", "--seed", str(seed), "--sensor", str(sensor),
            "--repeats", str(SWEEP_REPEATS), "--jitter-mm", "2.5", "--out", "sweep.csv",
        ),
        ("sweep.csv",),
    )


def noisy_config_name(sigma: int, seed: int) -> str:
    return f"noisy_s{sigma}_{seed}.yaml"


def run_op(scenario: str, config: str = "default.yaml", no_spikes: bool = False) -> Op:
    argv = ("run", "--config", config, "--scenario", f"{scenario}.yaml", "--out", "trace.csv")
    return Op(argv + (("--no-spikes",) if no_spikes else ()), ("trace.csv",))


def replay_op(log_seed: int) -> Op:
    return Op(
        ("replay", "--config", "default.yaml", "--log", f"frames_{log_seed}.csv", "--out", "replay.csv"),
        ("replay.csv",),
    )


def catalogue(workload: str) -> list[Op]:
    """Every operation the workload can run, whatever the benchmark seed."""
    if workload == "sweep-dense":
        return [sweep_op(s, k) for s in SWEEP_SEEDS for k in SWEEP_SENSORS]
    if workload == "scenario-mix":
        ops = []
        for name in SCENARIOS:
            ops.append(run_op(name))
            ops.append(run_op(name, no_spikes=True))
            for sigma in NOISE_SIGMAS:
                for seed in NOISE_SEEDS:
                    ops.append(run_op(name, noisy_config_name(sigma, seed)))
        return ops
    if workload == "replay-long":
        return [replay_op(s) for s in LOG_SEEDS]
    raise ValueError(f"unknown workload {workload!r}")


class Workload:
    """Operation cycles for one workload, drawn from a seeded generator.

    A cycle is the smallest unit with a fixed composition: one sweep, one
    replay, or fifteen scenario runs (each scenario once as shipped, once
    with --no-spikes and once on a noisy config).  Timing whole cycles keeps
    the scenario mix identical from run to run.
    """

    def __init__(self, name: str, seed: int) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.log_seed = random.Random(f"{name}:{seed}:inputs").choice(LOG_SEEDS)

    def cycle(self, rng: random.Random) -> list[Op]:
        if self.name == "sweep-dense":
            return [sweep_op(rng.choice(SWEEP_SEEDS), rng.choice(SWEEP_SENSORS))]
        if self.name == "replay-long":
            return [replay_op(self.log_seed)]
        ops = []
        for name in SCENARIOS:
            noisy = noisy_config_name(rng.choice(NOISE_SIGMAS), rng.choice(NOISE_SEEDS))
            ops += [run_op(name), run_op(name, no_spikes=True), run_op(name, noisy)]
        rng.shuffle(ops)
        return ops


def write_inputs(workload: str, work: Path, log_seeds: tuple[int, ...]) -> None:
    """Write the shipped config and the workload's generated inputs into ``work``."""
    shutil.copyfile(REPO / "configs" / "default.yaml", work / "default.yaml")
    if workload == "scenario-mix":
        for name in SHIPPED_SCENARIOS:
            shutil.copyfile(REPO / "scenarios" / f"{name}.yaml", work / f"{name}.yaml")
        (work / f"{MULTI_CONTACT}.yaml").write_text(MULTI_CONTACT_YAML, encoding="ascii")
        for sigma in NOISE_SIGMAS:
            for seed in NOISE_SEEDS:
                text = NOISY_CONFIG_TEMPLATE.format(seed=seed, sigma=sigma)
                (work / noisy_config_name(sigma, seed)).write_text(text, encoding="ascii")
    elif workload == "replay-long":
        for seed in log_seeds:
            (work / f"frames_{seed}.csv").write_text(frame_log(seed), encoding="ascii")


def sensor_counts(rng: random.Random, frames: int) -> list[int]:
    """Raw counts for one sensor: held segments, none first, then one of each other regime.

    The log opens on "none" because the filter seeds on its first sample:
    after any contact it settles a rounding step below full scale
    (1022.9999999999995 on the shipped line), so the estimate only ever
    reports no contact before the first touch.
    """
    rest = ["fingertip", "body"]
    rng.shuffle(rest)
    regimes = ["none"] + rest
    counts: list[int] = []
    while len(counts) < frames:
        regime = regimes.pop(0) if regimes else rng.choice(tuple(REGIME_BANDS))
        low, high = REGIME_BANDS[regime]
        level = rng.randint(low, high)
        for _ in range(rng.randint(*SEGMENT_FRAMES)):
            counts.append(min(max(level + rng.randint(-3, 3), low), high))
    return counts[:frames]


def log_frames(seed: int, frames_per_sensor: int = LOG_FRAMES_PER_SENSOR) -> list[tuple[int, int, int]]:
    """Interleaved (t_ms, sensor, counts) frames, t_ms strictly rising per sensor at LOG_DT_MS."""
    rng = random.Random(seed)
    frames = []
    for sensor in LOG_SENSORS:
        offset = rng.randrange(LOG_DT_MS)
        for j, counts in enumerate(sensor_counts(rng, frames_per_sensor)):
            frames.append((offset + j * LOG_DT_MS, sensor, counts))
    order = list(LOG_SENSORS)
    rng.shuffle(order)
    frames.sort(key=lambda f: (f[0], order.index(f[1])))
    return frames


def frame_log(seed: int, frames_per_sensor: int = LOG_FRAMES_PER_SENSOR) -> str:
    lines = ["t_ms,sensor,counts"]
    lines += [f"{t},{s},{c}" for t, s, c in log_frames(seed, frames_per_sensor)]
    return "\n".join(lines) + "\n"
