"""The seeded workload generator and its agreement with the digest table."""

import json
import random
from pathlib import Path

import pytest

import generate
from generate import REPO
from workload import DIGESTS, missing_regimes


def classify(counts: int) -> str:
    return next(r for r, (low, high) in generate.REGIME_BANDS.items() if low <= counts <= high)


@pytest.mark.parametrize("seed", generate.LOG_SEEDS[:4])
def test_log_is_strictly_rising_at_dt_per_sensor_and_covers_every_regime(seed):
    frames = generate.log_frames(seed)
    assert len(frames) == generate.LOG_FRAMES_PER_SENSOR * len(generate.LOG_SENSORS)
    assert [f[0] for f in frames] == sorted(f[0] for f in frames)
    for sensor in generate.LOG_SENSORS:
        own = [f for f in frames if f[1] == sensor]
        times = [t for t, _, _ in own]
        assert all(b - a == generate.LOG_DT_MS for a, b in zip(times, times[1:]))
        assert {classify(c) for _, _, c in own} == set(generate.REGIME_BANDS)
        assert classify(own[0][2]) == "none"


def test_log_is_a_function_of_its_seed():
    assert generate.frame_log(501, 50) == generate.frame_log(501, 50)
    assert generate.frame_log(501, 50) != generate.frame_log(502, 50)


def test_replayed_log_reaches_every_regime_on_every_sensor(tmp_path, monkeypatch):
    import nerveline.cli

    monkeypatch.chdir(tmp_path)
    Path("frames.csv").write_text(generate.frame_log(503, 600), encoding="ascii")
    config = str(REPO / "configs" / "default.yaml")
    assert nerveline.cli.main(["replay", "--config", config, "--log", "frames.csv"]) == 0
    assert missing_regimes("replay.csv") == []


@pytest.mark.parametrize("name", generate.WORKLOADS)
def test_every_cycle_op_has_a_recorded_digest(name):
    recorded = json.loads(DIGESTS.read_text(encoding="ascii"))[name]
    assert set(recorded) == {op.key for op in generate.catalogue(name)}
    for seed in range(5):
        workload = generate.Workload(name, seed)
        rng = random.Random(seed)
        for _ in range(3):
            assert all(op.key in recorded for op in workload.cycle(rng))


def test_scenario_cycle_has_a_fixed_mix():
    workload = generate.Workload("scenario-mix", 7)
    ops = workload.cycle(random.Random(7))
    assert len(ops) == 3 * len(generate.SCENARIOS)
    assert sum("--no-spikes" in op.argv for op in ops) == len(generate.SCENARIOS)
    assert sum(op.argv[2].startswith("noisy_") for op in ops) == len(generate.SCENARIOS)


def test_inputs_are_written_for_every_op(tmp_path):
    for name in generate.WORKLOADS:
        generate.write_inputs(name, tmp_path, generate.LOG_SEEDS[:1])
    for name in ("sweep-dense", "scenario-mix"):
        for op in generate.catalogue(name):
            inputs = [op.argv[i + 1] for i, arg in enumerate(op.argv) if arg in ("--config", "--scenario")]
            assert all((tmp_path / path).is_file() for path in inputs)
    assert (tmp_path / f"frames_{generate.LOG_SEEDS[0]}.csv").is_file()


def test_multi_contact_differs_between_spiked_and_smooth_skin():
    recorded = json.loads(DIGESTS.read_text(encoding="ascii"))["scenario-mix"]
    spiked, smooth = (
        recorded[generate.run_op(generate.MULTI_CONTACT, no_spikes=flag).key]["files"] for flag in (False, True)
    )
    assert spiked != smooth
