"""Every key a config or scenario file can set moves an output.

Each field of the records the loaders build, and each key a file spells in
its own way (the filter block), has a witness: one valid change to the
shipped config or to a shipped scenario, the command that runs it, and the
output the change moves.  The fields come from the records' own tables, so
a field added without a witness fails here, and a key that changes no
output cannot be kept unnoticed.  A key the loader reads in a second place
(the top-level tick) has a second witness for that reading.
"""

import copy
from pathlib import Path
from typing import Any, NamedTuple

import pytest
import yaml

from nerveline import (
    ActuatorSpec,
    CalibrationData,
    ContactRule,
    ControllerConfig,
    Hand,
    NerveLineSpec,
    RunConfig,
    Scenario,
    load_config,
    load_scenario,
    run_scenario,
    write_calibration,
)
from nerveline.bounds import table
from nerveline.cli import _calibration_table, main

REPO = Path(__file__).resolve().parent.parent
RECORDS = (RunConfig, NerveLineSpec, ControllerConfig, Hand, ActuatorSpec, Scenario, ContactRule)
FILE_KEYS = ("filter.cutoff_hz", "filter.coefficient_a")  # spelt in the file, not as a field
FIELDS = sorted({f"{cls.__name__}.{name}" for cls in RECORDS for name in table(cls).names} | set(FILE_KEYS))

# a hand of two wires whose close_fingers args differ: the index flexion, then the thumb's rotation at 0
HAND = {"actuators": [{"id": 0, "joint_ref": "index_flexion"}, {"id": 1, "joint_ref": "thumb_internal_rotation"}]}
# a calibration file unlike the noise-free triplet (1023, 236, 93) of the shipped lines
CALIBRATION = {i: CalibrationData(v_max=1023, v_mid=300, v_min=93) for i in range(4)}
# a frame log of sensor 0 pressed on its body, then released
FRAMES = "t_ms,sensor,counts\n" + "".join(f"{t},0,{150 if t < 200 else 1023}\n" for t in range(0, 400, 10))


class Witness(NamedTuple):
    """One valid change and the output it moves.

    ``output`` is what ``command`` gives: ``file`` (the bytes it wrote), ``stdout`` or
    ``exit``, or for ``run`` also ``commands``, the ``ScenarioResult.commands`` of the
    same run made in process.  ``change`` and ``setting`` map
    a path into the config (``config.``) or the scenario (``scenario.``) to a value:
    ``change`` is made on one side only, ``setting`` on both, to put the field where
    it shows.
    """

    command: str
    output: str
    change: dict[str, Any]
    setting: dict[str, Any] = {}
    scenario: str = "scissors_present"


WITNESSES = {
    # RunConfig
    "RunConfig.seed": Witness("sweep", "file", {"config.seed": 1}),
    "RunConfig.sensors": Witness("run", "file", {"config.sensors": [{"index": 0}, {"index": 1}]}),
    "RunConfig.controller": Witness("run", "stdout", {"config.controller": {"max_retries": 0}}, scenario="no_scissors"),
    "RunConfig.filter_coefficient_a": Witness("run", "file", {"config.filter": {"coefficient_a": 0.5}}),
    "RunConfig.dt_ms": Witness("run", "file", {"config.dt_ms": 20}),
    "RunConfig.noise_sd_counts": Witness("calibrate", "file", {"config.noise_sd_counts": 2.0}),
    "RunConfig.quantize_to_spikes": Witness(
        "run", "file", {"config.quantize_to_spikes": False}, {"scenario.rules.0.position_mm": 72.0}
    ),
    "RunConfig.calibration_file": Witness("run", "file", {"config.calibration_file": "cal.txt"}),
    "RunConfig.hand": Witness("run", "commands", {"config.hand": HAND}),
    # NerveLineSpec, on the line of sensor 0
    "NerveLineSpec.effective_length_mm": Witness("sweep", "file", {"config.sensors.0.effective_length_mm": 60.0}),
    "NerveLineSpec.spike_pitch_mm": Witness("sweep", "file", {"config.sensors.0.spike_pitch_mm": 4.0}),
    "NerveLineSpec.flat_rail_ohm_per_mm": Witness(
        "calibrate", "file", {"config.sensors.0.flat_rail_ohm_per_mm": 100.0}
    ),
    "NerveLineSpec.string_rail_ohm_per_mm": Witness(
        "calibrate", "file", {"config.sensors.0.string_rail_ohm_per_mm": 100.0}
    ),
    "NerveLineSpec.lead_offset_ohm": Witness("calibrate", "file", {"config.sensors.0.lead_offset_ohm": 20_000.0}),
    "NerveLineSpec.pullup_ohm": Witness("calibrate", "file", {"config.sensors.0.pullup_ohm": 50_000.0}),
    "NerveLineSpec.adc_full_scale": Witness("calibrate", "file", {"config.sensors.0.adc_full_scale": 4095}),
    # a light touch at 60 mm lies on the body below 64 mm and on the tip above 56 mm
    "NerveLineSpec.body_fraction": Witness(
        "run",
        "file",
        {"config.sensors.0.body_fraction": 0.7},
        {"scenario.rules.0.position_mm": 60.0, "scenario.rules.0.bridge_ohm": 40_000.0},
    ),
    # ControllerConfig
    # a touch reads p below the threshold: the grasp's touch at 70 mm reads about 88, so at 20 it is missed
    "ControllerConfig.touch_threshold_p": Witness("run", "exit", {"config.controller.touch_threshold_p": 20.0}),
    "ControllerConfig.base_threshold_p": Witness(
        "run", "stdout", {"config.controller.base_threshold_p": 70.0}, scenario="scissors_regrasp"
    ),
    "ControllerConfig.step_mm": Witness(
        "run", "commands", {"config.controller.step_mm": 2.0}, scenario="scissors_regrasp"
    ),
    "ControllerConfig.wrist_rotation_deg": Witness(
        "run", "commands", {"config.controller.wrist_rotation_deg": 30.0}, scenario="scissors_regrasp"
    ),
    "ControllerConfig.max_retries": Witness(
        "run", "stdout", {"config.controller.max_retries": 0}, scenario="no_scissors"
    ),
    "ControllerConfig.max_regrasp_steps": Witness(
        "run", "exit", {"config.controller.max_regrasp_steps": 2}, scenario="scissors_regrasp"
    ),
    # a one-sample window passes the base check a step before a ten-sample one
    "ControllerConfig.window_n": Witness(
        "run",
        "stdout",
        {"config.controller.window_n": 1},
        {"config.controller.base_threshold_p": 70.0},
        scenario="scissors_regrasp",
    ),
    "ControllerConfig.dwell_ticks": Witness("run", "stdout", {"config.controller.dwell_ticks": 20}),
    "ControllerConfig.watched_sensor_grasp": Witness("run", "exit", {"config.controller.watched_sensor_grasp": 2}),
    "ControllerConfig.watched_sensor_regrasp": Witness(
        "run", "exit", {"config.controller.watched_sensor_regrasp": 2}, scenario="scissors_regrasp"
    ),
    # Hand and ActuatorSpec: the close_fingers args
    "Hand.actuators": Witness(
        "run", "commands", {"config.hand.actuators": HAND["actuators"][:1]}, {"config.hand": HAND}
    ),
    "ActuatorSpec.id": Witness("run", "commands", {"config.hand.actuators.0.id": 2}, {"config.hand": HAND}),
    "ActuatorSpec.pulley_radius_mm": Witness(
        "run", "commands", {"config.hand.actuators.0.pulley_radius_mm": 10.0}, {"config.hand": HAND}
    ),
    # every flexion joint closes to the same angle, so the witness is a joint that stays at 0
    "ActuatorSpec.joint_ref": Witness(
        "run", "commands", {"config.hand.actuators.0.joint_ref": "thumb_internal_rotation"}, {"config.hand": HAND}
    ),
    "ActuatorSpec.displacement_table": Witness(
        "run",
        "commands",
        {"config.hand.actuators.0.displacement_table": {"grasp": 6.2, "open": 0.0}},
        {"config.hand": HAND},
    ),
    # Scenario: run writes its trace to <name>_trace.csv
    "Scenario.name": Witness("run", "file", {"scenario.name": "renamed"}),
    "Scenario.goal": Witness("run", "stdout", {"scenario.goal": "operate"}),
    "Scenario.expected_outcome": Witness("run", "exit", {"scenario.expected_outcome": "failed"}),
    "Scenario.object_pose_mm": Witness("run", "commands", {"scenario.object_pose_mm": {"x": 100.0, "y": 40.0}}),
    "Scenario.rules": Witness("run", "file", {"scenario.rules": []}),
    # ContactRule
    "ContactRule.sensor": Witness("run", "file", {"scenario.rules.0.sensor": 1}),
    "ContactRule.position_mm": Witness("run", "file", {"scenario.rules.0.position_mm": 30.0}),
    "ContactRule.phases": Witness("run", "file", {"scenario.rules.0.phases": ["VerifyGrasp"]}),
    "ContactRule.bridge_ohm": Witness("run", "file", {"scenario.rules.0.bridge_ohm": 40_000.0}),
    "ContactRule.slide_mm_per_step": Witness(
        "run", "stdout", {"scenario.rules.1.slide_mm_per_step": -10.0}, scenario="scissors_regrasp"
    ),
    "ContactRule.attempt": Witness("run", "stdout", {"scenario.rules.0.attempt": 2}),
    # the file's own spellings
    "filter.cutoff_hz": Witness("run", "file", {"config.filter.cutoff_hz": 2.0}),
    "filter.coefficient_a": Witness("replay", "file", {"config.filter": {"coefficient_a": 0.5}}),
}
# the top-level tick also turns filter.cutoff_hz into the coefficient; replay's log brings its own
# timestamps, so its output moves with the tick only through the filter
SECOND_READINGS = {"dt_ms": Witness("replay", "file", {"config.dt_ms": 20})}


def changed(data, changes):
    """``data`` with each ``path: value`` of ``changes`` set, the path's parts split at dots."""
    for path, value in changes.items():
        *parents, last = [int(part) if part.isdigit() else part for part in path.split(".")]
        node = data
        for part in parents:
            node = node[part]
        node[last] = value
    return data


ARGV = {
    "sweep": ["sweep", "--repeats", "5", "--out", "out"],
    "run": ["run", "--scenario", "scenario.yaml"],  # the trace goes to <name>_trace.csv
    "replay": ["replay", "--log", "log.csv", "--out", "out"],
    "calibrate": ["calibrate", "--out", "out"],
}


@pytest.fixture
def observe(monkeypatch, capsys):
    """The output of a witness's command in a new directory, with ``changes`` made to the shipped files."""

    def output(witness, changes, work):
        config = yaml.safe_load((REPO / "configs" / "default.yaml").read_text(encoding="utf-8"))
        scenario = yaml.safe_load((REPO / "scenarios" / f"{witness.scenario}.yaml").read_text(encoding="utf-8"))
        files = changed({"config": config, "scenario": scenario}, copy.deepcopy({**witness.setting, **changes}))
        work.mkdir()
        monkeypatch.chdir(work)
        for name, data in files.items():
            Path(f"{name}.yaml").write_text(yaml.safe_dump(data), encoding="utf-8")
        write_calibration("cal.txt", CALIBRATION)
        Path("log.csv").write_text(FRAMES, encoding="ascii")
        if witness.output == "commands":
            run = load_config("config.yaml")
            return run_scenario(load_scenario("scenario.yaml", run), run, _calibration_table(run)).commands
        code = main(ARGV[witness.command] + ["--config", "config.yaml"])
        out, err = capsys.readouterr()
        assert code != 2, err  # a witness is a valid change
        written = Path("out" if witness.command != "run" else f"{witness.scenario}_trace.csv")
        return {"exit": code, "stdout": out, "file": written.read_bytes() if written.exists() else None}[witness.output]

    return output


def test_every_field_has_a_witness():
    assert WITNESSES.keys() == set(FIELDS)


@pytest.mark.parametrize("field", FIELDS + sorted(SECOND_READINGS))
def test_field_moves_an_output(tmp_path, observe, field):
    """The witness's change moves its output, and both sides are valid inputs."""
    witnesses = WITNESSES | SECOND_READINGS
    assert field in witnesses, f"{field}: no witness, so no change to it is known to move an output"
    witness = witnesses[field]
    assert observe(witness, {}, tmp_path / "before") != observe(witness, witness.change, tmp_path / "after")
