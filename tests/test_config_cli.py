"""Configuration loading and command line harness tests."""

import hashlib
import io
import os
import re
import statistics
import string
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nerveline.bounds
import nerveline.cli
import nerveline.config
from nerveline import (
    ConfigError,
    FilterState,
    Hand,
    NerveLineSpec,
    Regime,
    ScenarioError,
    TaskPhase,
    auto_calibration,
    estimate_p,
    filter_step,
    load_config,
    load_scenario,
    run_scenario,
    smoothing_coefficient,
)
from nerveline.cli import _build_parser, _calibration_table, _common_ratios, _mean_pvariance, _trace_lines, main
from nerveline.config import _load_yaml_mapping
from nerveline.estimation import _write_lines
from oracles import replay_reference, sweep_csv_reference

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default.yaml"
SCENARIOS = REPO / "scenarios"

COEFFICIENT_A = 0.7609427763893117

NOISY = "seed: 7\nnoise_sd_counts: 3.0\n"

# the run, its controller and its filter tick every 40 ms, not the default 10 ms
CONTROLLER_TICK = "seed: 1\ndt_ms: 40\n"

# sensor 1 differs from the other three lines in its pull-up
TWO_SPECS = "seed: 1\nsensors: [{index: 0}, {index: 1, pullup_ohm: 50000}, {index: 2}, {index: 3}]\n"

# 72.5 mm lies halfway between the spikes at 70 and 75 mm, so every tick flips a coin
MIDPOINT_SCENARIO = (
    "name: midpoint\ngoal: lift\nexpected_outcome: lifted\n"
    "rules: [{sensor: 0, position_mm: 72.5, phases: [VerifyGrasp, Lift]}]\n"
)


# argparse's usage lines, as it wraps them at 80 columns
SWEEP_USAGE = (
    "usage: nerveline sweep [-h] --config CONFIG [--seed SEED] [--sensor SENSOR]\n"
    "                       [--repeats REPEATS] [--jitter-mm JITTER_MM] [--out OUT]\n"
    "                       [--frames-out FRAMES_OUT]\n"
)
TOP_USAGE = "usage: nerveline [-h] {sweep,run,replay,calibrate} ...\n"


SHIPPED_YAML = sorted([DEFAULT_CONFIG, *SCENARIOS.glob("*.yaml")])

# the cases of TestCliRun::test_unloadable_yaml_exits_two
UNLOADABLE_YAML = [
    b"x: " + b"[" * 1000 + b"]" * 1000 + b"\n",
    b"seed: !!timestamp 2020-13-45\n",
    b"seed: !!int 'x'\n",
    b"seed: \xff\n",
    # tag constructors that fail with IndexError, AttributeError or KeyError
    b"seed: !!int\n",
    b"seed: !!float ''\n",
    b"seed: !!timestamp ''\n",
    b"seed: !!bool x\n",
]
UNLOADABLE_YAML_IDS = [
    "deep_nesting", "bad_timestamp", "bad_int", "not_utf8",
    "empty_int", "empty_float", "empty_timestamp", "bad_bool",
]

# a text of each kind outside the reader's subset, and what the reader says of it
REFUSED_YAML = {
    "tab": ("seed:\t1\n", "line 1: cannot read 'seed:\\t1'"),
    "tag": ("seed: !!int 1\n", "line 1: cannot read '!!int 1'"),
    "anchor": ("seed: &s 1\n", "line 1: cannot read '&s 1'"),
    "alias": ("seed: 1\ndt_ms: *s\n", "line 2: cannot read '*s'"),
    "double_quote": ('seed: 1\nname: "x"\n', "line 2: cannot read '\"x\"'"),
    "block_scalar": ("seed: 1\nname: |\n  x\n", "line 2: cannot read '|'"),
    "multi_line_scalar": ("seed: 1\nname: x\n  y\n", "line 3: cannot read 'y'"),
    "second_document": ("seed: 1\n---\nseed: 2\n", "line 2: cannot read '---'"),
    "deep_flow": ("x: " + "[" * 3000 + "]" * 3000 + "\n", "line 1: nested deeper than 64 levels"),
    "deep_block": ("- " * 8000 + "x\n", "line 1: nested deeper than 64 levels"),
    "yaml_1_1_string": ("seed: 1\nnoise_sd_counts: 1e300\n", "line 2: cannot read '1e300'; 1.0e+300 is read as a number"),
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_shipped_default(self):
        config = load_config(DEFAULT_CONFIG)
        assert config.seed == 12345
        assert sorted(config.sensors) == [0, 1, 2, 3]
        assert config.filter_coefficient_a == COEFFICIENT_A
        assert config.controller.dwell_ticks == 10
        assert config.quantize_to_spikes is True
        assert config.calibration_file is None

    def test_minimal_config_uses_defaults(self, tmp_path):
        config = load_config(write(tmp_path, "c.yaml", "seed: 1\n"))
        assert sorted(config.sensors) == [0, 1, 2, 3]
        assert config.sensors[0].pullup_ohm == 100_000.0
        assert config.dt_ms == 10
        assert config.controller.max_retries == 2

    def test_missing_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed: required"):
            load_config(write(tmp_path, "c.yaml", "dt_ms: 10\n"))

    def test_field_paths_in_errors(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            sensors:
              - index: 0
                pullup_ohm: 0
            """,
        )
        with pytest.raises(ConfigError, match=r"sensors\[0\].pullup_ohm: must be > 0"):
            load_config(path)

    def test_all_violations_collected(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            noise_sd_counts: -1
            sensors:
              - index: 0
                adc_full_scale: 0
            """,
        )
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        message = str(excinfo.value)
        assert "seed: required" in message
        assert "noise_sd_counts" in message
        assert r"sensors[0].adc_full_scale" in message

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "seed: 1\nsensors: [{index: 0, bogus: 1, pullup_ohm: 0, supply_volts: 0, adc_full_scale: 0}]\n",
                "sensors[0].bogus: unknown key\n"
                "sensors[0].supply_volts: unknown key\n"
                "sensors[0].pullup_ohm: must be > 0, got 0\n"
                "sensors[0].adc_full_scale: must be > 0, got 0",
            ),
            (
                "seed: 1\ncontroller: {window_n: 20, dwell_ticks: 10}\n",
                "controller.dwell_ticks: must cover window_n (20), got 10",
            ),
            # a bound is reported, and so is a cross-field rule of fields that are valid
            (
                "seed: 1\ncontroller: {window_n: 20, dwell_ticks: 10, max_retries: -1}\n",
                "controller.max_retries: must be >= 0, got -1\n"
                "controller.dwell_ticks: must cover window_n (20), got 10",
            ),
            # a bad block that repeats is reported again, under its own path
            (
                "seed: 1\nsensors: [{index: 0, pullup_ohm: 0}, {index: 1, pullup_ohm: 0}]\n",
                "sensors[0].pullup_ohm: must be > 0, got 0\n"
                "sensors[1].pullup_ohm: must be > 0, got 0",
            ),
            # true equals 1, but a block with true does not reuse the spec of a block with 1
            (
                "seed: 1\nsensors: [{index: 0, pullup_ohm: 1}, {index: 1, pullup_ohm: true}]\n",
                "sensors[1].pullup_ohm: must be a finite number, got True",
            ),
            # one error under each top-level key, listed in the order of these keys
            (
                "bogus: 1\nnoise_sd_counts: -1\ndt_ms: 0\nquantize_to_spikes: 1\nfilter: {coefficient_a: 1.0}\n"
                "sensors: [{index: 0, pullup_ohm: 0}, {index: 1}]\ncontroller: {max_retries: -1}\n"
                "calibration_file: 3\nhand: {fingers: []}\n",
                "bogus: unknown key\n"
                "seed: required; runs must not fall back to wall-clock entropy\n"
                "noise_sd_counts: must be >= 0, got -1\n"
                "dt_ms: must be > 0, got 0\n"
                "quantize_to_spikes: must be a boolean, got 1\n"
                "filter.coefficient_a: must be in [0, 1), got 1.0\n"
                "sensors[0].pullup_ohm: must be > 0, got 0\n"
                "controller.max_retries: must be >= 0, got -1\n"
                "calibration_file: must be a string or null, got 3\n"
                "hand.fingers: unknown key",
            ),
            # the watched sensors sit with the controller, after the sensors
            (
                "seed: 1\ncalibration_file: 3\nsensors: [{index: 2}, {index: 3}]\nquantize_to_spikes: 1\n"
                "hand: {actuators: [{id: 0, role: twist, joint_ref: thumb_flexon}]}\nzzz: 2\n",
                "zzz: unknown key\n"
                "quantize_to_spikes: must be a boolean, got 1\n"
                "controller.watched_sensor_grasp: sensor 0 is not configured\n"
                "controller.watched_sensor_regrasp: sensor 1 is not configured\n"
                "calibration_file: must be a string or null, got 3\n"
                "hand.actuators[0].role: unknown key\n"
                "hand.actuators[0].joint_ref: unknown joint 'thumb_flexon'",
            ),
            # a controller block that failed is not replaced by the default one, which watches sensors 0 and 1
            (
                "seed: 1\nsensors: [{index: 2}, {index: 3}]\n"
                "controller: {watched_sensor_grasp: 2, watched_sensor_regrasp: 3, bogus: 1}\n",
                "controller.bogus: unknown key",
            ),
            # a cutoff so low that the coefficient rounds to 1 is reported under the key in the file
            (
                "seed: 1\nfilter: {cutoff_hz: 1.0e-300}\n",
                "filter.cutoff_hz: must be high enough to move the filter at dt_ms 10, got 1e-300",
            ),
        ],
        ids=[
            "unknown_key_then_bounds", "dwell_objection", "bound_over_objection",
            "identical_bad_blocks", "true_after_one", "one_per_top_level_key", "watched_after_sensors",
            "failed_block_not_defaulted", "cutoff_too_low",
        ],
    )
    def test_whole_error_texts_pinned(self, tmp_path, text, message):
        with pytest.raises(ConfigError) as excinfo:
            load_config(write(tmp_path, "c.yaml", text))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text,specs,checks",
        [(None, 1, 24), (TWO_SPECS, 2, 22)],
        ids=["shipped", "two_specs"],
    )
    def test_one_spec_per_distinct_block(self, tmp_path, monkeypatch, text, specs, checks):
        """Equal sensor blocks share one spec: built, and its bounds checked, once per load."""
        counts = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        number_problem = counted("number_problem", nerveline.bounds.number_problem)
        monkeypatch.setattr(nerveline.bounds, "number_problem", number_problem)
        monkeypatch.setattr(nerveline.config, "number_problem", number_problem)
        monkeypatch.setattr(NerveLineSpec, "__post_init__", counted("spec", NerveLineSpec.__post_init__))
        config = load_config(DEFAULT_CONFIG if text is None else write(tmp_path, "c.yaml", text))
        assert counts == {"spec": specs, "number_problem": checks}
        assert len(set(map(id, config.sensors.values()))) == specs

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sede: unknown key"):
            load_config(write(tmp_path, "c.yaml", "seed: 1\nsede: 2\n"))

    def test_filter_coefficient_direct(self, tmp_path):
        path = write(tmp_path, "c.yaml", "seed: 1\nfilter:\n  coefficient_a: 0.5\n")
        assert load_config(path).filter_coefficient_a == 0.5

    def test_filter_both_keys_rejected(self, tmp_path):
        path = write(
            tmp_path, "c.yaml", "seed: 1\nfilter:\n  coefficient_a: 0.5\n  cutoff_hz: 5\n"
        )
        with pytest.raises(ConfigError, match="not both"):
            load_config(path)

    def test_top_level_dt_flows_into_controller(self, tmp_path):
        """The top-level tick is the run's, which its controller keeps; the controller block has no tick."""
        assert load_config(write(tmp_path, "c.yaml", CONTROLLER_TICK)).dt_ms == 40
        with pytest.raises(ConfigError) as excinfo:
            load_config(write(tmp_path, "c2.yaml", "seed: 1\ncontroller:\n  dt_ms: 40\n"))
        assert str(excinfo.value) == "controller.dt_ms: unknown key"

    @pytest.mark.parametrize(
        "value,problem", [(0, "must be > 0, got 0"), (2.5, "must be an integer, got 2.5")]
    )
    def test_top_level_dt_bound(self, tmp_path, value, problem):
        with pytest.raises(ConfigError) as excinfo:
            load_config(write(tmp_path, "c.yaml", f"seed: 1\ndt_ms: {value}\n"))
        assert str(excinfo.value) == f"dt_ms: {problem}"

    def test_filter_coefficient_follows_controller_tick(self, tmp_path):
        config = load_config(write(tmp_path, "c.yaml", CONTROLLER_TICK))
        assert config.filter_coefficient_a == smoothing_coefficient(5.0, 40)

    def test_hand_block_parsed(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            hand:
              actuators:
                - id: 0
                  pulley_radius_mm: 10.0
                  displacement_table: {grasp: 6.5, open: 0.0}
            """,
        )
        config = load_config(path)
        assert len(config.hand.actuators) == 1
        actuator = config.hand.actuators[0]
        assert actuator.pulley_radius_mm == 10.0
        assert actuator.displacement_table == {"grasp": 6.5, "open": 0.0}

    def test_hand_defaults_when_absent(self, tmp_path):
        config = load_config(write(tmp_path, "c.yaml", "seed: 1\n"))
        assert len(config.hand.actuators) == 7
        assert config.hand == Hand()

    def test_hand_field_paths_in_errors(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            hand:
              actuators:
                - id: 0
                  pulley_radius_mm: 0.0
                  joint_ref: index_flexion
                - id: 1
                  joint_ref: pinky_flexion
            """,
        )
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value).splitlines() == [
            "hand.actuators[0].pulley_radius_mm: must be > 0, got 0.0",
            "hand.actuators[1].joint_ref: unknown joint 'pinky_flexion'",
        ]

    def test_hand_duplicate_actuator_ids_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            hand:
              actuators:
                - {id: 3, joint_ref: index_flexion}
                - {id: 3, joint_ref: index_flexion}
            """,
        )
        with pytest.raises(ConfigError, match="hand.actuators: actuator ids must be unique"):
            load_config(path)

    def test_watched_sensor_must_exist(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            sensors:
              - index: 0
            controller:
              watched_sensor_regrasp: 1
            """,
        )
        with pytest.raises(ConfigError, match="watched_sensor_regrasp: sensor 1"):
            load_config(path)

    def test_duplicate_sensor_index_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "c.yaml",
            """\
            seed: 1
            sensors:
              - index: 0
              - index: 0
            """,
        )
        with pytest.raises(ConfigError, match=r"sensors\[1\].index: duplicate"):
            load_config(path)

    def test_not_yaml_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"c.yaml: line 1: cannot read '\[unclosed'$"):
            load_config(write(tmp_path, "c.yaml", "seed: [unclosed\n"))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("seed: 1\nseed: 2\n", "line 2: duplicate key 'seed' (first at line 1)"),
            (
                "seed: 1\ncontroller:\n  window_n: 5\n  dwell_ticks: 10\n  window_n: 10\n",
                "line 5: duplicate key 'window_n' (first at line 3)",
            ),
            (
                "seed: 1\nsensors: [{index: 0, index: 1}, {index: 2}]\n",
                "line 2: duplicate key 'index' (first at line 2)",
            ),
        ],
        ids=["top_level", "nested_block", "flow_mapping"],
    )
    def test_duplicate_key_rejected(self, tmp_path, capsys, text, message):
        """A key given twice in one mapping is refused with both lines, not read as its last value."""
        config = write(tmp_path, "c.yaml", text)
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "cal.txt")]) == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"

    def test_non_mapping_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="top level"):
            load_config(write(tmp_path, "c.yaml", "- a\n- b\n"))


class TestLoadScenario:
    def test_shipped_scenarios_parse(self):
        config = load_config(DEFAULT_CONFIG)
        for name in ("no_scissors", "scissors_present", "scissors_moved_back", "scissors_regrasp"):
            scenario = load_scenario(SCENARIOS / f"{name}.yaml", config)
            assert scenario.name == name

    def test_regrasp_scenario_contents(self):
        config = load_config(DEFAULT_CONFIG)
        scenario = load_scenario(SCENARIOS / "scissors_regrasp.yaml", config)
        assert scenario.goal == "operate"
        slide_rule = next(r for r in scenario.rules if r.sensor == 1)
        assert slide_rule.slide_mm_per_step == -5.0
        assert TaskPhase.VERIFY_BASE in slide_rule.phases

    def test_unknown_phase_named_with_path(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            """\
            name: x
            goal: lift
            expected_outcome: lifted
            rules:
              - sensor: 0
                position_mm: 10.0
                phases: [VerifyGrasp, Liftt]
            """,
        )
        with pytest.raises(ScenarioError, match=r"rules\[0\].phases\[1\]: unknown phase 'Liftt'"):
            load_scenario(path, config)

    def test_rule_error_text_pinned(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            """\
            name: x
            goal: lift
            expected_outcome: lifted
            rules:
              - {sensor: 0, position_mm: 10.0, bridge_ohm: -1, phases: [Lift, Nope], extra: 1}
            """,
        )
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(path, config)
        assert str(excinfo.value) == (
            "rules[0].phases[1]: unknown phase 'Nope'\n"
            "rules[0].extra: unknown key\n"
            "rules[0].bridge_ohm: must be >= 0, got -1"
        )

    def test_errors_listed_in_field_order_then_unknown_keys(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            """\
            extra: 1
            rules: [{sensor: 0, position_mm: -1, phases: [Nope]}]
            object_pose_mm: {x: 1}
            expected_outcome: maybe
            goal: juggle
            name: ''
            """,
        )
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(path, config)
        assert str(excinfo.value) == (
            "name: must be a non-empty string, got ''\n"
            "goal: must be one of lift, operate, got 'juggle'\n"
            "expected_outcome: must be one of lifted, retried_then_lifted, operated, failed, got 'maybe'\n"
            "object_pose_mm: must be a mapping with keys x and y, got {'x': 1}\n"
            "rules[0].phases[0]: unknown phase 'Nope'\n"
            "rules[0].position_mm: must be >= 0, got -1\n"
            "extra: unknown key"
        )

    def test_rule_sensor_cross_checked(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            """\
            name: x
            goal: lift
            expected_outcome: lifted
            rules:
              - sensor: 7
                position_mm: 10.0
                phases: [Lift]
            """,
        )
        with pytest.raises(ScenarioError, match=r"rules\[0\].sensor: sensor 7"):
            load_scenario(path, config)

    def test_rule_position_cross_checked(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            """\
            name: x
            goal: lift
            expected_outcome: lifted
            rules:
              - sensor: 0
                position_mm: 90.0
                phases: [Lift]
            """,
        )
        with pytest.raises(ScenarioError, match=r"rules\[0\].position_mm: 90.0 beyond"):
            load_scenario(path, config)

    def test_bad_goal_and_outcome(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(tmp_path, "s.yaml", "name: x\ngoal: juggle\nexpected_outcome: maybe\n")
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(path, config)
        assert "goal:" in str(excinfo.value)
        assert "expected_outcome:" in str(excinfo.value)

    def test_object_pose_shape(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        path = write(
            tmp_path,
            "s.yaml",
            "name: x\ngoal: lift\nexpected_outcome: lifted\nobject_pose_mm: {x: 1.0}\n",
        )
        with pytest.raises(ScenarioError, match="object_pose_mm"):
            load_scenario(path, config)


# pieces of YAML, including those outside the reader's subset: tags, anchors,
# aliases, tabs, ``?``, block scalars, directives, CR, non-ASCII
YAML_PIECES = [
    "a", "seed", "x", "1", "-2", "0.5", ".inf", ".nan", "1e3", "0x1f", "1_0", "true", "No", "null",
    "~", "2020-01-01", "2001-12-14 21:59:43.10", ":", ": ", "- ", "-", ",", ", ", "[", "]", "{", "}",
    "'", "'q r'", '"', '"q r"', "#", " # c", "\n", "\n  ", "\n    ", " ", "---", "...", "!", "!!int ",
    "!!str ", "!!float ", "!!timestamp ", "!t ", "&a ", "*a", "\t", "?", "? ", "|", ">", "%YAML 1.1",
    "<<: ", "\r\n", "\u00e9", "\\", "`", "@",
]
EDIT_CHARS = string.ascii_letters + string.digits + " \n#:-_.,[]{}()'\"+/=;`" + "\t?!&*|>%@\\\r\u00e9"


@st.composite
def _edited(draw, texts):
    """A text from ``texts`` with up to four random cut-and-insert edits."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.text(st.sampled_from(EDIT_CHARS), max_size=3)) + text[at + cut :]
    return text


def _nested(style, depth):
    if style == "flow":
        return "x: " + "[" * depth + "]" * depth + "\n"
    if style == "block":
        return "- " * depth + "x"
    return "{a: " * depth + "1" + "}" * depth + "\n"


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

# the words the safe loader reads as bools and nulls, in each case it knows
BOOL_NULL_WORDS = [
    case(word)
    for word in ("yes", "no", "on", "off", "true", "false", "null")
    for case in (str.lower, str.title, str.upper)
]
# few keys, so that they repeat
_PLAIN_KEYS = ["a", "b", "x.y/z-1", "_k"]
_PLAIN_SCALARS = ["a", "x.y/z-1", "0", "-0", "7", "-12", "1.5", "-0.0", "00.5", "true", "false"]
_NEAR_SCALARS = ["012", "1.", ".5", "1e3", "1_0", "~", "'q'", "a b", *BOOL_NULL_WORDS]
_NEAR_FLOWS = ["[a,b]", "{a:1}", "[a, b,]", "[[a]]", "{a: [b]}", "[a: 1]", "{a, b}"]


def _mostly(near, inside, outside):
    """Draws from ``inside``, and with ``near`` one time in six from ``outside``."""
    if not near:
        return st.sampled_from(inside)
    return st.integers(0, 5).flatmap(lambda k: st.sampled_from(outside if k == 0 else inside))


@st.composite
def _block_lines(draw, near, indent=0, depth=0, as_list=None):
    """Lines of a block mapping or list at column ``indent``.

    They are in the reader's subset, or with ``near`` now and then just outside it.
    """
    keys = _mostly(near, _PLAIN_KEYS, BOOL_NULL_WORDS)
    scalars = _mostly(near, _PLAIN_SCALARS, _NEAR_SCALARS)
    values = st.one_of(
        scalars,
        st.lists(scalars, max_size=3).map(lambda items: "[" + ", ".join(items) + "]"),
        st.lists(st.tuples(keys, scalars), max_size=3).map(lambda pairs: "{" + ", ".join(map(": ".join, pairs)) + "}"),
        _mostly(near, ["[ ]", "{ }", "{a:  1 }"], _NEAR_FLOWS),
    )
    lines = []
    if draw(st.booleans()) if as_list is None else as_list:
        for _ in range(draw(st.integers(1, 3))):
            if depth < 3 and draw(st.booleans()):  # a mapping or list that starts on the item's line
                item = draw(_block_lines(near, indent + 2, depth + 1))
                item[0] = " " * indent + "- " + item[0].lstrip(" ")
            else:
                item = [" " * indent + "- " + draw(values)]
            lines += item
        return lines
    for _ in range(draw(st.integers(1, 3))):
        key = draw(keys)
        if depth < 3 and draw(st.booleans()):
            lines.append(" " * indent + key + ":" + draw(st.sampled_from(["", " # c", "   "])))
            # a block right of the key, or a list at it; outside, a block left of the key or a mapping at it
            as_list = draw(st.booleans())
            shift = draw(_mostly(near, [0, 1, 2, 3] if as_list else [1, 2, 3], [-1] if as_list else [-1, 0]))
            lines += draw(_block_lines(near, max(0, indent + shift), depth + 1, as_list))
        elif draw(st.booleans()):  # a value on a line of its own, right of its key
            lines += [" " * indent + key + ":", " " * (indent + draw(st.integers(1, 2))) + draw(values)]
        else:
            comment = draw(_mostly(near, ["", " # c"], ["#c"]))
            lines.append(" " * indent + key + ": " + draw(values) + comment)
    return lines


YAML_TEXTS = st.one_of(
    _edited(st.sampled_from([path.read_text() for path in SHIPPED_YAML])),
    _edited(st.builds(yaml.safe_dump, _VALUES, default_flow_style=st.sampled_from([False, True, None]))),
    st.lists(st.sampled_from(YAML_PIECES), max_size=30).map("".join),
    st.booleans().flatmap(_block_lines).map(lambda lines: "\n".join(lines) + "\n"),
    # around the depth of 64 beyond which the reader refuses a text, and far
    # beyond the ~500 levels where the pure loader's recursion gives out (a
    # bound that moves with the caller's stack); only block nesting goes that
    # deep here, because the pure scanner is quadratic in flow depth
    st.builds(_nested, st.sampled_from(["flow", "block", "flow_map"]), st.integers(1, 80)),
    st.builds(_nested, st.just("block"), st.integers(1000, 1100)),
)


def _verdict(load, path):
    """What loading ``path`` gives: the mapping, or the error and its message."""
    try:
        return load(path)
    except Exception as exc:  # some tags' constructors fail with IndexError or KeyError
        return f"{type(exc).__name__}: {exc}"


def _safe_load_mapping(path):
    """``_load_yaml_mapping`` spelled with ``yaml.safe_load`` alone."""
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError:
        raise
    except Exception as err:
        raise ConfigError(f"{path}: not valid YAML: {err}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping, got {type(raw).__name__}")
    return raw


class TestYamlFastPath:
    @given(YAML_TEXTS)
    # the safe loader ends a line, and so a comment, at CR, as reading a file does
    @example("seed: 1 # c\rdt_ms: 10\n")  # pure: an extra key
    @example("seed: 1 # c\rd: e: f\n")  # pure: ScannerError
    # a mapping 600 levels deep; pure: RecursionError
    @example("".join(" " * k + "a:\n" for k in range(600)) + " " * 600 + "a: 1\n")
    @example("a:\nb: 1\n")  # a null value; pure: {'a': None, 'b': 1}
    @example("a: b\n  c\n")  # a scalar over two lines; pure: {'a': 'b c'}
    @example("a" * 1025 + ": 1\n")  # a key over 1,024 characters; pure: ScannerError
    @example("expec\ted_outcome: failed\n")  # a tab in a key; pure: scanner error
    @example("object_pose_mm: {x: 120?0, y: 40.0}\n")  # '120?0'; pure: parser error
    @example("sensor: !\n")  # ''; pure: None
    @example("- " * 8000 + "x")  # an 8,000-deep list; pure: RecursionError
    @example(UNLOADABLE_YAML[0].decode())  # 1,000-deep flow; pure: RecursionError
    # collections 64 levels deep, which the reader reads, and 65, which it refuses
    @example(_nested("block", 64))
    @example(_nested("block", 65))
    @example(_nested("flow_map", 64))
    @example(_nested("flow_map", 65))
    @example(_nested("flow", 63))
    @example(_nested("flow", 64))
    @settings(max_examples=120, deadline=None)
    def test_matches_safe_load(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.yaml"
            path.write_text(text, encoding="utf-8")
            expected = _verdict(_safe_load_mapping, path)
            got = _verdict(lambda p: _load_yaml_mapping(p, ConfigError), path)
        refused = re.match(rf"ConfigError: {re.escape(str(path))}: line ([1-9][0-9]*): ", str(got))
        if refused:  # outside the subset: the error names one of the text's lines, read as the file is read
            assert int(refused[1]) <= len(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
        else:  # repr tells 1 from 1.0 and True, and a nan equals itself
            assert repr(got) == repr(expected)

    @pytest.mark.parametrize("word", BOOL_NULL_WORDS)
    def test_bool_and_null_words_are_not_plain_words(self, word):
        # true, false and null read as the safe loader reads them, and only as values; the other words not at all
        for text in (f"{word}: 1\n", f"a: {word}\n", f"- {word}\n", f"a: [{word}]\n", f"a: {{{word}: 1}}\n"):
            got = _verdict(nerveline.config._parse_yaml, text.split("\n"))
            if word in ("true", "false", "null") and not text.startswith(word) and "{" not in text:
                assert repr(got) == repr(yaml.safe_load(text))
            else:
                assert got.startswith("ValueError: line 1: cannot read "), (text, got)

    def test_shipped_files_take_the_fast_path(self):
        """Every shipped file is in the reader's subset, and reads as the safe loader reads it."""
        for path in SHIPPED_YAML:
            assert _load_yaml_mapping(path, ConfigError) == yaml.safe_load(path.read_text(encoding="ascii"))

    @pytest.mark.parametrize(
        "text,verdict",
        [
            ("a:\tb\n", "line 1: cannot read 'a:\\tb'"),
            ("a: {x: 1?0}\n", "line 1: cannot read '1?0'"),
            ("a: !\n", "line 1: cannot read '!'"),
            ("a: &x 1\nb: *x\n", "line 1: cannot read '&x 1'"),
            ("a: \u00e9\n", "line 1: byte 0xc3 is not ASCII"),
            ("a: @b\n", "line 1: cannot read '@b'"),
            ("- " * 8200 + "x", "line 1: nested deeper than 64 levels"),
            # inside the subset: a file's CR ends a line, as it does for the safe loader, and a
            # single-quoted scalar is read as yaml.safe_dump writes one
            ("a: 1 # c\rb: 2\n", {"a": 1, "b": 2}),
            ("a: 'b'\n", {"a": "b"}),
        ],
        ids=["tab", "question_mark", "bare_tag", "alias", "non_ascii", "at_sign", "over_16_kib", "cr", "quoted"],
    )
    def test_texts_outside_the_gate_skip_libyaml(self, tmp_path, text, verdict):
        """Texts that once went to PyYAML: each is refused by its line, or read as the safe loader reads it."""
        path = tmp_path / "in.yaml"
        path.write_bytes(text.encode("utf-8"))
        got = _verdict(lambda p: _load_yaml_mapping(p, ConfigError), path)
        if isinstance(verdict, dict):
            assert got == verdict == yaml.safe_load(text)
        else:
            assert got == f"ConfigError: {path}: {verdict}"

    @pytest.mark.parametrize("text,message", REFUSED_YAML.values(), ids=REFUSED_YAML)
    def test_texts_outside_the_subset_exit_two(self, tmp_path, capsys, text, message):
        config = tmp_path / "c.yaml"
        config.write_text(text, encoding="ascii")
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "cal.txt")]) == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"

    def test_pure_loader_alone_gives_the_same_results(self, tmp_path, monkeypatch):
        """PyYAML's pure loader, in the reader's place, loads the shipped files to the same records and
        refuses every text the reader refuses, each by its line."""

        def load_all():
            config = load_config(DEFAULT_CONFIG)
            loaded = [config, *(load_scenario(path, config) for path in sorted(SCENARIOS.glob("*.yaml")))]
            errors = []
            for k, content in enumerate(UNLOADABLE_YAML):
                bad = tmp_path / f"bad{k}.yaml"
                bad.write_bytes(content)
                errors.append(_verdict(load_config, bad))
            return loaded, errors

        own = load_all()
        monkeypatch.setattr(nerveline.config, "_parse_yaml", lambda lines: yaml.safe_load("\n".join(lines)) or {})
        pure = load_all()
        assert pure[0] == own[0]
        assert all(re.match(r"ConfigError: .*: line 1: ", message) for message in own[1]), own[1]
        assert all(isinstance(message, str) for message in pure[1]), pure[1]


class TestCliRun:
    @pytest.mark.parametrize(
        "scenario,outcome,steps",
        [
            ("scissors_present", "lifted", 50),
            ("no_scissors", "failed", 140),
            ("scissors_moved_back", "retried_then_lifted", 100),
            ("scissors_regrasp", "operated", 190),
        ],
    )
    def test_shipped_scenarios(self, tmp_path, capsys, scenario, outcome, steps):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "run",
                "--config", str(DEFAULT_CONFIG),
                "--scenario", str(SCENARIOS / f"{scenario}.yaml"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == f"outcome={outcome} steps={steps}\n"
        lines = out.read_text().splitlines()
        assert lines[0] == "t_ms,phase,sensor,raw,filtered,p,regime"
        assert len(lines) == 1 + steps * 4

    def test_outcome_mismatch_exits_one(self, tmp_path, capsys):
        scenario = write(
            tmp_path,
            "s.yaml",
            """\
            name: wrong_expectation
            goal: lift
            expected_outcome: failed
            rules:
              - sensor: 0
                position_mm: 70.0
                phases: [VerifyGrasp, Lift]
            """,
        )
        code = main(
            [
                "run",
                "--config", str(DEFAULT_CONFIG),
                "--scenario", str(scenario),
                "--out", str(tmp_path / "trace.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "outcome=lifted" in captured.out
        assert "expected failed, got lifted" in captured.err

    @staticmethod
    def assert_run_writes_library_trace(tmp_path, config_path, scenario_path, flags=(), **overrides):
        """`run`'s CSV, given ``flags``, renders `run_scenario`'s rows on the loaded config with ``overrides``."""
        out = tmp_path / "trace.csv"
        argv = ["run", "--config", str(config_path), "--scenario", str(scenario_path), *flags]
        assert main(argv + ["--out", str(out)]) == 0
        config = replace(load_config(config_path), **overrides)
        table = {i: auto_calibration(spec) for i, spec in config.sensors.items()}
        result = run_scenario(load_scenario(scenario_path, config), config, table)
        expected = "".join(
            f"{t_ms},{phase.value},{sensor},{raw},{filtered!r},{p!r},{regime.value}\n"
            for t_ms, phase, sensor, raw, filtered, p, regime in result.rows
        )
        assert out.read_text() == "t_ms,phase,sensor,raw,filtered,p,regime\n" + expected

    def test_controller_tick_matches_library_default(self, tmp_path):
        config_path = write(tmp_path, "c.yaml", CONTROLLER_TICK)
        self.assert_run_writes_library_trace(tmp_path, config_path, SCENARIOS / "scissors_regrasp.yaml")

    @pytest.mark.parametrize(
        "config_text,scenario_text",
        [
            (NOISY, None),
            (None, MIDPOINT_SCENARIO),
        ],
        ids=["noisy", "spike_midpoint"],
    )
    def test_run_matches_library_trace(self, tmp_path, config_text, scenario_text):
        config = DEFAULT_CONFIG if config_text is None else write(tmp_path, "c.yaml", config_text)
        scenario = SCENARIOS / "scissors_regrasp.yaml"
        if scenario_text is not None:
            scenario = write(tmp_path, "s.yaml", scenario_text)
        self.assert_run_writes_library_trace(tmp_path, config, scenario)

    def test_seed_and_no_spikes_flags_override_the_config(self, tmp_path):
        # noise makes the seed matter, and the midpoint contact the skin
        config = write(tmp_path, "c.yaml", NOISY)
        scenario = write(tmp_path, "s.yaml", MIDPOINT_SCENARIO)
        flags = ["--seed", "9", "--no-spikes"]
        self.assert_run_writes_library_trace(
            tmp_path, config, scenario, flags, seed=9, quantize_to_spikes=False
        )

    def test_bad_config_exits_two(self, tmp_path, capsys):
        config = write(tmp_path, "c.yaml", "dt_ms: 10\n")
        code = main(
            [
                "run",
                "--config", str(config),
                "--scenario", str(SCENARIOS / "no_scissors.yaml"),
            ]
        )
        assert code == 2
        assert "seed: required" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--config", str(DEFAULT_CONFIG),
                "--scenario", str(tmp_path / "nope.yaml"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_text,scenario_text,path",
        [
            ("noise_sd_counts: .inf\n", None, "noise_sd_counts"),
            (
                "sensors:\n  - index: 0\n    effective_length_mm: .inf\n",
                None,
                "sensors[0].effective_length_mm",
            ),
            ("controller:\n  wrist_rotation_deg: .nan\n", None, "controller.wrist_rotation_deg"),
            (
                None,
                "rules:\n  - {sensor: 0, position_mm: 10.0, phases: [Lift], bridge_ohm: .inf}\n",
                "rules[0].bridge_ohm",
            ),
        ],
        ids=["noise_sd_counts", "effective_length_mm", "wrist_rotation_deg", "bridge_ohm"],
    )
    def test_non_finite_number_exits_two(self, tmp_path, capsys, config_text, scenario_text, path):
        config = DEFAULT_CONFIG
        if config_text is not None:
            config = write(tmp_path, "c.yaml", "seed: 1\n" + config_text)
        scenario = SCENARIOS / "scissors_present.yaml"
        if scenario_text is not None:
            header = "name: x\ngoal: lift\nexpected_outcome: lifted\n"
            scenario = write(tmp_path, "s.yaml", header + scenario_text)
        code = main(
            [
                "run",
                "--config", str(config),
                "--scenario", str(scenario),
                "--out", str(tmp_path / "trace.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: must be a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["calibrate", "run"])
    def test_huge_noise_exits_cleanly(self, tmp_path, capsys, command):
        config = write(tmp_path, "c.yaml", "seed: 1\nnoise_sd_counts: 1.0e+308\n")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "run":
            argv += ["--scenario", str(SCENARIOS / "scissors_present.yaml")]
        assert main(argv) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(nerveline.cli, "run_scenario", exhausted)
        argv = ["run", "--config", str(DEFAULT_CONFIG), "--scenario", str(SCENARIOS / "scissors_present.yaml")]
        assert main(argv + ["--out", str(tmp_path / "trace.csv")]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("content", UNLOADABLE_YAML, ids=UNLOADABLE_YAML_IDS)
    @pytest.mark.parametrize("command", ["calibrate", "run"])
    def test_unloadable_yaml_exits_two(self, tmp_path, capsys, command, content):
        # calibrate reads the file as a config, run as a scenario
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(content)
        if command == "calibrate":
            argv = ["calibrate", "--config", str(bad)]
        else:
            argv = ["run", "--config", str(DEFAULT_CONFIG), "--scenario", str(bad)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 1: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("sensors: 3\n", "sensors: must be a list, got int"),
            ("sensors: []\n", "sensors: must not be empty"),
            ("sensors: [{index: 7}]\n", "sensors[0].index: must be an integer in 0..3, got 7"),
            ("filter: {cutoff_hz: x}\n", "filter.cutoff_hz: must be a finite number, got 'x'"),
            ("filter: {coefficient_a: 1.5}\n", "filter.coefficient_a: must be in [0, 1), got 1.5"),
            ("controller: 3\n", "controller: must be a mapping, got int"),
            ("quantize_to_spikes: 1\n", "quantize_to_spikes: must be a boolean, got 1"),
            ("calibration_file: 3\n", "calibration_file: must be a string or null, got 3"),
            ("hand: {fingers: []}\n", "hand.fingers: unknown key"),
            (
                "hand: {actuators: [{id: 0, joint_ref: 3}]}\n",
                "hand.actuators[0].joint_ref: must be a string or null, got 3",
            ),
            (
                "hand: {actuators: [{id: 0, displacement_table: [1]}]}\n",
                "hand.actuators[0].displacement_table: "
                "must be a mapping of strings to finite numbers or null, got [1]",
            ),
            ("hand: {actuators: [{joint_ref: index_flexion}]}\n", "hand.actuators[0].id: required"),
            ("sensors: [5]\n", "sensors[0]: must be a mapping, got int"),
            # an unhashable value: its block is built on its own
            ("sensors: [{index: 0, pullup_ohm: [1]}]\n", "sensors[0].pullup_ohm: must be a finite number, got [1]"),
            ("filter: 5\n", "filter: must be a mapping, got int"),
            ("hand: {actuators: 5}\n", "hand.actuators: must be a list, got int"),
            # a block with an unknown key still meets its rules across fields, on the defaults it leaves out
            (
                "controller: {window_n: 20, bogus: 1}\n",
                "controller.bogus: unknown key\ncontroller.dwell_ticks: must cover window_n (20), got 10",
            ),
            (
                "hand: {actuators: [{id: 0, bogus: 1}]}\n",
                "hand.actuators[0].bogus: unknown key\n"
                "hand.actuators[0].displacement_table: must cover grasp and open without a joint_ref, got None",
            ),
            # a run's length has a ceiling on each of its three budgets
            ("controller: {dwell_ticks: 1001}\n", "controller.dwell_ticks: must be <= 1000, got 1001"),
            ("controller: {max_regrasp_steps: 101}\n", "controller.max_regrasp_steps: must be <= 100, got 101"),
            ("controller: {max_retries: 11}\n", "controller.max_retries: must be <= 10, got 11"),
            # YAML 1.1 reads a float only with a dot and a signed exponent: the reader refuses
            # such a plain token by its line, with the spelling read as a number, and a quoted one is a string
            (
                "sensors: [{index: 0, effective_length_mm: 1e300}]\n",
                "$config: line 2: cannot read '1e300'; 1.0e+300 is read as a number",
            ),
            (
                "filter: {cutoff_hz: 5.0e0}\n",
                "$config: line 2: cannot read '5.0e0'; 5.0 is read as a number",
            ),
            (
                "sensors: [{index: 0, effective_length_mm: '1e300'}]\n",
                "sensors[0].effective_length_mm: must be a finite number, got '1e300'",
            ),
        ],
        ids=[
            "sensors_not_list", "sensors_empty", "sensor_index", "cutoff_not_number",
            "coefficient_out_of_range", "controller_not_mapping", "quantize_not_bool",
            "calibration_file_not_string", "fingers_empty", "joint_ref_not_string",
            "table_not_mapping", "actuator_id_missing", "sensor_not_mapping", "unhashable_sensor_value",
            "filter_not_mapping", "actuators_not_list", "unknown_key_keeps_dwell_rule",
            "unknown_key_keeps_table_rule", "dwell_ceiling", "regrasp_ceiling", "retry_ceiling",
            "length_yaml_1_1_string", "cutoff_yaml_1_1_string", "quoted_length",
        ],
    )
    def test_config_shape_errors_name_the_field(self, tmp_path, capsys, text, message):
        config = write(tmp_path, "c.yaml", "seed: 1\n" + text)
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "cal.txt")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n".replace("$config", str(config))

    def test_empty_config_exits_two(self, tmp_path, capsys):
        config = write(tmp_path, "c.yaml", "")
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "cal.txt")]) == 2
        assert capsys.readouterr().err == "error: seed: required; runs must not fall back to wall-clock entropy\n"

    @pytest.mark.parametrize("command", ["run", "sweep", "replay", "calibrate"])
    @pytest.mark.parametrize(
        "hand,message",
        [
            (
                "{actuators: [{id: 0, joint_ref: index_flexon}]}",
                "hand.actuators[0].joint_ref: unknown joint 'index_flexon'",
            ),
            (
                "{actuators: [{id: 0, displacement_table: {grasp: 6.5}}]}",
                "hand.actuators[0].displacement_table: "
                "must cover grasp and open without a joint_ref, got {'grasp': 6.5}",
            ),
            ("{fingers: [{name: index}]}", "hand.fingers: unknown key"),
        ],
        ids=["misspelt_joint", "table_without_open", "fingers"],
    )
    def test_hand_that_cannot_command_exits_two_at_load(self, tmp_path, capsys, command, hand, message):
        """A hand block ``run`` could not turn into both posture commands fails every command, with its path."""
        config = write(tmp_path, "c.yaml", f"seed: 1\nhand: {hand}\n")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out.csv")]
        if command == "run":
            argv += ["--scenario", str(SCENARIOS / "scissors_moved_back.yaml")]
        elif command == "replay":
            log = tmp_path / "frames.csv"
            log.write_text("t_ms,sensor,counts\n0,0,500\n")
            argv += ["--log", str(log)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("name: ''\n", "name: must be a non-empty string, got ''"),
            ("rules: 3\n", "rules: must be a list, got int"),
            ("rules: [3]\n", "rules[0]: must be a mapping, got int"),
            (
                "rules: [{sensor: 0, position_mm: 1.0, phases: []}]\n",
                "rules[0].phases: must not be empty",
            ),
            (
                "rules: [{sensor: 0, position_mm: 1.0, phases: [Done]}]\n",
                "rules[0].phases: terminal phase 'Done' not allowed",
            ),
            ("rules: [{position_mm: 1.0, phases: [Lower]}]\n", "rules[0].sensor: required"),
            (
                "rules: [{sensor: 0, position_mm: 1.0, phases: Lift}]\n",
                "rules[0].phases: must be a list of phase names, got str",
            ),
            (
                "object_pose_mm: {x: .inf, y: 0}\n",
                "object_pose_mm.x: must be a finite number, got inf",
            ),
            # ADC noise is a config setting; a scenario does not override it
            ("noise_sd_counts: 1.0\n", "noise_sd_counts: unknown key"),
        ],
        ids=[
            "name_empty", "rules_not_list", "rule_not_mapping", "phases_empty",
            "terminal_phase", "sensor_missing", "phases_not_list", "pose_not_finite", "noise_sd_counts",
        ],
    )
    def test_scenario_shape_errors_name_the_field(self, tmp_path, capsys, text, message):
        header = "goal: lift\nexpected_outcome: lifted\n" + ("" if text.startswith("name:") else "name: x\n")
        scenario = write(tmp_path, "s.yaml", header + text)
        argv = ["run", "--config", str(DEFAULT_CONFIG), "--scenario", str(scenario)]
        assert main(argv + ["--out", str(tmp_path / "trace.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_huge_bridges_read_as_open_line(self, tmp_path, capsys):
        # a * b overflows in a float ladder fold
        scenario = write(
            tmp_path,
            "s.yaml",
            """\
            name: huge_bridges
            goal: lift
            expected_outcome: failed
            rules:
              - {sensor: 0, position_mm: 30.0, bridge_ohm: 1.0e+308, phases: [VerifyGrasp]}
              - {sensor: 0, position_mm: 50.0, bridge_ohm: 1.0e+308, phases: [VerifyGrasp]}
            """,
        )
        argv = ["run", "--config", str(DEFAULT_CONFIG), "--scenario", str(scenario)]
        assert main(argv + ["--out", str(tmp_path / "trace.csv")]) == 0
        captured = capsys.readouterr()
        assert captured.out == "outcome=failed steps=140\n"
        assert captured.err == ""

    def test_no_spikes_flag(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--config", str(DEFAULT_CONFIG),
                "--scenario", str(SCENARIOS / "scissors_present.yaml"),
                "--out", str(tmp_path / "trace.csv"),
                "--no-spikes",
            ]
        )
        assert code == 0
        assert "outcome=lifted" in capsys.readouterr().out

    # sha256 of the trace CSV as produced by sensing every line on every
    # tick; resolving contacts once per phase must reproduce them.  The
    # shipped rules press on spikes, so both skins give the same trace.
    RUN_TRACE_SHA256 = {
        ("shipped", "no_scissors"): "c06f18f1e6118c4cc1090a1c63fb2479779384cd92cd4816f59b4f819b56fd09",
        ("shipped", "scissors_moved_back"): "06764241884df826d5e371052f4be099c98b8878995e3fdd51e90648cd6dcf34",
        ("shipped", "scissors_present"): "acdf36039a6d84d204e047fbd1d6f58f7eb3a3fc646effa30a26461319947ac7",
        ("shipped", "scissors_regrasp"): "1e7da3bea366f680b49fdde6873d08b69c6e55f37215adc33aa5f1bbac7c01f7",
        ("noisy", "no_scissors"): "e21a5ae6fb6c2cd1c7a534672272b9ff5d3578838ecca675b2cd68ca7a86c83d",
        ("noisy", "scissors_moved_back"): "34b3489183d4314a1ad7278017a9f557710c5f47c784266f52485f3b49fc02f3",
        ("noisy", "scissors_present"): "f1b6aaa3906bba9f27ca75eeccb5623ad1f1612b09240d4ae36d8b4883152969",
        ("noisy", "scissors_regrasp"): "5ed0cf27bbcb2d39a5ff28b3a6fbbfe8b7169f24cefc38d9f5b29c75a365afc6",
    }

    @pytest.mark.parametrize("skin", [[], ["--no-spikes"]], ids=["spiked", "smooth"])
    @pytest.mark.parametrize(
        "config_name,scenario", list(RUN_TRACE_SHA256), ids=[f"{c}-{s}" for c, s in RUN_TRACE_SHA256]
    )
    def test_output_digests_pinned(self, tmp_path, config_name, scenario, skin):
        config = DEFAULT_CONFIG if config_name == "shipped" else write(tmp_path, "c.yaml", NOISY)
        out = tmp_path / "trace.csv"
        argv = ["run", "--config", str(config), "--scenario", str(SCENARIOS / f"{scenario}.yaml")]
        assert main(argv + ["--out", str(out)] + skin) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.RUN_TRACE_SHA256[config_name, scenario]

class TestTraceLines:
    """_trace_lines formats a sensor's text once while its raw and filtered values repeat, in whatever float objects."""

    def test_held_text_formatted_once_from_copies(self):
        reprs = []

        class CountedFloat(float):
            def __repr__(self):
                reprs.append(float(self))
                return float.__repr__(self)

        # sensor 0 leaves its filtered value in place at a new raw count on the third tick
        samples = [
            [(0, 612, 600.25, 88.5, Regime.FINGERTIP), (1, 93, 93.0, 0.0, Regime.BODY)],
            [(0, 612, 600.25, 88.5, Regime.FINGERTIP), (1, 93, 93.0, 0.0, Regime.BODY)],
            [(0, 613, 600.25, 88.5, Regime.FINGERTIP), (1, 93, 93.0, 0.0, Regime.BODY)],
            [(0, 613, 600.25, 88.5, Regime.FINGERTIP), (1, 93, 93.0, 0.0, Regime.BODY)],
        ]
        rows = [
            (tick * 10, TaskPhase.LIFT, sensor, raw, CountedFloat(filtered), CountedFloat(p), regime)
            for tick, tick_samples in enumerate(samples)
            for sensor, raw, filtered, p, regime in tick_samples
        ]
        expected = "".join(
            f"{tick * 10},Lift,{sensor},{raw},{filtered!r},{p!r},{regime.value}\n"
            for tick, tick_samples in enumerate(samples)
            for sensor, raw, filtered, p, regime in tick_samples
        )
        assert "".join(_trace_lines(rows)) == expected
        assert reprs == [600.25, 88.5, 93.0, 0.0, 600.25, 88.5]


class TestCliOneProcess:
    # sweep writes the frame log that replay reads; the third call is a usage error
    CALLS = [
        ["sweep", "--config", str(DEFAULT_CONFIG), "--repeats", "3", "--frames-out", "frames.csv"],
        ["run", "--config", str(DEFAULT_CONFIG), "--scenario", str(SCENARIOS / "scissors_present.yaml")],
        ["sweep", "--config", str(DEFAULT_CONFIG), "--repeats", "many"],
        ["replay", "--config", str(DEFAULT_CONFIG), "--log", "frames.csv"],
    ]

    def test_calls_in_turn_match_each_alone(self, tmp_path, monkeypatch, capsys):
        def invoke(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            files = {path.name: path.read_bytes() for path in sorted(Path.cwd().iterdir())}
            return code, capsys.readouterr(), files

        def calls(workdir, fresh_parser):
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            results = []
            for argv in self.CALLS:
                if fresh_parser or not results:
                    _build_parser.cache_clear()
                results.append(invoke(argv))
            return results

        alone = calls(tmp_path / "alone", fresh_parser=True)
        in_turn = calls(tmp_path / "in_turn", fresh_parser=False)
        assert in_turn == alone
        assert [code for code, _, _ in alone] == [0, 0, 2, 0]
        assert "invalid int value: 'many'" in alone[2][1].err
        assert _build_parser.cache_info()[:2] == (3, 1)  # in turn, one parser served all four calls


class TestCliEntryPoint:
    MISMATCH = (
        "name: wrong_expectation\ngoal: lift\nexpected_outcome: failed\n"
        "rules: [{sensor: 0, position_mm: 70.0, phases: [VerifyGrasp, Lift]}]\n"
    )
    RUN = ["run", "--config", str(DEFAULT_CONFIG), "--scenario"]
    PRESENT = str(SCENARIOS / "scissors_present.yaml")

    @pytest.mark.parametrize(
        "argv,code,stream,text",
        [
            (RUN + [PRESENT], 0, "stdout", "outcome=lifted steps=50\n"),
            (RUN + ["mismatch.yaml"], 1, "stderr", "outcome mismatch: expected failed, got lifted"),
            (["run", "--config", "missing.yaml", "--scenario", PRESENT], 2, "stderr", "error: [Errno 2]"),
            (RUN + [PRESENT, "--speed", "2"], 2, "stderr", "unrecognized arguments: --speed 2"),
        ],
        ids=["ok", "outcome_mismatch", "missing_config", "unknown_flag"],
    )
    def test_module_exit_codes(self, tmp_path, argv, code, stream, text):
        """``python -m nerveline.cli`` exits with what ``main`` returns, without a traceback."""
        (tmp_path / "mismatch.yaml").write_text(self.MISMATCH)
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "nerveline.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code, done.stderr
        assert text in getattr(done, stream)
        assert "Traceback" not in done.stderr

    def test_import_leaves_out_statistics(self):
        """Importing the CLI loads no ``statistics``, nor the ``fractions`` and ``decimal`` it pulls in."""
        probe = "import sys, nerveline.cli; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    def test_shipped_files_leave_out_yaml(self, tmp_path):
        """Loading the shipped config and scenarios, and refusing every text outside the subset, loads no ``yaml``."""
        probe = textwrap.dedent(
            """\
            import sys
            from nerveline import ConfigError
            from nerveline.cli import load_config, load_scenario
            config = load_config(sys.argv[1])
            split = sys.argv.index("--")
            for path in sys.argv[2:split]:
                load_scenario(path, config)
            for path in sys.argv[split + 1:]:
                try:
                    load_config(path)
                except ConfigError as exc:
                    assert ": line " in str(exc), exc
                else:
                    raise AssertionError(path)
            print(split - 2, len(sys.argv) - split - 1, "yaml" in sys.modules)
            """
        )
        scenarios = sorted(str(path) for path in SCENARIOS.glob("*.yaml"))
        refused = [*UNLOADABLE_YAML, *(text.encode("ascii") for text, _ in REFUSED_YAML.values())]
        for k, content in enumerate(refused):
            (tmp_path / f"bad{k}.yaml").write_bytes(content)
        bad = [str(tmp_path / f"bad{k}.yaml") for k in range(len(refused))]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-c", probe, str(DEFAULT_CONFIG), *scenarios, "--", *bad],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, f"{len(scenarios)} {len(refused)} False\n"), done.stderr


# what the argv property draws: the commands, every option, spellings only argparse reads, and awkward values
ARGV_WORDS = ["sweep", "run", "replay", "calibrate", "bogus"]
ARGV_OPTIONS = sorted({option for _, _, options in nerveline.cli._COMMANDS.values() for option in options})
ARGV_SPELLINGS = ["-h", "--help", "--", "--conf", "--rep", "--s", "--no", "--config=c.yaml", "--seed=-5", "--repeats="]
ARGV_VALUES = ["c.yaml", "0", "-5", "-x", "1_0", " 7", "nan", "0x10", "", "-", "many"]


def _parse_outcome(parse, argv):
    """``("args", sorted attributes)`` of what ``parse(argv)`` gives, or ``("exit", code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    assert (out.getvalue(), err.getvalue()) == ("", "")
    return "args", repr(sorted(vars(args).items()))  # repr, so that nan equals nan and 1 differs from 1.0


ARGV_TOKEN = st.sampled_from(ARGV_WORDS + ARGV_OPTIONS + ARGV_SPELLINGS + ARGV_VALUES)
ARGV_COMMAND = st.sampled_from(ARGV_WORDS[:4]).map(lambda word: [word])
ARGV_HEAD = st.one_of(ARGV_COMMAND, ARGV_COMMAND, ARGV_COMMAND, st.lists(ARGV_TOKEN, max_size=1))  # mostly a command
ARGV_VALUE = st.sampled_from(["0", "1_0", " 7", "c.yaml"])  # the first three suit every option


def _argv_parts(options):
    """A command's required options, an option-value pair, and something only argparse reads."""
    return (
        [option for option in options if options[option].get("required")],
        st.tuples(st.sampled_from(sorted(options)), ARGV_VALUE),
        st.tuples(st.sampled_from(sorted(options)), st.sampled_from(ARGV_VALUES)) | st.tuples(ARGV_TOKEN),
    )


ARGV_PARTS = {command: _argv_parts(options) for command, (_, _, options) in nerveline.cli._COMMANDS.items()}
ARGV_PARTS[""] = _argv_parts(dict.fromkeys(ARGV_OPTIONS, {}))  # after no command, or a word that is none


@st.composite
def argvs(draw):
    """An argv that is often plain: a command, its required options and option-value pairs, with any token anywhere."""
    head = draw(ARGV_HEAD)
    required, pair, odd = ARGV_PARTS[head[0] if head and head[0] in ARGV_PARTS else ""]
    pairs = [(option, draw(ARGV_VALUE)) for option in required] if draw(st.integers(0, 3)) else []
    pairs += draw(st.lists(st.one_of(pair, pair, pair, st.just(("--no-spikes",))), max_size=4))
    if not draw(st.integers(0, 2)):
        pairs += draw(st.lists(odd, min_size=1, max_size=2))
    return head + [token for tokens in pairs for token in tokens]


class TestArgparseTexts:
    """Every help, usage and error text of the command line, byte for byte, as argparse words it at 80 columns."""

    HELP = {
        "nerveline": (
            TOP_USAGE + "\n"
            "Simulate and analyze resistive nerve-line tactile sensors.\n"
            "\n"
            "positional arguments:\n"
            "  {sweep,run,replay,calibrate}\n"
            "    sweep               press along one line and tabulate p statistics\n"
            "    run                 run a scripted scenario to completion\n"
            "    replay              re-estimate from a recorded frame log\n"
            "    calibrate           capture calibration triplets\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "sweep": (
            SWEEP_USAGE + "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --config CONFIG\n"
            "  --seed SEED\n"
            "  --sensor SENSOR\n"
            "  --repeats REPEATS\n"
            "  --jitter-mm JITTER_MM\n"
            "  --out OUT\n"
            "  --frames-out FRAMES_OUT\n"
            "                        also write a replayable frame log\n"
        ),
        "run": (
            "usage: nerveline run [-h] --config CONFIG --scenario SCENARIO [--seed SEED]\n"
            "                     [--out OUT] [--no-spikes]\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
            "  --config CONFIG\n"
            "  --scenario SCENARIO\n"
            "  --seed SEED\n"
            "  --out OUT            trace CSV path (default <name>_trace.csv)\n"
            "  --no-spikes          model a smooth skin\n"
        ),
        "replay": (
            "usage: nerveline replay [-h] --config CONFIG --log LOG [--out OUT]\n"
            "\n"
            "options:\n"
            "  -h, --help       show this help message and exit\n"
            "  --config CONFIG\n"
            "  --log LOG\n"
            "  --out OUT\n"
        ),
        "calibrate": (
            "usage: nerveline calibrate [-h] --config CONFIG [--seed SEED] [--out OUT]\n"
            "\n"
            "options:\n"
            "  -h, --help       show this help message and exit\n"
            "  --config CONFIG\n"
            "  --seed SEED\n"
            "  --out OUT\n"
        ),
    }

    @staticmethod
    def parsed(argv, capsys):
        """``(exit code, stdout, stderr)`` of ``main(argv)`` when it exits while parsing."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out, err = capsys.readouterr()
        return excinfo.value.code, out, err

    @pytest.mark.parametrize("command", list(HELP))
    def test_help(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command == "nerveline" else [command, "--help"]
        assert self.parsed(argv, capsys) == (0, self.HELP[command], "")

    @pytest.mark.parametrize(
        "argv,err",
        [
            ([], TOP_USAGE + "nerveline: error: the following arguments are required: command\n"),
            (
                ["bogus"],
                TOP_USAGE + "nerveline: error: argument command: invalid choice: 'bogus'"
                " (choose from 'sweep', 'run', 'replay', 'calibrate')\n",
            ),
            (["sweep"], SWEEP_USAGE + "nerveline sweep: error: the following arguments are required: --config\n"),
            (
                ["sweep", "--config", "c", "--repeats", "many"],
                SWEEP_USAGE + "nerveline sweep: error: argument --repeats: invalid int value: 'many'\n",
            ),
            (
                ["sweep", "--config", "c", "--jitter-mm", "x"],
                SWEEP_USAGE + "nerveline sweep: error: argument --jitter-mm: invalid float value: 'x'\n",
            ),
            (["sweep", "--config", "c", "--bogus"], TOP_USAGE + "nerveline: error: unrecognized arguments: --bogus\n"),
            (["sweep", "--config"], SWEEP_USAGE + "nerveline sweep: error: argument --config: expected one argument\n"),
            (
                ["sweep", "--config", "c", "--seed"],
                SWEEP_USAGE + "nerveline sweep: error: argument --seed: expected one argument\n",
            ),
        ],
        ids=["no_command", "bogus", "no_config", "repeats_many", "jitter_x", "unknown_option", "config_no_value",
             "seed_no_value"],
    )
    def test_usage_errors(self, monkeypatch, capsys, argv, err):
        monkeypatch.setenv("COLUMNS", "80")
        assert self.parsed(argv, capsys) == (2, "", err)

    @pytest.mark.parametrize(
        "argv,seed,repeats",
        [(["sweep", "--config=c", "--rep", "5"], None, 5), (["sweep", "--config", "c", "--seed", "-5"], -5, 100)],
        ids=["equals_and_abbreviation", "negative_seed"],
    )
    def test_argparse_spellings_still_parse(self, monkeypatch, argv, seed, repeats):
        """A spelling only argparse reads still runs: the command sees the values, not a usage error."""
        seen = []

        def stop(args):
            seen.append(args)
            raise ConfigError("stopped once parsed")

        monkeypatch.setattr(nerveline.cli, "_load_config", stop)
        assert main(argv) == 2
        (args,) = seen
        assert (args.config, args.seed, args.repeats) == ("c", seed, repeats)

    @settings(max_examples=250, deadline=None)
    @given(argvs())
    @example(["sweep", "--config", "c.yaml", "--seed", "-5"])
    @example(["run", "--config", "c.yaml", "--scenario", "s", "--no-spikes", "--no-spikes"])
    @example(["sweep", "--config", "c.yaml", "--jitter-mm", "nan", "--repeats", "1_0", "--sensor", " 7"])
    @example(["calibrate", "--config", "c.yaml", "--seed", "0x10"])
    @example(["replay", "--config", "", "--log", "c.yaml", "--out", "-"])
    def test_plain_argv_parses_as_argparse_does(self, argv):
        """Every argv gives the namespace ``parse_args`` gives, or its exit code and texts."""
        parser, _ = _build_parser()
        assert _parse_outcome(nerveline.cli._parse, argv) == _parse_outcome(parser.parse_args, argv)


class TestInputFiles:
    """What reading each input file reports: the same OSError texts, line ends and decode errors for every file."""

    @staticmethod
    def argv(tmp_path, role, path):
        """An argv that reads ``path`` as the input file ``role``, every other input a good one."""
        config = str(DEFAULT_CONFIG)
        if role == "calibration_file":
            config = str(write(tmp_path, "c.yaml", f"seed: 1\ncalibration_file: {path}\n"))
        argv = {
            "config": ["calibrate", "--config", str(path)],
            "scenario": ["run", "--config", config, "--scenario", str(path)],
            "log": ["replay", "--config", config, "--log", str(path)],
            "calibration_file": ["run", "--config", config, "--scenario", str(SCENARIOS / "scissors_present.yaml")],
        }[role]
        return argv + ["--out", str(tmp_path / "out.csv")]

    @pytest.mark.parametrize("role", ["config", "scenario", "log", "calibration_file"])
    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_path_exits_two(self, tmp_path, capsys, role, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
            message = f"error: [Errno 21] Is a directory: '{path}'\n"
        else:
            message = f"error: [Errno 2] No such file or directory: '{path}'\n"
        assert main(self.argv(tmp_path, role, path)) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_config_line_ends_read_as_newlines(self, tmp_path, newline):
        """A config saved with CRLF or lone-CR line ends is its LF copy."""
        text = DEFAULT_CONFIG.read_bytes()
        assert b"\r" not in text
        path = tmp_path / "c.yaml"
        path.write_bytes(text.replace(b"\n", newline))
        assert load_config(path) == load_config(DEFAULT_CONFIG)

    def test_undecodable_config_names_the_line(self, tmp_path, capsys):
        """A config is read as ASCII, as every other input file is, so a stray byte is named by its line."""
        path = tmp_path / "c.yaml"
        path.write_bytes(b"seed: 1\r\ndt_ms: \xff\n")
        assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: byte 0xff is not ASCII\n"


class TestCliAcrossHashSeeds:
    """The same argv gives the same bytes under different string hash seeds.

    Each command runs through ``nerveline.cli.main`` in a fresh interpreter
    per ``PYTHONHASHSEED``; the child prints the sha256 of each command's
    stdout and of every file the commands wrote.
    """

    SCRIPT = textwrap.dedent(
        """\
        import hashlib, io, pathlib, sys
        from contextlib import redirect_stdout
        from nerveline.cli import main
        config, scenario = sys.argv[1:]
        for argv in (
            ["sweep", "--config", config, "--frames-out", "frames.csv"],
            ["run", "--config", config, "--scenario", scenario, "--out", "trace.csv"],
            ["replay", "--config", config, "--log", "frames.csv", "--out", "replay.csv"],
            ["calibrate", "--config", config, "--out", "calibration.txt"],
        ):
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = main(argv)
            print(argv[0], code, hashlib.sha256(stdout.getvalue().encode()).hexdigest())
        for path in sorted(pathlib.Path().iterdir()):
            print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
        """
    )

    def test_outputs_agree(self, tmp_path):
        outputs = []
        for seed in ("0", "1"):
            workdir = tmp_path / f"hash_seed_{seed}"
            workdir.mkdir()
            env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONHASHSEED": seed}
            argv = [sys.executable, "-c", self.SCRIPT, str(DEFAULT_CONFIG), str(SCENARIOS / "scissors_regrasp.yaml")]
            done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, "")
            outputs.append(done.stdout.splitlines())
        assert outputs[0] == outputs[1]
        assert [line.split()[:2] for line in outputs[0][:4]] == [
            ["sweep", "0"], ["run", "0"], ["replay", "0"], ["calibrate", "0"]
        ]
        files = ["calibration.txt", "frames.csv", "replay.csv", "sweep.csv", "trace.csv"]
        assert [line.split()[0] for line in outputs[0][4:]] == files


class TestCliOutputFile:
    """Every output file is overwritten in place and cut to the bytes written."""

    SWEEP = ["sweep", "--config", str(DEFAULT_CONFIG), "--repeats", "3", "--out"]
    CALIBRATE = ["calibrate", "--config", str(DEFAULT_CONFIG), "--out"]

    def fresh_bytes(self, tmp_path, argv=SWEEP):
        fresh = tmp_path / "fresh.csv"
        assert main(argv + [str(fresh)]) == 0
        return fresh.read_bytes()

    def test_short_output_over_longer_file_keeps_its_mode(self, tmp_path):
        expected = self.fresh_bytes(tmp_path)
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"x" * 100_000)
        out.chmod(0o600)
        assert main(self.SWEEP + [str(out)]) == 0
        assert out.read_bytes() == expected
        assert out.stat().st_mode & 0o777 == 0o600

    def test_writes_through_symlink(self, tmp_path):
        expected = self.fresh_bytes(tmp_path)
        target = tmp_path / "target.csv"
        target.write_bytes(b"x" * 100_000)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(self.SWEEP + [str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == expected

    def test_dev_null(self):
        assert main(self.SWEEP + [os.devnull]) == 0

    def test_fifo(self, tmp_path):
        expected = self.fresh_bytes(tmp_path)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(self.SWEEP + [str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [expected]

    @pytest.mark.parametrize(
        "width,count", [(10, 1), (20_000, 1), (1, 5_000)], ids=["buffered", "past_buffer", "past_chunk"]
    )
    def test_failed_write_leaves_only_what_was_written(self, tmp_path, width, count):
        """Every line the source gave before it failed is written, also past the first 4,096-line chunk."""

        def lines():
            yield from ["1" * width + "\n"] * count
            raise OSError("disk gone")

        out = tmp_path / "out.csv"
        out.write_bytes(b"x" * 100_000)
        with pytest.raises(OSError, match="disk gone"):
            _write_lines(str(out), chain(["a,b\n"], lines()))
        assert out.read_text() == "a,b\n" + ("1" * width + "\n") * count

    @pytest.mark.parametrize(
        "argv,mode,before,wrote",
        [
            (SWEEP, "wb", b"", b"wrote /dev/stdout rows=17 repeats=3 seed=12345\n"),
            (SWEEP, "ab", b"kept\n", b"wrote /dev/stdout rows=17 repeats=3 seed=12345\n"),
            (CALIBRATE, "wb", b"", b"wrote /dev/stdout sensors=4\n"),
            (CALIBRATE, "ab", b"kept\n", b"wrote /dev/stdout sensors=4\n"),
        ],
        ids=["truncated", "appended", "calibrate_truncated", "calibrate_appended"],
    )
    def test_stdout_redirected_to_a_file(self, tmp_path, argv, mode, before, wrote):
        """``--out /dev/stdout > file`` keeps the output and then the ``wrote`` line; ``>>`` keeps what was there."""
        expected = self.fresh_bytes(tmp_path, argv)
        out = tmp_path / "stdout.txt"
        out.write_bytes(b"x" * 100_000 if mode == "wb" else before)
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        with open(out, mode) as stdout:
            done = subprocess.run(
                [sys.executable, "-m", "nerveline.cli", *argv, "/dev/stdout"],
                stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.read_bytes() == before + expected + wrote

    def test_directory_exits_two(self, tmp_path, capsys):
        assert main(self.SWEEP + [str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


class TestCliSweep:
    def test_writes_seventeen_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(DEFAULT_CONFIG), "--out", str(out)])
        assert code == 0
        assert "rows=17" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "position_mm,mean_p_spiked,var_p_spiked,mean_p_smooth,var_p_smooth"
        assert len(lines) == 18

    def test_no_jitter_no_variance(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep",
                "--config", str(DEFAULT_CONFIG),
                "--out", str(out),
                "--jitter-mm", "0",
                "--repeats", "5",
            ]
        )
        for line in out.read_text().splitlines()[1:]:
            _, _, var_spiked, _, var_smooth = line.split(",")
            assert float(var_spiked) == 0.0
            assert float(var_smooth) == 0.0

    def test_unknown_sensor_exits_two(self, tmp_path, capsys):
        code = main(
            ["sweep", "--config", str(DEFAULT_CONFIG), "--sensor", "9", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "sensor 9" in capsys.readouterr().err

    def test_seed_beyond_float_range_exits_two(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--config", str(DEFAULT_CONFIG), "--seed", "1" + "0" * 400, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: seed: must be a finite number, got 1000")
        assert not out.exists()

    @pytest.mark.parametrize("repeats", ["1000001", "100000000000"])
    def test_repeats_beyond_ceiling_exits_two(self, tmp_path, capsys, monkeypatch, repeats):
        def no_sweep(*args):
            raise AssertionError("a sweep beyond the --repeats ceiling was drawn")

        monkeypatch.setattr(nerveline.cli, "_sweep_presses", no_sweep)
        out = tmp_path / "s.csv"
        code = main(["sweep", "--config", str(DEFAULT_CONFIG), "--repeats", repeats, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --repeats: at most 1000000 presses per position, got {repeats}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "pitch,length,positions",
        [
            ("0.0078125", "78.125", 10_001),  # 10,000 pitches of 2^-7 mm
            ("0.0078125", "78.12109375", 10_001),  # 9,999 pitches, and the end of the line between two spikes
            ("0.0078125", "78.1171875", 10_000),
            ("0.0078125", "78.11328125", 10_000),
            ("1.0e-9", "80.0", None),  # 8e10 positions
            ("1.0e-300", "1.0e+308", None),  # beyond the float range
        ],
    )
    def test_grid_ceiling(self, tmp_path, capsys, monkeypatch, pitch, length, positions):
        """A grid of more than `MAX_POSITIONS` positions exits 2 before it is built; one of exactly that many runs."""
        sensor = f"{{index: 0, spike_pitch_mm: {pitch}, effective_length_mm: {length}}}"
        pitch, length = float(pitch), float(length)
        if positions is not None:
            assert len(nerveline.cli._position_grid(length, pitch)) == positions
        built = []

        def one_position(*args):  # stands in for the grid, so no case here builds one
            built.append(args)
            return [0.0]

        monkeypatch.setattr(nerveline.cli, "_position_grid", one_position)
        config, out = tmp_path / "c.yaml", tmp_path / "s.csv"
        config.write_text(f"seed: 1\nsensors: [{sensor}, {{index: 1}}, {{index: 2}}, {{index: 3}}]\n")
        code = main(["sweep", "--config", str(config), "--repeats", "1", "--out", str(out)])
        err = capsys.readouterr().err
        if positions == nerveline.cli.MAX_POSITIONS:
            assert (code, err, built) == (0, "", [(length, pitch)])
            return
        assert code == 2
        assert err == (
            f"error: --sensor 0: spike_pitch_mm {pitch!r} along effective_length_mm {length!r}"
            " gives over 10000 sweep positions\n"
        )
        assert built == []
        assert not out.exists()

    def test_memory_does_not_grow_with_repeats(self, tmp_path, capsys):
        # noise-free: the spiked skin's 0 and 80 mm draw press by press, the rest in chunks;
        # tests/test_line.py bounds a noisy sweep, whose presses are slower to draw
        def peak(repeats):
            out = str(tmp_path / "s.csv")
            argv = ["sweep", "--config", str(DEFAULT_CONFIG), "--repeats", str(repeats), "--out", out]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(20_000), peak(200_000)
        assert abs(large - small) < 1_000_000, (small, large)

    # sha256 of sweep.csv and the --frames-out log as produced by sensing
    # every press on its own; the sweep's voltage table must reproduce them.
    @pytest.mark.parametrize(
        "config_text,sweep_sha256,frames_sha256",
        [
            (
                None,
                "7f22d11d6c3c46bc211ae3e795d092de23ff737aee199d04addbac270895cfc0",
                "b4c9662b9d3c278648e712dcd32c60eac68bda6f91aee4df2022d54dac67cf7e",
            ),
            (
                NOISY,
                "619fd43e955607814cfc2bfca4b291569557cbb13b80dc9b67aed277352f0bb5",
                "04114a5c73509cb7ba6bec47b01d2d0596990f33b97e2bcd8923edcf66150061",
            ),
        ],
        ids=["shipped", "noisy"],
    )
    def test_output_digests_pinned(self, tmp_path, config_text, sweep_sha256, frames_sha256):
        config = DEFAULT_CONFIG if config_text is None else write(tmp_path, "c.yaml", config_text)
        out, frames = tmp_path / "sweep.csv", tmp_path / "frames.csv"
        code = main(["sweep", "--config", str(config), "--out", str(out), "--frames-out", str(frames)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sweep_sha256
        assert hashlib.sha256(frames.read_bytes()).hexdigest() == frames_sha256

    # sha256 of sweep.csv and the --frames-out log for further sweeps, as
    # produced by sensing every press on its own.
    @pytest.mark.parametrize(
        "config_text,extra_args,sweep_sha256,frames_sha256",
        [
            (
                None,
                ["--jitter-mm", "1.3"],
                "cf93c48e865dd1d6840a2031882fdecfec0e4e2434b63432fca13260bb93ddd6",
                "0defb7d5804035a3906a992a08d6c0eaa08e2858e9ec33941e7af78a9a1e3c5e",
            ),
            (
                # 77.5 mm is a midpoint whose upper spike clamps to the line end
                "seed: 3\nsensors:\n  - index: 0\n    effective_length_mm: 77.5\n  - index: 1\n",
                ["--jitter-mm", "0", "--repeats", "7"],
                "b97d69d04dc59483ad6037d5d39a75f49f00e40f72fea549cd5569f326571f9a",
                "85e39698b0ebc8e4e95347292c5fa11639eee7376b05c707434a6528ebee386d",
            ),
            (
                None,
                ["--repeats", "10000"],
                "285ec5e2f2d74764e25dc8f4c03bb7ce6843eb2222c7125ed768866048f3bcd3",
                "1576054769135e0814d49b8dfda8fb842834a10f41c8402ee0611457a1e270be",
            ),
        ],
        ids=["jitter_off_midpoints", "clamped_midpoint", "repeats_10000"],
    )
    def test_more_output_digests_pinned(
        self, tmp_path, config_text, extra_args, sweep_sha256, frames_sha256
    ):
        config = DEFAULT_CONFIG if config_text is None else write(tmp_path, "c.yaml", config_text)
        out, frames = tmp_path / "sweep.csv", tmp_path / "frames.csv"
        argv = ["sweep", "--config", str(config), "--out", str(out), "--frames-out", str(frames)]
        assert main(argv + extra_args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sweep_sha256
        assert hashlib.sha256(frames.read_bytes()).hexdigest() == frames_sha256

    @pytest.mark.parametrize("jitter", ["nan", "inf", "-inf"])
    def test_non_finite_jitter_exits_two(self, tmp_path, capsys, jitter):
        code = main(
            [
                "sweep",
                "--config", str(DEFAULT_CONFIG),
                "--out", str(tmp_path / "s.csv"),
                f"--jitter-mm={jitter}",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "jitter_mm" in err
        assert "Traceback" not in err

    @given(
        seed=st.integers(0, 2**32 - 1),
        repeats=st.integers(1, 40),
        jitter_mm=st.one_of(
            st.integers(0, 4).map(lambda k: k * 2.5),  # on the half-pitch lattice: every press a midpoint
            st.tuples(st.integers(0, 4), st.floats(0.01, 0.99)).map(lambda t: (t[0] + t[1]) * 2.5),
            st.floats(80.0, 200.0),  # both offsets clamp, one at each end of the line
        ),
        noise_sd_counts=st.one_of(st.just(0.0), st.floats(0.1, 20.0)),
    )
    @example(seed=12345, repeats=100, jitter_mm=2.5, noise_sd_counts=0.0)
    @example(seed=7, repeats=30, jitter_mm=1.3, noise_sd_counts=3.0)
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, seed, repeats, jitter_mm, noise_sd_counts):
        """sweep.csv is what simulate_sweep, Counter and the statistics module give (``oracles.py``)."""
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "c.yaml", Path(tmp) / "sweep.csv"
            config.write_text(f"seed: {seed}\nnoise_sd_counts: {noise_sd_counts!r}\n")
            argv = ["sweep", "--config", str(config), "--repeats", str(repeats), f"--jitter-mm={jitter_mm!r}"]
            with redirect_stdout(io.StringIO()):
                assert main(argv + ["--out", str(out)]) == 0
            expected = sweep_csv_reference(load_config(config), 0, jitter_mm, repeats)
            assert out.read_text(encoding="ascii") == expected

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5, unique=True).flatmap(
            lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=400)
        )
    )
    @example([42.5])
    @example([100 / 3] * 5000 + [80.0] * 3000 + [0.1] * 1999 + [200 / 3])
    @example([100 / 3, 200 / 3, 0.1, 0.1])
    # the shared power-of-two denominator: subnormal, far-apart exponents, zero, negative
    @example([5e-324, 1.0])
    @example([1e300, 1e-300, 3.0])  # the variance overflows a float in both
    @example([1e150, 1e-300, 3.0])
    @example([0.0])
    @example([-2.5, 100 / 3])
    # fmean rounds the sum, then divides: rounding T / (den * n) once differs here
    @example([45.5, 20.41, 60.88, 52.1, 7.5])
    @settings(deadline=None)
    def test_grouped_statistics_match_statistics_module(self, row):
        nums, den = _common_ratios({value: value for value in row})
        try:
            expected = repr(statistics.fmean(row)), repr(statistics.pvariance(row))
        except OverflowError:
            with pytest.raises(OverflowError):
                _mean_pvariance(Counter(row).items(), nums, den, len(row))
            return
        mean, variance = _mean_pvariance(Counter(row).items(), nums, den, len(row))
        assert (repr(mean), repr(variance)) == expected


@st.composite
def drawn_replays(draw):
    """A filter coefficient and a frame log on sensors 0..3 as (t_ms, sensor, counts), t_ms rising per sensor."""
    sensors = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    coefficient_a = draw(st.floats(0.0, 1.0, exclude_max=True))
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(sensors), st.integers(1, 50), st.integers(0, 1023)),
            min_size=1,
            max_size=60,
        )
    )
    last_t_ms = {i: draw(st.integers(-1, 1000)) for i in sensors}
    frames = []
    for sensor, gap, counts in steps:
        last_t_ms[sensor] += gap
        frames.append((last_t_ms[sensor], sensor, counts))
    return coefficient_a, frames


def held_frames(coefficient_a):
    """A drawn_replays value: sensor 0 reads 1023, 93 for 200 frames, then 1023 for 200; sensor 1 reads 500 in between.

    Each count lasts long enough for the default filter to stand still at it.
    """
    frames = []
    for k, counts in enumerate([1023] + [93] * 200 + [1023] * 200):
        frames += [(10 * k, 0, counts), (10 * k, 1, 500)]
    return coefficient_a, frames


# what a mutated frame-log field becomes: spellings int() takes but the log
# does not, spellings int() refuses, values out of range, an unconfigured
# sensor, and a number past the interpreter's 4,300-digit limit for int()
FIELD_MUTATIONS = [
    "+5", "05", "-0", " 5", "5_0", "0x5", "", "--5", "-5", "1024", "-1", "9", "00", "1.5", "1" * 5000,
]


@st.composite
def mutated_frame_lines(draw):
    """The lines of a valid frame log (as ``drawn_replays``) with 0 to 2 of them mutated."""
    _, frames = draw(drawn_replays())
    lines = [[str(t_ms), str(sensor), str(counts)] for t_ms, sensor, counts in frames]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k]
        kind = draw(st.sampled_from(["replace", "add", "drop", "move_back"]))
        if kind == "replace":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(FIELD_MUTATIONS))
        elif kind == "add":
            fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(["5", *FIELD_MUTATIONS])))
        elif kind == "drop":
            del fields[draw(st.integers(0, len(fields) - 1))]
        else:  # a line keeps at least one field after two drops
            fields[0] = str(frames[k][0] - draw(st.integers(0, 60)))
    return [",".join(fields) for fields in lines]


# spellings that int() refuses or reads from a text that is not its plain decimal
NOT_PLAIN = ["+5", "05", "-0", " 5", "5 ", "5_0", "0x5", "", "--5", "00", "1.5", "1" * 5000]


@st.composite
def corrupted_frame_logs(draw):
    """A valid frame log (as ``drawn_replays``) with frame k broken one way ``_frame_problem`` names.

    Returns its lines and the message that names line k + 2 (the header is line 1).
    """
    _, frames = draw(drawn_replays())
    k = draw(st.integers(0, len(frames) - 1))
    t_ms, sensor, counts = frames[k]
    earlier = [t for t, i, _ in frames[:k] if i == sensor]  # a t_ms can fall only after one of its sensor
    fields = [str(t_ms), str(sensor), str(counts)]
    kind = draw(st.sampled_from(["fields", "integer", "sensor", "counts", "t_ms"][: 5 if earlier else 4]))
    if kind == "fields":
        n = draw(st.sampled_from([1, 2, 4, 5]))
        fields = (fields + ["5", "5"])[:n]
        problem = f"expected 3 fields, got {n}"
    elif kind == "integer":
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from(NOT_PLAIN))
        problem = f"fields must be integers, got {','.join(fields)!r}"
    elif kind == "sensor":
        bad = draw(st.one_of(st.integers(4, 10**6), st.integers(-(10**6), -1)))
        fields[1] = str(bad)
        problem = f"sensor {bad} is not configured"
    elif kind == "counts":
        bad = draw(st.one_of(st.integers(1024, 10**9), st.integers(-(10**9), -1)))
        fields[2] = str(bad)
        problem = f"counts {bad} outside 0..1023"
    else:
        bad = earlier[-1] - draw(st.integers(0, 60))
        fields[0] = str(bad)
        problem = f"t_ms {bad} not after t_ms {earlier[-1]} of sensor {sensor}"
    lines = [f"{t},{i},{c}" for t, i, c in frames]
    lines[k] = ",".join(fields)
    return lines, f"line {k + 2}: {problem}"


def _replay_of_regrasp_run(tmp_path, config, skin=()):
    """Trace rows of ``nerveline run`` on scissors_regrasp and the replay.csv path of its counts."""
    trace = tmp_path / "trace.csv"
    argv = ["run", "--config", str(config), "--scenario", str(SCENARIOS / "scissors_regrasp.yaml")]
    assert main(argv + ["--out", str(trace), *skin]) == 0
    trace_rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    frames = tmp_path / "frames.csv"
    frames.write_text(
        "t_ms,sensor,counts\n" + "".join(f"{row[0]},{row[2]},{row[3]}\n" for row in trace_rows)
    )
    replayed = tmp_path / "replay.csv"
    code = main(["replay", "--config", str(config), "--log", str(frames), "--out", str(replayed)])
    assert code == 0
    return trace_rows, replayed


class TestCliReplay:
    @pytest.mark.parametrize("skin", [[], ["--no-spikes"]], ids=["spiked", "smooth"])
    @pytest.mark.parametrize("config_name", ["shipped", "noisy"])
    def test_round_trip_matches_run_trace(self, tmp_path, config_name, skin):
        config = DEFAULT_CONFIG if config_name == "shipped" else write(tmp_path, "c.yaml", NOISY)
        trace_rows, replayed = _replay_of_regrasp_run(tmp_path, config, skin)
        replay_rows = [line.split(",") for line in replayed.read_text().splitlines()[1:]]
        assert len(replay_rows) == len(trace_rows)
        for trace_row, replay_row in zip(trace_rows, replay_rows):
            assert replay_row[3] == trace_row[4]  # filtered, exact text
            assert replay_row[4] == trace_row[5]  # p, exact text

    # sha256 of replay.csv for the counts of a scissors_regrasp run, as
    # produced by stepping a FilterState per frame; one plain float per
    # sensor through the shared filter expression must reproduce them.
    REPLAY_SHA256 = {
        "shipped": "8394dcfaf2970d71f605c1b18940cc0a54babd9ced3662f9a8af1e29e3d4d139",
        "noisy": "53ab6ba725fcc5c45b0540bb67e19317658f473af1349ee0f743cc079232f1a3",
    }

    @pytest.mark.parametrize("config_name", list(REPLAY_SHA256))
    def test_output_digests_pinned(self, tmp_path, config_name):
        config = DEFAULT_CONFIG if config_name == "shipped" else write(tmp_path, "c.yaml", NOISY)
        _, replayed = _replay_of_regrasp_run(tmp_path, config)
        digest = hashlib.sha256(replayed.read_bytes()).hexdigest()
        assert digest == self.REPLAY_SHA256[config_name]

    @given(drawn_replays())
    # a = 0: the filter passes each frame through unchanged
    @example((0.0, [(0, 0, 500), (10, 0, 200), (10, 1, 800), (20, 1, 100)]))
    # sensor 2 is seeded mid-log, after sensor 0 has run, at an earlier t_ms
    @example((0.5, [(0, 0, 300), (10, 0, 700), (20, 0, 900), (5, 2, 100), (30, 0, 100), (15, 2, 1000)]))
    # counts at both ends of the ADC range, 0 and full scale
    @example((COEFFICIENT_A, [(0, 1, 0), (0, 3, 1023), (10, 1, 1023), (10, 3, 0), (20, 1, 0)]))
    # counts held past the filter's fixed point, where replay reuses a frame's text, and left again
    @example(held_frames(COEFFICIENT_A))
    @example(held_frames(0.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_filter_step_loop(self, replay):
        coefficient_a, frames = replay
        calibration = auto_calibration(NerveLineSpec())
        filters = {sensor: FilterState(coefficient_a) for _, sensor, _ in frames}
        expected = []
        for t_ms, sensor, counts in frames:
            filters[sensor], filtered = filter_step(filters[sensor], counts)
            estimate = estimate_p(filtered, calibration)
            expected.append(
                f"{t_ms},{sensor},{counts},{filtered!r},{estimate.p!r},{estimate.regime.value}"
            )

        with tempfile.TemporaryDirectory() as tmp:
            config, log, out = (Path(tmp) / name for name in ("c.yaml", "frames.csv", "replay.csv"))
            config.write_text(yaml.safe_dump({"seed": 1, "filter": {"coefficient_a": coefficient_a}}))
            log.write_text("t_ms,sensor,counts\n" + "".join(f"{t},{i},{c}\n" for t, i, c in frames))
            assert main(["replay", "--config", str(config), "--log", str(log), "--out", str(out)]) == 0
            assert out.read_text().splitlines()[1:] == expected

    @given(mutated_frame_lines())
    # int() raises on both; the message must still carry the line number
    @example(["--5,0,5"])
    @example(["1" * 5000 + ",0,5"])
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_loop(self, lines):
        """Exit code, stderr and --out bytes are those of the per-line int() loop (``oracles.py``)."""
        config = load_config(DEFAULT_CONFIG)
        with tempfile.TemporaryDirectory() as tmp:
            log, out = Path(tmp) / "frames.csv", Path(tmp) / "replay.csv"
            log.write_text("t_ms,sensor,counts\n" + "".join(line + "\n" for line in lines))
            out.write_bytes(b"kept\n")
            expected_out, message = replay_reference(config, log)
            stderr = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                code = main(["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(out)])
            if message is None:
                assert (code, stderr.getvalue(), out.read_bytes()) == (0, "", expected_out.encode())
            else:
                assert (code, stderr.getvalue(), out.read_bytes()) == (2, f"error: {log}: {message}\n", b"kept\n")

    @given(corrupted_frame_logs())
    @settings(max_examples=100, deadline=None)
    def test_failing_frame_names_its_line(self, corrupted):
        """The first bad frame is named by its line, in the words of the one check it fails, and --out is kept."""
        lines, message = corrupted
        with tempfile.TemporaryDirectory() as tmp:
            log, out = Path(tmp) / "frames.csv", Path(tmp) / "replay.csv"
            log.write_text("t_ms,sensor,counts\n" + "".join(line + "\n" for line in lines))
            out.write_bytes(b"kept\n")
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(out)])
            assert (code, stdout.getvalue(), stderr.getvalue(), out.read_bytes()) == (
                2,
                "",
                f"error: {log}: {message}\n",
                b"kept\n",
            )

    @pytest.mark.parametrize(
        "frame_lines,message",
        [
            ("bad,header,now\n0,0,1\n", "line 1: expected header"),
            ("t_ms,sensor,counts\n0,0\n", "line 2: expected 3 fields"),
            ("t_ms,sensor,counts\n0,0,abc\n", "line 2: fields must be integers"),
            ("t_ms,sensor,counts\n0,9,100\n", "line 2: sensor 9"),
            ("t_ms,sensor,counts\n0,0,2000\n", "line 2: counts 2000 outside"),
            (
                "t_ms,sensor,counts\n20,0,1023\n10,0,500\n10,0,500\n",
                "line 3: t_ms 10 not after t_ms 20 of sensor 0",
            ),
        ],
    )
    def test_malformed_log_exits_two(self, tmp_path, capsys, frame_lines, message):
        log = tmp_path / "frames.csv"
        log.write_text(frame_lines)
        code = main(
            ["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "frame_lines,message",
        [
            ("t_ms,sensor,counts\n0,0\n", "line 2: expected 3 fields, got 2"),
            ("t_ms,sensor,counts\n0,0,1,2\n", "line 2: expected 3 fields, got 4"),
            ("t_ms,sensor,counts\n0,0,abc\n", "line 2: fields must be integers, got '0,0,abc'"),
            ("t_ms,sensor,counts\n0,0,1.5\n", "line 2: fields must be integers, got '0,0,1.5'"),
            ("t_ms,sensor,counts\n0,0,0x10\n", "line 2: fields must be integers, got '0,0,0x10'"),
            ("t_ms,sensor,counts\n0,0,\n", "line 2: fields must be integers, got '0,0,'"),
            ("t_ms,sensor,counts\n0, 0 ,1_0\n", "line 2: fields must be integers, got '0, 0 ,1_0'"),
            ("t_ms,sensor,counts\n+5,0,12\n", "line 2: fields must be integers, got '+5,0,12'"),
            ("t_ms,sensor,counts\n0,0,012\n", "line 2: fields must be integers, got '0,0,012'"),
            ("t_ms,sensor,counts\n0,9,100\n", "line 2: sensor 9 is not configured"),
            ("t_ms,sensor,counts\n0,-1,100\n", "line 2: sensor -1 is not configured"),
            ("t_ms,sensor,counts\n0,0,1024\n", "line 2: counts 1024 outside 0..1023"),
            ("t_ms,sensor,counts\n0,0,-1\n", "line 2: counts -1 outside 0..1023"),
            (
                "t_ms,sensor,counts\n20,0,1023\n10,0,500\n",
                "line 3: t_ms 10 not after t_ms 20 of sensor 0",
            ),
            ("", "line 1: empty log"),
            (
                "bad,header,now\n0,0,1\n",
                "line 1: expected header 't_ms,sensor,counts', got 'bad,header,now'",
            ),
            ("t_ms,sensor,counts\n--5,0,5\n", "line 2: fields must be integers, got '--5,0,5'"),
            ("t_ms,sensor,counts\n-0,0,5\n", "line 2: fields must be integers, got '-0,0,5'"),
            ("t_ms,sensor,counts\n0,00,5\n", "line 2: fields must be integers, got '0,00,5'"),
            ("t_ms,sensor,counts\n0,0,-0\n", "line 2: fields must be integers, got '0,0,-0'"),
            pytest.param(
                "t_ms,sensor,counts\n" + "1" * 5000 + ",0,5\n",
                "line 2: fields must be integers, got '" + "1" * 5000 + ",0,5'",
                id="t_ms_of_5000_digits",
            ),
            (
                "t_ms,sensor,counts\n10,0,5\n10,0,6\n",
                "line 3: t_ms 10 not after t_ms 10 of sensor 0",
            ),
            # lines break only at newlines: other line breaks of str.splitlines() are field text
            *(
                pytest.param(
                    f"t_ms,sensor,counts\n0,0,5{sep}10,0,6\n",
                    "line 2: expected 3 fields, got 5",
                    id=f"line_break_{ord(sep):#04x}",
                )
                for sep in "\x0b\x0c\x1c\x1d\x1e"
            ),
            pytest.param(
                "t_ms,sensor,counts\n0,0,5\x0c\n",
                "line 2: fields must be integers, got '0,0,5\\x0c'",
                id="form_feed_at_line_end",
            ),
            pytest.param(
                "t_ms,sensor,counts\x0c0,0,5\n",
                "line 1: expected header 't_ms,sensor,counts', got 't_ms,sensor,counts\\x0c0,0,5'",
                id="form_feed_after_header",
            ),
            pytest.param(
                "t_ms,sensor,counts\n0,0,5\n\n", "line 3: expected 3 fields, got 1", id="trailing_blank_line"
            ),
        ],
    )
    def test_malformed_log_messages_pinned(self, tmp_path, capsys, frame_lines, message):
        log = tmp_path / "frames.csv"
        log.write_text(frame_lines)
        code = main(
            ["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {log}: {message}\n"

    @pytest.mark.parametrize(
        "text",
        ["t_ms,sensor,counts\r\n0,0,5\r\n10,0,6\r\n", "t_ms,sensor,counts\r0,0,5\r10,0,6\r", "t_ms,sensor,counts\n0,0,5\n10,0,6"],
        ids=["crlf", "cr", "no_final_newline"],
    )
    def test_accepted_line_endings(self, tmp_path, text):
        log, out = tmp_path / "frames.csv", tmp_path / "r.csv"
        log.write_bytes(text.encode())
        assert main(["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(out)]) == 0
        log.write_bytes(b"t_ms,sensor,counts\n0,0,5\n10,0,6\n")
        assert main(["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(tmp_path / "lf.csv")]) == 0
        assert out.read_bytes() == (tmp_path / "lf.csv").read_bytes()

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"t_ms,sensor,counts\n0,0,5\n1,0,\xff\n", "line 3: byte 0xff is not ASCII"),
            (b"t_ms,sensor,counts\r\n0,0,5\r\n1,0,\x80\r\n", "line 3: byte 0x80 is not ASCII"),
            (b"t_ms,sensor,counts\r0,0,5\r\xe9", "line 3: byte 0xe9 is not ASCII"),
            (b"t_ms,sensor,c\xc3\xb6unts\n0,0,5\n", "line 1: byte 0xc3 is not ASCII"),
            # the byte is named even after a malformed line: the whole log is read first
            (b"t_ms,sensor,counts\n0,0\n1,0,5\xff\n", "line 3: byte 0xff is not ASCII"),
            (
                b"t_ms,sensor,counts\n"
                + b"".join(b"%d,0,%d\n" % (k, k % 1024) for k in range(20_000))
                + b"20000,0,5\xa0\n",
                "line 20002: byte 0xa0 is not ASCII",
            ),
        ],
        ids=["lf", "crlf", "cr", "in_header", "after_malformed_line", "far_into_a_long_log"],
    )
    def test_non_ascii_byte_names_the_line(self, tmp_path, capsys, content, message):
        log = tmp_path / "frames.csv"
        log.write_bytes(content)
        code = main(
            ["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {log}: {message}\n"

    def test_non_ascii_calibration_byte_names_the_line(self, tmp_path, capsys):
        calibration = tmp_path / "calibration.txt"
        calibration.write_bytes(b"sensor=0\r\nv_max=1023\r\nv_mid=2\xb36\r\nv_min=93\r\n")
        config = write(tmp_path, "c.yaml", f"seed: 1\ncalibration_file: {calibration}\n")
        log = tmp_path / "frames.csv"
        log.write_text("t_ms,sensor,counts\n0,0,5\n")
        code = main(["replay", "--config", str(config), "--log", str(log), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {calibration}: line 3: byte 0xb3 is not ASCII\n"

    def test_malformed_log_names_the_file(self, tmp_path, capsys):
        log = tmp_path / "frames.csv"
        log.write_text("t_ms,sensor,counts\n0,0,abc\n")
        code = main(
            ["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        assert f"error: {log}: line 2: fields must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("out_exists", [True, False], ids=["existing_out", "missing_out"])
    def test_bad_last_line_writes_nothing(self, tmp_path, capsys, out_exists):
        frames = [f"{10 * (k // 4)},{k % 4},{(37 * k) % 1024}\n" for k in range(5999)]
        log = tmp_path / "frames.csv"
        log.write_text("t_ms,sensor,counts\n" + "".join(frames) + "14990,3,1024\n")
        out = tmp_path / "r.csv"
        if out_exists:
            out.write_bytes(b"kept\n")
        code = main(["replay", "--config", str(DEFAULT_CONFIG), "--log", str(log), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {log}: line 6001: counts 1024 outside 0..1023\n")
        if out_exists:
            assert out.read_bytes() == b"kept\n"
        else:
            assert not out.exists()

    def test_calibration_error_reported_before_log_error(self, tmp_path, capsys):
        # the estimators are built before the first frame is read
        calibration = tmp_path / "calibration.txt"
        calibration.write_text("sensor=0\nv_max=1023\n\nv_min=93\n")
        config = write(tmp_path, "c.yaml", f"seed: 1\ncalibration_file: {calibration}\n")
        log = tmp_path / "frames.csv"
        log.write_text("t_ms,sensor,counts\n0,0,abc\n")
        code = main(["replay", "--config", str(config), "--log", str(log), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {calibration}: line 3: blank line not allowed\n"


class TestCalibrationTable:
    """Without a calibration file each distinct line spec is calibrated once per call."""

    @pytest.mark.parametrize(
        "text,calls",
        [
            (None, 1),
            (TWO_SPECS, 2),
        ],
        ids=["shipped", "two_specs"],
    )
    def test_one_calibration_per_spec(self, tmp_path, monkeypatch, text, calls):
        config = load_config(DEFAULT_CONFIG if text is None else write(tmp_path, "c.yaml", text))
        calibrated = []

        def counting(spec):
            calibrated.append(spec)
            return auto_calibration(spec)

        monkeypatch.setattr(nerveline.cli, "auto_calibration", counting)
        table = _calibration_table(config)
        assert len(calibrated) == calls
        assert table == {i: auto_calibration(spec) for i, spec in config.sensors.items()}


# a second line whose noise-free open and base poses read the same count, by a huge pull-up or a tiny length
UNORDERED_PULLUP = "sensors: [{index: 0}, {index: 1, pullup_ohm: 1.0e+308, lead_offset_ohm: 1.0e+308}]\n"
UNORDERED_LENGTH = "sensors: [{index: 0}, {index: 1, effective_length_mm: 1.0e-300, spike_pitch_mm: 1.0e-300}]\n"


class TestCliCalibrate:
    def test_noise_free_output_exact(self, tmp_path):
        out = tmp_path / "calibration.txt"
        code = main(["calibrate", "--config", str(DEFAULT_CONFIG), "--out", str(out)])
        assert code == 0
        group = "v_max=1023\nv_mid=236\nv_min=93\n"
        expected = "".join(f"sensor={i}\n{group}" for i in range(4))
        assert out.read_text() == expected

    def test_noisy_output_pinned(self, tmp_path):
        config = write(tmp_path, "c.yaml", "seed: 3\nnoise_sd_counts: 60.0\n")
        out = tmp_path / "calibration.txt"
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
        triplets = [(992, 229, 93), (999, 237, 84), (1003, 243, 89), (1002, 232, 96)]
        expected = "".join(
            f"sensor={i}\nv_max={hi}\nv_mid={mid}\nv_min={lo}\n"
            for i, (hi, mid, lo) in enumerate(triplets)
        )
        assert out.read_text() == expected

    def test_calibration_file_feeds_run(self, tmp_path, capsys):
        calibration = tmp_path / "calibration.txt"
        main(["calibrate", "--config", str(DEFAULT_CONFIG), "--out", str(calibration)])
        config = write(
            tmp_path,
            "c.yaml",
            f"""\
            seed: 12345
            calibration_file: {calibration}
            """,
        )
        code = main(
            [
                "run",
                "--config", str(config),
                "--scenario", str(SCENARIOS / "scissors_present.yaml"),
                "--out", str(tmp_path / "trace.csv"),
            ]
        )
        assert code == 0
        assert "outcome=lifted steps=50" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["", " ~", " null"], ids=["empty", "tilde", "null"])
    def test_null_calibration_file_calibrates_from_the_config(self, tmp_path, capsys, value):
        """Each spelling of null leaves ``calibration_file`` at its default: calibrate from the lines."""
        config = write(tmp_path, "c.yaml", f"seed: 12345\ncalibration_file:{value}\n")
        assert load_config(config).calibration_file is None
        argv = ["run", "--config", str(config), "--scenario", str(SCENARIOS / "scissors_present.yaml")]
        assert main(argv + ["--out", str(tmp_path / "trace.csv")]) == 0
        assert capsys.readouterr().out.endswith("outcome=lifted steps=50\n")

    @pytest.mark.parametrize("spelling", ["./calibration.txt", "../cal/calibration.txt"])
    def test_relative_calibration_file_feeds_run(self, tmp_path, monkeypatch, capsys, spelling):
        """A calibration path relative to the working directory is a plain word, read as the file it names."""
        (tmp_path / "cal").mkdir()
        monkeypatch.chdir(tmp_path / "cal")
        assert main(["calibrate", "--config", str(DEFAULT_CONFIG), "--out", "calibration.txt"]) == 0
        config = write(tmp_path, "c.yaml", f"seed: 12345\ncalibration_file: {spelling}\n")
        argv = ["run", "--config", str(config), "--scenario", str(SCENARIOS / "scissors_present.yaml")]
        assert main(argv + ["--out", str(tmp_path / "trace.csv")]) == 0
        assert capsys.readouterr().out.endswith("outcome=lifted steps=50\n")

    @pytest.mark.parametrize("command", ["run", "sweep", "replay"])
    def test_calibration_value_beyond_float_range_exits_two(self, tmp_path, capsys, command):
        calibration = tmp_path / "calibration.txt"
        calibration.write_text("sensor=0\nv_max=1" + "0" * 400 + "\nv_mid=236\nv_min=93\n")
        config = write(tmp_path, "c.yaml", f"seed: 1\ncalibration_file: {calibration}\n")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out.csv")]
        if command == "run":
            argv += ["--scenario", str(SCENARIOS / "no_scissors.yaml")]
        elif command == "replay":
            log = tmp_path / "frames.csv"
            log.write_text("t_ms,sensor,counts\n0,0,500\n")
            argv += ["--log", str(log)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "line 2: integer beyond the float range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep", "replay"])
    def test_calibration_error_names_the_file(self, tmp_path, capsys, command):
        calibration = tmp_path / "calibration.txt"
        calibration.write_text("sensor=0\nv_max=1023\n\nv_min=93\n")
        config = write(tmp_path, "c.yaml", f"seed: 1\ncalibration_file: {calibration}\n")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out.csv")]
        if command == "run":
            argv += ["--scenario", str(SCENARIOS / "no_scissors.yaml")]
        elif command == "replay":
            log = tmp_path / "frames.csv"
            log.write_text("t_ms,sensor,counts\n0,0,500\n")
            argv += ["--log", str(log)]
        assert main(argv) == 2
        assert f"error: {calibration}: line 3: blank line not allowed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sensors,command,message",
        [
            (UNORDERED_PULLUP, "sweep", "sensor 1: v_min < v_mid violated (v_min=511, v_mid=511)"),
            (UNORDERED_PULLUP, "calibrate", "sensor 1: v_min < v_mid violated (v_min=511, v_mid=511)"),
            (UNORDERED_LENGTH, "run", "sensor 1: v_min < v_mid violated (v_min=93, v_mid=93)"),
            (UNORDERED_LENGTH, "replay", "sensor 1: v_min < v_mid violated (v_min=93, v_mid=93)"),
            ("noise_sd_counts: 1.0e+300\n", "calibrate", "sensor 0: v_min < v_mid violated (v_min=614, v_mid=563)"),
            # one line under two indices, listed high first, calibrates once under the lower
            (
                "sensors: [{index: 0}, {index: 1}, {index: 3, pullup_ohm: 1.0e+308, lead_offset_ohm: 1.0e+308},"
                " {index: 2, pullup_ohm: 1.0e+308, lead_offset_ohm: 1.0e+308}]\n",
                "run",
                "sensor 2: v_min < v_mid violated (v_min=511, v_mid=511)",
            ),
        ],
        ids=["pullup_sweep", "pullup_calibrate", "length_run", "length_replay", "noise_calibrate", "lowest_index"],
    )
    def test_line_that_cannot_calibrate_names_its_sensor(self, tmp_path, capsys, sensors, command, message):
        """A line whose calibration poses do not order fails every command, naming the lowest index with that line."""
        config = write(tmp_path, "c.yaml", "seed: 1\n" + sensors)
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out.csv")]
        if command == "run":
            argv += ["--scenario", str(SCENARIOS / "no_scissors.yaml")]
        elif command == "replay":
            log = tmp_path / "frames.csv"
            log.write_text("t_ms,sensor,counts\n0,0,500\n")
            argv += ["--log", str(log)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_sensor_in_calibration_file(self, tmp_path, capsys):
        calibration = tmp_path / "calibration.txt"
        calibration.write_text("sensor=0\nv_max=1023\nv_mid=236\nv_min=93\n")
        config = write(
            tmp_path,
            "c.yaml",
            f"""\
            seed: 12345
            calibration_file: {calibration}
            """,
        )
        code = main(
            [
                "run",
                "--config", str(config),
                "--scenario", str(SCENARIOS / "no_scissors.yaml"),
                "--out", str(tmp_path / "trace.csv"),
            ]
        )
        assert code == 2
        assert "no calibration for sensors [1, 2, 3]" in capsys.readouterr().err
