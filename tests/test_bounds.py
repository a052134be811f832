"""Field bounds: the YAML loader accepts exactly what the dataclass constructors accept."""

import importlib
import math
import pkgutil
import re
from dataclasses import dataclass, fields, is_dataclass, replace

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nerveline
from nerveline import (
    ActuatorSpec,
    ConfigError,
    ContactRule,
    ControllerConfig,
    FingerSpec,
    Hand,
    NerveLineSpec,
    RunConfig,
    Scenario,
    ScenarioError,
    TaskPhase,
    default_sensors,
    load_config,
    load_scenario,
)
from nerveline.bounds import check_fields

# window_n 1 and dwell_ticks 1000 keep the dwell-covers-window rule satisfied
# for every drawn integer, so only the field's own bounds decide.
CONTROLLER_BASE = {"window_n": 1, "dwell_ticks": 1000}

CASES = [("sensors[0].", NerveLineSpec, {}, f.name) for f in fields(NerveLineSpec)] + [
    ("controller.", ControllerConfig, CONTROLLER_BASE, f.name) for f in fields(ControllerConfig)
]

COEFFICIENT_A = 0.7609427763893117  # the shipped config's, from a 5 Hz cutoff at a 10 ms tick
DEFAULT_RUN = RunConfig(seed=0, sensors=default_sensors(), controller=ControllerConfig(), filter_coefficient_a=0.5)

values = st.one_of(st.integers(min_value=-1000, max_value=1000), st.floats(), st.booleans())


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bounds") / "c.yaml"


@pytest.mark.parametrize("prefix,cls,base,name", CASES, ids=[case[3] for case in CASES])
@settings(max_examples=30, deadline=None)
@given(value=values)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=True)
@example(value=2.5)
@example(value=0)
def test_loader_agrees_with_constructor(config_path, prefix, cls, base, name, value):
    try:
        cls(**{**base, name: value})
        accepted = True
    except ValueError:
        accepted = False
    if name.startswith("watched_sensor_"):
        accepted = accepted and value in range(4)  # the loader's membership rule

    block = {**base, name: value}
    if cls is NerveLineSpec:
        data = {"seed": 1, "sensors": [{"index": 0, **block}] + [{"index": i} for i in (1, 2, 3)]}
    else:
        data = {"seed": 1, "controller": block}
    config_path.write_text(yaml.safe_dump(data), encoding="utf-8")

    try:
        load_config(config_path)
    except ConfigError as exc:
        lines = str(exc).splitlines()
        assert not accepted, lines
        assert all(line.startswith(f"{prefix}{name}: ") for line in lines), lines
    else:
        assert accepted


# The loader and the constructors, compared on whole files.  A drawn file is
# valid, or breaks one field of one record in one way: a value one step past
# a bound, a wrong type, a non-finite number, a number YAML 1.1 reads as a
# string, an unconfigured watched sensor, a sensor index outside 0..3, an
# empty finger list, or a value a record's cross-field rules reject.
LIVE_PHASES = [phase.value for phase in TaskPhase if phase.value not in ("Done", "Failed")]
WRONG_TYPES = ["x", "1e300", True, None, [1], {"a": 1}, math.inf, -math.inf, math.nan, 1.5, 3]


def past_bounds(cls, name):
    """The values one step past each bound declared on field ``name`` of ``cls``."""
    f = next(f for f in fields(cls) if f.name == name)
    integer = f.type.startswith("int")
    steps = []
    for symbol, bound in f.metadata.get("limits", ()):
        if symbol in (">", "<"):
            steps.append(bound)
        elif integer:
            steps.append(bound - 1 if symbol == ">=" else bound + 1)
        else:
            steps.append(math.nextafter(bound, -math.inf if symbol == ">=" else math.inf))
    return steps


def bad_value(cls, name):
    return st.sampled_from(past_bounds(cls, name) + WRONG_TYPES)


@st.composite
def config_files(draw):
    sensors = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    data = {
        "seed": draw(st.integers(0, 2**40)),
        "noise_sd_counts": draw(st.sampled_from([0.0, 2.5])),
        "quantize_to_spikes": draw(st.booleans()),
        "filter": {"coefficient_a": draw(st.sampled_from([0.0, 0.5, COEFFICIENT_A]))},
        "sensors": [{"index": i} for i in sensors],
        "controller": {
            "watched_sensor_grasp": draw(st.sampled_from(sensors)),
            "watched_sensor_regrasp": draw(st.sampled_from(sensors)),
        },
    }
    if draw(st.booleans()):
        data["hand"] = {
            "fingers": [{"name": "index"}, {"name": "middle"}],
            "actuators": [
                {"id": 0, "role": "bend", "displacement_table": {"grasp": 6.5, "open": 0.0}},
                {"id": 1, "role": "extend", "joint_ref": "index_flexion"},
            ],
        }
    where = draw(st.sampled_from(["none", "top", "filter", "sensor", "index", "controller", "watched", "hand"]))
    if where == "top":
        name = draw(st.sampled_from(["seed", "noise_sd_counts", "quantize_to_spikes", "calibration_file"]))
        data[name] = draw(bad_value(RunConfig, name))
    elif where == "filter":
        data["filter"]["coefficient_a"] = draw(st.sampled_from([1.0, math.nextafter(0.0, -1.0)] + WRONG_TYPES))
    elif where == "sensor":
        name = draw(st.sampled_from([f.name for f in fields(NerveLineSpec)]))
        data["sensors"][draw(st.integers(0, len(sensors) - 1))][name] = draw(bad_value(NerveLineSpec, name))
    elif where == "index":  # values that key no other block
        data["sensors"][draw(st.integers(0, len(sensors) - 1))]["index"] = draw(
            st.sampled_from([4, 7, -1, "0", 1.5, None])
        )
    elif where == "controller":
        name = draw(st.sampled_from([f.name for f in fields(ControllerConfig)]))
        data["controller"][name] = draw(bad_value(ControllerConfig, name))
        if draw(st.booleans()):
            data["controller"].update(window_n=20, dwell_ticks=10)  # the dwell must cover the window
    elif where == "watched":
        key = draw(st.sampled_from(["watched_sensor_grasp", "watched_sensor_regrasp"]))
        data["controller"][key] = draw(st.sampled_from([i for i in range(6) if i not in sensors]))
    elif where == "hand":
        hand = data.setdefault("hand", {})
        change = draw(st.sampled_from(["no_fingers", "no_actuators", "finger", "role", "joint_ref", "table", "ids"]))
        if change == "no_fingers":
            hand["fingers"] = []
        elif change == "no_actuators":
            hand["actuators"] = []
        elif change == "finger":
            hand["fingers"] = [{"name": draw(st.sampled_from(["pinky", "", 3]))}]
        else:
            actuator = {"id": 0, "role": "bend", "joint_ref": "index_flexion"}
            if change == "role":
                actuator["role"] = draw(st.sampled_from(["twist", None, 1]))
            elif change == "joint_ref":
                actuator["joint_ref"] = draw(st.sampled_from([3, True, ["index_flexion"]]))
            elif change == "table":
                actuator["displacement_table"] = draw(st.sampled_from([[1], {"grasp": "x"}, {3: 1.0}, {"grasp": math.inf}]))
            hand["actuators"] = [actuator, {**actuator, "id": 1 if change != "ids" else 0}]
    return "config", data


@st.composite
def scenario_files(draw):
    rule = {"sensor": draw(st.integers(0, 3)), "position_mm": draw(st.sampled_from([0.0, 42.5, 80.0]))}
    rule["phases"] = draw(st.lists(st.sampled_from(LIVE_PHASES), min_size=1, max_size=3, unique=True))
    data = {
        "name": "drawn",
        "goal": draw(st.sampled_from(["lift", "operate"])),
        "expected_outcome": "failed",
        "object_pose_mm": {"x": 120.0, "y": 40.0},
        "rules": [rule],
    }
    where = draw(st.sampled_from(["none", "name", "goal", "expected_outcome", "pose", "rule", "phases"]))
    if where in ("name", "goal", "expected_outcome"):
        data[where] = draw(st.sampled_from(["", "juggle", 3, None]))
    elif where == "pose":
        data["object_pose_mm"][draw(st.sampled_from("xy"))] = draw(st.sampled_from(WRONG_TYPES))
    elif where == "rule":
        name = draw(st.sampled_from(["bridge_ohm", "slide_mm_per_step", "attempt", "position_mm"]))
        rule[name] = draw(bad_value(ContactRule, name))
    elif where == "phases":
        rule["phases"] = draw(st.sampled_from([[], ["Done"], ["Lift", "Failed", "Done"]]))
    return "scenario", data


def in_code(kind, data):
    """The record ``data`` describes, built through the constructors, or the problems they raise."""
    problems = []

    def make(cls, **values):
        try:
            return cls(**values)
        except ValueError as exc:
            problems.extend(str(exc).split("\n"))
            return None

    if kind == "scenario":
        rules = tuple(
            make(ContactRule, **{**rule, "phases": frozenset(map(TaskPhase, rule["phases"]))}) for rule in data["rules"]
        )
        pose = data["object_pose_mm"]
        fields_in_code = {**data, "object_pose_mm": (pose["x"], pose["y"]), "rules": rules}
        return problems or make(Scenario, **fields_in_code) or problems
    sensors = {
        block["index"]: make(NerveLineSpec, **{k: v for k, v in block.items() if k != "index"})
        for block in data["sensors"]
    }
    run = {
        "seed": data["seed"],
        "sensors": sensors,
        "controller": make(ControllerConfig, **data["controller"]),
        "filter_coefficient_a": data["filter"]["coefficient_a"],
    }
    run.update((key, data[key]) for key in ("noise_sd_counts", "quantize_to_spikes", "calibration_file") if key in data)
    if "hand" in data:
        parts = {
            "fingers": tuple(make(FingerSpec, **finger) for finger in data["hand"].get("fingers", [])),
            "actuators": tuple(make(ActuatorSpec, **actuator) for actuator in data["hand"].get("actuators", [])),
        }
        run["hand"] = None if problems else make(Hand, **{k: v for k, v in parts.items() if k in data["hand"]})
    return problems or make(RunConfig, **run) or problems


def problem_texts(lines):
    """Each message with the path to its record taken off, keeping the field: a file and a
    constructor reach a record differently (``sensors[0].`` in a file, ``sensors[2]`` in code),
    and a file spells ``filter_coefficient_a`` as ``filter.coefficient_a``."""
    texts = []
    for line in lines:
        path, problem = line.split(": ", 1)
        field = re.split(r"[.\]]", path.replace("filter.coefficient_a", "filter_coefficient_a"))[-1]
        texts.append(f"{field}: {problem}")
    return texts


GAP_CASES = [  # each loaded with an error and built without one, before the records checked themselves
    ("config", {"seed": 1, "filter": {"coefficient_a": 0.5}, "sensors": [{"index": 2}, {"index": 3}], "controller": {}}),
    ("config", {"seed": 1, "filter": {"coefficient_a": 0.5}, "sensors": [{"index": 7}], "controller": {}}),
    ("config", {"seed": 1, "filter": {"coefficient_a": 0.5}, "sensors": [{"index": 0}, {"index": 1}], "controller": {},
                "quantize_to_spikes": 1}),
    ("config", {"seed": 1, "filter": {"coefficient_a": 0.5}, "sensors": [{"index": 0}, {"index": 1}], "controller": {},
                "calibration_file": 3}),
    ("scenario", {"name": "x", "goal": "lift", "expected_outcome": "lifted", "object_pose_mm": {"x": math.inf, "y": 0},
                  "rules": []}),
    ("config", {"seed": 1, "filter": {"coefficient_a": 0.5}, "sensors": [{"index": 0}, {"index": 1}], "controller": {},
                "hand": {"fingers": []}}),
]


@given(st.one_of(config_files(), scenario_files()))
@example(GAP_CASES[0])
@example(GAP_CASES[1])
@example(GAP_CASES[2])
@example(GAP_CASES[3])
@example(GAP_CASES[4])
@example(GAP_CASES[5])
@settings(max_examples=100, deadline=None)
def test_loader_matches_constructors(tmp_path_factory, drawn):
    """``load_config``/``load_scenario`` and the constructors accept the same files, with the same problems."""
    kind, data = drawn
    path = tmp_path_factory.mktemp("differential") / f"{kind}.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    error = ScenarioError if kind == "scenario" else ConfigError
    try:
        loaded = load_scenario(path, DEFAULT_RUN) if kind == "scenario" else load_config(path)
    except error as exc:
        loaded = str(exc).split("\n")
    built = in_code(kind, data)
    if isinstance(loaded, list) or isinstance(built, list):
        assert isinstance(loaded, list) and isinstance(built, list), (loaded, built)
        assert problem_texts(loaded) == problem_texts(built)
    else:
        assert loaded == built


def test_unreadable_annotation_raises():
    """A field type the annotation reader does not know fails the record's first check, not passes it."""

    @dataclass(frozen=True)
    class Odd:
        values: "list[int]"

        def __post_init__(self):
            check_fields(self)

    with pytest.raises(TypeError, match=r"cannot read the annotation 'list\[int\]'"):
        Odd(values=[1])


VALID_RECORDS = [
    NerveLineSpec(),
    ControllerConfig(),
    ContactRule(sensor=0, position_mm=1.0, phases=frozenset({TaskPhase.LIFT})),
    Scenario(name="x", goal="lift", expected_outcome="lifted"),
    DEFAULT_RUN,
    FingerSpec(name="index"),
    ActuatorSpec(id=0, role="bend"),
    Hand(),
]


def checked_records():
    """Every dataclass in ``nerveline`` with a bounded field or rules across fields."""
    modules = [importlib.import_module(f"nerveline.{info.name}") for info in pkgutil.iter_modules(nerveline.__path__)]
    return {
        kind
        for module in modules
        for kind in vars(module).values()
        if is_dataclass(kind) and kind.__module__ == module.__name__
        and (hasattr(kind, "cross_problems") or any("limits" in f.metadata for f in fields(kind)))
    }


def test_every_record_rejects_a_wrong_type():
    """Each field of each checked record refuses a value of no type it takes, built anew or replaced."""
    assert {type(record) for record in VALID_RECORDS} == checked_records()
    for record in VALID_RECORDS:
        built = {f.name: getattr(record, f.name) for f in fields(record)}
        for f in fields(record):
            wrong = {f.name: object()}
            with pytest.raises(ValueError, match=f"^{f.name}: "):
                type(record)(**{**built, **wrong})
            with pytest.raises(ValueError, match=f"^{f.name}: "):
                replace(record, **wrong)
