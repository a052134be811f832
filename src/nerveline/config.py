"""YAML run-configuration and scenario loading with strict validation.

Every violation is reported with the path of the offending field, for
example ``sensors[0].pullup_ohm``, and all violations in a file are
collected into a single error rather than stopping at the first.  Numeric
bounds are declared once, on the dataclass fields (``bounds.bounded``);
this module prefixes their messages with the path and adds the rules only
a file can break: unknown keys, shapes, names and cross-references.
"""

from __future__ import annotations

import functools
import string
from dataclasses import MISSING, fields
from pathlib import Path
from typing import AbstractSet, Any

import yaml

from .bounds import field_problems, is_finite_number, number_problem
from .controller import (
    GOALS,
    OUTCOMES,
    TERMINAL_PHASES,
    ContactRule,
    ControllerConfig,
    RunConfig,
    Scenario,
    TaskPhase,
    rule_problem,
)
from .errors import ConfigError, ScenarioError
from .estimation import DEFAULT_CUTOFF_HZ, FilterState, smoothing_coefficient
from .hand import ActuatorSpec, FingerSpec, Hand, default_hand
from .line import NerveLineSpec

SENSOR_COUNT = 4


def default_sensors() -> dict[int, NerveLineSpec]:
    """One default line per sensor index."""
    return {i: NerveLineSpec() for i in range(SENSOR_COUNT)}


# libyaml reads a few texts differently from the pure loader (a tab in a
# plain key, ``?`` in a flow scalar, a bare ``!`` tag), so it only gets texts
# of at most 16 KiB in these characters, which keep out anchors and aliases
# too; what it fails on or nests deeper than 64 goes to the pure loader.
_FAST_LOADER = getattr(yaml, "CSafeLoader", None)
_FAST_CHARS = frozenset(string.ascii_letters + string.digits + " \n#:-_.,[]{}()'\"+/=;`")


def _nests_deeper_than(value: Any, limit: int) -> bool:
    stack = [(value, 1)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (dict, list)):
            if depth > limit:
                return True
            stack.extend((child, depth + 1) for child in (node.values() if isinstance(node, dict) else node))
    return False


def _parse_yaml(text: str) -> Any:
    """``yaml.safe_load(text)``: the same object or the same exception."""
    if _FAST_LOADER is not None and len(text) <= 16 * 1024 and _FAST_CHARS.issuperset(text):
        try:
            raw = yaml.load(text, Loader=_FAST_LOADER)
        except Exception:  # the pure loader's result or error is the one reported
            pass
        else:
            if not _nests_deeper_than(raw, 64):  # real files nest 4 deep, the pure loader fails near 500
                return raw
    return yaml.safe_load(text)


def _load_yaml_mapping(path: str | Path, exc: type[ValueError]) -> dict[str, Any]:
    try:
        raw = _parse_yaml(Path(path).read_text(encoding="utf-8"))
    except OSError:  # a missing or unreadable file keeps its own message
        raise
    except Exception as err:
        # undecodable bytes, nesting beyond the parser's recursion, or any
        # failure of a tag constructor on its scalar (``!!int 'x'``, ``!!bool x``)
        raise exc(f"{path}: not valid YAML: {err}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise exc(f"{path}: top level must be a mapping, got {type(raw).__name__}")
    return raw


@functools.cache
def _field_names(cls: type) -> tuple[frozenset[str], tuple[str, ...]]:
    """The field names of dataclass ``cls`` and, in order, those without a default."""
    return (
        frozenset(f.name for f in fields(cls)),
        tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING),
    )


def _check_unknown_keys(data: dict[str, Any], allowed: AbstractSet[str], path: str, errors: list[str]) -> None:
    for key in data:
        if key not in allowed:
            errors.append(f"{path}{key}: unknown key")


def _is_mapping(data: Any, path: str, errors: list[str]) -> bool:
    if not isinstance(data, dict):
        errors.append(f"{path[:-1]}: must be a mapping, got {type(data).__name__}")
    return isinstance(data, dict)


def _build(
    cls: type,
    data: dict[str, Any],
    path: str,
    errors: list[str],
    since: int,
    **parsed: Any,
) -> Any:
    """``cls`` from the keys of ``data`` and the already ``parsed`` values.

    Reports unknown keys, missing required fields, out-of-bounds numbers
    and the constructor's own objection under ``path`` (``"sensors[0]."``).
    Returns None when any of these, or anything else recorded in ``errors``
    after position ``since``, went wrong.  The constructor checks the
    bounds of a clean block; they are checked here, with their paths, only
    once something is wrong.
    """
    names, required = _field_names(cls)
    _check_unknown_keys(data, names, path, errors)
    values = {key: value for key, value in data.items() if key in names}
    values.update(parsed)
    errors.extend(f"{path}{name}: required" for name in required if name not in values)
    objection = []
    if len(errors) == since:
        try:
            return cls(**values)
        except ValueError as exc:
            objection = [f"{path[:-1]}: {exc}"]
    errors.extend([path + problem for problem in field_problems(cls, values)] or objection)
    return None


def _parse_sensor(
    data: Any, path: str, errors: list[str], built: dict[frozenset, NerveLineSpec]
) -> tuple[int, NerveLineSpec] | None:
    """One sensor block; the spec of an earlier block with the same fields is reused from ``built``."""
    if not _is_mapping(data, path, errors):
        return None
    since = len(errors)
    index = data.get("index")
    if type(index) is not int or index not in range(SENSOR_COUNT):
        errors.append(f"{path}index: must be an integer in 0..{SENSOR_COUNT - 1}, got {index!r}")
    fields_only = {key: value for key, value in data.items() if key != "index"}
    try:  # typed, so that 1, 1.0 and true stay different blocks
        block = frozenset((key, type(value), value) for key, value in fields_only.items())
    except TypeError:  # an unhashable value: built on its own
        block = None
    spec = built.get(block)
    if spec is None:
        spec = _build(NerveLineSpec, fields_only, path, errors, since)
        if spec is not None and block is not None:
            built[block] = spec
    return None if spec is None or len(errors) > since else (index, spec)


def _parse_sensors(data: Any, errors: list[str]) -> dict[int, NerveLineSpec]:
    if not isinstance(data, list):
        errors.append(f"sensors: must be a list, got {type(data).__name__}")
        return {}
    sensors: dict[int, NerveLineSpec] = {}
    built: dict[frozenset, NerveLineSpec] = {}  # only blocks that built cleanly
    for k, item in enumerate(data):
        parsed = _parse_sensor(item, f"sensors[{k}].", errors, built)
        if parsed is None:
            continue
        index, spec = parsed
        if index in sensors:
            errors.append(f"sensors[{k}].index: duplicate sensor {index}")
            continue
        sensors[index] = spec
    if not sensors and not errors:
        errors.append("sensors: must not be empty")
    return sensors


def _parse_filter(data: Any, dt_ms: int, errors: list[str]) -> float | None:
    """The smoothing coefficient, given directly or through a cutoff frequency."""
    if data is None:
        data = {}
    if not _is_mapping(data, "filter.", errors):
        return None
    _check_unknown_keys(data, {"cutoff_hz", "coefficient_a"}, "filter.", errors)
    if "cutoff_hz" in data and "coefficient_a" in data:
        errors.append("filter: give either cutoff_hz or coefficient_a, not both")
        return None
    key = "coefficient_a" if "coefficient_a" in data else "cutoff_hz"
    value = data.get(key, DEFAULT_CUTOFF_HZ)
    problem = number_problem(value)
    if problem is not None:
        errors.append(f"filter.{key}: {problem}")
        return None
    try:
        coefficient = value if key == "coefficient_a" else smoothing_coefficient(value, dt_ms)
        return FilterState(coefficient_a=coefficient).coefficient_a
    except ValueError as exc:
        errors.append(f"filter.{exc}")
        return None


def _parse_controller(data: Any, dt_ms: int, errors: list[str]) -> ControllerConfig | None:
    if data is None:
        data = {}
    if not _is_mapping(data, "controller.", errors):
        return None
    return _build(ControllerConfig, {"dt_ms": dt_ms, **data}, "controller.", errors, len(errors))


def _parse_finger(data: Any, path: str, errors: list[str]) -> FingerSpec | None:
    if not _is_mapping(data, path, errors):
        return None
    return _build(FingerSpec, data, path, errors, len(errors))


def _parse_actuator(data: Any, path: str, errors: list[str]) -> ActuatorSpec | None:
    if not _is_mapping(data, path, errors):
        return None
    since = len(errors)
    joint_ref = data.get("joint_ref")
    if joint_ref is not None and not isinstance(joint_ref, str):
        errors.append(f"{path}joint_ref: must be a string or null, got {joint_ref!r}")
    table = data.get("displacement_table")
    if table is not None and (
        not isinstance(table, dict)
        or not all(isinstance(k, str) and is_finite_number(v) for k, v in table.items())
    ):
        errors.append(f"{path}displacement_table: must map posture names to numbers, got {table!r}")
    return _build(ActuatorSpec, data, path, errors, since)


def _parse_hand(data: Any, errors: list[str]) -> Hand | None:
    default = default_hand()
    if data is None:
        return default
    if not _is_mapping(data, "hand.", errors):
        return None
    _check_unknown_keys(data, _field_names(Hand)[0], "hand.", errors)
    parts = {}
    for key, parse in (("fingers", _parse_finger), ("actuators", _parse_actuator)):
        raw = data.get(key)
        if raw is None:
            parts[key] = getattr(default, key)
        elif not isinstance(raw, list) or not raw:
            errors.append(f"hand.{key}: must be a non-empty list")
        else:
            parsed = [parse(item, f"hand.{key}[{k}].", errors) for k, item in enumerate(raw)]
            if all(part is not None for part in parsed):
                parts[key] = tuple(parsed)
    if len(parts) < 2:
        return None
    try:
        return Hand(**parts)
    except ConfigError as exc:
        errors.append(f"hand.actuators: {exc}")
        return None


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a run configuration.

    Raises:
        ConfigError: any schema violation; the message lists every
            violation with its field path.
    """
    data = _load_yaml_mapping(path, ConfigError)
    errors: list[str] = []
    top_keys = _field_names(RunConfig)[0] - {"filter_coefficient_a"} | {"filter", "dt_ms"}
    _check_unknown_keys(data, top_keys, "", errors)
    if "seed" not in data:
        errors.append("seed: required; runs must not fall back to wall-clock entropy")
    errors.extend(field_problems(RunConfig, data))
    # the top-level tick is the controller's unless its block sets its own
    dt_ms = data.get("dt_ms", ControllerConfig.dt_ms)
    dt_problems = field_problems(ControllerConfig, {"dt_ms": dt_ms})
    if dt_problems:
        errors.extend(dt_problems)
        dt_ms = ControllerConfig.dt_ms  # reported; keep checking the rest

    quantize = data.get("quantize_to_spikes", True)
    if not isinstance(quantize, bool):
        errors.append(f"quantize_to_spikes: must be a boolean, got {quantize!r}")

    # the controller's tick is the filter's; its errors are reported after the sensors'
    controller_errors: list[str] = []
    controller = _parse_controller(data.get("controller"), dt_ms, controller_errors)
    tick_ms = dt_ms if controller is None else controller.dt_ms
    coefficient = _parse_filter(data.get("filter"), tick_ms, errors)
    since = len(errors)
    sensors = _parse_sensors(data["sensors"], errors) if "sensors" in data else default_sensors()
    sensors_valid = len(errors) == since
    errors.extend(controller_errors)
    for key in ("watched_sensor_grasp", "watched_sensor_regrasp"):
        watched = getattr(controller, key, None)
        if controller is not None and sensors_valid and watched not in sensors:
            errors.append(f"controller.{key}: sensor {watched} is not configured")

    calibration_file = data.get("calibration_file")
    if calibration_file is not None and not isinstance(calibration_file, str):
        errors.append(f"calibration_file: must be a string path, got {calibration_file!r}")

    hand = _parse_hand(data.get("hand"), errors)

    if errors:
        raise ConfigError("\n".join(errors))
    return RunConfig(
        seed=data["seed"],
        sensors=sensors,
        controller=controller,
        filter_coefficient_a=coefficient,
        noise_sd_counts=data.get("noise_sd_counts", RunConfig.noise_sd_counts),
        quantize_to_spikes=quantize,
        calibration_file=calibration_file,
        hand=hand,
    )


_PHASES_BY_NAME = {phase.value: phase for phase in TaskPhase}


def _parse_rule(data: Any, path: str, config: RunConfig, errors: list[str]) -> ContactRule | None:
    if not _is_mapping(data, path, errors):
        return None
    since = len(errors)
    phases: set[TaskPhase] = set()
    raw_phases = data.get("phases")
    if not isinstance(raw_phases, list) or not raw_phases:
        errors.append(f"{path}phases: must be a non-empty list of phase names")
    else:
        for j, name in enumerate(raw_phases):
            phase = _PHASES_BY_NAME.get(name) if isinstance(name, str) else None
            if phase is None:
                errors.append(f"{path}phases[{j}]: unknown phase {name!r}")
            elif phase in TERMINAL_PHASES:
                errors.append(f"{path}phases[{j}]: terminal phase {name!r} not allowed")
            else:
                phases.add(phase)

    rule = _build(ContactRule, data, path, errors, since, phases=frozenset(phases))
    problem = None if rule is None else rule_problem(rule, config.sensors)
    if problem is not None:
        errors.append(path + problem)
        return None
    return rule


def load_scenario(path: str | Path, config: RunConfig) -> Scenario:
    """Load and validate a scenario against a run configuration.

    Raises:
        ScenarioError: any schema violation, all collected, each with its
            field path.
    """
    data = _load_yaml_mapping(path, ScenarioError)
    errors: list[str] = []

    name = data.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"name: must be a non-empty string, got {name!r}")
    for key, allowed in (("goal", GOALS), ("expected_outcome", OUTCOMES)):
        if data.get(key) not in allowed:
            errors.append(f"{key}: must be one of {', '.join(allowed)}, got {data.get(key)!r}")

    pose = (0.0, 0.0)
    raw_pose = data.get("object_pose_mm")
    if raw_pose is not None:
        if not isinstance(raw_pose, dict) or set(raw_pose) != {"x", "y"}:
            errors.append(f"object_pose_mm: must be a mapping with keys x and y, got {raw_pose!r}")
        elif not (is_finite_number(raw_pose["x"]) and is_finite_number(raw_pose["y"])):
            errors.append(f"object_pose_mm: x and y must be finite numbers, got {raw_pose!r}")
        else:
            pose = (float(raw_pose["x"]), float(raw_pose["y"]))

    rules: list[ContactRule] = []
    raw_rules = data.get("rules", [])
    if not isinstance(raw_rules, list):
        errors.append(f"rules: must be a list, got {type(raw_rules).__name__}")
    else:
        for k, item in enumerate(raw_rules):
            rule = _parse_rule(item, f"rules[{k}].", config, errors)
            if rule is not None:
                rules.append(rule)

    scenario = _build(
        Scenario, data, "", errors, 0,
        name=name, goal=data.get("goal"), expected_outcome=data.get("expected_outcome"),
        object_pose_mm=pose, rules=tuple(rules),
    )
    if errors:
        raise ScenarioError("\n".join(errors))
    return scenario
