"""YAML run-configuration, scenario and calibration-file loading with strict validation.

A subset of YAML 1.1 is read here, to what ``yaml.safe_load`` reads, and a text outside
it is refused with the number of its first line outside, so PyYAML is only the tests'
oracle.  Every violation is reported with the path of the offending
field, for example ``sensors[0].pullup_ohm``, and all violations in a file are
collected into a single error rather than stopping at the first.  Each record checks
itself: a field's type comes from its annotation, its bounds from ``bounds.bounded``
and its cross-field rules from the record's ``cross_problems`` (see ``bounds``).  This
module maps file shapes onto those records, prefixes their messages with the path, and
adds the rules only a file can break: unknown keys, a missing seed, the filter block,
duplicate sensors, phase names and a rule's reference to the configured lines.
"""

from __future__ import annotations

import re
from dataclasses import MISSING
from pathlib import Path
from typing import AbstractSet, Any, Iterator, NoReturn

from .bounds import field_problems, is_finite_number, number_problem, table
from .controller import (
    SENSOR_COUNT,
    ContactRule,
    RunConfig,
    Scenario,
    TaskPhase,
    rule_problem,
    sensor_index_problem,
)
from .errors import CalibrationError, ConfigError, ScenarioError
from .estimation import DEFAULT_CUTOFF_HZ, CalibrationData, _read_lines, smoothing_coefficient
from .line import NerveLineSpec


def default_sensors() -> dict[int, NerveLineSpec]:
    """One default line per sensor index."""
    return {i: NerveLineSpec() for i in range(SENSOR_COUNT)}


# The reader's subset of YAML 1.1: keys are plain words; a scalar is an int, a float with digits round a dot
# and maybe a signed exponent, .inf, -.inf, .nan, true, false, null, ~, a plain word or a single-quoted
# string.  A word opens with a letter, _, / or ./ or ../; one the safe loader reads as a bool or null is
# no plain word, and a key over 1,024 characters stops its scanner.
_NOT_WORD = r"(?!(?:[Yy]es|YES|[Nn]o|NO|[Oo]n|ON|[Oo]ff|OFF|[Tt]rue|TRUE|[Ff]alse|FALSE|[Nn]ull|NULL)(?![\w./-]))"
_SCALAR = re.compile(  # a group per kind: word (tried first), int, float, .inf or .nan, bool, null, quoted
    rf"(?=[A-Za-z_/.])({_NOT_WORD}(?:[A-Za-z_/]|\.\.?/)[A-Za-z0-9_./-]*)|(-?0|-?[1-9][0-9]*)"
    r"|(-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?)|(-?\.inf|\.nan)|(true|false)|(null|~)|('(?:[^']|'')*')"
)
_READ = (str, int, float, lambda text: float(text.replace(".", "")), "true".__eq__, lambda text: None,
         lambda text: text[1:-1].replace("''", "'"))  # what each of _SCALAR's groups reads as
_ENTRY = re.compile(rf"({_NOT_WORD}[A-Za-z_][A-Za-z0-9_./-]{{0,1023}}):(?: +(.*))?")  # a key and its value
_NUMBER = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"  # as float reads one; compiled by an error only
_TOKEN = re.compile(r"'(?:[^']|'')*'|[^ ,:'\[\]{}]+(?:: )?|\S")  # of a flow collection; a key keeps its ': '


def _unread(n: int, text: str) -> NoReturn:
    """Raise the error for ``text`` on line ``n``; a number YAML 1.1 reads as a string gets its spelling."""
    number = float(text) if re.fullmatch(_NUMBER, text) else None
    spelling = repr(number) if "." in repr(number) else repr(number).replace("e", ".0e")
    hint = f"; {spelling} is read as a number" if is_finite_number(number) else ""
    raise ValueError(f"line {n}: cannot read {text!r}{hint}")


def _flow(text: str, n: int, depth: int) -> Any:
    """``text``, a value on line ``n``: a scalar, or a flow list or mapping ``depth`` levels deep."""
    if text[0] not in "[{":
        return _READ[(_SCALAR.fullmatch(text) or _unread(n, text)).lastindex - 1](text)
    tokens = iter(_TOKEN.findall(text))
    try:
        value = _collection(next(tokens), tokens, n, depth, text)
    except StopIteration:  # a collection left open
        _unread(n, text)
    return value if next(tokens, None) is None else _unread(n, text)


def _collection(opener: str, tokens: Iterator[str], n: int, depth: int, text: str) -> Any:
    """The flow list or mapping that ``opener`` opens in ``text``, read from ``tokens`` to its close."""
    if depth > 64:
        raise ValueError(f"line {n}: nested deeper than 64 levels")
    close, keys, items = ("]" if opener == "[" else "}"), [], []
    token = next(tokens)
    while token != close:
        if close == "}":
            keys.append((_ENTRY.fullmatch(token) or _unread(n, text))[1])
            if keys.count(keys[-1]) > 1:
                raise ValueError(f"line {n}: duplicate key {keys[-1]!r} (first at line {n})")
            token = next(tokens)
        items.append(_collection(token, tokens, n, depth + 1, text) if token in ("[", "{")
                     else _flow(token, n, depth + 1))
        token = next(tokens)
        if token == ",":
            token = next(tokens)
        elif token != close:
            _unread(n, text)
    return items if close == "]" else dict(zip(keys, items))


def _node(lines: list[tuple[int, str, int]], at: int, depth: int) -> tuple[int, Any]:
    """The value that starts at ``lines[at]``, and the index of the line after it.

    A line is its indent, its content and its number, and the last is ``(-1, "", 0)``.  An
    item's line is rewritten in place as its content at the column that content starts in.
    """
    indent, content, n = lines[at]
    if content[0] in "[{'" or ":" not in content and content[:2] != "- ":
        return at + 1, _flow(content, n, depth)
    if depth > 64:  # real files nest 4 deep
        raise ValueError(f"line {n}: nested deeper than 64 levels")
    if content[:2] == "- ":
        items = []
        while lines[at][0] == indent and lines[at][1][:2] == "- ":
            rest = lines[at][1][2:].lstrip(" ")
            lines[at] = (indent + len(lines[at][1]) - len(rest), rest, lines[at][2])
            at, item = _node(lines, at, depth + 1)
            items.append(item)
        return at, items
    mapping, first = {}, at
    while lines[at][0] == indent:
        _, content, n = lines[at]
        key, value = (_ENTRY.fullmatch(content) or _unread(n, content)).groups()
        if key in mapping:
            m = next(line[2] for line in lines[first:at] if line[0] == indent and line[1].startswith(key + ":"))
            raise ValueError(f"line {n}: duplicate key {key!r} (first at line {m})")
        at += 1
        if value is not None:
            mapping[key] = _flow(value, n, depth + 1)
        elif lines[at][0] > indent or lines[at][0] == indent and lines[at][1][:2] == "- ":
            at, mapping[key] = _node(lines, at, depth + 1)
        else:
            mapping[key] = None
    return at, mapping


def _parse_yaml(lines: list[str]) -> Any:
    """What ``yaml.safe_load`` reads in ``lines``, a document in the subset; None for an empty one.

    Block mappings and lists hold flow lists and mappings on a line, nested at most 64 deep, in
    printable ASCII: no tab.  A comment runs from a ``#`` that opens a line, or follows a space
    outside quotes, to the line's end.  Raises ValueError ``line N: ...`` for the first line outside.
    """
    rows = []
    for n, line in enumerate(lines, start=1):
        content = line.lstrip(" ")
        if not line.isprintable():
            _unread(n, content)
        if content[:1] not in ("", "#"):
            cut = content.find(" #")
            while cut > 0 and content.count("'", 0, cut) % 2:  # that ' #' is inside quotes
                cut = content.find(" #", cut + 1)
            rows.append((len(line) - len(content), (content[:cut] if cut > 0 else content).rstrip(" "), n))
    rows.append((-1, "", 0))
    at, value = _node(rows, 0, 1) if len(rows) > 1 else (0, None)
    return value if at == len(rows) - 1 else _unread(rows[at][2], rows[at][1])


def _load_yaml_mapping(path: str | Path, exc: type[ValueError]) -> dict[str, Any]:
    try:
        raw = _parse_yaml(_read_lines(path))
    except ValueError as err:  # a line outside the subset, by its number; an OSError keeps its own message
        raise exc(f"{path}: {err}") from None
    if not isinstance(raw, (dict, type(None))):
        raise exc(f"{path}: top level must be a mapping, got {type(raw).__name__}")
    return raw or {}


def _unknown_keys(data: dict[str, Any], allowed: AbstractSet[str], path: str) -> list[str]:
    return [f"{path}{key}: unknown key" for key in data if key not in allowed]


def _is_mapping(data: Any, path: str, errors: list[str]) -> bool:
    if not isinstance(data, dict):
        errors.append(f"{path[:-1]}: must be a mapping, got {type(data).__name__}")
    return isinstance(data, dict)


def _build_part(cls: type, many: bool, data: Any, path: str, errors: list[str]) -> Any:
    """A ``cls`` record from block ``data``, or with ``many`` a tuple of them from a list; None on failure."""
    if not many:
        return _build(cls, data, path + ".", errors) if _is_mapping(data, path + ".", errors) else None
    if not isinstance(data, list):
        errors.append(f"{path}: must be a list, got {type(data).__name__}")
        return None
    parts = [_build_part(cls, False, item, f"{path}[{k}]", errors) for k, item in enumerate(data)]
    return None if None in parts else tuple(parts)


def _build(cls: type, data: dict[str, Any], path: str, errors: list[str], **parsed: Any) -> Any:
    """``cls`` from the keys of ``data`` and the values the caller ``parsed`` from them.

    A nested record, or a tuple of them, is built from its own block under
    ``path`` plus the field's name; a null block means the field's default.
    A parsed value of None is a part that failed, its problems reported.
    The record's own problems (unknown keys, missing fields, bad values)
    are reported under ``path`` (``"sensors[0]."``) ahead of its nested
    records'.  Returns None when any of these went wrong.  The constructor
    checks a clean record; its problems are worked out here, with their
    paths, only once something is wrong, on the defaults of the fields
    ``data`` leaves out, as in the constructor, but not of a failed part.
    """
    since = len(errors)
    names, required, _, nested = table(cls)
    values = {key: value for key, value in data.items() if key in names}
    own = _unknown_keys(data, names.keys(), path)
    values.update(parsed)
    failed = [name for name, value in parsed.items() if value is None]
    for name, record, many in nested:
        if name in parsed or name not in values:
            continue
        block = values.pop(name)
        if block is not None:
            part = values[name] = _build_part(record, many, block, path + name, errors)
            if part is None:
                failed.append(name)
    for name in failed:
        del values[name]
    own += [f"{path}{name}: required" for name in required if name not in values and name not in failed]
    if not own and not failed:
        try:
            return cls(**values)
        except ValueError as exc:
            own = [path + problem for problem in str(exc).split("\n")]
    else:
        defaults = {name: default for name, default in names.items() if default is not MISSING and name not in failed}
        own += [path + problem for problem in field_problems(cls, defaults | values)]
    errors[since:since] = own
    return None


_HEAD = re.compile(r"[^.\[:]*")


def _listed(errors: list[str], order: tuple[str, ...]) -> str:
    """``errors``, one a line, in the order of the top-level keys they sit under in ``order``.

    A key not in ``order`` is an unknown one, and sits where ``order`` has ``""``.
    """
    rank = {key: k for k, key in enumerate(order)}
    return "\n".join(sorted(errors, key=lambda error: rank.get(_HEAD.match(error)[0], rank[""])))


def _parse_sensors(data: Any, errors: list[str], cls: type = NerveLineSpec) -> dict[int, Any] | None:
    """A ``sensors:`` list as a map of each block's ``index`` to the ``cls`` record its other keys build, or None
    when a block fails: ``RunConfig.sensors`` from a config, or a calibration table.

    A block with the same fields as an earlier one that built reuses its record.
    """
    if not isinstance(data, list):
        errors.append(f"sensors: must be a list, got {type(data).__name__}")
        return None
    since = len(errors)
    sensors: dict[int, Any] = {}
    built: dict[frozenset, Any] = {}  # only blocks that built cleanly
    for k, item in enumerate(data):
        path = f"sensors[{k}]."
        if not _is_mapping(item, path, errors):
            continue
        index = item.get("index")
        problem = sensor_index_problem(index)
        if problem is not None:
            errors.append(f"{path}index: {problem}")
        fields_only = {key: value for key, value in item.items() if key != "index"}
        try:  # typed, so that 1, 1.0 and true stay different blocks
            block = frozenset((key, type(value), value) for key, value in fields_only.items())
        except TypeError:  # an unhashable value: built on its own
            block = None
        spec = built.get(block)
        if spec is None:
            spec = _build(cls, fields_only, path, errors)
            if spec is not None and block is not None:
                built[block] = spec
        if spec is None or problem is not None:
            continue
        if index in sensors:
            errors.append(f"{path}index: duplicate sensor {index}")
        sensors[index] = spec
    return sensors if len(errors) == since else None


def _parse_filter(data: Any, dt_ms: int, errors: list[str]) -> float | None:
    """The smoothing coefficient, given directly or through a cutoff frequency."""
    if data is None:
        data = {}
    if not _is_mapping(data, "filter.", errors):
        return None
    errors.extend(_unknown_keys(data, {"cutoff_hz", "coefficient_a"}, "filter."))
    if "cutoff_hz" in data and "coefficient_a" in data:
        errors.append("filter: give either cutoff_hz or coefficient_a, not both")
        return None
    key = "coefficient_a" if "coefficient_a" in data else "cutoff_hz"
    value = data.get(key, DEFAULT_CUTOFF_HZ)
    problem = number_problem(value)
    if problem is not None:
        errors.append(f"filter.{key}: {problem}")
        return None
    if key == "coefficient_a":
        return value  # RunConfig checks its range
    try:
        return smoothing_coefficient(value, dt_ms)
    except ValueError as exc:
        errors.append(f"filter.{exc}")
        return None


# the file spells filter_coefficient_a as a filter block
_TOP_KEYS = table(RunConfig).names.keys() - {"filter_coefficient_a"} | {"filter"}
_OWN_KEYS = _TOP_KEYS - {"sensors", "filter"}
_SEED_REQUIRED = "seed: required; runs must not fall back to wall-clock entropy"
_CONFIG_ORDER = (
    "", "seed", "noise_sd_counts", "dt_ms", "quantize_to_spikes",
    "filter", "sensors", "controller", "calibration_file", "hand",
)


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a run configuration.

    Raises:
        ConfigError: any schema violation; the message lists every
            violation with its field path.
    """
    data = _load_yaml_mapping(path, ConfigError)
    errors = _unknown_keys(data, _TOP_KEYS, "")
    dt_ms = data.get("dt_ms", RunConfig.dt_ms)
    if field_problems(RunConfig, {"dt_ms": dt_ms}):
        dt_ms = RunConfig.dt_ms  # RunConfig reports it; the filter keeps the default tick
    coefficient = _parse_filter(data.get("filter"), dt_ms, errors)
    sensors = _parse_sensors(data["sensors"], errors) if "sensors" in data else default_sensors()
    own = {key: value for key, value in data.items() if key in _OWN_KEYS}
    config = _build(RunConfig, own, "", errors, sensors=sensors, filter_coefficient_a=coefficient)
    if errors:  # in a file's terms
        errors = [error.replace("filter_coefficient_a:", "filter.coefficient_a:") for error in errors]
        errors = [_SEED_REQUIRED if error == "seed: required" else error for error in errors]
        raise ConfigError(_listed(errors, _CONFIG_ORDER))
    return config


def read_calibration(path: str | Path) -> dict[int, CalibrationData]:
    """Read the calibration triplets `estimation.write_calibration` writes, by sensor index.

    The file is a ``sensors:`` list of blocks shaped like a config's, each an
    ``index`` and the integers ``v_max``, ``v_mid`` and ``v_min``; a file
    without the list calibrates no sensor.

    Raises:
        CalibrationError: the file's path, then every problem, each with its
            line number or its field path (``sensors[1].v_min``).
    """
    data = _load_yaml_mapping(path, CalibrationError)
    errors = _unknown_keys(data, {"sensors"}, "")
    table = _parse_sensors(data.get("sensors", []), errors, CalibrationData)
    if errors:
        raise CalibrationError(f"{path}: " + "\n".join(errors))
    return table


_PHASES_BY_NAME = {phase.value: phase for phase in TaskPhase}


def _parse_rule(data: Any, path: str, config: RunConfig, errors: list[str]) -> ContactRule | None:
    if not _is_mapping(data, path, errors):
        return None
    since = len(errors)
    parsed = {}
    if "phases" in data:
        raw_phases = data["phases"]
        if not isinstance(raw_phases, list):
            errors.append(f"{path}phases: must be a list of phase names, got {type(raw_phases).__name__}")
        else:
            for j, name in enumerate(raw_phases):
                if not isinstance(name, str) or name not in _PHASES_BY_NAME:
                    errors.append(f"{path}phases[{j}]: unknown phase {name!r}")
        parsed["phases"] = None if len(errors) > since else frozenset(map(_PHASES_BY_NAME.get, raw_phases))

    rule = _build(ContactRule, data, path, errors, **parsed)
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
    parsed: dict[str, Any] = {}

    raw_pose = data.get("object_pose_mm")
    if raw_pose is not None:
        if isinstance(raw_pose, dict) and set(raw_pose) == {"x", "y"}:
            parsed["object_pose_mm"] = (raw_pose["x"], raw_pose["y"])
        else:
            errors.append(f"object_pose_mm: must be a mapping with keys x and y, got {raw_pose!r}")
            parsed["object_pose_mm"] = None

    raw_rules = data.get("rules", [])
    if not isinstance(raw_rules, list):
        errors.append(f"rules: must be a list, got {type(raw_rules).__name__}")
        parsed["rules"] = None
    else:
        rules = [_parse_rule(item, f"rules[{k}].", config, errors) for k, item in enumerate(raw_rules)]
        parsed["rules"] = None if None in rules else tuple(rules)

    scenario = _build(Scenario, data, "", errors, **parsed)
    if errors:
        raise ScenarioError(_listed(errors, (*table(Scenario).names, "")))
    return scenario
