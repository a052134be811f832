"""Field checks declared once, on the record that holds the field.

A record is a class declared with ``@record(error)``: a frozen dataclass
whose constructor, and so ``dataclasses.replace``, raises ``error`` with
every problem of its fields.  A field's type comes from its annotation: an
``int`` or ``float`` field holds a finite number, a ``bool`` or ``str``
field its type, a field annotated with a class an instance of it, and a
``tuple[X, ...]``, ``tuple[X, X]``, ``frozenset[X]`` or ``Mapping[K, V]``
field such a container of such values; ``X | None`` also admits None,
and ``Any`` anything.  An annotation the reader cannot read raises
TypeError; no field is exempt.
``bounded`` adds numeric limits.  A record's rules across fields are its
``cross_problems(values)``, run on the fields whose values are good.
``table(cls)`` reads all of this once per class; ``check_fields`` names the
bare field, and the config loader calls ``field_problems`` on the values it
read and prefixes the same messages with the field's path.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Any, NamedTuple

Limits = tuple[tuple[str, float], ...]

_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def bounded(
    default: Any = MISSING,
    *,
    gt: float | None = None,
    ge: float | None = None,
    lt: float | None = None,
    le: float | None = None,
) -> Any:
    """A dataclass field holding a finite number within the given limits."""
    limits = tuple(
        (symbol, bound)
        for symbol, bound in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
        if bound is not None
    )
    return field(default=default, metadata={"limits": limits})


def is_finite_number(value: Any) -> bool:
    """True for an int or float, not a bool, that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def number_problem(value: Any, integer: bool = False, limits: Limits = ()) -> str | None:
    """Why ``value`` is not an acceptable number, or None when it is."""
    if integer and (isinstance(value, bool) or not isinstance(value, int)):
        return f"must be an integer, got {value!r}"
    if not is_finite_number(value):
        return f"must be a finite number, got {value!r}"
    for symbol, bound in limits:
        if not _COMPARISONS[symbol](value, bound):
            return f"must be {symbol} {bound}, got {value}"
    return None


Reader = tuple[Callable[[Any], bool], str, str]

_PLAIN: dict[str, Reader] = {
    "int": (lambda value: isinstance(value, int) and not isinstance(value, bool), "an integer", "integers"),
    "float": (is_finite_number, "a finite number", "finite numbers"),
    "bool": (bool.__instancecheck__, "a boolean", "booleans"),
    "str": (str.__instancecheck__, "a string", "strings"),
    "Any": (lambda value: True, "a value", "values"),  # left to the record's cross_problems
}


def _reader(text: str, namespace: Mapping[str, Any]) -> Reader:
    """A test for the values of annotation ``text``, and how a message names one of them and several."""
    if text in _PLAIN:
        return _PLAIN[text]
    kind = namespace.get(text)
    if isinstance(kind, type):
        return kind.__instancecheck__, f"a {text}", text
    head, _, rest = text.partition("[")
    args = rest.removesuffix("]").split(", ")
    if head == "Mapping" and len(args) == 2:
        (key, _, keys), (item, _, items) = (_reader(arg, namespace) for arg in args)
        return (
            (lambda value: isinstance(value, Mapping) and all(map(key, value)) and all(map(item, value.values()))),
            f"a mapping of {keys} to {items}",
            f"mappings of {keys} to {items}",
        )
    if head == "frozenset" and len(args) == 1 or head == "tuple" and args[1:] == ["..."]:
        size = None
    elif head == "tuple" and len(set(args)) == 1:
        size = len(args)
    else:
        raise TypeError(f"cannot read the annotation {text!r}")
    item, _, items = _reader(args[0], namespace)
    container = tuple if head == "tuple" else frozenset
    noun = f"of {items}" if size is None else f"of {size} {items}"
    return (
        (lambda value: isinstance(value, container) and size in (None, len(value)) and all(map(item, value))),
        f"a {head} {noun}",
        f"{head}s {noun}",
    )


class Table(NamedTuple):
    """What the checks and the loader read of a record class.

    A check is a field's name, whether None is allowed, for a number whether
    an int, its limits, its reader's test and what a message says it must
    be; a nested record is a field's name, its record type and whether the
    field holds a tuple of them.
    """

    names: dict[str, Any]  # every field, in order, to its default (MISSING when it has none)
    required: tuple[str, ...]  # the fields without a default
    checks: tuple[tuple[Any, ...], ...]
    nested: tuple[tuple[str, type, bool], ...]


@functools.cache
def table(cls: type) -> Table:
    """The table of dataclass ``cls``, read once from its fields."""
    namespace = vars(sys.modules[cls.__module__])
    checks, nested = [], []
    every = fields(cls)
    for f in every:
        # f.type is source text: the declaring modules use ``from __future__ import annotations``
        text = f.type.removesuffix(" | None")
        optional = text != f.type
        many = text.startswith("tuple[") and text.endswith(", ...]")
        kind = namespace.get(text[6:-6] if many else text)
        if is_dataclass(kind):
            nested.append((f.name, kind, many))
        test, expected, _ = _reader(text, namespace)
        integer = {"int": True, "float": False}.get(text)
        expected += " or null" if optional else ""
        checks.append((f.name, optional, integer, f.metadata.get("limits", ()), test, expected))
    required = tuple(f.name for f in every if f.default is MISSING and f.default_factory is MISSING)
    return Table({f.name: f.default for f in every}, required, tuple(checks), tuple(nested))


def field_problems(cls: type, values: Mapping[str, Any]) -> list[str]:
    """``name: problem`` for each field of ``cls`` given a bad value in ``values``.

    Then come the problems the record's ``cross_problems`` finds among the
    good values; a rule that reads a missing or bad field is skipped.
    """
    problems: dict[str, str] = {}
    for name, optional, integer, limits, test, expected in table(cls).checks:
        value = values.get(name, MISSING)
        if value is MISSING or value is None and optional:
            continue
        if integer is not None:
            problem = number_problem(value, integer, limits)
            if problem is not None:
                problems[name] = problem
        elif not test(value):
            problems[name] = f"must be {expected}, got {value!r}"
    found = [f"{name}: {problem}" for name, problem in problems.items()]
    if hasattr(cls, "cross_problems"):
        good = {name: value for name, value in values.items() if name not in problems} if problems else values
        found += cls.cross_problems(good)
    return found


def check_fields(obj: Any, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` listing every problem ``field_problems`` finds in dataclass ``obj``."""
    # getattr, not vars(obj): building an instance's __dict__ slows every later
    # attribute read on it, and line specs are read on every sample.
    values = {name: getattr(obj, name) for name in table(type(obj)).names}
    problems = field_problems(type(obj), values)
    if problems:
        raise error("\n".join(problems))


def record(error: type[ValueError] = ValueError) -> Callable[[type], type]:
    """A class decorator: a frozen dataclass whose constructor, and so ``replace``, runs ``check_fields``."""

    def declare(cls: type) -> type:
        cls.__post_init__ = lambda self: check_fields(self, error)
        return dataclass(frozen=True)(cls)

    return declare
