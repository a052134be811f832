"""Numeric bounds declared once, on the dataclass field they constrain.

``bounded`` stores a field's limits in its metadata.  ``check_fields``
enforces them from a dataclass's ``__post_init__``, naming the bare field;
the config loader calls ``field_problems`` on raw YAML values and prefixes
the same messages with the field's path.  A bounded value is a finite
number, an ``int`` where the field is annotated ``int``, or ``None`` where
``None`` is the field's default.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import MISSING, field, fields
from typing import Any, Mapping

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


def field_problems(cls: type, values: Mapping[str, Any]) -> list[str]:
    """``name: problem`` for each bounded field of ``cls`` given a bad value in ``values``."""
    problems = []
    for name, integer, optional, limits in _bounded_fields(cls):
        if name not in values:
            continue
        value = values[name]
        if value is None and optional:
            continue
        problem = number_problem(value, integer, limits)
        if problem is not None:
            problems.append(f"{name}: {problem}")
    return problems


@functools.cache
def _bounded_fields(cls: type) -> tuple[tuple[str, bool, bool, Limits], ...]:
    """Name, int annotation, None default and limits of each bounded field of ``cls``."""
    # f.type is source text: the declaring modules use ``from __future__ import annotations``.
    return tuple(
        (f.name, f.type.startswith("int"), f.default is None, f.metadata["limits"])
        for f in fields(cls)
        if "limits" in f.metadata
    )


def check_fields(obj: Any, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` listing every bounded field of dataclass ``obj`` that is out of bounds."""
    # getattr, not vars(obj): building an instance's __dict__ slows every later
    # attribute read on it, and line specs are read on every sample.
    values = {name: getattr(obj, name) for name, *_ in _bounded_fields(type(obj))}
    problems = field_problems(type(obj), values)
    if problems:
        raise error("\n".join(problems))
