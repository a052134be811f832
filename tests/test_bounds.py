"""Field bounds: the YAML loader accepts exactly what the dataclass constructors accept."""

import math
from dataclasses import fields

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerveline import ConfigError, ControllerConfig, NerveLineSpec, load_config

# window_n 1 and dwell_ticks 1000 keep the dwell-covers-window rule satisfied
# for every drawn integer, so only the field's own bounds decide.
CONTROLLER_BASE = {"window_n": 1, "dwell_ticks": 1000}

CASES = [("sensors[0].", NerveLineSpec, {}, f.name) for f in fields(NerveLineSpec)] + [
    ("controller.", ControllerConfig, CONTROLLER_BASE, f.name) for f in fields(ControllerConfig)
]

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
