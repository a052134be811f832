"""Self-time arithmetic and wrapper lifetime of the benchmark's tracer."""

import importlib
import random
from pathlib import Path

import pytest

import tracing
from tracing import LayerTotals, Overhead, SenseInputs, Span, Tracer, self_times

SHIPPED_CONFIG = str(Path(tracing.__file__).resolve().parent.parent / "configs" / "default.yaml")


def test_self_time_subtracts_children_from_a_hand_built_tree():
    spans = [
        Span("cli.main", 0, 100, -1),
        Span("config.load_config", 10, 30, 0),
        Span("controller.run_scenario", 40, 90, 0),
        Span("line.sense", 50, 60, 2),
        Span("estimation.filter_step", 70, 75, 2),
        Span("line.resolve_contacts", 52, 55, 3),
    ]
    assert self_times(spans) == [30, 20, 35, 7, 5, 3]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        Span("a", 0, 100, -1),
        Span("b", 10, 40, 0),
        Span("c", 30, 50, 0),  # overlaps b by 10
        Span("d", 90, 120, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - 30 - 10 - 10


def test_self_time_takes_out_the_tracer_cost():
    spans = [
        Span("cli.main", 0, 100, -1),
        Span("line.sense", 10, 40, 0, tracer_ns=6),
        Span("line.resolve_contacts", 20, 25, 1),
        Span("line.solve_line_resistance", 30, 35, 1),
    ]
    # inside 1 per span; outside 2 per child, charged to the parent
    assert self_times(spans, Overhead(inside=1, outside=2)) == [
        100 - 30 - 1 - 2,
        30 - 10 - 1 - 6 - 2 * 2,
        5 - 1,
        5 - 1,
    ]
    totals = LayerTotals()
    totals.add_operation(spans, SenseInputs(), Overhead(inside=1, outside=2))
    assert totals.op_ns == 100 - 4 * 1 - 3 * 2 - 6
    assert totals.mean_us("line.sense") == pytest.approx((9 + 4 + 4) / 1e3)


def test_calibrated_overhead_is_non_negative_and_leaves_no_spans():
    tracer = Tracer()
    overhead = tracer.calibrate()
    assert overhead.inside >= 0 and overhead.outside >= 0
    assert 0 < overhead.inside + overhead.outside < 100_000  # ns; a wrapper is not a 0.1 ms call
    assert tracer.spans == []


def test_layer_totals_aggregate_per_name_and_per_layer():
    spans = [
        Span("cli.main", 0, 100, -1),
        Span("line.sense", 10, 30, 0),
        Span("line.sense", 40, 50, 0),
        Span("line.resolve_contacts", 12, 16, 1),
    ]
    totals = LayerTotals()
    totals.add_operation(spans, SenseInputs(calls=2, repeats=1))
    assert totals.calls["line.sense"] == 2
    assert totals.self_us("line.sense") == pytest.approx((16 + 10) / 2 / 1e3)
    assert totals.mean_us("line.sense") == pytest.approx(15 / 1e3)
    assert totals.layer_share("line") == pytest.approx(30 / 100)
    assert totals.layer_share("cli") == pytest.approx(70 / 100)
    assert totals.self_us("controller.step") == 0.0
    assert (totals.sense_calls, totals.sense_repeats) == (2, 1)


def bindings() -> list[tuple[str, str, object]]:
    """(module, name, object) for every binding of a traced function in nerveline."""
    names = {name for group in tracing.SPANS.values() for name in group}
    result = []
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"nerveline.{layer}")
        result += [(layer, n, module.__dict__[n]) for n in sorted(names) if n in module.__dict__]
    return result


def test_wrappers_are_removed_after_a_traced_run(tmp_path, monkeypatch):
    import nerveline.cli
    import nerveline.controller
    import nerveline.line

    monkeypatch.chdir(tmp_path)
    argv = ["calibrate", "--config", SHIPPED_CONFIG, "--out", "cal.txt"]
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert nerveline.controller.sense is nerveline.line.sense  # one wrapper, every binding
        assert hasattr(nerveline.line.sense, "__wrapped__")
        assert nerveline.cli.main(argv) == 0
        assert tracer.spans[0].name == "cli.main"
        assert {s.name for s in tracer.spans} >= {"config.load_config", "line.sense"}
    finally:
        tracer.uninstall()
    after = bindings()
    assert [(m, n, id(f)) for m, n, f in after] == [(m, n, id(f)) for m, n, f in before]
    assert not any(hasattr(f, "__wrapped__") for _, _, f in after)
    tracer.reset()
    assert nerveline.cli.main(argv) == 0
    assert tracer.spans == []


def test_repeat_share_counts_only_noise_free_repeats():
    import nerveline.line
    from nerveline.line import ContactPoint, ContactSet, NerveLineSpec

    spec = NerveLineSpec()
    press = ContactSet(contacts=(ContactPoint(42.0),))
    tracer = Tracer()
    tracer.install()
    try:
        nerveline.line.sense(spec, press)
        nerveline.line.sense(spec, press, t_ms=10)  # same input, later timestamp: a repeat
        nerveline.line.sense(spec, ContactSet())
        nerveline.line.sense(spec, press, noise_sd_counts=2.0, rng=random.Random(1))
    finally:
        tracer.uninstall()
    assert (tracer.sense.calls, tracer.sense.repeats) == (3, 1)
