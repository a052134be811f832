"""How the workload turns operation times into reference-loop units."""

import workload
from workload import Outcome, run_paired


def test_each_operation_is_divided_by_the_mean_of_the_loops_around_it(monkeypatch):
    loop_times = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(workload, "reference_seconds", lambda: next(loop_times))
    samples = run_paired(lambda op: Outcome(4.0, 7), ["first", "second"])
    assert [x.ref_seconds for x in samples] == [2.0, 4.0]
    assert [x.refs for x in samples] == [2.0, 1.0]
    assert [x.items for x in samples] == [7, 7]


def test_reference_loop_is_fixed_work():
    assert workload.reference_loop() == workload.reference_loop()
    assert workload.reference_seconds() > 0
