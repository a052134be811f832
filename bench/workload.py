"""One workload in this process: warm up, time, trace, check every output.

Each operation is one in-process ``nerveline.cli.main(argv)`` call that
writes real files into the current directory, the work directory that
``run.py`` creates; the next starts only after the previous one returns and
has been checked (a closed loop with one caller).  A fixed reference loop
is timed between every two operations, and the bounded metrics divide each
operation's time by the loop's, so that changes in the shared host's speed
cancel out.  ``record`` runs every catalogue operation twice to rebuild
``digests.json``.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import generate
import tracing
from generate import Op, Workload

BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"

WARMUP_CYCLES = {"sweep-dense": 4, "scenario-mix": 1, "replay-long": 4}
TRACED_CYCLES = {"sweep-dense": 10, "scenario-mix": 3, "replay-long": 10}
MAX_REPORTED_FAILURES = 5
# About 1.2 ms on an idle 2-vCPU virtual machine; one such loop is the "ref" unit.
REFERENCE_ITERATIONS = 6000


@dataclass
class Outcome:
    seconds: float
    items: int  # 0 when the operation failed its checks


@dataclass
class Sample:
    """One timed operation and the reference loop's time around it."""

    seconds: float
    ref_seconds: float  # mean of the reference loop just before and just after
    items: int

    @property
    def refs(self) -> float:
        return self.seconds / self.ref_seconds


def reference_loop() -> float:
    """Fixed pure-Python work of the kinds the CLI does: float arithmetic, dict updates, formatting."""
    totals: dict[int, float] = {}
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        x = i * 0.37
        acc += (x * x) / (1.0 + x)
        totals[i & 255] = totals.get(i & 255, 0.0) + acc
        if i % 50 == 0:
            acc += len(f"{acc:.6f},{i}".split(","))
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run the CLI in-process; return the exit code, stdout and wall seconds of the call alone."""
    import nerveline.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = nerveline.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def fingerprint(op: Op, code: int, stdout: str) -> dict:
    return {
        "exit": code,
        "stdout": sha256(stdout.encode()),
        "files": {name: sha256(Path(name).read_bytes()) for name in op.outputs},
    }


def count_items(op: Op, stdout: str) -> int:
    """Work items in one operation: presses, sensor samples or frames."""
    if op.command == "sweep":
        rows, repeats = map(int, re.search(r"rows=(\d+) repeats=(\d+)", stdout).groups())
        return rows * repeats * 2  # spiked and smooth skin
    if op.command == "run":
        with open("trace.csv", encoding="ascii") as handle:
            return sum(1 for _ in handle) - 1
    return int(re.search(r"frames=(\d+)", stdout).group(1))


def replay_problem(op: Op) -> str | None:
    """Replaying a run trace's (t_ms, sensor, raw) must reproduce its filtered and p columns."""
    with open("trace.csv", newline="", encoding="ascii") as handle:
        trace = list(csv.reader(handle))[1:]
    with open("trace_frames.csv", "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("t_ms", "sensor", "counts"))
        writer.writerows((row[0], row[2], row[3]) for row in trace)
    config = op.argv[op.argv.index("--config") + 1]
    code, _, _ = call_cli(
        ["replay", "--config", config, "--log", "trace_frames.csv", "--out", "trace_replay.csv"]
    )
    if code != 0:
        return f"replay of trace exited {code}"
    with open("trace_replay.csv", newline="", encoding="ascii") as handle:
        replayed = list(csv.reader(handle))[1:]
    expected = [(r[0], r[2], r[3], r[4], r[5]) for r in trace]
    if [tuple(r[:5]) for r in replayed] != expected:
        return "replay of trace does not reproduce its filtered/p columns"
    return None


class Runner:
    """Runs operations against the recorded digests and counts what failed."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, op: Op, after_call=None) -> Outcome:
        """Run one operation and check its exit code, stdout and output files.

        ``after_call(stdout)`` runs right after the CLI returns, before any check.
        """
        self.attempted += 1
        gc.collect()  # start from a collected heap, as a fresh CLI process would
        code, stdout, seconds = call_cli(list(op.argv))
        if after_call is not None:
            after_call(stdout)
        problems = []
        recorded = self.expected.get(op.key)
        if recorded is None:
            problems.append("no recorded digest")
        elif fingerprint(op, code, stdout) != recorded:
            problems.append(f"exit/stdout/output digest differs (exit {code})")
        elif op.command == "run" and (problem := replay_problem(op)):
            problems.append(problem)
        self.failures += [f"{op.key}: {p}" for p in problems]
        return Outcome(seconds, 0 if problems else count_items(op, stdout))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def per_layer(totals: tracing.LayerTotals, ticks: int, presses: int, overhead_ratio: float) -> dict:
    calls = totals.calls.get
    metrics = {
        "line.sense.calls": calls("line.sense", 0),
        "line.sense.self_us": totals.self_us("line.sense"),
        "line.resolve_contacts.calls": calls("line.resolve_contacts", 0),
        "line.resolve_contacts.self_us": totals.self_us("line.resolve_contacts"),
        "line.snap_to_spike.self_us": totals.self_us("line.snap_to_spike"),
        "line.solve_line_resistance.calls": calls("line.solve_line_resistance", 0),
        "line.solve_line_resistance.self_us": totals.self_us("line.solve_line_resistance"),
        "line.adc_quantize.self_us": totals.self_us("line.adc_quantize"),
        "line.simulate_sweep.self_us_per_press": (
            totals.self_ns.get("line.simulate_sweep", 0) / presses / 1e3 if presses else 0.0
        ),
        "line.repeat_input_share": (
            totals.sense_repeats / totals.sense_calls if totals.sense_calls else 0.0
        ),
        "estimation.filter_step.calls": calls("estimation.filter_step", 0),
        "estimation.filter_step.self_us": totals.self_us("estimation.filter_step"),
        "estimation.estimate_p.calls": calls("estimation.estimate_p", 0),
        "estimation.estimate_p.self_us": totals.self_us("estimation.estimate_p"),
        "estimation.position_reached.self_us": totals.self_us("estimation.position_reached"),
        "controller.run_scenario.self_us_per_tick": (
            totals.self_ns.get("controller.run_scenario", 0) / ticks / 1e3 if ticks else 0.0
        ),
        "controller.step.calls": calls("controller.step", 0),
        "controller.step.self_us": totals.self_us("controller.step"),
        "controller.ticks": ticks,
        "config.load_config.us": totals.mean_us("config.load_config"),
        "config.load_scenario.us": totals.mean_us("config.load_scenario"),
        "estimation.auto_calibration.us": totals.mean_us("estimation.auto_calibration"),
        "hand.posture_command.us": totals.mean_us("hand.posture_command"),
        "cli.self_ms_per_op": totals.self_ns.get("cli.main", 0) / totals.ops / 1e6,
        "trace.ops": totals.ops,
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_share"] = totals.layer_share(layer)
    return metrics


def run_paired(execute, ops: list[Op]) -> list[Sample]:
    """Run ``execute(op)`` for each op in order, timing the reference loop before the first and after each."""
    samples = []
    before = reference_seconds()
    for op in ops:
        outcome = execute(op)
        after = reference_seconds()
        samples.append(Sample(outcome.seconds, (before + after) / 2, outcome.items))
        before = after
    return samples


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload; return its counts, context and metric values by name.

    The values are the end-to-end metrics measured here (all but
    ``setup_s``), or with ``trace`` the per-layer metrics.
    """
    workload = Workload(name, seed)
    generate.write_inputs(name, work, (workload.log_seed,))
    runner = Runner(json.loads(DIGESTS.read_text(encoding="ascii"))[name])

    rng = random.Random(f"{name}:{seed}:timed")
    warmup = [op for _ in range(WARMUP_CYCLES[name]) for op in workload.cycle(rng)]
    for op in warmup:
        runner.execute(op)

    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        samples += run_paired(runner.execute, workload.cycle(rng))  # whole cycles, so the mix is fixed

    refs = [x.refs for x in samples]
    values = {
        "op_p50_ref": statistics.median(refs),
        "op_p90_ref": percentile(refs, 90),
        "items_per_ref": sum(x.items for x in samples) / sum(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    op_seconds = [x.seconds for x in samples]
    context = {
        "warmup_ops": len(warmup),
        "samples": len(samples),
        "ref_ms": statistics.median(x.ref_seconds for x in samples) * 1e3,
        "op_p50_ms": statistics.median(op_seconds) * 1e3,
        "op_p90_ms": percentile(op_seconds, 90) * 1e3,
        "items_per_s": sum(x.items for x in samples) / sum(op_seconds),
    }
    if trace:
        values, overhead = traced(workload, runner, values["op_p50_ref"])
        context["trace_span_cost_ns"] = {"inside": overhead.inside, "outside": overhead.outside}
    context["failures"] = runner.failures[:MAX_REPORTED_FAILURES]
    return {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "context": context,
        "values": values,
    }


def traced(workload: Workload, runner: Runner, untraced_p50_ref: float) -> tuple[dict, tracing.Overhead]:
    """Run a fixed, seed-determined list of cycles with spans on.

    Returns the per-layer metrics and the tracer's calibrated cost per span.
    """
    rng = random.Random(f"{workload.name}:{workload.seed}:traced")
    ops = [op for _ in range(TRACED_CYCLES[workload.name]) for op in workload.cycle(rng)]
    tracer = tracing.Tracer()
    totals = tracing.LayerTotals()
    ticks = 0

    def collect(stdout: str) -> None:
        nonlocal ticks
        totals.add_operation(tracer.spans, tracer.sense, tracer.overhead)
        if match := re.search(r"steps=(\d+)", stdout):
            ticks += int(match.group(1))

    def execute(op: Op) -> Outcome:
        tracer.reset()
        return runner.execute(op, collect)

    tracer.install()
    try:
        samples = run_paired(execute, ops)
    finally:
        tracer.uninstall()
    presses = sum(x.items for x, op in zip(samples, ops) if op.command == "sweep")
    ratio = statistics.median(x.refs for x in samples) / untraced_p50_ref
    return per_layer(totals, ticks, presses, ratio), tracer.overhead


def record(work: Path) -> dict:
    """Run every catalogue operation twice; return its digests, refusing any failure."""
    table = {}
    for name in generate.WORKLOADS:
        generate.write_inputs(name, work, generate.LOG_SEEDS)
        table[name] = {}
        for op in generate.catalogue(name):
            code, stdout, _ = call_cli(list(op.argv))
            first = fingerprint(op, code, stdout)
            if code != 0:
                raise SystemExit(f"{op.key}: exit {code}")
            if op.command == "run" and (problem := replay_problem(op)):
                raise SystemExit(f"{op.key}: {problem}")
            if op.command == "replay":
                missing = missing_regimes("replay.csv")
                if missing:
                    raise SystemExit(f"{op.key}: regimes never reached: {missing}")
            code, stdout, _ = call_cli(list(op.argv))
            if fingerprint(op, code, stdout) != first:
                raise SystemExit(f"{op.key}: output differs between two calls")
            table[name][op.key] = first
    return table


def missing_regimes(replay_csv: str) -> list[str]:
    """(sensor, regime) pairs that never appear in a replay output."""
    with open(replay_csv, newline="", encoding="ascii") as handle:
        seen = {(row[1], row[5]) for row in list(csv.reader(handle))[1:]}
    return [
        f"{sensor}:{regime}"
        for sensor in map(str, generate.LOG_SENSORS)
        for regime in generate.REGIME_BANDS
        if (sensor, regime) not in seen
    ]
