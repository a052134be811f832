"""The repository's gates that are too slow for Tier-1: every benchmark catalogue operation against its
digest, the peak memory of the longest sweeps, the longest failing run, and the benchmark harness's
own tests, which install a wrapper on every function ``bench/tracing.py`` names.

    python3 tools/gates.py

It runs from any working directory and needs the standard library, and pytest for the harness tests.
Each gate prints its report, which is also appended to ``$GITHUB_STEP_SUMMARY`` when that is set.  The
exit status is 1, with each failure on stderr, when any gate fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SHIPPED = REPO / "configs" / "default.yaml"

Gate = tuple[list[str], list[str]]  # the report's lines, and one line per failure


def _cli(argv: list[str]) -> tuple[int, str, float, float]:
    """Exit status, stdout, wall seconds and peak RSS in MB of ``nerveline argv`` in a child of its own."""
    argv = [sys.executable, "-m", "nerveline.cli", *argv]
    start = time.perf_counter()
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)  # the child's ru_maxrss: its peak, or this process's RSS if larger
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, time.perf_counter() - start, usage.ru_maxrss / 1024  # kilobytes on Linux


def _shipped_with(replacements: list[tuple[str, str]]) -> str:
    """The shipped config's text with each of its lines ``old`` replaced by ``new``."""
    text = SHIPPED.read_text(encoding="utf-8")
    for old, new in replacements:
        if old not in text:
            sys.exit(f"{SHIPPED}: no line {old!r}")
        text = text.replace(old, new)
    return text


def catalogue() -> Gate:
    """Every catalogue operation once, in process, through bench/'s own generator and checker.

    A seeded benchmark run checks only the operations it draws; this checks all of them.
    """
    sys.path[:0] = [str(REPO / "bench"), str(REPO / "src")]
    import generate
    import workload

    expected = json.loads(workload.DIGESTS.read_text(encoding="ascii"))
    report, failures = [], []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # operations name their files relative to the work dir
        try:
            for name in generate.WORKLOADS:
                generate.write_inputs(name, Path(work), generate.LOG_SEEDS)
                runner = workload.Runner(expected[name])
                for op in generate.catalogue(name):
                    runner.execute(op)
                report.append(f"{name}: {runner.attempted} operations, {len(runner.failures)} differ")
                failures += runner.failures
        finally:
            os.chdir(home)
    return report, failures


def sweep_memory() -> Gate:
    """A sweep without --frames-out keeps one tally per position and one chunk of presses, so its peak
    memory does not grow with --repeats (ROADMAP.md, item 14)."""
    limit_mb = 30
    report = ["### Sweep peak memory", "", "| sweep | wall s | peak RSS MB |", "|---|---|---|"]
    failures = []
    with tempfile.TemporaryDirectory() as work:
        noisy = Path(work, "noisy.yaml")
        noisy.write_text(_shipped_with([("noise_sd_counts: 0.0\n", "noise_sd_counts: 3.0\n")]), encoding="utf-8")
        sweeps = [("noise-free, --repeats 1000000", SHIPPED, "1000000"), ("noisy, --repeats 100000", noisy, "100000")]
        for name, config, repeats in sweeps:
            out = str(Path(work, "sweep.csv"))
            code, _, wall, peak_mb = _cli(["sweep", "--config", str(config), "--repeats", repeats, "--out", out])
            report.append(f"| {name} | {wall:.2f} | {peak_mb:.1f} |")
            if code != 0 or peak_mb > limit_mb:
                failures.append(f"{name}: exit {code}, peak {peak_mb:.1f} MB against {limit_mb} MB")
    return report, failures


def longest_run() -> Gate:
    """dwell_ticks, max_retries and max_regrasp_steps have ceilings (ROADMAP.md, item 14).  At all three,
    a grasp that holds only on the last attempt and a base check that never passes make the longest
    failing run, 5 * 10 + 2 * 100 + 7 = 257 dwells of 1,000 ticks (a pass on the last step adds two more)."""
    limit_mb, ticks = 200, 257_000
    ceilings = [("max_retries", 2, 10), ("max_regrasp_steps", 16, 100), ("dwell_ticks", 10, 1000)]
    with tempfile.TemporaryDirectory() as work:
        config, scenario, trace = (Path(work, name) for name in ("ceilings.yaml", "longest.yaml", "trace.csv"))
        config.write_text(
            _shipped_with([(f"  {key}: {shipped}\n", f"  {key}: {ceiling}\n") for key, shipped, ceiling in ceilings]),
            encoding="utf-8",
        )
        scenario.write_text(
            "name: longest\ngoal: operate\nexpected_outcome: failed\nobject_pose_mm: {x: 120.0, y: 40.0}\n"
            "rules:\n  - sensor: 0\n    position_mm: 70.0\n    attempt: 11\n"
            "    phases: [VerifyGrasp, Lift, Handover, RotateWrist, RegraspStep, VerifyBase]\n",
            encoding="utf-8",
        )
        argv = ["run", "--config", str(config), "--scenario", str(scenario), "--out", str(trace)]
        code, out, wall, peak_mb = _cli(argv)
        trace_mb = trace.stat().st_size / 2**20 if code == 0 else 0.0
    report = [
        "### Longest failing run at the ceilings", "",
        "| run | wall s | peak RSS MB | trace MB |", "|---|---|---|---|",
        f"| {out.strip()} | {wall:.2f} | {peak_mb:.1f} | {trace_mb:.1f} |",
    ]
    failures = []
    if code != 0 or out != f"outcome=failed steps={ticks}\n" or peak_mb > limit_mb:
        failures.append(
            f"exit {code}, {out.strip()!r} against {ticks} ticks, peak {peak_mb:.1f} MB against {limit_mb} MB"
        )
    return report, failures


def bench_tests() -> Gate:
    """``bench/tests`` under ``-X dev -W error``, in a child of its own."""
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/tests"]
    child = subprocess.run(argv, cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = child.stdout.splitlines()
    report = ["### Benchmark harness tests", "", lines[-1] if lines else f"exit {child.returncode}, no output"]
    return report, [f"exit {child.returncode}\n{child.stdout}"] if child.returncode else []


# in the order they run: a child's ru_maxrss counts this process's RSS at the spawn, so the in-process
# catalogue, which grows it, runs after the children
GATES = {"sweep-memory": sweep_memory, "longest-run": longest_run, "bench-tests": bench_tests, "catalogue": catalogue}


def main() -> int:
    failed = []
    for name, gate in GATES.items():
        report, failures = gate()
        print("\n".join(report), flush=True)
        summary = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary:
            with open(summary, "a", encoding="utf-8") as handle:
                handle.write("\n".join(report) + "\n")
        failed += [f"{name}: {failure}" for failure in failures]
    if failed:
        print("\n".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
