"""nerveline benchmark: one workload, checked, timed end to end or traced per layer.

    python3 bench/run.py --workload sweep-dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --record    # rebuild digests.json

Run from the repository root.  Each invocation is a fresh interpreter that
runs one workload in-process (``workload.py``) after timing set-up in fresh
child interpreters (``--trace 0`` only), so ``peak_rss_mb`` is this
process's own peak.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  The line before it records the run's context.

``--record`` runs every catalogue operation twice and rewrites
``digests.json``; do that only when an output change is intended and
explained.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workload
from generate import REPO

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

SETUP_PROBES = 12  # half before the workload and half after it
BARE_PROBES = 5

# What every CLI call pays before it does any work: interpreter start,
# import, shipped config, calibration table for every configured sensor.
SETUP_PROBE = """\
import sys
import nerveline.cli
from nerveline.config import load_config
from nerveline.estimation import auto_calibration
config = load_config(sys.argv[1])
table = {i: auto_calibration(spec) for i, spec in config.sensors.items()}
assert len(table) == len(config.sensors)
"""


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def wall_times(argv: list[str], probes: int) -> list[float]:
    """Wall times of ``probes`` fresh processes, after one untimed warm-up."""
    times = []
    for i in range(probes + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=program_env(), cwd=REPO, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return times


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((REPO / "src" / "nerveline").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (REPO / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = parser.parse_args()
    if not args.record and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    missing = [p for p in ("src/nerveline/cli.py", "configs/default.yaml") if not (REPO / p).is_file()]
    if missing:
        print(f"error: not a nerveline checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    context = {}
    metrics = {}
    if not args.record:
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "src_sha256": source_sha256(),
        }
    setup_argv = [sys.executable, "-c", SETUP_PROBE, str(REPO / "configs" / "default.yaml")]
    if args.trace == 0:
        setup_times = wall_times(setup_argv, SETUP_PROBES // 2)
        context["setup_probes"] = SETUP_PROBES
        context["bare_interpreter_s"] = statistics.median(wall_times([sys.executable, "-c", "pass"], BARE_PROBES))

    sys.path.insert(0, str(REPO / "src"))
    work = workload.BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    os.chdir(work)  # operations name their files relative to the work dir
    try:
        if args.record:
            table = workload.record(work)
        else:
            result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        os.chdir(REPO)
        shutil.rmtree(work)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    if args.record:
        workload.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="ascii")
        print(f"recorded {sum(map(len, table.values()))} operations into {workload.DIGESTS.name}")
        return 0
    if args.trace == 0:
        setup_times += wall_times(setup_argv, SETUP_PROBES // 2)
        metrics["setup_s"] = metric(statistics.median(setup_times), "s")
    context.update(result["context"])
    context["failed_ratio"] = result["failed"] / result["attempted"]
    section = SPEC["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section if m["name"] != "setup_s"}
    metrics.update((name, metric(result["values"][name], unit)) for name, unit in units.items())
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
