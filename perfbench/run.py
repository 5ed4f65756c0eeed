"""gemservo benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload reproduce|identify|tune \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gemservo is imported from ``src/``.
With ``--trace 0`` the last line of stdout carries the end-to-end metrics
(``setup_s``, ``wall_s``, ``cold_s``, ``peak_rss_mb``); with ``--trace 1``
the per-layer metrics of a traced run. The line before it records the
workload, seed, pass times, failed checks and the Python, numpy and scipy
versions and processor count. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Run on one processor, children included, and pin before numpy loads so
# that OpenBLAS starts no second thread. Spread over the two processors of
# a shared virtual machine, the program's thread pools pass the GIL back
# and forth between them, and a pass then takes 10-40 % longer by an amount
# that drifts with the host's load (see README, *Measuring on one
# processor*).
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import checks  # noqa: E402  (numpy and scipy load here)
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

# One measuring cycle. Cold passes, set-up probes and warm passes alternate
# so that every metric samples the whole run window alike: on a shared
# machine the speed drifts by tens of percent within a minute, and a burst
# then shifts no metric more than another.
CYCLE = ("setup", "cold", "warm", "setup", "warm")
TRACED_CYCLE = ("setup", "warm", "traced")
MIN_CYCLES = 3        # measured even when --seconds runs out first
CHILD_TIMEOUT_S = 120


def _child(*args: str) -> tuple[float, dict]:
    """Run child.py in a fresh interpreter; (wall seconds, its JSON output)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


def _timed(run_one) -> tuple[float, float, list[dict]]:
    t0 = time.perf_counter()
    ops = run_one()
    return t0, time.perf_counter(), ops


def _fastest(passes) -> float:
    """Wall time of the fastest pass.

    A neighbour's load on a shared machine only ever slows a pass, and it
    comes and goes over minutes; the fastest pass of a run is the figure
    that load moves least (see README, *End-to-end metrics*).
    """
    return min(t1 - t0 for t0, t1, _ in passes)


def _unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("us_per_sample"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("evals_per_iteration"):
        return "ratio"
    return "count"


def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path):
    """Run the workload; (metrics, ops attempted, info for the log line).

    The run, input generation and warm-up included, ends within ``seconds``
    unless its first ``MIN_CYCLES`` measuring cycles alone take longer.
    """
    deadline = time.perf_counter() + seconds
    if workload == "identify":
        inputs.write_logs(work, seed)
    sys.path.insert(0, str(SRC))
    from gemservo.config import load_project

    project = load_project()

    def run_one():
        return workloads.run_pass(workload, work, project)

    _child("setup")  # fills the bytecode cache, as any installed copy has it
    ops = run_one()  # warm-up: caches fill, lazy imports finish

    tracer = tracing.Tracer()

    def traced_pass():
        tracer.install()
        try:
            return _timed(run_one)
        finally:
            tracer.uninstall()

    steps = {
        "setup": lambda: _child("setup")[1],
        "cold": lambda: _child("pass", workload, str(work)),
        "warm": lambda: _timed(run_one),
        "traced": traced_pass,
    }
    cycle = TRACED_CYCLE if traced else CYCLE
    got = {kind: [] for kind in steps}
    took = {}  # last duration of each kind of step
    for k in itertools.count():
        kind = cycle[k % len(cycle)]
        # stop before a step that would run past the deadline
        if k >= MIN_CYCLES * len(cycle) and time.perf_counter() + took[kind] > deadline:
            break
        t0 = time.perf_counter()
        got[kind].append(steps[kind]())
        took[kind] = time.perf_counter() - t0

    setups, colds, warm = got["setup"], got["cold"], got["warm"]
    ops += [op for p in warm + got["traced"] for op in p[2]]
    ops += [op for _, doc in colds for op in doc["ops"]]
    info = {"pass_s": [round(t1 - t0, 4) for t0, t1, _ in warm]}
    if not traced:
        info["cold_s"] = [round(wall, 4) for wall, _ in colds]
        metrics = {
            "setup_s": statistics.median(s["import_s"] + s["load_project_s"] for s in setups),
            "wall_s": _fastest(warm),
            "cold_s": min(wall for wall, _ in colds),
            "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for _, doc in colds),
        }
        return metrics, ops, info

    spans = tracer.spans()
    tracer.write(BENCH / ".out" / f"spans-{workload}.npz")
    tune_plants = [name for name, _ in workloads.TUNE_ROWS]
    per_pass = [
        tracing.pass_metrics(spans, tracer.names, (t0, t1), tune_plants)
        for t0, t1, _ in got["traced"]
    ]
    metrics = {
        "cli.import.time_s": statistics.median(s["import_s"] for s in setups),
        "config.load_project.time_s": statistics.median(s["load_project_s"] for s in setups),
    }
    for key in per_pass[0]:
        metrics[key] = statistics.median(p[key] for p in per_pass)
    metrics["trace.overhead_s"] = _fastest(got["traced"]) - _fastest(warm)
    info["traced_pass_s"] = [round(t1 - t0, 4) for t0, t1, _ in got["traced"]]
    info["spans"] = int(spans["sid"].size)
    return metrics, ops, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gemservo" / "__init__.py").is_file():
        print(f"error: no gemservo sources under {SRC}", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, ops, info = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
        failures = checks.CHECKS[args.workload](ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    import numpy
    import scipy

    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        check_failures=failures,
        failed_ops=[op["op"] for op in ops if not op["ok"]],
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        nproc=os.cpu_count(),
        pinned_cpu=min(os.sched_getaffinity(0)),
    )
    print(json.dumps(info))
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
