"""Fresh-interpreter probes the benchmark starts as child processes.

``python3 perfbench/child.py setup`` times ``import gemservo.cli`` and the
bundled ``config.load_project()`` and prints them as JSON.

``python3 perfbench/child.py pass WORKLOAD WORKDIR`` imports gemservo, runs
one whole pass of the workload on the inputs already in WORKDIR and prints
its operations with the process's peak resident set size, as JSON. The
parent times the process from start to exit.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup() -> dict:
    t0 = time.perf_counter()
    import gemservo.cli  # noqa: F401
    t1 = time.perf_counter()
    from gemservo.config import load_project

    load_project()
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "load_project_s": t2 - t1}


def one_pass(workload: str, work: Path) -> dict:
    import resource

    import gemservo.cli  # noqa: F401
    from gemservo.config import load_project

    from workloads import run_pass

    ops = run_pass(workload, work, load_project())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ops": ops, "peak_rss_mb": rss_kb / 1024.0}


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 2:
        doc = setup()
    elif sys.argv[1:2] == ["pass"] and len(sys.argv) == 4:
        doc = one_pass(sys.argv[2], Path(sys.argv[3]))
    else:
        sys.exit("usage: child.py setup | child.py pass WORKLOAD WORKDIR")
    sys.stdout.write(json.dumps(doc) + "\n")
