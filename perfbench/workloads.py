"""Inputs and passes of the three benchmark workloads.

A *pass* is one whole round of a workload's operations through gemservo's
public entry points. Every pass returns the list of its operations, each a
JSON-ready dict with ``op`` (its name) and ``ok`` (False when it failed),
plus whatever the output checks need. The same pass functions run in the
benchmark process (warm passes) and in a fresh interpreter (cold passes).

This module imports numpy and gemservo only; the scipy-based input
generator and checks live apart so that a cold pass carries none of their
cost or memory.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

WORKLOADS = ("reproduce", "identify", "tune")

AXES = ("ascension", "declination")

# identify logs: three excitations per axis, 2000 samples at 4 ms each
EXCITATIONS = ("step", "prbs", "gauss")
LOG_SAMPLES = 2000
LOG_TS = 0.004

# tune: velocity rows keep the project's one-sided 0..350 kHz actuator, the
# position rows get symmetric +/-350 kHz limits (the one-sided actuator pins
# an integrating plant and the tuner fails on it)
TUNE_ROWS = (
    ("ascension_velocity", "project"),
    ("declination_velocity", "project"),
    ("ascension_position", "wide"),
    ("declination_position", "wide"),
)
WIDE_HZ = 350_000.0


def log_paths(work: Path) -> dict[str, list[Path]]:
    """CSV paths of the identify logs, per axis, in excitation order."""
    return {
        axis: [work / "logs" / f"{axis}_{exc}.csv" for exc in EXCITATIONS]
        for axis in AXES
    }


def pole_sets(project) -> dict[str, list[complex]]:
    """Requested closed-loop poles for place_poles, per plant.

    Velocity rows get a fast dominant pair; position rows a slow dominant
    real pole with the velocity-stage pair left where it is.
    """
    sets = {}
    for axis in AXES:
        sets[f"{axis}_velocity"] = [complex(-25.0, 18.75), complex(-25.0, -18.75), -125.0]
        _, a1, a0 = project.plants[f"{axis}_velocity"].den
        im = math.sqrt(a0 - 0.25 * a1 * a1)
        sets[f"{axis}_position"] = [
            -0.15, -1.0, complex(-0.5 * a1, im), complex(-0.5 * a1, -im)
        ]
    return sets


def _call_cli(cli, argv: list[str]) -> dict:
    """One CLI invocation in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            return {"ok": False, "rc": None, "error": repr(exc)}
    return {"ok": rc == 0, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def reproduce_pass(work: Path) -> list[dict]:
    from gemservo import cli

    out = work / "reproduce_out"
    op = {"op": "reproduce", **_call_cli(cli, ["reproduce", "--out", str(out)])}
    report = out / "reproduce.json"
    if op["ok"]:
        op["report"] = report.read_text()
    return [op]


def identify_pass(work: Path) -> list[dict]:
    from gemservo import cli

    ops = []
    for axis, paths in log_paths(work).items():
        argv = [
            "identify", *map(str, paths), "--augment", "--json",
            "--out", str(work / f"identify_{axis}"),
        ]
        ops.append({"op": f"identify:{axis}", "axis": axis, **_call_cli(cli, argv)})
    return ops


def tune_pass(work: Path, project) -> list[dict]:
    from gemservo import controllers

    wide = controllers.ActuatorLimits(-WIDE_HZ, WIDE_HZ)
    ops = []
    for name, which in TUNE_ROWS:
        op = {"op": f"tune_pid:{name}", "plant": name}
        limits = project.limits if which == "project" else wide
        try:
            g = controllers.tune_pid(
                project.plants[name], project.requirements[name],
                ts=project.ts, limits=limits, band_pct=project.band_pct,
            )
        except Exception as exc:  # TuningError or worse: a failed operation
            op.update(ok=False, error=repr(exc))
        else:
            op.update(
                ok=True,
                gains=[g.kp, g.ki, g.kd, g.deriv_filter_n, g.u_min, g.u_max],
            )
        ops.append(op)
    for name, poles in pole_sets(project).items():
        op = {
            "op": f"place_poles:{name}",
            "plant": name,
            "poles": [[complex(p).real, complex(p).imag] for p in poles],
        }
        try:
            sf = controllers.place_poles(project.plants[name], poles)
        except Exception as exc:
            op.update(ok=False, error=repr(exc))
        else:
            op.update(ok=True, k1=list(sf.k1), k2=sf.k2)
        ops.append(op)
    return ops


def run_pass(workload: str, work: Path, project) -> list[dict]:
    """One whole pass of ``workload``; ``project`` is the loaded bundled project."""
    if workload == "reproduce":
        return reproduce_pass(work)
    if workload == "identify":
        return identify_pass(work)
    if workload == "tune":
        return tune_pass(work, project)
    raise ValueError(f"unknown workload {workload!r}")
