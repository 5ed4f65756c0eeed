"""Command-line interface: identify, simulate, workspace, metrics, reproduce.

Exit-code contract, stable across commands: 0 pass, 1 requirement or
assertion failure, 2 usage/config error, 3 numerical divergence. All outputs
are deterministic: rerunning a command with unchanged inputs produces
byte-identical files and console text. Angles cross this boundary in
degrees, control signals in Hz, times in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, simloop
from .config import (
    ConfigError,
    Project,
    bundled_scenario_names,
    controller_to_json,
    geometry_from_json,
    load_project,
    load_scenario,
    model_report_to_json,
    tf_to_json,
)
from .controllers import ActuatorLimits, PidGains
from .kinematics import DEFAULT_GEOMETRY, workspace, write_workspace_csv
from .metrics import (
    CONSTANTS,
    ESS_REL_TOL,
    StepMetrics,
    analyze_step,
    check_requirements,
    table_report,
)
from .sysid import fit_second_order, integrator_augment, load_dataset, select_best

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

_REPORTED = "reported"
_ASSERT_OK = "ok"
_ASSERT_FAIL = "ASSERT-FAIL"


def _g(x: float | None, nd: str = "%.6g") -> str:
    if x is None:
        return "-"
    return nd % x


def _json_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _metrics_doc(m: StepMetrics | None) -> dict | None:
    if m is None:
        return None
    return {
        "tss": m.tss,
        "os_pct": m.os_pct,
        "ess": m.ess,
        "settled": m.settled,
        "y_final": m.y_final,
    }


# ---------------------------------------------------------------- identify


def cmd_identify(args) -> int:
    reports = []
    for path in args.datasets:
        ds = load_dataset(path)
        reports.append(fit_second_order(ds, max_iter=args.max_iter))
    best = select_best(reports)
    winner = reports[best]

    out = _out_dir(args)
    model_path = out / "model_velocity.json"
    _write_text(model_path, _json_dump(model_report_to_json(winner)))
    written = [str(model_path)]
    position = None
    if args.augment:
        position = integrator_augment(winner.model)
        pos_path = out / "model_position.json"
        _write_text(pos_path, _json_dump(tf_to_json(position)))
        written.append(str(pos_path))

    if args.json:
        doc = {
            "datasets": [
                {
                    "label": r.label,
                    "fit_pct": r.fit_pct,
                    "fpe": r.fpe,
                    "mse": r.mse,
                    "converged": r.converged,
                    "stable": r.stable,
                    "selected": i == best,
                }
                for i, r in enumerate(reports)
            ],
            "winner": winner.label,
            "model": model_report_to_json(winner),
            "position_model": tf_to_json(position) if position else None,
            "files": written,
        }
        sys.stdout.write(_json_dump(doc))
    else:
        rows = [
            [
                r.label,
                _g(r.fit_pct, "%.2f"),
                _g(r.fpe, "%.4g"),
                _g(r.mse, "%.4g"),
                "yes" if r.converged else "no",
                "yes" if r.stable else "no",
                "*" if i == best else "",
            ]
            for i, r in enumerate(reports)
        ]
        print(
            table_report(
                ["dataset", "fit %", "fpe", "mse", "converged", "stable", "sel"],
                rows,
                title="dataset comparison (higher fit, lower fpe/mse is better)",
            )
        )
        print(f"selected: {winner.label}")
        print(f"model: {winner.model}")
        for path in written:
            print(f"wrote {path}")
    return EXIT_PASS


# ---------------------------------------------------------------- simulate


def _simulate_summary(loaded, trace, m, verdict, limits) -> list[str]:
    lines = [f"scenario: {loaded.scenario.label or loaded.name}"]
    lines.append(
        f"samples: {len(trace)}  ts: {_g(trace.ts)} s  "
        f"duration: {_g(trace.t[-1])} s"
    )
    if trace.diverged:
        lines.append("DIVERGED: output magnitude exceeded the divergence guard")
    if m is not None:
        lines.append(
            f"tss: {_g(m.tss)} s  os: {_g(m.os_pct, '%.4g')} %  "
            f"ess: {_g(m.ess, '%.4g')}  settled: {'yes' if m.settled else 'no'}  "
            f"y_final: {_g(m.y_final)}"
        )
    lines.append(
        f"max control: {_g(simloop.max_control(trace))} Hz  "
        f"saturation: {100.0 * trace.saturation_fraction:.2f} % of samples"
    )
    n_neg = int(np.sum(trace.u < limits.u_min))
    if n_neg:
        lines.append(
            f"note: {n_neg} command sample(s) fell below the {_g(limits.u_min)} Hz "
            "lower limit and were clipped (negative drive commands are not "
            "physically realizable)"
        )
    if verdict is not None:
        det = (
            f"settled={'ok' if verdict.settled_ok else 'fail'} "
            f"tss={'ok' if verdict.tss_ok else 'fail'} "
            f"os={'ok' if verdict.os_ok else 'fail'} "
            f"ess={'ok' if verdict.ess_ok else 'fail'}"
        )
        lines.append(
            f"requirement: {'PASS' if verdict.passed else 'FAIL'} ({det})"
        )
    return lines


def cmd_simulate(args) -> int:
    project = load_project()
    loaded = load_scenario(args.scenario, project=project, ts_override=args.ts)
    scenario = loaded.scenario
    if args.wide:
        m = CONSTANTS.actuator_max_hz
        scenario = replace(scenario, limits=ActuatorLimits(-m, m))
    if args.loop_delay:
        scenario = replace(scenario, loop_delay=True)
    band = args.band if args.band is not None else project.band_pct

    trace = simloop.run(scenario)
    m = analyze_step(trace, band) if len(trace) >= 2 else None
    verdict = None
    if loaded.requirement is not None and m is not None and not trace.diverged:
        verdict = check_requirements(m, loaded.requirement)

    out = _out_dir(args)
    trace_path = out / f"{loaded.name}_trace.csv"
    simloop.write_trace_csv(trace, trace_path)
    limits = scenario.effective_limits()
    doc = {
        "scenario": loaded.name,
        "label": scenario.label,
        "metrics": _metrics_doc(m),
        "max_control": simloop.max_control(trace),
        "saturation_fraction": trace.saturation_fraction,
        "clipped_low_samples": int(np.sum(trace.u < limits.u_min)),
        "clipped_high_samples": int(np.sum(trace.u > limits.u_max)),
        "diverged": trace.diverged,
        "passed": None if verdict is None else verdict.passed,
        "trace_csv": str(trace_path),
    }
    metrics_path = out / f"{loaded.name}_metrics.json"
    _write_text(metrics_path, _json_dump(doc))

    if args.json:
        sys.stdout.write(_json_dump(doc))
    else:
        for line in _simulate_summary(loaded, trace, m, verdict, limits):
            print(line)
        print(f"wrote {trace_path}")
        print(f"wrote {metrics_path}")

    if trace.diverged:
        return EXIT_DIVERGED
    if verdict is not None and not verdict.passed:
        return EXIT_FAIL
    return EXIT_PASS


# ---------------------------------------------------------------- workspace


def cmd_workspace(args) -> int:
    if args.geometry:
        path = Path(args.geometry)
        if not path.exists():
            raise ConfigError(f"{args.geometry}: no such file")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.geometry}: invalid JSON: {exc}") from None
        geom = geometry_from_json(raw, str(path))
    elif args.l1 is not None or args.l2 is not None or args.alpha is not None:
        if args.l1 is None or args.l2 is None or args.alpha is None:
            raise ConfigError("--l1, --l2 and --alpha must be given together")
        try:
            geom = DEFAULT_GEOMETRY.__class__(
                l1=args.l1, l2=args.l2, alpha=math.radians(args.alpha)
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        geom = load_project().geometry

    t1 = (math.radians(args.theta1_min), math.radians(args.theta1_max))
    t2 = (math.radians(args.theta2_min), math.radians(args.theta2_max))
    try:
        pts = workspace(geom, args.n1, args.n2, theta1_range=t1, theta2_range=t2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    out = _out_dir(args)
    csv_path = out / "workspace.csv"
    write_workspace_csv(pts, csv_path)
    radius = math.sqrt(geom.l1**2 + geom.l2**2)
    doc = {
        "points": int(pts.shape[0]),
        "radius": radius,
        "l1": geom.l1,
        "l2": geom.l2,
        "alpha_deg": math.degrees(geom.alpha),
        "z_min": float(pts[:, 4].min()),
        "z_max": float(pts[:, 4].max()),
        "csv": str(csv_path),
    }
    if args.json:
        sys.stdout.write(_json_dump(doc))
    else:
        print(
            f"geometry: l1={_g(geom.l1)} m, l2={_g(geom.l2)} m, "
            f"alpha={_g(math.degrees(geom.alpha))} deg"
        )
        print(
            f"{doc['points']} samples on the radius-{_g(radius, '%.6g')} m "
            f"sphere, z in [{_g(doc['z_min'])}, {_g(doc['z_max'])}] m"
        )
        print(f"wrote {csv_path}")
    return EXIT_PASS


# ---------------------------------------------------------------- metrics


def cmd_metrics(args) -> int:
    trace = simloop.read_trace_csv(args.trace)
    project = load_project()
    band = args.band if args.band is not None else project.band_pct
    m = analyze_step(trace, band)

    verdict = None
    req = None
    if args.check:
        if args.check not in project.requirements:
            raise ConfigError(
                f"unknown requirement {args.check!r} "
                f"(known: {', '.join(sorted(project.requirements))})"
            )
        req = project.requirements[args.check]
        verdict = check_requirements(m, req)

    doc = {
        "trace": str(args.trace),
        "band_pct": band,
        "metrics": _metrics_doc(m),
        "max_control": simloop.max_control(trace),
        "requirement": args.check or None,
        "passed": None if verdict is None else verdict.passed,
    }
    if args.json:
        sys.stdout.write(_json_dump(doc))
    else:
        print(
            f"tss: {_g(m.tss)} s  os: {_g(m.os_pct, '%.4g')} %  "
            f"ess: {_g(m.ess, '%.4g')}  settled: {'yes' if m.settled else 'no'}  "
            f"y_final: {_g(m.y_final)}"
        )
        print(f"max control: {_g(simloop.max_control(trace))} Hz")
        if verdict is not None:
            print(
                f"requirement {args.check}: "
                f"{'PASS' if verdict.passed else 'FAIL'}"
            )
    if verdict is not None and not verdict.passed:
        return EXIT_FAIL
    return EXIT_PASS


# ---------------------------------------------------------------- reproduce

_STUDY_ORDER = [
    ("ascension_velocity", "pid"),
    ("declination_velocity", "pid"),
    ("ascension_position", "pid"),
    ("declination_position", "pid"),
    ("ascension_velocity", "sf"),
    ("declination_velocity", "sf"),
    ("ascension_position", "sf"),
    ("declination_position", "sf"),
]


def _study_cases(project: Project, band: float) -> list[simloop.TrackingCase]:
    cases = []
    for system, kind in _STUDY_ORDER:
        cases.append(
            simloop.TrackingCase(
                label=f"{system}_{kind}",
                plant=project.plants[system],
                controller=project.controllers[f"{system}_{kind}"],
                requirement=project.requirements[system],
                ts=project.ts,
                limits=project.limits,
                band_pct=band,
            )
        )
    return cases


def _ref(project: Project, table: str, kind: str, system: str):
    return project.reference_results.get(table, {}).get(kind, {}).get(system, {})


def _tracking_table(project, rows) -> tuple[str, list[dict], bool]:
    """Render the step-tracking comparison; returns (text, docs, all_ok)."""
    out_rows = []
    docs = []
    ok = True
    for (system, kind), row in zip(_STUDY_ORDER, rows):
        ref = _ref(project, "tracking", kind, system)
        req = project.requirements[system]
        m = row.metrics
        settled = bool(m is not None and m.settled)
        # the integral-action property backs the ess cell only when the loop
        # actually converged; limit-cycling or stuck loops are reported as-is
        if row.linearly_stable and settled:
            ess_ok = m.ess <= ESS_REL_TOL * abs(req.amplitude)
            ess_status = _ASSERT_OK if ess_ok else _ASSERT_FAIL
            ok = ok and ess_ok
        else:
            ess_status = _REPORTED
        out_rows.append(
            [
                system,
                kind,
                _g(m.tss if m else None, "%.4g"),
                _g(ref.get("tss"), "%.4g"),
                _g(m.os_pct if m else None, "%.4g"),
                _g(ref.get("os_pct"), "%.4g"),
                _g(m.ess if m else None, "%.3g"),
                _g(ref.get("ess"), "%.3g"),
                "yes" if settled else "no",
                ess_status,
            ]
        )
        docs.append(
            {
                "system": system,
                "kind": kind,
                "linearly_stable": row.linearly_stable,
                "settled": settled,
                "metrics": _metrics_doc(m),
                "reference": ref,
                "ess_status": ess_status,
            }
        )
    text = table_report(
        [
            "loop", "ctrl", "tss(s)", "tss ref", "os(%)", "os ref",
            "ess", "ess ref", "settled", "ess cell",
        ],
        out_rows,
        title="step tracking: published gains replayed (ref = published values; "
        "tss/os reported, not asserted)",
    )
    return text, docs, ok


def _disturbance_table(project, drows) -> tuple[str, list[dict], bool]:
    out_rows = []
    docs = []
    ok = True
    for (system, kind), row in zip(_STUDY_ORDER, drows):
        ref = _ref(project, "disturbance", kind, system)
        req = project.requirements[system]
        if not row.evaluated or row.metrics is None:
            status = "not evaluated (loop does not settle)"
            if row.diverged:
                status = "diverged"
            out_rows.append(
                [system, kind, "-", "-", _g(ref.get("os_pct"), "%.4g"), "-", status]
            )
            docs.append(
                {
                    "system": system,
                    "kind": kind,
                    "evaluated": False,
                    "reference": ref,
                    "status": status,
                }
            )
            continue
        dm = row.metrics
        rejected = dm.final_error <= ESS_REL_TOL * abs(req.amplitude)
        status = _ASSERT_OK if rejected else _ASSERT_FAIL
        ok = ok and rejected
        out_rows.append(
            [
                system,
                kind,
                _g(dm.peak_dev_pct, "%.4g"),
                _g(dm.recovery_time, "%.4g"),
                _g(ref.get("os_pct"), "%.4g"),
                _g(dm.final_error, "%.3g"),
                status,
            ]
        )
        docs.append(
            {
                "system": system,
                "kind": kind,
                "evaluated": True,
                "amplitude": row.amplitude,
                "onset": row.onset,
                "peak_dev_pct": dm.peak_dev_pct,
                "recovery_time": dm.recovery_time,
                "final_error": dm.final_error,
                "reference": ref,
                "status": status,
            }
        )
    text = table_report(
        [
            "loop", "ctrl", "peak dev(%)", "recovery(s)", "peak ref(%)",
            "final err", "final-err cell",
        ],
        out_rows,
        title="disturbance rejection: constant input load, 10% of steady "
        "control (peak ref uses an unpublished magnitude; reported, not "
        "asserted)",
    )
    return text, docs, ok


def _max_control_table(project, rows) -> tuple[str, list[dict], bool]:
    out_rows = []
    docs = []
    ok = True
    for (system, kind), row in zip(_STUDY_ORDER, rows):
        ref = _ref(project, "max_control_khz", kind, system)
        ours_khz = row.max_control / 1000.0
        if kind == "pid" and row.upper_saturated:
            cell_ok = row.max_control == CONSTANTS.actuator_max_hz
            status = _ASSERT_OK if cell_ok else _ASSERT_FAIL
            ok = ok and cell_ok
        else:
            status = _REPORTED
        out_rows.append(
            [
                system,
                kind,
                _g(ours_khz, "%.4g"),
                _g(ref if isinstance(ref, (int, float)) else None, "%.4g"),
                f"{100.0 * row.saturation_fraction:.2f}",
                "yes" if row.clipped_negative else "no",
                status,
            ]
        )
        docs.append(
            {
                "system": system,
                "kind": kind,
                "max_control_khz": ours_khz,
                "reference_khz": ref if isinstance(ref, (int, float)) else None,
                "saturation_pct": 100.0 * row.saturation_fraction,
                "clipped_negative": row.clipped_negative,
                "status": status,
            }
        )
    text = table_report(
        [
            "loop", "ctrl", "max u(kHz)", "ref(kHz)", "sat(%)",
            "clipped<0", "350kHz cell",
        ],
        out_rows,
        title="maximum control signal (PID cells asserted to hit the 350 kHz "
        "ceiling whenever the upper limit engages)",
    )
    return text, docs, ok


def cmd_reproduce(args) -> int:
    project = load_project()
    band = args.band if args.band is not None else project.band_pct
    cases = _study_cases(project, band)
    drows = simloop.run_disturbance_suite(cases)
    rows = [drow.tracking for drow in drows]

    t_text, t_docs, t_ok = _tracking_table(project, rows)
    d_text, d_docs, d_ok = _disturbance_table(project, drows)
    m_text, m_docs, m_ok = _max_control_table(project, rows)

    # bundled scenarios replay in name order
    scen_lines = ["bundled scenarios:"]
    scen_docs = []
    for name in bundled_scenario_names():
        loaded = load_scenario(name, project=project)
        trace = simloop.run(loaded.scenario)
        sm = analyze_step(trace, band) if len(trace) >= 2 else None
        verdict = None
        if loaded.requirement is not None and sm is not None and not trace.diverged:
            verdict = check_requirements(sm, loaded.requirement)
        limits = loaded.scenario.effective_limits()
        n_neg = int(np.sum(trace.u < limits.u_min))
        state = "diverged" if trace.diverged else (
            "no requirement attached" if verdict is None
            else ("requirement PASS" if verdict.passed else "requirement FAIL")
        )
        note = f", {n_neg} negative command(s) clipped" if n_neg else ""
        scen_lines.append(f"  {name}: {state}{note}")
        scen_docs.append(
            {
                "name": name,
                "diverged": trace.diverged,
                "passed": None if verdict is None else verdict.passed,
                "clipped_low_samples": n_neg,
            }
        )

    all_ok = t_ok and d_ok and m_ok
    doc = {
        "tracking": t_docs,
        "disturbance": d_docs,
        "max_control": m_docs,
        "scenarios": scen_docs,
        "assertions_passed": all_ok,
    }
    if args.out:
        report_path = _out_dir(args) / "reproduce.json"
        _write_text(report_path, _json_dump(doc))
    if args.json:
        sys.stdout.write(_json_dump(doc))
    else:
        print(t_text)
        print()
        print(d_text)
        print()
        print(m_text)
        print()
        print("\n".join(scen_lines))
        print()
        print(
            "asserted cells: "
            + ("all passed" if all_ok else "FAILURES present (see tables)")
        )
        if args.out:
            print(f"wrote {_out_dir(args) / 'reproduce.json'}")
    return EXIT_PASS if all_ok else EXIT_FAIL


# ---------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="machine-readable JSON on stdout"
    )
    common.add_argument(
        "--out", default=None, metavar="DIR", help="output directory (default: .)"
    )
    # --band only on the commands that measure settling
    banded = argparse.ArgumentParser(add_help=False, parents=[common])
    banded.add_argument(
        "--band",
        type=float,
        default=None,
        help="settling band, percent (default: project setting, 2)",
    )

    parser = argparse.ArgumentParser(
        prog="gemservo",
        description="servo modeling, identification, control design and "
        "simulation for a German-equatorial telescope mount",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "identify",
        parents=[common],
        help="fit second-order models to logged datasets and pick the best",
    )
    p.add_argument("datasets", nargs="+", help="CSV files with t,u,y columns")
    p.add_argument(
        "--augment",
        action="store_true",
        help="also write the integrator-augmented position model",
    )
    p.add_argument(
        "--max-iter", type=int, default=200, help="fit iteration cap (default 200)"
    )
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser(
        "simulate",
        parents=[banded],
        help="run a scenario file (or bundled scenario name) and report metrics",
    )
    p.add_argument("scenario", help="scenario JSON path or bundled scenario name")
    p.add_argument(
        "--ts", type=float, default=None, help="sampling time override, seconds"
    )
    p.add_argument(
        "--wide",
        action="store_true",
        help="widen actuator limits to symmetric +/-350 kHz for comparison",
    )
    p.add_argument(
        "--loop-delay",
        action="store_true",
        help="apply one sample of loop delay to the control path",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "workspace",
        parents=[common],
        help="sample the mount's reachable effector positions to CSV",
    )
    p.add_argument("--geometry", default=None, help="geometry JSON file")
    p.add_argument("--l1", type=float, default=None, help="link-1 length, m")
    p.add_argument("--l2", type=float, default=None, help="link-2 length, m")
    p.add_argument(
        "--alpha", type=float, default=None, help="polar-axis tilt, degrees"
    )
    p.add_argument("--n1", type=int, default=60, help="hour-angle grid size")
    p.add_argument("--n2", type=int, default=60, help="declination grid size")
    p.add_argument(
        "--theta1-min", type=float, default=-90.0, help="hour angle from, degrees"
    )
    p.add_argument(
        "--theta1-max", type=float, default=90.0, help="hour angle to, degrees"
    )
    p.add_argument(
        "--theta2-min", type=float, default=0.0, help="declination axis from, degrees"
    )
    p.add_argument(
        "--theta2-max",
        type=float,
        default=180.0,
        help="declination axis to, degrees",
    )
    p.set_defaults(func=cmd_workspace)

    p = sub.add_parser(
        "metrics",
        parents=[banded],
        help="compute step metrics from a trace CSV",
    )
    p.add_argument("trace", help="trace CSV (t,r,e,u,u_sat,y)")
    p.add_argument(
        "--check",
        default=None,
        metavar="REQUIREMENT",
        help="check against a named project requirement",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "reproduce",
        parents=[banded],
        help="replay the published study end to end and compare tables",
    )
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return EXIT_PASS
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
