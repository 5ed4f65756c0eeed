"""Command-line interface: identify, simulate, workspace, metrics, reproduce.

Exit-code contract, stable across commands: 0 pass, 1 requirement or
assertion failure, 2 usage/config error, 3 numerical divergence. All outputs
are deterministic: rerunning a command with unchanged inputs produces
byte-identical files and console text. Angles cross this boundary in
degrees, control signals in Hz, times in seconds.

Each command returns its exit code, its document and the text lines rendered
from it; only :func:`main` writes stdout, the one or the other (``--json``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__, simloop
from .config import (
    ConfigError,
    Project,
    _read_json,
    bundled_scenario_names,
    geometry_from_json,
    load_project,
    load_scenario,
    model_report_to_json,
    tf_to_json,
)
from .controllers import ActuatorLimits
from .kinematics import MountGeometry, workspace, write_workspace_csv
from .metrics import (
    CONSTANTS,
    StepMetrics,
    analyze_step,
    check_requirements,
    ess_bound,
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


def _num(*path: str, nd: str = "%.4g"):
    """Text cell of the number at ``path`` in a row doc; "-" where absent."""

    def cell(doc: dict) -> str:
        for key in path:
            doc = (doc or {}).get(key)
        return _g(doc, nd)

    return cell


def _table(title: str, columns, docs: list[dict]) -> str:
    """Text table of row docs, a column for each ``(header, cell)`` pair."""
    header = [h for h, _ in columns]
    cells = [[cell(d) for _, cell in columns] for d in docs]
    return table_report(header, cells, title=title)


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
    return None if m is None else asdict(m)


# ---------------------------------------------------------------- identify

_DATASETS = [
    ("dataset", lambda d: d["label"]),
    ("fit %", _num("fit_pct", nd="%.2f")),
    ("fpe", _num("fpe")),
    ("mse", _num("mse")),
    ("converged", lambda d: "yes" if d["converged"] else "no"),
    ("stable", lambda d: "yes" if d["stable"] else "no"),
    ("sel", lambda d: "*" if d["selected"] else ""),
]


def cmd_identify(args) -> tuple[int, dict, list[str]]:
    reports = []
    for path in args.datasets:
        ds = load_dataset(path)
        try:
            reports.append(fit_second_order(ds, max_iter=args.max_iter))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    best = select_best(reports)
    winner = reports[best]

    out = _out_dir(args)
    model = model_report_to_json(winner)
    position = tf_to_json(integrator_augment(winner.model)) if args.augment else None
    written = []
    for name, part in (("model_velocity", model), ("model_position", position)):
        if part is not None:
            path = out / f"{name}.json"
            _write_text(path, _json_dump(part))
            written.append(str(path))

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
        "model": model,
        "position_model": position,
        "files": written,
    }
    lines = [
        _table(
            "dataset comparison (higher fit, lower fpe/mse is better)",
            _DATASETS,
            doc["datasets"],
        ),
        f"selected: {winner.label}",
        f"model: {winner.model}",
    ]
    lines += [f"wrote {path}" for path in written]
    return EXIT_PASS, doc, lines


# ---------------------------------------------------------------- simulate


def _metrics_line(m: dict) -> str:
    return (
        f"tss: {_g(m['tss'])} s  os: {_g(m['os_pct'], '%.4g')} %  "
        f"ess: {_g(m['ess'], '%.4g')}  settled: {'yes' if m['settled'] else 'no'}  "
        f"y_final: {_g(m['y_final'])}"
    )


def _simulate_summary(doc, trace, verdict, u_min: float) -> list[str]:
    lines = [f"scenario: {doc['label'] or doc['scenario']}"]
    lines.append(
        f"samples: {len(trace)}  ts: {_g(trace.ts)} s  "
        f"duration: {_g(trace.t[-1])} s"
    )
    if doc["diverged"]:
        lines.append("DIVERGED: output magnitude exceeded the divergence guard")
    if doc["metrics"] is not None:
        lines.append(_metrics_line(doc["metrics"]))
    lines.append(
        f"max control: {_g(doc['max_control'])} Hz  "
        f"saturation: {100.0 * doc['saturation_fraction']:.2f} % of samples"
    )
    n_neg = doc["clipped_low_samples"]
    if n_neg:
        lines.append(
            f"note: {n_neg} command sample(s) fell below the {_g(u_min)} Hz "
            "lower limit and were clipped (negative drive commands are not "
            "physically realizable)"
        )
    if verdict is not None:
        det = " ".join(
            f"{k}={'ok' if getattr(verdict, k + '_ok') else 'fail'}"
            for k in ("settled", "tss", "os", "ess")
        )
        lines.append(
            f"requirement: {'PASS' if verdict.passed else 'FAIL'} ({det})"
        )
    return lines


def cmd_simulate(args) -> tuple[int, dict, list[str]]:
    project = load_project()
    loaded = load_scenario(args.scenario, project=project, ts_override=args.ts)
    scenario = loaded.scenario
    if args.wide:
        m = CONSTANTS.actuator_max_hz
        scenario = replace(scenario, limits=ActuatorLimits(-m, m))
    if args.loop_delay:
        scenario = replace(scenario, loop_delay=True)
    band = args.band if args.band is not None else project.band_pct
    try:
        trace, m, verdict = simloop.run_and_judge(scenario, loaded.requirement, band)
    except ValueError as exc:
        raise ValueError(f"{args.scenario}: {exc}") from None

    out = _out_dir(args)
    trace_path = out / f"{loaded.name}_trace.csv"
    simloop.write_trace_csv(trace, trace_path)
    doc = {
        "scenario": loaded.name,
        "label": scenario.label,
        "metrics": _metrics_doc(m),
        "max_control": simloop.max_control(trace),
        "saturation_fraction": trace.saturation_fraction,
        "clipped_low_samples": trace.clipped_low,
        "clipped_high_samples": trace.clipped_high,
        "diverged": trace.diverged,
        "passed": None if verdict is None else verdict.passed,
        "trace_csv": str(trace_path),
    }
    metrics_path = out / f"{loaded.name}_metrics.json"
    _write_text(metrics_path, _json_dump(doc))

    # load_scenario always sets limits, the project's when the file has none
    lines = _simulate_summary(doc, trace, verdict, scenario.limits.u_min)
    lines += [f"wrote {trace_path}", f"wrote {metrics_path}"]
    if trace.diverged:
        return EXIT_DIVERGED, doc, lines
    return (EXIT_FAIL if doc["passed"] is False else EXIT_PASS), doc, lines


# ---------------------------------------------------------------- workspace


def cmd_workspace(args) -> tuple[int, dict, list[str]]:
    if args.geometry:
        raw = _read_json(args.geometry, args.geometry)
        geom = geometry_from_json(raw, str(Path(args.geometry)))
    elif args.l1 is not None or args.l2 is not None or args.alpha is not None:
        if args.l1 is None or args.l2 is None or args.alpha is None:
            raise ConfigError("--l1, --l2 and --alpha must be given together")
        geom = MountGeometry(l1=args.l1, l2=args.l2, alpha=math.radians(args.alpha))
    else:
        geom = load_project().geometry

    t1 = (math.radians(args.theta1_min), math.radians(args.theta1_max))
    t2 = (math.radians(args.theta2_min), math.radians(args.theta2_max))
    pts = workspace(geom, args.n1, args.n2, theta1_range=t1, theta2_range=t2)

    out = _out_dir(args)
    csv_path = out / "workspace.csv"
    write_workspace_csv(pts, csv_path)
    doc = {
        "points": int(pts.shape[0]),
        "radius": math.sqrt(geom.radius_sq),
        "l1": geom.l1,
        "l2": geom.l2,
        "alpha_deg": math.degrees(geom.alpha),
        "z_min": float(pts[:, 4].min()),
        "z_max": float(pts[:, 4].max()),
        "csv": str(csv_path),
    }
    lines = [
        f"geometry: l1={_g(doc['l1'])} m, l2={_g(doc['l2'])} m, "
        f"alpha={_g(doc['alpha_deg'])} deg",
        f"{doc['points']} samples on the radius-{_g(doc['radius'])} m "
        f"sphere, z in [{_g(doc['z_min'])}, {_g(doc['z_max'])}] m",
        f"wrote {doc['csv']}",
    ]
    return EXIT_PASS, doc, lines


# ---------------------------------------------------------------- metrics


def cmd_metrics(args) -> tuple[int, dict, list[str]]:
    trace = simloop.read_trace_csv(args.trace)
    project = load_project()
    band = args.band if args.band is not None else project.band_pct
    try:
        m = analyze_step(trace, band)
    except ValueError as exc:
        raise ValueError(f"{args.trace}: {exc}") from None

    verdict = None
    if args.check:
        if args.check not in project.requirements:
            raise ConfigError(
                f"unknown requirement {args.check!r} "
                f"(known: {', '.join(sorted(project.requirements))})"
            )
        verdict = check_requirements(m, project.requirements[args.check])

    doc = {
        "trace": str(args.trace),
        "band_pct": band,
        "metrics": _metrics_doc(m),
        "max_control": simloop.max_control(trace),
        "requirement": args.check or None,
        "passed": None if verdict is None else verdict.passed,
    }
    lines = [_metrics_line(doc["metrics"]), f"max control: {_g(doc['max_control'])} Hz"]
    if doc["passed"] is not None:
        verdict_text = "PASS" if doc["passed"] else "FAIL"
        lines.append(f"requirement {doc['requirement']}: {verdict_text}")
    return (EXIT_FAIL if doc["passed"] is False else EXIT_PASS), doc, lines


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
    return [
        simloop.TrackingCase(
            label=f"{system}_{kind}",
            plant=project.plants[system],
            controller=project.controllers[f"{system}_{kind}"],
            requirement=project.requirements[system],
            ts=project.ts,
            limits=project.limits,
            band_pct=band,
        )
        for system, kind in _STUDY_ORDER
    ]


def _ref(project: Project, table: str, kind: str, system: str):
    return project.reference_results.get(table, {}).get(kind, {}).get(system, {})


def _study_docs(project: Project, drows) -> dict[str, list[dict]]:
    """The tracking, disturbance and max-control row docs of each study case."""
    docs = {"tracking": [], "disturbance": [], "max_control": []}
    for (system, kind), drow in zip(_STUDY_ORDER, drows):
        loop = {"system": system, "kind": kind}

        row = drow.tracking
        m = row.metrics
        settled = bool(m is not None and m.settled)
        # the integral-action property backs the ess cell only when the loop
        # actually converged; limit-cycling or stuck loops are reported as-is
        if row.linearly_stable and settled:
            ess_ok = m.ess <= ess_bound(project.requirements[system].amplitude)
            ess_status = _ASSERT_OK if ess_ok else _ASSERT_FAIL
        else:
            ess_status = _REPORTED
        docs["tracking"].append(
            {
                **loop,
                "linearly_stable": row.linearly_stable,
                "settled": settled,
                "metrics": _metrics_doc(m),
                "reference": _ref(project, "tracking", kind, system),
                "ess_status": ess_status,
            }
        )

        dist = {
            **loop,
            "evaluated": False,
            "reference": _ref(project, "disturbance", kind, system),
        }
        if not drow.evaluated or drow.metrics is None:
            dist["status"] = (
                "diverged" if drow.diverged
                else "not evaluated (loop does not settle)"
            )
        else:
            dm = drow.metrics
            dist.update(
                evaluated=True,
                amplitude=drow.amplitude,
                onset=drow.onset,
                peak_dev_pct=dm.peak_dev_pct,
                recovery_time=dm.recovery_time,
                final_error=dm.final_error,
                status=_ASSERT_OK if drow.rejected else _ASSERT_FAIL,
            )
        docs["disturbance"].append(dist)

        ref = _ref(project, "max_control_khz", kind, system)
        docs["max_control"].append(
            {
                **loop,
                "max_control_khz": row.max_control / 1000.0,
                "reference_khz": ref if isinstance(ref, (int, float)) else None,
                "saturation_pct": 100.0 * row.saturation_fraction,
                "clipped_negative": row.clipped_negative,
                # the largest clamped command of a loop that hit the upper
                # limit is that limit: reported, since it cannot fail
                "status": _REPORTED,
            }
        )
    return docs


_LOOP = [("loop", lambda d: d["system"]), ("ctrl", lambda d: d["kind"])]

# (doc key, title, [(header, cell from row doc)]) for each reproduce table
_TABLES = [
    (
        "tracking",
        "step tracking: published gains replayed (ref = published values; "
        "tss/os reported, not asserted)",
        _LOOP + [
            ("tss(s)", _num("metrics", "tss")),
            ("tss ref", _num("reference", "tss")),
            ("os(%)", _num("metrics", "os_pct")),
            ("os ref", _num("reference", "os_pct")),
            ("ess", _num("metrics", "ess", nd="%.3g")),
            ("ess ref", _num("reference", "ess", nd="%.3g")),
            ("settled", lambda d: "yes" if d["settled"] else "no"),
            ("ess cell", lambda d: d["ess_status"]),
        ],
    ),
    (
        "disturbance",
        "disturbance rejection: constant input load, 10% of steady "
        "control (peak ref uses an unpublished magnitude; reported, not "
        "asserted)",
        _LOOP + [
            ("peak dev(%)", _num("peak_dev_pct")),
            ("recovery(s)", _num("recovery_time")),
            ("peak ref(%)", _num("reference", "os_pct")),
            ("final err", _num("final_error", nd="%.3g")),
            ("final-err cell", lambda d: d["status"]),
        ],
    ),
    (
        "max_control",
        "maximum control signal (reported, not asserted: a loop that hits "
        "the 350 kHz ceiling peaks at the ceiling its clamp applied)",
        _LOOP + [
            ("max u(kHz)", _num("max_control_khz")),
            ("ref(kHz)", _num("reference_khz")),
            ("sat(%)", lambda d: f"{d['saturation_pct']:.2f}"),
            ("clipped<0", lambda d: "yes" if d["clipped_negative"] else "no"),
            ("350kHz cell", lambda d: d["status"]),
        ],
    ),
]


def _scenario_line(d: dict) -> str:
    state = "diverged" if d["diverged"] else (
        "no requirement attached" if d["passed"] is None
        else ("requirement PASS" if d["passed"] else "requirement FAIL")
    )
    n_neg = d["clipped_low_samples"]
    note = f", {n_neg} negative command(s) clipped" if n_neg else ""
    return f"  {d['name']}: {state}{note}"


def cmd_reproduce(args) -> tuple[int, dict, list[str]]:
    project = load_project()
    band = args.band if args.band is not None else project.band_pct
    drows = simloop.run_disturbance_suite(_study_cases(project, band))
    doc = {**_study_docs(project, drows), "scenarios": []}
    all_ok = not any(
        _ASSERT_FAIL in (d.get("status"), d.get("ess_status"))
        for key, _, _ in _TABLES
        for d in doc[key]
    )
    doc["assertions_passed"] = all_ok
    # bundled scenarios replay in name order
    for name in bundled_scenario_names():
        loaded = load_scenario(name, project=project)
        trace, _, verdict = simloop.run_and_judge(
            loaded.scenario, loaded.requirement, band
        )
        doc["scenarios"].append(
            {
                "name": name,
                "diverged": trace.diverged,
                "passed": None if verdict is None else verdict.passed,
                "clipped_low_samples": trace.clipped_low,
            }
        )

    lines = []
    for key, title, columns in _TABLES:
        lines += [_table(title, columns, doc[key]), ""]
    lines += ["bundled scenarios:"] + [_scenario_line(d) for d in doc["scenarios"]]
    verdict = "all passed" if all_ok else "FAILURES present (see tables)"
    lines += ["", f"asserted cells: {verdict}"]
    if args.out:
        report_path = _out_dir(args) / "reproduce.json"
        _write_text(report_path, _json_dump(doc))
        lines.append(f"wrote {report_path}")
    return (EXIT_PASS if all_ok else EXIT_FAIL), doc, lines


# ---------------------------------------------------------------- main


def _positive(text: str) -> float:
    """The value of ``--band`` or ``--ts``: a positive, finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _count(text: str) -> int:
    """The value of ``--max-iter``: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
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
        type=_positive,
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
        "--max-iter", type=_count, default=200, help="fit iteration cap (default 200)"
    )
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser(
        "simulate",
        parents=[banded],
        help="run a scenario file (or bundled scenario name) and report metrics",
    )
    p.add_argument("scenario", help="scenario JSON path or bundled scenario name")
    p.add_argument(
        "--ts", type=_positive, default=None, help="sampling time override, seconds"
    )
    p.add_argument(
        "--wide",
        action="store_true",
        help="replace the scenario's actuator limits with symmetric +/-350 kHz "
        "for this run, for comparison",
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
        code, doc, lines = args.func(args)
        sys.stdout.write(
            _json_dump(doc) if args.json else "".join(f"{x}\n" for x in lines)
        )
        return code
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
