"""JSON serialization for plants, controllers, requirements and scenarios.

Format reference
----------------
Transfer function: ``{"num": [...], "den": [...]}`` - coefficient arrays in
descending powers of s.

Controller: ``{"type": "pid", "kp": .., "ki": .., "kd": .., "n": ..}`` with
kd and n optional (defaults 0 and 100 rad/s), or
``{"type": "sf", "k1": [..], "k2": ..}``, or
``{"type": "sf", "poles": [[re, im], ...]}`` - the pole-design form, resolved
with the scenario's plant via pole placement on load. Scenario files may also
name a project controller with a plain string.

Limits: ``{"umin": .., "umax": ..}``, the one place actuator limits are set:
a scenario's ``limits``, else the project's ``defaults.limits``. A PID
controller object carrying ``umin``/``umax`` is rejected, since the run would
override them.

Requirement: ``{"amplitude": .., "tss_max": .., "os_max": .., "ess_max": ..,
"units": ".."}``.

Geometry: ``{"l1": .., "l2": .., "alpha_deg": ..}``.

Scenario files combine those: plant and requirement may be given inline or by
bundled name; reference and disturbance are signal specs
(``{"shape": "step"|"ramp", "amplitude"|"rate": .., "start": ..}``, the
disturbance adds ``"inject": "input"|"output"``); ``loop_delay`` is
``true`` or ``false``, and the optional ``label`` a string (the file's stem
by default).

An object refuses a key its reader does not read, so a misspelt optional
key is an error, not dropped for its default. A transfer function may carry
the ``fit`` summary of an ``identify`` model file; the project's
``reference_results`` are free-form.

All loader errors name the offending file and JSON path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

from .controllers import ActuatorLimits, PidGains, StateFeedbackGains, place_poles
from .kinematics import MountGeometry
from .lti import TransferFunction
from .metrics import Requirement
from .simloop import DisturbanceSpec, Scenario, SignalSpec
from .sysid import _decode_utf8

__all__ = [
    "ConfigError",
    "Project",
    "LoadedScenario",
    "load_project",
    "load_scenario",
    "bundled_scenario_names",
    "tf_from_json",
    "tf_to_json",
    "controller_from_json",
    "controller_to_json",
    "requirement_from_json",
    "limits_from_json",
    "geometry_from_json",
    "model_report_to_json",
]


class ConfigError(ValueError):
    """A config file is missing, malformed, or inconsistent."""


def _data_root():
    return files("gemservo") / "data"


def _object(obj, ctx: str, *known: str) -> dict:
    """``obj``, which must be an object; given the keys its reader reads,
    ``known``, one with any other key is refused, so that a misspelt
    optional key is an error, not dropped for its default."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(obj).__name__}")
    if known:
        for key in obj:
            if key not in known:
                raise ConfigError(
                    f"{ctx}: unknown key {key!r} (known: {', '.join(sorted(known))})"
                )
    return obj


def _get(obj: dict, key: str, ctx: str):
    _object(obj, ctx)
    if key not in obj:
        raise ConfigError(f"{ctx}: missing key {key!r}")
    return obj[key]


def _table(obj: dict, key: str, ctx: str) -> dict:
    """The object under ``key``: a table of named entries."""
    value = _get(obj, key, ctx)
    if not isinstance(value, dict):
        raise ConfigError(
            f"{ctx}.{key}: expected an object, got {type(value).__name__}"
        )
    return value


def _num(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{ctx}: value must be finite, got {v}")
    return v


def _str(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{ctx}: expected a string")
    return value


def _parse_json(data: bytes, name: str):
    """The JSON document in ``data``, which must be UTF-8 text; errors are
    named ``name``. Every ValueError of the parser is caught, not only
    JSONDecodeError: a number of more than 4300 digits raises a plain one."""
    text = _decode_utf8(data, name)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: invalid JSON: {exc}") from None


def _read_json(path: str | Path, name: str):
    """The JSON document in the file at ``path``; errors are named ``name``."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{name}: no such file")
    return _parse_json(p.read_bytes(), name)


def _named_or_inline(spec, table: dict, ctx: str, kind: str, parse):
    """``table[spec]`` when ``spec`` is a name, else ``parse(spec, ctx)``."""
    if not isinstance(spec, str):
        return parse(spec, ctx)
    if spec not in table:
        raise ConfigError(
            f"{ctx}: unknown {kind} {spec!r} (known: {', '.join(sorted(table))})"
        )
    return table[spec]


def _build(ctx: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, with a ValueError it raises re-raised as
    a ConfigError under ``ctx``. The arguments are evaluated by the caller, so
    a ConfigError they raise keeps its own, more precise path."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None


def _num_list(value, ctx: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{ctx}: expected a non-empty array")
    return [_num(v, f"{ctx}[{i}]") for i, v in enumerate(value)]


def tf_from_json(obj, ctx: str) -> TransferFunction:
    _object(obj, ctx, "num", "den", "fit")  # identify's model files carry a fit
    num = _num_list(_get(obj, "num", ctx), f"{ctx}.num")
    den = _num_list(_get(obj, "den", ctx), f"{ctx}.den")
    return _build(ctx, TransferFunction, tuple(num), tuple(den))


def tf_to_json(tf: TransferFunction) -> dict:
    return {"num": list(tf.num), "den": list(tf.den)}


def controller_from_json(
    obj, ctx: str, plant: TransferFunction | None = None
) -> PidGains | StateFeedbackGains:
    kind = _get(obj, "type", ctx)
    if kind == "pid":
        for key in ("umin", "umax"):
            if key in obj:
                raise ConfigError(
                    f"{ctx}.{key}: PID controllers take no actuator limits; set "
                    "them under the scenario's 'limits' or the project's "
                    "'defaults.limits'"
                )
        _object(obj, ctx, "type", "kp", "ki", "kd", "n")
        return _build(
            ctx,
            PidGains,
            kp=_num(_get(obj, "kp", ctx), f"{ctx}.kp"),
            ki=_num(_get(obj, "ki", ctx), f"{ctx}.ki"),
            kd=_num(obj.get("kd", 0.0), f"{ctx}.kd"),
            deriv_filter_n=_num(obj.get("n", 100.0), f"{ctx}.n"),
        )
    if kind == "sf":
        if "poles" in obj:
            _object(obj, ctx, "type", "poles")
            if plant is None:
                raise ConfigError(
                    f"{ctx}: pole-design controllers need a plant to resolve against"
                )
            raw = obj["poles"]
            if not isinstance(raw, list) or not raw:
                raise ConfigError(f"{ctx}.poles: expected a non-empty array")
            want = []
            for i, pair in enumerate(raw):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(
                        f"{ctx}.poles[{i}]: expected [real, imag] pair"
                    )
                want.append(
                    complex(
                        _num(pair[0], f"{ctx}.poles[{i}][0]"),
                        _num(pair[1], f"{ctx}.poles[{i}][1]"),
                    )
                )
            return _build(ctx, place_poles, plant, want)
        _object(obj, ctx, "type", "k1", "k2")
        return _build(
            ctx,
            StateFeedbackGains,
            k1=tuple(_num_list(_get(obj, "k1", ctx), f"{ctx}.k1")),
            k2=_num(_get(obj, "k2", ctx), f"{ctx}.k2"),
        )
    raise ConfigError(f"{ctx}.type: expected 'pid' or 'sf', got {kind!r}")


def controller_to_json(controller: PidGains | StateFeedbackGains) -> dict:
    if isinstance(controller, PidGains):
        return {
            "type": "pid",
            "kp": controller.kp,
            "ki": controller.ki,
            "kd": controller.kd,
            "n": controller.deriv_filter_n,
        }
    return {"type": "sf", "k1": list(controller.k1), "k2": controller.k2}


def requirement_from_json(obj, ctx: str, label: str = "") -> Requirement:
    _object(obj, ctx, "amplitude", "tss_max", "os_max", "ess_max", "units")
    return _build(
        ctx,
        Requirement,
        amplitude=_num(_get(obj, "amplitude", ctx), f"{ctx}.amplitude"),
        tss_max=_num(_get(obj, "tss_max", ctx), f"{ctx}.tss_max"),
        os_max=_num(_get(obj, "os_max", ctx), f"{ctx}.os_max"),
        ess_max=_num(obj.get("ess_max", 0.0), f"{ctx}.ess_max"),
        units=_str(obj.get("units", ""), f"{ctx}.units"),
        label=label,
    )


def limits_from_json(obj, ctx: str) -> ActuatorLimits:
    _object(obj, ctx, "umin", "umax")
    return _build(
        ctx,
        ActuatorLimits,
        u_min=_num(_get(obj, "umin", ctx), f"{ctx}.umin"),
        u_max=_num(_get(obj, "umax", ctx), f"{ctx}.umax"),
    )


def geometry_from_json(obj, ctx: str) -> MountGeometry:
    _object(obj, ctx, "l1", "l2", "alpha_deg")
    return _build(
        ctx,
        MountGeometry,
        l1=_num(_get(obj, "l1", ctx), f"{ctx}.l1"),
        l2=_num(_get(obj, "l2", ctx), f"{ctx}.l2"),
        alpha=math.radians(_num(_get(obj, "alpha_deg", ctx), f"{ctx}.alpha_deg")),
    )


def _signal_fields(obj, ctx: str, *extra: str) -> dict:
    _object(obj, ctx, "shape", "amplitude", "rate", "start", *extra)
    return {
        "shape": _str(_get(obj, "shape", ctx), f"{ctx}.shape"),
        "amplitude": _num(obj.get("amplitude", 0.0), f"{ctx}.amplitude"),
        "rate": _num(obj.get("rate", 0.0), f"{ctx}.rate"),
        "start": _num(obj.get("start", 0.0), f"{ctx}.start"),
    }


def _signal_from_json(obj, ctx: str) -> SignalSpec:
    return _build(ctx, SignalSpec, **_signal_fields(obj, ctx))


def _disturbance_from_json(obj, ctx: str) -> DisturbanceSpec:
    return _build(
        ctx,
        DisturbanceSpec,
        **_signal_fields(obj, ctx, "inject"),
        inject=_str(obj.get("inject", "input"), f"{ctx}.inject"),
    )


@dataclass(frozen=True)
class Project:
    """Bundled (or user-supplied) project data: plants, controllers,
    requirements, defaults, geometry and published reference results."""

    plants: dict[str, TransferFunction]
    requirements: dict[str, Requirement]
    controllers: dict[str, PidGains | StateFeedbackGains]
    reference_results: dict
    geometry: MountGeometry
    ts: float
    band_pct: float
    limits: ActuatorLimits


def load_project(path: str | Path | None = None) -> Project:
    """Load a project JSON; ``None`` loads the bundled one."""
    if path is None:
        name = "gemservo/data/project.json"
        raw = _parse_json((_data_root() / "project.json").read_bytes(), name)
    else:
        name = str(path)
        raw = _read_json(path, name)

    _object(raw, name, "defaults", "geometry", "plants", "requirements",
            "controllers", "reference_results")  # the results are free-form
    defaults = _object(_get(raw, "defaults", name), f"{name}.defaults",
                       "ts", "band_pct", "limits")
    ts = _num(_get(defaults, "ts", f"{name}.defaults"), f"{name}.defaults.ts")
    band = _num(
        _get(defaults, "band_pct", f"{name}.defaults"), f"{name}.defaults.band_pct"
    )
    for key, value in (("ts", ts), ("band_pct", band)):
        if value <= 0.0:
            raise ConfigError(f"{name}.defaults.{key}: must be positive, got {value}")
    limits = limits_from_json(
        _get(defaults, "limits", f"{name}.defaults"), f"{name}.defaults.limits"
    )
    plants = {
        key: tf_from_json(val, f"{name}.plants.{key}")
        for key, val in _table(raw, "plants", name).items()
    }
    requirements = {
        key: requirement_from_json(val, f"{name}.requirements.{key}", label=key)
        for key, val in _table(raw, "requirements", name).items()
    }
    controllers = {
        key: controller_from_json(val, f"{name}.controllers.{key}")
        for key, val in _table(raw, "controllers", name).items()
    }
    geometry = geometry_from_json(_get(raw, "geometry", name), f"{name}.geometry")
    return Project(
        plants=plants,
        requirements=requirements,
        controllers=controllers,
        reference_results=raw.get("reference_results", {}),
        geometry=geometry,
        ts=ts,
        band_pct=band,
        limits=limits,
    )


@dataclass(frozen=True)
class LoadedScenario:
    """A scenario file resolved against the project: ready to simulate."""

    name: str
    scenario: Scenario
    requirement: Requirement | None


def bundled_scenario_names() -> list[str]:
    root = _data_root() / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(
    path: str | Path,
    project: Project | None = None,
    ts_override: float | None = None,
) -> LoadedScenario:
    """Load a scenario JSON from a filesystem path or a bundled name."""
    if project is None:
        project = load_project()
    p = Path(path)
    if p.exists():
        name = str(path)
        stem = p.stem
    else:
        stem = str(path).removesuffix(".json")
        p = _data_root() / "scenarios" / f"{stem}.json"
        if not p.is_file():
            raise ConfigError(
                f"{path}: no such file and no bundled scenario of that name "
                f"(bundled: {', '.join(bundled_scenario_names())})"
            )
        name = f"bundled:{stem}"
    raw = _object(
        _parse_json(p.read_bytes(), name), name, "plant", "controller",
        "reference", "disturbance", "requirement", "limits", "ts", "duration",
        "label", "loop_delay",
    )
    plant = _named_or_inline(
        _get(raw, "plant", name), project.plants, f"{name}.plant", "plant",
        tf_from_json,
    )
    controller = _named_or_inline(
        _get(raw, "controller", name), project.controllers, f"{name}.controller",
        "controller", lambda obj, ctx: controller_from_json(obj, ctx, plant=plant),
    )
    reference = _signal_from_json(_get(raw, "reference", name), f"{name}.reference")
    disturbance = None
    if "disturbance" in raw and raw["disturbance"] is not None:
        disturbance = _disturbance_from_json(raw["disturbance"], f"{name}.disturbance")

    requirement = None
    if "requirement" in raw and raw["requirement"] is not None:
        requirement = _named_or_inline(
            raw["requirement"], project.requirements, f"{name}.requirement",
            "requirement", requirement_from_json,
        )

    limits = project.limits
    if "limits" in raw and raw["limits"] is not None:
        limits = limits_from_json(raw["limits"], f"{name}.limits")
    ts = _num(raw.get("ts", project.ts), f"{name}.ts")
    if ts_override is not None:
        ts = ts_override
    duration = _num(_get(raw, "duration", name), f"{name}.duration")
    label = _str(raw.get("label", stem), f"{name}.label")
    loop_delay = raw.get("loop_delay", False)
    if not isinstance(loop_delay, bool):
        raise ConfigError(f"{name}.loop_delay: expected true or false")
    scenario = _build(
        name,
        Scenario,
        plant=plant,
        controller=controller,
        reference=reference,
        duration=duration,
        ts=ts,
        limits=limits,
        disturbance=disturbance,
        loop_delay=loop_delay,
        label=label,
    )
    return LoadedScenario(name=stem, scenario=scenario, requirement=requirement)


def model_report_to_json(report) -> dict:
    """Serialize a sysid FitReport as a model JSON with a fit summary."""
    return {
        "num": list(report.model.num),
        "den": list(report.model.den),
        "fit": {
            "label": report.label,
            "fit_pct": report.fit_pct,
            "mse": report.mse,
            "fpe": report.fpe,
            "converged": report.converged,
            "stable": report.stable,
        },
    }
