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

Each object's keys are declared once, in its reader's spec (``_fields``):
the key, its parser and, for an optional key, its default. A key the spec
does not name is refused, so a misspelt optional key is an error, not dropped
for its default. A transfer function may carry the ``fit`` summary of an
``identify`` model file; the project's ``reference_results`` are free-form.

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
    try:
        return obj[key]
    except KeyError:
        raise ConfigError(f"{ctx}: missing key {key!r}") from None


def _fields(obj, ctx: str, into: dict | None = None, /, **spec) -> dict:
    """The keys of the object ``obj``, each declared once in ``spec``:
    ``key=parse`` for a required key, ``key=(parse, default)`` for an optional
    one. A key the spec does not name is refused; then, in spec order, a
    required key that is missing is reported and each key present is read by
    ``parse(value, f"{ctx}.{key}")``. The values land in ``into`` (a new dict
    by default) as they are read, so a parser can use the keys before it."""
    _object(obj, ctx, *spec)
    fields = {} if into is None else into
    for key, parse in spec.items():
        if type(parse) is tuple:
            if key not in obj:
                fields[key] = parse[1]
                continue
            parse = parse[0]
        fields[key] = parse(_get(obj, key, ctx), f"{ctx}.{key}")
    return fields


def _as_is(value, ctx: str):
    return value


def _or_null(parse, default):
    """An optional key's spec entry that reads an explicit ``null`` as absent."""
    return (lambda value, ctx: default if value is None else parse(value, ctx)), default


def _named(parse):
    """A parser of a table of named entries; ``parse(entry, ctx, name)``
    reads each."""
    return lambda obj, ctx: {
        key: parse(val, f"{ctx}.{key}", key) for key, val in _object(obj, ctx).items()
    }


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


def _bool(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{ctx}: expected true or false")
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


def _named_or_inline(table: dict, kind: str, parse):
    """A parser of a ``kind`` given by name, looked up in ``table``, or inline,
    read by ``parse``."""

    def named_or_inline(spec, ctx: str):
        if not isinstance(spec, str):
            return parse(spec, ctx)
        if spec not in table:
            raise ConfigError(
                f"{ctx}: unknown {kind} {spec!r} (known: {', '.join(sorted(table))})"
            )
        return table[spec]

    return named_or_inline


def _build(ctx: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, with a ValueError it raises re-raised as
    a ConfigError under ``ctx``. The arguments are evaluated by the caller, so
    a ConfigError they raise keeps its own, more precise path."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None


def _radians(value, ctx: str) -> float:
    """A finite angle given in degrees, in radians."""
    return math.radians(_num(value, ctx))


def _tilt_deg(value, ctx: str) -> float:
    """A polar-axis tilt given in degrees, inside (-90, 90), in radians."""
    deg = _num(value, ctx)
    if not abs(deg) < 90.0:
        raise ConfigError(f"{ctx}: must lie in (-90, 90) degrees, got {deg}")
    return math.radians(deg)


def _num_list(value, ctx: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{ctx}: expected a non-empty array")
    return [_num(v, f"{ctx}[{i}]") for i, v in enumerate(value)]


def tf_from_json(obj, ctx: str) -> TransferFunction:
    f = _fields(obj, ctx, num=_num_list, den=_num_list,
                fit=(_as_is, None))  # identify's model files carry a fit
    return _build(ctx, TransferFunction, tuple(f["num"]), tuple(f["den"]))


def tf_to_json(tf: TransferFunction) -> dict:
    return {"num": list(tf.num), "den": list(tf.den)}


def _poles(plant: TransferFunction | None, ctx: str):
    """The parser of a pole-design controller's ``poles``, resolved against
    ``plant``; the controller's own path is ``ctx``."""

    def parse(raw, key_ctx: str) -> list[complex]:
        if plant is None:
            raise ConfigError(
                f"{ctx}: pole-design controllers need a plant to resolve against"
            )
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{key_ctx}: expected a non-empty array")
        want = []
        for i, pair in enumerate(raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{key_ctx}[{i}]: expected [real, imag] pair")
            want.append(
                complex(_num(pair[0], f"{key_ctx}[{i}][0]"),
                        _num(pair[1], f"{key_ctx}[{i}][1]"))
            )
        return want

    return parse


def controller_from_json(
    obj, ctx: str, plant: TransferFunction | None = None
) -> PidGains | StateFeedbackGains:
    kind = _get(_object(obj, ctx), "type", ctx)
    if kind == "pid":
        for key in ("umin", "umax"):
            if key in obj:
                raise ConfigError(
                    f"{ctx}.{key}: PID controllers take no actuator limits; set "
                    "them under the scenario's 'limits' or the project's "
                    "'defaults.limits'"
                )
        f = _fields(obj, ctx, type=_as_is, kp=_num, ki=_num, kd=(_num, 0.0),
                    n=(_num, 100.0))
        return _build(ctx, PidGains, kp=f["kp"], ki=f["ki"], kd=f["kd"],
                      deriv_filter_n=f["n"])
    if kind == "sf":
        if "poles" in obj:
            f = _fields(obj, ctx, type=_as_is, poles=_poles(plant, ctx))
            return _build(ctx, place_poles, plant, f["poles"])
        f = _fields(obj, ctx, type=_as_is, k1=_num_list, k2=_num)
        return _build(ctx, StateFeedbackGains, k1=tuple(f["k1"]), k2=f["k2"])
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
    f = _fields(obj, ctx, amplitude=_num, tss_max=_num, os_max=_num,
                ess_max=(_num, 0.0), units=(_str, ""))
    return _build(ctx, Requirement, **f, label=label)


def limits_from_json(obj, ctx: str) -> ActuatorLimits:
    f = _fields(obj, ctx, umin=_num, umax=_num)
    return _build(ctx, ActuatorLimits, u_min=f["umin"], u_max=f["umax"])


def geometry_from_json(obj, ctx: str) -> MountGeometry:
    f = _fields(obj, ctx, l1=_num, l2=_num, alpha_deg=_tilt_deg)
    return _build(ctx, MountGeometry, l1=f["l1"], l2=f["l2"], alpha=f["alpha_deg"])


# the keys of a signal spec; a disturbance adds ``inject``
_SIGNAL = dict(shape=_str, amplitude=(_num, 0.0), rate=(_num, 0.0), start=(_num, 0.0))


def _signal_from_json(obj, ctx: str) -> SignalSpec:
    return _build(ctx, SignalSpec, **_fields(obj, ctx, **_SIGNAL))


def _disturbance_from_json(obj, ctx: str) -> DisturbanceSpec:
    return _build(
        ctx, DisturbanceSpec, **_fields(obj, ctx, **_SIGNAL, inject=(_str, "input"))
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


def _defaults(obj, ctx: str) -> dict:
    """The project's ``ts``, ``band_pct`` and ``limits``; both numbers are
    checked for their type before either for its sign."""

    def band_pct(value, key_ctx: str) -> float:
        band = _num(value, key_ctx)
        for key, v in (("ts", f["ts"]), ("band_pct", band)):
            if v <= 0.0:
                raise ConfigError(f"{ctx}.{key}: must be positive, got {v}")
        return band

    f = {}
    return _fields(obj, ctx, f, ts=_num, band_pct=band_pct, limits=limits_from_json)


def load_project(path: str | Path | None = None) -> Project:
    """Load a project JSON; ``None`` loads the bundled one."""
    if path is None:
        name = "gemservo/data/project.json"
        raw = _parse_json((_data_root() / "project.json").read_bytes(), name)
    else:
        name = str(path)
        raw = _read_json(path, name)

    f = _fields(
        raw, name,
        defaults=_defaults,
        plants=_named(lambda obj, ctx, key: tf_from_json(obj, ctx)),
        requirements=_named(
            lambda obj, ctx, key: requirement_from_json(obj, ctx, label=key)
        ),
        controllers=_named(lambda obj, ctx, key: controller_from_json(obj, ctx)),
        geometry=geometry_from_json,
        reference_results=(_as_is, {}),  # free-form
    )
    defaults = f.pop("defaults")
    return Project(**f, **defaults)


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
    f = {}  # filled as read: a pole-form controller needs the plant before it
    _fields(
        _parse_json(p.read_bytes(), name), name, f,
        plant=_named_or_inline(project.plants, "plant", tf_from_json),
        controller=_named_or_inline(
            project.controllers, "controller",
            lambda obj, ctx: controller_from_json(obj, ctx, plant=f["plant"]),
        ),
        reference=_signal_from_json,
        disturbance=_or_null(_disturbance_from_json, None),
        requirement=_or_null(
            _named_or_inline(project.requirements, "requirement", requirement_from_json),
            None,
        ),
        limits=_or_null(limits_from_json, project.limits),
        ts=(_num, project.ts),
        duration=_num,
        label=(_str, stem),
        loop_delay=(_bool, False),
    )
    requirement = f.pop("requirement")
    if ts_override is not None:
        f["ts"] = ts_override
    scenario = _build(name, Scenario, **f)
    return LoadedScenario(name=stem, scenario=scenario, requirement=requirement)


def model_report_to_json(report) -> dict:
    """Serialize a sysid FitReport as a model JSON with a fit summary."""
    return {
        **tf_to_json(report.model),
        "fit": {
            "label": report.label,
            "fit_pct": report.fit_pct,
            "mse": report.mse,
            "fpe": report.fpe,
            "converged": report.converged,
            "stable": report.stable,
        },
    }
