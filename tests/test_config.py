"""Tests for JSON loading/serialization: project data, controllers,
scenarios, and the path-qualified error messages."""

import copy
import functools
import json
import math
from importlib.resources import files

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gemservo.cli import main
from gemservo.config import (
    ConfigError,
    _read_json,
    bundled_scenario_names,
    controller_from_json,
    controller_to_json,
    geometry_from_json,
    limits_from_json,
    load_project,
    load_scenario,
    model_report_to_json,
    requirement_from_json,
    tf_from_json,
    tf_to_json,
)
from gemservo.controllers import PidGains, StateFeedbackGains, place_poles
from gemservo.lti import TransferFunction
from gemservo.sysid import FitReport


# ---------------------------------------------------------------------------
# bundled project


def test_bundled_project_contents():
    proj = load_project()
    assert proj.ts == 0.01
    assert proj.band_pct == 2.0
    assert proj.limits.u_min == 0.0
    assert proj.limits.u_max == 350_000.0
    assert proj.plants["ascension_velocity"].num == (0.09809,)
    assert proj.plants["ascension_velocity"].den == (1.0, 52.0, 1566.5)
    assert proj.plants["declination_velocity"].num == (0.1267,)
    assert proj.plants["declination_velocity"].den == (1.0, 34.72, 2018.0)
    # position plants are the velocity plants with an extra integrator
    assert proj.plants["ascension_position"].den == (1.0, 52.0, 1566.5, 0.0)
    assert proj.plants["declination_position"].den == (1.0, 34.72, 2018.0, 0.0)
    req = proj.requirements["ascension_velocity"]
    assert (req.amplitude, req.tss_max, req.os_max, req.ess_max) == (10.0, 0.2, 5.0, 0.0)
    assert req.units == "deg/s"
    assert req.label == "ascension_velocity"
    assert proj.requirements["ascension_position"].tss_max == 60.0
    assert proj.requirements["declination_velocity"].tss_max == 0.5
    assert proj.requirements["declination_position"].amplitude == 180.0
    assert set(proj.controllers) == {
        "ascension_velocity_pid", "ascension_position_pid",
        "declination_velocity_pid", "declination_position_pid",
        "ascension_velocity_sf", "ascension_position_sf",
        "declination_velocity_sf", "declination_position_sf",
    }
    assert isinstance(proj.controllers["ascension_velocity_pid"], PidGains)
    assert isinstance(proj.controllers["ascension_velocity_sf"], StateFeedbackGains)
    assert proj.geometry.l1 == 1.0
    assert proj.geometry.alpha == pytest.approx(math.radians(4.6), rel=1e-15)
    assert "tracking" in proj.reference_results


def test_load_project_from_path_and_errors(tmp_path):
    with pytest.raises(ConfigError, match="no such file"):
        load_project(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match=r"bad\.json: invalid JSON"):
        load_project(bad)
    small = tmp_path / "small.json"
    small.write_text(json.dumps({
        "defaults": {"ts": 0.02, "band_pct": 5.0,
                     "limits": {"umin": -1.0, "umax": 1.0}},
        "geometry": {"l1": 2.0, "l2": 1.0, "alpha_deg": 0.0},
        "plants": {"p": {"num": [1.0], "den": [1.0, 1.0]}},
        "requirements": {"p": {"amplitude": 1.0, "tss_max": 1.0, "os_max": 5.0}},
        "controllers": {"c": {"type": "pid", "kp": 1.0, "ki": 0.0}},
    }))
    proj = load_project(small)
    assert proj.ts == 0.02
    assert proj.plants["p"].den == (1.0, 1.0)
    assert proj.reference_results == {}


def test_project_missing_section_is_path_qualified(tmp_path):
    p = tmp_path / "partial.json"
    p.write_text(json.dumps({"defaults": {"ts": 0.01, "band_pct": 2.0,
                                          "limits": {"umin": 0.0, "umax": 1.0}}}))
    with pytest.raises(ConfigError, match="missing key 'plants'"):
        load_project(p)


# ---------------------------------------------------------------------------
# element serializers


def test_tf_json_round_trip():
    tf = TransferFunction((2.0, 1.0), (1.0, 3.0, 5.0))
    back = tf_from_json(tf_to_json(tf), "ctx")
    assert back.num == tf.num
    assert back.den == tf.den


def test_tf_from_json_error_paths():
    with pytest.raises(ConfigError, match=r"ctx: missing key 'num'"):
        tf_from_json({"den": [1.0]}, "ctx")
    with pytest.raises(ConfigError, match=r"ctx\.den: expected a non-empty array"):
        tf_from_json({"num": [1.0], "den": []}, "ctx")
    with pytest.raises(ConfigError, match=r"ctx\.num\[1\]: expected a number"):
        tf_from_json({"num": [1.0, "x"], "den": [1.0]}, "ctx")
    with pytest.raises(ConfigError, match="ctx:"):
        tf_from_json({"num": [1.0, 1.0], "den": [1.0]}, "ctx")  # improper


def test_pid_controller_json_defaults_and_round_trip():
    g = controller_from_json({"type": "pid", "kp": 1.5, "ki": 2.5}, "c")
    assert g == PidGains(kp=1.5, ki=2.5, kd=0.0, deriv_filter_n=100.0,
                         u_min=0.0, u_max=350_000.0)
    out = controller_to_json(g)
    assert "umin" not in out and "umax" not in out
    assert controller_from_json(out, "c") == g
    # limits come only from a scenario's or project's "limits"
    custom = PidGains(kp=1.0, ki=0.0, kd=0.0, u_min=-5.0, u_max=5.0)
    assert "umin" not in controller_to_json(custom)
    for key in ("umin", "umax"):
        with pytest.raises(ConfigError, match=rf"^c\.{key}: .*'limits'"):
            controller_from_json({"type": "pid", "kp": 1.0, "ki": 0.0, key: 5.0}, "c")


def test_sf_controller_json_forms():
    g = controller_from_json({"type": "sf", "k1": [1.0, 2.0], "k2": 3.0}, "c")
    assert g == StateFeedbackGains(k1=(1.0, 2.0), k2=3.0)
    back = controller_from_json(controller_to_json(g), "c")
    assert back == g
    plant = TransferFunction((0.09809,), (1.0, 52.0, 1566.5))
    want = [complex(-25.0, 18.75), complex(-25.0, -18.75), -125.0]
    designed = controller_from_json(
        {"type": "sf", "poles": [[-25.0, 18.75], [-25.0, -18.75], [-125.0, 0.0]]},
        "c", plant=plant,
    )
    direct = place_poles(plant, want)
    assert designed.k1 == pytest.approx(direct.k1, rel=1e-12)
    assert designed.k2 == pytest.approx(direct.k2, rel=1e-12)


def test_controller_json_error_paths():
    with pytest.raises(ConfigError, match="expected 'pid' or 'sf'"):
        controller_from_json({"type": "lqr"}, "c")
    with pytest.raises(ConfigError, match="need a plant"):
        controller_from_json({"type": "sf", "poles": [[-1.0, 0.0]]}, "c")
    with pytest.raises(ConfigError, match=r"c\.poles\[0\]: expected \[real, imag\]"):
        controller_from_json({"type": "sf", "poles": [[-1.0]]}, "c",
                             plant=TransferFunction((1.0,), (1.0, 1.0)))
    with pytest.raises(ConfigError, match="c:"):
        controller_from_json(
            {"type": "pid", "kp": 1.0, "ki": 0.0, "kd": 1.0, "n": 0.0}, "c"
        )  # derivative needs a positive filter coefficient


def test_requirement_limits_geometry_from_json():
    req = requirement_from_json(
        {"amplitude": 10.0, "tss_max": 0.2, "os_max": 5.0, "units": "deg/s"},
        "r", label="row",
    )
    assert req.label == "row" and req.units == "deg/s" and req.ess_max == 0.0
    with pytest.raises(ConfigError, match=r"r: missing key 'tss_max'"):
        requirement_from_json({"amplitude": 1.0, "os_max": 5.0}, "r")
    req = {"amplitude": 1.0, "tss_max": 1.0, "os_max": 5.0}
    assert requirement_from_json(req, "r").units == ""
    with pytest.raises(ConfigError, match=r"^r\.units: expected a string$"):
        requirement_from_json({**req, "units": 3}, "r")
    lim = limits_from_json({"umin": -2.0, "umax": 2.0}, "l")
    assert (lim.u_min, lim.u_max) == (-2.0, 2.0)
    with pytest.raises(ConfigError, match=r"l: missing key 'umin'"):
        limits_from_json({"umax": 2.0}, "l")
    geom = geometry_from_json({"l1": 1.0, "l2": 0.5, "alpha_deg": 90.0 / math.pi}, "g")
    assert geom.alpha == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ConfigError, match="g:"):
        geometry_from_json({"l1": -1.0, "l2": 0.5, "alpha_deg": 0.0}, "g")


# ---------------------------------------------------------------------------
# scenarios


def test_bundled_scenario_names_sorted():
    names = bundled_scenario_names()
    assert names == sorted(names)
    assert "ascension_velocity_sf" in names
    assert "declination_velocity_pid" in names
    assert "sidereal_tracking_sf" in names


def test_load_bundled_scenario_resolves_pole_design():
    loaded = load_scenario("ascension_velocity_sf")
    assert loaded.name == "ascension_velocity_sf"
    scen = loaded.scenario
    assert isinstance(scen.controller, StateFeedbackGains)
    assert loaded.requirement is not None
    assert loaded.requirement.label == "ascension_velocity"
    assert scen.duration == 2.0
    assert scen.ts == 0.01  # project default
    again = load_scenario("ascension_velocity_sf.json")  # extension optional
    assert again.scenario.controller == scen.controller


def test_load_scenario_ts_override():
    loaded = load_scenario("declination_velocity_pid", ts_override=0.002)
    assert loaded.scenario.ts == 0.002


def test_load_scenario_unknown_name_lists_bundled():
    with pytest.raises(ConfigError, match="no bundled scenario.*ascension_velocity_sf"):
        load_scenario("never_heard_of_it")


def test_load_scenario_from_file_with_inline_everything(tmp_path):
    spec = {
        "label": "inline case",
        "plant": {"num": [1.0], "den": [1.0, 2.0]},
        "controller": {"type": "pid", "kp": 3.0, "ki": 1.0},
        "reference": {"shape": "step", "amplitude": 2.0},
        "disturbance": {"shape": "step", "amplitude": 0.5, "start": 1.0,
                        "inject": "output"},
        "requirement": {"amplitude": 2.0, "tss_max": 5.0, "os_max": 20.0},
        "limits": {"umin": -10.0, "umax": 10.0},
        "ts": 0.005,
        "duration": 4.0,
    }
    p = tmp_path / "case.json"
    p.write_text(json.dumps(spec))
    loaded = load_scenario(p)
    scen = loaded.scenario
    assert loaded.name == "case"
    assert scen.label == "inline case"
    assert scen.plant.den == (1.0, 2.0)
    assert scen.controller.kp == 3.0
    assert scen.disturbance.inject == "output"
    assert scen.limits.u_max == 10.0
    assert scen.ts == 0.005
    assert loaded.requirement.tss_max == 5.0


def test_load_scenario_references_project_entries(tmp_path):
    spec = {
        "plant": "declination_velocity",
        "controller": "declination_velocity_pid",
        "reference": {"shape": "step", "amplitude": 10.0},
        "requirement": "declination_velocity",
        "duration": 2.0,
    }
    p = tmp_path / "byname.json"
    p.write_text(json.dumps(spec))
    proj = load_project()
    loaded = load_scenario(p, project=proj)
    assert loaded.scenario.plant == proj.plants["declination_velocity"]
    assert loaded.scenario.controller == proj.controllers["declination_velocity_pid"]
    assert loaded.requirement == proj.requirements["declination_velocity"]


def test_load_scenario_error_paths(tmp_path):
    base = {
        "plant": "no_such_plant",
        "controller": {"type": "pid", "kp": 1.0, "ki": 0.0},
        "reference": {"shape": "step", "amplitude": 1.0},
        "duration": 1.0,
    }
    p = tmp_path / "s.json"
    p.write_text(json.dumps(base))
    with pytest.raises(ConfigError, match="unknown plant 'no_such_plant'"):
        load_scenario(p)
    base["plant"] = "ascension_velocity"
    base["controller"] = "mystery"
    p.write_text(json.dumps(base))
    with pytest.raises(ConfigError, match="unknown controller 'mystery'"):
        load_scenario(p)
    base["controller"] = {"type": "pid", "kp": 1.0, "ki": 0.0}
    del base["duration"]
    p.write_text(json.dumps(base))
    with pytest.raises(ConfigError, match="missing key 'duration'"):
        load_scenario(p)
    base["duration"] = 1.0
    base["reference"] = {"shape": "wiggle"}
    p.write_text(json.dumps(base))
    with pytest.raises(ConfigError, match="reference"):
        load_scenario(p)


_SCENARIO = {
    "plant": "ascension_velocity",
    "controller": {"type": "pid", "kp": 1.0, "ki": 0.0},
    "reference": {"shape": "step", "amplitude": 1.0},
    "duration": 1.0,
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("plant", {"num": [1.0], "den": [1.0, "x"]},
         "plant.den[1]: expected a number, got 'x'"),
        ("controller", {"type": "pid", "kp": True, "ki": 0.0},
         "controller.kp: expected a number, got True"),
        ("controller", {"type": "sf", "k1": [1.0, None], "k2": 1.0},
         "controller.k1[1]: expected a number, got None"),
        ("reference", [], "reference: expected an object, got list"),
        ("disturbance", {"shape": "step", "start": "soon"},
         "disturbance.start: expected a number, got 'soon'"),
        ("requirement", {"tss_max": 1.0, "os_max": 5.0},
         "requirement: missing key 'amplitude'"),
        ("limits", {"umin": 0.0, "umax": False},
         "limits.umax: expected a number, got False"),
        # str() would pass these on as '1' and 'None'
        ("reference", {"shape": 1, "amplitude": 1.0},
         "reference.shape: expected a string"),
        ("disturbance", {"shape": "step", "amplitude": 1.0, "inject": None},
         "disturbance.inject: expected a string"),
        ("requirement", {"amplitude": 1.0, "tss_max": 1.0, "os_max": 5.0,
                         "units": None},
         "requirement.units: expected a string"),
    ],
)
def test_scenario_loader_errors_name_the_path_once(tmp_path, key, value, message):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({**_SCENARIO, key: value}))
    with pytest.raises(ConfigError) as info:
        load_scenario(p)
    assert str(info.value) == f"{p}.{message}"


def test_geometry_errors_name_the_path_once():
    with pytest.raises(ConfigError) as info:
        geometry_from_json({"l1": 1.0, "l2": True, "alpha_deg": 0.0}, "g")
    assert str(info.value) == "g.l2: expected a number, got True"


@pytest.mark.parametrize("value", ["false", 0, 1, None, "true"])
def test_loop_delay_must_be_a_json_boolean(tmp_path, value):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({**_SCENARIO, "loop_delay": value}))
    with pytest.raises(ConfigError) as info:
        load_scenario(p)
    assert str(info.value) == f"{p}.loop_delay: expected true or false"
    for flag in (True, False):
        p.write_text(json.dumps({**_SCENARIO, "loop_delay": flag}))
        assert load_scenario(p).scenario.loop_delay is flag


@pytest.mark.parametrize("value", [None, [1, "a"], 7, {"a": 1}, True])
def test_scenario_label_must_be_a_json_string(tmp_path, value):
    # str() printed "scenario: None" and wrote "[1, 'a']" into the JSON output
    p = tmp_path / "x.json"
    p.write_text(json.dumps({**_SCENARIO, "label": value}))
    with pytest.raises(ConfigError) as info:
        load_scenario(p)
    assert str(info.value) == f"{p}.label: expected a string"
    p.write_text(json.dumps({**_SCENARIO, "label": ""}))
    assert load_scenario(p).scenario.label == ""
    p.write_text(json.dumps(_SCENARIO))
    assert load_scenario(p).scenario.label == "x"


# a scenario with every object inline, and a small project
_INLINE = {
    "plant": {"num": [0.09809], "den": [1.0, 52.0, 1566.5]},
    "controller": {"type": "pid", "kp": 1.0, "ki": 0.0, "kd": 0.0, "n": 100.0},
    "reference": {"shape": "step", "amplitude": 1.0, "rate": 0.0, "start": 0.0},
    "disturbance": {"shape": "step", "amplitude": 1.0, "start": 0.5,
                    "inject": "input"},
    "requirement": {"amplitude": 1.0, "tss_max": 1.0, "os_max": 5.0,
                    "ess_max": 0.0, "units": "deg/s"},
    "limits": {"umin": -1.0, "umax": 1.0},
    "ts": 0.01,
    "duration": 1.0,
    "label": "inline",
    "loop_delay": False,
}
_POLES = {**_INLINE, "controller": {"type": "sf", "poles": [[-5.0, 1.0], [-5.0, -1.0],
                                                           [-20.0, 0.0]]}}
_GAINS = {**_INLINE, "controller": {"type": "sf", "k1": [1.0, 2.0], "k2": 3.0}}
_SMALL = {
    "defaults": {"ts": 0.02, "band_pct": 5.0, "limits": {"umin": -1.0, "umax": 1.0}},
    "geometry": {"l1": 2.0, "l2": 1.0, "alpha_deg": 0.0},
    "plants": {"p": {"num": [1.0], "den": [1.0, 1.0]}},
    "requirements": {"p": {"amplitude": 1.0, "tss_max": 1.0, "os_max": 5.0}},
    "controllers": {"c": {"type": "pid", "kp": 1.0, "ki": 0.0}},
    "reference_results": {},
}


def _load_any(doc, path):
    if "defaults" in doc:
        return load_project(path)
    return load_scenario(path, project=load_project())


_UNKNOWN_KEYS = {
    "project": (_SMALL, (), "controllers, defaults, geometry, plants, "
                            "reference_results, requirements"),
    "defaults": (_SMALL, ("defaults",), "band_pct, limits, ts"),
    "defaults.limits": (_SMALL, ("defaults", "limits"), "umax, umin"),
    "geometry": (_SMALL, ("geometry",), "alpha_deg, l1, l2"),
    "project.plant": (_SMALL, ("plants", "p"), "den, fit, num"),
    "project.requirement": (_SMALL, ("requirements", "p"),
                            "amplitude, ess_max, os_max, tss_max, units"),
    "project.pid": (_SMALL, ("controllers", "c"), "kd, ki, kp, n, type"),
    "scenario": (_INLINE, (), "controller, disturbance, duration, label, limits, "
                              "loop_delay, plant, reference, requirement, ts"),
    "plant": (_INLINE, ("plant",), "den, fit, num"),
    "pid": (_INLINE, ("controller",), "kd, ki, kp, n, type"),
    "sf": (_GAINS, ("controller",), "k1, k2, type"),
    "sf.poles": (_POLES, ("controller",), "poles, type"),
    "reference": (_INLINE, ("reference",), "amplitude, rate, shape, start"),
    "disturbance": (_INLINE, ("disturbance",), "amplitude, inject, rate, shape, start"),
    "requirement": (_INLINE, ("requirement",),
                    "amplitude, ess_max, os_max, tss_max, units"),
    "limits": (_INLINE, ("limits",), "umax, umin"),
}


@pytest.mark.parametrize("doc, where, known", list(_UNKNOWN_KEYS.values()),
                         ids=list(_UNKNOWN_KEYS))
def test_every_object_refuses_a_key_it_does_not_read(tmp_path, doc, where, known):
    # a misspelt optional key used to be dropped for its default
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    _load_any(doc, path)  # loads as written
    bad = copy.deepcopy(doc)
    obj = functools.reduce(lambda o, key: o[key], where, bad)
    obj["typo"] = 1.0
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError) as info:
        _load_any(bad, path)
    ctx = ".".join((str(path), *where))
    assert str(info.value) == f"{ctx}: unknown key 'typo' (known: {known})"


def test_a_geometry_file_refuses_a_key_it_does_not_read():
    with pytest.raises(ConfigError) as info:
        geometry_from_json({"l1": 1.0, "l2": 0.5, "alpha": 4.6}, "g")
    assert str(info.value) == "g: unknown key 'alpha' (known: alpha_deg, l1, l2)"


def test_a_model_file_loads_as_a_plant_and_the_results_stay_free_form(tmp_path):
    # identify writes a model as num, den and its fit summary
    report = FitReport(
        model=TransferFunction((0.1,), (1.0, 2.0, 3.0)), fit_pct=97.5, mse=0.01,
        fpe=0.011, converged=True, iterations=12, stable=True, label="run1",
    )
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**_INLINE, "plant": model_report_to_json(report)}))
    assert load_scenario(path).scenario.plant == report.model
    path.write_text(json.dumps({**_SMALL, "reference_results": {"any": {"key": 1}}}))
    assert load_project(path).reference_results == {"any": {"key": 1}}


def test_a_misspelt_scenario_exits_two_naming_the_key(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        **_SCENARIO, "loop_dealy": True, "limts": {"umin": -1.0, "umax": 1.0},
        "reference": {"shape": "step", "amplitude": 1.0, "strat": 1.0},
    }))
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: unknown key 'loop_dealy' (known: controller, " in err
    assert not list(tmp_path.glob("*.csv"))


# ---------------------------------------------------------------------------
# arbitrary JSON in a document

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def _mutated(draw, documents):
    """One of ``documents`` with the value at a drawn path through it
    replaced by arbitrary JSON, or its key removed."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return draw(_JSON_VALUES)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JSON_VALUES)
    return doc


_DATA = files("gemservo") / "data"
_FUZZED = {
    "project": (
        [json.loads((_DATA / "project.json").read_text())],
        load_project,
    ),
    "scenario": (
        [json.loads((_DATA / "scenarios" / f"{name}.json").read_text())
         for name in bundled_scenario_names()] + [_SCENARIO],
        functools.partial(load_scenario, project=load_project()),
    ),
    "geometry": (
        [{"l1": 1.0, "l2": 0.5, "alpha_deg": 4.6}],
        lambda path: geometry_from_json(_read_json(path, str(path)), str(path)),
    ),
}


@pytest.mark.parametrize("kind", sorted(_FUZZED))
@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_arbitrary_json_in_a_document_ends_in_config_error(tmp_path, kind, data):
    # every loader error is a ConfigError naming the file and the JSON path,
    # which the CLI turns into exit code 2; any other exception is a defect
    documents, load = _FUZZED[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data.draw(_mutated(documents))))
    try:
        load(path)
    except ConfigError as exc:
        assert str(exc).startswith(str(path))


@pytest.mark.parametrize("key", ["ts", "band_pct"])
@pytest.mark.parametrize("value", [0, -0.01])
def test_project_defaults_must_be_positive(tmp_path, key, value):
    # refused at load, naming the project file, not when a run is judged
    doc = json.loads((_DATA / "project.json").read_text())
    doc["defaults"][key] = value
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as info:
        load_project(path)
    assert str(info.value) == (
        f"{path}.defaults.{key}: must be positive, got {float(value)}"
    )


def test_a_project_section_that_is_not_an_object_is_path_qualified(tmp_path):
    doc = json.loads((_DATA / "project.json").read_text())
    path = tmp_path / "p.json"
    for section in ("plants", "requirements", "controllers"):
        path.write_text(json.dumps({**doc, section: "oops"}))
        with pytest.raises(ConfigError) as info:
            load_project(path)
        assert str(info.value) == f"{path}.{section}: expected an object, got str"


# ---------------------------------------------------------------------------
# model reports


def test_model_report_to_json():
    report = FitReport(
        model=TransferFunction((0.1,), (1.0, 2.0, 3.0)),
        fit_pct=97.5, mse=0.01, fpe=0.011,
        converged=True, iterations=12, stable=True, label="run1",
    )
    doc = model_report_to_json(report)
    assert doc["num"] == [0.1]
    assert doc["den"] == [1.0, 2.0, 3.0]
    assert doc["fit"]["label"] == "run1"
    assert doc["fit"]["fit_pct"] == 97.5
    assert doc["fit"]["converged"] is True
    assert doc["fit"]["stable"] is True
    json.dumps(doc)  # must be directly serializable
