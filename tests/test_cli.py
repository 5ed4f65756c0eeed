"""End-to-end tests of the command-line interface: exit codes, file
outputs, idempotence and the JSON mode of every subcommand."""

import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gemservo import simloop
from gemservo.cli import main
from gemservo.lti import discretize_zoh, simulate, tf_to_ss
from gemservo.config import load_project
from gemservo.simloop import read_trace_csv

PROJECT = load_project()
DATA = Path(__file__).parent / "data"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_bundled_scenario_passes(tmp_path, capsys):
    code, out, err = run_cli(
        ["simulate", "ascension_velocity_sf", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "requirement: PASS" in out
    assert (tmp_path / "ascension_velocity_sf_trace.csv").is_file()
    assert (tmp_path / "ascension_velocity_sf_metrics.json").is_file()
    doc = json.loads((tmp_path / "ascension_velocity_sf_metrics.json").read_text())
    assert doc["passed"] is True
    assert doc["diverged"] is False
    assert doc["metrics"]["settled"] is True


def test_simulate_failing_requirement_exits_one(tmp_path, capsys):
    code, out, err = run_cli(
        ["simulate", "declination_velocity_pid", "--out", str(tmp_path)], capsys
    )
    assert code == 1
    assert "requirement: FAIL" in out
    assert "note: 3 command sample(s) fell below the 0 Hz lower limit" in out


def test_simulate_wide_limits_remove_negative_clipping(tmp_path, capsys):
    code, out, err = run_cli(
        ["simulate", "declination_velocity_pid", "--wide", "--out", str(tmp_path)],
        capsys,
    )
    doc = json.loads(
        (tmp_path / "declination_velocity_pid_metrics.json").read_text()
    )
    assert doc["clipped_low_samples"] == 0
    assert "fell below" not in out


def test_a_signed_actuator_clips_without_the_one_sided_reason(tmp_path, capsys):
    # under --wide the state-feedback law's first commands fall below
    # -350 kHz: clipped, but a negative drive command is realizable there
    scen = tmp_path / "signed.json"
    scen.write_text(json.dumps({
        "plant": "ascension_velocity", "controller": "ascension_velocity_sf",
        "reference": {"shape": "step", "amplitude": 10.0}, "duration": 2.0,
    }))
    _, out, _ = run_cli(
        ["simulate", str(scen), "--wide", "--out", str(tmp_path)], capsys
    )
    note = ("note: 90 command sample(s) fell below the -350000 Hz lower limit "
            "and were clipped\n")
    assert note in out
    assert "physically realizable" not in out


@pytest.mark.parametrize("wide", [[], ["--wide"]], ids=["project", "wide"])
@pytest.mark.parametrize(
    "name", ["ascension_velocity_sf", "declination_velocity_pid",
             "sidereal_tracking_sf"],
)
def test_a_written_trace_reads_back_the_clamp_simulate_printed(
    tmp_path, capsys, name, wide
):
    code, out, _ = run_cli(
        ["simulate", name, "--json", "--out", str(tmp_path)] + wide, capsys
    )
    doc = json.loads(out)
    back = read_trace_csv(tmp_path / f"{name}_trace.csv")
    assert back.clipped_low == doc["clipped_low_samples"]
    assert back.clipped_high == doc["clipped_high_samples"]
    assert back.saturation_fraction == doc["saturation_fraction"]


def test_simulate_ts_override_changes_the_grid(tmp_path, capsys):
    code, _, _ = run_cli(
        ["simulate", "ascension_velocity_sf", "--ts", "0.005",
         "--out", str(tmp_path)], capsys
    )
    assert code == 0
    trace = read_trace_csv(tmp_path / "ascension_velocity_sf_trace.csv")
    assert trace.ts == pytest.approx(0.005, rel=1e-9)


def test_simulate_loop_delay_changes_the_trace(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_cli(["simulate", "ascension_velocity_sf", "--out", str(a_dir)], capsys)
    run_cli(
        ["simulate", "ascension_velocity_sf", "--loop-delay", "--out", str(b_dir)],
        capsys,
    )
    a = (a_dir / "ascension_velocity_sf_trace.csv").read_bytes()
    b = (b_dir / "ascension_velocity_sf_trace.csv").read_bytes()
    assert a != b


def test_simulate_outputs_are_idempotent(tmp_path, capsys):
    argv = ["simulate", "declination_velocity_pid", "--out", str(tmp_path)]
    names = ("declination_velocity_pid_trace.csv",
             "declination_velocity_pid_metrics.json")
    code, out_a, _ = run_cli(argv, capsys)
    assert code == 1  # deterministic verdict too
    first = {name: (tmp_path / name).read_bytes() for name in names}
    code, out_b, _ = run_cli(argv, capsys)
    assert code == 1
    assert out_a == out_b
    for name in names:
        assert (tmp_path / name).read_bytes() == first[name]


def test_simulate_divergence_exits_three(tmp_path, capsys):
    spec = {
        "label": "runaway",
        "plant": "ascension_velocity",
        "controller": {"type": "pid", "kp": -30000.0, "ki": 0.0},
        "reference": {"shape": "step", "amplitude": 10.0},
        "limits": {"umin": -1e30, "umax": 1e30},
        "duration": 60.0,
    }
    p = tmp_path / "runaway.json"
    p.write_text(json.dumps(spec))
    code, out, err = run_cli(["simulate", str(p), "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "DIVERGED" in out


def test_simulate_unknown_scenario_exits_two(tmp_path, capsys):
    code, out, err = run_cli(["simulate", "no_such_scenario"], capsys)
    assert code == 2
    assert "error:" in err
    assert "no bundled scenario" in err


def test_simulate_pid_limits_in_controller_exit_two(tmp_path, capsys):
    # the run takes its limits from "limits" alone, so a PID "umax" would be
    # silently overridden (the loop still hit the 350 kHz rail)
    path = tmp_path / "pid_umax.json"
    path.write_text(json.dumps({
        "plant": "ascension_velocity",
        "controller": {"type": "pid", "kp": 2000, "ki": 5000, "umax": 100000},
        "reference": {"shape": "step", "amplitude": 10.0},
        "duration": 2.0,
    }))
    code, out, err = run_cli(["simulate", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert f"{path}.controller.umax: " in err
    assert "'limits'" in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"controller": {"type": "sf", "k1": [1.0], "k2": 1.0}},
         "k1 has 1 entries but the plant has 2 states"),
        ({"plant": {"num": [1.0, 0.0], "den": [1.0, 2.0]}},
         "plants with direct feedthrough (D != 0)"),
        ({"loop_delay": "false"}, None),
    ],
)
def test_simulate_scenario_errors_name_the_file(tmp_path, capsys, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "plant": "ascension_velocity",
        "controller": {"type": "pid", "kp": 2000, "ki": 5000},
        "reference": {"shape": "step", "amplitude": 10.0},
        "duration": 2.0,
        **change,
    }))
    code, out, err = run_cli(["simulate", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2
    if message is None:
        assert err == f"error: {path}.loop_delay: expected true or false\n"
    else:
        assert err.startswith(f"error: {path}: {message}")


def test_simulate_disturbance_only_scenario_has_no_step_metrics(tmp_path,
                                                              capsys):
    # a zero reference under a load step has no step to measure: the run
    # reports no step metrics and no verdict, and still writes its trace
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({
        "plant": "declination_velocity",
        "controller": "declination_velocity_pid",
        "reference": {"shape": "step", "amplitude": 0.0},
        "disturbance": {"shape": "step", "amplitude": 1000.0, "start": 1.0},
        "requirement": "declination_velocity",
        "duration": 3.0,
    }))
    code, out, err = run_cli(
        ["simulate", str(path), "--json", "--out", str(tmp_path)], capsys
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["metrics"] is None and doc["passed"] is None
    trace = read_trace_csv(tmp_path / "dist_trace.csv")
    assert len(trace) == 301 and np.all(trace.r == 0.0)
    code, out, _ = run_cli(["simulate", str(path), "--out", str(tmp_path)],
                           capsys)
    assert code == 0
    assert "tss:" not in out and "requirement:" not in out


def test_simulate_json_mode_matches_metrics_file(tmp_path, capsys):
    code, out, err = run_cli(
        ["simulate", "ascension_velocity_sf", "--json", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    on_disk = json.loads(
        (tmp_path / "ascension_velocity_sf_metrics.json").read_text()
    )
    assert doc == on_disk


@pytest.mark.parametrize(
    "scenario, code",
    [("ascension_velocity_sf", 0), ("declination_velocity_pid", 1),
     ("sidereal_tracking_sf", 0)],
)
def test_simulate_output_matches_golden(scenario, code, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    for flags, ext in (([], "txt"), (["--json"], "json")):
        got, out, _ = run_cli(["simulate", scenario, "--out", "out"] + flags,
                              capsys)
        assert got == code
        assert out.encode() == (DATA / f"simulate_{scenario}.{ext}").read_bytes()


def test_metrics_check_output_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(["simulate", "ascension_velocity_sf", "--out", "out"], capsys)
    argv = ["metrics", "out/ascension_velocity_sf_trace.csv",
            "--check", "ascension_velocity"]
    for flags, ext in (([], "txt"), (["--json"], "json")):
        code, out, _ = run_cli(argv + flags, capsys)
        assert code == 0
        assert out.encode() == (DATA / f"metrics_check.{ext}").read_bytes()


# ---------------------------------------------------------------------------
# identify


def _write_dataset(path, plant, seed, noise_frac, n=400, ts=0.004):
    rng = np.random.default_rng(seed)
    dss = discretize_zoh(tf_to_ss(plant), ts)
    u = 250_000.0 * rng.standard_normal(n)
    y, _ = simulate(dss, u)
    y = y + noise_frac * (np.max(y) - np.min(y)) * rng.standard_normal(n)
    t = np.arange(n) * ts
    lines = ["t,u,y"]
    lines += [
        f"{float(t[k])!r},{float(u[k])!r},{float(y[k])!r}" for k in range(n)
    ]
    path.write_text("\n".join(lines) + "\n")


def test_identify_selects_the_cleaner_dataset(tmp_path, capsys):
    plant = PROJECT.plants["ascension_velocity"]
    clean = tmp_path / "run_clean.csv"
    noisy = tmp_path / "run_noisy.csv"
    _write_dataset(clean, plant, seed=11, noise_frac=0.002)
    _write_dataset(noisy, plant, seed=12, noise_frac=0.08)
    code, out, err = run_cli(
        ["identify", str(clean), str(noisy), "--augment", "--json",
         "--out", str(tmp_path)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["winner"] == "run_clean"
    flags = {d["label"]: d["selected"] for d in doc["datasets"]}
    assert flags == {"run_clean": True, "run_noisy": False}
    assert doc["model"]["fit"]["converged"] is True
    # recovered denominator close to the truth
    den = doc["model"]["den"]
    assert den[0] == 1.0
    assert den[1] == pytest.approx(52.0, rel=0.05)
    assert den[2] == pytest.approx(1566.5, rel=0.05)
    # integrator augmentation writes the position model
    pos = json.loads((tmp_path / "model_position.json").read_text())
    assert pos["den"][-1] == 0.0
    assert (tmp_path / "model_velocity.json").is_file()


def test_identify_table_output_marks_the_winner(tmp_path, capsys):
    plant = PROJECT.plants["declination_velocity"]
    ds = tmp_path / "log.csv"
    _write_dataset(ds, plant, seed=3, noise_frac=0.01)
    code, out, err = run_cli(["identify", str(ds), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "selected: log" in out
    assert "*" in out
    assert "wrote" in out


def test_identify_bad_dataset_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,u,y\n0.0,1.0,oops\n")
    code, out, err = run_cli(["identify", str(bad)], capsys)
    assert code == 2
    assert "column y" in err
    code, _, err = run_cli(["identify", str(tmp_path / "missing.csv")], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "row, column, cell",
    [(0, "t", "nan"), (7, "u", "inf"), (7, "y", "nan"), (11, "y", "-Infinity")],
)
def test_identify_names_the_line_and_column_of_a_non_finite_cell(
        tmp_path, capsys, row, column, cell):
    lines = ["t,u,y"]
    for k in range(12):
        cells = [f"{0.004 * k:g}", "250000", f"{0.1 * k:g}"]
        if k == row:
            cells["tuy".index(column)] = cell
        lines.append(",".join(cells))
    log = tmp_path / "log.csv"
    log.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["identify", str(log), "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {log}:{row + 2}: column {column}: '{cell}' is not a finite "
        "number\n"
    )


def test_identify_negative_max_iter_exits_two(tmp_path, capsys):
    log = tmp_path / "log.csv"
    _write_dataset(log, PROJECT.plants["declination_velocity"], seed=3,
                   noise_frac=0.01)
    code, out, err = run_cli(
        ["identify", str(log), "--max-iter", "-3", "--out", str(tmp_path)],
        capsys,
    )
    # refused where it is parsed, naming the flag rather than the log
    assert (code, out) == (2, "")
    assert err.endswith(
        "error: argument --max-iter: must be a nonnegative integer, got '-3'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv"]


@pytest.mark.parametrize("value", ["-1", "2.5", "many", ""])
def test_max_iter_must_be_a_nonnegative_integer(tmp_path, monkeypatch, capsys,
                                                value):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["identify", "log.csv", "--max-iter", value], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: argument --max-iter: must be a nonnegative integer, got {value!r}\n"
    )
    assert list(tmp_path.iterdir()) == []


def _write_columns(path, u, y, ts=0.004):
    lines = ["t,u,y"] + [
        f"{k * ts!r},{float(uk)!r},{float(yk)!r}" for k, (uk, yk) in enumerate(zip(u, y))
    ]
    path.write_text("\n".join(lines) + "\n")


def test_identify_zero_input_exits_two(tmp_path, capsys):
    log = tmp_path / "idle.csv"
    _write_columns(log, np.zeros(50), np.sin(0.3 * np.arange(50)))
    with pytest.warns(UserWarning, match="input peak"):
        code, out, err = run_cli(["identify", str(log), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {log}: input signal is zero; nothing to fit" in err
    assert not (tmp_path / "model_velocity.json").exists()


def test_identify_low_input_warning_names_the_log(tmp_path, capsys):
    rng = np.random.default_rng(5)
    ts = 0.004
    u = 1000.0 * rng.standard_normal(400)
    dss = discretize_zoh(tf_to_ss(PROJECT.plants["declination_velocity"]), ts)
    y, _ = simulate(dss, u)
    log = tmp_path / "low.csv"
    _write_columns(log, u, y + 1e-3 * np.ptp(y) * rng.standard_normal(400), ts)
    argv = ["identify", str(log), "--out", str(tmp_path)]
    with pytest.warns(UserWarning) as caught:
        code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert [str(w.message) for w in caught] == [
        f"{log}: input peak {np.max(np.abs(u)):g} is below 50000; PWM drive "
        "commands normally reach 1e5..3.5e5 Hz, check columns and units"
    ]
    # reported where the CLI reads the log, not in the generated __init__
    assert Path(caught[0].filename).name == "cli.py"
    # stdout is that of a run with the warning silenced
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(argv, capsys) == (0, out, "")


def test_identify_fit_errors_name_the_log(tmp_path, capsys):
    good = tmp_path / "good.csv"
    flat = tmp_path / "flat.csv"
    _write_dataset(good, PROJECT.plants["declination_velocity"], seed=3,
                   noise_frac=0.01)
    _write_columns(flat, np.full(50, 250_000.0), np.full(50, 1.5))
    code, out, err = run_cli(
        ["identify", str(good), str(flat), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {flat}: output signal is constant; nothing to fit\n"


def _assert_json_close(got, want, where="$"):
    """Equal structure and non-float values; floats within 1e-8 relative."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=1e-8), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


def test_identify_output_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    plant = PROJECT.plants["ascension_velocity"]
    _write_dataset(tmp_path / "clean.csv", plant, seed=11, noise_frac=0.002)
    _write_dataset(tmp_path / "noisy.csv", plant, seed=12, noise_frac=0.08)
    argv = ["identify", "clean.csv", "noisy.csv", "--augment", "--out", "out"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.encode() == (DATA / "identify.txt").read_bytes()
    code, out, _ = run_cli(argv + ["--json"], capsys)
    assert code == 0
    _assert_json_close(
        json.loads(out), json.loads((DATA / "identify.json").read_text())
    )


# ---------------------------------------------------------------------------
# workspace


def test_workspace_defaults_and_json(tmp_path, capsys):
    code, out, err = run_cli(
        ["workspace", "--n1", "4", "--n2", "5", "--json", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == 20
    geom = PROJECT.geometry
    assert doc["radius"] == pytest.approx(math.hypot(geom.l1, geom.l2), rel=1e-12)
    lines = (tmp_path / "workspace.csv").read_text().strip().split("\n")
    assert lines[0] == "theta1_deg,theta2_deg,x,y,z"
    assert len(lines) == 21


def test_workspace_explicit_geometry_flags(tmp_path, capsys):
    code, out, err = run_cli(
        ["workspace", "--l1", "2.0", "--l2", "1.0", "--alpha", "0.0",
         "--n1", "2", "--n2", "2", "--json", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["radius"] == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert doc["alpha_deg"] == 0.0
    assert doc["z_min"] == pytest.approx(-1.0, abs=1e-12)
    assert doc["z_max"] == pytest.approx(1.0, abs=1e-12)


def test_workspace_geometry_file_and_errors(tmp_path, capsys):
    gfile = tmp_path / "geom.json"
    gfile.write_text(json.dumps({"l1": 1.5, "l2": 0.5, "alpha_deg": 10.0}))
    code, out, err = run_cli(
        ["workspace", "--geometry", str(gfile), "--n1", "2", "--n2", "2",
         "--json", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert json.loads(out)["l1"] == 1.5
    code, _, err = run_cli(["workspace", "--l1", "1.0"], capsys)
    assert code == 2
    assert "given together" in err
    code, _, err = run_cli(
        ["workspace", "--geometry", str(tmp_path / "nope.json")], capsys
    )
    assert code == 2


def test_workspace_output_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["workspace", "--n1", "4", "--n2", "5", "--out", "out"], capsys
    )
    assert code == 0
    assert out.encode() == (DATA / "workspace.txt").read_bytes()


@pytest.mark.filterwarnings("error")  # a leaked RuntimeWarning fails too
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--l1", "-1", "--l2", "1", "--alpha", "0"],
         "l1 must be positive, got -1.0"),
        (["--n1", "1"], "grid needs at least 2 points per axis, got 1 x 60"),
        # refused before the samples are allocated (10^10 rows, 373 GiB)
        (["--n1", "100000", "--n2", "100000"],
         "grid of 100000 x 100000 points would need 10000000000 samples; "
         "limit is 1000000"),
        # a radius that overflows, refused before any sample is written
        (["--l1", "1e308", "--l2", "1e308", "--alpha", "3"],
         "l1^2 + l2^2 must be finite, got l1=1e+308, l2=1e+308"),
        # refused before numpy spaces a grid over it
        (["--theta1-max", "inf"], "--theta1-max: value must be finite, got inf"),
        (["--theta2-min", "nan"], "--theta2-min: value must be finite, got nan"),
        # angles are checked in the degrees they are given in
        (["--l1", "1", "--l2", "1", "--alpha", "95"],
         "--alpha: must lie in (-90, 90) degrees, got 95.0"),
    ],
)
def test_workspace_bad_geometry_or_grid_exits_two(tmp_path, capsys, argv,
                                                  message):
    code, out, err = run_cli(["workspace", *argv, "--out", str(tmp_path)],
                             capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not (tmp_path / "workspace.csv").exists()


def test_workspace_geometry_file_quotes_its_tilt_in_degrees(tmp_path, capsys):
    gfile = tmp_path / "geom.json"
    gfile.write_text(json.dumps({"l1": 1.0, "l2": 1.0, "alpha_deg": 95}))
    code, out, err = run_cli(
        ["workspace", "--geometry", str(gfile), "--out", str(tmp_path)], capsys
    )
    assert (code, out) == (2, "")
    assert err == f"error: {gfile}.alpha_deg: must lie in (-90, 90) degrees, got 95.0\n"


def test_workspace_geometry_file_with_an_overflowing_radius_exits_two(
    tmp_path, capsys
):
    gfile = tmp_path / "geom.json"
    gfile.write_text(json.dumps({"l1": 1e308, "l2": 1e308, "alpha_deg": 3.0}))
    code, out, err = run_cli(
        ["workspace", "--geometry", str(gfile), "--out", str(tmp_path)], capsys
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: {gfile}: l1^2 + l2^2 must be finite, got l1=1e+308, l2=1e+308\n"
    )
    assert not (tmp_path / "workspace.csv").exists()


# ---------------------------------------------------------------------------
# metrics


def test_metrics_check_pass_and_fail(tmp_path, capsys):
    run_cli(["simulate", "ascension_velocity_sf", "--out", str(tmp_path)], capsys)
    trace = str(tmp_path / "ascension_velocity_sf_trace.csv")
    code, out, err = run_cli(
        ["metrics", trace, "--check", "ascension_velocity"], capsys
    )
    assert code == 0
    assert "requirement ascension_velocity: PASS" in out
    # same trace against the looser declination velocity budget
    code, out, err = run_cli(
        ["metrics", trace, "--check", "declination_velocity", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, err = run_cli(["metrics", trace, "--check", "bogus"], capsys)
    assert code == 2
    assert "unknown requirement" in err


def test_metrics_failed_check_exits_one(tmp_path, capsys):
    # the PID replay settles in 0.57 s, past the 0.5 s declination budget
    run_cli(["simulate", "declination_velocity_pid", "--out", str(tmp_path)],
            capsys)
    trace = str(tmp_path / "declination_velocity_pid_trace.csv")
    code, out, err = run_cli(
        ["metrics", trace, "--check", "declination_velocity"], capsys
    )
    assert code == 1
    assert out.endswith("requirement declination_velocity: FAIL\n")
    code, out, err = run_cli(
        ["metrics", trace, "--check", "declination_velocity", "--json"], capsys
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_metrics_band_changes_the_verdict(tmp_path, capsys):
    run_cli(["simulate", "declination_velocity_pid", "--out", str(tmp_path)], capsys)
    trace = str(tmp_path / "declination_velocity_pid_trace.csv")
    code_tight, out_tight, _ = run_cli(["metrics", trace, "--json"], capsys)
    doc = json.loads(out_tight)
    assert doc["metrics"]["settled"] is True
    wide = json.loads(run_cli(["metrics", trace, "--band", "10", "--json"],
                              capsys)[1])
    assert wide["metrics"]["tss"] <= doc["metrics"]["tss"]


def test_metrics_errors_name_the_trace(tmp_path, capsys):
    trace = tmp_path / "zero.csv"
    trace.write_text("t,r,e,u,u_sat,y\n0,0,0,0,0,0\n0.01,0,0,0,0,0\n")
    code, out, err = run_cli(["metrics", str(trace)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {trace}: reference step size is zero; step metrics are "
        "undefined\n"
    )


@pytest.mark.parametrize("band", ["0", "-1", "nan", "inf", "wide"])
@pytest.mark.parametrize(
    "argv",
    [["simulate", "ascension_velocity_sf"], ["metrics", "trace.csv"],
     ["reproduce"]],
    ids=["simulate", "metrics", "reproduce"],
)
def test_band_must_be_a_positive_number(tmp_path, monkeypatch, capsys, argv,
                                        band):
    # refused where it is parsed, naming the flag, before anything runs
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv + ["--band", band], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: argument --band: must be a positive number, got {band!r}\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ts", ["0", "-0.01", "nan", "inf", "fast"])
def test_ts_must_be_a_positive_number(tmp_path, monkeypatch, capsys, ts):
    # refused where it is parsed, naming the flag rather than the scenario
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["simulate", "ascension_velocity_sf", "--ts", ts],
                             capsys)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: argument --ts: must be a positive number, got {ts!r}\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_metrics_missing_trace_exits_two(tmp_path, capsys):
    code, out, err = run_cli(["metrics", str(tmp_path / "gone.csv")], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "row, column, cell",
    [
        (0, "t", "nan"),  # read ts = nan, which passed the spacing check
        (0, "y", "nan"),  # turned the overshoot into 0 %
        (3, "r", "-inf"),
        (3, "e", "nan"),
        (2, "u", "inf"),  # printed "max control: inf Hz"
        (2, "u_sat", "inf"),
    ],
)
def test_metrics_refuses_a_trace_with_a_non_finite_cell(tmp_path, capsys, row,
                                                        column, cell):
    names = ["t", "r", "e", "u", "u_sat", "y"]
    lines = ["t,r,e,u,u_sat,y"]
    for k in range(6):
        cells = [f"{0.01 * k:g}", "1", "0.5", "1000", "1000", "0.5"]
        if k == row:
            cells[names.index(column)] = cell
        lines.append(",".join(cells))
    trace = tmp_path / "bad.csv"
    trace.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["metrics", str(trace)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {trace}:{row + 2}: column {column}: '{cell}' is not a finite "
        "number\n"
    )


@pytest.mark.parametrize(
    "argv, name, data, problem",
    [
        (["metrics"], "trace.csv",
         b"t,r,e,u,u_sat,y\n0,1,1,0,0,0\n0.01,1,\xff,0,0,0\n",
         "3: not UTF-8 text: invalid start byte 0xff"),
        (["identify"], "log.csv", b"t,u,y\n0,250000,0\n0.004,2\xe9,0.1\n",
         "3: not UTF-8 text: invalid continuation byte 0xe9"),
        (["workspace", "--geometry"], "geom.json",
         b'{"l1": 1.5,\n "l2": "\xff", "alpha_deg": 10.0}',
         "2: not UTF-8 text: invalid start byte 0xff"),
        (["simulate"], "scenario.json",
         b'{"plant": "ascension_velocity"}\n\xc3',
         "2: not UTF-8 text: unexpected end of data 0xc3"),
    ],
    ids=["metrics", "identify", "workspace-geometry", "simulate"],
)
def test_a_file_that_is_not_utf8_exits_two_naming_the_file_and_line(
        tmp_path, capsys, argv, name, data, problem):
    # a UnicodeDecodeError used to reach the user with no file named
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run_cli(argv + [str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{problem}\n"


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (["workspace", "--geometry"], "geom.json",
         '{"l1": 1.5, "l2": ' + "7" * 5000 + ', "alpha_deg": 10.0}'),
        (["simulate"], "scenario.json",
         '{"plant": "ascension_velocity", "duration": ' + "1" * 5000 + "}"),
    ],
    ids=["workspace-geometry", "simulate"],
)
def test_a_json_number_too_long_to_convert_exits_two_naming_the_file(
        tmp_path, capsys, argv, name, text):
    # json.loads refuses an integer of more than 4300 digits with a plain
    # ValueError, not a JSONDecodeError; it used to reach the user with no
    # file named
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(argv + [str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: invalid JSON: Exceeds the limit")


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_passes_and_writes_report(tmp_path, capsys):
    code, out, err = run_cli(
        ["reproduce", "--json", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["assertions_passed"] is True
    assert (tmp_path / "reproduce.json").read_text() == out
    assert len(doc["tracking"]) == 8
    by_row = {(d["system"], d["kind"]): d for d in doc["tracking"]}
    # the only replayed loop both sampled-stable and settled gets asserted
    decl = by_row[("declination_velocity", "pid")]
    assert decl["ess_status"] == "ok"
    assert decl["linearly_stable"] and decl["settled"]
    # the 10 ms ascension replays are not sampled-stable: reported only
    asc_sf = by_row[("ascension_velocity", "sf")]
    assert asc_sf["linearly_stable"] is False
    assert asc_sf["ess_status"] == "reported"
    mc = {(d["system"], d["kind"]): d for d in doc["max_control"]}
    for system in ("ascension_velocity", "ascension_position",
                   "declination_position"):
        row = mc[(system, "pid")]
        assert row["status"] == "reported"
        assert row["max_control_khz"] == 350.0
    # a clamped peak equals the limit that clamped it: no cell can fail
    assert {d["status"] for d in doc["max_control"]} == {"reported"}
    scen = {d["name"]: d for d in doc["scenarios"]}
    assert scen["declination_velocity_pid"]["clipped_low_samples"] == 3
    assert scen["ascension_velocity_sf"]["passed"] is True


@pytest.mark.parametrize(
    "argv, golden",
    [(["reproduce"], "reproduce.txt"), (["reproduce", "--json"], "reproduce.json")],
)
def test_reproduce_output_is_byte_identical_to_golden(argv, golden, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.encode() == (DATA / golden).read_bytes()


def test_reproduce_simulates_each_tracking_case_once(monkeypatch, capsys):
    runs = []
    tracked = Counter()
    real_run, real_case = simloop.run, simloop._run_tracking_case

    def counting_run(scenario):
        runs.append(scenario.label)
        return real_run(scenario)

    def counting_case(case):
        tracked[case.label] += 1
        return real_case(case)

    monkeypatch.setattr(simloop, "run", counting_run)
    monkeypatch.setattr(simloop, "_run_tracking_case", counting_case)
    code, _, _ = run_cli(["reproduce", "--json"], capsys)
    assert code == 0
    # 8 tracking runs, 1 disturbance run (only one loop settles), 3 bundled
    assert len(runs) == 12
    assert len(tracked) == 8
    assert set(tracked.values()) == {1}


# ---------------------------------------------------------------------------
# top-level parser


def test_options_are_accepted_only_where_read(tmp_path, capsys):
    log = tmp_path / "log.csv"
    _write_dataset(log, PROJECT.plants["declination_velocity"], seed=3,
                   noise_frac=0.01)
    code, _, _ = run_cli(["reproduce", "--ts", "0.001"], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["identify", str(log), "--band", "5", "--out", str(tmp_path)], capsys
    )
    assert code == 2


def test_no_command_loads_scipy(tmp_path):
    # The package runs on numpy alone: importing the CLI, every command, the
    # fitter included, the tuner, pole placement and every config error load
    # no scipy module.
    log = tmp_path / "log.csv"
    _write_dataset(log, PROJECT.plants["declination_velocity"], seed=3,
                   noise_frac=0.01)
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "t,r,e,u,u_sat,y\n"
        + "".join(f"{0.01 * k:g},1,{0.5 ** k:g},9,9,{1 - 0.5 ** k:g}\n"
                  for k in range(8))
    )
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({
        "plant": "ascension_velocity",
        "controller": {"type": "pid", "kp": 2000, "ki": 5000},
        "reference": {"shape": "step", "amplitude": 10.0},
        "duration": 2.0,
        "label": None,
    }))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import contextlib, io, sys\n"
        "import gemservo.cli as cli\n"
        "from gemservo.config import load_project\n"
        "from gemservo.controllers import place_poles, tune_pid\n"
        "def loaded(step, code=None):\n"
        "    names = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "    print('loaded:', step, code, names, file=sys.stderr)\n"
        "proj = load_project()\n"
        "loaded('import')\n"
        "out, log, trace, scenario = sys.argv[1:]\n"
        "for argv in (['--help'], ['--version'],\n"
        "             ['workspace', '--n1', '3', '--n2', '3', '--out', out],\n"
        "             ['metrics', trace], ['simulate', scenario],\n"
        "             ['simulate', 'ascension_velocity_sf', '--out', out],\n"
        "             ['reproduce', '--out', out]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        loaded(argv[0], cli.main(argv))\n"
        "plant = proj.plants['declination_velocity']\n"
        "tune_pid(plant, proj.requirements['declination_velocity'],\n"
        "         ts=proj.ts, limits=proj.limits)\n"
        "loaded('tune_pid')\n"
        "place_poles(plant, [-25 + 18.75j, -25 - 18.75j, -125])\n"
        "loaded('place_poles')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    loaded('identify', cli.main(['identify', log, '--out', out]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out"), str(log),
         str(trace), str(scenario)],
        env=env, capture_output=True, text=True, check=True,
    )
    steps = [line for line in done.stderr.splitlines()
             if line.startswith("loaded: ")]
    assert steps == [
        "loaded: import None []",
        "loaded: --help 0 []",
        "loaded: --version 0 []",
        "loaded: workspace 0 []",
        "loaded: metrics 0 []",
        "loaded: simulate 2 []",
        "loaded: simulate 0 []",
        "loaded: reproduce 0 []",
        "loaded: tune_pid None []",
        "loaded: place_poles None []",
        "loaded: identify 0 []",
    ]


def test_version_and_usage_errors(capsys):
    code, out, err = run_cli(["--version"], capsys)
    assert code == 0
    assert "gemservo" in out
    code, _, _ = run_cli(["definitely-not-a-command"], capsys)
    assert code == 2
    code, _, _ = run_cli([], capsys)
    assert code == 2


def test_the_parser_is_built_once_and_parses_alike_every_time(capsys):
    from gemservo import cli

    assert cli._build_parser() is cli._build_parser()
    argvs = (["--help"], ["identify", "--help"], ["simulate", "--help"], [],
             ["identify", "log.csv", "--max-iter", "-1"],
             ["metrics", "t.csv", "--band", "0"], ["no-such-command"])
    first = [run_cli(argv, capsys) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 2, 2, 2]
    assert [run_cli(argv, capsys) for argv in argvs] == first
