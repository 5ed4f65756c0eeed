"""End-to-end tests of the command-line interface: exit codes, file
outputs, idempotence and the JSON mode of every subcommand."""

import json
import math
import os
import subprocess
import sys
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


def test_identify_negative_max_iter_exits_two(tmp_path, capsys):
    log = tmp_path / "log.csv"
    _write_dataset(log, PROJECT.plants["declination_velocity"], seed=3,
                   noise_frac=0.01)
    code, _, err = run_cli(
        ["identify", str(log), "--max-iter", "-3", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "max_iter must be a nonnegative integer, got -3" in err


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
    # same trace against the much tighter declination velocity budget
    code, out, err = run_cli(
        ["metrics", trace, "--check", "declination_velocity", "--json"], capsys
    )
    doc = json.loads(out)
    assert doc["passed"] in (True, False)
    code, out, err = run_cli(["metrics", trace, "--check", "bogus"], capsys)
    assert code == 2
    assert "unknown requirement" in err


def test_metrics_band_changes_the_verdict(tmp_path, capsys):
    run_cli(["simulate", "declination_velocity_pid", "--out", str(tmp_path)], capsys)
    trace = str(tmp_path / "declination_velocity_pid_trace.csv")
    code_tight, out_tight, _ = run_cli(["metrics", trace, "--json"], capsys)
    doc = json.loads(out_tight)
    assert doc["metrics"]["settled"] is True
    wide = json.loads(run_cli(["metrics", trace, "--band", "10", "--json"],
                              capsys)[1])
    assert wide["metrics"]["tss"] <= doc["metrics"]["tss"]


def test_metrics_missing_trace_exits_two(tmp_path, capsys):
    code, out, err = run_cli(["metrics", str(tmp_path / "gone.csv")], capsys)
    assert code == 2


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
        assert row["status"] == "ok"
        assert row["max_control_khz"] == 350.0
    assert mc[("declination_velocity", "pid")]["status"] == "reported"
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


def test_cli_import_leaves_scipy_signal_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys, gemservo.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_version_and_usage_errors(capsys):
    code, out, err = run_cli(["--version"], capsys)
    assert code == 0
    assert "gemservo" in out
    code, _, _ = run_cli(["definitely-not-a-command"], capsys)
    assert code == 2
    code, _, _ = run_cli([], capsys)
    assert code == 2
