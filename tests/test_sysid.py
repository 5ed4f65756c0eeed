"""Tests for black-box second-order identification: goodness-of-fit metrics,
the simulation-error fit, dataset loading and model selection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gemservo import sysid
from gemservo.lti import TransferFunction, discretize_zoh, poles, simulate, system_type, tf_to_ss
from gemservo.sysid import (
    DataSet,
    FitReport,
    fit_metrics,
    fit_second_order,
    integrator_augment,
    load_dataset,
    select_best,
)

ASC_MODEL = TransferFunction((0.09809,), (1.0, 52.0, 1566.5))
DECL_MODEL = TransferFunction((0.1267,), (1.0, 34.72, 2018.0))


def _step_data(
    model: TransferFunction,
    level: float = 250_000.0,
    ts: float = 0.005,
    n: int = 200,
    noise_sigma: float = 0.0,
    seed: int = 0,
    label: str = "",
) -> DataSet:
    u = np.full(n, level)
    y, _ = simulate(discretize_zoh(tf_to_ss(model), ts), u)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, size=n)
    return DataSet(np.arange(n) * ts, u, y, label=label)


def _report(fit_pct, fpe, mse) -> FitReport:
    return FitReport(
        model=TransferFunction((1.0,), (1.0, 1.0, 1.0)),
        fit_pct=fit_pct,
        mse=mse,
        fpe=fpe,
        converged=True,
        iterations=1,
        stable=True,
    )


# ---------------------------------------------------------------------------
# fit_metrics


def test_fit_metrics_perfect_fit():
    y = np.array([0.0, 1.0, 3.0, 2.0])
    m = fit_metrics(y, y.copy(), 3)
    assert m.fit_pct == 100.0
    assert m.mse == 0.0
    assert m.fpe == 0.0


def test_fit_metrics_hand_example():
    m = fit_metrics(np.array([0.0, 2.0]), np.array([0.0, 0.0]), 1)
    assert m.mse == 2.0
    assert m.fpe == 6.0  # 2 * (1 + 1/2) / (1 - 1/2)
    assert m.fit_pct == pytest.approx(100.0 * (1.0 - 2.0 / math.sqrt(2.0)), abs=1e-9)
    assert m.fit_pct == pytest.approx(-41.42, abs=0.01)


def test_fit_metrics_identity_only_for_exact_match():
    y = np.array([1.0, 2.0, 3.0])
    m = fit_metrics(y, y + 1e-9, 0)
    assert m.fit_pct < 100.0
    assert m.mse > 0.0


def test_fit_metrics_rejections():
    y = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="constant"):
        fit_metrics(np.ones(5), np.zeros(5), 1)
    with pytest.raises(ValueError):
        fit_metrics(y, np.zeros(4), 1)
    with pytest.raises(ValueError):
        fit_metrics(y, y, 3)  # n_params must stay below N
    with pytest.raises(ValueError):
        fit_metrics(y, y, -1)


def test_fpe_never_below_mse():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(4, 60))
        y = rng.normal(size=n)
        y_hat = y + rng.normal(scale=0.3, size=n)
        p = int(rng.integers(0, n))
        m = fit_metrics(y, y_hat, p)
        assert m.fpe >= m.mse


# ---------------------------------------------------------------------------
# DataSet


def test_dataset_requires_ten_samples():
    t = np.arange(9) * 0.01
    with pytest.raises(ValueError, match="at least 10"):
        DataSet(t, np.full(9, 2e5), np.ones(9))


def test_dataset_rejects_nonuniform_time():
    t = np.arange(12) * 0.01
    t[7] += 5e-3
    with pytest.raises(ValueError, match="uniform"):
        DataSet(t, np.full(12, 2e5), np.ones(12))


def test_dataset_accepts_jitter_below_a_microsecond():
    t = np.arange(12) * 0.01
    t[5] += 2e-7
    ds = DataSet(t, np.full(12, 2e5), np.ones(12))
    assert len(ds) == 12
    assert ds.ts == pytest.approx(0.01, abs=1e-6)


def test_dataset_rejects_mismatched_and_nonfinite():
    t = np.arange(10) * 0.01
    with pytest.raises(ValueError, match="equal lengths"):
        DataSet(t, np.full(9, 2e5), np.ones(10))
    bad = np.ones(10)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DataSet(t, np.full(10, 2e5), bad)
    with pytest.raises(ValueError, match="increasing"):
        DataSet(t[::-1], np.full(10, 2e5), np.ones(10))


def test_dataset_warns_on_low_input_level():
    t = np.arange(10) * 0.01
    with pytest.warns(UserWarning, match="below 50000"):
        DataSet(t, np.full(10, 20_000.0), np.ones(10))


def test_dataset_no_warning_at_operating_levels(recwarn):
    DataSet(np.arange(10) * 0.01, np.full(10, 250_000.0), np.ones(10))
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_dataset_arrays_are_frozen():
    ds = _step_data(ASC_MODEL, n=20)
    with pytest.raises(ValueError):
        ds.y[0] = 99.0


# ---------------------------------------------------------------------------
# load_dataset


def test_load_dataset_round_trip(tmp_path):
    p = tmp_path / "record.csv"
    rows = ["t,u,y"] + [f"{k * 0.01},{250000.0},{k * 1.5}" for k in range(15)]
    p.write_text("\n".join(rows) + "\n")
    ds = load_dataset(p)
    assert ds.label == "record"
    assert len(ds) == 15
    assert ds.u[0] == 250000.0
    assert ds.y[3] == pytest.approx(4.5)
    assert load_dataset(p, label="alt").label == "alt"


def test_load_dataset_error_lines(tmp_path):
    p = tmp_path / "bad_header.csv"
    p.write_text("time,in,out\n0,1,2\n")
    with pytest.raises(ValueError, match=r"bad_header\.csv:1: expected header"):
        load_dataset(p)

    p = tmp_path / "bad_cell.csv"
    rows = ["t,u,y"] + [f"{k * 0.01},250000,1" for k in range(12)]
    rows[5] = "0.04,oops,1"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"bad_cell\.csv:6: column u: .*'oops'"):
        load_dataset(p)

    p = tmp_path / "bad_width.csv"
    p.write_text("t,u,y\n0,1\n")
    with pytest.raises(ValueError, match=r"bad_width\.csv:2: expected 3 columns"):
        load_dataset(p)


def test_load_dataset_empty_and_short(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(p)
    p = tmp_path / "short.csv"
    p.write_text("t,u,y\n0,250000,0\n0.01,250000,1\n")
    with pytest.raises(ValueError, match=r"short\.csv: .*at least 10"):
        load_dataset(p)


# ---------------------------------------------------------------------------
# fit_second_order


def test_fit_recovers_noiseless_ascension_model():
    ds = _step_data(ASC_MODEL, label="250kHz step")
    rep = fit_second_order(ds)
    assert rep.converged
    assert rep.stable
    assert rep.label == "250kHz step"
    got = (rep.model.num[0], rep.model.den[1], rep.model.den[2])
    want = (0.09809, 52.0, 1566.5)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-3)  # within 0.1%
    assert rep.fit_pct > 99.9
    assert rep.mse >= 0.0
    assert rep.fpe >= rep.mse


def test_fit_noisy_declination_within_five_percent():
    clean = _step_data(DECL_MODEL, ts=0.004, n=250)
    span = float(np.ptp(clean.y))
    noisy = _step_data(DECL_MODEL, ts=0.004, n=250, noise_sigma=0.01 * span, seed=42)
    rep = fit_second_order(noisy)
    got = (rep.model.num[0], rep.model.den[1], rep.model.den[2])
    for g, w in zip(got, (0.1267, 34.72, 2018.0)):
        assert g == pytest.approx(w, rel=0.05)
    # validation replay on noiseless data
    y_val, _ = simulate(discretize_zoh(tf_to_ss(rep.model), clean.ts), clean.u)
    m = fit_metrics(clean.y, y_val, 3)
    assert m.fit_pct >= 90.0


def test_fit_property_random_generators_within_half_percent():
    rng = np.random.default_rng(17)
    for _ in range(20):
        zeta = rng.uniform(0.2, 0.9)
        wn = rng.uniform(10.0, 100.0)
        b0 = rng.uniform(0.01, 5.0) * wn * wn / 1e4
        gen = TransferFunction((b0,), (1.0, 2.0 * zeta * wn, wn * wn))
        duration = 10.0 / (zeta * wn)
        n = 160
        ds = _step_data(gen, ts=duration / n, n=n)
        rep = fit_second_order(ds)
        got = (rep.model.num[0], rep.model.den[1], rep.model.den[2])
        want = (b0, 2.0 * zeta * wn, wn * wn)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=5e-3), (zeta, wn)


def test_fit_rejects_constant_output():
    t = np.arange(30) * 0.01
    ds = DataSet(t, np.full(30, 250_000.0), np.zeros(30))
    with pytest.raises(ValueError, match="constant"):
        fit_second_order(ds)


def test_fit_accepts_transfer_function_guess():
    ds = _step_data(ASC_MODEL)
    rep = fit_second_order(ds, initial_guess=ASC_MODEL)
    assert rep.converged
    assert rep.model.num[0] == pytest.approx(0.09809, rel=1e-4)
    assert rep.iterations <= 10  # seeded at the truth


def test_fit_rejects_malformed_guess():
    ds = _step_data(ASC_MODEL)
    with pytest.raises(ValueError, match="initial_guess"):
        fit_second_order(ds, initial_guess=TransferFunction((1.0,), (1.0, 1.0)))
    with pytest.raises(ValueError, match="initial_guess"):
        fit_second_order(
            ds, initial_guess=TransferFunction((1.0, 2.0), (1.0, 1.0, 1.0))
        )
    with pytest.raises(ValueError):
        fit_second_order(ds, initial_guess=(1.0, 2.0))


def test_fit_reports_nonconvergence_at_iteration_cap():
    ds = _step_data(ASC_MODEL)
    rep = fit_second_order(ds, initial_guess=(0.2, 20.0, 900.0), max_iter=1)
    assert rep.iterations <= 1
    assert not rep.converged


def test_fit_flags_unstable_model_without_rejecting():
    # a slightly unstable guess left untouched by a zero-iteration budget
    ds = _step_data(ASC_MODEL, ts=0.002, n=20)
    rep = fit_second_order(ds, initial_guess=(0.1, -0.5, 1500.0), max_iter=0)
    assert not rep.converged
    assert not rep.stable


def test_fit_rejects_negative_max_iter():
    ds = _step_data(ASC_MODEL)
    with pytest.raises(ValueError, match="max_iter must be a nonnegative integer"):
        fit_second_order(ds, max_iter=-3)


def test_fit_rejects_a_guess_whose_simulation_overflows():
    # poles near +400 rad/s grow ~5x per sample: 2000 samples overflow
    ds = _step_data(ASC_MODEL, ts=0.004, n=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="fit failed"):
            fit_second_order(ds, initial_guess=(1.0, -400.0, 1.0))


@settings(deadline=None)
@given(
    b0=st.floats(1e-3, 10.0),
    a1=st.floats(-5.0, 300.0),
    a0=st.floats(1.0, 1e5),
    ts=st.floats(1e-3, 1e-2),
    n=st.integers(10, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_cost_residual_matches_lti_simulate(b0, a1, a0, ts, n, seed):
    u = 250_000.0 * np.random.default_rng(seed).standard_normal(n)
    model = TransferFunction((b0,), (1.0, a1, a0))
    ref, _ = simulate(discretize_zoh(tf_to_ss(model), ts), u)
    r, _ = sysid._cost(np.array([b0, a1, a0]), u, np.zeros(n), ts)
    assert r is not None
    assert float(np.max(np.abs(r - ref))) <= 1e-9 * float(np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# select_best


def test_select_best_prefers_higher_fit():
    reports = [_report(76.51, 0.1062, 0.105), _report(66.43, 0.3356, 0.3315)]
    assert select_best(reports) == 0


def test_select_best_tie_breaks():
    assert select_best([_report(50.0, 0.2, 0.2), _report(50.0, 0.2, 0.2)]) == 0
    assert select_best([_report(50.0, 0.2, 0.2), _report(50.0, 0.1, 0.1)]) == 1
    assert select_best([_report(50.0, 0.2, 0.2), _report(50.0, 0.2, 0.1)]) == 1


def test_select_best_rejects_empty():
    with pytest.raises(ValueError):
        select_best([])


def test_select_best_permutation_consistent():
    rng = np.random.default_rng(31)
    reports = [
        _report(float(f), float(p), float(p)) for f, p in zip(
            (10.0, 40.0, 40.0, 25.0, 39.9), (0.5, 0.3, 0.4, 0.2, 0.1)
        )
    ]
    winner = reports[select_best(reports)]
    for _ in range(10):
        perm = list(rng.permutation(len(reports)))
        shuffled = [reports[i] for i in perm]
        assert shuffled[select_best(shuffled)] is winner


# ---------------------------------------------------------------------------
# integrator_augment


def test_integrator_augment_bundled_models():
    pos = integrator_augment(ASC_MODEL)
    assert pos.num == (0.09809,)
    assert pos.den == (1.0, 52.0, 1566.5, 0.0)
    pos = integrator_augment(DECL_MODEL)
    assert pos.den == (1.0, 34.72, 2018.0, 0.0)
    simple = integrator_augment(TransferFunction((1.0,), (1.0, 1.0)))
    assert simple.den == (1.0, 1.0, 0.0)


def test_integrator_augment_raises_type_and_keeps_poles():
    rng = np.random.default_rng(13)
    for _ in range(10):
        wn = rng.uniform(1.0, 50.0)
        zeta = rng.uniform(0.2, 1.0)
        tf = TransferFunction((1.0,), (1.0, 2.0 * zeta * wn, wn * wn))
        aug = integrator_augment(tf)
        assert system_type(aug) == system_type(tf) + 1
        old = poles(tf)
        new = [p for p in poles(aug) if p != 0.0]
        np.testing.assert_allclose(
            sorted(new, key=lambda p: (p.real, p.imag)), old, rtol=1e-9, atol=1e-9
        )
