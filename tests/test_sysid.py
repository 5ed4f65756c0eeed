"""Tests for black-box second-order identification: goodness-of-fit metrics,
the simulation-error fit, dataset loading and model selection."""

import csv
import math
import warnings
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.linalg import expm

from gemservo import sysid
from gemservo.config import load_project
from gemservo.lti import (
    DiscreteStateSpace,
    TransferFunction,
    discretize_zoh,
    poles,
    simulate,
    system_type,
    tf_to_ss,
)
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
    with pytest.warns(UserWarning, match="below 50000") as caught:
        DataSet(t, np.full(10, 20_000.0), np.ones(10))
    # reported at the caller's line, not in the generated __init__
    assert [w.filename for w in caught] == [__file__]


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


def _reference_load_dataset(path, label=None):
    """The former ``load_dataset``, kept as the reference: every cell of the
    file parsed by ``float`` in a Python loop."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        cols = [c.strip().lower() for c in header]
        if cols != ["t", "u", "y"]:
            raise ValueError(
                f"{path}:1: expected header 't,u,y', got {','.join(header)!r}"
            )
        t, u, y = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 columns, got {len(row)}"
                )
            vals = []
            for col, cell in zip("tuy", row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: column {col}: could not parse "
                        f"{cell.strip()!r} as a number"
                    ) from None
            t.append(vals[0])
            u.append(vals[1])
            y.append(vals[2])
    try:
        return DataSet(
            np.array(t), np.array(u), np.array(y),
            label=label if label is not None else path.stem,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_outcome(loader, path):
    """The arrays and label a loader returns, byte for byte, or its message."""
    try:
        ds = loader(path)
    except ValueError as exc:
        return str(exc)
    return ds.t.tobytes(), ds.u.tobytes(), ds.y.tobytes(), ds.label


def _log_rows(n=12):
    return [f"{k * 0.01!r},{250000.0 + k},{1.5 * k!r}" for k in range(n)]


# files np.loadtxt parses on its own, then files left to the row scan
_FAST_LOGS = {
    "blank_lines": "t,u,y\n\n" + "\n\n".join(_log_rows()) + "\n\n",
    "padded_cells": "t , u,y\n" + "\n".join(
        " " + r.replace(",", " ,\t") + " " for r in _log_rows()) + "\n",
    "crlf": "t,u,y\r\n" + "\r\n".join(_log_rows()) + "\r\n",
    "no_final_newline": "t,u,y\n" + "\n".join(_log_rows()),
    "crlf_no_final_newline": "t,u,y\r\n" + "\r\n".join(_log_rows()),
    "too_few_rows": "t,u,y\n" + "\n".join(_log_rows(4)) + "\n",
}
_SCANNED_LOGS = {
    "header_only": "t,u,y\n",
    "whitespace_row": "t,u,y\n" + "\n  \t\n".join(_log_rows()) + "\n",
    "comma_row": "t,u,y\n" + "\n , ,\n".join(_log_rows()) + "\n",
    "quoted_cells": "t,u,y\n" + "\n".join(
        ",".join(f'"{c}"' for c in r.split(",")) for r in _log_rows()) + "\n",
    "bad_cell": "t,u,y\n" + "\n".join(_log_rows()).replace(",250003.0,", ",oops,"),
    "empty_cell": "t,u,y\n" + "\n".join(_log_rows()).replace(",250003.0,", ",,"),
    "one_column": "t,u,y\n" + "\n".join(r.split(",")[0] for r in _log_rows()),
    "four_columns": "t,u,y\n" + "\n".join(r + ",1" for r in _log_rows()),
    "short_row": "t,u,y\n" + "\n".join(_log_rows() + ["0.2,1"]),
    "old_mac_line_ends": "t,u,y\r" + "\r".join(_log_rows()) + "\r",
}


@pytest.mark.parametrize("name", sorted(_FAST_LOGS) + sorted(_SCANNED_LOGS))
def test_load_dataset_matches_the_cell_by_cell_reference(name, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.csv"
    path.write_bytes({**_FAST_LOGS, **_SCANNED_LOGS}[name].encode())
    want = _load_outcome(_reference_load_dataset, path)
    if name in _FAST_LOGS:
        def no_scan(*args):
            raise AssertionError("np.loadtxt should have parsed this file")
        monkeypatch.setattr(sysid, "_scan_rows", no_scan)
    assert _load_outcome(load_dataset, path) == want


_CELL_FORMATS = ("{!r}", "{:.6g}", "{:.4f}", "{:e}")
_PADS = ("", " ", "  ", "\t")
_BLANK_ROWS = ("", "   ", ",,", " ,\t, ")


@st.composite
def _csv_logs(draw):
    """`t,u,y` text: padded cells in mixed formats, blank rows, CRLF or LF
    line ends, with or without a final newline, and at most one bad row."""
    ts = draw(st.sampled_from((0.001, 0.004, 0.01)))
    values = st.floats(1e5, 3.5e5), st.floats(-1e3, 1e3)
    blank = draw(st.sampled_from(_BLANK_ROWS))
    rows = []
    for k in range(draw(st.integers(8, 30))):
        cells = []
        for v in (k * ts, draw(values[0]), draw(values[1])):
            fmt = draw(st.sampled_from(_CELL_FORMATS))
            cells.append(
                draw(st.sampled_from(_PADS)) + fmt.format(v)
                + draw(st.sampled_from(_PADS))
            )
        rows.append(cells)
        if draw(st.integers(0, 4)) == 0:
            rows.append([blank])
    fault = draw(st.sampled_from((None,) * 4 + ("oops", "", "narrow", "wide")))
    if fault is not None:
        cells = draw(st.sampled_from([r for r in rows if len(r) == 3]))
        if fault == "narrow":
            cells.pop()
        elif fault == "wide":
            cells.append("1")
        else:
            cells[draw(st.integers(0, 2))] = fault
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = eol.join(["t,u,y"] + [",".join(r) for r in rows])
    return text + eol if draw(st.booleans()) else text


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_logs())
def test_load_dataset_matches_the_reference_on_generated_logs(text, tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode())
    assert _load_outcome(load_dataset, path) == _load_outcome(
        _reference_load_dataset, path
    )


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


def test_fit_rejects_zero_input():
    t = np.arange(30) * 0.01
    with pytest.warns(UserWarning, match="below 50000"):
        ds = DataSet(t, np.zeros(30), np.sin(t))
    with pytest.raises(ValueError, match="input signal is zero; nothing to fit"):
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


def _zoh_block(a1: float, a0: float, ts: float) -> np.ndarray:
    """[[A, B], [0, 0]] * ts for b0/(s^2 + a1 s + a0) in the phase-variable
    form of ``lti.tf_to_ss``: the block ``lti.discretize_zoh`` exponentiates."""
    return np.array([[0.0, 1.0, 0.0], [-a0, -a1, 1.0], [0.0, 0.0, 0.0]]) * ts


_COST_CASES = dict(
    b0=st.floats(1e-3, 10.0),
    a1=st.floats(-5.0, 300.0),
    a0=st.floats(1.0, 1e5),
    ts=st.floats(1e-3, 1e-2),
    n=st.integers(10, 2000),
    seed=st.integers(0, 2**32 - 1),
)


@settings(deadline=None)
@given(**_COST_CASES)
def test_cost_residual_matches_lti_simulate(b0, a1, a0, ts, n, seed):
    # the reference steps scipy's exponential of the same block with the
    # float recursion of lti.simulate, so both the closed-form sampled model
    # and the blocked convolution of _cost are compared
    u = 250_000.0 * np.random.default_rng(seed).standard_normal(n)
    phi = expm(_zoh_block(a1, a0, ts))
    model = DiscreteStateSpace(phi[:2, :2], phi[:2, 2:], [[b0, 0.0]], [[0.0]], ts)
    ref, _ = simulate(model, u)
    r, _ = sysid._cost(np.array([b0, a1, a0]), u, np.zeros(n), ts)
    assert r is not None
    assert float(np.max(np.abs(r - ref))) <= 1e-11 * float(np.max(np.abs(ref)))


def test_cost_residual_with_both_poles_near_one_matches_a_40_digit_recursion():
    # both poles near z = 1, where the transfer-function coefficients of the
    # sampled model lose the poles' precision; the state recursion does not.
    # A float reference is itself about 7e-12 off here, and one ulp of its
    # Ad moves it by 2e-11, so the reference is the exact model's recursion.
    b0, a1, a0, ts, n = 1.0, -5.0, 1.0, 0.008821800229229307, 263
    u = 250_000.0 * np.random.default_rng(295).standard_normal(n)
    with mpmath.workdps(40):
        block = mpmath.matrix([[0, 1, 0], [-a0, -a1, 1], [0, 0, 0]]) * ts
        phi = mpmath.expm(block)
        x0 = x1 = mpmath.mpf(0)
        ref = []
        for uk in u.tolist():
            ref.append(b0 * x0)
            x0, x1 = (phi[0, 0] * x0 + phi[0, 1] * x1 + phi[0, 2] * uk,
                      phi[1, 0] * x0 + phi[1, 1] * x1 + phi[1, 2] * uk)
        ref = np.array([float(v) for v in ref])
    r, _ = sysid._cost(np.array([b0, a1, a0]), u, np.zeros(n), ts)
    assert r is not None
    assert float(np.max(np.abs(r - ref))) <= 1e-11 * float(np.max(np.abs(ref)))


# The relative condition number of exp(M) is at least ||M|| (Higham,
# Functions of Matrices, 2008, chapter 10), so two backward-stable
# exponentials may differ by a small multiple of eps ||M||, not of eps: at
# a0 = 1e5, ts = 10 ms the block's norm is 1e3, its exponential's a few.
_ZOH_RTOL = 16 * np.finfo(float).eps
_PLANTS = [tf for _, tf in sorted(load_project().plants.items())]


@st.composite
def _zoh_models(draw):
    """(model, ts): a sysid candidate in the ``_COST_CASES`` ranges, or a
    bundled plant, at a sampling period of 1 to 10 ms."""
    ts = draw(_COST_CASES["ts"])
    if draw(st.booleans()):
        model = TransferFunction(
            (1.0,), (1.0, draw(_COST_CASES["a1"]), draw(_COST_CASES["a0"]))
        )
    else:
        model = draw(st.sampled_from(_PLANTS))
    return model, ts


@settings(deadline=None, max_examples=3000)
@given(case=_zoh_models())
def test_discretize_zoh_agrees_with_scipy_expm(case):
    # lti.discretize_zoh has its own numpy exponential. It must give the
    # sampled model of scipy's to within rounding.
    model, ts = case
    ss = tf_to_ss(model)
    n = ss.order
    block = np.block([[ss.A, ss.B], [np.zeros((1, n + 1))]]) * ts
    phi = expm(block)
    dss = discretize_zoh(ss, ts)
    tol = _ZOH_RTOL * max(1.0, np.linalg.norm(block, 1))
    for got, want in ((dss.Ad, phi[:n, :n]), (dss.Bd, phi[:n, n:])):
        err = np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)
        assert err <= tol


def _van_loan_block(a1: float, a0: float, ts: float) -> np.ndarray:
    """[[M, dM/da1, dM/da0], [0, M, 0], [0, 0, M]] for M = ``_zoh_block``:
    its exponential holds exp(M) and its a1 and a0 derivatives in the top
    rows (Van Loan, 1978)."""
    m = _zoh_block(a1, a0, ts)
    big = np.zeros((9, 9))
    for k in range(0, 9, 3):
        big[k:k + 3, k:k + 3] = m
    big[1, 4] = big[1, 6] = -ts
    return big


@st.composite
def _second_order_cases(draw):
    """(a1, a0, ts): a sysid candidate in the ``_COST_CASES`` ranges, or a
    bundled second-order plant, at a sampling period of 1 to 10 ms."""
    ts = draw(_COST_CASES["ts"])
    if draw(st.booleans()):
        return draw(_COST_CASES["a1"]), draw(_COST_CASES["a0"]), ts
    plant = draw(st.sampled_from([p for p in _PLANTS if p.order == 2]))
    return plant.den[1], plant.den[2], ts


@settings(deadline=None, max_examples=1000)
@given(case=_second_order_cases())
# repeated poles: mu^2 t^2 = 0 exactly
@example(case=(100.0, 2500.0, 0.004))
@example(case=(2.0, 1.0, 0.01))
# |mu^2 t^2| < 1e-8, real and complex: q, and T in the derivatives, must
# not cancel there
@example(case=(100.0 + 2e-9, 2500.0, 0.01))
@example(case=(100.0 - 2e-9, 2500.0, 0.01))
# a0 -> 0 and a0 <= 0: a pole at or past the origin
@example(case=(52.0, 1e-12, 0.004))
@example(case=(300.0, 1e-300, 0.01))
@example(case=(52.0, 0.0, 0.004))
@example(case=(52.0, -3.0, 0.004))
@example(case=(0.0, 0.0, 0.01))
def test_closed_form_zoh_agrees_with_scipy_expm(case):
    # _cost and _jacobian take (Ad, Bd) and their a1 and a0 derivatives in
    # closed form. They must match scipy's exponential of the 3x3 block and
    # of the 9x9 Van Loan block to within its rounding. That exponential is
    # accurate relative to its own norm, not to its small derivative blocks:
    # at a1 = 300, a0 = 1e-300, ts = 10 ms scipy's d a11 / d a1 is 8e-14 off
    # the 40-digit value, the closed form's 2e-16.
    a1, a0, ts = case
    base, d_a1, d_a0 = (np.reshape(b, (2, 3)) for b in sysid._zoh_rows(a1, a0, ts))
    block = _zoh_block(a1, a0, ts)
    phi = expm(block)[:2]
    tol = _ZOH_RTOL * max(1.0, np.linalg.norm(block, 1))
    for got, want in ((base[:, :2], phi[:, :2]), (base[:, 2:], phi[:, 2:])):
        assert np.linalg.norm(got - want, 1) <= tol * np.linalg.norm(want, 1)
    big = _van_loan_block(a1, a0, ts)
    top = expm(big)[:2]
    tol = _ZOH_RTOL * max(1.0, np.linalg.norm(big, 1)) * np.linalg.norm(top, 1)
    for got, want in ((d_a1, top[:, 3:6]), (d_a0, top[:, 6:9])):
        assert np.linalg.norm(got - want, 1) <= tol


def test_discretize_zoh_of_a_stiff_block_agrees_with_scipy_expm():
    # the edge of lti._expm's working range: poles near -1e5 and -1e-5 over
    # one sample of 1 s take 15 squarings, and both modes survive them
    ss = tf_to_ss(TransferFunction((1.0,), (1.0, 1e5, 1.0)))
    block = np.block([[ss.A, ss.B], [np.zeros((1, 3))]])
    phi = expm(block)
    dss = discretize_zoh(ss, 1.0)
    tol = _ZOH_RTOL * max(1.0, np.linalg.norm(block, 1))
    for got, want in ((dss.Ad, phi[:2, :2]), (dss.Bd, phi[:2, 2:])):
        err = np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)
        assert err <= tol
    assert dss.Ad[0, 0] < 1.0  # the slow mode e^{-1e-5} is kept


def test_cost_rejects_nonfinite_parameters_and_models():
    u = np.full(50, 250_000.0)
    y = np.zeros(50)
    for theta in ((math.nan, 52.0, 1566.5), (0.1, math.inf, 1566.5)):
        assert sysid._cost(np.array(theta), u, y, 0.004) == (None, math.inf)
    # exp(M * ts) overflows
    assert sysid._cost(np.array([0.1, -1e6, 1.0]), u, y, 0.004) == (None, math.inf)


def _central_difference_jacobian(theta, u, y, ts, rel_step=1e-6):
    """The fitter's former Jacobian, kept as the reference: central
    differences of ``_cost`` at a relative step of 1e-6.

    The step is floored at ``rel_step`` where the former code floored it at
    ``rel_step * 1e-12``: at a1 = 0 a step of 1e-18 leaves the sampled model
    unchanged in double precision, and the former a1 column read zero.
    """
    cols = []
    for j in range(3):
        h = rel_step * max(abs(theta[j]), 1.0)
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += h
        tm[j] -= h
        rp, _ = sysid._cost(tp, u, y, ts)
        rm, _ = sysid._cost(tm, u, y, ts)
        if rp is None or rm is None:
            return None
        cols.append((rp - rm) / (2.0 * h))
    return np.column_stack(cols)


@settings(deadline=None)
@given(**_COST_CASES)
def test_jacobian_matches_central_differences_of_cost(b0, a1, a0, ts, n, seed):
    u = 250_000.0 * np.random.default_rng(seed).standard_normal(n)
    y = np.zeros(n)
    theta = np.array([b0, a1, a0])
    y_hat, _ = sysid._cost(theta, u, y, ts)
    J = sysid._jacobian(theta, u, y_hat, ts)
    assert J.shape == (n, 3)
    # No one step suits every model: at a0 ts^2 ~ 1e-6 rounding in exp(M)
    # leaves the 1e-6 step 4e-5 off, while over hundreds of lightly damped
    # cycles a 1e-3 step is off by its truncation. The best of a ladder of
    # steps must agree.
    errors = []
    for rel_step in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        ref = _central_difference_jacobian(theta, u, y, ts, rel_step)
        scale = np.max(np.abs(ref), axis=0)
        errors.append(np.max(np.abs(J - ref), axis=0) / scale)
    assert np.all(np.min(errors, axis=0) <= 1e-6)


def test_fit_never_calls_discretize_zoh_and_jacobian_never_evaluates_cost(monkeypatch):
    # the clean log of the identify goldens (tests/data/identify.*)
    plant = load_project().plants["ascension_velocity"]
    n, ts = 400, 0.004
    rng = np.random.default_rng(11)
    u = 250_000.0 * rng.standard_normal(n)
    y, _ = simulate(discretize_zoh(tf_to_ss(plant), ts), u)
    y = y + 0.002 * (np.max(y) - np.min(y)) * rng.standard_normal(n)
    ds = DataSet(np.arange(n) * ts, u, y)

    calls = Counter()  # (name, called inside _jacobian) -> count
    depth = [0]

    def spy(name, fn):
        def wrapper(*args):
            calls[name, depth[0] > 0] += 1
            depth[0] += name == "_jacobian"
            try:
                return fn(*args)
            finally:
                depth[0] -= name == "_jacobian"
        return wrapper

    for name in ("discretize_zoh", "_cost", "_jacobian"):
        monkeypatch.setattr(sysid, name, spy(name, getattr(sysid, name)))
    rep = fit_second_order(ds)
    assert rep.converged
    assert calls["_jacobian", False] > 0
    # the reported metrics come from the fit's own simulation, _cost
    assert calls["discretize_zoh", False] == 0
    assert calls["discretize_zoh", True] == calls["_cost", True] == 0


# ---------------------------------------------------------------------------
# the default multistart: ARX/IV seeds, one-cost screen, early stop


def _multistart_reference(ds: DataSet, max_iter: int = 200):
    """The multistart the ARX/IV screen replaced: LM to convergence from each
    of the five fanned seeds, the lowest finite final cost kept."""
    best = None
    for seed in sysid._default_seeds(ds):
        theta, cost, n_iter, converged = sysid._levenberg_marquardt(
            np.asarray(seed, dtype=float), ds.u, ds.y, ds.ts, max_iter
        )
        if math.isfinite(cost) and (best is None or cost < best[1]):
            best = (theta, cost, n_iter, converged)
    return best


def _excitation(rng, kind: str, n: int, wn_ts: float) -> np.ndarray:
    """A drive log's input: one step, a PRBS between two positive levels or
    about zero, or Gaussian; PRBS levels are held up to 3 / (wn ts) samples."""
    if kind == "step":
        u = np.zeros(n)
        u[int(rng.integers(0, n // 8)):] = rng.uniform(150e3, 300e3)
        return u
    if kind == "gauss":
        return 250e3 * rng.standard_normal(n)
    if kind == "prbs":
        levels = (rng.uniform(50e3, 100e3), rng.uniform(250e3, 300e3))
    else:  # "prbs0"
        levels = (-250e3, 250e3)
    u = np.empty(n)
    k, high = 0, bool(rng.integers(2))
    while k < n:
        hold = int(rng.integers(1, max(2, int(3.0 / wn_ts)) + 1))
        u[k:k + hold] = levels[high]
        k, high = k + hold, not high
    return u


def _second_order_log(rng, kind, zeta, wn, ts, n, noise, gain=1e-5) -> DataSet:
    """The ZOH response of gain wn^2 / (s^2 + 2 zeta wn s + wn^2) to a drawn
    excitation, plus Gaussian noise of ``noise`` times the output's span."""
    plant = TransferFunction((gain * wn * wn,), (1.0, 2.0 * zeta * wn, wn * wn))
    u = _excitation(rng, kind, n, wn * ts)
    y, _ = simulate(discretize_zoh(tf_to_ss(plant), ts), u)
    y = y + noise * np.ptp(y) * rng.standard_normal(n)
    return DataSet(np.arange(n) * ts, u, y, label=f"{kind} zeta {zeta:.3g} wn {wn:.3g}")


def _family_log(seed: int) -> DataSet:
    """One seeded log of the family the multistart is held to: zeta 0.1..2,
    wn ts 0.02..0.5 (log-uniform), 2 to 10 periods of 2 pi / wn recorded,
    noise up to 5 % of the span, and one gain in five negative."""
    rng = np.random.default_rng(seed)
    kind = ("step", "prbs", "prbs0", "gauss")[seed % 4]
    zeta = rng.uniform(0.1, 2.0)
    wn_ts = math.exp(rng.uniform(math.log(0.02), math.log(0.5)))
    ts = float(rng.choice([0.001, 0.002, 0.004, 0.01]))
    n = min(4000, max(200, math.ceil(rng.uniform(2, 10) * 2 * math.pi / wn_ts)))
    noise = rng.uniform(0.0, 0.05)
    gain = rng.uniform(0.05, 2.0) * 1e-5 * (-1 if rng.random() < 0.2 else 1)
    return _second_order_log(rng, kind, zeta, wn_ts / ts, ts, n, noise, gain)


def _identify_golden_logs() -> list[DataSet]:
    """The clean and noisy logs of the identify goldens (tests/data/identify.*)."""
    plant = load_project().plants["ascension_velocity"]
    n, ts = 400, 0.004
    logs = []
    for seed, noise in ((11, 0.002), (12, 0.08)):
        rng = np.random.default_rng(seed)
        u = 250_000.0 * rng.standard_normal(n)
        y, _ = simulate(discretize_zoh(tf_to_ss(plant), ts), u)
        y = y + noise * (np.max(y) - np.min(y)) * rng.standard_normal(n)
        logs.append(DataSet(np.arange(n) * ts, u, y, label=f"golden {seed}"))
    return logs


def _acceptance_05_logs() -> list[DataSet]:
    """The 20 logs of test_acceptance_05: both velocity plants, seeds 0..9."""
    n, ts = 250, 0.004
    logs = []
    for plant in (ASC_MODEL, DECL_MODEL):
        dss = discretize_zoh(tf_to_ss(plant), ts)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            u = 250_000.0 * rng.standard_normal(n)
            y, _ = simulate(dss, u)
            y = y + 0.01 * float(np.ptp(y)) * rng.standard_normal(n)
            logs.append(DataSet(np.arange(n) * ts, u, y, label=f"acc05 {seed}"))
    return logs


def _single_start_sinkers() -> list[DataSet]:
    """Logs like the three on which polishing only the cheapest start ended
    far above the five-start cost (530x on the PRBS one)."""
    return [
        _second_order_log(np.random.default_rng(1), "prbs", 0.54, 8.0, 0.004, 2402, 0.01),
        _second_order_log(np.random.default_rng(2), "step", 0.22, 119.0, 0.001, 1903, 0.03),
        _second_order_log(np.random.default_rng(3), "gauss", 1.56, 2.3, 0.01, 2506, 0.01),
    ]


def test_the_default_multistart_never_ends_above_the_five_start_cost():
    logs = _identify_golden_logs() + _acceptance_05_logs() + _single_start_sinkers()
    # seeds 120 on, the family logs on which a sketch of this search ended
    # above the five-start cost: stopping on two starts that agree on a poor
    # fit (810, 1458, 1626, 2022, 2534, 3918), and instruments from the
    # cheapest start alone (2587)
    seeds = [*range(120), 810, 1458, 1626, 2022, 2534, 2587, 3918]
    logs += [_family_log(seed) for seed in seeds]
    kinds = Counter(ds.label.split()[0] for ds in logs)
    assert all(kinds[k] >= 30 for k in ("step", "prbs", "prbs0", "gauss"))
    for ds in logs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = fit_second_order(ds)
        theta = np.array((rep.model.num[0], rep.model.den[1], rep.model.den[2]))
        _, cost = sysid._cost(theta, ds.u, ds.y, ds.ts)
        ref = _multistart_reference(ds)[1]
        assert cost <= ref * (1.0 + 1e-9) + 1e-20 * float(ds.y @ ds.y), ds.label


def _plant_theta(b0, zeta, wn):
    return b0, 2.0 * zeta * wn, wn * wn


@pytest.mark.parametrize(
    "theta",
    [
        _plant_theta(0.09809, 0.66, 39.6),  # complex pair
        _plant_theta(0.1267, 1.8, 44.9),  # real pair
        _plant_theta(0.05, 1.0, 25.0),  # repeated pole
        _plant_theta(-0.02, 0.3, 80.0),  # negative gain
        _plant_theta(-0.3, 2.5, 12.0),  # negative gain, real pair
    ],
)
def test_the_arx_seed_recovers_a_noiseless_plant(theta):
    ts, n = 0.004, 600
    plant = TransferFunction((theta[0],), (1.0, theta[1], theta[2]))
    u = 250_000.0 * np.random.default_rng(8).standard_normal(n)
    y, _ = simulate(discretize_zoh(tf_to_ss(plant), ts), u)
    got = sysid._arx_seed(u, y, ts)
    assert got is not None
    for g, w in zip(got, theta):
        assert g == pytest.approx(w, rel=1e-8)


def test_the_arx_map_refuses_poles_without_a_continuous_preimage():
    ts = 0.004
    # alpha2 = z1 z2 <= 0: a pole at zero, or real poles of opposite signs
    assert sysid._arx_to_continuous(-0.9, 0.0, 1e-6, ts) is None
    assert sysid._arx_to_continuous(-0.2, -0.15, 1e-6, ts) is None  # z = 0.5, -0.3
    # both poles real and negative: z = -0.5, -0.3
    assert sysid._arx_to_continuous(0.8, 0.15, 1e-6, ts) is None
    # one negative real pole with the other positive already has alpha2 < 0;
    # a positive real pair maps
    assert sysid._arx_to_continuous(-0.8, 0.15, 1e-6, ts) is not None


def test_instrumental_variables_undo_the_bias_of_plain_arx_under_noise():
    # 5 % output noise on a zero-mean Gaussian drive: least squares finds no
    # model, the IV estimate from the cheapest fanned start's simulated
    # output lands near the plant
    truth = (0.1267, 34.72, 2018.0)
    ts, n = 0.01, 2000
    rng = np.random.default_rng(17)
    u = 250_000.0 * rng.standard_normal(n)
    y, _ = simulate(discretize_zoh(tf_to_ss(DECL_MODEL), ts), u)
    y = y + 0.05 * np.ptp(y) * rng.standard_normal(n)
    ds = DataSet(np.arange(n) * ts, u, y)
    assert sysid._arx_seed(u, y, ts) is None
    r, _ = min(
        (sysid._cost(np.array(seed), u, y, ts) for seed in sysid._default_seeds(ds)),
        key=lambda priced: priced[1],
    )
    got = sysid._arx_seed(u, y, ts, r + y)
    assert got is not None
    for g, w in zip(got, truth):
        assert g == pytest.approx(w, rel=0.05)


def test_the_multistart_evaluates_the_model_at_most_half_as_often(monkeypatch):
    # the five-start multistart made 538 _cost + _jacobian calls on this log
    # (324 + 214); the ARX/IV screen stops after polishing two starts
    ds = _identify_golden_logs()[0]
    calls = Counter()

    def spy(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_cost", "_jacobian"):
        monkeypatch.setattr(sysid, name, spy(name, getattr(sysid, name)))
    fit_second_order(ds)
    assert calls["_cost"] + calls["_jacobian"] <= 538 // 2


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
