"""Black-box identification of second-order motor velocity models.

Fits b0 / (s^2 + a1 s + a0) to sampled input/output records by minimizing the
simulation error (the fitted model is driven open-loop by the recorded input;
no measured outputs are fed back into the predictor). Each candidate is
discretized with a zero-order hold and its 2-state model is run over the
input as one linear filter: the exact z-domain transfer function of
(Ad, Bd, C), evaluated by ``scipy.signal.lfilter``. The optimizer is a damped
Gauss-Newton (Levenberg-Marquardt) iteration over (b0, a1, a0) with
central-difference Jacobians and a deterministic multistart.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lti import (
    TransferFunction,
    discretize_zoh,
    is_bibo_stable,
    simulate,
    tf_to_ss,
)

__all__ = [
    "DataSet",
    "FitMetrics",
    "FitReport",
    "load_dataset",
    "fit_metrics",
    "fit_second_order",
    "select_best",
    "integrator_augment",
]

# Drive commands are PWM frequencies; healthy records peak in the 1e5..3.5e5
# Hz range. Below this threshold the record probably holds the wrong column
# or the wrong units.
LOW_INPUT_THRESHOLD = 50_000.0

_REL_COST_TOL = 1e-10
_REL_STEP_TOL = 1e-10
_JAC_REL_STEP = 1e-6


@dataclass(frozen=True)
class DataSet:
    """Uniformly sampled input/output record (t, u, y)."""

    t: np.ndarray
    u: np.ndarray
    y: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("t", "u", "y"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must contain only finite values")
            arrays[name] = arr
        n = arrays["t"].size
        if n < 10:
            raise ValueError(f"dataset needs at least 10 samples, found {n}")
        if arrays["u"].size != n or arrays["y"].size != n:
            raise ValueError(
                "t, u, y must have equal lengths, got "
                f"{n}, {arrays['u'].size}, {arrays['y'].size}"
            )
        dt = np.diff(arrays["t"])
        ts = float(np.median(dt))
        if ts <= 0.0 or np.any(dt <= 0.0):
            raise ValueError("t must be strictly increasing")
        if np.any(np.abs(dt - ts) > 1e-6):
            k = int(np.argmax(np.abs(dt - ts)))
            raise ValueError(
                "t samples must be uniformly spaced; spacing at index "
                f"{k + 1} is {dt[k]:g}, expected {ts:g}"
            )
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        peak = float(np.max(np.abs(arrays["u"])))
        if peak < LOW_INPUT_THRESHOLD:
            warnings.warn(
                f"input peak {peak:g} is below {LOW_INPUT_THRESHOLD:g}; "
                "PWM drive commands normally reach 1e5..3.5e5 Hz, check "
                "columns and units",
                UserWarning,
                stacklevel=2,
            )

    @property
    def ts(self) -> float:
        return float(self.t[1] - self.t[0])

    def __len__(self) -> int:
        return self.t.size


def load_dataset(path: str | Path, label: str | None = None) -> DataSet:
    """Read a `t,u,y` CSV file. Errors name the file and the line."""
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


@dataclass(frozen=True)
class FitMetrics:
    """Goodness-of-fit triple for a simulated trajectory."""

    fit_pct: float
    mse: float
    fpe: float


@dataclass(frozen=True)
class FitReport:
    """Outcome of a second-order fit on one dataset."""

    model: TransferFunction
    fit_pct: float
    mse: float
    fpe: float
    converged: bool
    iterations: int
    stable: bool
    label: str = ""


def fit_metrics(y: np.ndarray, y_hat: np.ndarray, n_params: int) -> FitMetrics:
    """Normalized fit percentage, mean squared error and Akaike FPE.

    fit_pct = 100 * (1 - ||y - y_hat|| / ||y - mean(y)||)
    mse     = mean((y - y_hat)^2)
    fpe     = mse * (1 + p/N) / (1 - p/N)
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise ValueError(
            f"y and y_hat must be equal-length 1-D arrays, got {y.shape} and {y_hat.shape}"
        )
    n = y.size
    if n < 2:
        raise ValueError("fit metrics need at least 2 samples")
    if not (isinstance(n_params, (int, np.integer)) and n_params >= 0):
        raise ValueError(f"n_params must be a nonnegative integer, got {n_params}")
    if n_params >= n:
        raise ValueError(
            f"n_params ({n_params}) must be smaller than the sample count ({n})"
        )
    spread = float(np.linalg.norm(y - np.mean(y)))
    if spread == 0.0:
        raise ValueError("y is constant; fit percentage is undefined")
    err = y - y_hat
    mse = float(err @ err) / n
    fit = 100.0 * (1.0 - float(np.linalg.norm(err)) / spread)
    fpe = mse * (1.0 + n_params / n) / (1.0 - n_params / n)
    return FitMetrics(fit_pct=fit, mse=mse, fpe=fpe)


def _cost(theta: np.ndarray, u: np.ndarray, y: np.ndarray, ts: float):
    """Residual and squared error of b0/(s^2 + a1 s + a0) driven by u.

    Returns (None, inf) when the model cannot be evaluated or diverges.
    """
    # deferred: importing scipy.signal costs ~0.9 s and ~45 MB at CLI start
    from scipy.signal import lfilter

    b0, a1, a0 = (float(v) for v in theta)
    # wildly unstable candidates overflow; the nonfinite result is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            dss = discretize_zoh(
                tf_to_ss(TransferFunction((b0,), (1.0, a1, a0))), ts
            )
        except ValueError:
            return None, math.inf
        (a00, a01), (a10, a11) = dss.Ad
        bd0, bd1 = dss.Bd[:, 0]
        # exact transfer function of the sampled model from u to b0 * x1
        y_hat = lfilter(
            (0.0, b0 * bd0, b0 * (a01 * bd1 - a11 * bd0)),
            (1.0, -(a00 + a11), a00 * a11 - a01 * a10),
            u,
        )
        r = y_hat - y
        c = float(r @ r)
        # reject diverging outputs well before their squares overflow
        if not (math.isfinite(c) and np.max(np.abs(y_hat)) < 1e120):
            return None, math.inf
    return r, c


def _jacobian(theta: np.ndarray, u: np.ndarray, y: np.ndarray, ts: float):
    """Central-difference Jacobian of the residual, relative step 1e-6."""
    cols = []
    for j in range(3):
        h = _JAC_REL_STEP * max(abs(theta[j]), 1e-12)
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += h
        tm[j] -= h
        rp, cp = _cost(tp, u, y, ts)
        rm, cm = _cost(tm, u, y, ts)
        if rp is None or rm is None:
            return None
        cols.append((rp - rm) / (2.0 * h))
    return np.column_stack(cols)


def _levenberg_marquardt(theta0, u, y, ts, max_iter):
    theta = np.asarray(theta0, dtype=float).copy()
    r, cost = _cost(theta, u, y, ts)
    if r is None:
        return theta, math.inf, 0, False
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        J = _jacobian(theta, u, y, ts)
        if J is None:
            break
        g = J.T @ r
        H = J.T @ J
        diag = np.diag(np.maximum(np.diag(H), 1e-30))
        improved = False
        for _ in range(40):
            try:
                step = np.linalg.solve(H + lam * diag, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new, cost_new = _cost(theta + step, u, y, ts)
            if r_new is not None and cost_new < cost:
                rel_decrease = (cost - cost_new) / max(cost, 1e-300)
                rel_step = float(np.linalg.norm(step)) / max(
                    float(np.linalg.norm(theta)), 1e-300
                )
                theta = theta + step
                r, cost = r_new, cost_new
                lam = max(lam * 0.3, 1e-12)
                improved = True
                if rel_decrease < _REL_COST_TOL or rel_step < _REL_STEP_TOL:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not improved:
            # no descent direction within numerical precision: local minimum
            converged = True
            break
        if converged:
            break
    return theta, cost, n_iter, converged


def _default_seeds(ds: DataSet) -> list[tuple[float, float, float]]:
    """Deterministic multistart: gain from the response tail, wn from the
    10-90% rise time, damping fanned over the plausible servo band."""
    n_tail = max(1, len(ds) // 10)
    u_tail = float(np.mean(ds.u[-n_tail:]))
    y_tail = float(np.mean(ds.y[-n_tail:]))
    u_peak = float(np.max(np.abs(ds.u)))
    if abs(u_tail) > 1e-9 * max(u_peak, 1.0):
        gain = y_tail / u_tail
    else:
        uu = float(ds.u @ ds.u)
        gain = float(ds.y @ ds.u) / uu if uu > 0.0 else 1.0
    if gain == 0.0:
        gain = 1e-6

    wn0 = None
    if y_tail != 0.0:
        lo = np.nonzero(np.sign(y_tail) * ds.y >= 0.1 * abs(y_tail))[0]
        hi = np.nonzero(np.sign(y_tail) * ds.y >= 0.9 * abs(y_tail))[0]
        if lo.size and hi.size and ds.t[hi[0]] > ds.t[lo[0]]:
            rise = float(ds.t[hi[0]] - ds.t[lo[0]])
            wn0 = 1.8 / rise
    if wn0 is None or not math.isfinite(wn0):
        wn0 = 1.0 / (10.0 * ds.ts)

    seeds = []
    for zeta, wn in (
        (0.2, wn0),
        (0.45, wn0),
        (0.7, wn0),
        (0.45, 0.5 * wn0),
        (0.45, 2.0 * wn0),
    ):
        a0 = wn * wn
        seeds.append((gain * a0, 2.0 * zeta * wn, a0))
    return seeds


def fit_second_order(
    ds: DataSet,
    initial_guess: TransferFunction | tuple[float, float, float] | None = None,
    max_iter: int = 200,
) -> FitReport:
    """Fit b0/(s^2 + a1 s + a0) to the dataset by simulation-error minimization.

    With no ``initial_guess`` a 5-point deterministic multistart is run and
    the lowest final cost wins; an explicit guess (a strictly proper
    second-order TransferFunction, or a raw (b0, a1, a0) triple) replaces the
    multistart entirely. The returned metrics are evaluated with the standard
    model pipeline (ZOH discretization + simulation), p = 3 parameters.
    """
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise ValueError(f"max_iter must be a nonnegative integer, got {max_iter}")
    if float(np.ptp(ds.y)) == 0.0:
        raise ValueError("output signal is constant; nothing to fit")
    if isinstance(initial_guess, TransferFunction):
        if initial_guess.order != 2 or len(initial_guess.num) != 1:
            raise ValueError(
                "initial_guess must be strictly proper with a degree-2 "
                f"denominator and constant numerator, got {initial_guess}"
            )
        seeds = [
            (initial_guess.num[0], initial_guess.den[1], initial_guess.den[2])
        ]
    elif initial_guess is not None:
        g = tuple(float(v) for v in initial_guess)
        if len(g) != 3:
            raise ValueError("initial_guess must be (b0, a1, a0)")
        seeds = [g]
    else:
        seeds = _default_seeds(ds)

    best = None
    for seed in seeds:
        theta, cost, n_iter, converged = _levenberg_marquardt(
            np.asarray(seed, dtype=float), ds.u, ds.y, ds.ts, max_iter
        )
        if not math.isfinite(cost):
            continue
        if best is None or cost < best[1]:
            best = (theta, cost, n_iter, converged)
    if best is None:
        raise ValueError(
            "fit failed: no starting point produced a finite simulation error"
        )
    theta, _, n_iter, converged = best
    model = TransferFunction((theta[0],), (1.0, theta[1], theta[2]))
    y_hat, _ = simulate(discretize_zoh(tf_to_ss(model), ds.ts), ds.u)
    metrics = fit_metrics(ds.y, y_hat, 3)
    return FitReport(
        model=model,
        fit_pct=metrics.fit_pct,
        mse=metrics.mse,
        fpe=metrics.fpe,
        converged=converged,
        iterations=n_iter,
        stable=is_bibo_stable(model),
        label=ds.label,
    )


def select_best(reports: list[FitReport]) -> int:
    """Index of the winner: highest fit_pct, then lowest fpe, then lowest mse.

    Ties beyond that keep the earliest index, so the choice is deterministic
    under permutation of equal candidates.
    """
    if not reports:
        raise ValueError("select_best needs at least one report")
    best = 0
    for i, rep in enumerate(reports[1:], start=1):
        lead = reports[best]
        if rep.fit_pct > lead.fit_pct:
            best = i
        elif rep.fit_pct == lead.fit_pct:
            if rep.fpe < lead.fpe or (rep.fpe == lead.fpe and rep.mse < lead.mse):
                best = i
    return best


def integrator_augment(tf: TransferFunction) -> TransferFunction:
    """Cascade an integrator: G(s) -> G(s)/s (velocity model to position model)."""
    return TransferFunction(tf.num, tf.den + (0.0,))
