"""Black-box identification of second-order motor velocity models.

Fits b0 / (s^2 + a1 s + a0) to sampled input/output records by minimizing the
simulation error (the fitted model is driven open-loop by the recorded input;
no measured outputs are fed back into the predictor). Each candidate is
discretized with a zero-order hold and its 2-state model (Ad, Bd, C) is run
over the input as one banded triangular solve: the recursion
x_{k+1} = Ad x_k + Bd u_k, written for all samples at once, solved by
forward substitution in LAPACK ``dtbtrs``. The optimizer is a damped
Gauss-Newton (Levenberg-Marquardt) iteration over (b0, a1, a0) with exact
Jacobians (the output sensitivities, filtered from the same model) and a
deterministic multistart.
"""

from __future__ import annotations

import csv
import functools
import io
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


@functools.cache
def _scipy_linalg():
    """``(expm, dtbtrs)`` from ``scipy.linalg``, imported on the first call.

    Importing ``scipy.linalg`` takes about a fifth of a second, longer than a
    warm ``identify``; only the fitter needs it, so it loads on the first fit
    and a call after that costs a cache lookup, not an import statement.
    A fit makes hundreds of exponentials, and scipy's is several times faster
    per call than ``lti._expm``; a replay or a tuner pass makes four, so
    ``lti.discretize_zoh`` keeps its own and loads no scipy.
    """
    from scipy.linalg import expm
    from scipy.linalg.lapack import dtbtrs

    return expm, dtbtrs


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
    t, u, y = np.ascontiguousarray(_read_columns(path, ("t", "u", "y")).T)
    try:
        return DataSet(t, u, y, label=label if label is not None else path.stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_columns(path: Path, names: tuple[str, ...]) -> np.ndarray:
    """The rows of a CSV file headed ``names``, as an ``(n, len(names))``
    array of finite numbers: the one reader of drive logs and loop traces.
    ``np.loadtxt`` reads a clean file, :func:`_scan_rows` any other."""
    n = len(names)
    with io.StringIO(_decode_utf8(path.read_bytes(), path), newline="") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: file is empty")
        header = next(csv.reader([line]))
        if [c.strip().lower() for c in header] != list(names):
            raise ValueError(
                f"{path}:1: expected header {','.join(names)!r}, got "
                f"{','.join(header)!r}"
            )
        start = fh.tell()
        try:
            with warnings.catch_warnings():
                # no rows: the caller reports the sample count
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
        if data is None or data.shape[1] != n or not np.all(np.isfinite(data)):
            fh.seek(start)
            data = _scan_rows(path, csv.reader(fh), names)
    return data


def _decode_utf8(data: bytes, where) -> str:
    """``data`` decoded as UTF-8 text. A byte sequence that is not UTF-8 is
    refused with a ValueError naming ``where`` and the line it is on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{where}:{line}: not UTF-8 text: {exc.reason} 0x{data[exc.start]:02x}"
        ) from None


def _scan_rows(path: Path, rows, names: tuple[str, ...]) -> np.ndarray:
    """Parse CSV data rows one at a time, for a file that ``np.loadtxt``
    rejects or reads a non-finite value from: skip rows of blank cells, and
    name the first row that is not one finite number per name by its line."""
    values = []
    for lineno, row in enumerate(rows, start=2):
        if all(not c.strip() for c in row):
            continue
        if len(row) != len(names):
            raise ValueError(
                f"{path}:{lineno}: expected {len(names)} columns, got {len(row)}"
            )
        for col, cell in zip(names, row):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: column {col}: could not parse "
                    f"{cell.strip()!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}:{lineno}: column {col}: {cell.strip()!r} is not "
                    "a finite number"
                )
            values.append(value)
    return np.array(values).reshape(-1, len(names))


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


def _zoh_block(a1: float, a0: float, ts: float) -> np.ndarray:
    """[[A, B], [0, 0]] * ts for b0/(s^2 + a1 s + a0) in the phase-variable
    form of ``lti.tf_to_ss``: the block ``lti.discretize_zoh`` exponentiates."""
    return np.array([[0.0, 1.0, 0.0], [-a0, -a1, 1.0], [0.0, 0.0, 0.0]]) * ts


def _cost(theta: np.ndarray, u: np.ndarray, y: np.ndarray, ts: float):
    """Residual and squared error of b0/(s^2 + a1 s + a0) driven by u.

    Returns (None, inf) when the model cannot be evaluated or diverges.
    """
    b0, a1, a0 = (float(v) for v in theta)
    if not (math.isfinite(b0) and math.isfinite(a1) and math.isfinite(a0)):
        return None, math.inf
    expm, dtbtrs = _scipy_linalg()
    # wildly unstable candidates overflow; the nonfinite result is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        phi = expm(_zoh_block(a1, a0, ts))
        if not np.all(np.isfinite(phi)):
            return None, math.inf
        (a00, a01, bd0), (a10, a11, bd1) = phi[:2].tolist()
        # The states x_1 .. x_{n-1} (x_0 = 0), interleaved, solve
        # x_{k+1} - Ad x_k = Bd u_k for all k at once: a unit lower-triangular
        # system of bandwidth 3, which forward substitution solves in place.
        # In LAPACK's lower band storage column j holds A[j:j + 4, j]; each
        # row of `band` is the two columns of one sample, so the band is
        # Fortran-ordered and f2py passes it without a copy.
        n = u.size
        band = np.empty((n - 1, 8))
        band[:] = (1.0, 0.0, -a00, -a10, 1.0, -a01, -a11, 0.0)
        rhs = np.empty((n - 1, 2))
        np.multiply(u[:-1], bd0, out=rhs[:, 0])
        np.multiply(u[:-1], bd1, out=rhs[:, 1])
        x, _ = dtbtrs(band.reshape(-1, 4).T, rhs.reshape(-1, 1), uplo="L",
                      diag="U", overwrite_b=1)
        r = np.empty(n)
        r[0] = 0.0
        np.multiply(x[::2, 0], b0, out=r[1:])  # y_hat = b0 x1
        # reject diverging outputs well before their squares overflow
        if not -1e120 < r.min() <= r.max() < 1e120:
            return None, math.inf
        r -= y
        c = float(r @ r)
        if not math.isfinite(c):
            return None, math.inf
    return r, c


def _jacobian(theta: np.ndarray, u: np.ndarray, y_hat: np.ndarray, ts: float):
    """Exact sensitivities d y_hat / d(b0, a1, a0) of the model output y_hat.

    y_hat = N(z)/D(z) u, with N and D read from the sampled model exp(M).
    The derivatives of exp(M) along a1 and a0 are the upper blocks of one
    block-triangular exponential (Van Loan, 1978), and each column is
    (dN u - dD y_hat) / D: lag taps applied to u/D and y_hat/D. Returns None
    when a column is not finite.
    """
    b0, a1, a0 = (float(v) for v in theta)
    expm, dtbtrs = _scipy_linalg()
    m = _zoh_block(a1, a0, ts)
    big = np.zeros((9, 9))
    for k in range(0, 9, 3):
        big[k:k + 3, k:k + 3] = m
    big[1, 4] = big[1, 6] = -ts  # dM/da1 and dM/da0
    with np.errstate(over="ignore", invalid="ignore"):
        top = expm(big)[:2].tolist()
        # exp(M), then its a1 and a0 derivatives: (a00, a01, bd0, a10, a11, bd1)
        blocks = [top[0][k:k + 3] + top[1][k:k + 3] for k in (0, 3, 6)]
        a00, a01, bd0, a10, a11, bd1 = blocks[0]
        # per column, the lag-1 and lag-2 taps on u/D, then on y_hat/D
        taps = [(bd0, a01 * bd1 - a11 * bd0, 0.0, 0.0)]
        for da00, da01, dbd0, da10, da11, dbd1 in blocks[1:]:
            taps.append((
                b0 * dbd0,
                b0 * (da01 * bd1 + a01 * dbd1 - da11 * bd0 - a11 * dbd0),
                da00 + da11,
                a01 * da10 + da01 * a10 - a00 * da11 - da00 * a11,
            ))
        # u/D and y_hat/D: D(z) = 1 - (a00 + a11) z^-1 + det(Ad) z^-2 as a
        # unit lower-triangular band of bandwidth 2, two right-hand sides
        band = np.empty((u.size, 3))
        band[:] = (1.0, -(a00 + a11), a00 * a11 - a01 * a10)
        w, _ = dtbtrs(band.T, np.array((u, y_hat)).T, uplo="L", diag="U",
                      overwrite_b=1)
        lagged = np.zeros((4, u.size))
        lagged[0, 1:] = w[:-1, 0]
        lagged[1, 2:] = w[:-2, 0]
        lagged[2, 1:] = w[:-1, 1]
        lagged[3, 2:] = w[:-2, 1]
        J = (np.array(taps) @ lagged).T
    if not np.all(np.isfinite(J)):
        return None
    return J


def _levenberg_marquardt(theta0, u, y, ts, max_iter):
    theta = np.asarray(theta0, dtype=float).copy()
    r, cost = _cost(theta, u, y, ts)
    if r is None:
        return theta, math.inf, 0, False
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        J = _jacobian(theta, u, r + y, ts)
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
    if not np.any(ds.u):
        raise ValueError("input signal is zero; nothing to fit")
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
