"""Black-box identification of second-order motor velocity models.

Fits b0 / (s^2 + a1 s + a0) to sampled input/output records by minimizing the
simulation error (the fitted model is driven open-loop by the recorded input;
no measured outputs are fed back into the predictor). Each candidate is
discretized with a zero-order hold in closed form: for the 2-state companion
block, e^{At} = e^{sigma t} [C(mu^2 t^2) I + t S(mu^2 t^2) (A - sigma I)] with
sigma = -a1/2 and mu^2 = sigma^2 - a0, C and S entire, so real, repeated and
complex poles take one path. The recursion x_{k+1} = Ad x_k + Bd u_k is run
over the input as a blocked convolution: one matrix product with the
Toeplitz matrix of the model's impulse response within blocks of about
sqrt(N) samples, and the block-boundary states from the same closed form. The
optimizer is a damped Gauss-Newton (Levenberg-Marquardt) iteration over
(b0, a1, a0) with exact Jacobians (the output sensitivities, filtered from
the same model). Its starts are screened, not all polished: the fanned
rise-time seeds and linear ARX(2,2) and instrumental-variable estimates are
each priced with one simulation, LM polishes the two cheapest and stops when
they agree on a good fit, and polishes every start otherwise. A fit reports
the metrics of the same simulation it minimized. Fitting needs numpy only.
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

from .lti import TransferFunction, discretize_zoh, is_bibo_stable, simulate

__all__ = [
    "DataSet",
    "FitMetrics",
    "FitReport",
    "load_dataset",
    "fit_metrics",
    "fit_second_order",
    "select_best",
    "integrator_augment",
    # the model pipeline, as functions, for callers that look them up here
    "discretize_zoh",
    "simulate",
]

# Drive commands are PWM frequencies; healthy records peak in the 1e5..3.5e5
# Hz range. Below this threshold the record probably holds the wrong column
# or the wrong units.
LOW_INPUT_THRESHOLD = 50_000.0

_REL_COST_TOL = 1e-10
_REL_STEP_TOL = 1e-10


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
                stacklevel=3,  # the caller of the generated __init__
            )

    @property
    def ts(self) -> float:
        return float(self.t[1] - self.t[0])

    def __len__(self) -> int:
        return self.t.size


def load_dataset(path: str | Path, label: str | None = None) -> DataSet:
    """Read a `t,u,y` CSV file. Errors and warnings name the file, errors
    also the line."""
    path = Path(path)
    t, u, y = np.ascontiguousarray(_read_columns(path, ("t", "u", "y")).T)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = DataSet(t, u, y, label=label if label is not None else path.stem)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    for w in caught:
        warnings.warn(f"{path}: {w.message}", w.category, stacklevel=2)
    return ds


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


# The sampled model in closed form. In the phase-variable form
# A = [[0, 1], [-a0, -a1]], B = [0, 1]^T. With sigma = -a1/2 and
# mu2 = sigma^2 - a0, (A - sigma I)^2 = mu2 I, so
#     e^{At} = c(t) I + q(t) (A - sigma I),
#     c = e^{sigma t} C(mu2 t^2),   q = t e^{sigma t} S(mu2 t^2),
# where C(z) = cosh(sqrt z) and S(z) = sinh(sqrt z)/sqrt z are entire in z:
# real (mu2 > 0), repeated (mu2 = 0) and complex (mu2 < 0) poles are one
# function. Since A B = [1, -a1]^T, Bd = int_0^t e^{As} B ds has bd1 = q(t),
# and bd0 is the step response of 1/(s^2 + a1 s + a0) (:func:`_hold_integral`).
# The a1 and a0 derivatives need one more entire function,
#     r = t^3 e^{sigma t} T(mu2 t^2),   T(z) = (C(z) - S(z)) / z,
# since dC/dz = S/2 and dS/dz = T/2.

# Taylor coefficients, highest power first, of T(z) = sum (2k+2)/(2k+3)! z^k:
# ten terms reach rounding for |z| <= 1.
_T_TAYLOR = tuple((2 * k + 2) / math.factorial(2 * k + 3) for k in range(9, -1, -1))


# The series of :func:`_hold_integral`, for poles within 1 of 0: terms
# h_n / (n+2)! with |h_n| <= n + 1, and H_n / (n+4)! with |H_n| <= C(n+3, 3),
# are below 2^-60 from n = 19 on.
_E_TAYLOR = tuple(1.0 / math.factorial(n + 2) for n in range(19))
_F_TAYLOR = tuple(1.0 / math.factorial(n + 4) for n in range(19))


def _exp_cq(sigma: float, mu2: float, t, lib=math):
    """(c, q) of e^{At} = c I + q (A - sigma I) at time ``t``: a float with
    ``lib=math``, an array of times with ``lib=np``.

    With real poles sigma +- mu, e^{sigma t} cosh and sinh are written as
    sums of e^{(sigma +- mu) t}, taken as e^{(sigma + mu) t} (1 + d) with
    d = expm1(-2 mu t): a finite model never overflows on the way, and q keeps
    its relative accuracy as mu t -> 0, where the difference would cancel.
    With complex poles cos and sin do the same. For sigma < 0 the larger pole
    sigma + mu is computed as a0 / (sigma - mu), which does not cancel.
    """
    if mu2 > 0.0:
        mu = math.sqrt(mu2)
        top = sigma + mu if sigma >= 0.0 else (sigma * sigma - mu2) / (sigma - mu)
        e = lib.exp(top * t)
        ed = e * lib.expm1(-2.0 * mu * t)
        return e + 0.5 * ed, ed * (-0.5 / mu)
    e = lib.exp(sigma * t)
    if mu2 < 0.0:
        nu = math.sqrt(-mu2)
        return e * lib.cos(nu * t), e * lib.sin(nu * t) * (1.0 / nu)
    return e, e * t


def _exp_r(sigma: float, mu2: float, t: float, c: float, q: float) -> float:
    """r = t^3 e^{sigma t} T(mu2 t^2), given (c, q) at t: a Taylor series
    for |mu2 t^2| <= 1, where c t - q would cancel, else (c t - q) / mu2."""
    z = mu2 * t * t
    if abs(z) > 1.0:
        return (c * t - q) / mu2
    acc = 0.0
    for k in _T_TAYLOR:
        acc = acc * z + k
    return t * t * t * math.exp(sigma * t) * acc


def _hold_integral(sigma: float, mu2: float, a0: float, ts: float,
                   with_a0: bool = False):
    """bd0 = int_0^ts q(s) ds, the step response of 1/(s^2 + a1 s + a0) at
    ts, and with ``with_a0`` its a0 derivative (else None).

    bd0 = ts^2 e[0, x+, x-], the divided difference of exp at 0 and the
    scaled poles x+- = (sigma +- mu) ts, and d bd0/d a0 = -ts^4 e[0, x+, x+,
    x-, x-]. Both are power series in x+ + x- and x+ x-: the sums of the
    complete symmetric polynomials h_n of the poles, which a three-term
    recursion gives. That holds for real, repeated and complex poles and for
    a0 <= 0 alike. Beyond |x+-| <= 1 the series is taken at ts / 2^j and
    doubled back j times: Bd(2t) = (I + Ad(t)) Bd(t), differentiated in a0.
    """
    rho = (abs(sigma) + math.sqrt(abs(mu2))) * ts  # >= |x+-|
    j = max(math.frexp(rho)[1], 0) if rho > 1.0 else 0
    t = math.ldexp(ts, -j)
    s1 = 2.0 * sigma * t  # x+ + x-
    s2 = a0 * t * t  # x+ x-
    e = 0.0
    h, h_prev = 1.0, 0.0
    for f in _E_TAYLOR:
        e += f * h
        h, h_prev = s1 * h - s2 * h_prev, h
    bd0 = t * t * e
    if not with_a0:
        for _ in range(j):
            c, q = _exp_cq(sigma, mu2, t)
            bd0 = (1.0 + c - sigma * q) * bd0 + q * q
            t += t
        return bd0, None
    # the h_n of (x+, x+, x-, x-) are the coefficients of
    # 1 / (1 - s1 z + s2 z^2)^2
    k1, k2, k3, k4 = 2.0 * s1, -(s1 * s1 + 2.0 * s2), 2.0 * s1 * s2, -s2 * s2
    f_sum = 0.0
    h1, h2, h3, h4 = 1.0, 0.0, 0.0, 0.0
    for f in _F_TAYLOR:
        f_sum += f * h1
        h1, h2, h3, h4 = k1 * h1 + k2 * h2 + k3 * h3 + k4 * h4, h1, h2, h3
    dbd0 = -(t * t) * (t * t) * f_sum
    for _ in range(j):
        c, q = _exp_cq(sigma, mu2, t)
        r = _exp_r(sigma, mu2, t, c, q)
        a11 = 1.0 + c - sigma * q
        dbd0 = 0.5 * (sigma * r - t * q) * bd0 + a11 * dbd0 - q * r
        bd0 = a11 * bd0 + q * q
        t += t
    return bd0, dbd0


def _zoh_rows(a1: float, a0: float, ts: float):
    """The top rows (Ad | Bd) of exp(M), M = [[A, B], [0, 0]] ts, and their
    a1 and a0 derivatives, each as (a00, a01, bd0, a10, a11, bd1): the blocks
    the Van Loan exponential of the 9x9 block [[M, dM/da1, dM/da0], ...]
    holds, in closed form.

    From e^{At} = c I + q (A - sigma I), with dc/dsigma = t c,
    dc/dmu2 = t q / 2, dq/dsigma = t q, dq/dmu2 = r / 2, dsigma/da1 = -1/2,
    dmu2/da1 = -sigma and dmu2/da0 = -1; the a1 derivative of a00 and of
    a11 use q - t c = -mu2 r to avoid cancelling. d bd0/d a1 = d q/d a0,
    since both are the impulse response of -1/(s^2 + a1 s + a0)^2.
    """
    sigma = -0.5 * a1
    mu2 = sigma * sigma - a0
    c, q = _exp_cq(sigma, mu2, ts)
    r = _exp_r(sigma, mu2, ts, c, q)
    bd0, dbd0 = _hold_integral(sigma, mu2, a0, ts, with_a0=True)
    a11 = c + sigma * q
    dq = -0.5 * (ts * q + sigma * r)  # d q / d a1 = d a11 / d a0
    return (
        (c - sigma * q, q, bd0, -a0 * q, a11, q),
        (0.5 * a0 * r, dq, -0.5 * r, -a0 * dq, -ts * a11 - 0.5 * a0 * r, dq),
        (0.5 * (sigma * r - ts * q), -0.5 * r, dbd0, 0.5 * a0 * r - q, dq,
         -0.5 * r),
    )


@functools.lru_cache(maxsize=8)
def _block_plan(n: int):
    """How :func:`_lsim` cuts ``n`` samples: the block length m = isqrt(n),
    the block count nb, the time steps (in samples) at which it evaluates
    (c, q), and the flat indices that gather its two matrices from its table.

    The table has one row per step and the columns (h, Ad^k bd, c_out Ad^k,
    c_out Ad^k (A - sigma I), c, q, 0). Steps 0..m give the Toeplitz matrix
    T[j, i] = h_{i-j} and the input-to-boundary rows G[j] = Ad^{m-1-j} bd,
    gathered as [T | G]; steps m d, d < nb - 1, give the boundary matrix,
    rows 2b and 2b + 1 of which hold c and q at (b - 1 - l) m ts in column l
    < b, so that it maps the block inputs W_l to the states at block b.
    """
    m = max(1, math.isqrt(n))
    nb = max(1, -(-n // m))
    steps = np.concatenate((np.arange(m + 1.0), m * np.arange(max(nb - 1, 1.0))))
    width = 10
    zero = 9  # column 9 of row 0 holds 0.0
    j = np.arange(m)[:, None]
    toeplitz = np.where(np.arange(m) >= j, width * (np.arange(m) - j), zero)
    gains = width * (m - 1 - j) + np.array([1, 2])
    b = np.arange(nb)[:, None]
    lag = width * (m + b - np.arange(nb))  # row m + 1 + (b - 1 - l)
    below = np.arange(nb) < b
    boundary = np.stack(
        (np.where(below, lag + 7, zero), np.where(below, lag + 8, zero)), axis=1
    )
    index = np.concatenate(
        (np.concatenate((toeplitz, gains), axis=1).ravel(), boundary.ravel())
    )
    for arr in (steps, index):
        arr.setflags(write=False)
    return m, nb, steps, index


def _lsim(sigma: float, mu2: float, a0: float, ts: float, bd, c_out, signals,
          lead: int = 0) -> np.ndarray:
    """The response y_i = sum_{j <= i} c_out Ad^{i-j} bd v_j of the sampled
    2-state model Ad = e^{A ts} to each signal v of ``signals``, as the rows
    of one array: row[lead + i] is y_i and the first ``lead`` entries are 0.

    The samples are cut into nb blocks of m = isqrt(n). Within a block the
    response is one matrix product with the lower-triangular Toeplitz matrix
    of h_k = c_out Ad^k bd, k < m. A block's start state X_b = sum_{l < b}
    Ad^{m(b-1-l)} W_l sums the inputs W_l = sum_j Ad^{m-1-j} bd v_{lm+j} of
    the blocks before it; with Ad^k = c_k I + q_k (A - sigma I), that is one
    product with the Toeplitz matrices of c and q at multiples of m ts, and
    the states reach the outputs through one (nb x 4) @ (4 x m) product.
    Every power of Ad is the closed form :func:`_exp_cq` at k ts, in one
    vectorized call: no power loop and no recursion over samples or blocks.
    """
    rows = len(signals)
    n = signals[0].size + lead
    m, nb, steps, index = _block_plan(n)
    c, q = _exp_cq(sigma, mu2, steps * ts, np)
    bd0, bd1 = bd
    c0, c1 = c_out
    # (A - sigma I) bd and c_out (A - sigma I)
    bn0, bn1 = bd1 - sigma * bd0, sigma * bd1 - a0 * bd0
    cn0, cn1 = -sigma * c0 - a0 * c1, c0 + sigma * c1
    coef = np.array((
        (c0 * bd0 + c1 * bd1, bd0, bd1, c0, c1, cn0, cn1, 1.0, 0.0, 0.0),
        (c0 * bn0 + c1 * bn1, bn0, bn1, cn0, cn1, mu2 * c0, mu2 * c1, 0.0, 1.0,
         0.0),
    ))
    table = np.concatenate((c, q)).reshape(2, -1).T @ coef
    gathered = table.take(index)
    tg = gathered[:m * (m + 2)].reshape(m, m + 2)
    boundary = gathered[m * (m + 2):].reshape(2 * nb, nb)
    padded = np.zeros((rows, nb * m))
    for row, v in zip(padded, signals):
        row[lead:n] = v
    blocks = padded.reshape(rows * nb, m)
    y = blocks @ tg[:, :m]
    inputs = blocks @ tg[:, m:]
    # per signal, rows 2b and 2b + 1: the c and q parts of the state X_b
    states = boundary @ inputs.reshape(rows, nb, 2)
    # c_out Ad^{i+1} X_b = c_out (c_{i+1} I + q_{i+1} (A - sigma I)) X_b
    y += states.reshape(rows * nb, 4) @ table[1:m + 1, 3:7].T
    return y.reshape(rows, nb * m)


def _cost(theta: np.ndarray, u: np.ndarray, y: np.ndarray, ts: float):
    """Residual and squared error of b0/(s^2 + a1 s + a0) driven by u.

    Returns (None, inf) when the model cannot be evaluated or diverges.
    """
    b0, a1, a0 = (float(v) for v in theta)
    if not (math.isfinite(b0) and math.isfinite(a1) and math.isfinite(a0)):
        return None, math.inf
    sigma = -0.5 * a1
    mu2 = sigma * sigma - a0
    # wildly unstable candidates overflow; the nonfinite result is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _, q = _exp_cq(sigma, mu2, ts)
            bd0, _ = _hold_integral(sigma, mu2, a0, ts)
        except OverflowError:
            return None, math.inf
        r = np.empty(u.size)
        r[0] = 0.0
        # x_0 = 0 and y_hat = b0 x1: y_hat_{k+1} = sum_{j <= k} h_{k-j} u_j
        r[1:] = _lsim(sigma, mu2, a0, ts, (bd0, q), (b0, 0.0), (u,))[0, :u.size - 1]
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
    The derivatives of exp(M) along a1 and a0 are the closed-form blocks of
    :func:`_zoh_rows`, and each column is (dN u - dD y_hat) / D: lag taps
    applied to u/D and y_hat/D. Returns None when a column is not finite.
    """
    b0, a1, a0 = (float(v) for v in theta)
    sigma = -0.5 * a1
    mu2 = sigma * sigma - a0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            blocks = _zoh_rows(a1, a0, ts)
        except OverflowError:
            return None
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
        # 1/D(z), D = 1 - 2c z^-1 + e^{2 sigma ts} z^-2, has the impulse
        # response q((k+1) ts) / q(ts) = c_k + (c(ts) / q(ts)) q_k, which
        # the model's own Ad gives with bd = e2 and c_out = (c/q - sigma, 1)
        if a01 == 0.0:
            return None
        n = u.size
        w = _lsim(sigma, mu2, a0, ts, (0.0, 1.0),
                  (0.5 * (a00 + a11) / a01 - sigma, 1.0), (u, y_hat), lead=2)
        lagged = np.array((w[0, 1:n + 1], w[0, :n], w[1, 1:n + 1], w[1, :n]))
        J = np.array(taps) @ lagged
    if not np.isfinite(J).all():
        return None
    return J.T


def _levenberg_marquardt(theta0, u, y, ts, max_iter, priced=None):
    """Polish ``theta0``; ``priced`` is its (residual, cost) when known."""
    theta = np.asarray(theta0, dtype=float).copy()
    r, cost = _cost(theta, u, y, ts) if priced is None else priced
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


def _arx_to_continuous(alpha1: float, alpha2: float, beta: float, ts: float):
    """(b0, a1, a0) of the model whose zero-order-hold sample has the
    denominator z^2 + alpha1 z + alpha2 and the numerator's coefficient sum
    ``beta``, or None when no real second-order model has those poles.

    The poles z = e^{p ts} give a1 = -(p1 + p2) = -ln(alpha2) / ts and a0 =
    p1 p2: |ln z|^2 / ts^2 for a complex pair, ln z1 ln z2 / ts^2 for a real
    one. The hold keeps the DC gain, so b0 / a0 = beta / (1 + alpha1 +
    alpha2). A real pole at z <= 0 has no continuous preimage.
    """
    if not alpha2 > 0.0:
        return None
    log2 = math.log(alpha2)
    disc = alpha1 * alpha1 - 4.0 * alpha2
    if disc < 0.0:
        # z = sqrt(alpha2) e^{+-i phi}: ln z = ln(alpha2) / 2 +- i phi
        phi = math.atan2(math.sqrt(-disc), -alpha1)
        a0 = (0.25 * log2 * log2 + phi * phi) / (ts * ts)
    elif alpha1 < 0.0:
        z1 = 0.5 * (math.sqrt(disc) - alpha1)  # the larger root, no cancelling
        a0 = math.log(z1) * math.log(alpha2 / z1) / (ts * ts)
    else:
        return None
    dc = 1.0 + alpha1 + alpha2
    theta = (a0 * beta / dc if dc != 0.0 else math.inf, -log2 / ts, a0)
    return theta if all(map(math.isfinite, theta)) else None


def _arx_seed(u: np.ndarray, y: np.ndarray, ts: float, x: np.ndarray | None = None):
    """(b0, a1, a0) from the ARX(2,2) fit y_k + alpha1 y_{k-1} + alpha2 y_{k-2}
    = beta1 u_{k-1} + beta2 u_{k-2} (Ljung, System Identification, 10.4), or
    None where :func:`_arx_to_continuous` finds no model.

    With ``x`` None the fit is least squares, which output noise biases.
    Given a noise-free simulated output ``x``, it is the instrumental-variable
    estimate with x in place of y in the instruments (Soderstrom and Stoica,
    Instrumental Variable Methods for System Identification), which output
    noise does not bias. The columns are scaled to unit norm before solving.
    """
    phi = np.stack((-y[1:-1], -y[:-2], u[1:-1], u[:-2]), axis=1)
    scale = np.linalg.norm(phi, axis=0)
    scale[scale == 0.0] = 1.0
    phi /= scale
    if x is None:
        coef = np.linalg.lstsq(phi, y[2:], rcond=None)[0]
    else:
        z = np.stack((-x[1:-1], -x[:-2], u[1:-1], u[:-2]), axis=1) / scale
        coef = np.linalg.lstsq(z.T @ phi, z.T @ y[2:], rcond=None)[0]
    alpha1, alpha2, beta1, beta2 = (float(v) for v in coef / scale)
    return _arx_to_continuous(alpha1, alpha2, beta1 + beta2, ts)


# two polished starts agree, and the search stops, within this relative cost
_AGREE_TOL = 1e-8
# ... provided their fit leaves at most this share of the output's variance
# unexplained (fit_pct >= 29 %): starts that all sink into a near-zero or
# unstable model agree there, well above it
_AGREE_MAX_UNEXPLAINED = 0.5


def _multistart(ds: DataSet, max_iter: int):
    """The best (theta, cost, n_iter, converged) of the default starts, or
    None when no start has a finite simulation error.

    The starts are the fanned seeds of :func:`_default_seeds`, the least
    squares ARX seed, and one instrumental-variable seed per start priced
    before it, whose instruments are that start's simulated output. Each is
    priced with one :func:`_cost`; LM polishes the two cheapest, and the
    rest only when those two disagree or agree on a poor fit, so that the
    search stops early only where no other start is likely to do better.
    Polishing every start covers the fanned seeds, so a fallback never ends
    worse than they do.
    """
    u, y, ts = ds.u, ds.y, ds.ts
    starts = []  # (cost, theta, residual), in the order priced

    def price(seed):
        if seed is not None:
            theta = np.asarray(seed, dtype=float)
            r, cost = _cost(theta, u, y, ts)
            if r is not None:
                starts.append((cost, theta, r))

    for seed in _default_seeds(ds):
        price(seed)
    price(_arx_seed(u, y, ts))
    for _, _, r in list(starts):
        price(_arx_seed(u, y, ts, r + y))
    starts.sort(key=lambda s: s[0])
    floor = 1e-20 * float(y @ y)  # costs at the rounding level of a perfect fit
    ceiling = _AGREE_MAX_UNEXPLAINED * float(np.sum((y - y.mean()) ** 2))
    polished = []
    for cost, theta, r in starts:
        polished.append(
            _levenberg_marquardt(theta, u, y, ts, max_iter, priced=(r, cost))
        )
        if len(polished) == 2:
            c0, c1 = sorted(p[1] for p in polished)
            if c1 - c0 <= _AGREE_TOL * c1 + floor and c0 <= ceiling:
                break
    return min(polished, key=lambda p: p[1], default=None)


def fit_second_order(
    ds: DataSet,
    initial_guess: TransferFunction | tuple[float, float, float] | None = None,
    max_iter: int = 200,
) -> FitReport:
    """Fit b0/(s^2 + a1 s + a0) to the dataset by simulation-error minimization.

    With no ``initial_guess`` the deterministic multistart of
    :func:`_multistart` is run: ARX/IV and fanned starts screened by their
    simulation error, LM from the two cheapest, or from all of them unless
    those two agree on a good fit, and the lowest final cost wins. An
    explicit guess (a strictly proper second-order TransferFunction, or a raw
    (b0, a1, a0) triple) replaces the multistart entirely. The returned
    metrics are those of the simulation the fit minimized, the residual of
    :func:`_cost` at the optimum, with p = 3 parameters.
    """
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise ValueError(f"max_iter must be a nonnegative integer, got {max_iter}")
    if float(np.ptp(ds.y)) == 0.0:
        raise ValueError("output signal is constant; nothing to fit")
    if not np.any(ds.u):
        raise ValueError("input signal is zero; nothing to fit")
    if initial_guess is None:
        best = _multistart(ds, max_iter)
    else:
        if isinstance(initial_guess, TransferFunction):
            if initial_guess.order != 2 or len(initial_guess.num) != 1:
                raise ValueError(
                    "initial_guess must be strictly proper with a degree-2 "
                    f"denominator and constant numerator, got {initial_guess}"
                )
            seed = (initial_guess.num[0], initial_guess.den[1], initial_guess.den[2])
        else:
            seed = tuple(float(v) for v in initial_guess)
            if len(seed) != 3:
                raise ValueError("initial_guess must be (b0, a1, a0)")
        best = _levenberg_marquardt(seed, ds.u, ds.y, ds.ts, max_iter)
    if best is None or not math.isfinite(best[1]):
        raise ValueError(
            "fit failed: no starting point produced a finite simulation error"
        )
    theta, _, n_iter, converged = best
    model = TransferFunction((theta[0],), (1.0, theta[1], theta[2]))
    r, _ = _cost(theta, ds.u, ds.y, ds.ts)
    metrics = fit_metrics(ds.y, ds.y + r, 3)
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
