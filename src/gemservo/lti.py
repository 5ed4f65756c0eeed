"""Continuous- and discrete-time LTI plant models.

Transfer functions use descending powers of s. State-space realizations
produced by :func:`tf_to_ss` follow the phase-variable controllable canonical
convention: the state is the output integrator chain (x2 = dx1/dt, ...), the
companion row sits at the bottom of A, B = [0, ..., 0, 1]^T and C holds the
numerator coefficients in ascending order. Feedback gain vectors are only
meaningful relative to this ordering.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransferFunction",
    "StateSpace",
    "DiscreteStateSpace",
    "SecondOrderCharacter",
    "tf_to_ss",
    "discretize_zoh",
    "simulate",
    "dc_gain",
    "poles",
    "system_type",
    "is_bibo_stable",
    "second_order_character",
]

# Relative tolerance used to decide that a trailing denominator coefficient
# is an exact zero (a pole at the origin) rather than numerical dust.
_ORIGIN_RTOL = 1e-9


def _as_float_tuple(values, name: str) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a sequence of real numbers") from exc
    if not out:
        raise ValueError(f"{name} must not be empty")
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{name} coefficients must be finite")
    return out


@dataclass(frozen=True)
class TransferFunction:
    """Proper SISO rational transfer function, coefficients in descending powers.

    The denominator is normalized to be monic on construction.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self) -> None:
        num = _as_float_tuple(self.num, "num")
        den = _as_float_tuple(self.den, "den")
        # strip leading zeros, always keeping at least one coefficient
        while len(num) > 1 and num[0] == 0.0:
            num = num[1:]
        while len(den) > 1 and den[0] == 0.0:
            den = den[1:]
        if den[0] == 0.0:
            raise ValueError("den must have a nonzero leading coefficient")
        if len(num) > len(den):
            raise ValueError(
                "improper transfer function: numerator degree "
                f"{len(num) - 1} exceeds denominator degree {len(den) - 1}"
            )
        lead = den[0]
        object.__setattr__(self, "num", tuple(c / lead for c in num))
        object.__setattr__(self, "den", tuple(c / lead for c in den))

    @property
    def order(self) -> int:
        """Denominator degree."""
        return len(self.den) - 1

    def __str__(self) -> str:
        return f"({_poly_str(self.num)}) / ({_poly_str(self.den)})"


def _poly_str(coeffs: tuple[float, ...]) -> str:
    terms = []
    n = len(coeffs) - 1
    for i, c in enumerate(coeffs):
        if c == 0.0 and len(coeffs) > 1:
            continue
        p = n - i
        if p == 0:
            terms.append(f"{c:g}")
        elif p == 1:
            terms.append("s" if c == 1.0 else f"{c:g} s")
        else:
            terms.append(f"s^{p}" if c == 1.0 else f"{c:g} s^{p}")
    return " + ".join(terms) if terms else "0"


def _as_matrix(value, name: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def _set_matrices(model, a: str, b: str) -> None:
    """Check the shapes of a model's state matrix ``a``, input matrix ``b``,
    C and D, and store each as a read-only float array."""
    A = _as_matrix(getattr(model, a), a)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"{a} must be square, got {A.shape}")
    B = _as_matrix(getattr(model, b), b)
    if B.shape[0] != n:
        raise ValueError(f"{b} must have {n} rows, got {B.shape}")
    C = _as_matrix(model.C, "C")
    if C.shape[1] != n:
        raise ValueError(f"C must have {n} columns, got {C.shape}")
    D = _as_matrix(model.D, "D", (C.shape[0], B.shape[1]))
    for name, arr in ((a, A), (b, B), ("C", C), ("D", D)):
        arr.setflags(write=False)
        object.__setattr__(model, name, arr)


@dataclass(frozen=True)
class StateSpace:
    """Continuous-time state-space model dx/dt = A x + B u, y = C x + D u."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self) -> None:
        _set_matrices(self, "A", "B")

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def is_siso(self) -> bool:
        return self.B.shape[1] == 1 and self.C.shape[0] == 1


@dataclass(frozen=True)
class DiscreteStateSpace:
    """Discrete-time model x[k+1] = Ad x[k] + Bd u[k], y[k] = C x[k] + D u[k]."""

    Ad: np.ndarray
    Bd: np.ndarray
    C: np.ndarray
    D: np.ndarray
    ts: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ts) and self.ts > 0.0):
            raise ValueError(f"ts must be positive and finite, got {self.ts}")
        _set_matrices(self, "Ad", "Bd")

    @property
    def order(self) -> int:
        return self.Ad.shape[0]


@dataclass(frozen=True)
class SecondOrderCharacter:
    """Natural frequency and damping ratio of a second-order denominator."""

    wn: float
    zeta: float


def tf_to_ss(tf: TransferFunction) -> StateSpace:
    """Realize a transfer function in phase-variable controllable canonical form.

    For den = s^n + a_{n-1} s^{n-1} + ... + a_0 the bottom row of A is
    [-a_0, -a_1, ..., -a_{n-1}], the superdiagonal is ones, B = e_n, and C
    lists the (strictly proper part's) numerator coefficients in ascending
    powers. A biproper function contributes its high-frequency gain to D.
    """
    n = tf.order
    den = np.asarray(tf.den)
    num = np.asarray(tf.num)
    if len(num) == len(den):
        d = num[0]
        rem = num - d * den
        rem = rem[1:]  # degree drops by construction
    else:
        d = 0.0
        rem = num
    if n == 0:
        return StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[d]]
        )
    A = np.zeros((n, n))
    if n > 1:
        A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -den[:0:-1]  # ascending a_0..a_{n-1}, negated
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, : len(rem)] = rem[::-1]
    return StateSpace(A, B, C, [[d]])


# Coefficients b_0 .. b_m of the [m/m] Pade approximant of exp(x), and the
# largest theta_m for which its backward error stays below 2^-53 (Higham,
# SIAM J. Matrix Anal. Appl. 26, 2005; theta_13 is the 4.25 of Al-Mohy &
# Higham, 2009).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 4.25}


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _ell(a: np.ndarray, m: int) -> int:
    """Extra squarings that keep the [m/m] approximant's backward error at
    unit roundoff: ell(A, m) of Al-Mohy & Higham (2009), with the 1-norm of
    |A|^(2m+1) computed exactly. The power is taken of |A| divided by its
    norm, so it cannot overflow."""
    norm = _norm1(a)
    if norm == 0.0:
        return 0
    power = _norm1(np.linalg.matrix_power(np.abs(a) / norm, 2 * m + 1))
    if power == 0.0:
        return 0
    # |c_{2m+1}| = (m!)^2 / ((2m)! (2m+1)!), the leading backward-error term
    ln_c = 2 * math.lgamma(m + 1) - math.lgamma(2 * m + 1) - math.lgamma(2 * m + 2)
    log2_alpha = math.log2(power) + 2 * m * math.log2(norm) + ln_c / math.log(2)
    return max(math.ceil((log2_alpha + 53) / (2 * m)), 0)


def _pade(a: np.ndarray, powers: list[np.ndarray], m: int) -> np.ndarray:
    """r_m(A) = (V - U)^-1 (V + U) from the even powers A^2, A^4, ...: up to
    A^(m-1) for m <= 9, A^2, A^4 and A^6 for m = 13."""
    b = _PADE[m]
    eye = np.eye(a.shape[0])
    if m == 13:
        a2, a4, a6 = powers
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        even = [eye] + powers
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(even))
        v = sum(b[2 * k] * p for k, p in enumerate(even))
    return np.linalg.solve(v - u, v + u)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Pade approximant:
    Algorithm 6.1 of Al-Mohy & Higham, "A new scaling and squaring algorithm
    for the matrix exponential", SIAM J. Matrix Anal. Appl. 31 (2009).

    The degree and the scaling come from ||A^k||^(1/k), not from ||A||, so a
    strongly non-normal block, such as the companion rows of a ZOH block, is
    not over-scaled. Every 1-norm is computed exactly, which is cheap for the
    small blocks here. A non-finite result is returned as is; callers run it
    under ``np.errstate`` and reject it.

    Working range: each of the s squarings, s ~ log2(||A|| / 5.4), can double
    the rounding error of the scaled approximant, so the result is accurate
    to about 2^s u relative to its norm (u = 2^-53). A slow mode whose
    exponential moves by less than that over the block's time is lost. For
    1/(s^2 + a1 s + 1) over 1 s, a1 = 1e5 needs s = 15 and the sampled model
    agrees with scipy's to 3e-12 (tested); a1 = 1e10 (s = 31) is good to
    5e-7; from s ~ 53 (a1 t ~ 5e16) nothing is left, and a1 = 1e20 returns
    Ad = 0 where the slow mode has e^{-1e-20} = 1. The bundled plants and the
    fitter's range need at most a few squarings.
    """
    norm = _norm1(a)
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan)
    # The powers are taken of C = A / 2^t, whose 1-norm is at most 1, so they
    # cannot overflow however non-normal A is; A^k is C^k 2^(kt) to the bit.
    t = max(math.frexp(norm)[1], 0)
    c = np.ldexp(a, -t)
    c2 = c @ c
    c4 = c2 @ c2
    c6 = c2 @ c4
    c8 = c4 @ c4

    def d(ck: np.ndarray, k: int) -> float:  # ||A^k||^(1/k)
        return float(np.ldexp(_norm1(ck) ** (1 / k), t))

    def pade(m: int, s: int) -> np.ndarray:  # r_m(A / 2^s)
        shift = t - s
        used = (c2, c4, c6, c8)[: 3 if m == 13 else m // 2]
        even = [np.ldexp(ck, 2 * k * shift) for k, ck in enumerate(used, 1)]
        return _pade(np.ldexp(c, shift), even, m)

    d4, d6, d8 = d(c4, 4), d(c6, 6), d(c8, 8)
    for m in (3, 5):
        if max(d4, d6) <= _THETA[m] and _ell(a, m) == 0:
            return pade(m, 0)
    eta3 = max(d6, d8)
    for m in (7, 9):
        if eta3 <= _THETA[m] and _ell(a, m) == 0:
            return pade(m, 0)
    # every ||A^k||^(1/k) is at most ||A||, which caps one that overflowed
    eta5 = min(eta3, max(d8, d(c4 @ c6, 10)), norm)
    s = max(math.ceil(math.log2(eta5 / _THETA[13])), 0) if eta5 > 0.0 else 0
    s += _ell(np.ldexp(a, -s), 13)
    x = pade(13, s)
    for _ in range(s):
        x = x @ x
    return x


def discretize_zoh(ss: StateSpace, ts: float) -> DiscreteStateSpace:
    """Zero-order-hold discretization via one exponential of the augmented block.

    exp([[A, B], [0, 0]] * ts) = [[Ad, Bd], [0, I]], which is exact for
    inputs held constant over each sample period. The exponential is
    :func:`_expm`, the scaling-and-squaring algorithm of Al-Mohy & Higham
    (2009) in numpy, so discretizing loads no scipy module. A block whose
    exponential overflows raises the finite-value ``ValueError`` of
    :class:`DiscreteStateSpace`.
    """
    if not (math.isfinite(ts) and ts > 0.0):
        raise ValueError(f"ts must be positive and finite, got {ts}")
    n = ss.order
    m = ss.B.shape[1]
    if n == 0:
        return DiscreteStateSpace(np.zeros((0, 0)), np.zeros((0, m)), ss.C, ss.D, ts)
    block = np.block(
        [
            [ss.A, ss.B],
            [np.zeros((m, n)), np.zeros((m, m))],
        ]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _expm(block * ts)
    return DiscreteStateSpace(phi[:n, :n], phi[:n, n:], ss.C, ss.D, ts)


def _compile(source: str, name: str):
    """The function ``name`` defined by ``source``, which holds only
    identifiers and numbers the calling code built, never input data."""
    namespace: dict = {}
    exec(source, namespace)
    return namespace[name]


def _sum_source(coeffs: list[str], terms: list[str]) -> str:
    """``c0 * t0 + c1 * t1 + ...``, which Python evaluates left to right;
    ``0.0`` when there are no terms."""
    return " + ".join(f"{p} * {q}" for p, q in zip(coeffs, terms)) or "0.0"


def _plant_source(n: int, u: str) -> tuple[list[str], str, str]:
    """Source of one sample of an n-state SISO model on plain floats:
    (coefficient parameters, output expression, update statement).

    The state is the locals ``x0`` .. ``x{n-1}`` and the input the expression
    ``u``. The parameters are ``a{i}_{j}``, ``b{i}`` and ``c{j}``, in the order
    of :func:`_plant_coefficients`. The output is C x and the update sets the
    state to Ad x + Bd u, each sum spelled out term by term,
    ``a0_0 * x0 + a0_1 * x1 + b0 * u``: a generic loop over the rows would
    cost about four times as much per sample. The feedthrough D is left to
    the caller.
    """
    xs = [f"x{j}" for j in range(n)]
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    c = [f"c{j}" for j in range(n)]
    rows = [_sum_source(a[i] + [b[i]], xs + [u]) for i in range(n)]
    update = f"{', '.join(xs)} = {', '.join(rows)}" if n else "pass"
    params = [name for row in a for name in row] + b + c
    return params, _sum_source(c, xs), update


def _plant_coefficients(dss: DiscreteStateSpace) -> list[float]:
    """Ad row by row, then Bd and C, of a SISO model: the floats
    :func:`_plant_source` takes."""
    return [*dss.Ad.ravel().tolist(), *dss.Bd[:, 0].tolist(), *dss.C[0].tolist()]


@functools.cache
def _simulate_loop(n: int):
    """Compile, once per model order, the sample loop of :func:`simulate`:
    one call runs the whole input through the rows of :func:`_plant_source`,
    with the coefficients, D and the initial state as arguments."""
    params, output, update = _plant_source(n, "u")
    xs = [f"x{j}" for j in range(n)]
    lines = [
        f"def loop({', '.join(params + ['d'] + xs)}, uv, yv, xv):",
        "    for k in range(len(uv)):",
        "        u = uv[k]",
        *(f"        xv[{n} * k + {j}] = {x}" for j, x in enumerate(xs)),
        f"        yv[k] = {output} + d * u",
        f"        {update}",
    ]
    return _compile("\n".join(lines) + "\n", "loop")


def simulate(
    dss: DiscreteStateSpace,
    u: np.ndarray,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate a SISO discrete model over an input sequence.

    Returns ``(y, x)`` where ``y[k]`` is the output at sample k and ``x[k]``
    the state at sample k (before the update). The state trajectory has one
    row per input sample. The model is stepped in plain floats, every row
    summed left to right, ``((a00 x0 + a01 x1) + b0 u)``, so the arithmetic
    does not depend on the BLAS build, and one sample costs no numpy call.
    """
    if dss.Bd.shape[1] != 1 or dss.C.shape[0] != 1:
        raise ValueError("simulate expects a single-input single-output model")
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"u must be a 1-D sequence, got shape {u.shape}")
    if u.size == 0:
        raise ValueError("u must contain at least one sample")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must contain only finite values")
    n = dss.order
    if x0 is None:
        x = (0.0,) * n
    else:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have length {n}, got {x0.shape[0]}")
        x = tuple(x0.tolist())
    N = u.size
    y = np.empty(N)
    xs = np.empty((N, n))
    _simulate_loop(n)(
        *_plant_coefficients(dss), float(dss.D[0, 0]), *x,
        memoryview(np.ascontiguousarray(u)), memoryview(y),
        memoryview(xs.reshape(-1)),
    )
    return y, xs


def system_type(tf: TransferFunction) -> int:
    """Number of poles at the origin (trailing zero denominator coefficients).

    A coefficient counts as zero when its magnitude is below 1e-9 times the
    largest denominator coefficient magnitude.
    """
    scale = max(abs(c) for c in tf.den)
    tol = _ORIGIN_RTOL * scale
    k = 0
    for c in reversed(tf.den):
        if abs(c) <= tol:
            k += 1
        else:
            break
    return min(k, tf.order)


def poles(tf: TransferFunction) -> list[complex]:
    """Denominator roots, multiplicity respected, sorted by (real, imag).

    Poles at the origin are factored out exactly before the numerical root
    finder runs, so integrators come back as exact zeros.
    """
    k = system_type(tf)
    trimmed = tf.den[: len(tf.den) - k] if k else tf.den
    roots = list(np.roots(trimmed)) if len(trimmed) > 1 else []
    roots.extend([0.0] * k)
    roots = [complex(r) for r in roots]
    roots.sort(key=lambda p: (p.real, p.imag))
    return roots


def dc_gain(tf: TransferFunction) -> float:
    """Steady-state gain num(0)/den(0); inf for systems with integrators."""
    num0 = tf.num[-1]
    den0 = tf.den[-1]
    den_scale = max(abs(c) for c in tf.den)
    num_scale = max(abs(c) for c in tf.num)
    if abs(den0) <= _ORIGIN_RTOL * den_scale:
        if num_scale == 0.0 or abs(num0) <= _ORIGIN_RTOL * num_scale:
            raise ValueError(
                "dc gain is indeterminate: numerator and denominator both "
                "vanish at s = 0"
            )
        return math.inf
    return num0 / den0


def is_bibo_stable(tf: TransferFunction) -> bool:
    """True iff every pole has a strictly negative real part."""
    return all(p.real < 0.0 for p in poles(tf))


def second_order_character(tf: TransferFunction) -> SecondOrderCharacter:
    """Extract (wn, zeta) from a second-order denominator s^2 + a1 s + a0.

    Requires a0 > 0 so that wn = sqrt(a0) is real; zeta = a1 / (2 wn) and may
    be negative for unstable systems.
    """
    if tf.order != 2:
        raise ValueError(
            f"second_order_character needs a 2nd-order denominator, got order {tf.order}"
        )
    a1 = tf.den[1]
    a0 = tf.den[2]
    if a0 <= 0.0:
        raise ValueError(
            f"constant denominator coefficient must be positive, got {a0}"
        )
    wn = math.sqrt(a0)
    return SecondOrderCharacter(wn=wn, zeta=a1 / (2.0 * wn))
