"""Discrete PID and state-feedback-with-integral controllers, pole placement,
and a deterministic PID tuner.

Both controller step functions implement conditional integration as
anti-windup: the integral state freezes whenever the unsaturated command sits
beyond an actuator limit and the pending integral increment would push it
further. Each law is written once, as source text (:func:`_law_source`):
``pid_step`` and ``sf_step`` run it compiled into a function, and
:func:`gemservo.simloop.run` inlines it into the loop it compiles.
State-feedback gain vectors refer to the phase-variable canonical state
ordering produced by :func:`gemservo.lti.tf_to_ss`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .lti import (
    StateSpace,
    TransferFunction,
    _compile,
    _sum_source,
    poles,
    system_type,
    tf_to_ss,
)
from .metrics import CONSTANTS, Requirement, analyze_step, check_requirements, ess_bound

__all__ = [
    "ActuatorLimits",
    "DEFAULT_LIMITS",
    "PidGains",
    "PidState",
    "StateFeedbackGains",
    "TuningError",
    "pid_step",
    "sf_step",
    "closed_loop_matrix",
    "place_poles",
    "pid_closed_loop_poles",
    "sf_closed_loop_poles",
    "tune_pid",
]


@dataclass(frozen=True)
class ActuatorLimits:
    """Saturation bounds for the commanded PWM frequency."""

    u_min: float
    u_max: float

    def __post_init__(self) -> None:
        if math.isnan(self.u_min) or math.isnan(self.u_max):
            raise ValueError("limits must not be NaN")
        if not self.u_min < self.u_max:
            raise ValueError(
                f"u_min must be below u_max, got [{self.u_min}, {self.u_max}]"
            )

    def clamp(self, u: float) -> float:
        return _clamp(u, self.u_min, self.u_max)


def _clamp_source(u: str) -> str:
    """The clamp of ``u`` to [u_min, u_max] as an expression. It equals
    min(max(u, u_min), u_max) for every float, signed zeros and NaN
    included, and makes no call."""
    return f"u_max if {u} > u_max else (u_min if {u} < u_min else {u})"


_clamp = _compile(
    f"def clamp(u, u_min, u_max):\n    return {_clamp_source('u')}\n", "clamp"
)


# The drive accepts 0..350 kHz; negative commands are physically meaningless.
DEFAULT_LIMITS = ActuatorLimits(0.0, CONSTANTS.actuator_max_hz)


@dataclass(frozen=True)
class PidGains:
    """Parallel-form PID: u = kp e + ki integral(e) + kd d/dt(e_filtered).

    The derivative acts through a first-order filter with time constant
    1/deriv_filter_n seconds. The actuator limits travel with the gains;
    the defaults are the drive's physical 0..350 kHz range.
    """

    kp: float
    ki: float
    kd: float = 0.0
    deriv_filter_n: float = 100.0
    u_min: float = 0.0
    u_max: float = CONSTANTS.actuator_max_hz

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd", "deriv_filter_n"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kd != 0.0 and self.deriv_filter_n <= 0.0:
            raise ValueError(
                f"deriv_filter_n must be positive with kd != 0, got "
                f"{self.deriv_filter_n}"
            )
        ActuatorLimits(self.u_min, self.u_max)  # rejects NaN or misordered bounds

    @property
    def limits(self) -> ActuatorLimits:
        return ActuatorLimits(self.u_min, self.u_max)


@dataclass
class PidState:
    """Mutable per-loop PID memory."""

    integral: float = 0.0
    deriv: float = 0.0
    prev_error: float = 0.0

    def reset(self) -> None:
        self.integral = 0.0
        self.deriv = 0.0
        self.prev_error = 0.0


@dataclass(frozen=True)
class StateFeedbackGains:
    """u = k2 * xi - k1 . x with integral state xi' = r - y."""

    k1: tuple[float, ...]
    k2: float

    def __post_init__(self) -> None:
        k1 = tuple(float(v) for v in self.k1)
        if not k1:
            raise ValueError("k1 must not be empty")
        if not all(math.isfinite(v) for v in k1):
            raise ValueError("k1 entries must be finite")
        if not math.isfinite(self.k2):
            raise ValueError("k2 must be finite")
        object.__setattr__(self, "k1", k1)


def pid_step(
    gains: PidGains,
    state: PidState,
    error: float,
    ts: float,
) -> tuple[float, float, PidState]:
    """Advance the PID one sample.

    Integral: trapezoidal. Derivative: backward-Euler filtered, kd applied
    outside the filter state. Saturation uses the limits carried by the
    gains. Returns (u_cmd, u_sat, new_state); the input state is left
    untouched.
    """
    if not math.isfinite(error):
        raise ValueError(f"error must be finite, got {error}")
    if not (math.isfinite(ts) and ts > 0.0):
        raise ValueError(f"ts must be positive, got {ts}")
    u_cmd, u_sat, *new = _law_function("pid", 0)(
        *_law_gains(gains), gains.u_min, gains.u_max,
        state.integral, state.deriv, state.prev_error, error, ts,
    )
    return u_cmd, u_sat, PidState(*new)


def sf_step(
    gains: StateFeedbackGains,
    x: np.ndarray,
    xi: float,
    r: float,
    y: float,
    ts: float,
    limits: ActuatorLimits = DEFAULT_LIMITS,
) -> tuple[float, float, float]:
    """Advance the state-feedback-with-integral law one sample.

    The integral state follows forward Euler, xi <- xi + ts (r - y), with the
    same conditional freeze as the PID when the command would saturate
    further. k1 . x is summed left to right. Returns (u_cmd, u_sat, xi_new).
    """
    for name, v in (("xi", xi), ("r", r), ("y", y)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if not (math.isfinite(ts) and ts > 0.0):
        raise ValueError(f"ts must be positive, got {ts}")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != len(gains.k1):
        raise ValueError(
            f"state has {x.size} entries but k1 has {len(gains.k1)}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("state vector must be finite")
    return _law_function("sf", x.size)(
        *_law_gains(gains), limits.u_min, limits.u_max, xi, *x.tolist(), r, y, ts
    )


def _law_source(law: str, n: int) -> tuple[list[str], list[str], list[str], str]:
    """One sample of the ``"pid"`` law, or of the ``"sf"`` law on n plant
    states, as source: (gain parameters, state, inputs, statements).

    The statements read the gain parameters, the state, the inputs, ``ts``,
    ``u_min`` and ``u_max`` as plain-float locals. They leave the command in
    ``u_cmd``, its clamp in ``u_sat``, and the next state in the state
    locals. The PID's input is the error; state feedback reads the plant
    state ``x0`` .. ``x{n-1}``, the reference ``r`` and the output ``y``, and
    sums k1 . x left to right. This text is the only spelling of either law.
    """
    if law == "pid":
        gains = ["kp", "ki", "kd", "tf"]
        state, inputs = ["integral", "deriv", "prev_error"], ["error"]
        body = [
            "if kd == 0.0:",
            "    deriv = 0.0  # filter bypassed",
            "else:",
            "    deriv = (tf * deriv + (error - prev_error)) / (tf + ts)",
            "i_cand = integral + 0.5 * ts * (error + prev_error)",
            "u_cmd = kp * error + ki * i_cand + kd * deriv",
            "step = ki * (i_cand - integral)",
            "prev_error = error",
        ]
        held, cand = "integral", "i_cand"
    else:
        xs = [f"x{j}" for j in range(n)]
        gains = [f"k1_{j}" for j in range(n)] + ["k2"]
        state, inputs = ["xi"], xs + ["r", "y"]
        body = [
            f"feedback = {_sum_source(gains[:n], xs)}",
            "xi_cand = xi + ts * (r - y)",
            "u_cmd = k2 * xi_cand - feedback",
            "step = k2 * (xi_cand - xi)",
        ]
        held, cand = "xi", "xi_cand"
    body += [
        "if (u_cmd > u_max and step > 0.0) or (u_cmd < u_min and step < 0.0):",
        f"    {cand} = {held}  # freeze: the increment would deepen saturation",
        f"{held} = {cand}",
        f"u_sat = {_clamp_source('u_cmd')}",
    ]
    return gains, state, inputs, "".join(line + "\n" for line in body)


def _law_gains(gains: PidGains | StateFeedbackGains) -> list[float]:
    """The values of :func:`_law_source`'s gain parameters for ``gains``."""
    if isinstance(gains, PidGains):
        # the derivative filter's time constant, unread (and deriv_filter_n
        # maybe unset) when kd is zero
        tf = 1.0 / gains.deriv_filter_n if gains.kd != 0.0 else 0.0
        return [gains.kp, gains.ki, gains.kd, tf]
    return [*gains.k1, gains.k2]


@functools.cache
def _law_function(law: str, n: int):
    """Compile, once per law and plant order, one sample of
    :func:`_law_source` into a function of (gains..., u_min, u_max, state...,
    inputs..., ts) that returns (u_cmd, u_sat, next state...), inputs
    unchecked."""
    gains, state, inputs, body = _law_source(law, n)
    params = ", ".join(gains + ["u_min", "u_max"] + state + inputs + ["ts"])
    source = (
        f"def law({params}):\n"
        + "".join(f"    {line}\n" for line in body.splitlines())
        + f"    return u_cmd, u_sat, {', '.join(state)}\n"
    )
    return _compile(source, "law")


def _as_strictly_proper_ss(plant: StateSpace | TransferFunction) -> StateSpace:
    """``plant`` as a SISO state-space model, refusing direct feedthrough:
    the one refusal of a biproper plant, for the designs and the loops."""
    ss = tf_to_ss(plant) if isinstance(plant, TransferFunction) else plant
    if not ss.is_siso:
        raise ValueError("a single-input single-output plant is required")
    if np.any(ss.D != 0.0):
        raise ValueError("plants with direct feedthrough (D != 0) are not supported")
    return ss


def _check_k1(gains: StateFeedbackGains, n: int) -> None:
    if len(gains.k1) != n:
        raise ValueError(
            f"k1 has {len(gains.k1)} entries but the plant has {n} states"
        )


def closed_loop_matrix(
    plant: StateSpace | TransferFunction, gains: StateFeedbackGains
) -> np.ndarray:
    """Augmented closed-loop A matrix [[A - B k1, B k2], [-C, 0]].

    The last state is the tracking integral xi; eigenvalues of this matrix
    are the linear closed-loop poles.
    """
    ss = _as_strictly_proper_ss(plant)
    n = ss.order
    _check_k1(gains, n)
    k1 = np.asarray(gains.k1, dtype=float).reshape(1, n)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = ss.A - ss.B @ k1
    M[:n, n:] = ss.B * gains.k2
    M[n, :n] = -ss.C[0, :]
    return M


def place_poles(
    plant: StateSpace | TransferFunction, desired: list[complex]
) -> StateFeedbackGains:
    """Compute (k1, k2) placing the augmented closed-loop poles.

    Uses Ackermann's formula on the integral-augmented pair, which handles
    repeated poles on single-input plants. The desired set must have n+1
    entries (n = plant order), lie strictly in the left half-plane, and be
    closed under conjugation. The result is verified against the actual
    eigenvalues to 1e-6.
    """
    ss = _as_strictly_proper_ss(plant)
    n = ss.order
    want = [complex(p) for p in desired]
    if len(want) != n + 1:
        raise ValueError(
            f"need {n + 1} desired poles for a plant of order {n}, got {len(want)}"
        )
    if any(p.real >= 0.0 for p in want):
        raise ValueError("desired poles must lie strictly in the left half-plane")
    coeffs = np.poly(want)
    scale = float(np.max(np.abs(coeffs)))
    if float(np.max(np.abs(coeffs.imag))) > 1e-9 * scale:
        raise ValueError("desired poles must be real or closed under conjugation")
    coeffs = coeffs.real

    m = n + 1
    Abar = np.zeros((m, m))
    Abar[:n, :n] = ss.A
    Abar[n, :n] = -ss.C[0, :]
    Bbar = np.zeros((m, 1))
    Bbar[:n, 0] = ss.B[:, 0]

    ctrb = np.empty((m, m))
    col = Bbar[:, 0]
    for j in range(m):
        ctrb[:, j] = col
        col = Abar @ col
    if np.linalg.matrix_rank(ctrb) < m:
        raise ValueError(
            "integral-augmented pair is uncontrollable; poles cannot be placed"
        )

    # phi(Abar) by Horner's rule over the desired characteristic polynomial
    phi = np.zeros((m, m))
    for c in coeffs:
        phi = phi @ Abar + c * np.eye(m)

    e_last = np.zeros(m)
    e_last[-1] = 1.0
    w = np.linalg.solve(ctrb.T, e_last)
    K = w @ phi
    gains = StateFeedbackGains(k1=tuple(K[:n]), k2=-float(K[n]))

    achieved = sorted(
        np.linalg.eigvals(closed_loop_matrix(ss, gains)),
        key=lambda p: (p.real, p.imag),
    )
    target = sorted(want, key=lambda p: (p.real, p.imag))
    for a, b in zip(achieved, target):
        if abs(a - b) > 1e-6 * max(1.0, abs(b)):
            raise ValueError(
                "pole placement failed numerical verification: requested "
                f"{target}, achieved {achieved}"
            )
    return gains


def pid_closed_loop_poles(
    plant: TransferFunction, gains: PidGains
) -> list[complex]:
    """Linear closed-loop poles of the unity-feedback PID loop.

    Uses the continuous controller C(s) = kp + ki/s + kd s/(Tf s + 1) with
    Tf = 1/deriv_filter_n, so the filter pole is included in the analysis.
    Terms with a zero gain are dropped from the controller polynomials, so a
    PI loop has no spurious filter pole and a P/PD loop no pole at the origin.
    """
    if gains.kd != 0.0:
        tf = 1.0 / gains.deriv_filter_n
        num_c = np.array([gains.kd + gains.kp * tf, gains.kp])
        den_c = np.array([tf, 1.0])
    else:
        num_c = np.array([gains.kp])
        den_c = np.array([1.0])
    if gains.ki != 0.0:
        num_c = np.polyadd(np.polymul(num_c, [1.0, 0.0]), gains.ki * den_c)
        den_c = np.polymul(den_c, [1.0, 0.0])
    char = np.polyadd(
        np.polymul(den_c, np.asarray(plant.den)),
        np.polymul(num_c, np.asarray(plant.num)),
    )
    roots = [complex(p) for p in np.roots(char)]
    roots.sort(key=lambda p: (p.real, p.imag))
    return roots


def sf_closed_loop_poles(
    plant: StateSpace | TransferFunction, gains: StateFeedbackGains
) -> list[complex]:
    """Eigenvalues of the augmented closed-loop matrix, sorted by (real, imag)."""
    roots = [complex(p) for p in np.linalg.eigvals(closed_loop_matrix(plant, gains))]
    roots.sort(key=lambda p: (p.real, p.imag))
    return roots


class TuningError(Exception):
    """No gain set satisfying the requirement was found."""


def _freq_mag(plant: TransferFunction, w: float) -> float:
    s = 1j * w
    den = complex(np.polyval(np.asarray(plant.den), s))
    num = complex(np.polyval(np.asarray(plant.num), s))
    if den == 0:
        return math.inf
    return abs(num / den)


def _candidate_gains(plant: TransferFunction, req: Requirement) -> list[PidGains]:
    """Deterministic candidate list: analytic seeds first, then a log grid."""
    cands: list[PidGains] = []
    sigma = 4.0 / req.tss_max  # 2%-band settling rate for a dominant pair
    b0 = plant.num[-1]
    n_type = system_type(plant)

    if n_type == 0 and plant.order == 2 and b0 != 0.0:
        a1 = plant.den[1]
        a0 = plant.den[2]
        # full PID pole placement on the 3rd-order closed loop:
        # s^3 + (a1 + b0 kd) s^2 + (a0 + b0 kp) s + b0 ki
        for zeta, far, f in ((0.8, 5.0, 1.25), (0.9, 6.0, 1.5), (0.75, 4.0, 1.0)):
            sg = f * sigma
            wn = sg / zeta
            kd = (2.0 * sg + far * sg - a1) / b0
            kp = (wn * wn + 2.0 * sg * far * sg - a0) / b0
            ki = wn * wn * far * sg / b0
            if kp > 0.0 and ki > 0.0:
                cands.append(PidGains(kp, ki, max(kd, 0.0)))
        for f in (1.0, 1.5, 2.5, 4.0):
            wc = f * sigma
            mag = _freq_mag(plant, wc)
            if not (math.isfinite(mag) and mag > 0.0):
                continue
            kp = 1.0 / mag
            for ratio in (6.0, 10.0):
                cands.append(PidGains(kp, kp * wc / ratio, 0.0))
    elif n_type >= 1:
        # integrating plant: PI with crossover above the settling rate
        for f in (2.0, 3.0, 4.5, 7.0, 10.0):
            wc = f * sigma
            mag = _freq_mag(plant, wc)
            if not (math.isfinite(mag) and mag > 0.0):
                continue
            kp = 1.0 / mag
            for ratio in (8.0, 12.0):
                cands.append(PidGains(kp, kp * wc / ratio, 0.0))

    mag_ref = _freq_mag(plant, sigma)
    if math.isfinite(mag_ref) and mag_ref > 0.0:
        for kp_f in (0.2, 0.5, 1.0, 2.0, 5.0):
            kp = kp_f / mag_ref
            for ki_f in (0.1, 0.3, 1.0):
                cands.append(PidGains(kp, kp * sigma * ki_f, 0.0))

    seen = set()
    unique = []
    for g in cands:
        key = (round(g.kp, 12), round(g.ki, 12), round(g.kd, 12))
        if key not in seen:
            seen.add(key)
            unique.append(g)
    return unique


def _refine_around(base: PidGains) -> list[PidGains]:
    out = []
    factors = (0.5, 0.75, 1.33, 2.0)
    for fp in factors:
        for fi in factors:
            out.append(PidGains(base.kp * fp, base.ki * fi, base.kd))
    if base.kd > 0.0:
        for fd in factors:
            out.append(PidGains(base.kp, base.ki, base.kd * fd))
    return out


def tune_pid(
    plant: TransferFunction,
    req: Requirement,
    *,
    ts: float = CONSTANTS.default_ts,
    limits: ActuatorLimits = DEFAULT_LIMITS,
    band_pct: float = CONSTANTS.default_band_pct,
) -> PidGains:
    """Search for PID gains meeting the requirement in closed-loop simulation.

    Fully deterministic: analytic pole-placement / loop-shaping seeds, a
    coarse log grid, then up to two rounds of multiplicative local refinement
    around the best near-miss. Each distinct gain set gets at most one
    decay-rate screen, one short screening run and one full-length run.
    Every returned gain set has been verified by simulating the saturated
    loop long enough to confirm tss, overshoot and steady-state error. The
    plant must be BIBO stable or integrating with otherwise stable poles.
    Raises TuningError when nothing passes.
    """
    from . import simloop  # deferred: simloop imports this module at load time

    for p in poles(plant):
        if p.real >= 0.0 and abs(p) > 1e-9:
            raise ValueError(
                "tune_pid needs a BIBO-stable or integrating plant; "
                f"found a pole at {p:g} outside the open left half-plane"
            )

    def judge(gains: PidGains, duration: float):
        """(verdict, metrics) of the requirement's step run for ``duration``,
        or None if the loop diverged."""
        case = simloop.TrackingCase(
            label="", plant=plant, controller=gains, requirement=req, ts=ts,
            limits=limits,
        )
        trace = simloop.run(case.step_scenario(duration))
        if trace.diverged:
            return None
        m = analyze_step(trace, band_pct)
        return check_requirements(m, req), m

    @functools.cache
    def decay_rate(gains: PidGains) -> float | None:
        return simloop.sampled_decay_rate(plant, gains, ts)

    @functools.cache
    def evaluate(gains: PidGains):
        """Returns (verdict, metrics) from a full-length run, or None."""
        rate = decay_rate(gains)
        if rate is None:
            return None
        return judge(gains, min(max(2.0 * req.tss_max, 20.0 / rate), 600.0))

    @functools.cache
    def screen(gains: PidGains) -> bool:
        if decay_rate(gains) is None:
            return False
        result = judge(gains, 2.0 * req.tss_max)
        return result is not None and result[0].tss_ok and result[0].os_ok

    def score(gains: PidGains) -> float:
        result = evaluate(gains)
        if result is None:
            return math.inf
        _, m = result
        s = 0.0 if m.settled else 10.0
        if m.settled and m.tss is not None:
            s += max(0.0, m.tss - req.tss_max) / req.tss_max
        s += max(0.0, m.os_pct - req.os_max) / max(req.os_max, 1.0)
        s += m.ess / max(ess_bound(req.amplitude, req.ess_max), 1e-12)
        return s

    candidates = _candidate_gains(plant, req)
    if not candidates:
        raise TuningError("could not build any tuning candidates for this plant")

    best: tuple[float, PidGains] | None = None
    pool = list(candidates)
    for _ in range(3):
        for gains in pool:
            if not screen(gains):
                continue
            result = evaluate(gains)
            if result is None:
                continue
            verdict, _ = result
            if verdict.passed:
                return replace(gains, u_min=limits.u_min, u_max=limits.u_max)
        # nothing passed this round: rank the pool and refine the best
        scored = [(score(g), i, g) for i, g in enumerate(pool)]
        scored.sort(key=lambda item: (item[0], item[1]))
        if not scored or math.isinf(scored[0][0]):
            break
        best = (scored[0][0], scored[0][2])
        pool = _refine_around(best[1])
    detail = ""
    if best is not None:
        b = best[1]
        detail = (
            f"; best near-miss kp={b.kp:g} ki={b.ki:g} kd={b.kd:g} "
            f"(score {best[0]:.3g})"
        )
    raise TuningError(
        f"no PID gains met the requirement "
        f"(tss<={req.tss_max:g}s, OS<={req.os_max:g}%, ess<={req.ess_max:g})"
        + detail
    )
