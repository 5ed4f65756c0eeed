"""Closed-loop simulation of saturated servo loops, plus batch study suites.

The plant runs on its exact zero-order-hold discretization; the controller
executes once per sample on the sampled output (ideal sampling by default, an
optional one-sample loop delay for sensitivity studies). Disturbances inject
either at the plant input (load) or the plant output (measurement offset).
Simulations are deterministic: same scenario, same trace. Each kind of loop
is compiled once into one function (:func:`_loop_factory`) around one
sample: the plant rows of :func:`gemservo.lti._plant_source` around the law
text of :func:`gemservo.controllers._law_source`, so one run is one call.
The samples the loop steps are fixed Python float arithmetic, every sum
taken left to right, so they do not depend on the BLAS build numpy runs on
either.

Once the reference and disturbance are constant, a sample is one fixed map
of the state the loop carries, so a block of samples that ends in the state
it began with, bit for bit, repeats to the end of the run. The loop stops
there and :func:`run` fills the rest of the trace with copies of that block:
the trace stepping every sample gives, to the last bit.

While the actuator does not clamp, a sample is an affine map of the state
and the inputs, z <- Φ z + g + G (v - v_e) (Åström and Wittenmark,
*Computer-Controlled Systems*, ch. 2), and the loop linearizes itself:
:func:`_loop_map` reads Φ, g and G off single samples the compiled loop
steps with its limits open. After a block in which every input is a step
or a ramp past its start and no command clamped, the loop hands its state
over, and :func:`run` fills the rest in closed form with numpy products,
the ramp-following solution plus a decaying transient, when the loop is
stable, the predicted commands stay inside the limits and the terms they
sum are within 10^3 of the run's largest command. Those filled
samples are not bit-identical to stepped ones. Their outputs differ
from the stepped loop's by at most 1e-12 times the larger of the reference
and the largest stepped output, and their commands by at most 1e-11 times
the largest stepped command (a command is a sum of state terms that can
cancel well below their size), plus the smallest normal float (below which
no float arithmetic keeps a relative precision); they are unclamped. Their
sums are fixed-order elementwise float arithmetic, not BLAS or LAPACK calls,
so they do not depend on the build either. Only whether a tail is taken reads
LAPACK's eigenvalues, and two builds could decide it differently only for a
loop whose spectral radius is within rounding of the threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .controllers import (
    DEFAULT_LIMITS,
    ActuatorLimits,
    PidGains,
    StateFeedbackGains,
    _as_strictly_proper_ss,
    _check_k1,
    _clamp_source,
    _law_gains,
    _law_source,
    pid_step,
    sf_step,
)
from .lti import (
    DiscreteStateSpace,
    TransferFunction,
    _compile,
    _plant_coefficients,
    _plant_source,
    discretize_zoh,
)
from .metrics import (
    CONSTANTS,
    DisturbanceMetrics,
    Requirement,
    RequirementVerdict,
    StepMetrics,
    _tail,
    analyze_disturbance,
    analyze_step,
    check_requirements,
    ess_bound,
    has_step,
)
from .sysid import _read_columns, _write_columns

__all__ = [
    "SignalSpec",
    "DisturbanceSpec",
    "Scenario",
    "SimTrace",
    "run",
    "run_and_judge",
    "max_control",
    "write_trace_csv",
    "read_trace_csv",
    "TrackingCase",
    "TrackingRow",
    "DisturbanceRow",
    "run_tracking_suite",
    "run_disturbance_suite",
    "discrete_loop_matrix",
    # the laws the loop inlines, as functions, for callers that look them up here
    "pid_step",
    "sf_step",
]

# Output magnitude beyond which the loop is declared diverged and the trace
# truncated. Physical signals here are degrees and degrees/second.
DIVERGENCE_LIMIT = 1e12

_MAX_SAMPLES = 10_000_000

# Samples per block of the compiled loop, which compares its state and may
# hand it over each block; the closed-form tail is filled a block at a time,
# from the power of Φ that _powers doubles to, so it is a power of two
_BLOCK = 256
assert _BLOCK & (_BLOCK - 1) == 0, "_BLOCK must be a power of two"

# Blocks the closed-form tail fills per product, which bounds its scratch
# memory to a few of these groups whatever the length of the run
_TAIL_GROUP = 64

# The most a tail's command terms may exceed the run's largest command by:
# a filled command's rounding scales with its terms, the stepped loop's with
# the command, so beyond this the two part by more than the commands allow
_TAIL_TERMS_RATIO = 1e3

# The columns of a trace CSV, for its writer and its reader
_TRACE_COLUMNS = ("t", "r", "e", "u", "u_sat", "y")


@dataclass(frozen=True)
class SignalSpec:
    """Reference signal: a step of ``amplitude`` or a ramp of slope ``rate``,
    both starting at ``start`` seconds (zero before)."""

    shape: str = "step"
    amplitude: float = 0.0
    rate: float = 0.0
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.shape not in ("step", "ramp"):
            raise ValueError(f"shape must be 'step' or 'ramp', got {self.shape!r}")
        for name in ("amplitude", "rate", "start"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.start < 0.0:
            raise ValueError(f"start must be nonnegative, got {self.start}")

    def values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.shape == "step":
            return np.where(t >= self.start, self.amplitude, 0.0)
        return self.rate * np.maximum(t - self.start, 0.0)


@dataclass(frozen=True)
class DisturbanceSpec(SignalSpec):
    """Signal injected at the plant input (load) or plant output (offset)."""

    inject: str = "input"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.inject not in ("input", "output"):
            raise ValueError(
                f"inject must be 'input' or 'output', got {self.inject!r}"
            )


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: plant, controller, reference, optional disturbance.

    ``limits`` left as None means: a PID runs with the limits carried by its
    gains, a state-feedback law runs with the default actuator range. An
    explicit value overrides both for this run.
    """

    plant: TransferFunction
    controller: PidGains | StateFeedbackGains
    reference: SignalSpec
    duration: float
    ts: float = CONSTANTS.default_ts
    limits: ActuatorLimits | None = None
    disturbance: DisturbanceSpec | None = None
    loop_delay: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not (math.isfinite(self.ts) and self.ts > 0.0):
            raise ValueError(f"ts must be positive, got {self.ts}")
        n = self.duration / self.ts
        if n > _MAX_SAMPLES:
            raise ValueError(
                f"scenario would need {n:.3g} samples; limit is {_MAX_SAMPLES}"
            )
        if not isinstance(self.plant, TransferFunction):
            raise ValueError(
                f"plant must be a TransferFunction, got {type(self.plant).__name__}"
            )
        if not isinstance(self.controller, (PidGains, StateFeedbackGains)):
            raise ValueError(
                "controller must be PidGains or StateFeedbackGains, got "
                f"{type(self.controller).__name__}"
            )
        for name in ("reference", "disturbance"):
            spec = getattr(self, name)
            if spec is not None and spec.start > self.duration:
                raise ValueError(
                    f"{name} starts at {spec.start}s, after the "
                    f"{self.duration}s run ends"
                )


@dataclass(frozen=True)
class SimTrace:
    """Recorded closed-loop trajectory.

    ``u`` is the raw controller command, ``u_sat`` the clamped command the
    plant received, ``e = r - y`` the tracking error. ``clipped_low`` and
    ``clipped_high`` count the commands the clamp raised or cut to a limit,
    ``saturation_fraction`` is the share with ``u != u_sat`` (a NaN command
    counts there, at neither limit); ``diverged`` marks truncation at the
    divergence guard. The last sample of a diverged trace records the runaway
    output; its command columns carry the previous command over, since the
    controller does not run on a diverged measurement.
    """

    t: np.ndarray
    r: np.ndarray
    e: np.ndarray
    u: np.ndarray
    u_sat: np.ndarray
    y: np.ndarray
    ts: float
    diverged: bool

    def __len__(self) -> int:
        return self.t.size

    @property
    def clipped_low(self) -> int:
        return int(np.count_nonzero(self.u < self.u_sat))

    @property
    def clipped_high(self) -> int:
        return int(np.count_nonzero(self.u > self.u_sat))

    @property
    def saturation_fraction(self) -> float:
        return float(np.mean(self.u != self.u_sat))


@functools.lru_cache(maxsize=64)
def _sampled_plant(plant: TransferFunction, ts: float) -> DiscreteStateSpace:
    """The zero-order-hold model of ``plant`` at ``ts``, built once per pair.

    A tuner screens and simulates dozens of gain sets on one (plant, ts);
    the model is frozen, with read-only arrays, so every caller can share it.
    A biproper plant is refused here, for the loop, its matrix and the tuner.
    """
    return discretize_zoh(_as_strictly_proper_ss(plant), ts)


def _loop_source(n: int, law: str, inject: str | None, loop_delay: bool) -> str:
    """Source of the function :func:`_loop_factory` compiles: one sample of
    the closed loop, the plant rows of :func:`gemservo.lti._plant_source`
    around the law text of :func:`gemservo.controllers._law_source`, inside
    the loop over samples and blocks. The carried state is ``x0`` ..
    ``x{n-1}``, the law's state and ``u_prev``. The output reads the state
    (and ``dv[k]`` under an output load); the law reads ``rv[k]`` and leaves
    ``u_cmd`` and ``u_sat``; the plant rows then advance the carried state.
    """
    plant, output, update = _plant_source(n, "u_in")
    gains, state, _, body = _law_source(law, n)
    if inject == "output":
        output += " + dv[k]"
    u_in = "u_prev" if loop_delay else "u_sat"
    if inject == "input":
        u_in += " + dv[k]"
    carried = [f"x{j}" for j in range(n)] + state + ["u_prev"]
    params = plant + gains + ["u_min", "u_max", "ts"]
    names = ", ".join(carried)
    zero = ", ".join(["0.0"] * len(carried))
    snapshot = f"_pack({names})"
    sample = [
        f"y = {output}",
        "yv[k] = y",
        "if not -lim <= y <= lim:",
        "    uv[k] = u_prev",
        f"    usv[k] = {_clamp_source('u_prev')}",
        "    return k + 1, True, None",
        "r = rv[k]",
        *(["error = r - y"] if law == "pid" else []),
        *body.splitlines(),
        "uv[k] = u_cmd",
        "usv[k] = u_sat",
        f"u_in = {u_in}",
        update,
        "u_prev = u_sat",
    ]
    lines = [
        "from struct import Struct",
        f"_pack = Struct('{len(carried)}d').pack",
        f"def loop({', '.join(params)}, lim, rv, dv, uv, usv, yv, k_stop,",
        f"         k_hand, start=0, z=({zero},)):",
        f"    {names} = z",
        f"    last = {snapshot}",
        f"    for k0 in range(start, len(yv), {_BLOCK}):",
        f"        for k in range(k0, min(k0 + {_BLOCK}, len(yv))):",
        *(f"            {line}" for line in sample),
        f"        now = {snapshot}",
        "        if now == last and k0 >= k_stop:",
        "            return k + 1, False, None",
        "        last = now",
        f"        if (k0 >= k_hand and k + {_BLOCK} < len(yv)",
        "                and uv[k0:k + 1] == usv[k0:k + 1]):",
        f"            return k + 1, False, ({names},)",
        f"    return len(yv), False, ({names},)",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _loop_factory(n: int, law: str, inject: str | None, loop_delay: bool):
    """Compile, once per (plant order, ``"pid"`` or ``"sf"`` law, disturbance
    injection, loop delay), the whole sample loop of :func:`run`.

    The body is the sample of :func:`_loop_source`, straight-line float
    statements over locals, between the writes of the trace and the
    divergence guard. The plant coefficients, gains, limits, ts and the
    divergence limit are arguments, and the signals are memoryviews (lists
    in the single samples of :func:`_loop_map`). The loop steps from sample
    ``start`` and carried state ``z`` (zero by default) and returns (samples
    recorded, diverged, carried state or None): the state when it hands over
    or reaches the last sample, None when it diverges or repeats.

    A sample reads, besides the arguments and its inputs, only the carried
    state: ``x0`` .. ``x{n-1}``, the law's state and ``u_prev``. A block of
    ``_BLOCK`` samples that starts at or after ``k_stop``, where the inputs
    turn constant bit for bit, and ends with those packed to the bytes they
    had at its start repeats to the end: the loop returns there, not
    diverged, before the last sample. A block that starts at or after
    ``k_hand``, where every input is a step or a ramp past its start, in
    which no command was clamped (``u_sat != u_cmd``, NaN included), and
    after which a whole block remains, returns the carried state: the rest
    of the run is the affine map :func:`run` fills in closed form. Either
    index at ``len(yv)`` turns its check off; :func:`_input_marks` reads
    both off the specs, and a running ramp turns the stop off, since its
    commands still read the moving reference after the state repeats.
    """
    return _compile(_loop_source(n, law, inject, loop_delay), "loop")


def _loop_map(
    dss: DiscreteStateSpace,
    gains: PidGains | StateFeedbackGains,
    ts: float,
    inject: str | None,
    loop_delay: bool,
    r: float,
    d: float,
    moved: tuple[tuple[float, float], ...] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One sample of the loop with the limits open, under reference ``r`` and
    disturbance ``d``, as the affine map (Φ, g, P, q): the carried state
    steps as z <- Φ z + g, and the sample's output and command are
    P z + q. The compiled loop of :func:`_loop_factory`, which returns the
    zero state it starts from when it steps no sample, steps one sample from
    that state with the inputs, for g and q, and one from each unit state
    with zero inputs, for the columns of Φ and P, with the limits and the
    divergence guard open, the repeated-state check and the hand-over off.
    Each (reference, disturbance) pair of ``moved`` adds a column to Φ and
    P, one sample from the zero state under those inputs: the loop is
    linear in its state and inputs, so it is the response G, Q to a change
    of the inputs in that direction, z <- Φ z + g + G Δv.
    A sample whose output is NaN, which the guard stops, gives a NaN column.
    """
    loop = _loop_factory(dss.order, _controller_kind(gains), inject, loop_delay)
    args = (*_plant_coefficients(dss), *_law_gains(gains), -math.inf, math.inf,
            ts, math.inf)
    zero = loop(*args, (), (), [], [], [], 1, 1)[2]
    m = len(zero)

    def sample(r: float, d: float, z: tuple[float, ...]) -> list[float]:
        u, y = [0.0], [0.0]
        _, _, z = loop(*args, (r,), (d,), u, [0.0], y, 1, 1, 0, z)
        return [*z, *y, *u] if z is not None else [math.nan] * (m + 2)

    base = np.array(sample(r, d, zero))
    cols = np.array([sample(0.0, 0.0, tuple(e)) for e in np.eye(m).tolist()]
                    + [sample(dr, dd, zero) for dr, dd in moved]).T
    return cols[:m], base[:m], cols[m:], base[m:]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a matrix ``b``, each entry summed in index order by
    elementwise float arithmetic, so that, unlike a BLAS product, it is the
    same on every build."""
    out = a[..., 0, None] * b[0]
    for i in range(1, len(b)):
        out += a[..., i, None] * b[i]
    return out


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, by Gauss-Jordan elimination with partial pivoting in
    Python float arithmetic: unlike LAPACK's solve, the same on every
    build."""
    rows = [[*row, v] for row, v in zip(a.tolist(), b.tolist())]
    for i in range(len(rows)):
        pivot = max(range(i, len(rows)), key=lambda k: abs(rows[k][i]))
        rows[i], rows[pivot] = rows[pivot], rows[i]
        if rows[i][i] == 0.0:  # singular: no equilibrium
            return np.full(len(rows), math.nan)
        top = [v / rows[i][i] for v in rows[i]]
        rows = [top if k == i else [v - row[i] * w for v, w in zip(row, top)]
                for k, row in enumerate(rows)]
    return np.array([row[-1] for row in rows])


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = a * b rounded and p + e = a * b exactly, elementwise,
    by Dekker's split: plain float arithmetic, the same on every build."""
    def split(v):
        c = v * 134217729.0  # 2^27 + 1
        top = c - (c - v)
        return top, v - top

    (ah, al), (bh, bl) = split(a), split(b)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _square(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi + lo)^2 for a matrix held as the unevaluated float sum hi + lo,
    returned the same way: each product hi_ik hi_kj exact
    (:func:`_two_product`), the sum over k compensated (Knuth's two-sum),
    in a fixed order. Squaring in plain floats rounds each power by up to
    the size of the terms it sums, which cancel in a lightly damped loop,
    and the doubling compounds that into a drift of the slowest decay."""
    p, e = _two_product(hi[:, :, None], hi[None])
    s, err = p[:, 0], e[:, 0] + (_dot(hi, lo) + _dot(lo, hi))
    for k in range(1, len(hi)):
        t = s + p[:, k]
        back = t - s
        err = err + ((s - (t - back)) + (p[:, k] - back)) + e[:, k]
        s = t
    top = s + err
    return top, err - (top - s)


def _refined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_solve`'s x with a x = b, corrected once by the solve of its
    residual b - a x, taken exactly and rounded once (``math.fsum`` of the
    exact products): a ramp's tail reads x through sums that cancel, where
    the first solve's rounding would show."""
    x = _solve(a, b)
    p, e = _two_product(a, x)
    if not (np.isfinite(x).all() and np.isfinite(p).all() and np.isfinite(e).all()):
        return x
    res = [math.fsum([v, *p_row, *e_row])
           for v, p_row, e_row in zip(b.tolist(), (-p).tolist(), (-e).tolist())]
    return x + _solve(a, np.array(res))


def _powers(rows: np.ndarray, step: np.ndarray, count: int, compensated: bool):
    """(rows @ step^j for j < count, stacked on a new first axis, step^h for
    the power of two h >= count it doubled to): per doubling, one product
    of the rows so far and ``step`` by ``step``, whose last rows are the
    plain square, and ``step`` squared by :func:`_square` instead if
    ``compensated``, which a ramp's tail needs (:func:`_closed_form_tail`)."""
    out, m, lo = rows[None], len(step), np.zeros_like(step)
    while len(out) < count:
        both = _dot(np.concatenate((out.reshape(-1, m), step)), step)
        step, lo = _square(step, lo) if compensated else (both[-m:], lo)
        out = np.concatenate((out, both[:-m].reshape(out.shape)))
    return out[:count], step


def _spectral_radius(phi: np.ndarray) -> float | None:
    """The spectral radius of the loop map ``phi``, or None when it is
    1 - 1e-9 or more, or NaN: the one stability rule, for the closed-form
    tail and :func:`sampled_decay_rate`."""
    rho = float(np.max(np.abs(np.linalg.eigvals(phi))))
    return rho if rho < 1.0 - 1e-9 else None


def _closed_form_tail(
    scenario: Scenario,
    dss: DiscreteStateSpace,
    limits: ActuatorLimits,
    z: tuple[float, ...],
    r: np.ndarray,
    d: np.ndarray | None,
    y_out: np.ndarray,
    u_out: np.ndarray,
    u_peak: float,
) -> bool:
    """Fill ``y_out`` and ``u_out`` with the next outputs and commands of the
    loop from the carried state ``z`` under the reference ``r`` and the
    disturbance ``d`` (None for none) of those samples, each a step or a
    ramp; False, with the arrays partly filled, when the stepped loop could
    leave the affine map on them.

    With v_k the inputs, v_e their values at the first sample and s their
    slope per sample, a sample steps the state as
    z <- Φ z + g + G (v_k - v_e) (:func:`_loop_map`). Its particular
    solution z*_k = a + B (v_k - v_e), with B = (I - Φ)^-1 G and
    a = (I - Φ)^-1 (g - B s), follows the ramp, and the rest decays: sample
    b _BLOCK + j of the tail is P Φ^j Φ^(b _BLOCK) (z - a) + P a + q
    + (P B + Q) (v_k - v_e), the last term read off the tail's own inputs.
    Under steps s = 0, no G is sampled, and a is the equilibrium
    (I - Φ)^-1 g. Under a ramp the transient can be much larger than the
    outputs the run reaches, and the ramp term cancels to the output's
    size, so B and a come from :func:`_refined` solves and the powers of Φ
    from :func:`_square`, whose rounding does not compound. The rows
    P Φ^j, j < _BLOCK, and the block starts come by doubling, and the
    samples from (blocks × m) @ (m × 2 _BLOCK) products, ``_TAIL_GROUP``
    blocks at a time: the blocked shape of :func:`gemservo.sysid._lsim`.
    Every sum is fixed-order float arithmetic, so the filled samples do not
    depend on the BLAS or LAPACK build.

    The tail is refused when :func:`_spectral_radius` finds Φ not stable,
    when anything is not finite, when the command P a + q at the first
    sample or any predicted command is not inside the limits by a margin,
    or when an output reaches ``DIVERGENCE_LIMIT``. The margin is 1e-9 of
    the largest of the finite limits, their span, and the command's terms
    |P_u| (|a| + |z - a|) + |q_u| + |P_u B + Q_u| |v_last - v_e|, the scale
    its rounding takes. It is refused, too, when those terms exceed
    ``_TAIL_TERMS_RATIO`` times the run's largest command, the larger of the
    stepped ones', ``u_peak``, and the predicted ones: two ramps that cancel
    in the error leave commands far below the terms they sum.
    """
    dist = scenario.disturbance
    # the inputs that move over the tail, each with its unit direction
    moving = [(v, unit) for v, unit in ((r, (1.0, 0.0)), (d, (0.0, 1.0)))
              if v is not None and v[-1] != v[0]]
    phi, g, p, q = _loop_map(
        dss, scenario.controller, scenario.ts, dist.inject if dist else None,
        scenario.loop_delay, r[0], d[0] if d is not None else 0.0,
        tuple(unit for _, unit in moving),
    )
    if not all(np.isfinite(a).all() for a in (phi, g, p, q)):
        return False
    m = len(z)
    phi, gv, p, qv = phi[:, :m], phi[:, m:], p[:, :m], p[:, m:]
    if _spectral_radius(phi) is None:
        return False
    count = len(y_out)
    with np.errstate(all="ignore"):
        lhs = np.eye(m) - phi
        if moving:
            travel = np.array([v[-1] - v[0] for v, _ in moving])
            b = np.array([_refined(lhs, col) for col in gv.T]).T
            z_eq = _refined(lhs, g - _dot(b, travel[:, None] / (count - 1))[:, 0])
            ramp = _dot(p, b) + qv
        else:
            z_eq = _solve(lhs, g)
        dz = np.array(z) - z_eq
        y_eq, u_eq = _dot(p, z_eq[:, None])[:, 0] + q
        terms = float(np.sum(np.abs(p[1]) * (np.abs(z_eq) + np.abs(dz)))) + abs(q[1])
        if moving:
            terms += float(np.sum(np.abs(ramp[1]) * np.abs(travel)))
        bounds = (limits.u_min, limits.u_max, limits.u_max - limits.u_min)
        margin = 1e-9 * max([abs(v) for v in bounds if math.isfinite(v)] + [terms])
        lo, hi = limits.u_min + margin, limits.u_max - margin
        if not lo < u_eq < hi:
            return False
        rows, phi_block = _powers(p, phi, _BLOCK, bool(moving))
        rows = rows.transpose(2, 1, 0).reshape(m, 2 * _BLOCK)
        starts, _ = _powers(dz, phi_block.T, -(-count // _BLOCK), bool(moving))
        for k0 in range(0, count, _TAIL_GROUP * _BLOCK):
            b0, k1 = k0 // _BLOCK, min(k0 + _TAIL_GROUP * _BLOCK, count)
            yu = _dot(starts[b0:b0 + _TAIL_GROUP], rows).reshape(-1, 2, _BLOCK)
            y, u = y_out[k0:k1], u_out[k0:k1]
            y[:] = yu[:, 0].reshape(-1)[:k1 - k0] + y_eq
            u[:] = yu[:, 1].reshape(-1)[:k1 - k0] + u_eq
            for i, (v, _) in enumerate(moving):
                dv = v[k0:k1] - v[0]
                y += ramp[0, i] * dv
                u += ramp[1, i] * dv
            if not (np.all((lo < u) & (u < hi))
                    and np.all(np.abs(y) < DIVERGENCE_LIMIT)):
                return False
            u_peak = max(u_peak, float(np.max(np.abs(u))))
    return terms <= _TAIL_TERMS_RATIO * u_peak


def _input_marks(specs, t: np.ndarray) -> tuple[int, int]:
    """(k_stop, k_hand) of :func:`_loop_factory` for a run sampled at ``t``
    under the input ``specs``, read off the specs, since a sampled ramp is
    affine only up to rounding. ``k_stop`` is the latest start of a step
    whose sampled value moves (any amplitude but +0.0), or ``len(t)``, no
    stop, while a ramp of nonzero rate runs; ``k_hand`` the latest start,
    or ``k_stop`` if that comes first, before the last sample."""
    k_stop = k_last = 0
    for spec in specs:
        k = int(np.searchsorted(t, spec.start))
        k_last = max(k_last, k)
        if spec.shape == "ramp":
            if spec.rate != 0.0 and t[-1] > spec.start:
                k_stop = len(t)
        elif k < len(t) and (spec.amplitude or math.copysign(1.0, spec.amplitude) < 0):
            k_stop = max(k_stop, k)
    return k_stop, min(k_stop, k_last, len(t) - 1)


def run(scenario: Scenario) -> SimTrace:
    """Simulate the scenario and return the full trace.

    The compiled loop steps the run. Once every input is a step or a ramp
    past its start and a block went unclamped it hands its state over, and
    the rest of the trace is filled in closed form
    (:func:`_closed_form_tail`), with ``u_sat`` equal to ``u``; when that
    tail is refused, the loop resumes from the state it handed over and
    steps to the end. When the loop stops early on a repeated state, which
    it checks only once the inputs are constant, its last block repeats to
    the end of the trace. Both indices come from one reading of the specs
    (:func:`_input_marks`).
    """
    dss = _sampled_plant(scenario.plant, scenario.ts)
    gains, dist, ts = scenario.controller, scenario.disturbance, scenario.ts
    law = _controller_kind(gains)
    if law == "sf":
        _check_k1(gains, dss.order)
    limits = scenario.limits
    if limits is None:
        limits = gains.limits if law == "pid" else DEFAULT_LIMITS

    N = int(round(scenario.duration / ts)) + 1
    t = np.arange(N) * ts
    r = scenario.reference.values(t)
    d = dist.values(t) if dist is not None else None
    loop = _loop_factory(dss.order, law, dist.inject if dist else None,
                         scenario.loop_delay)
    u_arr, us_arr, y_arr = np.empty((3, N))
    args = (
        *_plant_coefficients(dss), *_law_gains(gains),
        limits.u_min, limits.u_max, ts, DIVERGENCE_LIMIT,
        memoryview(r), memoryview(d) if d is not None else None,
        memoryview(u_arr), memoryview(us_arr), memoryview(y_arr),
    )
    k_stop, k_hand = _input_marks([s for s in (scenario.reference, dist) if s], t)
    end, diverged, z = loop(*args, k_stop, k_hand)
    if z is not None and end < N:
        if _closed_form_tail(
            scenario, dss, limits, z, r[end:], d[end:] if d is not None else None,
            y_arr[end:], u_arr[end:], float(np.max(np.abs(u_arr[:end]), initial=0.0)),
        ):
            us_arr[end:] = u_arr[end:]
            end = N
        else:
            end, diverged, _ = loop(*args, k_stop, N, end, z)
    if end < N and not diverged:
        for arr in (u_arr, us_arr, y_arr):
            arr[end:] = np.resize(arr[end - _BLOCK:end], N - end)
        end = N

    r, y_arr = r[:end], y_arr[:end]
    cols = {"t": t[:end], "r": r, "e": r - y_arr, "u": u_arr[:end],
            "u_sat": us_arr[:end], "y": y_arr}
    for arr in cols.values():
        arr.setflags(write=False)
    return SimTrace(**cols, ts=ts, diverged=diverged)


def run_and_judge(
    scenario: Scenario,
    requirement: Requirement | None = None,
    band_pct: float = CONSTANTS.default_band_pct,
) -> tuple[SimTrace, StepMetrics | None, RequirementVerdict | None]:
    """Run the scenario and judge its step response: (trace, metrics,
    verdict). The metrics are None for a trace of under 2 samples or one
    whose reference does not step (a disturbance-only run), and the verdict
    is None without a requirement, without metrics or after divergence."""
    trace = run(scenario)
    stepped = len(trace) >= 2 and has_step(trace)
    metrics = analyze_step(trace, band_pct) if stepped else None
    verdict = None
    if requirement is not None and metrics is not None and not trace.diverged:
        verdict = check_requirements(metrics, requirement)
    return trace, metrics, verdict


def max_control(trace: SimTrace) -> float:
    """Largest clamped command seen in the trace (signed maximum)."""
    return float(np.max(trace.u_sat))


def write_trace_csv(trace: SimTrace, path: str | Path) -> None:
    """Write the trace as a t,r,e,u,u_sat,y CSV (deterministic formatting,
    :func:`gemservo.sysid._write_columns`)."""
    _write_columns(path, _TRACE_COLUMNS, [getattr(trace, c) for c in _TRACE_COLUMNS])


def read_trace_csv(path: str | Path) -> SimTrace:
    """Read a trace CSV produced by :func:`write_trace_csv`. Errors name the
    file and the line; a cell that is not a finite number is refused."""
    path = Path(path)
    cols = _read_columns(path, _TRACE_COLUMNS)
    if len(cols) < 2:
        raise ValueError(f"{path}: trace needs at least 2 samples")
    t, r, e, u, us, y = np.ascontiguousarray(cols.T)
    dt = np.diff(t)
    ts = float(dt[0])
    # the writer rounds each time to 12 digits, by up to 5e-12 of it, and a
    # spacing is compared with the first through four such times
    slack = 1e-6 * ts + 2e-11 * np.maximum(np.abs(t[1:]), abs(t[0]))
    if ts <= 0.0 or np.any(np.abs(dt - ts) > slack):
        raise ValueError(f"{path}: t column must be uniformly increasing")
    return SimTrace(t=t, r=r, e=e, u=u, u_sat=us, y=y, ts=ts, diverged=False)


@dataclass(frozen=True)
class TrackingCase:
    """One plant/controller/requirement combination for the study suites."""

    label: str
    plant: TransferFunction
    controller: PidGains | StateFeedbackGains
    requirement: Requirement
    ts: float = CONSTANTS.default_ts
    limits: ActuatorLimits = DEFAULT_LIMITS
    band_pct: float = CONSTANTS.default_band_pct

    def step_scenario(
        self, duration: float, disturbance: DisturbanceSpec | None = None
    ) -> Scenario:
        """The requirement's step, run for ``duration`` seconds."""
        return Scenario(
            plant=self.plant,
            controller=self.controller,
            reference=SignalSpec(shape="step", amplitude=self.requirement.amplitude),
            duration=duration,
            ts=self.ts,
            limits=self.limits,
            disturbance=disturbance,
            label=self.label,
        )


@dataclass(frozen=True)
class TrackingRow:
    """Tracking-study outcome for one case."""

    label: str
    controller_kind: str
    linearly_stable: bool
    diverged: bool
    metrics: StepMetrics | None
    verdict: RequirementVerdict | None
    max_control: float
    saturation_fraction: float
    upper_saturated: bool
    clipped_negative: bool
    duration: float


@dataclass(frozen=True)
class DisturbanceRow:
    """Disturbance-study outcome for one case, with the tracking run it was
    built on."""

    label: str
    controller_kind: str
    evaluated: bool
    amplitude: float
    onset: float
    metrics: DisturbanceMetrics | None
    rejected: bool
    diverged: bool
    tracking: TrackingRow


def discrete_loop_matrix(
    plant: TransferFunction,
    controller: PidGains | StateFeedbackGains,
    ts: float = CONSTANTS.default_ts,
) -> np.ndarray:
    """One-step transition matrix of the sampled closed loop, saturation off.

    For a PID the state is [plant x, integral, filtered derivative, previous
    error]; for state feedback it is [plant x, integral]. It is the leading
    block of the Φ of :func:`_loop_map`: column j is one sample of the loop
    :func:`run` steps, the same compiled function, started from the unit
    state e_j with the reference at zero and the actuator limits open, so
    the matrix follows the law text of ``pid_step``/``sf_step`` by
    construction. Its spectral radius decides whether the simulated loop is
    stable — which the continuous-time pole helpers cannot, since aggressive
    gains that look fine in continuous time can destabilize the 10 ms loop.
    """
    dss = _sampled_plant(plant, ts)
    if not isinstance(controller, PidGains):
        _check_k1(controller, dss.order)
    phi = _loop_map(dss, controller, ts, None, False, 0.0, 0.0)[0]
    return phi[:-1, :-1]  # without a loop delay no sample reads u_prev


def sampled_decay_rate(
    plant: TransferFunction,
    controller: PidGains | StateFeedbackGains,
    ts: float = CONSTANTS.default_ts,
) -> float | None:
    """Decay rate -ln(rho)/ts of the sampled loop, where rho is the spectral
    radius of :func:`discrete_loop_matrix`; None when
    :func:`_spectral_radius` finds the loop not stable."""
    rho = _spectral_radius(discrete_loop_matrix(plant, controller, ts))
    return None if rho is None else -math.log(rho) / ts


def _case_duration(case: TrackingCase) -> tuple[bool, float]:
    """(sampled-loop stable, simulation length). Stable loops get windows long
    enough to expose the true steady state; unstable ones a fixed 60 s."""
    rate = sampled_decay_rate(case.plant, case.controller, case.ts)
    if rate is None:
        return False, 60.0
    return True, min(max(2.2 * case.requirement.tss_max, 30.0 / rate), 600.0)


def _controller_kind(controller) -> str:
    return "pid" if isinstance(controller, PidGains) else "sf"


def _run_tracking_case(case: TrackingCase) -> tuple[TrackingRow, SimTrace]:
    stable, duration = _case_duration(case)
    trace, metrics, verdict = run_and_judge(
        case.step_scenario(duration), case.requirement, case.band_pct
    )
    row = TrackingRow(
        label=case.label,
        controller_kind=_controller_kind(case.controller),
        linearly_stable=stable,
        diverged=trace.diverged,
        metrics=metrics,
        verdict=verdict,
        max_control=max_control(trace),
        saturation_fraction=trace.saturation_fraction,
        upper_saturated=trace.clipped_high > 0,
        clipped_negative=trace.clipped_low > 0,
        duration=duration,
    )
    return row, trace


def run_tracking_suite(cases: list[TrackingCase]) -> list[TrackingRow]:
    """Step-tracking study: simulate each case and collect metrics, in input
    order."""
    return [_run_tracking_case(case)[0] for case in cases]


def run_disturbance_suite(
    cases: list[TrackingCase],
    magnitude_fraction: float = 0.1,
    inject: str = "input",
) -> list[DisturbanceRow]:
    """Disturbance-rejection study.

    Each case first runs its tracking scenario, once: the row keeps that run
    as ``tracking``, so a caller needing both studies calls only this suite.
    Loops that settle then get a constant disturbance stepping in at twice
    the measured settling time, sized as a fraction of the steady-state
    control effort. Loops that never settle are reported as not evaluated.
    """
    if not (math.isfinite(magnitude_fraction) and magnitude_fraction >= 0.0):
        raise ValueError(
            f"magnitude_fraction must be nonnegative, got {magnitude_fraction}"
        )
    if inject not in ("input", "output"):
        raise ValueError(f"inject must be 'input' or 'output', got {inject!r}")
    return [
        _run_disturbance_case(
            case, *_run_tracking_case(case), magnitude_fraction, inject
        )
        for case in cases
    ]


def _run_disturbance_case(
    case: TrackingCase,
    track_row: TrackingRow,
    track_trace: SimTrace,
    magnitude_fraction: float,
    inject: str,
) -> DisturbanceRow:
    m = track_row.metrics
    evaluated = not track_row.diverged and m is not None and m.settled
    diverged = track_row.diverged
    amp = onset = 0.0
    dm = None
    if evaluated:
        tss = m.tss if m.tss and m.tss > 0.0 else 10.0 * case.ts
        onset = max(2.0 * tss, 20.0 * case.ts)
        amp = magnitude_fraction * float(np.mean(_tail(track_trace.u_sat)))
        trace = run(case.step_scenario(
            onset + track_row.duration,
            DisturbanceSpec(shape="step", amplitude=amp, start=onset, inject=inject),
        ))
        diverged = trace.diverged or len(trace) < 2
        if not diverged:
            dm = analyze_disturbance(trace, onset, case.band_pct)
    return DisturbanceRow(
        label=case.label,
        controller_kind=track_row.controller_kind,
        evaluated=evaluated,
        amplitude=amp,
        onset=onset,
        metrics=dm,
        rejected=dm is not None
        and dm.final_error <= ess_bound(case.requirement.amplitude),
        diverged=diverged,
        tracking=track_row,
    )
