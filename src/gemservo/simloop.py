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

While the actuator does not clamp, that map is also linear, z <- Φ z + g
(Åström and Wittenmark, *Computer-Controlled Systems*, ch. 2), and the loop
linearizes itself: :func:`_loop_map` reads Φ and g off single samples the
compiled loop steps with its limits open. After a block
with constant inputs and no clamped command the loop hands its state over,
and :func:`run` fills the rest in closed form with numpy products, when the
loop is stable and the predicted commands stay inside the limits. Those
filled samples are not bit-identical to stepped ones. Their outputs differ
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
from .sysid import _read_columns

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
        if self.reference.start > self.duration:
            raise ValueError(
                f"reference starts at {self.reference.start}s, after the "
                f"{self.duration}s run ends"
            )
        if self.disturbance is not None and self.disturbance.start > self.duration:
            raise ValueError(
                f"disturbance starts at {self.disturbance.start}s, after the "
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
        f"def loop({', '.join(params)}, lim, rv, dv, uv, usv, yv, k_steady,",
        f"         start=0, hand_over=True, z=({zero},)):",
        f"    {names} = z",
        f"    last = {snapshot}",
        f"    for k0 in range(start, len(yv), {_BLOCK}):",
        f"        for k in range(k0, min(k0 + {_BLOCK}, len(yv))):",
        *(f"            {line}" for line in sample),
        f"        now = {snapshot}",
        "        if now == last and k0 >= k_steady:",
        "            return k + 1, False, None",
        "        last = now",
        f"        if (hand_over and k0 >= k_steady and k + {_BLOCK} < len(yv)",
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
    ``_BLOCK`` samples that starts at or after ``k_steady``, where the inputs
    turn constant, and ends with those packed to the bytes they had at its
    start repeats to the end: the loop returns there, not diverged, before
    the last sample. With ``hand_over`` set, a block that starts at or after
    ``k_steady``, in which no command was clamped (``u_sat != u_cmd``, NaN
    included), and after which a whole block remains, returns the carried
    state: the rest of the run is the linear map :func:`run` fills in closed
    form.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One sample of the loop with the limits open, under constant reference
    ``r`` and disturbance ``d``, as the affine map (Φ, g, P, q): the carried
    state steps as z <- Φ z + g, and the sample's output and command are
    P z + q. The compiled loop of :func:`_loop_factory`, which returns the
    zero state it starts from when it steps no sample, steps one sample from
    that state with the inputs, for g and q, and one from each unit state
    with zero inputs, for the columns of Φ and P, with the limits and the
    divergence guard open, the repeated-state check and the hand-over off.
    A sample whose output is NaN, which the guard stops, gives a NaN column.
    """
    law = "pid" if isinstance(gains, PidGains) else "sf"
    loop = _loop_factory(dss.order, law, inject, loop_delay)
    args = (*_plant_coefficients(dss), *_law_gains(gains), -math.inf, math.inf,
            ts, math.inf)
    zero = loop(*args, (), (), [], [], [], 1)[2]
    m = len(zero)

    def sample(r: float, d: float, z: tuple[float, ...]) -> list[float]:
        u, y = [0.0], [0.0]
        _, _, z = loop(*args, (r,), (d,), u, [0.0], y, 1, 0, False, z)
        return [*z, *y, *u] if z is not None else [math.nan] * (m + 2)

    base = np.array(sample(r, d, zero))
    cols = np.array([sample(0.0, 0.0, tuple(e)) for e in np.eye(m).tolist()]).T
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


def _powers(rows: np.ndarray, step: np.ndarray, count: int):
    """(rows @ step^j for j < count, stacked on a new first axis, step^h for
    the power of two h >= count it doubled to): one product per doubling."""
    out, m = rows[None], len(step)
    while len(out) < count:
        both = _dot(np.concatenate((out.reshape(-1, m), step)), step)
        out, step = np.concatenate((out, both[:-m].reshape(out.shape))), both[-m:]
    return out[:count], step


def _closed_form_tail(
    scenario: Scenario,
    dss: DiscreteStateSpace,
    limits: ActuatorLimits,
    z: tuple[float, ...],
    r: float,
    d: float,
    y_out: np.ndarray,
    u_out: np.ndarray,
) -> bool:
    """Fill ``y_out`` and ``u_out`` with the next outputs and commands of the
    loop from the carried state ``z`` under constant inputs ``r`` and ``d``;
    False, with the arrays partly filled, when the stepped loop could leave
    the linear map on them.

    With the state shifted to the equilibrium z* = (I - Φ)^-1 g of
    :func:`_loop_map`, sample b _BLOCK + j of the tail is
    P Φ^j Φ^(b _BLOCK) (z - z*) + P z* + q. The rows P Φ^j, j < _BLOCK, and
    the block starts come by doubling, and the samples from (blocks × m)
    @ (m × 2 _BLOCK) products, ``_TAIL_GROUP`` blocks at a time: the blocked
    shape of :func:`gemservo.sysid._lsim`. Every sum is :func:`_dot`'s or
    :func:`_solve`'s, so the filled samples do not depend on the BLAS or
    LAPACK build; only the spectral radius is LAPACK's, and it only decides
    whether the tail is taken.

    The tail is refused when the spectral radius of Φ is 1 - 1e-12 or more,
    when anything is not finite, when the equilibrium command or any
    predicted command is not inside the limits by a margin, or when an
    output reaches ``DIVERGENCE_LIMIT``. The margin is 1e-9 of the largest
    of the finite limits, their span, and the command's terms
    |P_u| (|z*| + |z - z*|) + |q_u|, the scale its rounding takes.
    """
    dist = scenario.disturbance
    phi, g, p, q = _loop_map(
        dss, scenario.controller, scenario.ts, dist.inject if dist else None,
        scenario.loop_delay, r, d,
    )
    if not all(np.isfinite(a).all() for a in (phi, g, p, q)):
        return False
    if np.max(np.abs(np.linalg.eigvals(phi))) >= 1.0 - 1e-12:
        return False
    m = len(z)
    with np.errstate(all="ignore"):
        z_eq = _solve(np.eye(m) - phi, g)
        dz = np.array(z) - z_eq
        y_eq, u_eq = _dot(p, z_eq[:, None])[:, 0] + q
        terms = float(np.sum(np.abs(p[1]) * (np.abs(z_eq) + np.abs(dz)))) + abs(q[1])
        bounds = (limits.u_min, limits.u_max, limits.u_max - limits.u_min)
        margin = 1e-9 * max([abs(v) for v in bounds if math.isfinite(v)] + [terms])
        lo, hi = limits.u_min + margin, limits.u_max - margin
        if not lo < u_eq < hi:
            return False
        rows, phi_block = _powers(p, phi, _BLOCK)
        rows = rows.transpose(2, 1, 0).reshape(m, 2 * _BLOCK)
        count = len(y_out)
        starts, _ = _powers(dz, phi_block.T, -(-count // _BLOCK))
        for k0 in range(0, count, _TAIL_GROUP * _BLOCK):
            b0, k1 = k0 // _BLOCK, min(k0 + _TAIL_GROUP * _BLOCK, count)
            yu = _dot(starts[b0:b0 + _TAIL_GROUP], rows).reshape(-1, 2, _BLOCK)
            y, u = y_out[k0:k1], u_out[k0:k1]
            y[:] = yu[:, 0].reshape(-1)[:k1 - k0] + y_eq
            u[:] = yu[:, 1].reshape(-1)[:k1 - k0] + u_eq
            if not (np.all((lo < u) & (u < hi))
                    and np.all(np.abs(y) < DIVERGENCE_LIMIT)):
                return False
    return True


def _steady_from(*signals: np.ndarray | None) -> int:
    """The first sample from which the signals are constant, bit for bit: a
    step counts from its start, a ramp only from its last sample."""
    bits = [s.view(np.int64) for s in signals if s is not None]
    return int(max((np.flatnonzero(b != b[-1])[-1:] + 1).sum() for b in bits))


def run(scenario: Scenario) -> SimTrace:
    """Simulate the scenario and return the full trace.

    The compiled loop steps the run. Once the inputs are constant and a
    block went unclamped it hands its state over, and the rest of the trace
    is filled in closed form (:func:`_closed_form_tail`), with ``u_sat``
    equal to ``u``; when that tail is refused, the loop resumes from the
    state it handed over and steps to the end. When the loop stops early on
    a repeated state, its last block repeats to the end of the trace.
    """
    dss = _sampled_plant(scenario.plant, scenario.ts)
    n = dss.order
    gains = scenario.controller
    is_pid = isinstance(gains, PidGains)
    if not is_pid:
        _check_k1(gains, n)

    N = int(round(scenario.duration / scenario.ts)) + 1
    t = np.arange(N) * scenario.ts
    r = scenario.reference.values(t)
    dist = scenario.disturbance
    d = dist.values(t) if dist is not None else None
    limits = scenario.limits
    if limits is None:
        limits = gains.limits if is_pid else DEFAULT_LIMITS
    ts = scenario.ts

    loop = _loop_factory(
        n, "pid" if is_pid else "sf", dist.inject if dist is not None else None,
        scenario.loop_delay,
    )
    u_arr = np.empty(N)
    us_arr = np.empty(N)
    y_arr = np.empty(N)
    args = (
        *_plant_coefficients(dss), *_law_gains(gains),
        limits.u_min, limits.u_max, ts, DIVERGENCE_LIMIT,
        memoryview(r), memoryview(d) if d is not None else None,
        memoryview(u_arr), memoryview(us_arr), memoryview(y_arr),
        _steady_from(r, d),
    )
    end, diverged, z = loop(*args)
    if z is not None and end < N:
        if _closed_form_tail(
            scenario, dss, limits, z, r[end], d[end] if d is not None else 0.0,
            y_arr[end:], u_arr[end:],
        ):
            us_arr[end:] = u_arr[end:]
            end = N
        else:
            end, diverged, _ = loop(*args, end, False, z)
    if end < N and not diverged:
        for arr in (u_arr, us_arr, y_arr):
            arr[end:] = np.resize(arr[end - _BLOCK:end], N - end)
        end = N

    t = t[:end]
    r = r[:end]
    u_arr = u_arr[:end]
    us_arr = us_arr[:end]
    y_arr = y_arr[:end]
    e_arr = r - y_arr
    for arr in (t, r, e_arr, u_arr, us_arr, y_arr):
        arr.setflags(write=False)
    return SimTrace(
        t=t,
        r=r,
        e=e_arr,
        u=u_arr,
        u_sat=us_arr,
        y=y_arr,
        ts=ts,
        diverged=diverged,
    )


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
    """Write the trace as a t,r,e,u,u_sat,y CSV (deterministic formatting)."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write("t,r,e,u,u_sat,y\n")
        for k in range(len(trace)):
            fh.write(
                f"{trace.t[k]:.12g},{trace.r[k]:.12g},{trace.e[k]:.12g},"
                f"{trace.u[k]:.12g},{trace.u_sat[k]:.12g},{trace.y[k]:.12g}\n"
            )


def read_trace_csv(path: str | Path) -> SimTrace:
    """Read a trace CSV produced by :func:`write_trace_csv`. Errors name the
    file and the line; a cell that is not a finite number is refused."""
    path = Path(path)
    cols = _read_columns(path, ("t", "r", "e", "u", "u_sat", "y"))
    if len(cols) < 2:
        raise ValueError(f"{path}: trace needs at least 2 samples")
    t, r, e, u, us, y = np.ascontiguousarray(cols.T)
    dt = np.diff(t)
    ts = float(dt[0])
    if ts <= 0.0 or np.any(np.abs(dt - ts) > 1e-6 * ts):
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
    radius of :func:`discrete_loop_matrix`; None when rho >= 1 - 1e-9."""
    phi = discrete_loop_matrix(plant, controller, ts)
    rho = float(np.max(np.abs(np.linalg.eigvals(phi))))
    if rho >= 1.0 - 1e-9:
        return None
    return -math.log(rho) / ts


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
