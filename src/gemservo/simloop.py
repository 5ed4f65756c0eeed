"""Closed-loop simulation of saturated servo loops, plus batch study suites.

The plant runs on its exact zero-order-hold discretization; the controller
executes once per sample on the sampled output (ideal sampling by default, an
optional one-sample loop delay for sensitivity studies). Disturbances inject
either at the plant input (load) or the plant output (measurement offset).
Simulations are bit-deterministic: same scenario, same trace. The loop's
arithmetic is fixed Python float arithmetic, every sum taken left to right,
so the trace does not depend on the BLAS build numpy runs on either. Each
kind of loop is compiled once into one function (:func:`_loop_factory`)
from the plant rows of :func:`gemservo.lti._plant_source` and the law text of
:func:`gemservo.controllers._law_source`, so one run is one call.

Once the reference and disturbance are constant, a sample is one fixed map
of the state the loop carries, so a block of samples that ends in the state
it began with, bit for bit, repeats to the end of the run. The loop stops
there and :func:`run` fills the rest of the trace with copies of that block:
the trace stepping every sample gives, to the last bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .controllers import (
    DEFAULT_LIMITS,
    ActuatorLimits,
    PidGains,
    PidState,
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
]

# Output magnitude beyond which the loop is declared diverged and the trace
# truncated. Physical signals here are degrees and degrees/second.
DIVERGENCE_LIMIT = 1e12

_MAX_SAMPLES = 10_000_000

# Samples per block of the compiled loop, which compares its state each block
_BLOCK = 256


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
    """Source of the function :func:`_loop_factory` compiles."""
    plant, output, update = _plant_source(n, "u_in")
    gains, state, _, body = _law_source(law, n)
    if inject == "output":
        output += " + dv[k]"
    u_in = "u_prev" if loop_delay else "u_sat"
    if inject == "input":
        u_in += " + dv[k]"
    carried = [f"x{j}" for j in range(n)] + state + ["u_prev"]
    snapshot = f"_pack({', '.join(carried)})"
    params = ", ".join(plant + gains + ["u_min", "u_max", "ts", "lim"])
    lines = [
        "from struct import Struct",
        f"_pack = Struct('{len(carried)}d').pack",
        f"def loop({params}, rv, dv, uv, usv, yv, k_steady):",
        *(f"    {v} = 0.0" for v in carried),
        f"    last = {snapshot}",
        f"    for k0 in range(0, len(yv), {_BLOCK}):",
        f"        for k in range(k0, min(k0 + {_BLOCK}, len(yv))):",
        f"            y = {output}",
        "            yv[k] = y",
        "            if not -lim <= y <= lim:",
        "                uv[k] = u_prev",
        f"                usv[k] = {_clamp_source('u_prev')}",
        "                return k + 1, True",
        "            r = rv[k]",
        *(["            error = r - y"] if law == "pid" else []),
        *(f"            {line}" for line in body.splitlines()),
        "            uv[k] = u_cmd",
        "            usv[k] = u_sat",
        f"            u_in = {u_in}",
        f"            {update}",
        "            u_prev = u_sat",
        f"        now = {snapshot}",
        "        if now == last and k0 >= k_steady:",
        "            return k + 1, False",
        "        last = now",
        "    return len(yv), False",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _loop_factory(n: int, law: str, inject: str | None, loop_delay: bool):
    """Compile, once per (plant order, ``"pid"`` or ``"sf"`` law, disturbance
    injection, loop delay), the whole sample loop of :func:`run`.

    The body is straight-line float statements over locals: the plant output
    and update of :func:`gemservo.lti._plant_source` around the law text of
    :func:`gemservo.controllers._law_source`. The plant coefficients, gains,
    limits, ts and the divergence limit are arguments, and the signals are
    memoryviews. The loop returns (samples recorded, diverged).

    A sample reads, besides the arguments and its inputs, only ``x0`` ..
    ``x{n-1}``, the law's state and ``u_prev``. A block of ``_BLOCK`` samples
    that starts at or after ``k_steady``, where the inputs turn constant, and
    ends with those packed to the bytes they had at its start repeats to the
    end: the loop returns there, not diverged, before the last sample.
    """
    return _compile(_loop_source(n, law, inject, loop_delay), "loop")


def _steady_from(*signals: np.ndarray | None) -> int:
    """The first sample from which the signals are constant, bit for bit: a
    step counts from its start, a ramp only from its last sample."""
    bits = [s.view(np.int64) for s in signals if s is not None]
    return int(max((np.flatnonzero(b != b[-1])[-1:] + 1).sum() for b in bits))


def run(scenario: Scenario) -> SimTrace:
    """Simulate the scenario and return the full trace. When the compiled
    loop stops early, its last block repeats to the end of the trace."""
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
    end, diverged = loop(
        *_plant_coefficients(dss), *_law_gains(gains),
        limits.u_min, limits.u_max, ts, DIVERGENCE_LIMIT,
        memoryview(r), memoryview(d) if d is not None else None,
        memoryview(u_arr), memoryview(us_arr), memoryview(y_arr),
        _steady_from(r, d),
    )
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
    error]; for state feedback it is [plant x, integral]. Column j is one
    sample of the loop :func:`run` executes, started from the unit state e_j
    with the reference at zero and the actuator limits open, so the matrix
    follows ``pid_step``/``sf_step`` by construction. Its spectral radius
    decides whether the simulated loop is stable — which the continuous-time
    pole helpers cannot, since aggressive gains that look fine in continuous
    time can destabilize the 10 ms loop.
    """
    dss = _sampled_plant(plant, ts)
    n = dss.order
    bd = dss.Bd[:, 0]
    c = dss.C[0, :]
    is_pid = isinstance(controller, PidGains)
    if is_pid:
        gains = replace(controller, u_min=-math.inf, u_max=math.inf)
        m = n + 3
    else:
        _check_k1(controller, n)
        open_limits = ActuatorLimits(-math.inf, math.inf)
        m = n + 1
    phi = np.empty((m, m))
    for j, z in enumerate(np.eye(m)):
        x = z[:n]
        y = float(c @ x)
        if is_pid:
            u, _, s = pid_step(gains, PidState(*z[n:]), -y, ts)
            phi[n:, j] = (s.integral, s.deriv, s.prev_error)
        else:
            u, _, phi[n, j] = sf_step(controller, x, z[n], 0.0, y, ts, open_limits)
        phi[:n, j] = dss.Ad @ x + bd * u
    return phi


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
