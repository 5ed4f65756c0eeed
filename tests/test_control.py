"""Tests for the controller layer: PID stepping with anti-windup, state
feedback with integral action, pole placement and the deterministic tuner."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gemservo import simloop
from gemservo.config import load_project
from gemservo.controllers import (
    DEFAULT_LIMITS,
    ActuatorLimits,
    PidGains,
    PidState,
    StateFeedbackGains,
    TuningError,
    closed_loop_matrix,
    pid_closed_loop_poles,
    pid_step,
    place_poles,
    sf_closed_loop_poles,
    sf_step,
    tune_pid,
)
from gemservo.lti import TransferFunction, discretize_zoh, tf_to_ss
from gemservo.metrics import Requirement, analyze_step, check_requirements
from gemservo.simloop import Scenario, SignalSpec, run

PROJECT = load_project()
ASC_VEL = PROJECT.plants["ascension_velocity"]
DATA = Path(__file__).parent / "data"

WIDE = ActuatorLimits(-350_000.0, 350_000.0)
UNBOUNDED = ActuatorLimits(-1e18, 1e18)


def _run_pid(gains: PidGains, errors, ts: float = 0.01):
    """Drive a PID through an error sequence; returns (u_cmd, u_sat) lists."""
    state = PidState()
    cmds, sats = [], []
    for e in errors:
        u_cmd, u_sat, state = pid_step(gains, state, e, ts)
        cmds.append(u_cmd)
        sats.append(u_sat)
    return cmds, sats, state


# ---------------------------------------------------------------------------
# Gain and state containers


def test_pid_gains_validation():
    with pytest.raises(ValueError):
        PidGains(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        PidGains(1.0, 0.0, 1.0, deriv_filter_n=0.0)  # filter needed with kd
    with pytest.raises(ValueError):
        PidGains(1.0, 0.0, 0.0, u_min=5.0, u_max=5.0)
    with pytest.raises(ValueError):
        PidGains(1.0, 0.0, 0.0, u_min=math.nan)
    # negative gains are deliberate for declination drives
    g = PidGains(-4430.4656, -151.9, 0.0)
    assert g.kp < 0.0
    # kd = 0 does not force a derivative filter setting
    assert PidGains(1.0, 1.0, 0.0, deriv_filter_n=0.0).kd == 0.0


def test_pid_gains_carry_limits():
    g = PidGains(1.0, 2.0, 0.0)
    assert g.u_min == 0.0
    assert g.u_max == 350_000.0
    assert g.limits == DEFAULT_LIMITS
    g = PidGains(1.0, 2.0, 0.0, u_min=-1.0, u_max=1.0)
    assert g.limits == ActuatorLimits(-1.0, 1.0)


def test_pid_state_reset():
    s = PidState(integral=3.0, deriv=-1.0, prev_error=2.0)
    s.reset()
    assert (s.integral, s.deriv, s.prev_error) == (0.0, 0.0, 0.0)


def test_sf_gains_validation():
    with pytest.raises(ValueError):
        StateFeedbackGains(k1=(), k2=1.0)
    with pytest.raises(ValueError):
        StateFeedbackGains(k1=(1.0, math.inf), k2=1.0)
    with pytest.raises(ValueError):
        StateFeedbackGains(k1=(1.0,), k2=math.nan)
    g = StateFeedbackGains(k1=[1, 2], k2=3)
    assert g.k1 == (1.0, 2.0)


# ---------------------------------------------------------------------------
# pid_step


def test_pid_step_pure_proportional():
    u_cmd, u_sat, _ = pid_step(PidGains(1.0, 0.0, 0.0), PidState(), 2.0, 0.01)
    assert u_cmd == 2.0
    assert u_sat == 2.0


def test_pid_step_trapezoidal_integral():
    gains = PidGains(0.0, 1.0, 0.0)
    cmds, _, state = _run_pid(gains, [1.0, 1.0], ts=0.01)
    assert cmds[0] == pytest.approx(0.005)  # 0.5 * ts * (0 + 1)
    assert cmds[1] == pytest.approx(0.015)  # + 0.5 * ts * (1 + 1)
    assert state.integral == pytest.approx(0.015)


def test_pid_step_leaves_input_state_untouched():
    state = PidState(integral=1.0, deriv=0.5, prev_error=0.2)
    pid_step(PidGains(1.0, 1.0, 1.0), state, 3.0, 0.01)
    assert (state.integral, state.deriv, state.prev_error) == (1.0, 0.5, 0.2)


def test_pid_step_anti_windup_freezes_accumulator():
    gains = PidGains(1.0, 100.0, 0.0, u_min=-1.0, u_max=1.0)
    state = PidState()
    u_cmd, u_sat, state = pid_step(gains, state, 1.0, 0.01)
    assert u_sat == 1.0  # pinned from the first step (tentative u = 1.5)
    frozen_at = state.integral
    for _ in range(49):
        u_cmd, u_sat, state = pid_step(gains, state, 1.0, 0.01)
        assert u_sat == 1.0  # still pinned
        assert state.integral == frozen_at  # accumulator unchanged: anti-windup
    # one step after the error flips sign, the command leaves saturation
    u_cmd, u_sat, state = pid_step(gains, state, -1.0, 0.01)
    assert u_cmd < 1.0
    assert u_sat < 1.0


def test_pid_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pid_step(PidGains(1.0, 0.0, 0.0), PidState(), math.nan, 0.01)
    with pytest.raises(ValueError):
        pid_step(PidGains(1.0, 0.0, 0.0), PidState(), 1.0, 0.0)
    with pytest.raises(ValueError):
        pid_step(PidGains(1.0, 0.0, 0.0), PidState(), 1.0, -0.01)


def test_pid_output_linear_in_gains_without_saturation():
    rng = np.random.default_rng(29)
    errors = rng.normal(size=80)
    big = 1e15
    ga = PidGains(2.0, 5.0, 0.3, deriv_filter_n=80.0, u_min=-big, u_max=big)
    gb = PidGains(-1.0, 2.0, 0.7, deriv_filter_n=80.0, u_min=-big, u_max=big)
    gsum = PidGains(1.0, 7.0, 1.0, deriv_filter_n=80.0, u_min=-big, u_max=big)
    ua, _, _ = _run_pid(ga, errors)
    ub, _, _ = _run_pid(gb, errors)
    us, _, _ = _run_pid(gsum, errors)
    np.testing.assert_allclose(np.array(ua) + np.array(ub), us, rtol=1e-12, atol=1e-12)
    gdouble = PidGains(4.0, 10.0, 0.6, deriv_filter_n=80.0, u_min=-big, u_max=big)
    ud, _, _ = _run_pid(gdouble, errors)
    np.testing.assert_allclose(ud, 2.0 * np.array(ua), rtol=1e-12, atol=1e-12)


def test_saturation_envelope_property():
    rng = np.random.default_rng(41)
    for _ in range(10):
        lo, hi = sorted(rng.normal(scale=5.0, size=2))
        if hi - lo < 1e-3:
            hi = lo + 1.0
        gains = PidGains(
            rng.normal(scale=10.0),
            rng.normal(scale=10.0),
            abs(rng.normal(scale=0.5)),
            u_min=lo,
            u_max=hi,
        )
        _, sats, _ = _run_pid(gains, rng.normal(scale=10.0, size=200))
        assert all(lo <= u <= hi for u in sats)
        sf = StateFeedbackGains(k1=tuple(rng.normal(size=2)), k2=rng.normal())
        lim = ActuatorLimits(lo, hi)
        xi = 0.0
        for _ in range(100):
            _, u_sat, xi = sf_step(
                sf, rng.normal(size=2), xi, rng.normal(), rng.normal(), 0.01, lim
            )
            assert lo <= u_sat <= hi


def test_anti_windup_accumulator_bounded_over_1e5_steps():
    gains = PidGains(1.0, 100.0, 0.0, u_min=-1.0, u_max=1.0)
    state = PidState()
    bound = (gains.u_max + 1.0) / gains.ki + 1.0
    for _ in range(100_000):
        _, _, state = pid_step(gains, state, 1.0, 0.01)
        assert abs(state.integral) < bound
    assert state.integral <= 0.02  # froze almost immediately


_GAIN = st.floats(-1e5, 1e5)
_VALUE = st.floats(-1e3, 1e3)
_TS = st.floats(1e-3, 0.1)
# the drive's one-sided range and a symmetric one
_LIMITS = st.builds(
    lambda hi, one_sided: ActuatorLimits(0.0 if one_sided else -hi, hi),
    st.floats(1e-3, 1e6), st.booleans(),
)


def _assert_no_windup(u_cmd, u_sat, limits, pull, integrated):
    """``pull`` is how far the integral moved the command this sample. Beyond
    a limit it must not push further out; within the limits the integral
    takes its full step."""
    if u_cmd > limits.u_max:
        assert pull <= 0.0
    elif u_cmd < limits.u_min:
        assert pull >= 0.0
    else:
        assert integrated
    assert u_sat == min(max(u_cmd, limits.u_min), limits.u_max)


@settings(deadline=None, max_examples=300)
@given(kp=_GAIN, ki=_GAIN, kd=st.floats(0.0, 1e3), n_filter=st.floats(1.0, 1e3),
       limits=_LIMITS, integral=_VALUE, deriv=_VALUE, prev_error=_VALUE,
       error=_VALUE, ts=_TS)
def test_pid_integral_never_winds_further_into_a_limit(
        kp, ki, kd, n_filter, limits, integral, deriv, prev_error, error, ts):
    gains = PidGains(kp, ki, kd, n_filter, limits.u_min, limits.u_max)
    state = PidState(integral, deriv, prev_error)
    u_cmd, u_sat, new = pid_step(gains, state, error, ts)
    _assert_no_windup(
        u_cmd, u_sat, limits, ki * (new.integral - integral),
        new.integral == integral + 0.5 * ts * (error + prev_error),
    )


@settings(deadline=None, max_examples=300)
@given(loop=st.integers(1, 3).flatmap(lambda n: st.tuples(
           st.lists(_GAIN, min_size=n, max_size=n),
           st.lists(_VALUE, min_size=n, max_size=n))),
       k2=_GAIN, limits=_LIMITS, xi=_VALUE, r=_VALUE, y=_VALUE, ts=_TS)
def test_sf_integral_never_winds_further_into_a_limit(loop, k2, limits, xi, r, y,
                                                      ts):
    k1, x = loop
    gains = StateFeedbackGains(tuple(k1), k2)
    u_cmd, u_sat, xi_new = sf_step(gains, x, xi, r, y, ts, limits)
    _assert_no_windup(
        u_cmd, u_sat, limits, k2 * (xi_new - xi), xi_new == xi + ts * (r - y)
    )


# ---------------------------------------------------------------------------
# sf_step


def test_sf_step_pure_integral_channel():
    g = StateFeedbackGains(k1=(0.0,), k2=1.0)
    u_cmd, u_sat, xi_new = sf_step(g, [0.0], 0.0, 1.0, 0.0, 0.01, UNBOUNDED)
    assert xi_new == pytest.approx(0.01)
    assert u_cmd == pytest.approx(0.01)
    assert u_sat == u_cmd


def test_sf_step_pure_state_feedback():
    g = StateFeedbackGains(k1=(1.0, 1.0), k2=0.0)
    u_cmd, _, xi_new = sf_step(g, [2.0, 3.0], 0.0, 0.0, 0.0, 0.01, UNBOUNDED)
    assert u_cmd == -5.0
    assert xi_new == 0.0  # k2 = 0 still updates xi by the rule; r = y here


def test_sf_step_dimension_mismatch():
    g = StateFeedbackGains(k1=(1.0, 2.0), k2=0.5)
    with pytest.raises(ValueError, match="k1"):
        sf_step(g, [1.0], 0.0, 0.0, 0.0, 0.01)
    with pytest.raises(ValueError):
        sf_step(g, [1.0, 2.0], math.nan, 0.0, 0.0, 0.01)
    with pytest.raises(ValueError):
        sf_step(g, [1.0, 2.0], 0.0, 0.0, 0.0, -0.01)


def test_sf_step_conditional_integration():
    g = StateFeedbackGains(k1=(0.0,), k2=10.0)
    lim = ActuatorLimits(-1.0, 1.0)
    xi = 0.0
    for _ in range(200):
        _, u_sat, xi = sf_step(g, [0.0], xi, 1.0, 0.0, 0.01, lim)
        assert u_sat <= 1.0
    assert xi <= 0.2  # frozen near the limit, not wound up to 2.0


def _discrete_sf_loop(plant, gains, ts):
    """One-step matrix of [x; xi] for the sampled loop around sf_step."""
    ss = tf_to_ss(plant)
    dss = discretize_zoh(ss, ts)
    n = ss.order
    Ad, Bd = dss.Ad, dss.Bd[:, :1]
    C = ss.C[:1, :]
    k1 = np.asarray(gains.k1).reshape(1, n)
    phi = np.zeros((n + 1, n + 1))
    phi[:n, :n] = Ad - Bd @ (k1 + ts * gains.k2 * C)
    phi[:n, n:] = Bd * gains.k2
    phi[n, :n] = -ts * C[0]
    phi[n, n] = 1.0
    w = np.zeros(n + 1)
    w[:n] = (Bd * gains.k2 * ts)[:, 0]
    w[n] = ts
    return phi, w


def test_sf_published_velocity_gains_settle_without_error_when_linear():
    # the bundled ascension-velocity gain set, replayed on the canonical
    # realization: the continuous loop is stable, and the sampled loop at a
    # fine step converges to an equilibrium whose output equals the reference
    gains = PROJECT.controllers["ascension_velocity_sf"]
    cont = sf_closed_loop_poles(ASC_VEL, gains)
    assert max(p.real for p in cont) < 0.0

    ts = 1e-4
    phi, w = _discrete_sf_loop(ASC_VEL, gains, ts)
    rho = max(abs(np.linalg.eigvals(phi)))
    assert rho < 1.0
    r = 10.0
    z_star = np.linalg.solve(np.eye(phi.shape[0]) - phi, w * r)
    y_star = float(tf_to_ss(ASC_VEL).C[0] @ z_star[:-1])
    assert y_star == pytest.approx(r, rel=1e-9)  # zero steady-state error

    # at the telescope's 10 ms control period the same gains destabilize the
    # sampled loop, which is why the replay study reports saturation railing
    phi10, _ = _discrete_sf_loop(ASC_VEL, gains, 0.01)
    assert max(abs(np.linalg.eigvals(phi10))) > 1.0


# ---------------------------------------------------------------------------
# closed_loop_matrix


def test_closed_loop_matrix_integrator_example():
    from gemservo.lti import StateSpace

    plant = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    g = StateFeedbackGains(k1=(2.0,), k2=1.0)
    M = closed_loop_matrix(plant, g)
    np.testing.assert_allclose(M, [[-2.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(np.linalg.eigvals(M), [-1.0, -1.0])


def test_closed_loop_matrix_open_loop_limit():
    g = StateFeedbackGains(k1=(0.0, 0.0), k2=0.0)
    M = closed_loop_matrix(ASC_VEL, g)
    eigs = sorted(np.linalg.eigvals(M), key=lambda p: (p.real, p.imag))
    plant_eigs = sorted(
        np.linalg.eigvals(tf_to_ss(ASC_VEL).A), key=lambda p: (p.real, p.imag)
    )
    # the idle integrator contributes the zero eigenvalue, sorted last here
    np.testing.assert_allclose(eigs[:2], plant_eigs, rtol=1e-9)
    assert abs(eigs[2]) < 1e-9


def test_closed_loop_matrix_rejections():
    from gemservo.lti import StateSpace

    g = StateFeedbackGains(k1=(1.0,), k2=1.0)
    biproper = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[2.0]])
    with pytest.raises(ValueError, match="feedthrough"):
        closed_loop_matrix(biproper, g)
    mimo = StateSpace([[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match="single-input"):
        closed_loop_matrix(mimo, g)
    with pytest.raises(ValueError, match="k1"):
        closed_loop_matrix(ASC_VEL, StateFeedbackGains(k1=(1.0,), k2=0.0))


# ---------------------------------------------------------------------------
# place_poles


def test_place_poles_integrator_example():
    from gemservo.lti import StateSpace

    plant = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    g = place_poles(plant, [-1.0, -1.0])
    assert g.k1 == pytest.approx((2.0,))
    assert g.k2 == pytest.approx(1.0)


def test_place_poles_rejections():
    with pytest.raises(ValueError, match="left half-plane"):
        place_poles(ASC_VEL, [1.0, -2.0, -3.0])
    with pytest.raises(ValueError, match="conjugation"):
        place_poles(ASC_VEL, [complex(-1, 2), -2.0, -3.0])
    with pytest.raises(ValueError, match="desired poles"):
        place_poles(ASC_VEL, [-1.0, -2.0])
    from gemservo.lti import StateSpace

    dead_input = StateSpace([[-1.0]], [[0.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="uncontrollable"):
        place_poles(dead_input, [-1.0, -2.0])


def test_place_poles_round_trip_property():
    rng = np.random.default_rng(37)
    for _ in range(15):
        wn = rng.uniform(2.0, 60.0)
        zeta = rng.uniform(0.3, 1.1)
        plant = TransferFunction(
            (rng.uniform(0.05, 10.0),), (1.0, 2.0 * zeta * wn, wn * wn)
        )
        re = -rng.uniform(0.5, 30.0, size=3)
        im = rng.uniform(0.0, 20.0)
        desired = [complex(re[0], im), complex(re[0], -im), complex(re[1], 0.0)]
        g = place_poles(plant, desired)
        achieved = sf_closed_loop_poles(plant, g)
        np.testing.assert_allclose(
            sorted(achieved, key=lambda p: (p.real, p.imag)),
            sorted(desired, key=lambda p: (p.real, p.imag)),
            rtol=1e-6,
            atol=1e-8,
        )


def test_place_poles_repeated_poles():
    g = place_poles(ASC_VEL, [-20.0, -20.0, -80.0])
    achieved = sf_closed_loop_poles(ASC_VEL, g)
    np.testing.assert_allclose(
        sorted(achieved, key=lambda p: p.real), [-80.0, -20.0, -20.0], rtol=2e-6
    )


def test_place_poles_velocity_design_meets_first_requirement():
    # tss <= 0.2 s and OS <= 5% map to zeta >= 0.69, zeta*wn >= 20; use the
    # damped pair at zeta = 0.8, zeta*wn = 25 plus a far real pole at 5x
    gains = place_poles(ASC_VEL, [complex(-25, 18.75), complex(-25, -18.75), -125.0])
    scen = Scenario(
        plant=ASC_VEL,
        controller=gains,
        reference=SignalSpec(shape="step", amplitude=10.0),
        duration=2.0,
        ts=0.01,
    )
    trace = run(scen)
    m = analyze_step(trace)
    verdict = check_requirements(m, PROJECT.requirements["ascension_velocity"])
    assert verdict.passed, (m.tss, m.os_pct, m.ess)


# ---------------------------------------------------------------------------
# closed-loop pole helpers


def test_pid_closed_loop_poles_pi_hand_example():
    # 1/(s+1) under kp=2, ki=3: characteristic polynomial s^2 + 3 s + 3
    got = pid_closed_loop_poles(
        TransferFunction((1.0,), (1.0, 1.0)), PidGains(2.0, 3.0, 0.0)
    )
    want = np.roots([1.0, 3.0, 3.0])
    np.testing.assert_allclose(
        got, sorted(want, key=lambda p: (p.real, p.imag)), rtol=1e-12
    )
    assert len(got) == 2  # no spurious filter or origin pole


def test_pid_closed_loop_poles_counts():
    plant = TransferFunction((1.0,), (1.0, 1.0))
    assert len(pid_closed_loop_poles(plant, PidGains(2.0, 0.0, 0.0))) == 1
    assert len(pid_closed_loop_poles(plant, PidGains(2.0, 1.0, 0.0))) == 2
    assert len(pid_closed_loop_poles(plant, PidGains(2.0, 1.0, 0.5))) == 3


def test_integral_action_gives_zero_ess_on_stable_loops():
    # stable PID loop, no saturation at equilibrium: ess below 1e-6 relative
    plant = TransferFunction((4.0,), (1.0, 3.0))
    gains = PidGains(2.0, 4.0, 0.0, u_min=-1e12, u_max=1e12)
    assert max(p.real for p in pid_closed_loop_poles(plant, gains)) < 0.0
    scen = Scenario(
        plant=plant,
        controller=gains,
        reference=SignalSpec(shape="step", amplitude=5.0),
        duration=30.0,
        ts=0.01,
    )
    m = analyze_step(run(scen))
    assert m.ess <= 1e-6 * 5.0


# ---------------------------------------------------------------------------
# tune_pid


def test_tune_pid_simple_lag_plant():
    plant = TransferFunction((1.0,), (1.0, 1.0))
    req = Requirement(tss_max=2.0, os_max=10.0, ess_max=0.0, amplitude=1.0)
    gains = tune_pid(plant, req)
    scen = Scenario(
        plant=plant,
        controller=gains,
        reference=SignalSpec(shape="step", amplitude=1.0),
        duration=8.0,
        ts=0.01,
    )
    verdict = check_requirements(analyze_step(run(scen)), req)
    assert verdict.passed
    assert gains.ki > 0.0  # integral action needed for zero ess


def test_tune_pid_velocity_row():
    req = PROJECT.requirements["ascension_velocity"]
    gains = tune_pid(ASC_VEL, req)
    scen = Scenario(
        plant=ASC_VEL,
        controller=gains,
        reference=SignalSpec(shape="step", amplitude=req.amplitude),
        duration=2.0,
        ts=0.01,
    )
    m = analyze_step(run(scen))
    assert m.settled and m.tss <= req.tss_max and m.os_pct <= req.os_max


def test_tune_pid_reproduces_recorded_gains():
    # tests/data/tune.json: the four benchmark rows, bit for bit
    for row in json.loads((DATA / "tune.json").read_text()):
        gains = tune_pid(
            PROJECT.plants[row["plant"]],
            PROJECT.requirements[row["plant"]],
            ts=PROJECT.ts,
            limits=ActuatorLimits(*row["limits"]),
            band_pct=PROJECT.band_pct,
        )
        assert gains == PidGains(**row["gains"]), row["plant"]


def test_tune_pid_computes_each_decay_rate_once(monkeypatch):
    seen = []
    decay_rate = simloop.sampled_decay_rate

    def counting(plant, gains, ts):
        seen.append(gains)
        return decay_rate(plant, gains, ts)

    monkeypatch.setattr(simloop, "sampled_decay_rate", counting)
    tune_pid(
        PROJECT.plants["declination_velocity"],
        PROJECT.requirements["declination_velocity"],
        ts=PROJECT.ts,
        limits=PROJECT.limits,
    )
    assert len(seen) == len(set(seen)) == 25


def test_tune_pid_discretizes_the_plant_once(monkeypatch):
    # 25 decay-rate screens and 43 runs on one (plant, ts) made 68 calls
    calls = []
    real = simloop.discretize_zoh

    def counting(ss, ts):
        calls.append(ts)
        return real(ss, ts)

    monkeypatch.setattr(simloop, "discretize_zoh", counting)
    simloop._sampled_plant.cache_clear()
    tune_pid(
        PROJECT.plants["declination_velocity"],
        PROJECT.requirements["declination_velocity"],
        ts=PROJECT.ts,
        limits=PROJECT.limits,
    )
    assert calls == [PROJECT.ts]


@pytest.mark.parametrize(
    "plant, req, limits, n_runs",
    [
        # kp 7788.65, ki 62309.2 is in round 1 and again in the round-2
        # pool; screening it twice made 44 runs
        (PROJECT.plants["declination_velocity"],
         PROJECT.requirements["declination_velocity"], PROJECT.limits, 43),
        # nothing passes, so score() ranks gain sets evaluate() already ran;
        # repeating one screen and one full-length run made 94 runs
        (TransferFunction((1.0,), (1.0, 1.0)),
         Requirement(tss_max=0.5, os_max=0.0, ess_max=0.0, amplitude=1.0),
         ActuatorLimits(0.0, 2.0), 92),
    ],
)
def test_tune_pid_simulates_each_distinct_run_once(plant, req, limits, n_runs,
                                                   monkeypatch):
    runs = []
    real_run = simloop.run

    def counting(scen):
        g = scen.controller
        runs.append((g.kp, g.ki, g.kd, scen.duration))
        return real_run(scen)

    monkeypatch.setattr(simloop, "run", counting)
    try:
        tune_pid(plant, req, ts=PROJECT.ts, limits=limits)
    except TuningError:
        pass
    assert len(runs) == len(set(runs)) == n_runs


def test_tune_pid_rejects_unstable_plant():
    with pytest.raises(ValueError, match="left half-plane"):
        tune_pid(
            TransferFunction((1.0,), (1.0, -2.0)),
            Requirement(tss_max=1.0, os_max=5.0, ess_max=0.0, amplitude=1.0),
        )
