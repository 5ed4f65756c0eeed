"""Tests for step/disturbance metrics, requirement checks, the shared
constants registry and the plain-text table renderer."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gemservo.config import load_project
from gemservo.controllers import ActuatorLimits
from gemservo.lti import TransferFunction, discretize_zoh, simulate, tf_to_ss
from gemservo.metrics import (
    CONSTANTS,
    Constants,
    Requirement,
    StepMetrics,
    analyze_disturbance,
    analyze_step,
    check_requirements,
    table_report,
)
from gemservo.simloop import Scenario, SignalSpec, run


def _trace(t, r, y, diverged=False):
    """Minimal duck-typed trace record; metrics only need t, r, y."""
    return SimpleNamespace(
        t=np.asarray(t, dtype=float),
        r=np.asarray(r, dtype=float),
        y=np.asarray(y, dtype=float),
        diverged=diverged,
    )


# ---------------------------------------------------------------------------
# analyze_step against closed-form responses


def test_first_order_settling_time_matches_log50():
    # y = 1 - exp(-t): the 2% band is left for good at t = ln(50) = 3.912 s
    t = np.arange(0.0, 8.0 + 1e-9, 0.001)
    y = 1.0 - np.exp(-t)
    m = analyze_step(_trace(t, np.ones_like(t), y))
    assert m.settled
    assert m.tss == pytest.approx(math.log(50.0), abs=2e-3)
    assert m.os_pct == 0.0
    assert m.ess < 1e-3


def test_second_order_overshoot_matches_damping_formula():
    # zeta = 0.5: %OS = 100 exp(-pi zeta / sqrt(1 - zeta^2)) = 16.303%
    zeta, wn = 0.5, 10.0
    plant = TransferFunction((wn * wn,), (1.0, 2.0 * zeta * wn, wn * wn))
    ts = 1e-3
    dss = discretize_zoh(tf_to_ss(plant), ts)
    n = int(round(3.0 / ts))
    y, _ = simulate(dss, np.ones(n))
    t = np.arange(n) * ts
    m = analyze_step(_trace(t, np.ones(n), y))
    expected = 100.0 * math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
    assert m.os_pct == pytest.approx(expected, abs=0.1)
    assert m.settled
    assert m.ess < 1e-4


def test_peak_ten_percent_above_final_reads_exactly_ten():
    t = np.arange(40) * 0.1
    y = np.full(40, 1.0)
    y[0], y[1], y[2] = 0.0, 0.5, 1.10
    m = analyze_step(_trace(t, np.ones(40), y))
    assert m.os_pct == pytest.approx(10.0, rel=1e-12)
    assert m.settled
    assert m.tss == pytest.approx(t[3], rel=1e-12)
    assert m.ess == 0.0


def test_undershoot_counts_for_a_negative_step():
    t = np.arange(40) * 0.1
    y = np.full(40, -10.0)
    y[0], y[1], y[2] = 0.0, -5.0, -11.0
    m = analyze_step(_trace(t, np.full(40, -10.0), y))
    assert m.os_pct == pytest.approx(10.0, rel=1e-12)
    assert m.settled
    assert m.tss == pytest.approx(t[3], rel=1e-12)


def test_trace_never_leaving_the_band_settles_at_time_zero():
    t = np.arange(30) * 0.1
    y = np.full(30, 1.0)
    y[0] = 0.99  # nonzero step, but already inside the 2% band
    m = analyze_step(_trace(t, np.ones(30), y))
    assert m.settled
    assert m.tss == 0.0
    assert m.os_pct == 0.0


def test_trace_ending_outside_the_band_never_settles():
    t = np.arange(30) * 0.1
    y = np.full(30, 1.0)
    y[0], y[-1] = 0.0, 0.5
    m = analyze_step(_trace(t, np.ones(30), y))
    assert not m.settled
    assert m.tss is None


def test_trace_reentering_the_band_at_its_last_sample_is_neither_settled_nor_recovered():
    # out of the 2% band at every sample but the last: one sample inside the
    # band is no verdict; the trace must stay inside over the tail window
    t = np.arange(40) * 0.1
    y = np.where(np.arange(40) % 2 == 0, 1.05, 0.95)
    y[0], y[-1] = 0.0, 1.0
    m = analyze_step(_trace(t, np.ones(40), y))
    assert not m.settled
    assert m.tss is None
    r = np.full(40, 10.0)
    d = analyze_disturbance(_trace(t, r, 10.0 * y), onset=1.0)
    assert not d.recovered
    assert d.recovery_time is None


def test_a_limit_cycle_is_not_settled():
    # ascension_velocity_pid under +-350 kHz limit-cycles between 8.3 and 11.0
    # (r = 10) with a period of 5 samples; its last sample happens to fall
    # inside the band, while 60 of its last 100 samples lie outside
    proj = load_project()
    trace = run(Scenario(
        plant=proj.plants["ascension_velocity"],
        controller=proj.controllers["ascension_velocity_pid"],
        reference=SignalSpec(amplitude=10.0),
        duration=60.0,
        ts=proj.ts,
        limits=ActuatorLimits(-350_000.0, 350_000.0),
    ))
    tail = np.abs(trace.y[-100:] - 10.0) > 0.2
    assert not trace.diverged and tail.sum() == 60 and not tail[-1]
    m = analyze_step(trace)
    assert not m.settled
    assert m.tss is None


@st.composite
def _settling_traces(draw):
    """(trace starting at t = 0, band): a step answered by an output whose
    error shrinks tenfold after a drawn sample, so it may settle anywhere."""
    n = draw(st.integers(2, 120))
    ts = draw(st.sampled_from([0.001, 0.01, 0.1, 0.3]))
    r_final = draw(st.sampled_from([1.0, -2.5, 1e-3, 350.0]))
    err = np.array(draw(st.lists(
        st.floats(-0.1, 0.1, allow_subnormal=False), min_size=n, max_size=n
    )))
    err[draw(st.integers(0, n)):] *= 0.1
    y = r_final * (1.0 + err)
    y[0] = draw(st.sampled_from([0.0, 0.5 * r_final, 2.0 * r_final]))
    trace = _trace(np.arange(n) * ts, np.full(n, r_final), y,
                   diverged=draw(st.booleans()))
    return trace, draw(st.sampled_from([0.5, 2.0, 5.0]))


@settings(max_examples=400)
@given(case=_settling_traces())
def test_step_and_disturbance_share_one_settling_rule(case):
    # a disturbance at t = 0 is a step response: the two analyzers must read
    # the same settling, timed alike, and the same final error, and both
    # follow the rule written out here by brute force
    trace, band = case
    step = analyze_step(trace, band)
    dist = analyze_disturbance(trace, 0.0, band)
    assert dist.recovered == step.settled
    assert dist.recovery_time == step.tss
    assert dist.final_error == step.ess
    n, r_final = trace.y.size, trace.r[-1]
    inside = np.abs(trace.y - r_final) <= band / 100.0 * abs(r_final)
    first = next(k for k in range(n + 1) if inside[k:].all())
    n_tail = max(1, round(0.05 * n))
    if trace.diverged or first > n - n_tail:
        assert step.tss is None
    else:
        assert step.tss == (0.0 if first == 0 else trace.t[first])


def test_diverged_flag_forces_unsettled():
    t = np.arange(30) * 0.1
    y = np.full(30, 1.0)
    y[0] = 0.0
    m = analyze_step(_trace(t, np.ones(30), y, diverged=True))
    assert not m.settled
    assert m.tss is None


def test_tss_grows_as_the_band_tightens():
    t = np.arange(0.0, 6.0, 0.001)
    for w in (3.0, 7.0, 13.0):
        y = 1.0 - np.exp(-t) * np.cos(w * t)
        trace = _trace(t, np.ones_like(t), y)
        tss = [analyze_step(trace, band_pct=b).tss for b in (10.0, 5.0, 2.0, 1.0, 0.5)]
        assert all(v is not None for v in tss)
        assert all(a <= b for a, b in zip(tss, tss[1:]))


def test_metrics_are_scale_invariant_except_ess():
    t = np.arange(0.0, 6.0, 0.001)
    y = 1.0 - np.exp(-t) * np.cos(5.0 * t)
    base = analyze_step(_trace(t, np.ones_like(t), y))
    s = 123.0
    scaled = analyze_step(_trace(t, s * np.ones_like(t), s * y))
    assert scaled.settled == base.settled
    assert scaled.tss == base.tss
    assert scaled.os_pct == pytest.approx(base.os_pct, rel=1e-12)
    assert scaled.ess == pytest.approx(s * base.ess, rel=1e-12)


def test_analyze_step_rejects_bad_inputs():
    t = np.arange(10) * 0.1
    y = np.linspace(0.0, 1.0, 10)
    good = _trace(t, np.ones(10), y)
    with pytest.raises(ValueError, match="band_pct"):
        analyze_step(good, band_pct=0.0)
    with pytest.raises(ValueError, match="equal-length"):
        analyze_step(_trace(t, np.ones(10), y[:-1]))
    with pytest.raises(ValueError, match="at least 2"):
        analyze_step(_trace([0.0], [1.0], [0.0]))
    with pytest.raises(ValueError, match="step size is zero"):
        analyze_step(_trace(t, np.ones(10), np.ones(10)))


# ---------------------------------------------------------------------------
# analyze_disturbance


def _disturbed_trace(tail=10.0):
    t = np.linspace(0.0, 10.0, 101)
    y = np.full(101, 10.0)
    y[50], y[51], y[52] = 9.0, 9.5, 9.9  # dip at onset, recovery over 0.2 s
    y[-1] = tail
    return _trace(t, np.full(101, 10.0), y)


def test_disturbance_recovery_hand_example():
    m = analyze_disturbance(_disturbed_trace(), onset=5.0)
    assert m.peak_dev_pct == pytest.approx(10.0, rel=1e-12)
    assert m.recovered
    assert m.recovery_time == pytest.approx(0.2, abs=1e-9)
    assert m.final_error == 0.0


def test_disturbance_not_recovered_when_trace_ends_outside():
    m = analyze_disturbance(_disturbed_trace(tail=9.0), onset=5.0)
    assert not m.recovered
    assert m.recovery_time is None
    assert m.final_error > 0.0


def test_disturbance_never_leaving_band_recovers_instantly():
    t = np.linspace(0.0, 10.0, 101)
    y = np.full(101, 10.0)
    m = analyze_disturbance(_trace(t, y, y), onset=5.0)
    assert m.recovered
    assert m.recovery_time == 0.0
    assert m.peak_dev_pct == 0.0


def test_disturbance_rejects_bad_inputs():
    trace = _disturbed_trace()
    with pytest.raises(ValueError, match="outside the trace span"):
        analyze_disturbance(trace, onset=-1.0)
    with pytest.raises(ValueError, match="outside the trace span"):
        analyze_disturbance(trace, onset=11.0)
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(ValueError, match="final reference is zero"):
        analyze_disturbance(_trace(t, np.zeros(101), np.zeros(101)), onset=5.0)
    m = analyze_disturbance(_trace(t, np.full(101, 10.0), np.full(101, 10.0),
                                   diverged=True), onset=5.0)
    assert not m.recovered


# ---------------------------------------------------------------------------
# requirements


def test_requirement_validation():
    Requirement(amplitude=10.0, tss_max=0.2, os_max=5.0)
    with pytest.raises(ValueError, match="amplitude"):
        Requirement(amplitude=0.0, tss_max=0.2, os_max=5.0)
    with pytest.raises(ValueError, match="amplitude"):
        Requirement(amplitude=math.nan, tss_max=0.2, os_max=5.0)
    with pytest.raises(ValueError, match="tss_max"):
        Requirement(amplitude=10.0, tss_max=0.0, os_max=5.0)
    with pytest.raises(ValueError, match="tss_max"):
        Requirement(amplitude=10.0, tss_max=math.inf, os_max=5.0)
    with pytest.raises(ValueError, match="os_max"):
        Requirement(amplitude=10.0, tss_max=0.2, os_max=-1.0)
    with pytest.raises(ValueError, match="ess_max"):
        Requirement(amplitude=10.0, tss_max=0.2, os_max=5.0, ess_max=-1.0)


def test_check_requirements_passing_row():
    req = Requirement(amplitude=10.0, tss_max=0.2, os_max=5.0, ess_max=0.0)
    m = StepMetrics(tss=0.19, os_pct=4.0, ess=0.0, settled=True, y_final=10.0)
    v = check_requirements(m, req)
    assert v.settled_ok and v.tss_ok and v.os_ok and v.ess_ok
    assert v.passed


def test_check_requirements_failing_tss_and_os():
    req = Requirement(amplitude=10.0, tss_max=0.5, os_max=10.0, ess_max=0.0)
    m = StepMetrics(tss=0.56, os_pct=11.11, ess=0.0, settled=True, y_final=10.0)
    v = check_requirements(m, req)
    assert v.settled_ok and v.ess_ok
    assert not v.tss_ok
    assert not v.os_ok
    assert not v.passed


def test_check_requirements_unsettled_fails():
    req = Requirement(amplitude=10.0, tss_max=0.5, os_max=10.0)
    m = StepMetrics(tss=None, os_pct=0.0, ess=5.0, settled=False, y_final=5.0)
    v = check_requirements(m, req)
    assert not v.settled_ok
    assert not v.tss_ok
    assert not v.passed


def test_zero_ess_requirement_gets_relative_slack():
    req = Requirement(amplitude=10.0, tss_max=0.5, os_max=10.0, ess_max=0.0)
    near = StepMetrics(tss=0.1, os_pct=0.0, ess=0.99e-5, settled=True, y_final=10.0)
    far = StepMetrics(tss=0.1, os_pct=0.0, ess=1.01e-5, settled=True, y_final=10.0)
    assert check_requirements(near, req).ess_ok
    assert not check_requirements(far, req).ess_ok


# ---------------------------------------------------------------------------
# constants registry


def test_constants_registry_values():
    assert CONSTANTS.sidereal_rate_deg_s == 0.004166
    assert CONSTANTS.parking_ascension_deg == 0.0
    assert CONSTANTS.parking_declination_deg == -90.0
    assert CONSTANTS.actuator_max_hz == 350_000.0
    assert CONSTANTS.default_ts == 0.010
    assert CONSTANTS.default_band_pct == 2.0
    assert isinstance(CONSTANTS, Constants)


def test_constants_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CONSTANTS.default_ts = 0.02


# ---------------------------------------------------------------------------
# table rendering


def test_table_report_golden():
    text = table_report(["a", "bb"], [[1.5, "x"], [22, "yy"]], title="T")
    assert text == "T\na    bb\n---  --\n1.5  x\n 22  yy"


def test_table_report_without_title_and_alignment():
    text = table_report(["name", "v"], [["long-label", 7.25]])
    lines = text.split("\n")
    assert lines[0].startswith("name")
    assert set(lines[1]) == {"-", " "}
    assert lines[2] == "long-label  7.25"


def test_table_report_rejects_ragged_rows():
    with pytest.raises(ValueError, match="expected 2"):
        table_report(["a", "b"], [[1.0]])
