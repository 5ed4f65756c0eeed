"""Tests for the closed-loop simulation harness: scenarios, traces,
saturation accounting, divergence handling and the study suites."""

import ast
import csv
import functools
import inspect
import math
from collections import namedtuple
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gemservo import simloop, sysid
from gemservo.config import load_project
from gemservo.controllers import (
    DEFAULT_LIMITS,
    ActuatorLimits,
    PidGains,
    PidState,
    StateFeedbackGains,
    closed_loop_matrix,
    pid_step,
    place_poles,
    sf_step,
    tune_pid,
)
from gemservo.lti import TransferFunction, dc_gain, discretize_zoh, tf_to_ss
from gemservo.metrics import Requirement, analyze_step
from gemservo.simloop import (
    DIVERGENCE_LIMIT,
    DisturbanceSpec,
    Scenario,
    SignalSpec,
    SimTrace,
    TrackingCase,
    discrete_loop_matrix,
    max_control,
    read_trace_csv,
    run,
    run_and_judge,
    run_disturbance_suite,
    run_tracking_suite,
    sampled_decay_rate,
    write_trace_csv,
)

PROJECT = load_project()
ASC_VEL = PROJECT.plants["ascension_velocity"]
ASC_POS = PROJECT.plants["ascension_position"]
DECL_VEL = PROJECT.plants["declination_velocity"]

WIDE = ActuatorLimits(-350_000.0, 350_000.0)
HUGE = ActuatorLimits(-1e9, 1e9)


def _step_scenario(plant, controller, amplitude, duration, **kw):
    return Scenario(
        plant=plant,
        controller=controller,
        reference=SignalSpec(shape="step", amplitude=amplitude),
        duration=duration,
        **kw,
    )


# ---------------------------------------------------------------------------
# Signal specs and scenario validation


def test_signal_spec_shapes():
    t = np.array([0.0, 0.5, 1.0, 2.0])
    step = SignalSpec(shape="step", amplitude=3.0, start=1.0)
    np.testing.assert_allclose(step.values(t), [0.0, 0.0, 3.0, 3.0])
    ramp = SignalSpec(shape="ramp", rate=2.0, start=0.5)
    np.testing.assert_allclose(ramp.values(t), [0.0, 0.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="shape"):
        SignalSpec(shape="sine", amplitude=1.0)
    with pytest.raises(ValueError, match="start"):
        SignalSpec(shape="step", amplitude=1.0, start=-0.1)
    with pytest.raises(ValueError, match="inject"):
        DisturbanceSpec(shape="step", amplitude=1.0, inject="middle")


def test_scenario_validation():
    ctrl = PidGains(1.0, 0.0, 0.0)
    ref = SignalSpec(shape="step", amplitude=1.0)
    with pytest.raises(ValueError, match="duration"):
        Scenario(plant=ASC_VEL, controller=ctrl, reference=ref, duration=0.0)
    with pytest.raises(ValueError, match="ts"):
        Scenario(plant=ASC_VEL, controller=ctrl, reference=ref, duration=1.0, ts=-0.01)
    with pytest.raises(ValueError, match="samples"):
        Scenario(plant=ASC_VEL, controller=ctrl, reference=ref, duration=1e7, ts=0.01)
    with pytest.raises(ValueError, match="controller"):
        Scenario(plant=ASC_VEL, controller="pid", reference=ref, duration=1.0)
    with pytest.raises(
        ValueError, match="^plant must be a TransferFunction, got StateSpace$"
    ):
        Scenario(plant=tf_to_ss(ASC_VEL), controller=ctrl, reference=ref, duration=1.0)
    with pytest.raises(ValueError, match="reference starts"):
        Scenario(
            plant=ASC_VEL,
            controller=ctrl,
            reference=SignalSpec(shape="step", amplitude=1.0, start=5.0),
            duration=1.0,
        )
    with pytest.raises(ValueError, match="disturbance starts"):
        Scenario(
            plant=ASC_VEL,
            controller=ctrl,
            reference=ref,
            duration=1.0,
            disturbance=DisturbanceSpec(shape="step", amplitude=1.0, start=2.0),
        )


def test_effective_limits_resolution():
    # a command driven far past any limit shows the clamp run applies: the
    # PID's own limits, the scenario's over them, the drive's range for SF
    pid = PidGains(1e9, 0.0, 0.0, u_min=-7.0, u_max=7.0)
    ref = SignalSpec(shape="step", amplitude=1.0)
    scen = Scenario(plant=ASC_VEL, controller=pid, reference=ref, duration=1.0)
    assert max_control(run(scen)) == 7.0
    scen = Scenario(
        plant=ASC_VEL, controller=pid, reference=ref, duration=1.0, limits=WIDE
    )
    assert max_control(run(scen)) == WIDE.u_max
    sf = StateFeedbackGains(k1=(0.0, 0.0), k2=1e9)
    scen = Scenario(plant=ASC_VEL, controller=sf, reference=ref, duration=1.0)
    assert max_control(run(scen)) == DEFAULT_LIMITS.u_max


def test_a_biproper_plant_is_refused_by_the_loop_its_matrix_and_the_tuner():
    # s/(s+2) has D = 1; a loop matrix built without D describes another loop
    biproper = TransferFunction((1.0, 0.0), (1.0, 2.0))
    pid = PidGains(1.0, 1.0, 0.0)
    req = Requirement(amplitude=1.0, tss_max=1.0, os_max=10.0)
    sf = StateFeedbackGains(k1=(1.0,), k2=1.0)
    message = "plants with direct feedthrough (D != 0) are not supported"
    calls = [
        lambda: run(_step_scenario(biproper, pid, 1.0, 1.0)),
        lambda: discrete_loop_matrix(biproper, pid),
        lambda: sampled_decay_rate(biproper, pid),
        lambda: tune_pid(biproper, req),
        lambda: place_poles(biproper, [-1.0, -2.0]),
        lambda: closed_loop_matrix(biproper, sf),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_run_rejects_mismatched_state_feedback():
    # with the message of the loop matrix and of closed_loop_matrix
    sf = StateFeedbackGains(k1=(1.0, 1.0, 1.0), k2=1.0)
    calls = [
        lambda: run(_step_scenario(ASC_VEL, sf, 1.0, 1.0)),
        lambda: discrete_loop_matrix(ASC_VEL, sf),
        lambda: closed_loop_matrix(ASC_VEL, sf),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "k1 has 3 entries but the plant has 2 states"


# ---------------------------------------------------------------------------
# run(): basic behaviours


def test_rest_stays_at_rest():
    scen = _step_scenario(ASC_VEL, PidGains(5.0, 3.0, 0.0), 0.0, 1.0)
    trace = run(scen)
    for arr in (trace.r, trace.e, trace.u, trace.u_sat, trace.y):
        np.testing.assert_array_equal(arr, np.zeros(len(trace)))
    assert trace.saturation_fraction == 0.0
    assert not trace.diverged
    assert max_control(trace) == 0.0


def test_unity_feedback_position_has_no_steady_state_error():
    # type-1 plant under pure gain: the plant's own integrator removes ess
    scen = _step_scenario(
        ASC_POS, PidGains(1.0, 0.0, 0.0), 1.0, 2e5, ts=10.0, limits=HUGE
    )
    m = analyze_step(run(scen))
    assert m.settled
    assert m.ess <= 1e-3


def test_unity_feedback_velocity_matches_final_value_theorem():
    # type-0 plant under pure gain: ess = 1/(1 + dc gain)
    scen = _step_scenario(
        ASC_VEL, PidGains(1.0, 0.0, 0.0), 1.0, 5.0, ts=0.01, limits=HUGE
    )
    m = analyze_step(run(scen))
    want = 1.0 / (1.0 + dc_gain(ASC_VEL))
    assert m.ess == pytest.approx(want, rel=1e-6)


def test_run_is_deterministic():
    scen = _step_scenario(DECL_VEL, PROJECT.controllers["declination_velocity_pid"], 10.0, 3.0)
    a = run(scen)
    b = run(scen)
    for name in ("t", "r", "e", "u", "u_sat", "y"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.saturation_fraction == b.saturation_fraction


def test_truncating_the_run_does_not_change_the_past():
    gains = PidGains(2000.0, 30000.0, 0.0)
    long = run(_step_scenario(ASC_VEL, gains, 10.0, 2.0))
    short = run(_step_scenario(ASC_VEL, gains, 10.0, 1.0))
    n = len(short)
    for name in ("t", "r", "e", "u", "u_sat", "y"):
        np.testing.assert_array_equal(getattr(long, name)[:n], getattr(short, name))


def test_future_disturbance_does_not_change_the_past():
    gains = PidGains(2000.0, 30000.0, 0.0)
    plain = run(_step_scenario(ASC_VEL, gains, 10.0, 2.0))
    disturbed = run(
        _step_scenario(
            ASC_VEL,
            gains,
            10.0,
            2.0,
            disturbance=DisturbanceSpec(
                shape="step", amplitude=5e4, start=1.0, inject="input"
            ),
        )
    )
    before = disturbed.t <= 1.0  # y[k] reads state driven by inputs before t[k]
    np.testing.assert_array_equal(plain.y[before], disturbed.y[before])
    assert not np.allclose(plain.y, disturbed.y)


def test_saturation_accounting_iff_clamped():
    # generous limits: no clamping anywhere
    free = run(
        _step_scenario(ASC_VEL, PidGains(2000.0, 30000.0, 0.0), 10.0, 2.0, limits=HUGE)
    )
    assert free.saturation_fraction == 0.0
    np.testing.assert_array_equal(free.u, free.u_sat)
    # tight limits: clamping must show up in both places
    tight = run(
        _step_scenario(
            ASC_VEL,
            PidGains(2000.0, 30000.0, 0.0),
            10.0,
            2.0,
            limits=ActuatorLimits(0.0, 5e4),
        )
    )
    assert tight.saturation_fraction > 0.0
    assert np.any(tight.u != tight.u_sat)
    assert np.max(tight.u_sat) <= 5e4


def test_step_size_robustness():
    gains = PidGains(20000.0, 300000.0, 0.0)
    coarse = analyze_step(run(_step_scenario(ASC_VEL, gains, 10.0, 3.0, ts=0.01)))
    fine = analyze_step(run(_step_scenario(ASC_VEL, gains, 10.0, 3.0, ts=0.005)))
    assert fine.y_final == pytest.approx(coarse.y_final, rel=1e-4)


def test_superposition_holds_with_wide_limits():
    for controller in (
        PidGains(2000.0, 30000.0, 0.0),
        place_poles(ASC_VEL, [complex(-25, 18.75), complex(-25, -18.75), -125.0]),
    ):
        traces = {}
        for amp in (1.0, 2.5, 3.5):
            traces[amp] = run(
                _step_scenario(ASC_VEL, controller, amp, 1.0, limits=HUGE)
            )
        np.testing.assert_allclose(
            traces[1.0].y + traces[2.5].y, traces[3.5].y, rtol=1e-8, atol=1e-12
        )


def test_divergence_flagged_and_truncated():
    # destabilizing proportional gain flips the closed-loop stiffness negative
    gains = PidGains(-30_000.0, 0.0, 0.0, u_min=-1e30, u_max=1e30)
    scen = _step_scenario(ASC_VEL, gains, 10.0, 60.0)
    trace = run(scen)
    assert trace.diverged
    assert len(trace) < int(round(60.0 / 0.01)) + 1  # truncated early
    assert abs(trace.y[-1]) > 1e12 or not math.isfinite(trace.y[-1])
    m = analyze_step(trace)
    assert not m.settled
    assert m.tss is None


def test_loop_delay_changes_transient_not_steady_state():
    gains = PidGains(20000.0, 300000.0, 0.0)
    prompt = run(_step_scenario(ASC_VEL, gains, 10.0, 3.0))
    delayed = run(_step_scenario(ASC_VEL, gains, 10.0, 3.0, loop_delay=True))
    assert not np.array_equal(prompt.y, delayed.y)
    assert analyze_step(delayed).ess <= 1e-5 * 10.0
    assert analyze_step(prompt).ess <= 1e-5 * 10.0


def test_disturbance_rejected_at_either_injection_point():
    gains = PidGains(20000.0, 300000.0, 0.0)
    for inject, amp in (("input", 3e4), ("output", 0.5)):
        scen = _step_scenario(
            ASC_VEL,
            gains,
            10.0,
            6.0,
            disturbance=DisturbanceSpec(
                shape="step", amplitude=amp, start=2.0, inject=inject
            ),
        )
        trace = run(scen)
        assert abs(trace.e[-1]) <= 1e-5 * 10.0, inject


def test_trace_arrays_are_frozen():
    trace = run(_step_scenario(ASC_VEL, PidGains(1.0, 0.0, 0.0), 1.0, 0.5))
    with pytest.raises(ValueError):
        trace.y[0] = 1.0


# ---------------------------------------------------------------------------
# max_control


def test_max_control_hits_the_rail_exactly():
    gains = PidGains(1e5, 1e5, 0.0)  # commands far beyond the actuator
    trace = run(_step_scenario(ASC_VEL, gains, 10.0, 2.0))
    assert trace.saturation_fraction > 0.0
    assert max_control(trace) == 350_000.0


def test_max_control_is_signed():
    t = np.arange(4) * 0.01
    z = np.zeros(4)
    trace = SimTrace(
        t=t, r=z, e=z, u=-np.ones(4), u_sat=-np.ones(4), y=z, ts=0.01,
        diverged=False,
    )
    assert max_control(trace) == -1.0


# ---------------------------------------------------------------------------
# trace CSV round trip


def test_trace_csv_round_trip(tmp_path):
    trace = run(
        _step_scenario(DECL_VEL, PROJECT.controllers["declination_velocity_pid"], 10.0, 2.0)
    )
    p = tmp_path / "trace.csv"
    write_trace_csv(trace, p)
    back = read_trace_csv(p)
    for name in ("t", "r", "e", "u", "u_sat", "y"):
        np.testing.assert_allclose(
            getattr(back, name), getattr(trace, name), rtol=1e-11, atol=1e-300
        )
    assert back.ts == pytest.approx(trace.ts, rel=1e-9)
    assert back.saturation_fraction == pytest.approx(
        trace.saturation_fraction, abs=1e-12
    )


@pytest.mark.parametrize("ts, first", [
    (1 / 300, 300_000),  # 1 000 s, 300 000 samples in
    (1 / 300, 9_999_980),  # the last rows a run may hold
    (3.90625e-5, 9_999_980),
    (1e-5, 9_999_980),
])
def test_a_long_trace_reads_back_despite_the_writers_rounding(tmp_path, ts, first):
    # the writer keeps 12 digits, so far into a run its spacings differ by
    # more than 1e-6 of a period; the reader allows for that rounding
    t = np.arange(first, first + 20) * ts
    z = np.zeros(20)
    p = tmp_path / "long.csv"
    write_trace_csv(SimTrace(t=t, r=z, e=z, u=z, u_sat=z, y=z, ts=ts,
                             diverged=False), p)
    back = read_trace_csv(p)
    np.testing.assert_allclose(back.t, t, rtol=1e-11)
    assert back.ts == pytest.approx(ts, rel=1e-4)
    assert _trace_outcome(_reference_read_trace_csv, p) == _trace_outcome(
        read_trace_csv, p
    )


def test_read_trace_csv_error_paths(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_trace_csv(p)

    p = tmp_path / "header.csv"
    p.write_text("a,b,c,d,e,f\n0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match=r"header\.csv:1: expected header"):
        read_trace_csv(p)

    p = tmp_path / "cell.csv"
    p.write_text("t,r,e,u,u_sat,y\n0,0,0,0,0,0\n0.01,0,0,x,0,0\n")
    with pytest.raises(
        ValueError, match=r"cell\.csv:3: column u: could not parse 'x' as a number$"
    ):
        read_trace_csv(p)

    p = tmp_path / "width.csv"
    p.write_text("t,r,e,u,u_sat,y\n0,0,0\n")
    with pytest.raises(ValueError, match=r"width\.csv:2: expected 6 columns"):
        read_trace_csv(p)

    p = tmp_path / "short.csv"
    p.write_text("t,r,e,u,u_sat,y\n0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="at least 2"):
        read_trace_csv(p)

    p = tmp_path / "jagged.csv"
    p.write_text("t,r,e,u,u_sat,y\n0,0,0,0,0,0\n0.01,0,0,0,0,0\n0.05,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="uniformly"):
        read_trace_csv(p)


_TRACE_COLUMNS = ("t", "r", "e", "u", "u_sat", "y")


def _reference_read_trace_csv(path):
    """The former ``read_trace_csv``, kept as the reference: every cell of
    the file parsed by ``float`` in a Python loop."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        expected = ["t", "r", "e", "u", "u_sat", "y"]
        if [h.strip().lower() for h in header] != expected:
            raise ValueError(
                f"{path}:1: expected header {','.join(expected)!r}, got "
                f"{','.join(header)!r}"
            )
        cols: list[list[float]] = [[] for _ in expected]
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 6:
                raise ValueError(
                    f"{path}:{lineno}: expected 6 columns, got {len(row)}"
                )
            for col, name, cell in zip(cols, expected, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: column {name}: could not parse "
                        f"{cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}:{lineno}: column {name}: {cell.strip()!r} is "
                        "not a finite number"
                    )
                col.append(value)
    if len(cols[0]) < 2:
        raise ValueError(f"{path}: trace needs at least 2 samples")
    t, r, e, u, us, y = (np.array(col) for col in cols)
    dt = np.diff(t)
    ts = float(dt[0])
    slack = 1e-6 * ts + 2e-11 * np.maximum(np.abs(t[1:]), abs(t[0]))
    if ts <= 0.0 or np.any(np.abs(dt - ts) > slack):
        raise ValueError(f"{path}: t column must be uniformly increasing")
    return SimTrace(t=t, r=r, e=e, u=u, u_sat=us, y=y, ts=ts, diverged=False)


def _trace_outcome(reader, path):
    """The arrays and scalars a trace reader returns, byte for byte, or its
    message."""
    try:
        tr = reader(path)
    except ValueError as exc:
        return str(exc)
    arrays = tuple(getattr(tr, name).tobytes() for name in _TRACE_COLUMNS)
    return arrays + (tr.ts, tr.saturation_fraction, tr.diverged)


def _trace_rows(n=8):
    return [
        f"{k * 0.01!r},10.0,{10.0 - k!r},{9e4 * k},{min(9e4 * k, 3.5e5)},{k!r}"
        for k in range(n)
    ]


_HEADER = "t,r,e,u,u_sat,y"

# files np.loadtxt parses on its own, then files left to the row scan or
# refused before it
_FAST_TRACES = {
    "written": None,
    "blank_lines": _HEADER + "\n\n" + "\n\n".join(_trace_rows()) + "\n\n",
    "padded_cells": " T , r,e,U,u_SAT,y\n" + "\n".join(
        " " + r.replace(",", " ,\t") + " " for r in _trace_rows()) + "\n",
    "crlf": _HEADER + "\r\n" + "\r\n".join(_trace_rows()) + "\r\n",
    "no_final_newline": _HEADER + "\n" + "\n".join(_trace_rows()),
    "one_row": _HEADER + "\n" + _trace_rows(1)[0] + "\n",
    "jagged_t": _HEADER + "\n" + "\n".join(_trace_rows(3) + ["0.05,0,0,0,0,0"]),
    "falling_t": _HEADER + "\n" + "\n".join(reversed(_trace_rows())),
}
_SCANNED_TRACES = {
    "empty": "",
    "blank_first_line": "\n" + _HEADER + "\n" + "\n".join(_trace_rows()),
    "bad_header": "t,r,e,u,usat,y\n" + "\n".join(_trace_rows()),
    "short_header": "t,u,y\n" + "\n".join(_trace_rows()),
    "header_only": _HEADER + "\n",
    "whitespace_row": _HEADER + "\n" + "\n  \t\n".join(_trace_rows()) + "\n",
    "comma_row": _HEADER + "\n" + "\n ,,,, ,\n".join(_trace_rows()) + "\n",
    "quoted_cells": _HEADER + "\n" + "\n".join(
        ",".join(f'"{c}"' for c in r.split(",")) for r in _trace_rows()) + "\n",
    "bad_cell": _HEADER + "\n" + "\n".join(_trace_rows()).replace(",270000.0,", ",x,"),
    "empty_cell": _HEADER + "\n" + "\n".join(_trace_rows()).replace(",270000.0,", ",,"),
    "nan_cell": _HEADER + "\n" + "\n".join(_trace_rows()).replace(",10.0,", ",nan,", 1),
    "inf_cell": _HEADER + "\n" + "\n".join(_trace_rows()).replace(",3,", ",-inf,"),
    "five_columns": _HEADER + "\n" + "\n".join(r.rsplit(",", 1)[0] for r in _trace_rows()),
    "seven_columns": _HEADER + "\n" + "\n".join(r + ",1" for r in _trace_rows()),
    "short_row": _HEADER + "\n" + "\n".join(_trace_rows() + ["0.08,1"]),
    "old_mac_line_ends": _HEADER + "\r" + "\r".join(_trace_rows()) + "\r",
}


@pytest.mark.parametrize("name", sorted(_FAST_TRACES) + sorted(_SCANNED_TRACES))
def test_read_trace_csv_matches_the_cell_by_cell_reference(name, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.csv"
    if name == "written":
        write_trace_csv(run(_step_scenario(
            DECL_VEL, PROJECT.controllers["declination_velocity_pid"], 10.0, 2.0
        )), path)
    else:
        path.write_bytes({**_FAST_TRACES, **_SCANNED_TRACES}[name].encode())
    want = _trace_outcome(_reference_read_trace_csv, path)
    if name in _FAST_TRACES:
        def no_scan(*args):
            raise AssertionError("np.loadtxt should have parsed this file")
        monkeypatch.setattr(sysid, "_scan_rows", no_scan)
    assert _trace_outcome(read_trace_csv, path) == want


_CELL_FORMATS = ("{!r}", "{:.6g}", "{:.4f}", "{:e}")
_PADS = ("", " ", "\t")


@st.composite
def _trace_csvs(draw):
    """`t,r,e,u,u_sat,y` text: padded cells in mixed formats, clamped and
    free commands, blank rows, CRLF or LF line ends, with or without a final
    newline, and at most one bad row."""
    ts = draw(st.sampled_from((0.001, 0.01, 0.1)))
    value = st.floats(-1e6, 1e6)
    blank = draw(st.sampled_from(("", "   ", ",,,,,", " ,\t, ")))
    rows = []
    for k in range(draw(st.integers(0, 16))):
        u = draw(value)
        cells = []
        for v in (k * ts, draw(value), draw(value), u,
                  draw(st.sampled_from((u, 3.5e5))), draw(value)):
            fmt = draw(st.sampled_from(_CELL_FORMATS))
            pads = st.sampled_from(_PADS)
            cells.append(draw(pads) + fmt.format(v) + draw(pads))
        rows.append(cells)
        if draw(st.integers(0, 4)) == 0:
            rows.append([blank])
    full = [r for r in rows if len(r) == 6]
    faults = ("oops", "", "nan", "-inf", "narrow", "wide")
    fault = draw(st.sampled_from((None,) * 6 + faults)) if full else None
    if fault is not None:
        cells = draw(st.sampled_from(full))
        if fault == "narrow":
            cells.pop()
        elif fault == "wide":
            cells.append("1")
        else:
            cells[draw(st.integers(0, 5))] = fault
    eol = draw(st.sampled_from(("\n", "\r\n")))
    header = draw(st.sampled_from((_HEADER, " t, R ,e,u,U_sat,y ")))
    text = eol.join([header] + [",".join(r) for r in rows])
    return text + eol if draw(st.booleans()) else text


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_trace_csvs())
def test_read_trace_csv_matches_the_reference_on_generated_traces(text, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    assert _trace_outcome(read_trace_csv, path) == _trace_outcome(
        _reference_read_trace_csv, path
    )


# ---------------------------------------------------------------------------
# study suites


def test_tracking_suite_replay_row():
    case = TrackingCase(
        label="declination velocity, bundled PID",
        plant=DECL_VEL,
        controller=PROJECT.controllers["declination_velocity_pid"],
        requirement=PROJECT.requirements["declination_velocity"],
    )
    (row,) = run_tracking_suite([case])
    assert row.controller_kind == "pid"
    assert row.linearly_stable
    assert not row.diverged
    assert row.metrics is not None and row.metrics.settled
    assert row.metrics.tss == pytest.approx(0.57, abs=0.01)
    assert row.clipped_negative  # the negative commands the drive cannot make
    assert not row.upper_saturated
    assert row.max_control < 350_000.0
    assert row.metrics.ess <= 1e-6 * 10.0


def test_tracking_suite_design_row_passes():
    gains = place_poles(ASC_VEL, [complex(-25, 18.75), complex(-25, -18.75), -125.0])
    case = TrackingCase(
        label="ascension velocity, placed poles",
        plant=ASC_VEL,
        controller=gains,
        requirement=PROJECT.requirements["ascension_velocity"],
    )
    (row,) = run_tracking_suite([case])
    assert row.controller_kind == "sf"
    assert row.verdict is not None and row.verdict.passed
    assert not row.upper_saturated
    assert not row.clipped_negative
    assert 0.0 < row.max_control < 350_000.0


def test_disturbance_suite_stable_loop_rejects():
    case = TrackingCase(
        label="declination velocity, bundled PID",
        plant=DECL_VEL,
        controller=PROJECT.controllers["declination_velocity_pid"],
        requirement=PROJECT.requirements["declination_velocity"],
    )
    (row,) = run_disturbance_suite([case], magnitude_fraction=0.1)
    # the row carries the tracking run it was built on, equal to the suite's
    assert row.tracking == run_tracking_suite([case])[0]
    assert row.evaluated
    assert row.amplitude != 0.0
    assert row.onset > 0.0
    assert row.rejected  # integral action absorbs a constant input load
    assert row.metrics is not None
    assert row.metrics.final_error <= 1e-6 * 10.0
    assert row.metrics.peak_dev_pct > 0.0


def test_a_diverged_tracking_row_has_no_verdict():
    # a diverged run is not judged against its requirement: the tracking row
    # reads verdict None, as `simulate` reports "passed": null for the run
    case = TrackingCase(
        label="ascension velocity, destabilizing P",
        plant=ASC_VEL,
        controller=PidGains(-30_000.0, 0.0, 0.0),
        requirement=PROJECT.requirements["ascension_velocity"],
        limits=ActuatorLimits(-1e30, 1e30),
    )
    (row,) = run_tracking_suite([case])
    assert not row.linearly_stable and row.diverged
    assert row.metrics is not None and not row.metrics.settled
    assert row.verdict is None
    trace, metrics, verdict = run_and_judge(
        case.step_scenario(row.duration), case.requirement
    )
    assert trace.diverged and metrics == row.metrics and verdict is None


def test_a_run_whose_reference_does_not_step_has_no_step_metrics():
    # a disturbance-only run has no step to measure; analyze_step itself
    # still refuses such a trace
    scenario = _step_scenario(
        DECL_VEL, PROJECT.controllers["declination_velocity_pid"],
        amplitude=0.0, duration=3.0,
        disturbance=DisturbanceSpec(shape="step", amplitude=1000.0, start=1.0),
    )
    trace, metrics, verdict = run_and_judge(
        scenario, PROJECT.requirements["declination_velocity"]
    )
    assert len(trace) == 301 and np.ptp(trace.y) > 0.0
    assert metrics is None and verdict is None
    with pytest.raises(ValueError, match="step size is zero"):
        analyze_step(trace)


def test_disturbance_suite_null_disturbance():
    case = TrackingCase(
        label="declination velocity, bundled PID",
        plant=DECL_VEL,
        controller=PROJECT.controllers["declination_velocity_pid"],
        requirement=PROJECT.requirements["declination_velocity"],
    )
    (row,) = run_disturbance_suite([case], magnitude_fraction=0.0)
    assert row.evaluated
    assert row.amplitude == 0.0
    assert row.metrics.recovery_time == 0.0
    assert row.rejected


def test_disturbance_suite_skips_unsettled_loops():
    case = TrackingCase(
        label="ascension velocity, bundled PID",
        plant=ASC_VEL,
        controller=PROJECT.controllers["ascension_velocity_pid"],
        requirement=PROJECT.requirements["ascension_velocity"],
    )
    (row,) = run_disturbance_suite([case])
    assert not row.evaluated
    assert row.metrics is None
    assert not row.rejected


def test_disturbance_suite_validates_inject_without_settled_loops():
    # no loop here settles, so no DisturbanceSpec is ever built to object
    case = TrackingCase(
        label="ascension velocity, bundled PID",
        plant=ASC_VEL,
        controller=PROJECT.controllers["ascension_velocity_pid"],
        requirement=PROJECT.requirements["ascension_velocity"],
    )
    with pytest.raises(ValueError, match="inject must be 'input' or 'output'"):
        run_disturbance_suite([case], inject="bogus")


def test_sampled_decay_rate_matches_spectral_radius():
    ts = 0.01
    asc = PROJECT.controllers["ascension_velocity_pid"]
    rho = np.max(np.abs(np.linalg.eigvals(discrete_loop_matrix(ASC_VEL, asc, ts))))
    assert rho == pytest.approx(1.013, abs=1e-3)  # unstable at 10 ms
    assert sampled_decay_rate(ASC_VEL, asc, ts) is None

    decl = PROJECT.controllers["declination_velocity_pid"]
    rho = np.max(np.abs(np.linalg.eigvals(discrete_loop_matrix(DECL_VEL, decl, ts))))
    assert rho < 1.0
    assert sampled_decay_rate(DECL_VEL, decl, ts) == pytest.approx(
        -math.log(rho) / ts, rel=1e-12
    )


def _hand_loop_matrix(plant, controller, ts):
    """Reference: the sampled closed loop linearized by hand, row by row
    (trapezoidal integral, backward-Euler filtered derivative, forward-Euler
    state-feedback integral), reference at zero and saturation off."""
    ss = tf_to_ss(plant)
    dss = discretize_zoh(ss, ts)
    n = ss.order
    Ad = dss.Ad
    bd = dss.Bd[:, 0]
    c = ss.C[0, :]
    if isinstance(controller, PidGains):
        g = controller
        m = n + 3
        # z = [x, I_prev, D_prev, e_prev]
        e_row = np.concatenate([-c, [0.0, 0.0, 0.0]])
        i_row = np.concatenate([-0.5 * ts * c, [1.0, 0.0, 0.5 * ts]])
        if g.kd != 0.0:
            tf_c = 1.0 / g.deriv_filter_n
            a = 1.0 / (tf_c + ts)
            d_row = np.concatenate([-a * c, [0.0, a * tf_c, -a]])
        else:
            d_row = np.zeros(m)
        u_row = g.kp * e_row + g.ki * i_row + g.kd * d_row
        phi = np.zeros((m, m))
        phi[:n, :n] = Ad
        phi[:n, :] += np.outer(bd, u_row)
        phi[n, :] = i_row
        phi[n + 1, :] = d_row
        phi[n + 2, :] = e_row
        return phi
    g = controller
    k1 = np.asarray(g.k1, dtype=float)
    m = n + 1
    phi = np.zeros((m, m))
    # u_k = k2 (xi_k + ts (r - y_k)) - k1 x_k with r = 0
    u_row = np.concatenate([-(k1 + ts * g.k2 * c), [g.k2]])
    phi[:n, :n] = Ad
    phi[:n, :] += np.outer(bd, u_row)
    phi[n, :n] = -ts * c
    phi[n, n] = 1.0
    return phi


def test_loop_matrix_equals_hand_linearization_on_bundled_controllers():
    for name, controller in PROJECT.controllers.items():
        plant = PROJECT.plants[name.rsplit("_", 1)[0]]
        phi = discrete_loop_matrix(plant, controller, PROJECT.ts)
        assert np.array_equal(phi, _hand_loop_matrix(plant, controller, PROJECT.ts)), name
    with pytest.raises(ValueError, match="k1 has 3 entries but the plant has 2 states"):
        discrete_loop_matrix(ASC_VEL, StateFeedbackGains((1.0, 2.0, 3.0), 1.0))


_PLANTS = st.sampled_from(sorted(PROJECT.plants))
_TS = st.floats(1e-3, 1e-2)


@st.composite
def _loop_controllers(draw):
    plant = PROJECT.plants[draw(_PLANTS)]
    kind = draw(st.sampled_from(["pi", "pid", "sf"]))
    if kind == "sf":
        k1 = draw(st.lists(st.floats(-1e5, 1e5), min_size=plant.order,
                           max_size=plant.order))
        return plant, StateFeedbackGains(tuple(k1), draw(st.floats(-1e6, 1e6)))
    kd = 0.0 if kind == "pi" else draw(st.floats(1e-3, 1e4))
    return plant, PidGains(
        draw(st.floats(-1e5, 1e5)), draw(st.floats(-1e6, 1e6)), kd,
        deriv_filter_n=draw(st.floats(1.0, 1e3)),
    )


@settings(deadline=None, max_examples=200)
@given(loop=_loop_controllers(), ts=_TS)
def test_loop_matrix_matches_hand_linearization(loop, ts):
    plant, controller = loop
    phi = discrete_loop_matrix(plant, controller, ts)
    ref = _hand_loop_matrix(plant, controller, ts)
    assert phi.shape == ref.shape
    assert np.max(np.abs(phi - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# The sampled loop, bit for bit against a reference written from the laws


def _left_to_right(coeffs, values):
    """sum(c * v), added strictly left to right."""
    acc = coeffs[0] * values[0]
    for c, v in zip(coeffs[1:], values[1:]):
        acc += c * v
    return acc


def _reference_trace(scen):
    """The loop of :func:`run` spelled out with ``pid_step``/``sf_step`` and a
    plant stepped as left-to-right sums over Ad, Bd and C."""
    dss = discretize_zoh(tf_to_ss(scen.plant), scen.ts)
    a, b, c = dss.Ad.tolist(), dss.Bd[:, 0].tolist(), dss.C[0].tolist()
    limits = scen.limits
    if limits is None:
        limits = (scen.controller.limits if isinstance(scen.controller, PidGains)
                  else DEFAULT_LIMITS)
    gains = scen.controller
    is_pid = isinstance(gains, PidGains)
    if is_pid:
        gains = replace(gains, u_min=limits.u_min, u_max=limits.u_max)
    N = int(round(scen.duration / scen.ts)) + 1
    t = np.arange(N) * scen.ts
    r = scen.reference.values(t).tolist()
    dist = scen.disturbance
    d = dist.values(t).tolist() if dist is not None else [0.0] * N
    inject = dist.inject if dist is not None else None
    x = [0.0] * len(a)
    state, xi, u_prev = PidState(), 0.0, 0.0
    ys, us, usats = [], [], []
    diverged = False
    for k in range(N):
        y = _left_to_right(c, x)
        if inject == "output":
            y += d[k]
        ys.append(y)
        if not math.isfinite(y) or abs(y) > DIVERGENCE_LIMIT:
            us.append(u_prev)
            usats.append(limits.clamp(u_prev))
            diverged = True
            break
        if is_pid:
            u, u_sat, state = pid_step(gains, state, r[k] - y, scen.ts)
        else:
            u, u_sat, xi = sf_step(gains, np.array(x), xi, r[k], y, scen.ts, limits)
        us.append(u)
        usats.append(u_sat)
        u_in = u_prev if scen.loop_delay else u_sat
        if inject == "input":
            u_in += d[k]
        x = [_left_to_right(row + [bi], x + [u_in]) for row, bi in zip(a, b)]
        u_prev = u_sat
    end = len(ys)
    return {
        "t": t[:end], "r": np.array(r[:end]), "e": np.array(r[:end]) - ys,
        "u": np.array(us), "u_sat": np.array(usats), "y": np.array(ys),
        "diverged": diverged, "limits": limits,
    }


# (first sample stepped, samples recorded, samples in the run, diverged,
# state handed over) of one call of a compiled loop
_Call = namedtuple("_Call", "start end n diverged handed_over")


def _recording(calls):
    """A stand-in for ``simloop._loop_factory`` whose loops append a
    ``_Call`` to ``calls`` each time they step a run. The single samples
    that linearize the loop for ``_loop_map`` (their buffers are lists) are
    not recorded."""
    factory = simloop._loop_factory

    def recording(*key):
        loop = factory(*key)
        signature = inspect.signature(loop)

        @functools.wraps(loop)
        def call(*args):
            bound = signature.bind(*args)
            bound.apply_defaults()
            end, diverged, state = loop(*args)
            yv = bound.arguments["yv"]
            if not isinstance(yv, list):
                calls.append(_Call(bound.arguments["start"], end, len(yv),
                                   diverged, state is not None and end < len(yv)))
            return end, diverged, state

        return call

    return recording


# the bound on a filled sample's output, relative to the larger of the
# reference and the largest output of the stepped reference loop, with the
# smallest normal float as a floor: no float arithmetic, the stepped
# reference's included, carries relative precision below it
TAIL_RTOL = 1e-12
TAIL_ATOL = np.finfo(float).tiny
# the bound on a filled command, relative to the largest command: a command
# is a sum of gain-weighted state terms that can cancel to well below their
# own size, so its rounding, against the command, runs ten times wider
TAIL_RTOL_U = 1e-11


def _assert_trace_is_reference(scen):
    """Run the scenario and check the trace against :func:`_reference_trace`:
    bit for bit on every sample the compiled loop stepped or repeated; on
    the samples filled in closed form, the output within ``TAIL_RTOL`` of
    the larger of the reference and the largest output, the command within
    ``TAIL_RTOL_U`` of the largest command, and unclamped. The clamp counts and ``diverged`` are exact."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simloop, "_loop_factory", _recording(calls))
        trace = run(scen)
    ref = _reference_trace(scen)
    # run filled the samples after an accepted hand-over, the last call's
    filled = calls[-1].end if calls[-1].handed_over else len(trace)
    for name in ("t", "r", "e", "u", "u_sat", "y"):
        got = getattr(trace, name)
        assert got.dtype == np.float64 and got.shape == ref[name].shape, name
        exact = got if name in ("t", "r") else got[:filled]
        assert exact.tobytes() == ref[name][:exact.size].tobytes(), name
    scale = max(np.max(np.abs(ref["r"])), np.max(np.abs(ref["y"])))
    for name in ("y", "e"):
        tail = np.abs(getattr(trace, name)[filled:] - ref[name][filled:])
        assert np.all(tail <= TAIL_RTOL * scale + TAIL_ATOL), name
    for name in ("u", "u_sat"):
        tail = np.abs(getattr(trace, name)[filled:] - ref[name][filled:])
        assert np.all(tail <= TAIL_RTOL_U * np.max(np.abs(ref["u"])) + TAIL_ATOL), name
    assert np.array_equal(trace.u[filled:], trace.u_sat[filled:])
    assert trace.diverged == ref["diverged"]
    assert trace.saturation_fraction == float(np.mean(ref["u"] != ref["u_sat"]))
    assert trace.clipped_low == np.count_nonzero(ref["u"] < ref["limits"].u_min)
    assert trace.clipped_high == np.count_nonzero(ref["u"] > ref["limits"].u_max)
    return trace


_OPEN = ActuatorLimits(-math.inf, math.inf)
FIRST_ORDER = TransferFunction((1.0,), (1.0, 1.0))
# a first-order plant and gains for it, beside the bundled second-order loops
_LOOPS = {
    **{(name, kind): (plant, PROJECT.controllers[f"{name}_{kind}"])
       for name, plant in PROJECT.plants.items() for kind in ("pid", "sf")},
    ("first_order", "pid"): (FIRST_ORDER, PidGains(5.0, 20.0, 0.01)),
    ("first_order", "sf"): (FIRST_ORDER, StateFeedbackGains((3.0,), 12.0)),
}


@st.composite
def _loop_scenarios(draw):
    plant, base = _LOOPS[draw(st.sampled_from(sorted(_LOOPS)))]
    scale = draw(st.sampled_from([1.0, 0.3, 3.0, 30.0, -1.0]))
    if isinstance(base, PidGains):
        controller = PidGains(base.kp * scale, base.ki * scale, base.kd * scale)
    else:
        controller = StateFeedbackGains(
            tuple(k * scale for k in base.k1), base.k2 * scale
        )
    ts = draw(_TS)
    duration = draw(st.floats(0.05, 1.5))
    reference = draw(st.one_of(
        st.builds(SignalSpec, shape=st.just("step"),
                  amplitude=st.floats(-20.0, 20.0),
                  start=st.floats(0.0, 0.04)),
        st.builds(SignalSpec, shape=st.just("ramp"), rate=st.floats(-5.0, 5.0)),
    ))
    disturbance = draw(st.one_of(
        st.none(),
        st.builds(DisturbanceSpec, shape=st.just("step"),
                  amplitude=st.floats(-1e5, 1e5), start=st.floats(0.0, 0.05),
                  inject=st.sampled_from(["input", "output"])),
    ))
    return Scenario(
        plant=plant, controller=controller, reference=reference,
        duration=duration, ts=ts,
        limits=draw(st.sampled_from([None, DEFAULT_LIMITS, WIDE, _OPEN])),
        disturbance=disturbance, loop_delay=draw(st.booleans()),
    )


@settings(deadline=None, max_examples=150)
@given(scen=_loop_scenarios())
def test_run_matches_reference_loop_bit_for_bit(scen):
    _assert_trace_is_reference(scen)


def test_clamp_counts_follow_the_limits_on_every_kind_of_run():
    # the counts SimTrace reads off u and u_sat, against the limits the
    # scenario set: one-sided, signed and open, PID and SF, with a loop
    # delay, input and output loads, and the two overflow runaways
    pid = PROJECT.controllers["declination_velocity_pid"]
    sf = PROJECT.controllers["ascension_position_sf"]
    variants = [
        {}, {"loop_delay": True},
        {"disturbance": DisturbanceSpec(amplitude=-5e4, start=1.0)},
        {"disturbance": DisturbanceSpec(amplitude=3.0, start=1.0,
                                        inject="output")},
    ]
    scenarios = [
        _step_scenario(plant, law, amp, 5.0, limits=limits, **kw)
        for plant, law, amp in ((DECL_VEL, pid, 10.0), (ASC_POS, sf, 90.0))
        for limits in (DEFAULT_LIMITS, WIDE, _OPEN)
        for kw in variants
    ] + [
        _step_scenario(FIRST_ORDER, gains, 10.0, 1.0, limits=limits)
        for gains in (PidGains(1e308, 0.0, 0.0), PidGains(1e308, 0.0, -1e308))
        for limits in (DEFAULT_LIMITS, _OPEN)
    ]
    totals = np.zeros(3)
    for scen in scenarios:
        trace = run(scen)
        low = np.count_nonzero(trace.u < scen.limits.u_min)
        high = np.count_nonzero(trace.u > scen.limits.u_max)
        share = np.mean(trace.u != trace.u_sat)
        assert (trace.clipped_low, trace.clipped_high) == (low, high)
        assert trace.saturation_fraction == share
        totals += (low > 0, high > 0, share * len(trace) > low + high)
    # every count is exercised, NaN commands (saturated, at neither limit)
    # included
    assert np.all(totals > 0), totals


def test_run_matches_reference_loop_on_diverging_and_saturated_runs():
    fast = PidGains(-30_000.0, 0.0, 0.0)
    diverging = _step_scenario(ASC_VEL, fast, 10.0, 60.0, limits=_OPEN)
    trace = _assert_trace_is_reference(diverging)
    assert trace.diverged and len(trace) < 6001
    sf = PROJECT.controllers["ascension_position_sf"]
    held = _step_scenario(ASC_POS, sf, 90.0, 5.0, loop_delay=True,
                          disturbance=DisturbanceSpec(amplitude=-5e4, start=1.0))
    trace = _assert_trace_is_reference(held)
    assert 0.0 < trace.saturation_fraction < 1.0
    # commands that overflow: the guard meets an infinite, then a NaN output
    for gains, last in ((PidGains(1e308, 0.0, 0.0), "inf"),
                        (PidGains(1e308, 0.0, -1e308), "nan")):
        runaway = _step_scenario(FIRST_ORDER, gains, 10.0, 1.0, limits=_OPEN)
        trace = _assert_trace_is_reference(runaway)
        assert trace.diverged and len(trace) == 2
        assert str(trace.y[-1]) == last


# ---------------------------------------------------------------------------
# The compiled loop stops once its state repeats, and the trace is unchanged


def _last_call(calls):
    """The last of a run's compiled-loop calls, after checking the others:
    at most one hand-over is refused, and the loop resumes where it
    stopped, with the hand-over off."""
    assert len(calls) <= 2
    for handed, resumed in zip(calls, calls[1:]):
        assert handed.handed_over and not handed.diverged
        assert resumed.start == handed.end and not resumed.handed_over
    return calls[-1]


@pytest.fixture
def loop_ends(monkeypatch):
    """The ``_Call`` of each compiled-loop call, in order."""
    calls = []
    monkeypatch.setattr(simloop, "_loop_factory", _recording(calls))
    return calls


@pytest.mark.parametrize("label, stops", [
    ("ascension_position_pid", True),
    ("declination_position_pid", True),
    ("ascension_position_sf", True),
    ("declination_position_sf", False),
])
def test_reproduce_position_rows_match_reference_loop_bit_for_bit(
    label, stops, loop_ends
):
    # the tracking runs of `reproduce`, under the project's one-sided limits:
    # both position PIDs are pinned at zero command, and ascension_position_sf
    # settles to its last bit, long before their last sample. Each hands its
    # state over once and has the tail refused: the PIDs' equilibrium
    # command sits on the zero limit, and the sampled SF loops are unstable.
    system = label.rsplit("_", 1)[0]
    case = TrackingCase(
        label=label, plant=PROJECT.plants[system],
        controller=PROJECT.controllers[label],
        requirement=PROJECT.requirements[system],
        ts=PROJECT.ts, limits=PROJECT.limits,
    )
    _, duration = simloop._case_duration(case)
    scen = _step_scenario(case.plant, case.controller, case.requirement.amplitude,
                          duration, ts=case.ts, limits=case.limits)
    _assert_trace_is_reference(scen)
    last = _last_call(loop_ends)
    assert len(loop_ends) == 1 + (label != "declination_position_sf")
    assert not last.diverged and not last.handed_over
    assert (last.end < last.n) == stops


_BLOCK = simloop._BLOCK


@st.composite
def _blocked_scenarios(draw):
    """Scenarios of 3 to 8 loop blocks: loops that come to rest, settle or
    pin at a limit, references of 0.0 and -0.0, steps and disturbances that
    start after the state has settled, and ramps."""
    plant, base = _LOOPS[draw(st.sampled_from(sorted(_LOOPS)))]
    scale = draw(st.sampled_from([1.0, 0.3, 3.0]))
    if isinstance(base, PidGains):
        controller = PidGains(
            base.kp * scale, base.ki * scale, base.kd * scale,
            deriv_filter_n=draw(st.sampled_from([1.0, 100.0])),
        )
    else:
        controller = StateFeedbackGains(
            tuple(k * scale for k in base.k1), base.k2 * scale
        )
    ts = draw(st.sampled_from([0.01, 0.005, 0.002]))
    duration = ts * draw(st.integers(3 * _BLOCK, 8 * _BLOCK))
    reference = draw(st.one_of(
        st.builds(SignalSpec, shape=st.just("step"),
                  amplitude=st.one_of(st.sampled_from([0.0, -0.0]),
                                      st.floats(-20.0, 20.0)),
                  start=st.floats(0.0, duration / 2)),
        st.builds(SignalSpec, shape=st.just("ramp"),
                  rate=st.one_of(st.floats(-5.0, -0.01), st.floats(0.01, 5.0)),
                  start=st.floats(0.0, duration / 2)),
    ))
    disturbance = draw(st.one_of(
        st.none(),
        st.builds(DisturbanceSpec, shape=st.just("step"),
                  amplitude=st.floats(-1e5, 1e5),
                  start=st.floats(0.3 * duration, 0.9 * duration),
                  inject=st.sampled_from(["input", "output"])),
    ))
    return Scenario(
        plant=plant, controller=controller, reference=reference,
        duration=duration, ts=ts,
        limits=draw(st.sampled_from([None, DEFAULT_LIMITS, WIDE, _OPEN])),
        disturbance=disturbance, loop_delay=draw(st.booleans()),
    )


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scen=_blocked_scenarios())
def test_run_matches_reference_loop_across_blocks_bit_for_bit(scen, loop_ends):
    loop_ends.clear()
    trace = _assert_trace_is_reference(scen)
    _last_call(loop_ends)
    first = loop_ends[0]
    if scen.reference.shape == "ramp" and scen.disturbance is None:
        # a ramp whose first block past its start clamps no command hands
        # the state over after that block, when a whole block remains
        k0 = -(-int(np.searchsorted(trace.t, scen.reference.start)) // _BLOCK) * _BLOCK
        if (len(trace) > k0 + _BLOCK and k0 + 2 * _BLOCK <= first.n
                and np.array_equal(trace.u[k0:k0 + _BLOCK], trace.u_sat[k0:k0 + _BLOCK])):
            assert first.handed_over and first.end == k0 + _BLOCK


def _steady_from(*signals):
    """The first sample from which the sampled signals (None for none) are
    constant, bit for bit: a step counts from its start, a ramp only from
    its last sample. The bits' reading of what ``simloop._input_marks``
    reads off the specs."""
    bits = [s.view(np.int64) for s in signals if s is not None]
    return int(max((np.flatnonzero(b != b[-1])[-1:] + 1).sum() for b in bits))


@st.composite
def _input_specs(draw):
    """(sample times, input specs) of a run: ts of 1 to 10 ms, a step or a
    ramp reference and, or not, a disturbance, with amplitudes and rates of
    either sign, ±0.0 included, starting at 0, inside the run or at its
    end, which may fall past the last sample. No rate is subnormal: such a
    ramp can round to a constant on the samples, which the bits see and the
    specs do not (its hand-over then comes later, still a correct run)."""
    ts = draw(st.floats(0.001, 0.01))
    duration = ts * draw(st.integers(1, 4 * _BLOCK))
    t = np.arange(int(round(duration / ts)) + 1) * ts
    start = st.one_of(st.just(0.0), st.floats(0.0, duration), st.just(duration))
    value = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-1e5, 1e5, allow_subnormal=False))
    specs = [draw(st.one_of(
        st.builds(SignalSpec, amplitude=value, start=start),
        st.builds(SignalSpec, shape=st.just("ramp"), rate=value, start=start),
    ))]
    if draw(st.booleans()):
        specs.append(draw(st.builds(
            DisturbanceSpec, shape=st.sampled_from(["step", "ramp"]),
            amplitude=value, rate=value, start=start,
            inject=st.sampled_from(["input", "output"]),
        )))
    return t, specs


@settings(deadline=None, max_examples=300)
@given(case=_input_specs())
def test_the_specs_give_the_hand_over_of_the_bits_and_no_earlier_stop(case):
    t, specs = case
    values = [spec.values(t) for spec in specs]
    k_stop, k_hand = simloop._input_marks(specs, t)
    k_steady = _steady_from(*values)
    starts = [int(np.searchsorted(t, spec.start)) for spec in specs]
    assert k_hand == min(k_steady, max(starts))
    # the loop checks for a repeated state once a block starts at k_stop
    assert -(-k_stop // _BLOCK) >= -(-k_steady // _BLOCK)
    ramps = [v for spec, v in zip(specs, values) if spec.shape == "ramp"]
    moving = any(np.any(v.view(np.int64) != v[-1:].view(np.int64)) for v in ramps)
    assert k_stop == (len(t) if moving else k_steady)


def _placed_poles(name):
    """The poles ``place_poles`` is asked for in the tuning study: a fast
    pair and a fast real pole for a velocity plant; for a position plant two
    slow real poles, with the velocity plant's own pair kept."""
    if name.endswith("velocity"):
        return [complex(-25.0, 18.75), complex(-25.0, -18.75), -125.0]
    _, a1, a0 = PROJECT.plants[name.replace("position", "velocity")].den
    im = math.sqrt(a0 - 0.25 * a1 * a1)
    return [-0.15, -1.0, complex(-0.5 * a1, im), complex(-0.5 * a1, -im)]


# loops stable when sampled at 1 to 10 ms: the gains the tuner finds for the
# four plants, pole-placed state feedback, and the first-order loops
_TUNED_PID = {
    "ascension_velocity": PidGains(23902.65, 579966.2, 693.24),
    "declination_velocity": PidGains(7788.646, 165742.4),
    "ascension_position": PidGains(4790.971, 179.6614),
    "declination_position": PidGains(4778.067, 179.1775),
}
_STABLE_LOOPS = {
    **{(name, "pid"): (PROJECT.plants[name], gains)
       for name, gains in _TUNED_PID.items()},
    **{(name, "sf"): (PROJECT.plants[name],
                      place_poles(PROJECT.plants[name], _placed_poles(name)))
       for name in _TUNED_PID},
    ("first_order", "pid"): _LOOPS[("first_order", "pid")],
    ("first_order", "sf"): _LOOPS[("first_order", "sf")],
}


@st.composite
def _tail_scenarios(draw):
    """Steps and ramps on stable loops, of 3 to 8 loop blocks, with inputs
    that start early: runs whose rest the loop hands over to the closed form
    unless the actuator clamps."""
    plant, controller = _STABLE_LOOPS[draw(st.sampled_from(sorted(_STABLE_LOOPS)))]
    ts = draw(st.sampled_from([0.01, 0.005, 0.002]))
    duration = ts * draw(st.integers(3 * _BLOCK, 8 * _BLOCK))
    start = st.floats(0.0, duration / 4)
    reference = draw(st.one_of(
        st.builds(SignalSpec, amplitude=st.floats(-20.0, 20.0), start=start),
        st.builds(SignalSpec, shape=st.just("ramp"), start=start,
                  rate=st.one_of(st.floats(-5.0, -0.01), st.floats(0.01, 5.0))),
    ))
    disturbance = draw(st.one_of(
        st.none(),
        st.builds(DisturbanceSpec, amplitude=st.floats(-5e4, 5e4),
                  start=start, inject=st.just("input")),
        st.builds(DisturbanceSpec, amplitude=st.floats(-2.0, 2.0),
                  start=start, inject=st.just("output")),
        st.builds(DisturbanceSpec, shape=st.just("ramp"),
                  rate=st.floats(-5e3, 5e3), start=start, inject=st.just("input")),
        st.builds(DisturbanceSpec, shape=st.just("ramp"),
                  rate=st.floats(-0.2, 0.2), start=start, inject=st.just("output")),
    ))
    return Scenario(
        plant=plant, controller=controller, reference=reference,
        duration=duration, ts=ts,
        limits=draw(st.sampled_from([None, DEFAULT_LIMITS, WIDE, _OPEN])),
        disturbance=disturbance, loop_delay=draw(st.booleans()),
    )


def _ramp_load_on_slow_pid(duration, reference, rate, start, limits):
    """The tuned ascension position PID at 2 ms under an input ramp load."""
    plant, controller = _STABLE_LOOPS[("ascension_position", "pid")]
    return Scenario(
        plant=plant, controller=controller, reference=reference,
        duration=duration, ts=0.002, limits=limits,
        disturbance=DisturbanceSpec(shape="ramp", rate=rate, start=start),
    )


# The two worst distinct draws of 18 000 with the powers of Φ squared in
# plain floats, not by _square: their filled outputs read 1.88 and 1.77
# times the bound there, and 0.056 times it with _square.
@example(scen=_ramp_load_on_slow_pid(
    0.002 * 1434, SignalSpec(amplitude=-2.395593808967411e-209,
                             start=9.900027374009093e-186),
    0.6652721558555617, 0.6652721558555617, _OPEN))
@example(scen=_ramp_load_on_slow_pid(
    0.002 * 992, SignalSpec(amplitude=1.9807045656199046e-15,
                            start=1.9807045656199046e-15),
    -2793.322030038174, 0.01289132796170194, None))
# Two ramps that cancel in the error: the commands stay under 0.0145 while
# their terms reach 19 400, and a filled command missed its bound by 10.8
# times; the tail is refused, since its terms exceed 10^3 times the commands.
@example(scen=Scenario(
    plant=PROJECT.plants["declination_velocity"], controller=PidGains(7788.646, 165742.4),
    reference=SignalSpec(shape="ramp", rate=0.1, start=6.9e-177),
    duration=0.005 * 1730, ts=0.005, limits=_OPEN,
    disturbance=DisturbanceSpec(shape="ramp", rate=0.1, start=9.1e-6, inject="output"),
    loop_delay=True))
@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scen=_tail_scenarios())
def test_the_filled_tail_matches_the_reference_loop(scen, loop_ends):
    loop_ends.clear()
    _assert_trace_is_reference(scen)
    _last_call(loop_ends)


@pytest.mark.parametrize("key", sorted(_STABLE_LOOPS), ids="-".join)
@pytest.mark.parametrize("variant", [
    {"limits": WIDE},
    {"limits": _OPEN},
    {"limits": WIDE, "disturbance": DisturbanceSpec(amplitude=2e3, start=0.5)},
    {"limits": WIDE,
     "disturbance": DisturbanceSpec(amplitude=0.5, start=0.5, inject="output")},
], ids=["signed", "open", "input-load", "output-load"])
def test_every_stable_loop_hands_its_tail_over(key, variant, loop_ends):
    # at 2 ms a block is 0.51 s: the fast loops are still moving when the
    # load has stepped in, so no block repeats before the hand-over
    plant, controller = _STABLE_LOOPS[key]
    scen = _step_scenario(plant, controller, 1.0, 10.0, ts=0.002, **variant)
    _assert_trace_is_reference(scen)
    (call,) = loop_ends
    assert call.handed_over and call.end <= 2 * _BLOCK


@pytest.mark.parametrize("key", [
    ("declination_velocity", "pid"), ("ascension_position", "sf"),
    ("first_order", "pid"), ("first_order", "sf"),
], ids="-".join)
def test_a_delayed_loop_hands_its_tail_over(key, loop_ends):
    plant, controller = _STABLE_LOOPS[key]
    _assert_trace_is_reference(
        _step_scenario(plant, controller, 1.0, 10.0, limits=WIDE, loop_delay=True)
    )
    (call,) = loop_ends
    assert call.handed_over


def test_a_velocity_loop_hands_over_under_the_one_sided_actuator(loop_ends):
    # the project's 0..350 kHz: the tuned ascension PID's first commands
    # after a 10 deg/s step clamp at the ceiling, then the loop settles
    # inside the limits, where the tail takes over
    plant, controller = _STABLE_LOOPS[("ascension_velocity", "pid")]
    trace = _assert_trace_is_reference(
        _step_scenario(plant, controller, 10.0, 60.0, limits=DEFAULT_LIMITS)
    )
    (call,) = loop_ends
    assert call.handed_over and call.end > _BLOCK
    assert 0 < np.flatnonzero(trace.u != trace.u_sat)[-1] < _BLOCK


def _refused(scen, loop_ends):
    """Run the scenario against the reference loop: (trace, number of
    compiled-loop calls), with no hand-over accepted."""
    loop_ends.clear()
    trace = _assert_trace_is_reference(scen)
    assert not _last_call(loop_ends).handed_over
    return trace, len(loop_ends)


@pytest.mark.parametrize("key", sorted(_STABLE_LOOPS), ids="-".join)
@pytest.mark.parametrize("rate", [1.0, -1.0])
def test_a_ramp_on_a_stable_loop_hands_its_tail_over(key, rate, loop_ends):
    # the tail follows the ramp: its particular solution moves with the
    # reference, and only the transient around it decays
    plant, controller = _STABLE_LOOPS[key]
    scen = Scenario(plant=plant, controller=controller,
                    reference=SignalSpec(shape="ramp", rate=rate, start=0.5),
                    duration=10.0, ts=0.002, limits=WIDE)
    trace = _assert_trace_is_reference(scen)
    (call,) = loop_ends
    assert call.handed_over and call.end <= 250 + 2 * _BLOCK
    assert np.array_equal(trace.u, trace.u_sat)


def test_a_repeated_state_under_a_ramp_is_not_a_repeated_block(loop_ends):
    # a falling ramp into the one-sided actuator's floor: every command
    # clamps to zero, so the output stays 0 and the carried state repeats
    # from block to block, yet each command reads the moving reference. The
    # loop steps to the end: it stops on a repeated state only once the
    # inputs are constant, not once they are ramps past their start
    scen = Scenario(plant=DECL_VEL,
                    controller=PROJECT.controllers["declination_velocity_sf"],
                    reference=SignalSpec(shape="ramp", rate=-1.0),
                    duration=10.0, limits=DEFAULT_LIMITS)
    trace = _assert_trace_is_reference(scen)
    (call,) = loop_ends
    assert call.end == call.n and not call.handed_over
    assert np.all(trace.y == 0.0) and np.all(np.diff(trace.u) != 0.0)


def test_a_sample_the_divergence_guard_stops_gives_a_nan_column():
    # _loop_map steps single samples of the compiled loop; one whose output
    # is NaN stops at the guard and returns no state. A validated model
    # cannot give one from the states _loop_map starts at, so this stand-in
    # has an infinite output coefficient: 0 * inf is NaN from the zero state
    # and from e_1, while e_0 reads an infinite output, which the open guard
    # lets through
    plant = SimpleNamespace(
        order=2, Ad=np.diag([0.5, 0.5]), Bd=np.array([[1.0], [0.0]]),
        C=np.array([[math.inf, 1.0]]),
    )
    phi, g, p, q = simloop._loop_map(
        plant, PidGains(kp=1.0, ki=0.5, kd=0.0), 0.01, None, False, 1.0, 0.0
    )
    assert phi.shape == (6, 6) and p.shape == (2, 6)
    assert np.isnan(g).all() and np.isnan(q).all()
    assert np.isnan(phi[:, 1]).all() and np.isnan(p[:, 1]).all()
    assert p[0, 0] == math.inf


def test_a_diverging_loop_refuses_the_tail(loop_ends):
    # unstable when sampled at 10 ms (spectral radius 1.013): unclamped
    # under open limits, it hands over, has the tail refused, and steps on
    # to the divergence guard
    scen = _step_scenario(ASC_VEL, PROJECT.controllers["ascension_velocity_pid"],
                          1e-9, 60.0, limits=_OPEN)
    trace, calls = _refused(scen, loop_ends)
    assert calls == 2 and trace.diverged


def test_a_tail_past_the_divergence_guard_is_refused(loop_ends):
    # a stable loop asked for 2e12 deg: the output is 4.2e11 at the
    # hand-over and would settle past DIVERGENCE_LIMIT, where the stepped
    # loop stops
    plant, controller = _STABLE_LOOPS[("ascension_position", "sf")]
    trace, calls = _refused(
        _step_scenario(plant, controller, 2e12, 60.0, limits=_OPEN), loop_ends
    )
    assert calls == 2 and trace.diverged


def test_a_pinned_equilibrium_refuses_the_tail(loop_ends):
    # a position PID under the one-sided actuator: its equilibrium command
    # is zero, on the limit, and after the overshoot the linear map would
    # drive the command below it, where the stepped loop pins
    plant, controller = _STABLE_LOOPS[("ascension_position", "pid")]
    trace, calls = _refused(
        _step_scenario(plant, controller, 90.0, 300.0, limits=DEFAULT_LIMITS),
        loop_ends,
    )
    assert calls == 2
    assert trace.clipped_low > 0 and trace.u_sat[-1] == 0.0


@pytest.mark.parametrize("amplitude, limits", [
    (1.0, ActuatorLimits(0.0, math.inf)),
    (-1.0, ActuatorLimits(-math.inf, 0.0)),
])
def test_an_equilibrium_on_a_half_open_limit_refuses_the_tail(
    amplitude, limits, loop_ends
):
    # pole-placed state feedback on a position plant holds it with a zero
    # command: on the finite limit of a half-open actuator, whose span gives
    # no margin, so the margin comes from the command's own terms
    plant, controller = _STABLE_LOOPS[("declination_position", "sf")]
    _, calls = _refused(
        _step_scenario(plant, controller, amplitude, 60.0, limits=limits),
        loop_ends,
    )
    assert calls == 2


def test_a_tail_that_would_clamp_is_refused(loop_ends):
    # a slow, lightly damped PI loop on the first-order plant (damping 0.2
    # at 0.3 rad/s): no command clamps in the first block, but the
    # command's overshoot near 12 s crosses the ceiling
    scen = _step_scenario(FIRST_ORDER, PidGains(-0.88, 0.09, 0.0), 1.0, 60.0,
                          limits=ActuatorLimits(-10.0, 1.5))
    trace, calls = _refused(scen, loop_ends)
    assert calls == 2
    handed = loop_ends[0].end
    assert np.array_equal(trace.u[:handed], trace.u_sat[:handed])
    assert trace.clipped_high > 0


@pytest.mark.parametrize("amplitude", [0.0, -0.0])
def test_the_held_command_is_part_of_the_repeated_state(amplitude):
    # an undamped plant whose sampled model has negative entries, at rest:
    # the command cycles through -0.0, -0.0 and 0.0, and the loop delay
    # feeds each to the plant a sample later. At the block boundaries the
    # plant state and xi read the same bits, so only u_prev tells the first
    # block from the second.
    oscillator = TransferFunction((1.0,), (1.0, 0.0, 350.0**2))
    sf = StateFeedbackGains((1.0, -1.0), -1.0)
    _assert_trace_is_reference(_step_scenario(
        oscillator, sf, amplitude, 8.0, ts=0.01, limits=WIDE, loop_delay=True
    ))


def test_a_decaying_derivative_filter_is_part_of_the_repeated_state():
    # r < 0 pins the command at the one-sided actuator's zero from the first
    # sample: the plant, the frozen integral, the error and u_prev hold still
    # while the slow derivative filter decays, moving the raw command's last
    # bits for about 3 000 samples
    pid = PidGains(5.0, 20.0, 0.01, deriv_filter_n=1.0)
    trace = _assert_trace_is_reference(_step_scenario(FIRST_ORDER, pid, -1.0, 40.0))
    assert np.all(trace.u_sat == 0.0) and trace.u[2_000] != trace.u[2_001]


@pytest.mark.parametrize("scen", [
    # at rest for 500 samples, then a step
    Scenario(plant=FIRST_ORDER, controller=PidGains(5.0, 20.0, 0.01),
             reference=SignalSpec(amplitude=1.0, start=5.0), duration=10.0),
    # a load after the loop has settled to its last bit, near sample 5 231
    _step_scenario(ASC_POS, PROJECT.controllers["ascension_position_sf"], 90.0,
                   60.0, disturbance=DisturbanceSpec(amplitude=-500.0, start=58.0)),
], ids=["reference", "disturbance"])
def test_a_step_after_the_state_has_settled_is_not_missed(scen):
    _assert_trace_is_reference(scen)


def _first_reads(stmts, assigned):
    """Names the statements read before every path through them has assigned
    them, with ``assigned`` holding the names assigned on entry; updates
    ``assigned`` with the names assigned on every path."""
    reads = set()
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            reads |= {n.id for n in ast.walk(stmt.test)
                      if isinstance(n, ast.Name)} - assigned
            branches = []
            for body in (stmt.body, stmt.orelse):
                got = set(assigned)
                reads |= _first_reads(body, got)
                if not (body and isinstance(body[-1], ast.Return)):
                    branches.append(got)
            if branches:
                assigned |= set.intersection(*branches)
            continue
        loads, stores = set(), set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                (stores if isinstance(node.ctx, ast.Store) else loads).add(node.id)
        reads |= loads - assigned
        assigned |= stores
    return reads


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("law", ["pid", "sf"])
@pytest.mark.parametrize("inject", [None, "input", "output"])
@pytest.mark.parametrize("loop_delay", [False, True])
def test_the_repeated_state_holds_every_local_a_sample_reads_first(
    n, law, inject, loop_delay
):
    # the shortcut is exact only if the packed state is all a sample reads
    # that an earlier sample wrote: every local a sample reads before it
    # assigns it, besides the arguments and the sample index
    tree = ast.parse(simloop._loop_source(n, law, inject, loop_delay))
    (loop,) = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    params = {a.arg for a in loop.args.args}
    (sample,) = [f for f in ast.walk(loop)
                 if isinstance(f, ast.For) and f.target.id == "k"]
    packed = [
        [a.id for a in node.value.args] for node in ast.walk(loop)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and node.value.func.id == "_pack"
    ]
    assert len(packed) == 2 and packed[0] == packed[1]
    first = _first_reads(sample.body, set()) - params - {"k"}
    assert {f"x{j}" for j in range(n)} | {"u_prev"} <= first
    assert first <= set(packed[0])
    # every state the loop returns (the hand-over, and the last sample's,
    # which linearizes the loop) and the one it resumes from are the packed
    # names in the packed order
    returned = [
        [a.id for a in node.value.elts[2].elts] for node in ast.walk(loop)
        if isinstance(node, ast.Return)
        and isinstance(node.value.elts[2], ast.Tuple)
    ]
    (resumed,) = [
        [a.id for a in node.targets[0].elts] for node in loop.body
        if isinstance(node, ast.Assign) and ast.unparse(node.value) == "z"
    ]
    assert returned == [packed[0], packed[0]] and resumed == packed[0]
