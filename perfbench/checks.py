"""Output checks, computed apart from gemservo and outside the timed region.

Every check recomputes what it verifies with scipy and the equations the
package documents, or tests a property the method must have; none compares
against a stored copy of earlier output. Each function returns a list of
failure messages, empty when the outputs are correct. Only operations that
did not fail are checked.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import signal

from inputs import project_data
from workloads import TUNE_ROWS, WIDE_HZ

REL_COEFF = 0.05      # identified (b0, a1, a0) against the generating plant
REL_FIT = 1e-6        # reported fit % against the dlsim recomputation
REL_POLE = 1e-6       # placed poles against the requested ones


def _zoh(num, den, ts):
    """(Ad, Bd, C) of num/den by scipy's realization and ZOH discretization."""
    ad, bd, c, _, _ = signal.cont2discrete(signal.tf2ss(num, den), ts, method="zoh")
    return ad, bd[:, 0], c[0, :]


def pid_loop_radius(num, den, gains: dict, ts: float) -> float:
    """Spectral radius of the sampled PID loop with saturation off, r = 0.

    The PID law is the one ``pid_step`` documents: trapezoidal integral
    I_k = I_{k-1} + ts/2 (e_k + e_{k-1}), backward-Euler filtered derivative
    D_k = (Tf D_{k-1} + e_k - e_{k-1}) / (Tf + ts) with Tf = 1/n (absent when
    kd = 0), u_k = kp e_k + ki I_k + kd D_k. The loop state is
    z_k = [x_k, I_{k-1}, D_{k-1}, e_{k-1}].
    """
    ad, bd, c = _zoh(num, den, ts)
    n = ad.shape[0]
    m = n + 3
    e = np.zeros(m)
    e[:n] = -c
    e_prev = np.eye(m)[n + 2]
    i_new = np.eye(m)[n] + 0.5 * ts * (e + e_prev)
    d_new = np.zeros(m)
    if gains["kd"] != 0.0:
        tf = 1.0 / gains["n"]
        d_new = (tf * np.eye(m)[n + 1] + e - e_prev) / (tf + ts)
    u = gains["kp"] * e + gains["ki"] * i_new + gains["kd"] * d_new
    phi = np.zeros((m, m))
    phi[:n, :n] = ad
    phi[:n, :] += np.outer(bd, u)
    phi[n] = i_new
    phi[n + 1] = d_new
    phi[n + 2] = e
    return float(np.max(np.abs(np.linalg.eigvals(phi))))


def reference_step(num, den, gains, limits, amplitude, duration, ts) -> np.ndarray:
    """Saturated step response of the PID loop, written from the documented
    equations: ZOH plant, trapezoidal integral, filtered derivative, clamp,
    and conditional integration (the integral holds when the unclamped
    command is beyond a limit and its increment pushes further out)."""
    kp, ki, kd, nf = gains
    u_min, u_max = limits
    ad, bd, c = _zoh(num, den, ts)
    steps = int(round(duration / ts)) + 1
    x = np.zeros(ad.shape[0])
    integ = deriv = e_prev = 0.0
    tf = 1.0 / nf if kd != 0.0 else 0.0
    y = np.empty(steps)
    for k in range(steps):
        yk = float(c @ x)
        y[k] = yk
        e = amplitude - yk
        deriv = (tf * deriv + e - e_prev) / (tf + ts) if kd != 0.0 else 0.0
        cand = integ + 0.5 * ts * (e + e_prev)
        u = kp * e + ki * cand + kd * deriv
        di = ki * (cand - integ)
        if not ((u > u_max and di > 0.0) or (u < u_min and di < 0.0)):
            integ = cand
        u_sat = min(max(u, u_min), u_max)
        e_prev = e
        x = ad @ x + bd * u_sat
    return y


def step_verdict(y: np.ndarray, ts: float, req: dict, band_pct: float) -> list[str]:
    """Settling time, overshoot and steady-state error against ``req``, by the
    definitions ``metrics.analyze_step`` documents."""
    r = req["amplitude"]
    n_tail = max(1, int(round(0.05 * y.size)))
    ess = abs(r - float(np.mean(y[-n_tail:])))
    excursion = (np.max(y) - r) if r > 0.0 else (r - np.min(y))
    os_pct = 100.0 * max(0.0, float(excursion) / abs(r - y[0]))
    outside = np.abs(y - r) > band_pct / 100.0 * abs(r)
    bad = []
    if outside[-1]:
        bad.append("never settles")
    else:
        last = np.flatnonzero(outside)
        tss = float((last[-1] + 1) * ts) if last.size else 0.0
        if tss > req["tss_max"]:
            bad.append(f"tss {tss:g} s > {req['tss_max']:g} s")
    if os_pct > req["os_max"]:
        bad.append(f"overshoot {os_pct:.4g} % > {req['os_max']:g} %")
    if ess > req["ess_max"] + 1e-6 * abs(r):
        bad.append(f"ess {ess:.3g} > {req['ess_max']:g}")
    return bad


def _same_outputs(ops: list[dict], keys: tuple[str, ...], what: str) -> list[str]:
    first = {}
    for op in ops:
        for k in keys:
            v = op.get(k)
            if first.setdefault((op["op"], k), v) != v:
                return [f"{what}: {op['op']} {k} differs between passes"]
    return []


def check_reproduce(ops: list[dict], work: Path) -> list[str]:
    ok = [op for op in ops if op["ok"]]
    bad = _same_outputs(ok, ("stdout", "report"), "reproduce")
    if not ok:
        return bad
    raw = project_data()
    ts = raw["defaults"]["ts"]
    doc = json.loads(ok[0]["report"])
    if doc["assertions_passed"] is not True:
        bad.append("reproduce: assertions_passed is not true")
    for row in doc["tracking"]:
        if row["kind"] != "pid":
            continue
        system = row["system"]
        plant = raw["plants"][system]
        gains = {"kd": 0.0, "n": 100.0, **raw["controllers"][f"{system}_pid"]}
        stable = pid_loop_radius(plant["num"], plant["den"], gains, ts) < 1.0
        if stable != row["linearly_stable"]:
            bad.append(
                f"reproduce: {system} pid linearly_stable is "
                f"{row['linearly_stable']}, the recomputed sampled loop says {stable}"
            )
    for row in doc["max_control"]:
        if not 0.0 <= row["max_control_khz"] <= 350.0:
            bad.append(
                f"reproduce: {row['system']} {row['kind']} max_control_khz "
                f"{row['max_control_khz']} outside [0, 350]"
            )
    return bad


def _fit_pct(num, den, path: Path) -> float:
    t, u, y = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    dsys = signal.cont2discrete(signal.tf2ss(num, den), t[1] - t[0], method="zoh")
    _, y_hat, _ = signal.dlsim(dsys, u)
    return 100.0 * (1.0 - np.linalg.norm(y - y_hat[:, 0]) / np.linalg.norm(y - y.mean()))


def check_identify(ops: list[dict], work: Path) -> list[str]:
    ok = [op for op in ops if op["ok"]]
    bad = _same_outputs(ok, ("stdout",), "identify")
    raw = project_data()
    seen = set()
    for op in ok:
        if op["axis"] in seen:
            continue
        seen.add(op["axis"])
        doc = json.loads(op["stdout"])
        where = f"identify {op['axis']}"
        true = raw["plants"][f"{op['axis']}_velocity"]
        truth = (true["num"][-1] / true["den"][0], *(v / true["den"][0] for v in true["den"][1:]))
        num, den = doc["model"]["num"], doc["model"]["den"]
        got = (num[-1], den[1], den[2])
        for name, g, w in zip(("b0", "a1", "a0"), got, truth):
            if abs(g - w) > REL_COEFF * abs(w):
                bad.append(f"{where}: {name} {g:.6g} not within 5 % of {w:.6g}")
        fits = {d["label"]: d["fit_pct"] for d in doc["datasets"]}
        winner = doc["winner"]
        if fits[winner] != max(fits.values()):
            bad.append(f"{where}: winner {winner} does not have the highest fit %")
        if [d["label"] for d in doc["datasets"] if d["selected"]] != [winner]:
            bad.append(f"{where}: the selected flag does not mark the winner alone")
        recomputed = _fit_pct(num, den, work / "logs" / f"{winner}.csv")
        reported = doc["model"]["fit"]["fit_pct"]
        if abs(recomputed - reported) > REL_FIT * abs(recomputed):
            bad.append(
                f"{where}: reported fit {reported!r} % against dlsim {recomputed!r} %"
            )
        pos = doc["position_model"]
        if pos is None or pos["num"] != num or pos["den"] != den + [0.0]:
            bad.append(f"{where}: position model is not the velocity model over s")
    return bad


def _phase_variable(num, den):
    """(A, B, C) in the phase-variable order ``gemservo.lti`` documents: the
    companion row at the bottom of A, B = e_n, C the numerator ascending."""
    lead = float(den[0])
    den = np.asarray(den, float) / lead
    num = np.asarray(num, float) / lead
    n = den.size - 1
    a = np.zeros((n, n))
    a[:-1, 1:] = np.eye(n - 1)
    a[-1] = -den[:0:-1]
    b = np.zeros((n, 1))
    b[-1, 0] = 1.0
    c = np.zeros((1, n))
    c[0, : num.size] = num[::-1]
    return a, b, c


def check_tune(ops: list[dict], work: Path) -> list[str]:
    ok = [op for op in ops if op["ok"]]
    bad = _same_outputs(ok, ("gains", "k1", "k2"), "tune")
    raw = project_data()
    ts = raw["defaults"]["ts"]
    band = raw["defaults"]["band_pct"]
    project_limits = (raw["defaults"]["limits"]["umin"], raw["defaults"]["limits"]["umax"])
    row_limits = {
        name: project_limits if which == "project" else (-WIDE_HZ, WIDE_HZ)
        for name, which in TUNE_ROWS
    }
    done = set()
    for op in ok:
        if op["op"] in done:
            continue
        done.add(op["op"])
        name = op["plant"]
        plant = raw["plants"][name]
        req = raw["requirements"][name]
        if op["op"].startswith("tune_pid:"):
            kp, ki, kd, nf, u_min, u_max = op["gains"]
            limits = row_limits[name]
            if (u_min, u_max) != limits:
                bad.append(f"tune {name}: gains carry limits {(u_min, u_max)}, not {limits}")
            rho = pid_loop_radius(plant["num"], plant["den"], {"kp": kp, "ki": ki, "kd": kd, "n": nf}, ts)
            if not rho < 1.0:
                bad.append(f"tune {name}: sampled loop unstable (radius {rho:.6g})")
                continue
            duration = min(max(2.0 * req["tss_max"], 20.0 / (-math.log(rho) / ts)), 600.0)
            y = reference_step(
                plant["num"], plant["den"], (kp, ki, kd, nf), limits,
                req["amplitude"], duration, ts,
            )
            bad += [f"tune {name}: {msg}" for msg in step_verdict(y, ts, req, band)]
        else:
            a, b, c = _phase_variable(plant["num"], plant["den"])
            n = a.shape[0]
            k1 = np.asarray(op["k1"], float).reshape(1, n)
            m = np.zeros((n + 1, n + 1))
            m[:n, :n] = a - b @ k1
            m[:n, n] = b[:, 0] * op["k2"]
            m[n, :n] = -c[0]
            got = sorted(np.linalg.eigvals(m), key=lambda p: (p.real, p.imag))
            want = sorted((complex(*p) for p in op["poles"]), key=lambda p: (p.real, p.imag))
            for g, w in zip(got, want):
                if abs(g - w) > REL_POLE * abs(w):
                    bad.append(f"place_poles {name}: pole {g:.9g} against requested {w:.9g}")
    return bad


CHECKS = {"reproduce": check_reproduce, "identify": check_identify, "tune": check_tune}
