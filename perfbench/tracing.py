"""Span tracing around the calls into each gemservo module, from outside it.

:func:`install` replaces public functions with timing wrappers *where their
callers look the names up* (``gemservo.simloop.pid_step`` rather than
``gemservo.controllers.pid_step``), so calls made inside the package are
seen without touching its source. Each call records a span: id, parent id,
name, start, end and a work count taken from the result (samples simulated,
fit iterations). Spans are kept in memory in per-thread buffers and turned
into per-layer metrics, and written out, when the run ends.

The program runs some loops on thread pools it joins before returning. A
span opened on a pool thread with no open span of its own takes as parent
the span open on the main thread at that moment: the call that owns the
pool and waits for it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from array import array
from pathlib import Path

import numpy as np

# (module whose global is replaced, attribute, span name, work count). The
# list covers the per-layer metrics the benchmark reports; what is left out
# (table rendering, JSON writing, small helpers) stays in the caller's self time.
_SAMPLES = "samples"
_ITERATIONS = "iterations"
TARGETS = (
    ("gemservo.cli", "main", "cli.main", None),
    ("gemservo.cli", "load_project", "config.load_project", None),
    ("gemservo.cli", "load_scenario", "config.load_scenario", None),
    ("gemservo.cli", "load_dataset", "sysid.load_dataset", None),
    ("gemservo.cli", "fit_second_order", "sysid.fit_second_order", _ITERATIONS),
    ("gemservo.cli", "analyze_step", "metrics.analyze_step", None),
    ("gemservo.simloop", "run", "simloop.run", _SAMPLES),
    ("gemservo.simloop", "run_tracking_suite", "simloop.run_tracking_suite", None),
    ("gemservo.simloop", "run_disturbance_suite", "simloop.run_disturbance_suite", None),
    ("gemservo.simloop", "discrete_loop_matrix", "simloop.discrete_loop_matrix", None),
    ("gemservo.simloop", "pid_step", "controllers.pid_step", None),
    ("gemservo.simloop", "sf_step", "controllers.sf_step", None),
    ("gemservo.simloop", "discretize_zoh", "lti.discretize_zoh.simloop", None),
    ("gemservo.simloop", "analyze_step", "metrics.analyze_step", None),
    ("gemservo.simloop", "analyze_disturbance", "metrics.analyze_disturbance", None),
    ("gemservo.controllers", "tune_pid", "controllers.tune_pid", None),
    ("gemservo.controllers", "place_poles", "controllers.place_poles", None),
    ("gemservo.controllers", "analyze_step", "metrics.analyze_step", None),
    ("gemservo.sysid", "discretize_zoh", "lti.discretize_zoh.sysid", None),
    ("gemservo.sysid", "simulate", "lti.simulate", None),
)


def _work(kind, result) -> float:
    if result is None:
        return 0.0
    if kind == _SAMPLES:
        return float(len(result))
    if kind == _ITERATIONS:
        return float(result.iterations)
    return 0.0


class _Buffer:
    """Spans recorded by one thread, as parallel typed arrays."""

    def __init__(self) -> None:
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("d")


class Tracer:
    """Installs the wrappers, records spans and restores the program."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _thread_state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = (
                self._main_stack
                if threading.current_thread() is self._main
                else []
            )
            loc.buf = _Buffer()
            with self._lock:
                self._buffers.append(loc.buf)
        return loc.stack, loc.buf

    def _wrap(self, fn, name: str, work_kind):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        clock = time.perf_counter
        ids = self._ids
        main_stack = self._main_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, buf = self._thread_state()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.name.append(code)
                buf.t0.append(t0)
                buf.t1.append(t1)
                buf.work.append(_work(work_kind, result))

        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, work_kind in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, work_kind))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans, merged across threads and sorted by start."""
        with self._lock:
            bufs = list(self._buffers)
        cols = {}
        for key, dtype in (
            ("sid", np.int64), ("parent", np.int64), ("name", np.int32),
            ("t0", float), ("t1", float), ("work", float),
        ):
            parts = [np.array(getattr(b, key), dtype=dtype) for b in bufs]
            cols[key] = np.concatenate(parts) if parts else np.empty(0, dtype)
        order = np.argsort(cols["t0"], kind="stable")
        return {k: v[order] for k, v in cols.items()}

    def write(self, path: Path) -> None:
        """Save the spans as an .npz of columns; ``names`` decodes ``name``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        sp = self.spans()
        np.savez(
            path,
            names=np.array(self.names),
            sid=sp["sid"].astype(np.int32),
            parent=sp["parent"].astype(np.int32),
            name=sp["name"].astype(np.uint16),
            t0=sp["t0"],
            t1=sp["t1"],
            work=sp["work"].astype(np.float32),
        )


def _union(t0: np.ndarray, t1: np.ndarray) -> float:
    """Length of the union of the intervals [t0, t1]."""
    if t0.size == 0:
        return 0.0
    order = np.argsort(t0, kind="stable")
    t0, t1 = t0[order], t1[order]
    reach = np.maximum.accumulate(t1)
    starts = np.ones(t0.size, bool)
    starts[1:] = t0[1:] > reach[:-1]
    first = np.flatnonzero(starts)
    ends = np.maximum.reduceat(t1, first)
    return float(np.sum(ends - t0[first]))


def pass_metrics(sp: dict, names: list[str], window, tune_plants) -> dict[str, float]:
    """Per-layer metrics of the spans that lie inside one pass's window."""
    sel = (sp["t0"] >= window[0]) & (sp["t1"] <= window[1])
    s = {k: v[sel] for k, v in sp.items()}
    dur = s["t1"] - s["t0"]
    code = {n: i for i, n in enumerate(names)}

    def mask(name):
        return s["name"] == code.get(name, -1)

    def calls(name):
        return float(np.count_nonzero(mask(name)))

    def secs(name):
        return float(np.sum(dur[mask(name)]))

    main_self = 0.0
    for i in np.flatnonzero(mask("cli.main")):
        kids = s["parent"] == s["sid"][i]
        lo, hi = s["t0"][i], s["t1"][i]
        covered = _union(np.maximum(s["t0"][kids], lo), np.minimum(s["t1"][kids], hi))
        main_self += float(dur[i]) - covered

    run = mask("simloop.run")
    samples = float(np.sum(s["work"][run]))
    busy = _union(s["t0"][run], s["t1"][run])
    iterations = float(np.sum(s["work"][mask("sysid.fit_second_order")]))
    evals = calls("lti.discretize_zoh.sysid")

    m = {
        "cli.main.self_s": main_self,
        "simloop.run.calls": calls("simloop.run"),
        "simloop.run.samples": samples,
        "simloop.run.time_s": secs("simloop.run"),
        "simloop.run.busy_s": busy,
        "simloop.run.us_per_sample": 1e6 * busy / samples if samples else 0.0,
        "simloop.run_tracking_suite.time_s": secs("simloop.run_tracking_suite"),
        "simloop.run_disturbance_suite.time_s": secs("simloop.run_disturbance_suite"),
        "simloop.discrete_loop_matrix.calls": calls("simloop.discrete_loop_matrix"),
        "simloop.discrete_loop_matrix.time_s": secs("simloop.discrete_loop_matrix"),
        "controllers.pid_step.calls": calls("controllers.pid_step"),
        "controllers.pid_step.time_s": secs("controllers.pid_step"),
        "controllers.sf_step.calls": calls("controllers.sf_step"),
        "controllers.sf_step.time_s": secs("controllers.sf_step"),
        "controllers.tune_pid.time_s": secs("controllers.tune_pid"),
        "controllers.place_poles.time_s": secs("controllers.place_poles"),
    }
    tune = dur[mask("controllers.tune_pid")]
    for k, plant in enumerate(tune_plants):
        m[f"controllers.tune_pid.{plant}.time_s"] = float(tune[k]) if k < tune.size else 0.0
    for side in ("simloop", "sysid"):
        m[f"lti.discretize_zoh.{side}.calls"] = calls(f"lti.discretize_zoh.{side}")
        m[f"lti.discretize_zoh.{side}.time_s"] = secs(f"lti.discretize_zoh.{side}")
    m["lti.discretize_zoh.calls"] = (
        m["lti.discretize_zoh.simloop.calls"] + m["lti.discretize_zoh.sysid.calls"]
    )
    m["lti.discretize_zoh.time_s"] = (
        m["lti.discretize_zoh.simloop.time_s"] + m["lti.discretize_zoh.sysid.time_s"]
    )
    m.update({
        "lti.simulate.time_s": secs("lti.simulate"),
        "sysid.load_dataset.time_s": secs("sysid.load_dataset"),
        "sysid.fit_second_order.calls": calls("sysid.fit_second_order"),
        "sysid.fit_second_order.time_s": secs("sysid.fit_second_order"),
        "sysid.fit.iterations": iterations,
        "sysid.model_evals": evals,
        "sysid.evals_per_iteration": evals / iterations if iterations else 0.0,
        "metrics.analyze_step.calls": calls("metrics.analyze_step"),
        "metrics.analyze_step.time_s": secs("metrics.analyze_step"),
        "metrics.analyze_disturbance.time_s": secs("metrics.analyze_disturbance"),
    })
    return m
