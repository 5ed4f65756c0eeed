"""Step-response metrics, tracking requirements and shared constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constants",
    "CONSTANTS",
    "StepMetrics",
    "DisturbanceMetrics",
    "Requirement",
    "RequirementVerdict",
    "analyze_step",
    "analyze_disturbance",
    "has_step",
    "check_requirements",
    "ess_bound",
    "table_report",
]


@dataclass(frozen=True)
class Constants:
    """Project-wide physical constants and defaults."""

    sidereal_rate_deg_s: float = 0.004166
    parking_ascension_deg: float = 0.0
    parking_declination_deg: float = -90.0
    actuator_max_hz: float = 350_000.0
    default_ts: float = 0.010
    default_band_pct: float = 2.0


CONSTANTS = Constants()

# ess is compared against the requirement with this relative slack so that a
# "zero steady-state error" requirement is satisfiable in floating point.
ESS_REL_TOL = 1e-6


@dataclass(frozen=True)
class StepMetrics:
    """Settling time, percent overshoot and steady-state error of a step response.

    ``tss`` is None when the response never enters and stays inside the band
    (``settled`` is False in that case). ``y_final`` is the mean of the last
    5% of the trace.
    """

    tss: float | None
    os_pct: float
    ess: float
    settled: bool
    y_final: float


@dataclass(frozen=True)
class DisturbanceMetrics:
    """Recovery behaviour after a disturbance, measured from its onset."""

    peak_dev_pct: float
    recovery_time: float | None
    final_error: float
    recovered: bool


@dataclass(frozen=True)
class Requirement:
    """Tracking requirement: reference amplitude plus tss/%OS/ess bounds."""

    amplitude: float
    tss_max: float
    os_max: float
    ess_max: float = 0.0
    units: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.amplitude) and self.amplitude != 0.0):
            raise ValueError(f"amplitude must be nonzero and finite, got {self.amplitude}")
        if not (math.isfinite(self.tss_max) and self.tss_max > 0.0):
            raise ValueError(f"tss_max must be positive, got {self.tss_max}")
        if not (math.isfinite(self.os_max) and self.os_max >= 0.0):
            raise ValueError(f"os_max must be nonnegative, got {self.os_max}")
        if not (math.isfinite(self.ess_max) and self.ess_max >= 0.0):
            raise ValueError(f"ess_max must be nonnegative, got {self.ess_max}")


@dataclass(frozen=True)
class RequirementVerdict:
    """Per-field pass/fail against a Requirement."""

    settled_ok: bool
    tss_ok: bool
    os_ok: bool
    ess_ok: bool

    @property
    def passed(self) -> bool:
        return self.settled_ok and self.tss_ok and self.os_ok and self.ess_ok


def _trace_arrays(trace, band_pct: float):
    """Check ``band_pct`` and the trace; return the trace's (t, r, y, diverged)."""
    if not (math.isfinite(band_pct) and band_pct > 0.0):
        raise ValueError(f"band_pct must be positive, got {band_pct}")
    t = np.asarray(trace.t, dtype=float)
    r = np.asarray(trace.r, dtype=float)
    y = np.asarray(trace.y, dtype=float)
    if not (t.shape == r.shape == y.shape) or t.ndim != 1:
        raise ValueError("trace t, r, y must be equal-length 1-D arrays")
    if t.size < 2:
        raise ValueError("trace must contain at least 2 samples")
    return t, r, y, bool(getattr(trace, "diverged", False))


def _tail(values: np.ndarray) -> np.ndarray:
    """The tail window of a trace: its last 5 % of samples, at least one.
    Final values are averaged over it, and a trace must stay in the band
    over it to settle."""
    return values[-max(1, int(round(0.05 * len(values)))):]


def _settling_time(t, outside, diverged: bool, since: float = 0.0) -> float | None:
    """The time from ``since`` to the first sample after the last one
    ``outside`` the band (0.0 when none is), or None when the trace diverged
    or leaves the band anywhere in its tail window: one sample inside the
    band at the end of a limit cycle is not settling."""
    if diverged or _tail(outside).any():
        return None
    out = np.flatnonzero(outside)
    return float(t[out[-1] + 1] - since) if out.size else 0.0


def ess_bound(amplitude: float, ess_max: float = 0.0) -> float:
    """The largest steady error that meets ``ess_max``: ``ess_max`` plus a
    slack of ESS_REL_TOL times the reference amplitude, so that a zero bound
    can be met in floating point."""
    return ess_max + ESS_REL_TOL * abs(amplitude)


def has_step(trace) -> bool:
    """Whether the trace's final reference differs from its first output:
    step metrics are defined only then."""
    return float(trace.r[-1]) - float(trace.y[0]) != 0.0


def analyze_step(trace, band_pct: float = CONSTANTS.default_band_pct) -> StepMetrics:
    """Extract tss, %OS and ess from a step-response trace.

    The settling time is the earliest instant after which |y - r_final| stays
    within band_pct percent of |r_final| for the remainder of the trace, and
    the trace settles only if that holds over its :func:`_tail` window, the
    one ``y_final`` averages. Overshoot is the peak excursion past the final
    reference, normalized by the commanded step size. A trace flagged as
    diverged never settles.

    ``trace`` needs attributes ``t``, ``r``, ``y`` (and optionally
    ``diverged``), so simulation traces and hand-built records both work.
    """
    t, r, y, diverged = _trace_arrays(trace, band_pct)
    if not has_step(trace):
        raise ValueError("reference step size is zero; step metrics are undefined")
    r_final = float(r[-1])
    step = r_final - float(y[0])

    y_final = float(np.mean(_tail(y)))
    ess = abs(r_final - y_final)

    if step > 0.0:
        excursion = float(np.max(y)) - r_final
    else:
        excursion = r_final - float(np.min(y))
    os_pct = 100.0 * max(0.0, excursion / abs(step))

    band = band_pct / 100.0 * abs(r_final)
    tss = _settling_time(t, np.abs(y - r_final) > band, diverged)
    return StepMetrics(
        tss=tss, os_pct=os_pct, ess=ess, settled=tss is not None, y_final=y_final
    )


def analyze_disturbance(
    trace, onset: float, band_pct: float = CONSTANTS.default_band_pct
) -> DisturbanceMetrics:
    """Recovery metrics on the trace segment from the disturbance onset on.

    Recovery is settling, by the rule of :func:`analyze_step`, of the
    segment, timed from the onset; ``final_error`` averages its tail window.
    """
    t, r, y, diverged = _trace_arrays(trace, band_pct)
    if not (t[0] <= onset <= t[-1]):
        raise ValueError(
            f"onset {onset:g} lies outside the trace span [{t[0]:g}, {t[-1]:g}]"
        )
    k0 = int(np.searchsorted(t, onset - 1e-12))
    r_final = float(r[-1])
    scale = abs(r_final)
    if scale == 0.0:
        raise ValueError("final reference is zero; relative deviation is undefined")
    seg_y = y[k0:]
    dev = np.abs(seg_y - r_final)
    peak_pct = 100.0 * float(np.max(dev)) / scale
    band = band_pct / 100.0 * scale
    recovery = _settling_time(t[k0:], dev > band, diverged, onset)
    final_error = abs(r_final - float(np.mean(_tail(seg_y))))
    return DisturbanceMetrics(
        peak_dev_pct=peak_pct,
        recovery_time=recovery,
        final_error=final_error,
        recovered=recovery is not None,
    )


def check_requirements(metrics: StepMetrics, req: Requirement) -> RequirementVerdict:
    """Compare measured step metrics against a requirement.

    The ess bound gets a 1e-6 relative slack (scaled by the reference
    amplitude) so that exact-zero requirements are meaningful in floating
    point.
    """
    settled_ok = metrics.settled
    tss_ok = metrics.settled and metrics.tss is not None and metrics.tss <= req.tss_max
    os_ok = metrics.os_pct <= req.os_max
    ess_ok = metrics.ess <= ess_bound(req.amplitude, req.ess_max)
    return RequirementVerdict(
        settled_ok=settled_ok, tss_ok=tss_ok, os_ok=os_ok, ess_ok=ess_ok
    )


def table_report(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Plain-text aligned table. Cells are str()-ed; numeric cells right-align."""
    cells = [[str(h) for h in headers]] + [[_fmt_cell(c) for c in row] for row in rows]
    for row in cells[1:]:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line.rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        out = []
        for cell, w in zip(row, widths):
            out.append(cell.rjust(w) if _is_numeric(cell) else cell.ljust(w))
        lines.append("  ".join(out).rstrip())
    return "\n".join(lines)


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
