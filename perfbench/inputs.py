"""Seeded generator of the identify workload's drive logs.

Each axis gets three ``t,u,y`` CSV logs of 2000 samples at 4 ms, simulated
from that axis's bundled velocity plant with scipy (not with gemservo), plus
Gaussian output noise of 1 % of the clean output's span:

- ``step``: zero, then one step of 150..300 kHz at 0.1..0.5 s;
- ``prbs``: a binary sequence between 50..100 kHz and 250..300 kHz whose
  level is held 5..40 samples;
- ``gauss``: white Gaussian input, 175 kHz mean and 60 kHz standard
  deviation, clipped to the drive's 0..350 kHz.

All three stay inside the range the drive accepts.

The excitations differ so the Levenberg-Marquardt fits differ in iteration
count. They are drawn from the fixed ``EXCITATION_SEED``; the run's seed
draws the noise. The fitter's work depends strongly on the excitation's
shape (its multistart estimates gain and bandwidth from the log), so seeded
excitations would make a pass's cost a lottery of the seed rather than a
property of the program. The same seed writes the same bytes.

Run alone to write a set of logs: ``python3 perfbench/inputs.py DIR SEED``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy import signal

from workloads import AXES, LOG_SAMPLES, LOG_TS, log_paths

EXCITATION_SEED = 20080968

PROJECT_JSON = Path(__file__).resolve().parent.parent / "src" / "gemservo" / "data" / "project.json"


def project_data() -> dict:
    """The bundled project file, read as plain JSON (not through gemservo)."""
    return json.loads(PROJECT_JSON.read_text())


def plant_coeffs(axis: str) -> tuple[list[float], list[float]]:
    """(num, den) of an axis's bundled velocity plant."""
    p = project_data()["plants"][f"{axis}_velocity"]
    return [float(v) for v in p["num"]], [float(v) for v in p["den"]]


def _excitation(kind: str, rng: np.random.Generator) -> np.ndarray:
    n = LOG_SAMPLES
    if kind == "step":
        u = np.zeros(n)
        u[int(rng.integers(25, 125)):] = rng.uniform(150e3, 300e3)
        return u
    if kind == "prbs":
        u = np.empty(n)
        levels = (rng.uniform(50e3, 100e3), rng.uniform(250e3, 300e3))
        k, high = 0, bool(rng.integers(2))
        while k < n:
            hold = int(rng.integers(5, 41))
            u[k:k + hold] = levels[high]
            k += hold
            high = not high
        return u
    if kind == "gauss":
        return np.clip(175e3 + 60e3 * rng.standard_normal(n), 0.0, 350e3)
    raise ValueError(f"unknown excitation {kind!r}")


def simulate_log(num, den, u: np.ndarray) -> np.ndarray:
    """Clean output of num/den driven by u under a zero-order hold, x0 = 0."""
    dsys = signal.cont2discrete(signal.tf2ss(num, den), LOG_TS, method="zoh")
    _, y, _ = signal.dlsim(dsys, u)
    return y[:, 0]


def write_logs(work: Path, seed: int) -> dict[str, list[Path]]:
    """Write the six identify logs under ``work`` and return their paths."""
    excite = np.random.default_rng(EXCITATION_SEED)
    noise = np.random.default_rng(seed)
    paths = log_paths(work)
    t = np.arange(LOG_SAMPLES) * LOG_TS
    for axis in AXES:
        num, den = plant_coeffs(axis)
        for path in paths[axis]:
            kind = path.stem.rsplit("_", 1)[1]
            u = _excitation(kind, excite)
            y_clean = simulate_log(num, den, u)
            span = float(np.ptp(y_clean))
            y = y_clean + 0.01 * span * noise.standard_normal(LOG_SAMPLES)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", newline="") as fh:
                fh.write("t,u,y\n")
                for row in zip(t, u, y):
                    fh.write("%r,%r,%r\n" % tuple(map(float, row)))
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: inputs.py DIR SEED")
    for axis, ps in write_logs(Path(sys.argv[1]), int(sys.argv[2])).items():
        for p in ps:
            print(p)
