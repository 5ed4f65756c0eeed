"""Kinematics of a German-equatorial telescope mount.

The mount is two revolute joints: theta1 rotates the declination shaft (length
l1) about the polar axis, theta2 rotates the tube cradle (offset l2) about the
declination shaft. The polar axis is tilted from the local vertical by the
site latitude alpha. With those conventions the effector position is

    x = l1 cos(t1) + l2 sin(t2) sin(t1)
    y = sin(a) l2 cos(t2) + (l1 sin(t1) - l2 sin(t2) cos(t1)) cos(a)
    z = cos(a) l2 cos(t2) - (l1 sin(t1) - l2 sin(t2) cos(t1)) sin(a)

and every reachable point lies on the sphere x^2 + y^2 + z^2 = l1^2 + l2^2.
The inverse map below is the exact principal-branch inversion: restricted to
theta2 in [0, pi] and theta1 in (-pi/2, pi/2) it is a two-sided inverse of the
direct map. All angles are radians; lengths are arbitrary but consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MountGeometry",
    "JointAngles",
    "EffectorPos",
    "DEFAULT_GEOMETRY",
    "direct",
    "inverse",
    "workspace",
    "write_workspace_csv",
]


# Points of the largest workspace grid: 40 MB of samples, a CSV of about
# 75 MB and some 10 s of sampling
_MAX_POINTS = 1_000_000


@dataclass(frozen=True)
class MountGeometry:
    """Link lengths and polar-axis tilt (site latitude), radians."""

    l1: float
    l2: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l1) and self.l1 > 0.0):
            raise ValueError(f"l1 must be positive, got {self.l1}")
        if not (math.isfinite(self.l2) and self.l2 > 0.0):
            raise ValueError(f"l2 must be positive, got {self.l2}")
        if not (math.isfinite(self.alpha) and abs(self.alpha) < math.pi / 2):
            raise ValueError(
                f"alpha must lie in (-pi/2, pi/2) radians, got {self.alpha}"
            )
        if not math.isfinite(self.radius_sq):
            raise ValueError(
                f"l1^2 + l2^2 must be finite, got l1={self.l1}, l2={self.l2}"
            )

    @property
    def radius_sq(self) -> float:
        return self.l1 * self.l1 + self.l2 * self.l2


@dataclass(frozen=True)
class JointAngles:
    """Polar-axis angle theta1 and declination-axis angle theta2, radians."""

    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ValueError("joint angles must be finite")


@dataclass(frozen=True)
class EffectorPos:
    """Cartesian tube-end position in the site frame."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError("position components must be finite")


def direct(geom: MountGeometry, joints: JointAngles) -> EffectorPos:
    """Map joint angles to the Cartesian effector position."""
    s1, c1 = math.sin(joints.theta1), math.cos(joints.theta1)
    s2, c2 = math.sin(joints.theta2), math.cos(joints.theta2)
    sa, ca = math.sin(geom.alpha), math.cos(geom.alpha)
    w = geom.l1 * s1 - geom.l2 * s2 * c1
    x = geom.l1 * c1 + geom.l2 * s2 * s1
    y = sa * geom.l2 * c2 + w * ca
    z = ca * geom.l2 * c2 - w * sa
    return EffectorPos(x=x, y=y, z=z)


def inverse(geom: MountGeometry, pos: EffectorPos, tol: float = 1e-6) -> JointAngles:
    """Recover principal-branch joint angles from an effector position.

    The position must lie on the mount sphere (radius sqrt(l1^2 + l2^2))
    within ``tol`` relative; anything else raises with the measured radial
    distance so the caller can see how far off the target is. theta2 comes
    back on the [0, pi] branch; for joint angles produced by :func:`direct`
    with theta2 in [0, pi] and theta1 in (-pi/2, pi/2) the round trip
    reproduces the inputs exactly (to floating-point accuracy).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    rr = pos.x * pos.x + pos.y * pos.y + pos.z * pos.z
    r_sq = geom.radius_sq
    if abs(rr - r_sq) > tol * r_sq:
        raise ValueError(
            "position is off the mount sphere: |p| = "
            f"{math.sqrt(rr):.9g}, reachable radius = {math.sqrt(r_sq):.9g} "
            f"(radial error {math.sqrt(rr) - math.sqrt(r_sq):+.3g})"
        )
    sa, ca = math.sin(geom.alpha), math.cos(geom.alpha)
    # rotate (y, z) back through the latitude tilt
    p = sa * pos.y + ca * pos.z  # l2 cos(theta2)
    q = ca * pos.y - sa * pos.z  # l1 sin(theta1) - l2 sin(theta2) cos(theta1)
    if abs(p) > geom.l2 * (1.0 + tol):
        raise ValueError(
            "position is outside the declination annulus: |l2 cos(theta2)| "
            f"would be {abs(p):.9g} > l2 = {geom.l2:.9g}"
        )
    c2 = min(1.0, max(-1.0, p / geom.l2))
    s2 = math.sqrt(max(0.0, 1.0 - c2 * c2))
    theta2 = math.atan2(s2, c2)
    # (x, q) = (l1 - i l2 sin(theta2)) e^{i theta1} in the complex plane
    theta1 = math.atan2(q, pos.x) + math.atan2(geom.l2 * s2, geom.l1)
    return JointAngles(theta1=theta1, theta2=theta2)


def workspace(
    geom: MountGeometry,
    n_theta1: int,
    n_theta2: int,
    theta1_range: tuple[float, float] = (-math.pi / 2, math.pi / 2),
    theta2_range: tuple[float, float] = (0.0, math.pi),
) -> np.ndarray:
    """Sample the reachable surface on a joint grid.

    Returns an (n_theta1 * n_theta2, 5) array with rows
    (theta1, theta2, x, y, z), theta1-major. Grid endpoints are included.
    A grid of more than ``_MAX_POINTS`` points is refused.
    """
    if n_theta1 < 2 or n_theta2 < 2:
        raise ValueError(
            f"grid needs at least 2 points per axis, got {n_theta1} x {n_theta2}"
        )
    if n_theta1 * n_theta2 > _MAX_POINTS:
        raise ValueError(
            f"grid of {n_theta1} x {n_theta2} points would need "
            f"{n_theta1 * n_theta2} samples; limit is {_MAX_POINTS}"
        )
    lo1, hi1 = (float(v) for v in theta1_range)
    lo2, hi2 = (float(v) for v in theta2_range)
    for name, lo, hi in (("theta1", lo1, hi1), ("theta2", lo2, hi2)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(
                f"{name} range must be finite, got [{lo:g}, {hi:g}] rad"
            )
    if not (lo1 < hi1 and lo2 < hi2):
        raise ValueError("angle ranges must be increasing (lo < hi)")
    t1 = np.linspace(lo1, hi1, n_theta1)
    t2 = np.linspace(lo2, hi2, n_theta2)
    out = np.empty((n_theta1 * n_theta2, 5))
    i = 0
    for a1 in t1:
        for a2 in t2:
            p = direct(geom, JointAngles(float(a1), float(a2)))
            out[i] = (a1, a2, p.x, p.y, p.z)
            i += 1
    return out


def write_workspace_csv(points: np.ndarray, path) -> None:
    """Write workspace samples as theta1_deg,theta2_deg,x,y,z."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 5:
        raise ValueError(f"points must be (n, 5), got {points.shape}")
    with open(path, "w", newline="") as fh:
        fh.write("theta1_deg,theta2_deg,x,y,z\n")
        for t1, t2, x, y, z in points:
            fh.write(
                f"{math.degrees(t1):.12g},{math.degrees(t2):.12g},"
                f"{x:.12g},{y:.12g},{z:.12g}\n"
            )


# 1 m declination shaft, 0.5 m cradle offset, 4.6 degree site latitude
DEFAULT_GEOMETRY = MountGeometry(l1=1.0, l2=0.5, alpha=math.radians(4.6))
