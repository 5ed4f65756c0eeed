"""Tests for the mount kinematics: direct/inverse maps, the reachable-sphere
invariant, workspace sampling and the CSV export."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemservo.kinematics import (
    DEFAULT_GEOMETRY,
    EffectorPos,
    JointAngles,
    MountGeometry,
    direct,
    inverse,
    workspace,
    write_workspace_csv,
)

FLAT = MountGeometry(l1=1.0, l2=0.5, alpha=0.0)  # untilted: geometry by hand


# ---------------------------------------------------------------------------
# direct map


def test_direct_zero_angles_points_along_the_shaft():
    p = direct(FLAT, JointAngles(0.0, 0.0))
    assert p.x == pytest.approx(FLAT.l1, rel=1e-15)
    assert p.y == pytest.approx(0.0, abs=1e-15)
    assert p.z == pytest.approx(FLAT.l2, rel=1e-15)


def test_direct_quarter_turns_swap_axes():
    p = direct(FLAT, JointAngles(math.pi / 2, math.pi / 2))
    assert p.x == pytest.approx(FLAT.l2, rel=1e-12)
    assert p.y == pytest.approx(FLAT.l1, rel=1e-12)
    assert p.z == pytest.approx(0.0, abs=1e-12)


def test_every_position_lies_on_the_mount_sphere():
    rng = np.random.default_rng(7)
    for _ in range(200):
        geom = MountGeometry(
            l1=float(rng.uniform(0.2, 3.0)),
            l2=float(rng.uniform(0.2, 3.0)),
            alpha=float(rng.uniform(-1.4, 1.4)),
        )
        j = JointAngles(
            theta1=float(rng.uniform(-math.pi, math.pi)),
            theta2=float(rng.uniform(-math.pi, math.pi)),
        )
        p = direct(geom, j)
        rr = p.x * p.x + p.y * p.y + p.z * p.z
        assert rr == pytest.approx(geom.radius_sq, rel=1e-9)


def test_tilt_rotates_the_y_z_plane_only():
    # the x component never depends on the site latitude
    j = JointAngles(0.4, 1.1)
    base = direct(MountGeometry(1.0, 0.5, 0.0), j)
    tilted = direct(MountGeometry(1.0, 0.5, 0.7), j)
    assert tilted.x == pytest.approx(base.x, rel=1e-15)
    assert math.hypot(tilted.y, tilted.z) == pytest.approx(
        math.hypot(base.y, base.z), rel=1e-12
    )


# ---------------------------------------------------------------------------
# inverse map


def test_inverse_recovers_the_shaft_point():
    j = inverse(FLAT, EffectorPos(FLAT.l1, 0.0, FLAT.l2))
    assert j.theta1 == pytest.approx(0.0, abs=1e-12)
    assert j.theta2 == pytest.approx(0.0, abs=1e-12)


def test_inverse_round_trip_hand_case():
    geom = MountGeometry(l1=1.0, l2=0.5, alpha=0.2)
    j = JointAngles(theta1=0.3, theta2=0.5)
    back = inverse(geom, direct(geom, j))
    assert back.theta1 == pytest.approx(j.theta1, abs=1e-9)
    assert back.theta2 == pytest.approx(j.theta2, abs=1e-9)


def test_declination_recovery_does_not_depend_on_theta1():
    # sin(a) y + cos(a) z equals l2 cos(theta2) for every theta1
    geom = MountGeometry(l1=1.3, l2=0.7, alpha=0.35)
    sa, ca = math.sin(geom.alpha), math.cos(geom.alpha)
    theta2 = 1.05
    expected = geom.l2 * math.cos(theta2)
    for theta1 in (-1.2, -0.3, 0.0, 0.8, 1.4):
        p = direct(geom, JointAngles(theta1, theta2))
        assert sa * p.y + ca * p.z == pytest.approx(expected, rel=1e-12)


def test_inverse_round_trip_over_the_principal_branch():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        geom = MountGeometry(
            l1=float(rng.uniform(0.2, 3.0)),
            l2=float(rng.uniform(0.2, 3.0)),
            alpha=float(rng.uniform(-1.4, 1.4)),
        )
        j = JointAngles(
            theta1=float(rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)),
            theta2=float(rng.uniform(0.0, math.pi)),
        )
        back = inverse(geom, direct(geom, j))
        assert back.theta1 == pytest.approx(j.theta1, abs=1e-9)
        assert back.theta2 == pytest.approx(j.theta2, abs=1e-9)


def test_inverse_handles_the_branch_endpoints():
    # at theta2 = 0 or pi the sine recovery sqrt(1 - c2^2) loses half the
    # floating-point digits, so the round trip is only good to ~1e-7 here
    for theta2 in (0.0, math.pi):
        j = JointAngles(theta1=-0.7, theta2=theta2)
        back = inverse(DEFAULT_GEOMETRY, direct(DEFAULT_GEOMETRY, j))
        assert back.theta1 == pytest.approx(j.theta1, abs=1e-7)
        assert back.theta2 == pytest.approx(theta2, abs=1e-6)


_ANGLE = st.floats(-math.pi / 2, math.pi / 2, exclude_min=True, exclude_max=True)


# Near theta2 = 0 or pi an angle is known only to the square root of the
# position's rounding, eps R, over the arm it turns: l1 for theta1, l2 for
# theta2. Over 600 000 scratch draws the round trip read at most 1.7 of
# that on the angles and 2.7 eps R on the position.
@example(l1=0.001, l2=665.560000297179, alpha=-0.2527352384005961,
         theta1=0.9278001866978933, theta2=3.1415926535897927)
@settings(max_examples=400, deadline=None)
@given(
    l1=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    l2=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    alpha=_ANGLE,
    theta1=_ANGLE,
    theta2=st.one_of(
        st.floats(0.0, math.pi),
        st.floats(0.0, 1e-6),
        st.floats(0.0, 1e-6).map(lambda e: math.pi - e),
    ),
)
def test_inverse_round_trip_within_its_conditioning(l1, l2, alpha, theta1, theta2):
    geom = MountGeometry(l1=l1, l2=l2, alpha=alpha)
    pos = direct(geom, JointAngles(theta1, theta2))
    back = inverse(geom, pos)
    again = direct(geom, back)
    eps, r = np.finfo(float).eps, math.sqrt(geom.radius_sq)
    assert math.dist((again.x, again.y, again.z), (pos.x, pos.y, pos.z)) <= 8 * eps * r
    assert abs(back.theta1 - theta1) <= 4 * math.sqrt(eps * r / l1)
    assert abs(back.theta2 - theta2) <= 4 * math.sqrt(eps * r / l2)


def test_inverse_rejects_off_sphere_points_with_distance():
    with pytest.raises(ValueError, match="off the mount sphere.*radial error"):
        inverse(FLAT, EffectorPos(2.0, 0.0, 0.0))


def test_inverse_rejects_points_outside_the_declination_annulus():
    # on the sphere, but |l2 cos(theta2)| would exceed l2
    r = math.sqrt(FLAT.radius_sq)
    with pytest.raises(ValueError, match="declination annulus"):
        inverse(FLAT, EffectorPos(0.0, 0.0, r))


def test_inverse_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="tol"):
        inverse(FLAT, EffectorPos(FLAT.l1, 0.0, FLAT.l2), tol=0.0)


# ---------------------------------------------------------------------------
# dataclass validation


def test_geometry_validation():
    with pytest.raises(ValueError, match="l1"):
        MountGeometry(l1=0.0, l2=0.5, alpha=0.0)
    with pytest.raises(ValueError, match="l2"):
        MountGeometry(l1=1.0, l2=-0.5, alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        MountGeometry(l1=1.0, l2=0.5, alpha=math.pi / 2)


def test_joint_and_position_validation():
    with pytest.raises(ValueError, match="finite"):
        JointAngles(theta1=math.nan, theta2=0.0)
    with pytest.raises(ValueError, match="finite"):
        EffectorPos(x=math.inf, y=0.0, z=0.0)


def test_default_geometry_is_pinned():
    assert DEFAULT_GEOMETRY.l1 == 1.0
    assert DEFAULT_GEOMETRY.l2 == 0.5
    assert DEFAULT_GEOMETRY.alpha == pytest.approx(math.radians(4.6), rel=1e-15)


# ---------------------------------------------------------------------------
# workspace sampling


def test_workspace_2x2_corners():
    pts = workspace(FLAT, 2, 2)
    assert pts.shape == (4, 5)
    expected = [
        (-math.pi / 2, 0.0, 0.0, -FLAT.l1, FLAT.l2),
        (-math.pi / 2, math.pi, 0.0, -FLAT.l1, -FLAT.l2),
        (math.pi / 2, 0.0, 0.0, FLAT.l1, FLAT.l2),
        (math.pi / 2, math.pi, 0.0, FLAT.l1, -FLAT.l2),
    ]
    np.testing.assert_allclose(pts, expected, atol=1e-12)


def test_workspace_is_theta1_major_and_on_sphere():
    pts = workspace(DEFAULT_GEOMETRY, 5, 7)
    assert pts.shape == (35, 5)
    t1 = pts[:, 0].reshape(5, 7)
    t2 = pts[:, 1].reshape(5, 7)
    # theta1 constant along each block of 7; theta2 repeats per block
    assert np.all(t1 == t1[:, :1])
    np.testing.assert_allclose(t2, np.tile(t2[0], (5, 1)), atol=0.0)
    rr = np.sum(pts[:, 2:] ** 2, axis=1)
    np.testing.assert_allclose(rr, DEFAULT_GEOMETRY.radius_sq, rtol=1e-12)


def test_workspace_rows_match_direct_at_their_angles():
    # the grid is sampled with numpy's sin and cos, direct with libm's,
    # which may differ by one ulp on some builds
    geom = MountGeometry(l1=1.3, l2=0.4, alpha=math.radians(-31.0))
    pts = workspace(geom, 9, 11, theta1_range=(-2.0, 2.5), theta2_range=(-1.0, 4.0))
    expected = []
    for t1, t2 in pts[:, :2]:
        p = direct(geom, JointAngles(float(t1), float(t2)))
        expected.append((t1, t2, p.x, p.y, p.z))
    np.testing.assert_allclose(
        pts, expected, rtol=0.0, atol=1e-15 * math.sqrt(geom.radius_sq)
    )


def test_workspace_validation():
    with pytest.raises(ValueError, match="at least 2"):
        workspace(FLAT, 1, 5)
    with pytest.raises(ValueError, match="increasing"):
        workspace(FLAT, 3, 3, theta1_range=(1.0, -1.0))


# ---------------------------------------------------------------------------
# CSV export


def test_write_workspace_csv_header_and_degrees(tmp_path):
    pts = workspace(FLAT, 2, 2)
    path = tmp_path / "ws.csv"
    write_workspace_csv(pts, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "theta1_deg,theta2_deg,x,y,z"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(-90.0, rel=1e-12)
    assert first[1] == 0.0
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(90.0, rel=1e-12)
    assert last[1] == pytest.approx(180.0, rel=1e-12)
    # values round-trip through the text format
    np.testing.assert_allclose(
        [first[2], first[3], first[4]], pts[0, 2:], atol=1e-11
    )


def test_write_workspace_csv_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError, match=r"\(n, 5\)"):
        write_workspace_csv(np.zeros((3, 4)), tmp_path / "bad.csv")
