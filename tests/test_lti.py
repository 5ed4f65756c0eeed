"""Tests for the LTI layer: transfer functions, canonical realizations,
zero-order-hold discretization and the classification helpers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gemservo import lti
from gemservo.config import load_project
from gemservo.lti import (
    DiscreteStateSpace,
    StateSpace,
    TransferFunction,
    dc_gain,
    discretize_zoh,
    is_bibo_stable,
    poles,
    second_order_character,
    simulate,
    system_type,
    tf_to_ss,
)

PROJECT = load_project()

ASC_VEL = PROJECT.plants["ascension_velocity"]
DECL_VEL = PROJECT.plants["declination_velocity"]
ASC_POS = PROJECT.plants["ascension_position"]
DECL_POS = PROJECT.plants["declination_position"]


def _expm_pade(M: np.ndarray) -> np.ndarray:
    """Independent matrix exponential: [6/6] Pade with scaling and squaring.

    Deliberately avoids scipy so the ZOH path has a second, unrelated route.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    norm = np.linalg.norm(M, np.inf)
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    A = M / (2.0**s)
    # Pade(6, 6) coefficients of exp(x)
    c = [1.0, 0.5, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0]
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    even = c[0] * np.eye(n) + c[2] * A2 + c[4] * A4 + c[6] * A6
    odd = A @ (c[1] * np.eye(n) + c[3] * A2 + c[5] * A4)
    F = np.linalg.solve(even - odd, even + odd)
    for _ in range(s):
        F = F @ F
    return F


def _zoh_oracle(ss: StateSpace, ts: float) -> tuple[np.ndarray, np.ndarray]:
    n = ss.order
    m = ss.B.shape[1]
    block = np.zeros((n + m, n + m))
    block[:n, :n] = ss.A * ts
    block[:n, n:] = ss.B * ts
    phi = _expm_pade(block)
    return phi[:n, :n], phi[:n, n:]


def _random_stable_tf(rng: np.random.Generator) -> TransferFunction:
    wn = rng.uniform(1.0, 60.0)
    zeta = rng.uniform(0.15, 1.2)
    gain = rng.uniform(0.05, 20.0)
    return TransferFunction((gain * wn * wn,), (1.0, 2.0 * zeta * wn, wn * wn))


# ---------------------------------------------------------------------------
# TransferFunction construction


def test_tf_normalizes_to_monic_denominator():
    tf = TransferFunction((4.0,), (2.0, 8.0, 4.0))
    assert tf.den == (1.0, 4.0, 2.0)
    assert tf.num == (2.0,)
    assert tf.order == 2


def test_tf_strips_leading_zero_coefficients():
    tf = TransferFunction((0.0, 0.0, 3.0), (0.0, 1.0, 5.0))
    assert tf.num == (3.0,)
    assert tf.den == (1.0, 5.0)
    assert tf.order == 1


def test_tf_rejects_improper():
    with pytest.raises(ValueError, match="improper"):
        TransferFunction((1.0, 0.0, 0.0), (1.0, 1.0))


def test_tf_rejects_empty_and_nonfinite_and_zero_denominator():
    with pytest.raises(ValueError):
        TransferFunction((), (1.0,))
    with pytest.raises(ValueError):
        TransferFunction((1.0,), ())
    with pytest.raises(ValueError):
        TransferFunction((math.nan,), (1.0, 1.0))
    with pytest.raises(ValueError):
        TransferFunction((1.0,), (1.0, math.inf))
    with pytest.raises(ValueError):
        TransferFunction((1.0,), (0.0, 0.0))


def test_tf_str_is_readable():
    s = str(TransferFunction((2.0,), (1.0, 3.0, 5.0)))
    assert s == "(2) / (s^2 + 3 s + 5)"
    assert str(TransferFunction((1.0, 0.0), (1.0, 0.5, 0.0))) == "(s) / (s^2 + 0.5 s)"


def test_tf_is_immutable():
    tf = TransferFunction((1.0,), (1.0, 1.0))
    with pytest.raises(AttributeError):
        tf.num = (2.0,)


# ---------------------------------------------------------------------------
# Canonical realization


def test_canonical_realization_layout_third_order():
    tf = TransferFunction((5.0, 7.0), (1.0, 2.0, 3.0, 4.0))
    ss = tf_to_ss(tf)
    np.testing.assert_allclose(
        ss.A, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-4.0, -3.0, -2.0]]
    )
    np.testing.assert_allclose(ss.B, [[0.0], [0.0], [1.0]])
    np.testing.assert_allclose(ss.C, [[7.0, 5.0, 0.0]])  # ascending powers
    np.testing.assert_allclose(ss.D, [[0.0]])


def test_canonical_realization_biproper_feedthrough():
    # (2 s + 3) / (s + 1) = 2 + 1/(s + 1)
    ss = tf_to_ss(TransferFunction((2.0, 3.0), (1.0, 1.0)))
    np.testing.assert_allclose(ss.D, [[2.0]])
    np.testing.assert_allclose(ss.A, [[-1.0]])
    np.testing.assert_allclose(ss.C, [[1.0]])


def test_canonical_realization_matches_transfer_function_poles():
    rng = np.random.default_rng(7)
    for _ in range(20):
        tf = _random_stable_tf(rng)
        ss = tf_to_ss(tf)
        got = sorted(np.linalg.eigvals(ss.A), key=lambda p: (p.real, p.imag))
        want = poles(tf)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)


def test_canonical_realization_of_bundled_models():
    ss = tf_to_ss(ASC_VEL)
    np.testing.assert_allclose(ss.A, [[0.0, 1.0], [-1566.5, -52.0]])
    np.testing.assert_allclose(ss.B, [[0.0], [1.0]])
    np.testing.assert_allclose(ss.C, [[0.09809, 0.0]])
    ss3 = tf_to_ss(ASC_POS)
    assert ss3.order == 3
    np.testing.assert_allclose(ss3.A[-1], [0.0, -1566.5, -52.0])


def test_state_space_validation():
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), [[0.0]])
    with pytest.raises(ValueError):
        StateSpace(
            np.full((2, 2), np.nan), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]]
        )
    ss = tf_to_ss(ASC_VEL)
    with pytest.raises(ValueError):
        ss.A[0, 0] = 5.0  # matrices are frozen


# ---------------------------------------------------------------------------
# ZOH discretization (dual route: lti._expm inside, Pade oracle here)


def test_zoh_first_order_analytic():
    a, b = 3.0, 7.0
    ss = StateSpace([[-a]], [[b]], [[1.0]], [[0.0]])
    dss = discretize_zoh(ss, 0.05)
    np.testing.assert_allclose(dss.Ad, [[math.exp(-a * 0.05)]], rtol=1e-12)
    np.testing.assert_allclose(
        dss.Bd, [[b * (1.0 - math.exp(-a * 0.05)) / a]], rtol=1e-12
    )
    assert dss.ts == 0.05


def test_zoh_matches_independent_pade_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        tf = _random_stable_tf(rng)
        ss = tf_to_ss(tf)
        ts = rng.uniform(1e-3, 0.05)
        dss = discretize_zoh(ss, ts)
        Ad, Bd = _zoh_oracle(ss, ts)
        np.testing.assert_allclose(dss.Ad, Ad, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(dss.Bd, Bd, rtol=1e-10, atol=1e-13)
    for plant in (ASC_VEL, DECL_VEL, ASC_POS, DECL_POS):
        ss = tf_to_ss(plant)
        dss = discretize_zoh(ss, 0.01)
        Ad, Bd = _zoh_oracle(ss, 0.01)
        np.testing.assert_allclose(dss.Ad, Ad, rtol=1e-11, atol=1e-14)
        np.testing.assert_allclose(dss.Bd, Bd, rtol=1e-11, atol=1e-14)


def test_expm_takes_each_pade_degree_and_matches_the_oracle(monkeypatch):
    degrees = []
    pade = lti._pade

    def spy(a, powers, m):
        degrees.append(m)
        return pade(a, powers, m)

    monkeypatch.setattr(lti, "_pade", spy)
    M = np.random.default_rng(0).standard_normal((4, 4))
    M /= np.linalg.norm(M, 1)
    for norm, degree in ((0.002, 3), (0.05, 5), (1.0, 7), (3.0, 9), (30.0, 13)):
        degrees.clear()
        got = lti._expm(norm * M)
        assert degrees == [degree]
        want = _expm_pade(norm * M)
        err = np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)
        assert err <= 64 * np.finfo(float).eps * max(1.0, norm)


def test_expm_of_a_nilpotent_block_is_its_finite_series():
    # ||A|| = 1e6 but A^3 = 0: the degree follows ||A^k||^(1/k), not ||A||,
    # so nothing is scaled and squared away
    A = np.array([[0.0, 1e6, 0.0], [0.0, 0.0, 1e6], [0.0, 0.0, 0.0]])
    assert np.array_equal(lti._expm(A), np.eye(3) + A + A @ A / 2.0)


@pytest.mark.parametrize(
    "den, ts",
    [((1.0, -1e6, 1.0), 0.01), ((1.0, -1e5, 1.0), 0.01),
     ((1.0, 0.0, -1e12, 0.0), 0.004),
     ((1.0, 0.0, -1e90), 0.01),  # scaled by ||A||, this block loses its growth
     ((1.0, -1.7e308), 1.0),  # ||A|| ** (1/k) near the float limit
     ((1.0, 0.0, -1e300), 1e10)],  # the block A ts itself overflows
)
def test_zoh_overflow_raises_the_finite_value_error(den, ts, capfd):
    ss = tf_to_ss(TransferFunction((1.0,), den))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            discretize_zoh(ss, ts)
    assert type(exc.value) is ValueError  # not numpy's LinAlgError subclass
    assert str(exc.value) == "Ad must contain only finite values"
    assert capfd.readouterr() == ("", "")


def test_zoh_eigenvalue_mapping():
    # eigenvalues must map as z = exp(s ts)
    ss = tf_to_ss(DECL_VEL)
    ts = 0.01
    dss = discretize_zoh(ss, ts)
    zc = np.sort_complex(np.linalg.eigvals(ss.A))
    zd = np.sort_complex(np.linalg.eigvals(dss.Ad))
    np.testing.assert_allclose(zd, np.exp(zc * ts), rtol=1e-10)


def test_zoh_rejects_bad_sample_time():
    ss = tf_to_ss(ASC_VEL)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            discretize_zoh(ss, bad)


def test_discrete_state_space_validation():
    with pytest.raises(ValueError):
        DiscreteStateSpace(np.eye(2), np.zeros((1, 1)), np.zeros((1, 2)), [[0.0]], 0.01)
    with pytest.raises(ValueError):
        DiscreteStateSpace(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]], -0.5)


# ---------------------------------------------------------------------------
# Simulation


def test_simulate_first_order_step_matches_closed_form():
    a, b = 4.0, 10.0
    ts = 0.002
    dss = discretize_zoh(StateSpace([[-a]], [[b]], [[1.0]], [[0.0]]), ts)
    n = 2000
    y, x = simulate(dss, np.ones(n))
    t = np.arange(n) * ts
    np.testing.assert_allclose(y, (b / a) * (1.0 - np.exp(-a * t)), rtol=1e-9, atol=1e-12)
    assert x.shape == (n, 1)
    assert y[0] == 0.0  # y[k] reads the state before the update


def test_simulate_step_settles_to_dc_gain():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tf = _random_stable_tf(rng)
        dss = discretize_zoh(tf_to_ss(tf), 0.01)
        slowest = max(p.real for p in poles(tf))
        n = int(25.0 / (abs(slowest) * 0.01)) + 10
        y, _ = simulate(dss, np.ones(n))
        assert y[-1] == pytest.approx(dc_gain(tf), rel=1e-6)


def test_simulate_is_linear_in_the_input():
    dss = discretize_zoh(tf_to_ss(ASC_VEL), 0.01)
    rng = np.random.default_rng(5)
    u1 = rng.normal(size=300)
    u2 = rng.normal(size=300)
    y1, _ = simulate(dss, u1)
    y2, _ = simulate(dss, u2)
    y12, _ = simulate(dss, 2.0 * u1 - 3.0 * u2)
    np.testing.assert_allclose(y12, 2.0 * y1 - 3.0 * y2, rtol=1e-9, atol=1e-12)


def test_simulate_honours_initial_state():
    dss = discretize_zoh(tf_to_ss(ASC_VEL), 0.01)
    y, x = simulate(dss, np.zeros(50), x0=[1.0, -2.0])
    np.testing.assert_allclose(x[0], [1.0, -2.0])
    assert y[0] == pytest.approx(0.09809 * 1.0)
    assert abs(y[-1]) < abs(y[0])  # stable decay


_SIM_PLANTS = [
    ASC_VEL,
    ASC_POS,
    TransferFunction([2.0, 1.0, 3.0], [1.0, 2.0, 5.0]),  # biproper: D = 2
    TransferFunction([1.0], [1.0, 4.0]),
]


@settings(deadline=None, max_examples=60)
@given(
    plant=st.sampled_from(_SIM_PLANTS),
    ts=st.floats(1e-3, 1e-2),
    u=st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=200),
    x0_scale=st.floats(-10.0, 10.0),
)
def test_simulate_sums_left_to_right_bit_for_bit(plant, ts, u, x0_scale):
    dss = discretize_zoh(tf_to_ss(plant), ts)
    a, b, c = dss.Ad.tolist(), dss.Bd[:, 0].tolist(), dss.C[0].tolist()
    d = float(dss.D[0, 0])
    x0 = [x0_scale * (j + 1) for j in range(dss.order)]

    def left_to_right(coeffs, values):
        acc = coeffs[0] * values[0]
        for cj, vj in zip(coeffs[1:], values[1:]):
            acc += cj * vj
        return acc

    x, ys, xs = x0, [], []
    for uk in u:
        xs.append(x)
        ys.append(left_to_right(c, x) + d * uk)
        x = [left_to_right(row + [bi], x + [uk]) for row, bi in zip(a, b)]
    y, states = simulate(dss, np.array(u), x0=x0)
    assert y.tobytes() == np.array(ys).tobytes()
    assert states.tobytes() == np.array(xs).tobytes()


@st.composite
def _closed_form_steps(draw):
    """(plant, ts, slowest pole magnitude, its unit-step response y(t)): a
    first-order b/(s + a) or a second-order b/(s^2 + a1 s + a0) with real
    poles at least 1.5 times apart, a repeated pole or a complex pair, every
    pole real part 0.5 to 300 rad/s in magnitude, no pole past about 600
    rad/s, and ts of 1 to 10 ms."""
    ts = draw(st.floats(1e-3, 1e-2))
    b = draw(st.floats(0.01, 100.0)) * draw(st.sampled_from([1.0, -1.0]))
    slow = draw(st.floats(0.5, 300.0))
    kind = draw(st.sampled_from(["first", "real", "repeated", "complex"]))
    if kind == "first":
        return TransferFunction((b,), (1.0, slow)), ts, slow, (
            lambda t: b / slow * -np.expm1(-slow * t))
    p1 = -slow
    if kind == "real":
        p2 = p1 * draw(st.floats(1.5, max(1.5, 500.0 / slow)))
        return TransferFunction((b,), (1.0, -(p1 + p2), p1 * p2)), ts, slow, (
            lambda t: b * (1.0 / (p1 * p2) + np.exp(p1 * t) / (p1 * (p1 - p2))
                           + np.exp(p2 * t) / (p2 * (p2 - p1))))
    if kind == "repeated":
        return TransferFunction((b,), (1.0, -2.0 * p1, p1 * p1)), ts, slow, (
            lambda t: b / (p1 * p1) * (1.0 - np.exp(p1 * t) + p1 * t * np.exp(p1 * t)))
    w = draw(st.floats(0.1, 400.0))
    a0 = p1 * p1 + w * w
    return TransferFunction((b,), (1.0, -2.0 * p1, a0)), ts, slow, (
        lambda t: b / a0 * (1.0 - np.exp(p1 * t) * (np.cos(w * t)
                                                    - p1 / w * np.sin(w * t))))


@settings(deadline=None, max_examples=200)
@given(case=_closed_form_steps())
def test_simulate_matches_closed_form_first_and_second_order_steps(case):
    # simulate on discretize_zoh's model against the exact step response at
    # the sample times, over 8 time constants of the slowest pole (at most
    # 20 000 samples). Each sample carries rounding of a few ulps of the
    # response's peak, and the slowest mode, decaying by |p| ts per sample,
    # keeps the error of its discrete pole and of each step's rounding for
    # about 1 / (|p| ts) samples. So the bound is 64 eps (1 + 1 / (|p| ts))
    # of the peak: over this pole range and ts, 1.7e-14 to 2.8e-11 of it.
    # 8 000 draws read at most 18.5 eps (1 + 1 / (|p| ts)).
    plant, ts, slow, exact = case
    n = min(int(8.0 / (slow * ts)) + 2, 20_000)
    y, _ = simulate(discretize_zoh(tf_to_ss(plant), ts), np.ones(n))
    ref = exact(np.arange(n) * ts)
    bound = 64.0 * np.finfo(float).eps * (1.0 + 1.0 / (slow * ts))
    assert np.max(np.abs(y - ref)) <= bound * np.max(np.abs(ref))


def test_simulate_input_validation():
    dss = discretize_zoh(tf_to_ss(ASC_VEL), 0.01)
    with pytest.raises(ValueError):
        simulate(dss, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        simulate(dss, np.array([]))
    with pytest.raises(ValueError):
        simulate(dss, np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        simulate(dss, np.zeros(5), x0=[1.0])


# ---------------------------------------------------------------------------
# Classification helpers


def test_system_type_of_bundled_models():
    assert system_type(ASC_VEL) == 0
    assert system_type(DECL_VEL) == 0
    assert system_type(ASC_POS) == 1
    assert system_type(DECL_POS) == 1


def test_system_type_counts_origin_poles():
    assert system_type(TransferFunction((1.0,), (1.0, 0.0, 0.0))) == 2
    assert system_type(TransferFunction((1.0,), (1.0, 2.0, 0.0))) == 1
    # a tiny trailing coefficient relative to the largest counts as zero
    assert system_type(TransferFunction((1.0,), (1.0, 1e6, 1e-9))) == 1


def test_poles_factor_origin_exactly():
    ps = poles(ASC_POS)
    assert ps[-1] == 0.0 + 0.0j  # exact, not numerical dust
    np.testing.assert_allclose(
        [ps[0], ps[1]],
        [complex(-26.0, -math.sqrt(890.5)), complex(-26.0, math.sqrt(890.5))],
        rtol=1e-12,
    )


def test_poles_sorted_and_complete():
    tf = TransferFunction((1.0,), (1.0, 6.0, 11.0, 6.0))  # (s+1)(s+2)(s+3)
    np.testing.assert_allclose(poles(tf), [-3.0, -2.0, -1.0], rtol=1e-9)


def test_dc_gain_exact_values():
    assert dc_gain(ASC_VEL) == 0.09809 / 1566.5
    assert dc_gain(DECL_VEL) == 0.1267 / 2018.0
    assert dc_gain(ASC_POS) == math.inf
    assert dc_gain(DECL_POS) == math.inf
    with pytest.raises(ValueError, match="indeterminate"):
        dc_gain(TransferFunction((1.0, 0.0), (1.0, 2.0, 0.0)))


def test_is_bibo_stable():
    assert is_bibo_stable(ASC_VEL)
    assert is_bibo_stable(DECL_VEL)
    assert not is_bibo_stable(ASC_POS)  # integrator on the boundary
    assert not is_bibo_stable(TransferFunction((1.0,), (1.0, -1.0)))


def test_second_order_character_of_bundled_models():
    ch = second_order_character(ASC_VEL)
    assert ch.wn == pytest.approx(39.5790348543266, rel=1e-12)
    assert ch.zeta == pytest.approx(0.6569134415655867, rel=1e-12)
    ch = second_order_character(DECL_VEL)
    assert ch.wn == pytest.approx(44.9221548904324, rel=1e-12)
    assert ch.zeta == pytest.approx(0.3864462878582292, rel=1e-12)


def test_second_order_character_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(20):
        wn = rng.uniform(0.5, 80.0)
        zeta = rng.uniform(-0.5, 1.5)
        tf = TransferFunction((1.0,), (1.0, 2.0 * zeta * wn, wn * wn))
        ch = second_order_character(tf)
        assert ch.wn == pytest.approx(wn, rel=1e-12)
        assert ch.zeta == pytest.approx(zeta, rel=1e-10, abs=1e-12)


def test_second_order_character_rejections():
    with pytest.raises(ValueError):
        second_order_character(TransferFunction((1.0,), (1.0, 1.0)))
    with pytest.raises(ValueError):
        second_order_character(TransferFunction((1.0,), (1.0, 1.0, -4.0)))
