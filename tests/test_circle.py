"""Circle map, angular lift, rotation estimates, rational snapping."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlin import (
    Params,
    lift_displacement,
    rotation_number,
    s_step,
    snap_rational,
)
from pwlin.circle import RotationEstimate, angle_of

from conftest import A_SPECIAL, A_SPECIAL_ROTATION


def test_s_step_boundary_directions():
    assert s_step(Params(0.3, -0.9), (0.0, 1.0)) == (-1.0, 0.0)


def test_s_step_quarter_rotation():
    rng = random.Random(5)
    p = Params(0.0, 0.0)
    for _ in range(200):
        t = rng.uniform(0, 2 * math.pi)
        u = (math.cos(t), math.sin(t))
        v = s_step(p, u)
        assert math.hypot(v[0] + u[1], v[1] - u[0]) <= 1e-12


def test_s_step_output_norm():
    rng = random.Random(6)
    p = Params(2.3, -1.7)
    for _ in range(10_000):
        t = rng.uniform(0, 2 * math.pi)
        u = (math.cos(t), math.sin(t))
        v = s_step(p, u)
        assert abs(math.hypot(*v) - 1.0) <= 1e-14


def test_lift_boundary_values_exact():
    for params in (Params(0.0, 0.0), Params(1.7, -2.9), Params(-1.0, 3.0)):
        assert lift_displacement(params, (0.0, 1.0)) == math.pi / 2
        assert lift_displacement(params, (0.0, -1.0)) == math.pi / 2


def test_lift_quarter_rotation():
    rng = random.Random(7)
    p = Params(0.0, 0.0)
    for _ in range(200):
        t = rng.uniform(0, 2 * math.pi)
        d = lift_displacement(p, (math.cos(t), math.sin(t)))
        assert abs(d - math.pi / 2) <= 1e-12


def test_lift_window():
    # strictly inside (-pi/2, 3pi/2) for generic directions; the closed
    # left end is attained only by the exact vertical directions
    rng = random.Random(8)
    for _ in range(100_000):
        p = Params(rng.uniform(-4, 4), rng.uniform(-4, 4))
        t = rng.uniform(0, 2 * math.pi)
        d = lift_displacement(p, (math.cos(t), math.sin(t)))
        assert -math.pi / 2 < d < 1.5 * math.pi


def test_rotation_pure_rotation_exact():
    est = rotation_number(Params(0.0, 0.0), (1.0, 0.0), 1000)
    assert est.value == 0.25
    assert est.error_bound == 0.001


def test_rotation_period_six():
    # direct oracle: the slope-1 cocycle factor has order 6
    m = np.array([[1.0, -1.0], [1.0, 0.0]])
    assert np.allclose(np.linalg.matrix_power(m, 6), np.eye(2), atol=1e-15)
    est = rotation_number(Params(1.0, 1.0), (1.0, 0.0), 10_000)
    assert abs(est.value - 1.0 / 6.0) <= est.error_bound


def test_rotation_matches_closed_form_special_point():
    est = rotation_number(Params(A_SPECIAL, -A_SPECIAL), (1.0, 0.0), 200_000)
    assert abs(est.value - A_SPECIAL_ROTATION) <= 2.0 / est.steps


def test_rotation_two_starts_agree():
    rng = random.Random(12)
    n = 2000
    for _ in range(100):
        p = Params(rng.uniform(-3, 3), rng.uniform(-3, 3))
        t1, t2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        e1 = rotation_number(p, (math.cos(t1), math.sin(t1)), n)
        e2 = rotation_number(p, (math.cos(t2), math.sin(t2)), n)
        assert abs(e1.value - e2.value) <= 2.0 / n + 1e-12


def test_rotation_range():
    rng = random.Random(13)
    n = 2000
    for _ in range(200):
        p = Params(rng.uniform(-3, 3), rng.uniform(-3, 3))
        est = rotation_number(p, (1.0, 0.0), n)
        assert -1.0 / n <= est.value <= 0.5 + 1.0 / n


def test_orientation_preserved():
    rng = random.Random(14)

    def cyclic_order(u, v, w):
        a, b, c = angle_of(u), angle_of(v), angle_of(w)
        return ((b - a) % (2 * math.pi)) < ((c - a) % (2 * math.pi))

    for _ in range(300):
        p = Params(rng.uniform(-3, 3), rng.uniform(-3, 3))
        pts = []
        while len(pts) < 3:
            t = rng.uniform(0, 2 * math.pi)
            if all(abs(t - angle_of(q)) > 1e-6 for q in pts):
                pts.append((math.cos(t), math.sin(t)))
        before = cyclic_order(*pts)
        after = cyclic_order(*(s_step(p, u) for u in pts))
        assert before == after


def test_snap_quarter():
    est = RotationEstimate(0.25, 1000, 1e-3)
    assert snap_rational(est, 256) == Fraction(1, 4)


def test_snap_fifth():
    est = RotationEstimate(0.2000003, 10**6, 1e-6)
    assert snap_rational(est, 256) == Fraction(1, 5)


def test_snap_rejects_zero_over_one():
    # 0.25 is far from 0/1; the convergent scan must not stop there
    est = RotationEstimate(0.25, 1000, 1e-3)
    snap = snap_rational(est, 1)
    assert snap is None


def test_snap_none_for_irrational_special_point():
    # brute-force oracle: no p/q with q <= 50 lies within 2e-6
    value = A_SPECIAL_ROTATION
    best = min(abs(value - p / q)
               for q in range(1, 51) for p in range(0, q + 1))
    assert best > 2e-6
    est = RotationEstimate(value, 10**6, 1e-6)
    assert snap_rational(est, 50) is None


def test_snap_requires_enough_steps():
    # denominator resolution is limited by the run length: q^2 <= N/4
    est = RotationEstimate(0.2, 128, 1.0 / 128)
    assert snap_rational(est, 256) == Fraction(1, 5)
    est_short = RotationEstimate(0.2, 64, 1.0 / 64)
    assert snap_rational(est_short, 256) is None  # 5^2 > 64/4
    est_23 = RotationEstimate(1.0 / 23.0, 1000, 1e-3)
    assert snap_rational(est_23, 256) is None  # 23^2 > 250


def test_rotation_mpf_backend():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(120):
        p = Params(mpmath.mpf(0), mpmath.mpf(0))
        est = rotation_number(p, (mpmath.mpf(1), mpmath.mpf(0)), 100)
        assert abs(est.value - mpmath.mpf("0.25")) < mpmath.mpf(2) ** -100


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
       st.floats(0.0, 2 * math.pi), st.integers(1, 2000))
def test_rotation_estimate_within_bound_of_range(a, b, theta, steps):
    # the rotation number lies in [0, 1/2]; the float estimate is
    # within its 1/N error bound of it
    est = rotation_number(Params(a, b), (math.cos(theta), math.sin(theta)),
                          steps)
    assert -est.error_bound <= est.value <= 0.5 + est.error_bound
