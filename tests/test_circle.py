"""Circle map, angular lift, rotation estimates, rational snapping."""
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlin import (
    Params,
    rotation_number,
    snap_rational,
    step,
)
from pwlin import FamilyId, closed_rotation, family_b
from pwlin.circle import (ROTATION_BLOCK, RotationEstimate, angle_of,
                          normalize, rotation_brackets)
from pwlin.core import rescale_chunk
from pwlin.errors import ArgumentError, DomainError

import oracles
from conftest import A_SPECIAL, A_SPECIAL_ROTATION, B_SPECIAL, C_SPECIAL


def test_s_step_boundary_directions():
    assert normalize(step(Params(0.3, -0.9), (0.0, 1.0))) == (-1.0, 0.0)


def test_s_step_quarter_rotation():
    rng = random.Random(5)
    p = Params(0.0, 0.0)
    for _ in range(200):
        t = rng.uniform(0, 2 * math.pi)
        u = (math.cos(t), math.sin(t))
        v = normalize(step(p, u))
        assert math.hypot(v[0] + u[1], v[1] - u[0]) <= 1e-12


def test_s_step_output_norm():
    rng = random.Random(6)
    p = Params(2.3, -1.7)
    for _ in range(10_000):
        t = rng.uniform(0, 2 * math.pi)
        u = (math.cos(t), math.sin(t))
        v = normalize(step(p, u))
        assert abs(math.hypot(*v) - 1.0) <= 1e-14


def _winding_increment(params, u):
    """Lift increment of one step by the winding identity: the atan2
    difference, plus a full turn exactly when ``u[0] < 0 <= u[1]``."""
    v = step(params, u)
    d = math.atan2(v[1], v[0]) - math.atan2(u[1], u[0])
    return d + 2 * math.pi if u[0] < 0 <= u[1] else d


def test_lift_boundary_values_exact():
    for params in (Params(0.0, 0.0), Params(1.7, -2.9), Params(-1.0, 3.0)):
        assert _winding_increment(params, (0.0, 1.0)) == math.pi / 2
        assert _winding_increment(params, (0.0, -1.0)) == math.pi / 2


def test_lift_quarter_rotation():
    rng = random.Random(7)
    p = Params(0.0, 0.0)
    for _ in range(200):
        t = rng.uniform(0, 2 * math.pi)
        d = _winding_increment(p, (math.cos(t), math.sin(t)))
        assert abs(d - math.pi / 2) <= 1e-12


def test_lift_window():
    # the winding identity's increment lies strictly inside
    # (-pi/2, 3pi/2): no step needs a turn taken off, and the turn added
    # at x < 0 <= y is the only one needed
    rng = random.Random(8)
    for _ in range(100_000):
        p = Params(rng.uniform(-4, 4), rng.uniform(-4, 4))
        t = rng.uniform(0, 2 * math.pi)
        d = _winding_increment(p, (math.cos(t), math.sin(t)))
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
        after = cyclic_order(*(step(p, u) for u in pts))
        assert before == after


def test_snap_quarter():
    est = RotationEstimate(0.25, 1000)
    assert snap_rational(est, 256) == Fraction(1, 4)


def test_snap_fifth():
    est = RotationEstimate(0.2000003, 10**6)
    assert snap_rational(est, 256) == Fraction(1, 5)


def test_snap_rejects_zero_over_one():
    # 0.25 is far from 0/1; the convergent scan must not stop there
    est = RotationEstimate(0.25, 1000)
    snap = snap_rational(est, 1)
    assert snap is None


def test_snap_none_for_irrational_special_point():
    # brute-force oracle: no p/q with q <= 50 lies within 2e-6
    value = A_SPECIAL_ROTATION
    best = min(abs(value - p / q)
               for q in range(1, 51) for p in range(0, q + 1))
    assert best > 2e-6
    est = RotationEstimate(value, 10**6)
    assert snap_rational(est, 50) is None


def test_snap_requires_enough_steps():
    # denominator resolution is limited by the run length: q^2 <= N/4
    est = RotationEstimate(0.2, 128)
    assert snap_rational(est, 256) == Fraction(1, 5)
    est_short = RotationEstimate(0.2, 64)
    assert snap_rational(est_short, 256) is None  # 5^2 > 64/4
    est_23 = RotationEstimate(1.0 / 23.0, 1000)
    assert snap_rational(est_23, 256) is None  # 23^2 > 250


def test_error_bound_is_one_over_steps():
    assert RotationEstimate(0.2, 128).error_bound == 1 / 128
    # snap is keyword-only: a third positional argument is not taken
    # for it
    with pytest.raises(TypeError):
        RotationEstimate(0.2, 128, 1 / 128)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_snap_none_for_non_finite_estimate(value):
    # a non-finite estimate has no continued fraction to scan
    assert snap_rational(RotationEstimate(value, 10**4), 256) is None


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


# ------------------- chunked float kernel against the per-step loop -------------------

def _reference_rotation_float(a, b, x, y, steps):
    """The per-step float loop ``rotation_number`` ran before the chunked
    walker: the oracle it must reproduce bit for bit."""
    atan2 = math.atan2
    two_pi = 2.0 * math.pi
    half_pi = 0.5 * math.pi
    three_half_pi = 1.5 * math.pi
    prev = atan2(y, x)
    total = 0.0
    for _ in range(steps):
        x, y = (a * x - y, x) if x >= 0.0 else (b * x - y, x)
        ax = x if x >= 0.0 else -x
        ay = y if y >= 0.0 else -y
        m = ax if ax > ay else ay
        if m > 1e150:
            x *= 2.0 ** -512
            y *= 2.0 ** -512
        elif m < 1e-150:
            x *= 2.0 ** 512
            y *= 2.0 ** 512
        t = atan2(y, x)
        d = t - prev
        if d < -half_pi:
            d += two_pi
        elif d >= three_half_pi:
            d -= two_pi
        total += d / two_pi
        prev = t
    return total / steps


def _same_float(u, v):
    return (math.isnan(u) and math.isnan(v)) or (
        u == v and math.copysign(1.0, u) == math.copysign(1.0, v))


_STEEP = 2.0 ** 399
_kernel_slopes = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e120, 1e120),
    st.sampled_from([0.0, -0.0, 1e-300, -5e-324, 3e5, 1e100, 1e110,
                     math.nextafter(_STEEP, 0.0), -math.nextafter(_STEEP, 0.0),
                     _STEEP, -_STEEP, 1e200]))
_kernel_starts = st.one_of(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.tuples(st.sampled_from([0.0, -0.0, 1.0, 1e-300, -1e-300, 1e200]),
              st.sampled_from([0.0, -0.0, -1.0, 1e-300, 1e200, -1e200])))


@given(_kernel_slopes, _kernel_slopes, _kernel_starts,
       st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]))
def test_rotation_float_kernel_matches_per_step_loop(a, b, start, seam):
    # steps at 1 and at the walker's chunk seams: chunk - 1, chunk,
    # chunk + 1 and 2 * chunk + 1 (slopes no chunk covers walk one-step
    # chunks, and a short run of them will do).  The per-step loop is
    # the oracle for a zero start, and for chunkable slopes and a start
    # in its band [1e-150, 1e150]; elsewhere it can lose bits, or
    # overflow to nan, and the 200-bit value is the oracle, within 2/N.
    chunks, offset = seam
    chunk = rescale_chunk((a, b), ROTATION_BLOCK)
    steps = max(1, chunks * (chunk or 3) + offset)
    got = rotation_number(Params(a, b), start, steps).value
    norm = max(map(abs, start))
    if norm == 0.0 or chunk and 1e-150 <= norm <= 1e150:
        want = _reference_rotation_float(a, b, *start, steps)
        assert _same_float(got, want), (a, b, start, steps, got, want)
    else:
        want = _mp_rotation(a, b, start, steps)
        assert abs(got - want) <= 2.0 / steps, (a, b, start, steps, got, want)


@pytest.mark.parametrize("a", [A_SPECIAL, B_SPECIAL, C_SPECIAL])
@pytest.mark.parametrize("start", [(1.0, 0.0), (0.0, 1.0)])
def test_rotation_special_points_bit_identical(a, start):
    est = rotation_number(Params(a, -a), start, 200_000)
    assert est.value == _reference_rotation_float(a, -a, *start, 200_000)


# (a, b, chunk): odd and even chunks on curves A and B, and slopes that
# rescale_chunk rejects, walked in one-step chunks
_FUSED_CHUNKS = [(1.2, family_b(FamilyId.EX_A, 1.2), 331),
                 (0.5, family_b(FamilyId.EX_B, 0.5), 400),
                 (2.0 ** 399, -0.5, 1), (-0.5, -2.0 ** 399, 1),
                 (2.0 ** 399, 1.0, 1)]


@pytest.mark.parametrize("a, b, chunk", _FUSED_CHUNKS)
@pytest.mark.parametrize("start", [(1.0, 0.0), (-0.3, 0.8), (0.6, -0.9),
                                   (-1.1, -0.2), (0.05, 1.3), (2.0, 0.7)])
def test_rotation_float_two_step_loop_at_chunk_seams(a, b, chunk, start):
    # the float walk steps two at a time with an odd-step tail: step
    # counts of either parity at and around the chunk seams take the
    # pair loop and the tail in every order, bit for bit
    assert (rescale_chunk((a, b), ROTATION_BLOCK) or 1) == chunk
    seams = {1, 2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1} - {0}
    for steps in sorted(seams):
        got = rotation_number(Params(a, b), start, steps).value
        want = _reference_rotation_float(a, b, *start, steps)
        assert _same_float(got, want), (a, b, start, steps, got, want)


@pytest.mark.parametrize("a, b", [(math.inf, -1.2), (1.2, -math.inf),
                                  (math.nan, 0.5), (0.5, math.nan),
                                  (math.inf, math.inf)])
@pytest.mark.parametrize("steps", [1, 5, ROTATION_BLOCK + 1])
def test_rotation_non_finite_slopes(a, b, steps):
    for start in ((1.0, 0.0), (-0.3, 0.8)):
        with pytest.raises(DomainError, match="slopes must be finite"):
            rotation_number(Params(a, b), start, steps)


@pytest.mark.parametrize("steps", [ROTATION_BLOCK - 1, ROTATION_BLOCK,
                                   ROTATION_BLOCK + 1, 3 * ROTATION_BLOCK + 7])
@pytest.mark.parametrize("start", [(1.0, 0.0), (5e-324, 0.0), (1e-300, 1e-300),
                                   (1e300, -1e300), (0.0, 0.0),
                                   (math.inf, 0.0)])
def test_rotation_block_seams_and_extreme_starts(steps, start):
    # the per-step loop rounds the first steps from a subnormal start,
    # which the walk rescales exactly: the mpmath value is the oracle
    a, b = 1.7, -0.4
    got = rotation_number(Params(a, b), start, steps).value
    if start == (5e-324, 0.0):
        assert abs(got - _mp_rotation(a, b, start, steps)) <= 1e-14
    else:
        assert _same_float(got, _reference_rotation_float(a, b, *start,
                                                          steps))


def _mp_rotation(a, b, start, steps, prec=200):
    """The ``prec``-bit mpmath ``rotation_number`` of the float inputs:
    the oracle where the float per-step loop loses bits."""
    with mpmath.workprec(prec):
        mpf = mpmath.mpf
        params = Params(mpf(a), mpf(b))
        return float(rotation_number(params, (mpf(start[0]), mpf(start[1])),
                                     steps).value)


@pytest.mark.parametrize("steps", [1, 2, ROTATION_BLOCK + 1])
@pytest.mark.parametrize("start", [(5e-324, 0.0), (-5e-324, 5e-324),
                                   (1e-300, -3e-310), (1e300, 1e300),
                                   (-1e300, 2e-300), (1.7e308, -1.7e308)])
def test_rotation_extreme_starts_against_mp(steps, start):
    # a subnormal or huge start is rescaled exactly before the first
    # step; the per-step loop lost bits at (5e-324, 0)
    a, b = 1.7, -0.4
    got = rotation_number(Params(a, b), start, steps).value
    assert abs(got - _mp_rotation(a, b, start, steps)) <= 1e-12


@pytest.mark.parametrize("a, b", [(1e200, -1.0), (2.0 ** 399, -0.5),
                                  (1e300, 1e300), (-1e250, 3.0)])
def test_rotation_steep_slopes_match_mp(a, b):
    # the per-step loop overflowed to nan at the first and third pair;
    # one-step rescaled chunks follow the exact orbit's directions
    got = rotation_number(Params(a, b), (1.0, 0.0), 5000).value
    assert math.isfinite(got)
    assert got == _mp_rotation(a, b, (1.0, 0.0), 5000)


_steep = st.floats(2.0 ** 399, 1e300)
_moderate = st.floats(0.5, 3.0)


@settings(max_examples=40, deadline=None)
@given(_steep, st.one_of(_steep, _moderate), st.sampled_from([1, -1]),
       st.sampled_from([1, -1]), st.booleans(), st.integers(1, 3000))
def test_rotation_steep_slopes_within_2_over_n_of_mp(s, t, sign_s, sign_t,
                                                      swap, steps):
    # (a tiny second slope can put the float orbit exactly on the axis
    # where the exact one just misses it, so it is kept moderate)
    s, t = sign_s * s, sign_t * t
    a, b = (t, s) if swap else (s, t)
    got = rotation_number(Params(a, b), (1.0, 0.0), steps).value
    assert abs(got - _mp_rotation(a, b, (1.0, 0.0), steps)) <= 2.0 / steps


_finite = st.one_of(st.floats(-1.7e308, 1.7e308),
                    st.sampled_from([1.7e308, -1.7e308, 1e200, -1e300, 0.0,
                                     5e-324, 1.5]))


@settings(max_examples=60, deadline=None)
@given(_finite, _finite,
       st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                 st.floats(allow_nan=False, allow_infinity=False)).filter(
                     lambda p: p != (0.0, 0.0)),
       st.integers(1, 2000))
def test_rotation_estimate_finite_for_finite_inputs(a, b, start, steps):
    # one step from a max-norm below 1 stays finite, whatever the slopes
    assert math.isfinite(rotation_number(Params(a, b), start, steps).value)


# ------------------- extended precision: the winding identity -------------------

def _reference_rotation_mp(a, b, x, y, checkpoints):
    """The per-step mpmath loop ``rotation_number`` ran before the
    winding identity, with its wrap count kept: (value, wraps) after
    each of ``checkpoints`` steps, from one walk."""
    mm = mpmath
    two_pi = 2 * mm.pi
    half_pi = mm.pi / 2
    three_half_pi = 3 * half_pi
    prev = mm.atan2(y, x)
    total = prev * 0
    wraps = 0
    out = {}
    for k in range(1, max(checkpoints) + 1):
        x, y = (a * x - y, x) if x >= 0 else (b * x - y, x)
        t = mm.atan2(y, x)
        d = t - prev
        if d < -half_pi:
            d += two_pi
            wraps += 1
        elif d >= three_half_pi:
            d -= two_pi
            wraps -= 1
        total += d / two_pi
        prev = t
        if k in checkpoints:
            out[k] = (total / k, wraps)
    return out


def _winding_from_word(word, y0):
    """Steps from x < 0 <= y, read off the sign word."""
    return word.count("+-") + (word[:1] == "-" and y0 >= 0)


def _pool_like_points():
    from pwlin import FamilyId, family_b

    rng = random.Random(7)
    out = []
    for fam, lo, hi in ((FamilyId.EX_A, 1.02, 1.40), (FamilyId.EX_B, 0.02, 0.98)):
        for i in range(10):
            a = round(lo + (hi - lo) * (i + rng.random()) / 10, 6)
            out.append((a, family_b(fam, a)))
    return out


_MP_POINTS = ([(v, -v) for v in (A_SPECIAL, B_SPECIAL, C_SPECIAL)]
              + [(0.0, 0.0)] + _pool_like_points())
_MP_STEPS = (1, 2, 3, 4, 1000, 10_000)


@pytest.mark.parametrize("prec", [113, 200])
@pytest.mark.parametrize("a, b", _MP_POINTS)
def test_rotation_mp_winding_identity(prec, a, b):
    from pwlin.core import mpf_pair, walk_mpf

    before = mpmath.mp.prec
    with mpmath.workprec(prec):
        mpf = mpmath.mpf
        params = Params(mpf(a), mpf(b))
        u0 = (mpf(1), mpf(0))
        want = _reference_rotation_mp(params.a, params.b, *u0, _MP_STEPS)
        chain = walk_mpf(*map(mpf_pair, (params.a, params.b, *u0)),
                         max(_MP_STEPS), prec)
        for n in _MP_STEPS:
            old, wraps = want[n]
            word = "".join("-" if v[0] < 0 else "+" for v in chain[1:n + 1])
            assert _winding_from_word(word, u0[1]) == wraps, n
            est = rotation_number(params, u0, n)
            assert isinstance(est.value, mpmath.mpf)
            assert abs(est.value - old) <= n * mpf(2) ** (1 - prec), n
            old_est = RotationEstimate(old, n)
            assert snap_rational(est, 256) == snap_rational(old_est, 256)
            assert mpmath.mp.prec == prec
    assert mpmath.mp.prec == before


@pytest.mark.parametrize("start", [
    (Fraction(1), Fraction(0)), (Fraction(-1, 3), Fraction(2, 7))])
def test_rotation_fraction_takes_generic_loop(monkeypatch, start):
    import pwlin.circle as circle_mod

    def no_walker(*args):
        raise AssertionError("the mpf walker ran")

    monkeypatch.setattr(circle_mod, "walk_mpf", no_walker)
    params = Params(Fraction(6, 5), Fraction(-3, 2))
    steps = (1, 2, 5, 40)
    want = _reference_rotation_mp(params.a, params.b, *start, steps)
    for n in steps:
        got = rotation_number(params, start, n).value
        assert abs(got - want[n][0]) <= n * 2.0 ** (1 - mpmath.mp.prec)


@pytest.mark.parametrize("start", [("nan", "0"), ("0", "nan"), ("inf", "0"),
                                   ("-inf", "0"), ("1", "-inf"), ("1", "0")])
@pytest.mark.parametrize("slopes", [("1", "-1"), ("0", "2"), ("3", "inf"),
                                    ("inf", "-1"), ("nan", "-1")])
def test_rotation_non_finite_mpf_takes_generic_loop(monkeypatch, start, slopes):
    # a non-finite slope is refused, even one the orbit never uses
    # (slope 3 keeps the orbit of (1, 0) off the inf slope); otherwise
    # nan when the orbit passes through a non-finite point, else the
    # estimate
    import pwlin.circle as circle_mod

    def no_walker(*args):
        raise AssertionError("the mpf walker ran")

    monkeypatch.setattr(circle_mod, "walk_mpf", no_walker)
    mpf = mpmath.mpf
    params = Params(*map(mpf, slopes))
    u0 = tuple(map(mpf, start))
    if not (mpmath.isfinite(params.a) and mpmath.isfinite(params.b)):
        with pytest.raises(DomainError, match="slopes must be finite"):
            rotation_number(params, u0, 1)
        return
    if all(map(mpmath.isfinite, u0)):
        return  # finite inputs take the walker
    want = _reference_rotation_mp(params.a, params.b, *u0, (1, 2, 3))
    x, y = u0
    finite = mpmath.isfinite(x) and mpmath.isfinite(y)
    for n in (1, 2, 3):
        x, y = (params.a * x - y, x) if x >= 0 else (params.b * x - y, x)
        finite = finite and mpmath.isfinite(x)
        got = rotation_number(params, u0, n).value
        if finite:
            assert abs(got - want[n][0]) <= n * mpf(2) ** (1 - mpmath.mp.prec)
        else:
            assert mpmath.isnan(got)


def _float_winding_value(params, u0, steps):
    """(W + (atan2(y_N, x_N) - atan2(y_0, x_0)) / 2*pi) / N from the
    float sign word of ``iterate``; None when the orbit overflows."""
    from pwlin import iterate
    from pwlin.errors import OrbitOverflowError

    try:
        orbit, word = iterate(params, u0, steps)
    except OrbitOverflowError:
        return None
    (x0, y0), (xn, yn) = orbit[0], orbit[-1]
    delta = math.atan2(yn, xn) - math.atan2(y0, x0)
    return (_winding_from_word(word, y0) + delta / (2 * math.pi)) / steps


_no_neg_zero = st.one_of(st.just(0.0), st.floats(1e-6, 1e6),
                         st.floats(-1e6, -1e-6))


@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
       st.tuples(_no_neg_zero, _no_neg_zero).filter(lambda p: p != (0.0, 0.0)),
       st.integers(1, 2000))
def test_rotation_float_winding_identity(a, b, start, steps):
    # an oracle for the float path that does not share its code: the
    # winding count of iterate's sign word and two angles (a -0.0 start
    # component can shift the count by one step, so none is drawn)
    want = _float_winding_value(Params(a, b), start, steps)
    if want is None:
        return
    got = rotation_number(Params(a, b), start, steps).value
    assert abs(got - want) <= 1e-12, (a, b, start, steps, got, want)


# ------------------- sign-count rotation brackets -------------------

_bracket_slopes = st.one_of(
    st.floats(-3.0, 3.0), st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, A_SPECIAL, -A_SPECIAL]))


@settings(max_examples=60, deadline=None)
@given(_bracket_slopes, _bracket_slopes, st.sampled_from([1, 2, 3, 1500]))
def test_brackets_match_per_step_oracle(a, b, chunks):
    # every yielded bracket is the per-step Fraction loop's at that step:
    # the chunked walk's rescales leave the signs as they were
    params = Params(a, b)
    chunk = rescale_chunk((a, b), ROTATION_BLOCK)
    steps = min(chunks * chunk, 3000)
    want = oracles.rotation_brackets(params, steps)
    got = list(rotation_brackets(params, steps))
    assert [n for n, _, _ in got] == list(range(chunk, steps, chunk)) + [steps]
    for n, lower, upper in got:
        assert (lower, upper) == want[n - 1]
        assert lower <= upper


@pytest.mark.parametrize("a, b", [(math.inf, -1.2), (1.2, math.nan),
                                  (2.0 ** 399, 1.0), (1e200, -1.0),
                                  (-1e250, 3.0), (1e300, 1e300),
                                  (-0.5, -2.0 ** 399)])
def test_brackets_need_a_chunk(a, b):
    # slopes rescale_chunk rejects: non-finite ones are refused, steep
    # ones walk one-step chunks, with a bracket after every step that
    # holds the 200-bit value
    if not (math.isfinite(a) and math.isfinite(b)):
        with pytest.raises(DomainError, match="slopes must be finite"):
            next(rotation_brackets(Params(a, b), 100))
        return
    got = list(rotation_brackets(Params(a, b), 100))
    assert [n for n, _, _ in got] == list(range(1, 101))
    _, lower, upper = got[-1]
    assert lower <= upper
    with mpmath.workprec(200):
        mpf = mpmath.mpf
        rho = rotation_number(Params(mpf(a), mpf(b)), (mpf(1), mpf(0)),
                              5000).value
        assert mpf(lower.numerator) / lower.denominator - mpf(1) / 5000 <= rho
        assert rho <= mpf(upper.numerator) / upper.denominator + mpf(1) / 5000


def test_brackets_of_mpf_slopes_are_empty():
    # the float signs prove nothing for other number types
    params = Params(mpmath.mpf("1.2"), mpmath.mpf("-1.3"))
    assert list(rotation_brackets(params, 100)) == []


@pytest.mark.parametrize("steps", [0, -1, 2 ** 26 + 1])
def test_brackets_reject_steps(steps):
    with pytest.raises(ArgumentError, match="steps must be in"):
        next(rotation_brackets(Params(1.2, -1.2), steps))


def _final_bracket(params, steps):
    *_, (n, lower, upper) = rotation_brackets(params, steps)
    assert n == steps
    return lower, upper


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FamilyId.EX_A, FamilyId.EX_B]),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_bracket_contains_closed_rotation(family, t):
    # the float slopes lie within rounding of the relation curve, so the
    # closed form is allowed 1e-12 of rounding on either side
    lo_a, hi_a = {FamilyId.EX_A: (1.0, math.sqrt(2.0)),
                  FamilyId.EX_B: (0.0, 1.0)}[family]
    a = lo_a + t * (hi_a - lo_a)
    if not lo_a < a < hi_a:
        return
    closed = closed_rotation(family, a)
    if closed is None:
        return
    lower, upper = _final_bracket(Params(a, family_b(family, a)), 2000)
    assert upper - lower <= Fraction(1, 2000)
    slack = Fraction(1, 10 ** 12)
    assert lower - slack <= Fraction(closed) <= upper + slack


@pytest.mark.parametrize("a, b", [
    (A_SPECIAL, -A_SPECIAL), (B_SPECIAL, family_b(FamilyId.EX_B, B_SPECIAL)),
    (C_SPECIAL, -C_SPECIAL), (1.2, family_b(FamilyId.EX_A, 1.2)),
    (0.0, 0.0), (1.0, 1.0), (0.3, -1.7), (2.5, -0.4)])
@pytest.mark.parametrize("steps", [1000, 10_000])
def test_bracket_holds_the_estimate(a, b, steps):
    # the N-step estimate walks the same orbit, and lies within 1/N of
    # the rotation number the bracket encloses
    _assert_estimate_in_bracket(a, b, steps)


@settings(max_examples=80, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(1, 4096))
def test_bracket_holds_the_estimate_anywhere(a, b, steps):
    # the same containment over the slope square: the float estimate's
    # angle sum and the bracket's sign count walk one orbit of (1, 0)
    _assert_estimate_in_bracket(a, b, steps)


def _assert_estimate_in_bracket(a, b, steps):
    lower, upper = _final_bracket(Params(a, b), steps)
    est = Fraction(rotation_number(Params(a, b), (1.0, 0.0), steps).value)
    assert lower - Fraction(1, steps) <= est <= upper + Fraction(1, steps)
