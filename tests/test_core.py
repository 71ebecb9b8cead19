"""Map evaluation, iteration, cocycle products, and their invariants."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pwlin import (
    Mat2,
    Params,
    difference_step,
    inverse_step,
    iterate,
    step,
    word_matrix,
)
from pwlin.core import (GROWTH_BITS, mpf_pair, rescale_chunk, walk_chain,
                        walk_mpf)
from pwlin.errors import OrbitOverflowError


@pytest.mark.parametrize("params", [Params(0.0, 0.0), Params(1.2, -0.5),
                                    Params(-3.0, 2.0)])
def test_vertical_directions_any_params(params):
    assert step(params, (0.0, 1.0)) == (-1.0, 0.0)
    assert step(params, (0.0, -1.0)) == (1.0, 0.0)
    assert step(params, (0.0, 0.0)) == (0.0, 0.0)


def test_step_positive_branch():
    assert step(Params(1.2, -7.0), (1.0, 0.0)) == (1.2, 1.0)


def test_zero_x_takes_a_branch():
    # both branches agree at x = 0, but the itinerary must record '+'
    _, word = iterate(Params(2.0, -3.0), (0.0, -1.0), 1)
    assert word == "+"


def test_inverse_examples():
    p = Params(0.7, -1.3)
    assert inverse_step(p, (-1.0, 0.0)) == (0.0, 1.0)
    assert inverse_step(p, (1.0, 0.0)) == (0.0, -1.0)


def test_inverse_round_trip():
    rng = random.Random(42)
    p = Params(1.3, -0.4)
    for _ in range(10_000):
        v = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        w = inverse_step(p, step(p, v))
        assert math.hypot(w[0] - v[0], w[1] - v[1]) <= 1e-12 * (1 + math.hypot(*v))


def test_iterate_eight_step_family(params_a12):
    orbit, word = iterate(params_a12, (0.0, -1.0), 8)
    assert len(orbit) == 9
    end = orbit[-1]
    assert math.hypot(end[0], end[1] - 1.0) <= 1e-10
    assert word == "++++-+++"


def test_iterate_zero_steps():
    orbit, word = iterate(Params(1.0, 1.0), (2.0, 3.0), 0)
    assert orbit == [(2.0, 3.0)]
    assert word == ""


def test_iterate_backward_word_matches_forward_segment(params_a12):
    orbit, word = iterate(params_a12, (0.0, 1.0), -8)
    assert math.hypot(orbit[-1][0], orbit[-1][1] + 1.0) <= 1e-10
    # the backward word drives the cocycle from the far end back to start
    m = word_matrix(params_a12, word)
    back = m.apply(orbit[-1])
    assert math.hypot(back[0] - orbit[0][0], back[1] - orbit[0][1]) <= 1e-10


def test_iterate_ten_step_family():
    from pwlin import FamilyId, family_b

    a = 0.1
    params = Params(a, family_b(FamilyId.EX_B, a))
    orbit, _ = iterate(params, (0.0, 1.0), 10)
    end = orbit[-1]
    assert math.hypot(end[0], end[1] + 1.0) <= 1e-10


def test_word_matrix_single_symbol():
    p = Params(1.7, -0.9)
    m = word_matrix(p, "+")
    assert (m.m11, m.m12, m.m21, m.m22) == (1.7, -1.0, 1.0, 0.0)
    m = word_matrix(p, "-")
    assert (m.m11, m.m12, m.m21, m.m22) == (-0.9, -1.0, 1.0, 0.0)


def test_word_matrix_empty_is_identity():
    assert word_matrix(Params(1.0, 2.0), "") == Mat2.identity()


def test_word_matrix_determinant():
    rng = random.Random(1)
    p = Params(1.1, -0.3)
    for _ in range(200):
        word = "".join(rng.choice("+-") for _ in range(rng.randrange(1, 200)))
        m = word_matrix(p, word)
        assert abs(m.det() - 1.0) <= 1e-12 * max(1.0, m.max_abs() ** 2)


def test_word_matrix_determinant_long_words():
    # slopes capped so that thousand-step products stay inside the
    # double range (at |slope| ~ 4 the entries themselves overflow)
    rng = random.Random(2)
    for _ in range(20):
        p = Params(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        word = "".join(rng.choice("+-") for _ in range(1000))
        m = word_matrix(p, word)
        assert math.isfinite(m.max_abs())
        assert abs(m.det() - 1.0) <= 1e-12 * max(1.0, m.max_abs() ** 2)


_WORD_SLOPES = st.one_of(
    st.floats(-2.5, 2.5), st.floats(-60.0, 60.0),
    st.sampled_from([0.0, -0.0, 1e20, -1e100, 1e300, 2.0 ** 1000,
                     math.inf, -math.inf, math.nan]))


@given(a=_WORD_SLOPES, b=_WORD_SLOPES,
       word=st.text(alphabet="+-", max_size=256))
def test_word_matrix_matches_two_branch_oracle(a, b, word):
    """Bit for bit, nan and the sign of zero included, up to the
    scanner's q = 256."""
    import numpy as np

    from oracles import word_matrix as two_branch

    params = Params(a, b)
    with np.errstate(all="ignore"):
        got, want = word_matrix(params, word), two_branch(params, word)
    for g, w in zip(vars(got).values(), vars(want).values()):
        assert type(g) is float and type(w) is float
        assert (math.copysign(1.0, g) == math.copysign(1.0, w)
                and (g == w or math.isnan(g) and math.isnan(w))), (g, w)


def test_word_matrix_reproduces_iteration(params_a12):
    orbit, word = iterate(params_a12, (0.37, -0.81), 12)
    m = word_matrix(params_a12, word)
    image = m.apply(orbit[0])
    assert math.hypot(image[0] - orbit[-1][0], image[1] - orbit[-1][1]) <= 1e-10


def test_swap_conjugacy_identity():
    rng = random.Random(9)
    p = Params(0.7, -1.1)
    q = Params(p.b, p.a)
    for _ in range(100):
        v = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        lhs = step(q, (-v[0], -v[1]))
        rhs = step(p, v)
        assert math.hypot(lhs[0] + rhs[0], lhs[1] + rhs[1]) <= 1e-12 * (1 + math.hypot(*rhs))


_slopes = st.floats(-1e6, 1e6)
_coords = st.floats(-1e100, 1e100)


@given(_slopes, _slopes, _coords, _coords)
def test_inverse_step_is_swapped_step(a, b, x, y):
    # the batched scanner walks backward orbits as swapped forward ones,
    # so this must hold bit for bit, not up to rounding
    params = Params(a, b)
    sx, sy = step(params, (y, x))
    assert inverse_step(params, (x, y)) == (sy, sx)


def test_swap_conjugacy_orbits():
    rng = random.Random(10)
    p = Params(1.4, -0.6)
    q = Params(p.b, p.a)
    v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
    orb_p, _ = iterate(p, v, 100)
    orb_q, _ = iterate(q, (-v[0], -v[1]), 100)
    for (x1, y1), (x2, y2) in zip(orb_p, orb_q):
        assert math.hypot(x1 + x2, y1 + y2) <= 1e-10 * (1 + math.hypot(x1, y1))


def test_difference_step_examples():
    assert difference_step(Params(1.0, -1.0), 0.0, -2.0) == 2.0
    # a == b reduces to nu * x_cur - x_prev
    p = Params(0.8, 0.8)
    assert difference_step(p, 0.3, -1.1) == pytest.approx(0.8 * -1.1 - 0.3, abs=1e-15)


def test_difference_step_matches_step(params_a12):
    got = difference_step(params_a12, 1.0, 1.2)
    want = step(params_a12, (1.2, 1.0))[0]
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_difference_step_along_orbit(params_a12):
    orbit, _ = iterate(params_a12, (0.43, 0.17), 50)
    xs = [p[0] for p in orbit]
    for i in range(len(xs) - 2):
        pred = difference_step(params_a12, xs[i], xs[i + 1])
        assert abs(pred - xs[i + 2]) <= 1e-13 * max(1.0, abs(xs[i + 2]))


def test_homogeneity_dyadic_exact():
    rng = random.Random(3)
    p = Params(1.9, -2.4)
    for _ in range(500):
        v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        lam = 2.0 ** rng.randrange(-8, 9)
        sx, sy = step(p, v)
        tx, ty = step(p, (lam * v[0], lam * v[1]))
        assert tx == lam * sx and ty == lam * sy


def test_homogeneity_general_scale():
    rng = random.Random(4)
    p = Params(-0.7, 2.2)
    for _ in range(500):
        v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        lam = rng.uniform(0.01, 100.0)
        sx, sy = step(p, v)
        tx, ty = step(p, (lam * v[0], lam * v[1]))
        assert math.hypot(tx - lam * sx, ty - lam * sy) <= 1e-12 * lam * (1 + math.hypot(sx, sy))


def test_overflow_is_indexed():
    p = Params(3.0, 3.0)  # trace-3 growth
    with pytest.raises(OrbitOverflowError) as err:
        iterate(p, (1.0, 0.0), 10_000)
    assert err.value.index is not None
    assert 0 < err.value.index < 10_000


def test_extended_precision_backend():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        p = Params(mpmath.mpf("1.2"), mpmath.mpf("-1.3"))
        orbit, word = iterate(p, (mpmath.mpf(0), mpmath.mpf(-1)), 6)
        assert len(orbit) == 7 and len(word) == 6
        w = inverse_step(p, step(p, (mpmath.mpf("0.3"), mpmath.mpf("0.4"))))
        assert abs(w[0] - mpmath.mpf("0.3")) < mpmath.mpf(2) ** -150


# ------------------- number types of the cocycle -------------------

def test_word_matrix_fraction_stays_exact():
    from fractions import Fraction

    p = Params(Fraction(6, 5), Fraction(-3, 2))
    for word in ("", "+", "+-+", "-+++-", "+-" * 9):
        m = word_matrix(p, word)
        entries = (m.m11, m.m12, m.m21, m.m22)
        assert all(type(v) is Fraction for v in entries), (word, entries)
        assert m.det() == 1
    assert word_matrix(p, "+-+") == word_matrix(p, "+") @ word_matrix(
        p, "-") @ word_matrix(p, "+")
    assert Mat2.identity(Fraction(1)) == Mat2(*(Fraction(v) for v in (1, 0, 0, 1)))


def test_float_cocycle_seeds_unchanged():
    m = word_matrix(Params(1.7, -0.9), "-")
    assert (m.m11, m.m12, m.m21, m.m22) == (-0.9, -1.0, 1.0, 0.0)
    assert all(type(v) is float for v in (m.m12, m.m21, m.m22))
    assert math.copysign(1.0, m.m22) == 1.0
    ident = Mat2.identity()
    assert (ident.m11, ident.m12, ident.m21, ident.m22) == (1.0, 0.0, 0.0, 1.0)
    assert all(type(v) is float for v in (ident.m11, ident.m12))


def _float_seeded_product(params, word):
    """The generic product as it was seeded before, with float 1.0/0.0."""
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for ch in word:
        slope = params.a if ch == "+" else params.b
        m11, m12, m21, m22 = (slope * m11 - m21, slope * m12 - m22, m11, m12)
    return Mat2(m11, m12, m21, m22)


def test_word_matrix_mpf_unchanged():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(5)
    with mpmath.workprec(113):
        p = Params(mpmath.mpf("1.2"), mpmath.mpf("-1.3"))
        for _ in range(20):
            word = "".join(rng.choice("+-") for _ in range(rng.randrange(1, 60)))
            got = word_matrix(p, word)
            assert got == _float_seeded_product(p, word)
            assert all(isinstance(v, mpmath.mpf)
                       for v in (got.m11, got.m12, got.m21, got.m22))


# ------------------- the unchecked chunk walker -------------------

@given(st.floats(-2.0 ** 400, 2.0 ** 400), st.floats(-2.0 ** 400, 2.0 ** 400),
       st.integers(1, 4096))
def test_rescale_chunk_bound(a, b, cap):
    chunk = rescale_chunk((a, b), cap)
    if max(abs(a), abs(b)) >= 2.0 ** 399:
        assert chunk == 0
        return
    growth = math.log2(max(abs(a), abs(b)) + 1.0)
    assert 1 <= chunk <= cap
    # (max|slope| + 1) ** chunk <= 2**GROWTH_BITS, up to the rounding of
    # the division that picks the chunk
    assert chunk * growth <= GROWTH_BITS * (1.0 + 1e-12)
    assert chunk == cap or (chunk + 1) * max(growth, 1.0) > GROWTH_BITS


@pytest.mark.parametrize("slopes", [(math.inf, 1.0), (1.0, -math.inf),
                                    (math.nan, 0.5), (2.0 ** 399, 0.0),
                                    (0.5, -2.0 ** 400)])
def test_rescale_chunk_rejects(slopes):
    assert rescale_chunk(slopes, 64) == 0


def test_walk_chain_is_iterate(params_a12):
    orbit, _ = iterate(params_a12, (0.37, -0.81), 50)
    chain = walk_chain(params_a12.a, params_a12.b, 0.37, -0.81, 50)
    assert list(zip(chain[1:], chain[:-1])) == orbit


def _reference_walk_chain(a, b, x, y, n):
    """One step per loop pass: the walker's values, element for element."""
    chain = [y, x]
    for _ in range(n):
        x, y = (a * x - y if x >= 0.0 else b * x - y), x
        chain.append(x)
    return chain


_WALK_STARTS = [(0.0, 1.0), (-0.0, -1.0), (0.0, -0.0), (math.nan, 1.0),
                (1.0, math.nan), (math.inf, 0.5), (-math.inf, 2.0),
                (0.37, -0.81)]


@pytest.mark.parametrize("kind, start", [
    (kind, start) for kind in ("float", "Fraction", "mpf")
    for start in _WALK_STARTS  # a Fraction has no nan or inf
    if kind != "Fraction" or all(map(math.isfinite, start))])
def test_walk_chain_is_a_one_step_loop(kind, start):
    """Four steps per pass give the one-step loop's values, by repr,
    for every n from -1 to 9 and some longer walks, on floats,
    ``Fraction``s and mpf numbers."""
    import mpmath

    a, b = 1.189207115002721, -0.7
    if kind != "float":
        to = Fraction if kind == "Fraction" else mpmath.mpf
        a, b, start = to(a), to(b), tuple(map(to, start))
    rng = random.Random(f"{kind}/{start}")
    top = 60 if kind == "Fraction" else 300  # exact values grow per step
    for n in [*range(-1, 10), *(rng.randrange(10, top) for _ in range(4))]:
        assert repr(walk_chain(a, b, *start, n)) == repr(
            _reference_walk_chain(a, b, *start, n)), n


# ------------------- the extended-precision walker -------------------

def _reference_iterate_forward(params, p0, n):
    """The duck-typed forward loop of ``iterate``: the oracle the mpf
    walker must reproduce point for point."""
    a, b = params.a, params.b
    x, y = p0
    orbit = [(x, y)]
    signs = []
    for k in range(n):
        slope = a if x >= 0 else b
        signs.append("+" if x >= 0 else "-")
        x, y = slope * x - y, x
        if abs(x) > 1e300:
            raise OrbitOverflowError(
                f"orbit escaped at step {k + 1}", index=k + 1)
        orbit.append((x, y))
    return orbit, "".join(signs)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OrbitOverflowError as exc:
        return ("overflow", str(exc), exc.index)


@pytest.mark.parametrize("prec", [113, 200])
@pytest.mark.parametrize("slopes, start, n", [
    (("1.189207115002721", "-1.189207115002721"), ("0", "1"), 4000),
    (("0.6", "-1.7"), ("0.3", "-0.4"), 500),
    (("0", "0"), ("1", "0"), 9),
    (("1.2", "-1.3"), ("0", "-1"), 0),
    (("3", "3"), ("1", "0"), 2000),  # escapes near step 720
    (("-3", "-2.5"), ("1e-30", "1e-30"), 2000),
    (("1", "1"), ("1.2e300", "0"), 3),  # escapes just above the limit
    (("1", "1"), ("-1.2e300", "0"), 3),  # and below minus the limit
    (("1", "1"), ("1e300", "0"), 3),  # at the limit: no escape
    (("2", "-2"), ("6e299", "0"), 5),  # escapes at step 1
    (("1", "1"), ("1.2e300", "0"), 0),  # a start beyond the limit, n = 0
    # the start is not tested: one step is fine, the second escapes
    (("1e-10", "1e-10"), ("1.2e300", "0"), 2),
])
def test_iterate_mpf_walker_matches_generic_loop(prec, slopes, start, n):
    mpmath = pytest.importorskip("mpmath")
    before = mpmath.mp.prec
    with mpmath.workprec(prec):
        params = Params(*map(mpmath.mpf, slopes))
        p0 = tuple(map(mpmath.mpf, start))
        got = _outcome(iterate, params, p0, n)
        want = _outcome(_reference_iterate_forward, params, p0, n)
        assert got == want
        if got[0] == "overflow":
            # the escape at the very last step is an escape too
            assert (_outcome(iterate, params, p0, got[2])
                    == _outcome(_reference_iterate_forward, params, p0,
                                got[2]))
            assert _outcome(iterate, params, p0, got[2] - 1)[0] != "overflow"
        else:
            assert all(type(v) is mpmath.mpf for p in got[0] for v in p)
        assert mpmath.mp.prec == prec
    assert mpmath.mp.prec == before


# dyadic values of at most 12 bits, so that half-way ties occur; the
# wide exponents reach mpf_add's shortcut for far-apart operands
_dyadic_pairs = st.tuples(st.integers(-4096, 4096),
                          st.integers(-8, 8) | st.integers(-150, 150))


@given(st.integers(2, 300), st.tuples(*[_dyadic_pairs] * 4),
       st.integers(0, 300))
def test_walk_mpf_matches_the_operator_loop(prec, pairs, n):
    mpmath = pytest.importorskip("mpmath")
    from mpmath.libmp import from_man_exp

    with mpmath.workprec(prec):
        a, b, x, y = map(mpmath.mpf, pairs)  # rounded to prec bits
        chain = walk_mpf(*map(mpf_pair, (a, b, x, y)), n, prec)
        want = [y, x]
        for _ in range(n):
            x, y = (a if x >= 0 else b) * x - y, x
            want.append(x)
    assert [from_man_exp(m, e) for m, e in chain] == [v._mpf_ for v in want]


_signed_zeros = st.sampled_from([0.0, -0.0])


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
       st.one_of(_signed_zeros, _coords), st.one_of(_signed_zeros, _coords),
       st.integers(0, 300), st.sampled_from([None, 53, 113]))
@example(1e6, 1e6, 0.0, 1.0, 300, None)  # escapes near step 50
@example(1e6, 1e6, 0.0, 1.0, 300, 113)
@example(2.0, -2.0, 0.0, 6e299, 5, None)  # escapes at step 1
@example(2.0, -2.0, 0.0, 6e299, 1, 113)  # at the last step
@example(1e-10, 1e-10, 0.0, 1.2e300, 1, None)  # a start beyond the limit
@example(1.0, 1.0, 0.0, 1.2e300, 0, 113)
def test_iterate_backward_matches_inverse_step_loop(a, b, x, y, n, prec):
    # backward runs are swapped forward runs; the per-step inverse loop
    # they replaced must agree on every point, the word and the escape
    # index, for floats (-0.0 starts included) and for mpf
    mpmath = pytest.importorskip("mpmath")
    from oracles import iterate_backward

    with mpmath.workprec(prec or 53):
        conv = float if prec is None else mpmath.mpf
        params, p0 = Params(conv(a), conv(b)), (conv(x), conv(y))
        got = _outcome(iterate, params, p0, -n)
        want = _outcome(iterate_backward, params, p0, n)
        assert repr(got) == repr(want)  # tells -0.0 from 0.0


def test_iterate_generic_types_skip_the_walker(monkeypatch):
    from fractions import Fraction

    import pwlin.core as core_mod

    mpmath = pytest.importorskip("mpmath")

    def no_walker(*args):
        raise AssertionError("the mpf walker ran")

    monkeypatch.setattr(core_mod, "walk_mpf", no_walker)
    mpf = mpmath.mpf
    with mpmath.workprec(200):
        third = mpf(1) / 3  # more bits than the 53 of the context
    floor = mpmath.MPContext()  # a context that rounds toward -inf
    floor._prec_rounding[1] = "f"
    cases = [
        (Params(Fraction(6, 5), Fraction(-3, 2)), (Fraction(0), Fraction(1))),
        (Params(mpf(1), mpf(-1)), (mpf("nan"), mpf(0))),
        (Params(mpf(1), mpf(-1)), (mpf(0), mpf("inf"))),
        (Params(mpf("1.2"), mpf("-1.3")), (0.0, 1.0)),  # mixed types
        (Params(mpf("1.2"), mpf("-1.3")), (mpf(0), third)),
        (Params(floor.mpf("1.2"), floor.mpf("-1.3")),
         (floor.mpf(0), floor.mpf(1))),
        # escapes, in chunks walked by the generic walker
        (Params(2.0, -2.0), (6e299, 0.0)),  # at step 1
        (Params(1e-10, 1e-10), (1.2e300, 0.0)),  # the start is not tested
        (Params(Fraction(3), Fraction(3)), (Fraction(10 ** 299), Fraction(0))),
        (Params(mpf(3), 3.0), (1e299, 0.0)),  # mixed types
        (Params(floor.mpf(3), floor.mpf(3)), (floor.mpf(1e299), floor.mpf(0))),
    ]
    for params, p0 in cases:
        got = _outcome(iterate, params, p0, 12)
        want = _outcome(_reference_iterate_forward, params, p0, 12)
        assert repr(got) == repr(want)  # nan-aware


@pytest.mark.parametrize("slopes", [(math.inf, -1.0), (1.2, math.nan),
                                    ("mpf-inf", -1.0)])
def test_iterate_refuses_non_finite_slopes(slopes):
    # refused before any step: at n = 0 too, and before the orbit
    # of (-1, 0) takes the a-branch at its second step
    from pwlin.errors import DomainError

    mpmath = pytest.importorskip("mpmath")
    a, b = (mpmath.mpf("inf") if v == "mpf-inf" else v for v in slopes)
    for n in (0, 3, -3):
        with pytest.raises(DomainError, match="slopes must be finite"):
            iterate(Params(a, b), (-1.0, 0.0), n)
