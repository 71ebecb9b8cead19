"""Sectors, first-return extraction, axis-orbit relations."""
import math
import random
from fractions import Fraction
from itertools import accumulate, islice
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwlin import (
    FamilyId,
    Mat2,
    OrbitRelation,
    Params,
    Ray,
    Sector,
    commutator_residual,
    distinguished_sectors,
    distinguished_set,
    family_b,
    first_preimage_in,
    iterate,
    orbit_relation,
    return_map,
    word_matrix,
)
from pwlin.circle import angle_of
from pwlin.core import chunk_schedule, inverse_step, rescale_chunk
from pwlin.errors import (
    ArgumentError,
    DegenerateError,
    DomainError,
    NoReturnError,
    OrbitOverflowError,
    PwlinError,
)
import pwlin.returnmap as returnmap
from pwlin.returnmap import (MAX_CHUNK, TABLE_BINS, UNSURE, _first_return,
                             _pseudo_angle, first_sector, lookup_sectors,
                             sector_table)

import oracles
from conftest import A_SPECIAL, B_SPECIAL, C_SPECIAL


# --------------------------- sectors & rays ---------------------------

def test_sector_half_open():
    s = Sector(Ray.through((1.0, 0.0)), Ray.through((0.0, 1.0)))
    assert s.contains((1.0, 0.0))        # start ray is inside
    assert not s.contains((0.0, 1.0))    # end ray is not
    assert s.contains((1.0, 1.0))
    assert not s.contains((-1.0, 1.0))


def test_sector_wraparound():
    s = Sector(Ray.at_angle(5.8), Ray.at_angle(0.7))
    assert s.contains(Ray.at_angle(6.1).direction)
    assert s.contains(Ray.at_angle(0.2).direction)
    assert not s.contains(Ray.at_angle(1.0).direction)


def test_sector_degenerate():
    with pytest.raises(DegenerateError):
        Sector(Ray.through((1.0, 0.0)), Ray.through((1.0, 0.0)))
    with pytest.raises(DegenerateError):
        Sector(Ray.through((3.0, -1.0)), Ray((0.75, -0.25)))


def test_ray_keeps_its_direction():
    # scaled by a power of two only, into [1, 2) when that is exact
    assert Ray.through((3.0, -1.0)).direction == (1.5, -0.5)
    assert Ray.through((0.0, 1.0)).direction == (0.0, 1.0)
    assert Ray.through((1e300, 7e299)).direction == (
        math.ldexp(1e300, -996), math.ldexp(7e299, -996))
    # halving 5e-324 would round it away: the point is kept as given
    assert Ray.through((3.0, 5e-324)).direction == (3.0, 5e-324)
    third = Fraction(1, 3)
    assert Ray.through((third, third)).direction == (third, third)
    for bad in ((0.0, -0.0), (math.nan, 1.0), (1.0, -math.inf)):
        with pytest.raises(DegenerateError, match="finite nonzero"):
            Ray.through(bad)


#: Narrow, quarter, straight (exactly pi) and reflex sectors, as start
#: and end directions; the reflex one is family A's reference sector at
#: a = 1.31.
_SHAPES = {
    "narrow": ((1.0, 0.0), (1.0, 1e-300)),
    "quadrant": ((0.3, 0.7), (-0.7, 0.3)),
    "straight": ((0.6, -0.8), (-0.6, 0.8)),
    "reflex": None,
}


def _shape(name):
    if name == "reflex":
        from pwlin.families import reference_sector
        sector = reference_sector(FamilyId.EX_A, 1.31)
        assert sector.width > math.pi
        return sector
    u, v = _SHAPES[name]
    return Sector(Ray.through(u), Ray.through(v))


@pytest.mark.parametrize("name", list(_SHAPES))
def test_power_of_two_multiples_of_the_rays(name):
    """Every power-of-two multiple of the start direction is inside,
    every one of the end direction outside; the opposite of the start
    is inside exactly when the sector is wider than pi."""
    sector = _shape(name)
    u, v = sector.start.direction, sector.end.direction
    seen = 0
    for e in range(-1074, 1024, 7):
        for d, want in ((u, True), (v, False)):
            p = (math.ldexp(d[0], e), math.ldexp(d[1], e))
            if (math.ldexp(p[0], -e), math.ldexp(p[1], -e)) != d:
                continue  # rounded or overflowed: not a multiple of d
            seen += 1
            assert sector.contains(p) is want, (p, want)
            assert sector.first_inside([p[0]], [p[1]], 0, 1) == (
                0 if want else None)
    assert seen > 400
    assert sector.contains((-u[0], -u[1])) is (name == "reflex")
    assert not sector.contains((0.0, 0.0))


def test_exact_decisions_on_fractions():
    """Membership, subdivision order and the distinguished-set sort on
    Fraction directions, with a point exactly on a start ray."""
    F = Fraction
    quadrant = Sector(Ray.through((F(1), F(0))), Ray.through((F(0), F(1))))
    assert quadrant.contains((F(5, 7), F(0)))           # on the start ray
    assert not quadrant.contains((F(0), F(1, 9)))       # on the end ray
    assert quadrant.contains((F(1, 10**30), F(1)))      # a hair inside
    assert not quadrant.contains((F(-1, 10**30), F(1)))
    u = (F(1, 3), F(2, 7))
    sector = Sector(Ray.through(u), Ray.through((F(-1), F(-1, 5))))
    assert sector.contains((3 * u[0], 3 * u[1]))
    assert not sector.contains((-u[0], -u[1]))
    cuts = [Ray.through((F(-1), F(1, 10**20))), Ray.through((F(1), F(1))),
            Ray.through((F(-1), F(-1, 10**20))), Ray.through(u)]
    with pytest.raises(DegenerateError):
        sector.subdivide(cuts)  # u is the start ray: an empty piece
    subs = sector.subdivide(cuts[:3])
    assert [s.start for s in subs] == [sector.start, cuts[1], cuts[0],
                                       cuts[2]]
    assert all(s.end == t.start for s, t in zip(subs, subs[1:]))
    # family A at a = 6/5 has b = -55/42: its 8-step relation is exact
    params = Params(F(6, 5), F(-55, 42))
    orbit, word = iterate(params, (F(0), F(-1)), 8)
    assert orbit[-1] == (0, 1) and word == "++++-+++"
    rel = OrbitRelation(-8, F(-1), (F(0), F(1)), (F(0), F(-1)))
    points = distinguished_set(params, rel)
    assert all(isinstance(c, Fraction) for p in points for c in p)
    assert [orbit.index(p) for p in points] == [1, 6, 2, 7, 3, 8, 4, 5]
    assert points == sorted(points, key=lambda p: angle_of(
        (float(p[0]), float(p[1]))))
    sectors = distinguished_sectors(points)
    for i, sector in enumerate(sectors):  # each point is on a start ray
        assert sector.contains(points[i])
        assert not sectors[i - 1].contains(points[i])


@pytest.mark.parametrize("a, b", [(math.nan, -0.067), (1.2, math.inf),
                                  (-math.inf, 1.0)])
def test_non_finite_slopes_are_refused(a, b):
    params = Params(a, b)
    sector = Sector(Ray.at_angle(math.pi), Ray.at_angle(1.5 * math.pi))
    for call in (lambda: return_map(params, sector),
                 lambda: orbit_relation(params)):
        with pytest.raises(DomainError, match=f"a={a!r}, b={b!r}"):
            call()


@pytest.mark.parametrize("budget", [0, -5])
def test_budgets_below_one_are_argument_errors(params_a_special, budget):
    # the certified a = 2**(1/4) point, so a bad budget is the only fault
    sector = Sector(Ray.at_angle(math.pi), Ray.at_angle(1.5 * math.pi))
    with pytest.raises(ArgumentError,
                       match=f"budget must be >= 1, got {budget}"):
        return_map(params_a_special, sector, budget=budget)
    with pytest.raises(ArgumentError,
                       match=f"max_iter must be >= 1, got {budget}"):
        orbit_relation(params_a_special, max_iter=budget)


# --------------------------- preimages ---------------------------

def test_first_preimage_self_hit():
    p = Params(0.3, -0.8)
    sector = Sector(Ray.at_angle(1.0), Ray.at_angle(2.0))  # contains (0,1)
    ray, i = first_preimage_in(p, (0.0, 1.0), sector, i_min=0, max_iter=10)
    assert i == 0
    assert math.hypot(ray.direction[0], ray.direction[1] - 1.0) <= 1e-12


def test_first_preimage_budget_zero_and_negative():
    # max_iter 0 still tests the target itself; a negative budget is a
    # bad argument, not "no preimage"
    p = Params(0.3, -0.8)
    sector = Sector(Ray.at_angle(1.0), Ray.at_angle(2.0))  # contains (0,1)
    assert first_preimage_in(p, (0.0, 1.0), sector, max_iter=0)[1] == 0
    with pytest.raises(ArgumentError, match="max_iter must be >= 0, got -1"):
        first_preimage_in(p, (0.0, 1.0), sector, max_iter=-1)


def test_first_preimage_quarter_rotation():
    # brute-force oracle: backward orbit of (0,1) under the quarter turn
    # is (1,0), (0,-1), (-1,0), ...; the third quadrant [pi, 3pi/2)
    # first contains the i=3 point, on its boundary ray
    p = Params(0.0, 0.0)
    third = Sector(Ray.through((-1.0, 0.0)), Ray.through((0.0, -1.0)))
    ray, i = first_preimage_in(p, (0.0, 1.0), third, i_min=0, max_iter=10)
    assert i == 3
    assert math.hypot(ray.direction[0] + 1.0, ray.direction[1]) <= 1e-12


def test_first_preimage_budget_exhausted():
    p = Params(0.0, 0.0)  # period 4: never reaches a sector off the axes orbit
    s = Sector(Ray.at_angle(0.3), Ray.at_angle(0.4))
    assert first_preimage_in(p, (0.0, 1.0), s, i_min=0, max_iter=50) is None


def _brute_preimage(params, target, sector, i_min, max_iter):
    """Oracle: the backward walk through ``inverse_step`` and
    ``Sector.contains``, one call each per step."""
    p = target
    for i in range(max_iter + 1):
        if i >= i_min and sector.contains(p):
            return Ray.through(p), i
        p = inverse_step(params, p)
    return None


def _preimage_outcome(fn, *args):
    try:
        return fn(*args)
    except OrbitOverflowError as exc:
        return ("overflow", str(exc))


def test_first_preimage_matches_brute_force():
    """Bit-identical to the per-step walk on every distinguished sector
    of the A, B and C special points, for the four targets that
    ``return_map`` asks about and two near the overflow limit.  Budget 2 runs out on some of them, and
    the divergent C pair's backward orbits overflow on others."""
    seen = set()
    for a in (A_SPECIAL, B_SPECIAL, C_SPECIAL):
        params = Params(a, -a)
        sectors = distinguished_sectors(
            distinguished_set(params, orbit_relation(params)))
        for sector in sectors:
            # far-out targets walk near, and past, the overflow limit
            for target in ((0.0, 1.0), (0.0, -1.0),
                           sector.start.direction, sector.end.direction,
                           (0.0, 1e250), (a * 2e300, 2e300)):
                for i_min in (0, 1):
                    for budget in (10_000, 2):
                        args = (params, target, sector, i_min, budget)
                        got = _preimage_outcome(first_preimage_in, *args)
                        assert got == _preimage_outcome(_brute_preimage,
                                                        *args)
                        seen.add("none" if got is None else
                                 got[0] if got[0] == "overflow" else "hit")
    assert seen == {"hit", "none", "overflow"}


# ---------------- orbit searches against their oracles ----------------

# moderate and steep slopes, slopes no rescale chunk admits, and
# non-finite ones
_SLOPES = st.one_of(
    st.floats(-2.5, 2.5), st.floats(-60.0, 60.0),
    st.sampled_from([2.0 ** 399, -2.0 ** 399, 1e20, -1e100, 1e300,
                     math.inf, -math.inf, math.nan]))
_ANGLES = st.floats(0.0, 2 * math.pi)
# budgets at the first seams of the chunk schedule (16, 48, 112 steps),
# and some past them
_SEAMS = [done for done, _ in
          islice(chunk_schedule(10 ** 6, MAX_CHUNK), 1, 4)]
_BUDGETS = st.sampled_from([s + d for s in _SEAMS for d in (-1, 0, 1)]
                           + [1, 1000, 3000])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PwlinError as exc:
        return type(exc).__name__, str(exc)


def _sector(start, width):
    try:
        return Sector(Ray.at_angle(start), Ray.at_angle(start + width))
    except DegenerateError:
        assume(False)


@given(_SLOPES, _SLOPES, _ANGLES, _ANGLES, st.floats(0.01, 6.2), _BUDGETS)
def test_first_return_matches_oracle(a, b, t, start, width, budget):
    """Word and step count (or the NoReturnError) of the chunked walk
    equal those of the same walk taken one step at a time with the
    rescales at the same chunk starts.  They also equal those of the
    walk renormalized by hypot at every step, which rounds differently,
    wherever that walk stays 1e-6 clear of the vertical axis and of the
    sector boundaries."""
    sector = _sector(start, width)
    args = (Params(a, b), (math.cos(t), math.sin(t)), sector, budget)
    seams = {done for done, _ in
             chunk_schedule(budget, rescale_chunk((a, b), MAX_CHUNK) or 1)}
    got = _outcome(_first_return, *args)
    assert got == _outcome(oracles.first_return_rescaled, *args, seams)
    renormalized = _outcome(oracles.first_return, *args, 1e-6)
    if renormalized is not None:
        assert got == renormalized


@given(_SLOPES, _SLOPES, _BUDGETS,
       st.sampled_from([1e-9, 1e-6, 1e-3, 0.5]))
def test_orbit_relation_matches_oracle(a, b, max_iter, tol):
    """The two walk_chain lanes find the relation (or the escape, the
    DegenerateError, the None) of the interleaved step/inverse_step
    loop.  A non-finite slope is refused before any walk."""
    args = (Params(a, b), max_iter, tol)
    if not (math.isfinite(a) and math.isfinite(b)):
        with pytest.raises(DomainError, match="slopes must be finite"):
            orbit_relation(*args)
        return
    assert _outcome(orbit_relation, *args) == _outcome(
        oracles.orbit_relation, *args)


@given(_SLOPES, _SLOPES, _ANGLES, _ANGLES, st.floats(0.01, 6.2),
       st.sampled_from([1.0, 1e299, 1e300, 2e300, 1e308]),
       st.integers(0, 2), _BUDGETS)
def test_first_preimage_matches_oracle(a, b, t, start, width, scale, i_min,
                                       budget):
    """Targets up to and past the overflow limit: hit, None and the
    overflow all agree with the one-loop walk."""
    sector = _sector(start, width)
    target = (scale * math.cos(t), scale * math.sin(t))
    args = (Params(a, b), target, sector, i_min, budget)
    assert _outcome(first_preimage_in, *args) == _outcome(
        oracles.first_preimage_in, *args)


_COORDS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
    [0.0, -0.0, 1e-320, 1e308, math.inf, -math.inf, math.nan]))


def _sized(elements, top: int):
    """Lists of a uniform size in [0, top]: Hypothesis's own lists are
    rarely long enough to reach numpy's path."""
    return st.integers(0, top).flatmap(
        lambda k: st.lists(elements, min_size=k, max_size=k))


@given(_ANGLES, st.floats(0.01, 6.2), _sized(st.tuples(_COORDS, _COORDS), 80),
       st.integers(0, 5), st.integers(0, 90))
def test_first_inside_is_contains(start, width, points, lo, hi):
    """The sector's range test is its per-point test, nan and the
    sector's own rays included, on ranges shorter and longer than
    ``SHORT_RANGE``."""
    sector = _sector(start, width)
    points += [sector.start.direction, sector.end.direction]
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    want = next((k for k in range(lo, min(hi, len(points)))
                 if sector.contains(points[k])), None)
    assert sector.first_inside(xs, ys, lo, hi) == want


def _nudged(v: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


def _near_ray(direction, e, dx, dy):
    """The ray's direction times 2^e, each component moved a few ulps."""
    return (_nudged(math.ldexp(direction[0], e), dx),
            _nudged(math.ldexp(direction[1], e), dy))


_EDGES = st.one_of(_COORDS, st.floats(allow_subnormal=True), st.sampled_from(
    [5e-324, -5e-324, 2.2e-308, -1.7976931348623157e308]))
_ULPS = st.one_of(st.just(0), st.integers(-3, 3))


@given(_ANGLES, st.floats(1e-6, 6.2), st.data())
def test_first_inside_paths_agree(start, width, data):
    """The one-point-at-a-time path and the numpy path return the same
    index: on the rays and a few ulps off them at all scales, on +-0,
    subnormal, huge, inf and nan components, with ``hi`` past the end;
    and a shifted second list reads the same points."""
    sector = _sector(start, width)
    rays = [sector.start.direction, sector.end.direction]
    point = st.one_of(st.tuples(_EDGES, _EDGES), st.builds(
        _near_ray, st.sampled_from(rays), st.integers(-1074, 1020),
        _ULPS, _ULPS))
    points = data.draw(_sized(point, 80))
    lo, hi = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 100))
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    with patch.object(returnmap, "SHORT_RANGE", -1):
        in_numpy = sector.first_inside(xs, ys, lo, hi)
    with patch.object(returnmap, "SHORT_RANGE", 10 ** 9):
        assert sector.first_inside(xs, ys, lo, hi) == in_numpy
    chain = [v for p in points for v in p]
    for short in (-1, 10 ** 9):  # point k is (chain[k], chain[k + 1])
        with patch.object(returnmap, "SHORT_RANGE", short):
            assert sector.first_inside(chain, chain, lo, hi, 1) == (
                sector.first_inside(chain, chain[1:], lo, hi))


_FAR = st.floats(-1e300, 1e300, allow_subnormal=True)


@given(_ANGLES, st.floats(0.01, 6.2),
       st.lists(st.tuples(_FAR, _FAR), min_size=1, max_size=20))
def test_contains_agrees_with_angle_oracle(start, width, points):
    """The exact sign rule and the old angle test agree on every point
    more than 1e-12 rad from both rays, per point and over a range."""
    sector = _sector(start, width)
    clear = [p for p in points if p != (0.0, 0.0)
             and oracles.angle_gap(sector, p) > 1e-12]
    for p in clear:
        assert sector.contains(p) == oracles.angle_contains(sector, p), p
    xs, ys = [p[0] for p in clear], [p[1] for p in clear]
    want = next((k for k, p in enumerate(clear)
                 if oracles.angle_contains(sector, p)), None)
    assert sector.first_inside(xs, ys, 0, len(clear)) == want


# ------------------------ the sector bin table ------------------------

def _direction_at(m: float):
    """A direction at pseudo-angle m in [0, 4), the inverse of
    ``_pseudo_angle``."""
    t = 1.0 - m if m <= 2.0 else m - 3.0
    return t, (1.0 - abs(t)) * (1.0 if m <= 2.0 else -1.0)


def _near_cut(cut, k, e):
    """The direction 2^e times k * 2^-43 from a cut in pseudo-angle."""
    d = _direction_at((cut + k * 2.0 ** -43) % 4.0)
    return math.ldexp(d[0], e), math.ldexp(d[1], e)


def _edge_ray(k, j):
    """A ray j ulps (of 2) in pseudo-angle from the edge of bin k."""
    return Ray.through(_direction_at((k * 4.0 / TABLE_BINS
                                      + j * 2.0 ** -51) % 4.0))


def _sector_list(partition, data):
    if partition:  # consecutive sectors around the plane
        start, widths = data.draw(st.tuples(_ANGLES, st.lists(
            st.floats(1e-6, 0.5), min_size=1, max_size=11)))
        rays = [Ray.at_angle(t) for t in accumulate(widths, initial=start)]
        return [Sector(r, s) for r, s in zip(rays, rays[1:] + rays[:1])]
    # free: overlaps and gaps, with rays next to the bins' edges
    ray = st.one_of(st.builds(_edge_ray, st.integers(0, TABLE_BINS - 1),
                              st.integers(-4, 4)), _ANGLES.map(Ray.at_angle))
    pairs = data.draw(st.lists(st.tuples(ray, ray), min_size=1, max_size=10)
                      | st.lists(st.tuples(_ANGLES, st.floats(1e-6, 6.2)).map(
                          lambda tw: (Ray.at_angle(tw[0]),
                                      Ray.at_angle(tw[0] + tw[1]))),
                          min_size=1, max_size=10))
    try:
        return [Sector(u, v) for u, v in pairs]
    except DegenerateError:
        assume(False)


@given(st.booleans(), st.data())
def test_sector_table_is_first_sector(partition, data):
    """The table's sure answers, with its unsure points classified by
    ``first_sector``, are ``first_sector``'s index (itself the first
    sector that ``contains`` the point) for every point: on and a few
    ulps off the rays, within 2^-40 in pseudo-angle of a cut, and with
    +-0, subnormal, huge, inf and nan components."""
    sectors = _sector_list(partition, data)
    dirs = [r.direction for s in sectors for r in (s.start, s.end)]
    cuts = [0.0, 4.0, *(_pseudo_angle(*d) for d in dirs)]
    point = st.one_of(
        st.tuples(_EDGES, _EDGES), st.tuples(_FAR, _FAR),
        st.builds(_near_ray, st.sampled_from(dirs), st.integers(-1074, 1020),
                  _ULPS, _ULPS),
        st.builds(_near_cut, st.sampled_from(cuts), st.integers(-8, 8),
                  st.integers(-1000, 1000)))
    points = data.draw(_sized(point, 60))
    x = np.array([p[0] for p in points], float)
    y = np.array([p[1] for p in points], float)
    want = first_sector(sectors, x, y)
    assert want.tolist() == [next((i for i, s in enumerate(sectors)
                                   if s.contains(p)), -1) for p in points]
    table = sector_table(sectors)
    got = lookup_sectors(table, x, y)
    late = got == UNSURE
    got[late] = first_sector(sectors, x[late], y[late])
    assert got.tolist() == want.tolist()
    # each cut leaves at most two bins unsure
    assert np.count_nonzero(table == UNSURE) <= 2 * len(cuts)


def test_sector_table_distrusts_rays_it_cannot_place():
    """A ray that is not a float pair, or too short for the pseudo-angle's
    error bound, leaves every bin unsure."""
    F = Fraction
    quadrant = Sector(Ray.through((F(1), F(0))), Ray.through((F(0), F(1))))
    tiny = Sector(Ray((1e-300, 1e-300)), Ray.at_angle(2.0))
    for sectors in ([quadrant, _sector(2.0, 1.0)], [tiny]):
        assert (sector_table(sectors) == UNSURE).all()
    lookup = lookup_sectors(sector_table([tiny]), np.array([1.0]),
                            np.array([1.0]))
    assert lookup.tolist() == [UNSURE]


# --------------------------- return maps ---------------------------

def _reference_sector_a(params):
    orbit, _ = iterate(params, (0.0, -1.0), 8)
    return Sector(Ray.through(orbit[4]), Ray.through(orbit[5])), orbit


def test_return_map_eight_step_family(params_a12):
    a = 1.2
    sector, orbit = _reference_sector_a(params_a12)
    rmap = return_map(params_a12, sector)
    assert [p.word for p in rmap.pieces] == ["-+++-", "++++"]
    assert [p.steps for p in rmap.pieces] == [5, 4]
    # breakpoint is the ray of (0, -1)
    bp = rmap.pieces[1].subsector.start
    assert abs(math.remainder(bp.angle - 1.5 * math.pi, 2 * math.pi)) <= 1e-10
    # closed-form matrices
    m1 = Mat2(a, 1 - a * a, a * a - 1, 2 * a - a**3)
    m2 = Mat2(a**4 - 3 * a * a + 1, 2 * a - a**3, a**3 - 2 * a, 1 - a * a)
    assert rmap.pieces[0].matrix.dist(m1) <= 1e-12
    assert rmap.pieces[1].matrix.dist(m2) <= 1e-12


def test_return_map_ten_step_family():
    a = 0.1
    b = family_b(FamilyId.EX_B, a)
    params = Params(a, b)
    third = Sector(Ray.through((-1.0, 0.0)), Ray.through((0.0, -1.0)))
    rmap = return_map(params, third)
    assert [p.word for p in rmap.pieces] == ["-+++-+++-+++-", "-++-"]
    assert [p.steps for p in rmap.pieces] == [13, 4]
    # breakpoint at (a^2 - 1, (a^2 - 1) b - a)
    want = angle_of((a * a - 1.0, (a * a - 1.0) * b - a))
    got = rmap.pieces[1].subsector.start.angle
    assert abs(math.remainder(got - want, 2 * math.pi)) <= 1e-10


def test_return_pieces_land_in_sector(params_a12):
    sector, _ = _reference_sector_a(params_a12)
    rmap = return_map(params_a12, sector)
    for piece in rmap.pieces:
        sub = piece.subsector
        t = sub.angle_at(0.5)
        u = (math.cos(t), math.sin(t))
        image = piece.matrix.apply(u)
        rel = (angle_of(image) - sector.start.angle) % (2 * math.pi)
        assert rel < sector.width + 1e-10


def test_return_map_piece_bound_random_sectors(params_a_special):
    rng = random.Random(21)
    done = 0
    while done < 8:
        t = rng.uniform(0, 2 * math.pi)
        w = rng.uniform(0.1, math.pi - 0.1)
        try:
            rmap = return_map(params_a_special,
                              Sector(Ray.at_angle(t), Ray.at_angle(t + w)),
                              budget=20000)
        except PwlinError:
            continue
        assert len(rmap.pieces) <= 5
        done += 1


def test_return_map_transient_sector_raises(params_c_special):
    # the 13-step divergent family has angular intervals that every
    # orbit crosses at most once
    orbit, _ = iterate(params_c_special, (0.0, -1.0), 13)
    transient = Sector(Ray.through(orbit[1]), Ray.through(orbit[6]))
    with pytest.raises(NoReturnError):
        return_map(params_c_special, transient, budget=3000)


def test_return_map_wide_sector():
    # the 8-step reference sector exceeds pi for larger a; the
    # breakpoint recipe must still produce the two family pieces
    from pwlin import FamilyId, family_b
    from pwlin.families import reference_sector

    a = 1.31
    params = Params(a, family_b(FamilyId.EX_A, a))
    sector = reference_sector(FamilyId.EX_A, a)
    assert sector.width > math.pi
    rmap = return_map(params, sector)
    assert [p.word for p in rmap.pieces] == ["-+++-", "++++"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-1.95, 1.95), st.floats(-1.95, 1.95),
       st.floats(0.0, 2 * math.pi), st.floats(0.02, 6.2))
def test_return_pieces_tile_sector(a, b, start, width):
    """The pieces run CCW from sector.start to sector.end, each one
    starting where the previous ends, and every piece matrix has det 1.
    (Slopes inside (-2, 2) leave no invariant ray; an orbit can still
    be caught by an attracting cycle off the sector: NoReturnError.)"""
    sector = Sector(Ray.at_angle(start), Ray.at_angle(start + width))
    try:
        rmap = return_map(Params(a, b), sector)
    except NoReturnError:
        assume(False)
    subs = [piece.subsector for piece in rmap.pieces]
    assert subs[0].start == sector.start and subs[-1].end == sector.end
    assert all(s.end == t.start for s, t in zip(subs, subs[1:]))
    offsets = [(s.start.angle - sector.start.angle) % (2 * math.pi)
               for s in subs[1:]]
    assert offsets == sorted(offsets)
    assert all(0.0 < o < sector.width for o in offsets)
    assert abs(sum(s.width for s in subs) - sector.width) <= 1e-9
    assert all(abs(piece.matrix.det() - 1.0) <= 1e-9
               for piece in rmap.pieces)


# --------------------------- commutators ---------------------------

def test_commutator_identity():
    m = Mat2(0.3, 1.2, -0.7, 0.4)
    assert commutator_residual(Mat2.identity(), m) == 0.0


def test_commutator_family_pieces():
    a = 1.2
    m1 = Mat2(a, 1 - a * a, a * a - 1, 2 * a - a**3)
    m2 = Mat2(a**4 - 3 * a * a + 1, 2 * a - a**3, a**3 - 2 * a, 1 - a * a)
    assert commutator_residual(m1, m2) <= 1e-12


def test_commutator_generic_pair():
    rng = random.Random(30)
    p = Params(1.3, -0.8)
    hits = 0
    for _ in range(20):
        w1 = "".join(rng.choice("+-") for _ in range(6))
        w2 = "".join(rng.choice("+-") for _ in range(7))
        if commutator_residual(word_matrix(p, w1), word_matrix(p, w2)) > 0.01:
            hits += 1
    assert hits >= 15  # generic words do not commute


# --------------------------- orbit relations ---------------------------

def test_orbit_relation_quarter_rotation():
    rel = orbit_relation(Params(0.0, 0.0))
    assert rel is not None
    assert rel.n == 2 and rel.lam == -1.0


def test_orbit_relation_eight_step(params_a12):
    rel = orbit_relation(params_a12)
    assert rel.n == -8
    assert abs(rel.lam + 1.0) <= 1e-9


def test_orbit_relation_ten_step():
    params = Params(0.1, family_b(FamilyId.EX_B, 0.1))
    rel = orbit_relation(params)
    assert rel.n == 10
    assert abs(rel.lam + 1.0) <= 1e-9


def test_orbit_relation_none():
    # generic parameters: no axis return within a small budget
    assert orbit_relation(Params(0.2, -0.7), max_iter=500) is None


def test_orbit_relation_divergent_returns_none():
    # both directions blow up without an axis hit
    assert orbit_relation(Params(3.0, 3.0), max_iter=50_000) is None


# --------------------------- distinguished sets ---------------------------

def _cyclic_match(got_order, want_order):
    n = len(want_order)
    if len(got_order) != n:
        return False
    doubled = want_order + want_order
    return any(doubled[i:i + n] == got_order for i in range(n))


def test_distinguished_set_eight_step(params_a12):
    rel = orbit_relation(params_a12)
    points = distinguished_set(params_a12, rel)
    assert len(points) == 8
    orbit, _ = iterate(params_a12, (0.0, -1.0), 8)
    labels = []
    for p in points:
        j = min(range(1, 9), key=lambda k: math.hypot(p[0] - orbit[k][0],
                                                      p[1] - orbit[k][1]))
        labels.append(j)
    assert _cyclic_match(labels, [1, 6, 2, 7, 3, 8, 4, 5])


def test_distinguished_set_ten_step():
    params = Params(0.1, family_b(FamilyId.EX_B, 0.1))
    rel = orbit_relation(params)
    points = distinguished_set(params, rel)
    assert len(points) == 10
    orbit, _ = iterate(params, (0.0, 1.0), 10)
    labels = []
    for p in points:
        j = min(range(1, 11), key=lambda k: math.hypot(p[0] - orbit[k][0],
                                                       p[1] - orbit[k][1]))
        labels.append(j)
    assert _cyclic_match(labels, [1, 10, 6, 2, 7, 3, 8, 4, 9, 5])


def test_distinguished_set_quarter_rotation():
    rel = orbit_relation(Params(0.0, 0.0))
    points = distinguished_set(Params(0.0, 0.0), rel)
    assert len(points) == 2
    pts = sorted(points)
    assert math.hypot(pts[0][0] + 1.0, pts[0][1]) <= 1e-12
    assert math.hypot(pts[1][0], pts[1][1] + 1.0) <= 1e-12


def test_distinguished_sectors_partition(params_a12):
    rel = orbit_relation(params_a12)
    points = distinguished_set(params_a12, rel)
    sectors = distinguished_sectors(points)
    assert len(sectors) == 8
    total = sum(s.width for s in sectors)
    assert abs(total - 2 * math.pi) <= 1e-9


def test_exactly_two_pieces_on_distinguished_sectors(params_a12):
    rel = orbit_relation(params_a12)
    points = distinguished_set(params_a12, rel)
    rays = [Ray.through(p) for p in points]
    for sector in distinguished_sectors(points):
        rmap = return_map(params_a12, sector, distinguished=rays)
        assert len(rmap.pieces) == 2
        resid = commutator_residual(rmap.pieces[0].matrix,
                                    rmap.pieces[1].matrix)
        assert resid <= 1e-9


def test_step_count_additivity(params_a12):
    """Visit frequencies of the two pieces reproduce the rotation
    number: each return is one revolution, the pieces take 5 and 4
    steps, so (m1 + m2) / (5*m1 + 4*m2) tracks the winding average."""
    from pwlin import rotation_number

    sector, _ = _reference_sector_a(params_a12)
    rmap = return_map(params_a12, sector)
    bp_angle = rmap.pieces[1].subsector.start.angle
    rel_bp = (bp_angle - sector.start.angle) % (2 * math.pi)
    t = sector.angle_at(0.37)
    u = (math.cos(t), math.sin(t))
    m1 = m2 = 0
    for _ in range(2000):
        rel = (angle_of(u) - sector.start.angle) % (2 * math.pi)
        piece = rmap.pieces[0] if rel < rel_bp else rmap.pieces[1]
        if piece is rmap.pieces[0]:
            m1 += 1
        else:
            m2 += 1
        u = piece.matrix.apply(u)
        r = math.hypot(*u)
        u = (u[0] / r, u[1] / r)
    total_steps = 5 * m1 + 4 * m2
    empirical = (m1 + m2) / total_steps
    est = rotation_number(params_a12, (math.cos(t), math.sin(t)), total_steps)
    assert abs(empirical - est.value) <= 3.0 / total_steps
