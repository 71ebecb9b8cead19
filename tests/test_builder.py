"""Invariant-circle assembly, residual reporting, polyline export."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pwlin import (
    ConicClass,
    FamilyId,
    Params,
    build_invariant_circle,
    circle_to_polyline,
    family_b,
    iterate,
    orbit_relation,
    residual_report,
)
from pwlin.builder import _residual_walk
from pwlin.circle import angle_of
from pwlin.core import inverse_step, step
from pwlin.errors import (
    ArgumentError,
    AsymptoteInSectorError,
    OrbitOverflowError,
    PeriodicSuspectError,
)
from pwlin.returnmap import Ray, Sector

from conftest import A_SPECIAL, ALPHA0, B_SPECIAL, C_SPECIAL


@pytest.fixture(scope="module")
def circle_a_special():
    a = 2.0 ** 0.25
    params = Params(a, -a)
    rel = orbit_relation(params)
    return build_invariant_circle(params, rel)


def test_eight_arc_ellipse_circle(circle_a_special):
    c = circle_a_special
    assert c.sector_count == 8
    assert c.conic_class is ConicClass.ELLIPSE
    assert all(arc.conic_class is ConicClass.ELLIPSE for arc in c.arcs)
    assert c.max_gap <= 1e-6
    assert c.max_residual <= 1e-10


def test_arc_count_bound(circle_a_special):
    assert circle_a_special.sector_count <= abs(circle_a_special.n)


@pytest.mark.parametrize("a, want", [
    (0.1, ConicClass.ELLIPSE),
    (ALPHA0, ConicClass.PARALLEL_LINES),
    (B_SPECIAL, ConicClass.HYPERBOLA),
])
def test_ten_step_family_regimes(a, want):
    params = Params(a, family_b(FamilyId.EX_B, a))
    orbit, _ = iterate(params, (0.0, 1.0), 10)
    assert math.hypot(orbit[-1][0], orbit[-1][1] + 1.0) <= 1e-9
    rel = orbit_relation(params)
    circle = build_invariant_circle(params, rel)
    assert circle.sector_count == 10
    assert circle.conic_class is want
    assert circle.max_gap <= 1e-6


def test_divergent_family_raises_asymptote(params_c_special):
    rel = orbit_relation(params_c_special)
    assert rel.n == -13
    with pytest.raises(AsymptoteInSectorError):
        build_invariant_circle(params_c_special, rel)


def test_periodic_suspect():
    params = Params(1.0, 1.0)
    rel = orbit_relation(params)
    assert rel is not None and rel.lam == -1.0
    with pytest.raises(PeriodicSuspectError):
        build_invariant_circle(params, rel)


@pytest.mark.parametrize("a, b", [(2.0 ** 0.25, -(2.0 ** 0.25)), (1.0, 1.0)])
def test_bad_sample_count_is_not_a_sector_failure(a, b):
    # raised as it is, not collected as a failed sector (and at (1, 1)
    # not wrapped into the periodicity suspicion)
    params = Params(a, b)
    with pytest.raises(ArgumentError, match="need at least two samples"):
        build_invariant_circle(params, orbit_relation(params), n_samples=1)


def test_residual_long_orbit(circle_a_special):
    max_res, per_sector = residual_report(circle_a_special, orbit_len=50_000)
    assert max_res <= 1e-8
    assert len(per_sector) == 8
    assert max(per_sector) == max_res


def test_residual_scales_exactly(circle_a_special):
    """Dyadic scaling commutes with rounding: the orbit of 4*(0,1)
    against levels scaled by 16 reproduces the raw residuals exactly
    (up to the report's normalization round-trip)."""
    _, base_per = residual_report(circle_a_special, orbit_len=2000)
    scaled_arcs = [dataclasses.replace(arc, level=16.0 * arc.level)
                   for arc in circle_a_special.arcs]
    scaled = dataclasses.replace(circle_a_special, arcs=scaled_arcs)
    _, sper = residual_report(scaled, orbit_len=2000, start=(0.0, 4.0))
    for arc, sarc, r, s in zip(circle_a_special.arcs, scaled_arcs,
                               base_per, sper):
        raw = r * max(1.0, abs(arc.level))
        sraw = s * max(1.0, abs(sarc.level))
        assert sraw == pytest.approx(16.0 * raw, rel=1e-12)


def test_residual_detects_off_curve_parameters(circle_a_special):
    a = circle_a_special.params.a
    perturbed = dataclasses.replace(circle_a_special,
                                    params=Params(a, circle_a_special.params.b + 1e-3))
    max_res, _ = residual_report(perturbed, orbit_len=10_000)
    assert max_res > 1e-4


def test_polyline_counts(circle_a_special):
    poly = circle_to_polyline(circle_a_special, samples_per_arc=512)
    assert len(poly) == 8 * 512 - 7
    first, last = poly[0], poly[-1]
    assert math.hypot(first[0] - last[0], first[1] - last[1]) <= 1e-9 * max(
        1.0, math.hypot(*first))


def test_polyline_on_level_sets(circle_a_special):
    poly = circle_to_polyline(circle_a_special)
    for p in poly:
        on_some = any(
            abs(arc.form(p) - arc.level) <= 1e-9 * max(1.0, abs(arc.level))
            for arc in circle_a_special.arcs)
        assert on_some


def test_polyline_winding_number(circle_a_special):
    poly = circle_to_polyline(circle_a_special, samples_per_arc=128)
    total = 0.0
    for p, q in zip(poly, poly[1:]):
        total += math.atan2(p[0] * q[1] - p[1] * q[0],
                            p[0] * q[0] + p[1] * q[1])
    assert round(total / (2 * math.pi)) == 1


def _polyline_distance(points, poly):
    """Distance of each point to the closed polyline (segments)."""
    import numpy as np

    pts = np.asarray(points)
    seg_a = np.asarray(poly)
    seg_b = np.roll(seg_a, -1, axis=0)
    d = seg_b - seg_a                                    # (m, 2)
    len2 = np.maximum((d ** 2).sum(axis=1), 1e-300)
    rel = pts[:, None, :] - seg_a[None, :, :]            # (n, m, 2)
    t = np.clip((rel * d[None, :, :]).sum(axis=2) / len2, 0.0, 1.0)
    foot = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    dist = np.sqrt(((pts[:, None, :] - foot) ** 2).sum(axis=2))
    return dist.min(axis=1)


def test_circle_is_invariant_set(circle_a_special):
    """The image of every polyline sample stays within 1e-6 (relative,
    nearest point on the polyline) of the polyline: the circle is
    invariant as a set."""
    from pwlin import step

    poly = circle_to_polyline(circle_a_special, samples_per_arc=2048)
    probe = circle_to_polyline(circle_a_special, samples_per_arc=128)
    images = [step(circle_a_special.params, p) for p in probe]
    dists = _polyline_distance(images, poly)
    scales = [max(1.0, math.hypot(*im)) for im in images]
    assert all(d <= 1e-6 * s for d, s in zip(dists, scales))


def test_rejects_positive_lambda_relation():
    params = Params(1.0, 1.0)
    rel = orbit_relation(params)
    bad = dataclasses.replace(rel, lam=1.0)
    with pytest.raises(ValueError):
        build_invariant_circle(params, bad)


# ------------------- residual report against the scalar loop -------------------

def _reference_residual_report(circle, orbit_len=100_000, start=(0.0, 1.0)):
    """Per-point scalar loop over ``step``, ``angle_of``, the sectors in
    CCW order and ``QuadraticForm.__call__``: the oracle that the
    chunked report must reproduce bit for bit."""
    per_sector = [0.0] * len(circle.arcs)
    sector_data = [
        (arc.sector.start_angle, arc.sector.width, arc.form, arc.level)
        for arc in circle.arcs
    ]
    p = start
    params = circle.params
    for _ in range(orbit_len):
        p = step(params, p)
        t = angle_of(p)
        for i, (start_angle, width, form, level) in enumerate(sector_data):
            rel = math.fmod(t - start_angle, 2.0 * math.pi)
            if rel < 0.0:
                rel += 2.0 * math.pi
            if rel < width:
                scale = max(1.0, abs(level))
                r = abs(form(p) - level) / scale
                if r > per_sector[i]:
                    per_sector[i] = r
                break
    return max(per_sector), per_sector


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except OrbitOverflowError as exc:
        return ("overflow", str(exc))


@pytest.fixture(scope="module")
def report_circles():
    """Circles of the 8-step (A) and 10-step (B) families at the special
    points, plus one elliptic B point.  Family C has no certified circle
    (an asymptote lies in a sector), so its case runs the B circle's
    arcs under the C slopes: a divergent orbit that overflows."""
    circles = {}
    for name, a, b in (("A", A_SPECIAL, -A_SPECIAL),
                       ("B", B_SPECIAL, -B_SPECIAL),
                       ("B-ellipse", 0.1, family_b(FamilyId.EX_B, 0.1))):
        params = Params(a, b)
        circles[name] = build_invariant_circle(params, orbit_relation(params))
    assert [c.sector_count for c in circles.values()] == [8, 10, 10]
    circles["C-slopes"] = dataclasses.replace(
        circles["B"], params=Params(C_SPECIAL, -C_SPECIAL))
    return circles


@pytest.mark.parametrize("name", ["A", "B", "B-ellipse", "C-slopes"])
@pytest.mark.parametrize("orbit_len", [0, 1, 4095, 4096, 4097, 100_000])
def test_residual_report_matches_scalar_loop(report_circles, name, orbit_len):
    circle = report_circles[name]
    got = _outcome(residual_report, circle, orbit_len=orbit_len)
    want = _outcome(_reference_residual_report, circle, orbit_len=orbit_len)
    assert got == want
    if name == "C-slopes" and orbit_len == 100_000:
        assert got[0] == "overflow"


def test_residual_report_start_and_nan_level(report_circles):
    """A NaN residual is never recorded and does not hide the other
    points of its chunk; a start off (0, 1) follows the same loop."""
    circle = report_circles["A"]
    arcs = list(circle.arcs)
    arcs[2] = dataclasses.replace(arcs[2], level=math.nan)
    arcs[5] = dataclasses.replace(arcs[5], level=math.inf)
    odd = dataclasses.replace(circle, arcs=arcs)
    got = residual_report(odd, orbit_len=5000, start=(0.3, -0.7))
    assert got == _reference_residual_report(odd, 5000, start=(0.3, -0.7))
    per_sector = got[1]
    assert per_sector[2] == 0.0 and per_sector[5] == 0.0
    assert all(r > 0.0 for i, r in enumerate(per_sector) if i not in (2, 5))


def test_residual_report_nan_orbit_is_not_overflow(report_circles):
    # an infinite slope sends (0, 1) to NaN, which never compares above
    # the limit: the per-step loop keeps going, and so must the chunks
    circle = dataclasses.replace(report_circles["A"],
                                 params=Params(math.inf, -A_SPECIAL))
    got = _outcome(residual_report, circle, orbit_len=4097)
    assert got == _outcome(_reference_residual_report, circle, orbit_len=4097)
    assert got == (0.0, [0.0] * 8)


@pytest.mark.parametrize("orbit_len, keep", [(0, 0), (7, 7), (4097, 4097),
                                             (100_000, 20_000)])
def test_residual_walk_keeps_the_iterated_prefix(report_circles, orbit_len,
                                                  keep):
    circle = report_circles["B"]
    got, per_sector, (xs, ys) = _residual_walk(circle, orbit_len, (0.0, 1.0),
                                               keep)
    assert (got, per_sector) == residual_report(circle, orbit_len=orbit_len)
    orbit = iterate(circle.params, (0.0, 1.0), keep)[0]
    assert xs.dtype == ys.dtype == np.float64
    assert xs.tolist() == [p[0] for p in orbit]
    assert ys.tolist() == [p[1] for p in orbit]


def _boundary_starts(circle):
    """Starts on and a few ulps either side of every sector boundary
    (each arc's start and end ray, and angle 0), at two radii, and their
    preimages, whose first image lands on the boundary to rounding."""
    angles = [0.0]
    points = []
    for arc in circle.arcs:
        sector = arc.sector
        points += [sector.start.direction, sector.end.direction]
        angles += [sector.start_angle,
                   math.fmod(sector.start_angle + sector.width, 2.0 * math.pi)]
    for t in angles:
        lo = hi = t
        for _ in range(12):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            points += [(math.cos(lo), math.sin(lo)), (math.cos(hi), math.sin(hi))]
    starts = [(r * x, r * y) for x, y in points for r in (1.0, 3.0)]
    return starts + [inverse_step(circle.params, p) for p in starts]


@pytest.mark.parametrize("name", ["A", "B", "B-ellipse"])
def test_residual_report_on_sector_boundaries(report_circles, name):
    # one step each, so the per-sector maxima show the sector the point
    # was given; numpy's and libm's atan2 can put such points on
    # opposite sides of a boundary
    circle = report_circles[name]
    for start in _boundary_starts(circle):
        got = residual_report(circle, orbit_len=1, start=start)
        assert got == _reference_residual_report(circle, 1, start=start), start


def test_residual_report_angle_rounding_to_two_pi(report_circles):
    # atan2 gives -1e-300; adding 2*pi rounds to 2*pi, which angle_of
    # maps to 0 (the point is off the circle, so its residual is not 0)
    circle = report_circles["A"]
    start = (-2e-300, -2.0)
    assert step(circle.params, start) == (2.0, -2e-300)
    assert angle_of((2.0, -2e-300)) == 0.0
    got = residual_report(circle, orbit_len=1, start=start)
    assert got == _reference_residual_report(circle, 1, start=start)
    (hit,) = [i for i, r in enumerate(got[1]) if r > 0.0]
    assert circle.arcs[hit].sector.contains_angle(0.0)


def test_residual_report_overlapping_sectors_and_gap(report_circles):
    # arc 2's sector also spans arcs 1 and 3: the first arc in CCW order
    # wins, so arc 3 gets no point; the second half of arc 5's sector
    # lies in no sector, and its points are skipped
    circle = report_circles["A"]
    arcs = list(circle.arcs)
    arcs[2] = dataclasses.replace(
        arcs[2], sector=Sector(arcs[1].sector.start, arcs[3].sector.end))
    half = arcs[5].sector.angle_at(0.5)
    arcs[5] = dataclasses.replace(
        arcs[5], sector=Sector(arcs[5].sector.start, Ray.at_angle(half)))
    edited = dataclasses.replace(circle, arcs=arcs)
    for start in ((0.0, 1.0), (0.3, -0.7)):
        got = residual_report(edited, orbit_len=20_000, start=start)
        assert got == _reference_residual_report(edited, 20_000, start=start)
        assert got[1][3] == 0.0
        assert got[1][1] > 0.0 and got[1][2] > 0.0 and got[1][5] > 0.0
    for start in _boundary_starts(edited):
        got = residual_report(edited, orbit_len=1, start=start)
        assert got == _reference_residual_report(edited, 1, start=start), start


@given(name=st.sampled_from(["A", "B", "B-ellipse"]),
       x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0))
def test_residual_report_random_starts(report_circles, name, x, y):
    circle = report_circles[name]
    got = residual_report(circle, orbit_len=300, start=(x, y))
    assert got == _reference_residual_report(circle, 300, start=(x, y))


def test_residual_report_overflowing_start(report_circles):
    # one step each: an escaping start component (the second start has
    # a tiny image), and an image escaping either way
    circle = report_circles["A"]
    a = circle.params.a
    for start in ((2e300, a * 2e300), (2e300, 0.0), (0.0, 2e300)):
        with pytest.raises(OrbitOverflowError) as got:
            residual_report(circle, orbit_len=1, start=start)
        with pytest.raises(OrbitOverflowError) as want:
            _reference_residual_report(circle, 1, start=start)
        assert str(got.value) == str(want.value)
