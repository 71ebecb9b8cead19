"""Invariant forms, conic classification, arcs, eigenrays."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pwlin import (
    ConicClass,
    FamilyId,
    Mat2,
    Params,
    QuadraticForm,
    Ray,
    Sector,
    arc_in_sector,
    eigenrays,
    invariant_form,
    level_through,
    word_matrix,
)
from pwlin.circle import angle_of
from pwlin.builder import _check_preserves
from pwlin.conics import _boundary_point, conic_class_of_trace, null_directions
from pwlin.errors import (AsymptoteInSectorError, DegenerateError,
                          DegenerateMatrixError, PwlinError)
from pwlin.families import alpha0, piece_matrices, reference_sector

from conftest import A_SPECIAL, B_SPECIAL, C_SPECIAL


def _random_sl2(rng, params):
    word = "".join(rng.choice("+-") for _ in range(rng.randrange(1, 12)))
    return word_matrix(params, word)


def test_invariant_form_rotation_matrix():
    form = invariant_form(Mat2(0.0, -1.0, 1.0, 0.0))
    assert (form.A, form.B, form.C) == (1.0, 0.0, 1.0)
    assert form((0.7, -0.2)) == pytest.approx(0.7**2 + 0.2**2, abs=1e-15)


def test_invariant_form_rejects_identity():
    with pytest.raises(DegenerateMatrixError):
        invariant_form(Mat2.identity())
    with pytest.raises(DegenerateMatrixError):
        invariant_form(Mat2(-1.0, 0.0, 0.0, -1.0))
    with pytest.raises(DegenerateMatrixError):
        invariant_form(Mat2(2.0, 0.0, 0.0, 2.0))  # det 4


def test_invariant_form_names_a_non_finite_entry():
    # the step factor of slope 1e200 squared has an inf entry; its NaN
    # determinant and inf scale would pass the det and identity tests
    m = word_matrix(Params(1e200, -1.0), "++")
    with pytest.raises(DegenerateMatrixError, match="non-finite entry"):
        invariant_form(m)


def test_invariant_form_of_a_steep_step_factor():
    # entries past 1.34e154 overflow a float square; the tolerances
    # saturate to inf instead
    m = word_matrix(Params(1e200, -1.0), "+")
    form = invariant_form(m)
    assert (form.A, form.B, form.C) == (1e-200, -0.5, 1e-200)
    _check_preserves(form, m)


def test_disc_saturates_to_inf():
    assert QuadraticForm(0.0, 6.7e153, 0.0).disc == 1.7956e308
    assert QuadraticForm(0.0, 1e154, 0.0).disc == math.inf
    assert QuadraticForm(1e200, 0.0, -1e200).disc == math.inf
    assert QuadraticForm(1e200, 0.0, 1e200).disc == -math.inf


def test_disc_is_minus_four_det_of_the_generator():
    form = QuadraticForm.normalized(0.6, -0.8, 0.3)
    k = form.generator()
    assert (k.m11, k.m12, k.m21, k.m22) == (-form.B, -form.C, form.A, form.B)
    assert k.trace() == 0.0
    assert form.disc == (2.0 * form.B) ** 2 - 4.0 * form.A * form.C
    quarter = form.disc / 4.0
    assert (k @ k).dist(Mat2(quarter, 0.0, 0.0, quarter)) <= 1e-15


def test_invariant_form_elliptic_special_point():
    m1, _ = piece_matrices(FamilyId.EX_A, A_SPECIAL)
    form = invariant_form(m1)
    assert form.disc < 0.0


def test_form_is_invariant():
    rng = random.Random(50)
    p = Params(1.3, -0.6)
    for _ in range(300):
        m = _random_sl2(rng, p)
        try:
            form = invariant_form(m)
        except DegenerateMatrixError:
            continue
        for _ in range(10):
            v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            r2 = v[0] ** 2 + v[1] ** 2
            assert abs(form(m.apply(v)) - form(v)) <= 1e-10 * max(1.0, r2) * m.max_abs() ** 2


def test_commuting_matrix_preserves_partner_form(params_a12):
    m1, m2 = piece_matrices(FamilyId.EX_A, 1.2)
    form = invariant_form(m1)
    rng = random.Random(51)
    for _ in range(100):
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(form(m2.apply(v)) - form(v)) <= 1e-10 * max(1.0, v[0]**2 + v[1]**2)


def test_form_of_inverse_matches():
    rng = random.Random(52)
    p = Params(0.9, -1.4)
    for _ in range(100):
        m = _random_sl2(rng, p)
        try:
            f1 = invariant_form(m)
            f2 = invariant_form(Mat2(m.m22, -m.m12, -m.m21, m.m11))
        except DegenerateMatrixError:
            continue
        assert abs(f1.A - f2.A) <= 1e-9
        assert abs(f1.B - f2.B) <= 1e-9
        assert abs(f1.C - f2.C) <= 1e-9


def _conic_class(m):
    """Conic class of the invariant level sets of m (raises on +-I)."""
    invariant_form(m)
    return conic_class_of_trace(m.trace())


def test_classify_ellipse_regime():
    for a in (1.05, 1.2, 1.35):
        m1, _ = piece_matrices(FamilyId.EX_A, a)
        assert _conic_class(m1) is ConicClass.ELLIPSE
        assert abs(m1.trace() - (3 * a - a**3)) <= 1e-12


def test_classify_threshold_cases():
    a0 = alpha0()
    _, m4 = piece_matrices(FamilyId.EX_B, a0)
    assert _conic_class(m4) is ConicClass.PARALLEL_LINES
    _, m4h = piece_matrices(FamilyId.EX_B, 0.78615)
    assert _conic_class(m4h) is ConicClass.HYPERBOLA
    _, m4e = piece_matrices(FamilyId.EX_B, 0.1)
    assert _conic_class(m4e) is ConicClass.ELLIPSE


def test_classification_matches_disc_sign():
    rng = random.Random(53)
    p = Params(1.8, -2.1)
    for _ in range(200):
        m = _random_sl2(rng, p)
        try:
            form = invariant_form(m)
        except DegenerateMatrixError:
            continue
        cls = conic_class_of_trace(m.trace())
        if cls is ConicClass.ELLIPSE:
            assert form.disc < 0.0
        elif cls is ConicClass.HYPERBOLA:
            assert form.disc > 0.0


def test_level_through():
    circle = QuadraticForm(1.0, 0.0, 1.0)
    assert level_through(circle, (0.0, 1.0)) == 1.0
    rng = random.Random(54)
    form = QuadraticForm.normalized(0.6, -0.8, 0.3)
    for _ in range(50):
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        if v == (0.0, 0.0):
            continue
        assert level_through(form, (2 * v[0], 2 * v[1])) == pytest.approx(
            4 * level_through(form, v), rel=1e-14)


def test_level_invariant_along_return(params_a12):
    from pwlin import iterate, return_map

    sector = reference_sector(FamilyId.EX_A, 1.2)
    rmap = return_map(params_a12, sector)
    orbit, _ = iterate(params_a12, (0.0, -1.0), 8)
    v4 = orbit[4]
    form = invariant_form(rmap.pieces[0].matrix)
    image = rmap.pieces[1].matrix.apply(v4)  # v4 sits on the second piece's ray
    assert abs(form(image) - form(v4)) <= 1e-10


def _max_level_residual(arc):
    """Largest relative miss of the level by the arc's samples."""
    scale = max(1.0, abs(arc.level))
    return max(abs(arc.form(p) - arc.level) / scale for p in arc.samples)


def test_quarter_circle_arc():
    form = QuadraticForm(1.0, 0.0, 1.0)
    quadrant = Sector(Ray.through((1.0, 0.0)), Ray.through((0.0, 1.0)))
    arc = arc_in_sector(form, 1.0, quadrant, (1.0, 0.0), n_samples=101)
    assert arc.conic_class is ConicClass.ELLIPSE
    first, last = arc.samples[0], arc.samples[-1]
    assert math.hypot(first[0] - 1.0, first[1]) <= 1e-9
    assert math.hypot(last[0], last[1] - 1.0) <= 1e-9
    assert _max_level_residual(arc) <= 1e-9
    angles = [angle_of(s) for s in arc.samples]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_trace_class_decides_a_near_zero_discriminant():
    # a long ellipse normalized to a largest coefficient of 1 has a
    # discriminant inside conic_class's absolute tolerance
    form = QuadraticForm(1.0, 0.0, 5e-10)
    assert form.conic_class() is ConicClass.PARALLEL_LINES
    quadrant = Sector(Ray.through((1.0, 0.0)), Ray.through((0.0, 1.0)))
    arc = arc_in_sector(form, 1.0, quadrant, (1.0, 0.0), n_samples=101,
                        trace_class=ConicClass.ELLIPSE)
    assert arc.conic_class is ConicClass.ELLIPSE
    assert _max_level_residual(arc) <= 1e-9
    # a discriminant clear of zero keeps the form's class
    arc = arc_in_sector(QuadraticForm(1.0, 0.0, 1.0), 1.0, quadrant,
                        (1.0, 0.0), trace_class=ConicClass.HYPERBOLA)
    assert arc.conic_class is ConicClass.ELLIPSE


def test_arc_continuity_across_sectors(params_a_special):
    from pwlin import (
        build_invariant_circle,
        orbit_relation,
    )

    rel = orbit_relation(params_a_special)
    circle = build_invariant_circle(params_a_special, rel)
    arcs = circle.arcs
    for i, arc in enumerate(arcs):
        nxt = arcs[(i + 1) % len(arcs)]
        pa, pb = arc.samples[-1], nxt.samples[0]
        assert math.hypot(pa[0] - pb[0], pa[1] - pb[1]) <= 1e-8 * max(
            1.0, math.hypot(*pa))


def test_arc_asymptote_in_sector(params_c_special):
    from pwlin import iterate, return_map

    sector = reference_sector(FamilyId.EX_C, C_SPECIAL)
    rmap = return_map(params_c_special, sector, budget=4000)
    form = invariant_form(rmap.pieces[0].matrix)
    orbit, _ = iterate(params_c_special, (0.0, -1.0), 13)
    anchor = orbit[9]
    with pytest.raises(AsymptoteInSectorError) as err:
        arc_in_sector(form, form(anchor), sector, anchor)
    assert err.value.eigenray is not None


def test_eigenrays_diagonal():
    rays = eigenrays(Mat2(2.0, 0.0, 0.0, 0.5))
    angles = sorted(r.angle for r in rays)
    assert len(rays) == 2
    assert abs(angles[0] - 0.0) <= 1e-12
    assert abs(angles[1] - math.pi / 2) <= 1e-12


def test_eigenrays_rotation_empty():
    assert eigenrays(Mat2(0.0, -1.0, 1.0, 0.0)) == []
    c, s = math.cos(0.3), math.sin(0.3)
    assert eigenrays(Mat2(c, -s, s, c)) == []


def test_eigenrays_of_large_entries_are_finite():
    rays = eigenrays(Mat2(1e200, 1.0, 1.0, -1e200))
    assert [r.direction for r in rays] == [(1.0, 5e-201), (-5e-201, 1.0)]


def test_null_lines_of_an_unnormalized_large_form():
    lines = null_directions(QuadraticForm(0.0, 1e200, 0.0))
    assert sorted((abs(x), abs(y)) for x, y in lines) == [(0.0, 1.0),
                                                          (1.0, 0.0)]


def test_eigenrays_divergent_family_inside_sector(params_c_special):
    from pwlin import return_map

    sector = reference_sector(FamilyId.EX_C, C_SPECIAL)
    rmap = return_map(params_c_special, sector, budget=4000)
    j1 = rmap.pieces[0].subsector
    rays = eigenrays(rmap.pieces[0].matrix)
    assert len(rays) == 2
    for ray in rays:
        d = ray.direction
        assert j1.contains(d) or j1.contains((-d[0], -d[1]))


def test_hyperbolic_arc_samples(params_c_special):
    # hyperbolic form, asymptotes outside the probed sector
    _, m4 = piece_matrices(FamilyId.EX_B, B_SPECIAL)
    form = invariant_form(m4)
    assert form.conic_class() is ConicClass.HYPERBOLA
    third = Sector(Ray.through((-1.0, 0.0)), Ray.through((0.0, -1.0)))
    anchor = (-1.0, 0.0)
    arc = arc_in_sector(form, form(anchor), third, anchor, n_samples=64)
    assert _max_level_residual(arc) <= 1e-9
    angles = [angle_of(s) for s in arc.samples]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_line_arc_samples():
    a0 = alpha0()
    _, m4 = piece_matrices(FamilyId.EX_B, a0)
    form = invariant_form(m4)
    third = Sector(Ray.through((-1.0, 0.0)), Ray.through((0.0, -1.0)))
    anchor = (-1.0, 0.0)
    arc = arc_in_sector(form, form(anchor), third, anchor, n_samples=64)
    assert arc.conic_class is ConicClass.PARALLEL_LINES
    # collinear samples
    p0, p1, pn = arc.samples[0], arc.samples[1], arc.samples[-1]
    cross = (p1[0] - p0[0]) * (pn[1] - p0[1]) - (p1[1] - p0[1]) * (pn[0] - p0[0])
    assert abs(cross) <= 1e-9
    assert _max_level_residual(arc) <= 1e-9


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _det_one(a, b, trace):
    return Mat2(a, b, (a * (trace - a) - 1.0) / b, trace - a)


_SIDE = st.floats(0.3, 2.0) | st.floats(-2.0, -0.3)

# elliptic, hyperbolic and parabolic traces, and family B's pieces at
# the ellipse-hyperbola threshold
_UNIMODULAR = st.one_of(
    st.builds(_det_one, _SIDE, _SIDE, st.floats(-1.9, 1.9)),
    st.builds(_det_one, _SIDE, _SIDE,
              st.floats(2.1, 6.0) | st.floats(-6.0, -2.1)),
    st.builds(_det_one, _SIDE, _SIDE, st.sampled_from([2.0, -2.0])),
    st.sampled_from(piece_matrices(FamilyId.EX_B, alpha0())),
)


def _cone(form, k):
    """The k-th angular interval (lo, hi) free of null directions: a
    whole turn for an ellipse, else a gap between adjacent null lines,
    or its opposite."""
    cls = form.conic_class()
    if cls is ConicClass.ELLIPSE:
        lo = k * math.pi / 2
        return lo, lo + 2 * math.pi
    if cls is ConicClass.PARALLEL_LINES:
        A, B, C = form.A, form.B, form.C
        nulls = [(-B, A) if abs(A) >= abs(C) else (C, -B)]
    else:
        nulls = null_directions(form)
    angles = sorted(angle_of(d) % math.pi for d in nulls)
    gaps = list(zip(angles, angles[1:] + [angles[0] + math.pi]))
    lo, hi = gaps[k % len(gaps)]
    turn = math.pi * (k // len(gaps) % 2)
    return lo + turn, hi + turn


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_UNIMODULAR, st.integers(0, 3), st.floats(0.02, 0.9),
       st.floats(0.05, 0.95), st.floats(0.01, 0.95), st.floats(0.2, 3.0),
       st.integers(2, 600))
def test_flow_samples_match_the_eigenframe_samplers(m, k, f_start, f_end,
                                                    f_anchor, r, n):
    form = invariant_form(m)
    lo, hi = _cone(form, k)
    start = lo + (hi - lo) * f_start
    end = start + (hi - start) * f_end
    sector = Sector(Ray.at_angle(start), Ray.at_angle(end))
    phi = start + (end - start) * f_anchor
    anchor = (r * math.cos(phi), r * math.sin(phi))
    level = form(anchor)
    arc = arc_in_sector(form, level, sector, anchor, n)
    old = oracles.sample_arc(form, level, sector, anchor, n, arc.conic_class)
    for p, q in zip(arc.samples, old, strict=True):
        assert math.hypot(p[0] - q[0], p[1] - q[1]) <= 1e-9 * math.hypot(*q)
    assert arc.samples[0] == _boundary_point(form, level, sector.start)
    assert arc.samples[-1] == _boundary_point(form, level, sector.end)
    areas = [_cross(p, q) for p, q in zip(arc.samples, arc.samples[1:])]
    assert max(areas) - min(areas) <= 1e-9 * max(map(abs, areas))


def _level_point(form, degrees):
    return _boundary_point(form, 1.0, Ray.at_angle(math.radians(degrees)))


def _sector_deg(start, end):
    return Sector(Ray.at_angle(math.radians(start)),
                  Ray.at_angle(math.radians(end)))


def test_flow_running_clockwise_to_the_end_ray_is_degenerate():
    # a hyperbola inside the discriminant tolerance, labelled an ellipse
    # by its trace: the flow along the branch x ~ 1 leaves the 80 degree
    # ray towards 90 degrees and never reaches the 280 degree ray, whose
    # level point lies behind it
    form = QuadraticForm(1.0, 0.0, -1e-10)
    with pytest.raises(DegenerateError):
        arc_in_sector(form, 1.0, _sector_deg(80, 280), _level_point(form, 83),
                      n_samples=4, trace_class=ConicClass.ELLIPSE)


def test_parallel_lines_across_their_null_direction_are_degenerate():
    # the rays at 80 and 100 degrees meet the lines x = 1 and x = -1;
    # that is no asymptote to report, the arc leaves the sector
    form = QuadraticForm(1.0, 0.0, 0.0)
    with pytest.raises(DegenerateError):
        arc_in_sector(form, 1.0, _sector_deg(80, 100), _level_point(form, 83))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_FINITE, _FINITE, _FINITE, st.floats(-10.0, 10.0),
       st.floats(1e-6, 2 * math.pi), st.floats(0.0, 1.0),
       st.floats(1e-300, 1e300), st.none() | _FINITE, st.integers(2, 40),
       st.sampled_from([None, *ConicClass]))
def test_arcs_stay_in_their_sector_or_raise(A, B2, C, start, width, f, r,
                                            level, n, trace_class):
    # sectors at least 1e-6 wide, so that interior samples are apart
    # from the boundary rays in floats
    try:
        form = QuadraticForm.normalized(A, B2, C)
        sector = Sector(Ray.at_angle(start), Ray.at_angle(start + width))
    except DegenerateError:
        return
    phi = start + f * width
    anchor = (r * math.cos(phi), r * math.sin(phi))
    if level is None:
        level = form(anchor)
    try:
        arc = arc_in_sector(form, level, sector, anchor, n, trace_class)
    except PwlinError:
        return
    assert all(sector.contains(p) for p in arc.samples[1:-1])


def _same_line(u, v, tol):
    return abs(_cross(u, v)) <= tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_UNIMODULAR, st.integers(-60, 60))
def test_null_lines_are_the_eigenlines_of_the_return_piece(m, e):
    # the asymptotes of a hyperbolic piece's form are its eigenrays
    form = invariant_form(m)
    nulls = null_directions(form)
    cls = conic_class_of_trace(m.trace())
    if cls is ConicClass.ELLIPSE:
        assert nulls == []
    if cls is not ConicClass.HYPERBOLA:
        return
    rays = [r.direction for r in eigenrays(m)]
    assert len(nulls) == len(rays) == 2
    for d in nulls:
        assert abs(math.hypot(*d) - 1.0) <= 1e-15
        assert abs(form(d)) <= 1e-12
    assert ((_same_line(nulls[0], rays[0], 1e-12)
             and _same_line(nulls[1], rays[1], 1e-12))
            or (_same_line(nulls[0], rays[1], 1e-12)
                and _same_line(nulls[1], rays[0], 1e-12)))
    # eigenrays scales by a power of two first, so any such scale of the
    # input gives the same rays bit for bit
    scaled = Mat2(*(math.ldexp(v, e) for v in (m.m11, m.m12, m.m21, m.m22)))
    assert eigenrays(scaled) == eigenrays(m)


_RAW = st.floats(-1e300, 1e300)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_RAW, _RAW, _RAW, st.floats(-10.0, 10.0), st.floats(1e-6, 2 * math.pi),
       st.floats(0.0, 1.0), st.floats(1e-3, 1e3), st.integers(2, 40),
       st.sampled_from([None, *ConicClass]))
def test_raw_forms_give_an_arc_or_a_typed_error(A, B, C, start, width, f, r,
                                                n, trace_class):
    # unnormalized coefficients whose squares overflow a float
    form = QuadraticForm(A, B, C)
    sector = Sector(Ray.at_angle(start), Ray.at_angle(start + width))
    phi = start + f * width
    anchor = (r * math.cos(phi), r * math.sin(phi))
    try:
        arc = arc_in_sector(form, form(anchor), sector, anchor, n, trace_class)
    except PwlinError:
        return
    assert all(map(math.isfinite, (v for p in arc.samples for v in p)))
    assert all(sector.contains(p) for p in arc.samples[1:-1])
