"""Family curves, closed-form rotation numbers, verification reports,
and the parameter-slice curve finder."""
import math

import pytest

from pwlin import (
    FamilyId,
    Params,
    alpha0,
    closed_rotation,
    curve_find,
    family_b,
    verify_family,
)
from pwlin.errors import (ArgumentError, DomainError, NoBracketError,
                          SignConstraintError)
from pwlin.families import piece_matrices, trace_formula
from pwlin.scanner import norm_runs

from conftest import (
    A_SPECIAL,
    B_LAMBDA1,
    B_LAMBDA2,
    B_ROTATION,
    B_SPECIAL,
    C_SPECIAL,
    sextic_root_oracle,
)
from oracles import diverges_both_ways


# --------------------------- family curves ---------------------------

def test_family_b_eight_step():
    assert family_b(FamilyId.EX_A, 1.2) == pytest.approx(-1.309523809523809,
                                                         abs=1e-12)
    assert family_b(FamilyId.EX_A, A_SPECIAL) == pytest.approx(-A_SPECIAL,
                                                               abs=1e-12)


def test_family_b_ten_step_symmetric_point():
    assert family_b(FamilyId.EX_B, B_SPECIAL) == pytest.approx(-B_SPECIAL,
                                                               abs=1e-12)


def test_family_b_thirteen_step_symmetric_point():
    a = sextic_root_oracle()
    assert abs(a - C_SPECIAL) <= 1e-12
    assert family_b(FamilyId.EX_C, a) == pytest.approx(-a, abs=1e-10)


@pytest.mark.parametrize("family,bad_a", [
    (FamilyId.EX_A, 0.9), (FamilyId.EX_A, 1.5),
    (FamilyId.EX_B, -0.1), (FamilyId.EX_B, 1.0),
    (FamilyId.EX_C, 1.0), (FamilyId.EX_C, 2.0),
])
def test_family_b_domain(family, bad_a):
    with pytest.raises(DomainError):
        family_b(family, bad_a)


def test_family_b_satisfies_defining_relations():
    for i in range(100):
        a = 1.0 + (math.sqrt(2) - 1.0) * (i + 0.5) / 100.0
        b = family_b(FamilyId.EX_A, a)
        assert abs((a**3 - 2 * a) * b + 2 - 2 * a * a) <= 1e-13
    for i in range(100):
        a = (i + 0.5) / 100.0
        b = family_b(FamilyId.EX_B, a)
        assert abs((a**3 - 2 * a) * b * b - 3 * (a * a - 1) * b + 2 * a) <= 1e-13
        assert -math.sqrt(2) < b < 0


def test_family_b_cubic_form_at_threshold():
    a0 = alpha0()
    b = family_b(FamilyId.EX_B, a0)
    assert b == pytest.approx(a0**3 + 2 * a0**2 + a0 - 1, abs=1e-12)


# --------------------------- alpha0 ---------------------------

def test_alpha0_value():
    assert abs(alpha0() - 0.3802775690976) <= 1e-10


def test_alpha0_polynomial_residual():
    x = alpha0()
    assert abs(x**4 + 3 * x**3 + 3 * x**2 + x - 1) <= 1e-13


def test_alpha0_trace_threshold():
    assert abs(trace_formula(FamilyId.EX_B, alpha0()) - 2.0) <= 1e-9


# --------------------------- closed rotation ---------------------------

def test_closed_rotation_eight_step_rational_angle():
    # theta = 3*pi/10 gives the rational value 9/44 by direct substitution
    a = 2.0 * math.cos(3.0 * math.pi / 10.0)
    r = closed_rotation(FamilyId.EX_A, a)
    assert abs(r - 9.0 / 44.0) <= 1e-14


def test_closed_rotation_at_threshold():
    r = closed_rotation(FamilyId.EX_B, alpha0())
    a0 = alpha0()
    assert r == pytest.approx((2 * a0**2 + 1) / (9 * a0**2 + 4), abs=1e-15)
    assert r == pytest.approx(0.24318065407999641, abs=1e-12)


def test_closed_rotation_elliptic_regime_absent():
    assert closed_rotation(FamilyId.EX_B, 0.1) is None


def test_closed_rotation_thirteen_step():
    assert closed_rotation(FamilyId.EX_C, 1.25) == 0.2


def test_closed_rotation_hyperbolic_value():
    assert closed_rotation(FamilyId.EX_B, B_SPECIAL) == pytest.approx(
        B_ROTATION, abs=1e-12)


def test_closed_rotation_matches_winding_eight_step():
    import random

    from pwlin import rotation_number

    rng = random.Random(88)
    n = 10**6
    for _ in range(10):
        a = rng.uniform(1.02, 1.40)
        params = Params(a, family_b(FamilyId.EX_A, a))
        closed = closed_rotation(FamilyId.EX_A, a)
        est = rotation_number(params, (1.0, 0.0), n)
        assert abs(est.value - closed) <= 2.0 / n


# --------------------------- spectra ---------------------------

def test_ten_step_eigenvalues_at_symmetric_point():
    m13, m4 = piece_matrices(FamilyId.EX_B, B_SPECIAL)
    l1 = 0.5 * (m4.trace() + math.sqrt(m4.trace() ** 2 - 4.0))
    l2 = 0.5 * (m13.trace() + math.sqrt(m13.trace() ** 2 - 4.0))
    assert l1 == pytest.approx(B_LAMBDA1, abs=1e-12)
    assert l2 == pytest.approx(B_LAMBDA2, abs=1e-12)
    assert abs(l1**4 - 7 * l1**3 + 13 * l1**2 - 7 * l1 + 1) <= 1e-8
    assert abs(l2**8 + 23 * l2**6 - 77 * l2**4 + 23 * l2**2 + 1) <= 1e-7
    assert abs(m4.trace() - (B_SPECIAL**4 + 2.0)) <= 1e-12


def test_shared_eigenvector_assignment():
    """The expanding direction of the 4-step piece contracts by the
    13-step piece's inverse eigenvalue."""
    m13, m4 = piece_matrices(FamilyId.EX_B, B_SPECIAL)
    tr = m4.trace()
    l1 = 0.5 * (tr + math.sqrt(tr * tr - 4.0))
    # eigenvector of m4 for l1
    v = (m4.m12, l1 - m4.m11)
    image1 = m4.apply(v)
    assert math.hypot(image1[0] - l1 * v[0], image1[1] - l1 * v[1]) <= 1e-9
    tr2 = m13.trace()
    l2 = 0.5 * (tr2 + math.sqrt(tr2 * tr2 - 4.0))
    image2 = m13.apply(v)
    assert math.hypot(image2[0] - v[0] / l2, image2[1] - v[1] / l2) <= 1e-9


def test_thirteen_step_contracting_subsector():
    """The wedge between (-1,0) and (-1,-1) maps into itself under its
    return piece, which pins the rotation number at 1/5."""
    from pwlin import Ray, Sector, return_map
    from pwlin.families import reference_sector

    a = C_SPECIAL
    params = Params(a, -a)
    sector = reference_sector(FamilyId.EX_C, a)
    rmap = return_map(params, sector, budget=4000)
    m1 = rmap.pieces[0].matrix
    wedge = Sector(Ray.through((-1.0, 0.0)), Ray.through((-1.0, -1.0)))
    for frac in (0.01, 0.25, 0.5, 0.75, 0.99):
        t = wedge.angle_at(frac)
        image = m1.apply((math.cos(t), math.sin(t)))
        assert wedge.contains(image)


# --------------------------- verification reports ---------------------------

def test_verify_eight_step():
    report = verify_family(FamilyId.EX_A, 1.2, winding_steps=50_000)
    assert report.relation_index == 8
    assert report.passed
    assert report.regime == "ellipse"
    d = report.to_dict()
    assert d["schema_version"] == "v1"
    assert d["relation_index"] == 8


def test_verify_ten_step_hyperbolic():
    report = verify_family(FamilyId.EX_B, B_SPECIAL, winding_steps=50_000)
    assert report.passed
    assert report.regime == "hyperbola"
    names = {c.name: c for c in report.checks}
    assert names["minimal_poly_lambda1"].residual < 1e-8
    assert report.spectral.lambda1 == pytest.approx(B_LAMBDA1, abs=1e-12)


def test_verify_thirteen_step():
    report = verify_family(FamilyId.EX_C, C_SPECIAL, winding_steps=50_000)
    assert report.relation_index == 13
    assert report.rotation_closed == 0.2
    names = {c.name: c for c in report.checks}
    assert names["divergence"].passed
    assert report.passed


def test_divergence_check_surfaces_bugs():
    # only an orbit overflow counts as divergence; a TypeError from
    # malformed slopes propagates instead of reading as "diverges"
    with pytest.raises(TypeError):
        norm_runs(Params(None, None), 10, 1e6)


@pytest.mark.parametrize("family, a", [
    (FamilyId.EX_C, 1.02), (FamilyId.EX_C, 1.2), (FamilyId.EX_C, C_SPECIAL),
    (FamilyId.EX_C, 1.39), (FamilyId.EX_A, 1.2), (FamilyId.EX_B, 0.5),
])
def test_divergence_check_matches_scalar_oracle(family, a):
    # verify_family's divergence check against the per-step loop it
    # replaced: both directions pass 1e6 (or overflow) within 1e5 steps
    params = Params(a, family_b(family, a))
    runs = norm_runs(params, 100_000, 1e6)
    assert (min(runs.fwd_max, runs.bwd_max) > 1e6) == diverges_both_ways(
        params) == (family is FamilyId.EX_C)
    if family is FamilyId.EX_C:
        report = verify_family(family, a, winding_steps=20_000)
        assert {c.name: c for c in report.checks}["divergence"].passed


def test_divergence_check_fails_when_one_direction_stays_bounded(monkeypatch):
    import pwlin.families as families_mod
    from pwlin.scanner import _NormStats

    # forward growth alone is not divergence
    bounded_backward = _NormStats(1e9, 0.5, 0.1, 2.0)
    monkeypatch.setattr(families_mod, "norm_runs",
                        lambda params, budget, cap: bounded_backward)
    report = verify_family(FamilyId.EX_C, 1.2, winding_steps=20_000)
    check = {c.name: c for c in report.checks}["divergence"]
    assert not check.passed and check.residual == math.inf
    assert not report.passed


def test_verify_reports_failure_not_raise():
    # off the special point the minimal-polynomial checks are absent,
    # and a slightly perturbed winding budget still verifies
    report = verify_family(FamilyId.EX_A, 1.31, winding_steps=20_000)
    assert isinstance(report.passed, bool)


# --------------------------- curve finder ---------------------------

def test_curve_find_eight_step_bracket():
    root = curve_find(-8, lambda t: (t, -t), (1.15, 1.25))
    assert abs(root - 2.0 ** 0.25) <= 1e-9


def test_curve_find_ten_step_bracket():
    root = curve_find(10, lambda t: (t, -t), (0.7, 0.9))
    assert abs(root - B_SPECIAL) <= 1e-9


def test_curve_find_thirteen_step_bracket():
    root = curve_find(-13, lambda t: (t, -t), (1.2, 1.3))
    assert abs(root - sextic_root_oracle()) <= 1e-9


def test_curve_find_no_bracket():
    with pytest.raises(NoBracketError):
        curve_find(8, lambda t: (t, -t), (1.15, 1.25))


def test_curve_find_sign_constraint():
    # along b = a, four steps return (0, +1) at t = 0: positive-scaling case
    with pytest.raises(SignConstraintError):
        curve_find(4, lambda t: (t, t), (-0.1, 0.1))


def test_curve_find_rejects_zero_k():
    with pytest.raises(ValueError):
        curve_find(0, lambda t: (t, -t), (0.0, 1.0))


@pytest.mark.parametrize("bracket, tol, name", [
    ((1.15, 1.25), math.nan, "tol"),
    ((1.15, 1.25), -1e-13, "tol"),
    ((1.15, math.nan), 1e-13, "bracket"),
    ((-math.inf, 1.25), 1e-13, "bracket"),
    ((1.25, 1.15), 1e-13, "bracket"),
    ((1.2, 1.2), 1e-13, "bracket"),
])
def test_curve_find_rejects_bad_tol_and_bracket(bracket, tol, name):
    # these used to skip bisection and fail the final axis check instead
    with pytest.raises(ArgumentError, match=name):
        curve_find(-8, lambda t: (t, -t), bracket, tol=tol)


def test_curve_find_zero_tol_stops_at_adjacent_floats():
    # the objective is never exactly 0 on this slice: bisection reaches
    # adjacent floats, where the midpoint rounds to an end, and stops
    a = 1.270515
    b = family_b(FamilyId.EX_A, a)
    root = curve_find(-8, lambda t: (a, t), (b - 1.3e-3, b + 0.7e-3),
                      tol=0.0)
    assert abs(root - b) <= 4 * math.ulp(b)
