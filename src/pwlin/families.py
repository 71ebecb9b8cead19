"""The three one-parameter families with an axis-orbit relation.

Each family pins b as an algebraic function of a so that the orbit of
one vertical unit vector reaches the other in a fixed number of steps
(8, 10 and 13), with a fixed itinerary.  The module carries their
closed-form return matrices, rotation-number formulas, the trace
threshold of the 10-step family, eigenvalue data at the distinguished
algebraic parameter points, and a root-finder that recovers such curves
along one-dimensional parameter slices.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable

from .circle import angle_of, rotation_number
from .conics import ConicClass, conic_class_of_trace
from .core import Mat2, Params, check_escape, iterate, orbit_chain
from .errors import (
    ArgumentError,
    DomainError,
    NoBracketError,
    SignConstraintError,
)
from .returnmap import (
    Ray,
    Sector,
    commutator_residual,
    orbit_relation,
    return_map,
)
from .scanner import norm_runs

SQRT2 = math.sqrt(2.0)


class FamilyId(enum.Enum):
    """The 8-step (A), 10-step (B) and 13-step (C) relation families."""

    EX_A = "A"
    EX_B = "B"
    EX_C = "C"


#: Valid open a-intervals per family.
FAMILY_INTERVAL = {
    FamilyId.EX_A: (1.0, SQRT2),
    FamilyId.EX_B: (0.0, 1.0),
    FamilyId.EX_C: (1.0, SQRT2),
}

#: Relation data: (start point, signed step count, interior sign word).
FAMILY_RELATION = {
    FamilyId.EX_A: ((0.0, -1.0), 8, "+++-+++"),
    FamilyId.EX_B: ((0.0, 1.0), 10, "-+++-+++-"),
    FamilyId.EX_C: ((0.0, -1.0), 13, "+++-++++-+++"),
}

#: First-return words on the reference sector, CCW order of the pieces.
FAMILY_WORDS = {
    FamilyId.EX_A: ("-+++-", "++++"),
    FamilyId.EX_B: ("-+++-+++-+++-", "-++-"),
    FamilyId.EX_C: ("-+++-", "++++-++++"),
}


def _check_interval(family: FamilyId, a: float) -> None:
    lo, hi = FAMILY_INTERVAL[family]
    if not (lo < a < hi):
        raise DomainError(
            f"family {family.value} needs a in ({lo:.6g}, {hi:.6g}); got {a!r}")


def family_b(family: FamilyId, a: float) -> float:
    """The slope b paired with a on the family's relation curve."""
    _check_interval(family, a)
    if family is FamilyId.EX_A:
        # (a^3 - 2a) b + 2 - 2a^2 = 0
        return (2.0 * a * a - 2.0) / (a ** 3 - 2.0 * a)
    if family is FamilyId.EX_B:
        # the root of (a^3 - 2a) b^2 - 3 (a^2 - 1) b + 2a = 0 in (-sqrt2, 0)
        root = math.sqrt(a ** 4 - 2.0 * a * a + 9.0)
        b = (3.0 * (a * a - 1.0) + root) / (2.0 * a * (a * a - 2.0))
        if not -SQRT2 < b < 0.0:
            raise DomainError(f"no admissible root at a={a!r}")
        return b
    denom = a * (a * a - 2.0) * (a * a - a - 1.0)
    if denom == 0.0:
        raise DomainError(f"pole of the 13-step family at a={a!r}")
    return (a - 1.0) * (2.0 * a ** 3 - 4.0 * a - 1.0) / denom


@lru_cache(maxsize=1)
def alpha0() -> float:
    """Unique root of x^4 + 3x^3 + 3x^2 + x - 1 in (0, 1).

    This is the trace threshold of the 10-step family: the return piece
    switches from elliptic through parabolic to hyperbolic here.
    Bracketed bisection down to the last representable interval.
    """
    def poly(x: float) -> float:
        return ((x + 3.0) * x + 3.0) * x * x + x - 1.0

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-16:
        mid = 0.5 * (lo + hi)
        if poly(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reference_sector(family: FamilyId, a: float) -> Sector:
    """The analyzed sector: between the 4th/5th orbit points for the
    8-step family, the exact third quadrant for the 10-step one, and
    between the 9th/5th points for the 13-step one."""
    b = family_b(family, a)
    params = Params(a, b)
    start, n, _ = FAMILY_RELATION[family]
    orbit, _ = iterate(params, start, n)
    if family is FamilyId.EX_A:
        return Sector(Ray.through(orbit[4]), Ray.through(orbit[5]))
    if family is FamilyId.EX_B:
        return Sector(Ray.through((-1.0, 0.0)), Ray.through((0.0, -1.0)))
    return Sector(Ray.through(orbit[9]), Ray.through(orbit[5]))


def breakpoint_direction(family: FamilyId, a: float) -> tuple[float, float]:
    """Closed-form interior breakpoint of the reference sector."""
    if family is FamilyId.EX_B:
        b = family_b(family, a)
        return (a * a - 1.0, (a * a - 1.0) * b - a)
    return (0.0, -1.0)


def piece_matrices(family: FamilyId, a: float) -> tuple[Mat2, Mat2]:
    """Closed-form return matrices, in the CCW piece order of
    :data:`FAMILY_WORDS`."""
    b = family_b(family, a)
    if family is FamilyId.EX_A:
        m1 = Mat2(a, 1.0 - a * a, a * a - 1.0, 2.0 * a - a ** 3)
        m2 = Mat2(a ** 4 - 3.0 * a * a + 1.0, 2.0 * a - a ** 3,
                  a ** 3 - 2.0 * a, 1.0 - a * a)
        return m1, m2
    if family is FamilyId.EX_B:
        m4 = Mat2((a * a - 1.0) * b * b - 2.0 * a * b + 1.0,
                  (1.0 - a * a) * b + a,
                  (a * a - 1.0) * b - a,
                  1.0 - a * a)
        m13 = Mat2((1.0 - a * a) * b + a,
                   a * a - 1.0,
                   1.0 - a * a,
                   a * a * (a * a - 2.0) / ((a * a - 1.0) * b - a))
        return m13, m4
    m1 = Mat2((a ** 3 - 2.0 * a) * b * b + (2.0 - 2.0 * a * a) * b + a,
              (2.0 * a - a ** 3) * b + a * a - 1.0,
              (a ** 3 - 2.0 * a) * b - a * a + 1.0,
              2.0 * a - a ** 3)
    lam = (a * a - a - 1.0) / (a - 1.0)
    mu = a * a * (a - 2.0) * (a * a - 2.0) ** 2 / ((a - 1.0) * (a * a - a - 1.0))
    m2 = Mat2(lam * m1.m11 + mu, lam * m1.m12,
              lam * m1.m21, lam * m1.m22 + mu)
    return m1, m2


def trace_formula(family: FamilyId, a: float) -> float:
    """Closed-form trace of the family's distinguished return piece
    (the 5-step piece for A, the 4-step piece for B and the 5-step
    piece for C)."""
    b = family_b(family, a)
    if family is FamilyId.EX_A:
        return 3.0 * a - a ** 3
    if family is FamilyId.EX_B:
        return (a * a - 1.0) * (b * b - 1.0) - 2.0 * a * b + 1.0
    m1, _ = piece_matrices(family, a)
    return m1.trace()


def regime(family: FamilyId, a: float) -> ConicClass:
    """Conic class of the family's invariant arcs at parameter a."""
    if family is FamilyId.EX_A:
        return ConicClass.ELLIPSE
    if family is FamilyId.EX_C:
        return ConicClass.HYPERBOLA
    if abs(a - alpha0()) <= 1e-12:
        return ConicClass.PARALLEL_LINES
    return conic_class_of_trace(trace_formula(family, a))


def _large_eig(trace: float) -> float:
    """Larger eigenvalue of a det-1 matrix from its trace (|tr| > 2)."""
    t = abs(trace)
    return 0.5 * (t + math.sqrt(t * t - 4.0))


def closed_rotation(family: FamilyId, a: float) -> float | None:
    """Closed-form rotation number, when the family provides one.

    A: (3*pi - 7*theta) / (14*pi - 32*theta) with a = 2*cos(theta).
    B: at the trace threshold, (2*t^2 + 1)/(9*t^2 + 4); above it, the
       eigenvalue-logarithm formula; below it, None (no closed form).
    C: exactly 1/5.
    """
    _check_interval(family, a)
    if family is FamilyId.EX_A:
        theta = math.acos(0.5 * a)
        return (3.0 * math.pi - 7.0 * theta) / (14.0 * math.pi - 32.0 * theta)
    if family is FamilyId.EX_C:
        return 0.2
    t0 = alpha0()
    if abs(a - t0) <= 1e-12:
        return (2.0 * t0 * t0 + 1.0) / (9.0 * t0 * t0 + 4.0)
    if a < t0:
        return None
    m13, m4 = piece_matrices(family, a)
    l1 = _large_eig(m4.trace())
    l2 = _large_eig(m13.trace())
    return (math.log(l2) + 3.0 * math.log(l1)) / (
        4.0 * math.log(l2) + 13.0 * math.log(l1))


@dataclass(frozen=True)
class SpectralData:
    """Eigen data at a family parameter.

    ``theta`` is the angle with a = 2*cos(theta) (8-step family only);
    ``lambda1``/``lambda2`` are the dominant eigenvalues of the two
    return pieces in the hyperbolic regime;
    ``minimal_poly_residuals`` are the residuals of the distinguished
    algebraic points' minimal polynomials, when applicable.
    """

    theta: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    minimal_poly_residuals: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    family: str
    a: float
    b: float
    relation_index: int | None
    regime: str
    rotation_closed: float | None
    rotation_winding: float
    winding_steps: int
    checks: list[CheckResult]
    spectral: SpectralData | None
    notes: list[str]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {**asdict(self), "schema_version": "v1", "passed": self.passed}


def _poly_residual(coeffs: list[float], x: complex) -> float:
    acc = 0.0 + 0.0j
    for c in coeffs:
        acc = acc * x + c
    return abs(acc)


def verify_family(
    family: FamilyId,
    a: float,
    winding_steps: int = 200_000,
    budget: int = 20000,
) -> VerificationReport:
    """Cross-check a family parameter against all of its closed forms.

    Runs the orbit-table, relation, breakpoint, return-word/matrix,
    trace/regime, special-point spectral and rotation-number checks and
    reports each with its residual; failures are reported, not raised.
    """
    _check_interval(family, a)
    b = family_b(family, a)
    params = Params(a, b)
    checks: list[CheckResult] = []
    notes: list[str] = []
    start, n, signs = FAMILY_RELATION[family]

    # (i) orbit table: endpoint and interior sign word
    orbit, word = iterate(params, start, n)
    endpoint = orbit[-1]
    expected_end = (0.0, -start[1])
    end_err = math.hypot(endpoint[0] - expected_end[0],
                         endpoint[1] - expected_end[1])
    interior = word[1:]  # symbol 0 is the x=0 start, '+' by the tie rule
    checks.append(CheckResult(
        "orbit_table", interior == signs and end_err <= 1e-9, end_err,
        f"word {word!r}, endpoint {endpoint!r}"))

    # (ii) relation index via the generic axis-return scan
    rel = orbit_relation(params, max_iter=4 * n, tol=1e-9)
    rel_ok = rel is not None and rel.index == n and rel.lam < 0
    checks.append(CheckResult(
        "relation_index", rel_ok,
        0.0 if rel_ok else math.inf,
        f"found {None if rel is None else (rel.n, rel.lam)}, expected |n|={n}"))

    # (iii) breakpoint of the reference sector
    sector = reference_sector(family, a)
    rays = [Ray.through(p) for p in orbit[1:]]
    rmap = return_map(params, sector, distinguished=rays, budget=budget)
    bp = breakpoint_direction(family, a)
    if len(rmap.pieces) == 2:
        got = rmap.pieces[1].subsector.start.angle
        want = angle_of(bp)
        bp_err = abs(math.remainder(got - want, 2.0 * math.pi))
        checks.append(CheckResult(
            "breakpoint", bp_err <= 1e-10, bp_err,
            f"direction angle {got!r} vs closed form {want!r}"))
    else:
        checks.append(CheckResult(
            "breakpoint", False, math.inf,
            f"expected 2 return pieces, found {len(rmap.pieces)}"))

    # (iv) return words and matrices against the closed forms
    words = tuple(p.word for p in rmap.pieces)
    expected_words = FAMILY_WORDS[family]
    closed = piece_matrices(family, a)
    mat_err = 0.0
    if len(rmap.pieces) == 2:
        for piece, ref in zip(rmap.pieces, closed):
            mat_err = max(mat_err, piece.matrix.dist(ref) / max(1.0, ref.max_abs()))
    comm = (commutator_residual(rmap.pieces[0].matrix, rmap.pieces[1].matrix)
            if len(rmap.pieces) == 2 else math.inf)
    checks.append(CheckResult(
        "return_words", words == expected_words, 0.0 if words == expected_words else math.inf,
        f"got {words!r}"))
    checks.append(CheckResult(
        "return_matrices", mat_err <= 1e-9, mat_err,
        "closed-form match"))
    checks.append(CheckResult(
        "commutation", comm <= 1e-9, comm, "two-piece commutator"))

    # (v) trace and regime
    tr_closed = trace_formula(family, a)
    tr_piece = {
        FamilyId.EX_A: rmap.pieces[0],
        FamilyId.EX_B: rmap.pieces[1],
        FamilyId.EX_C: rmap.pieces[0],
    }[family] if len(rmap.pieces) == 2 else None
    tr_err = (abs(tr_piece.matrix.trace() - tr_closed)
              if tr_piece is not None else math.inf)
    reg = regime(family, a)
    checks.append(CheckResult(
        "trace", tr_err <= 1e-9, tr_err,
        f"trace {tr_closed!r}, regime {reg.value}"))

    # (vi) spectral data and minimal polynomials at special points
    spectral = _spectral_data(family, a, checks)

    # (vii) closed-form vs winding rotation number
    closed_r = closed_rotation(family, a)
    est = rotation_number(params, (1.0, 0.0), winding_steps)
    if closed_r is not None:
        rot_err = abs(closed_r - est.value)
        checks.append(CheckResult(
            "rotation", rot_err <= 2.0 / winding_steps, rot_err,
            f"closed {closed_r!r} vs winding {est.value!r}"))
    else:
        notes.append("no closed rotation form below the trace threshold; "
                     "winding estimate only")

    if family is FamilyId.EX_B:
        notes.append(
            "the 10-step family's b is the admissible root of the "
            "quadratic relation; the duplicated 8-step b formula that "
            "circulates for this family contradicts the relation and "
            "is not used")
        notes.append(
            "orbit table starts at (0, 1): the 10-step relation runs "
            "(0,1) -> (0,-1)")
    if family is FamilyId.EX_C:
        runs = norm_runs(params, 100_000, 1e6)
        div = min(runs.fwd_max, runs.bwd_max) > 1e6
        checks.append(CheckResult(
            "divergence", div, 0.0 if div else math.inf,
            "norm ratio exceeds 1e6 both ways"))
        notes.append("all orbits diverge; no invariant circle exists")

    return VerificationReport(
        family=family.value,
        a=a,
        b=b,
        relation_index=rel.index if rel is not None else None,
        regime=reg.value,
        rotation_closed=closed_r,
        rotation_winding=est.value,
        winding_steps=winding_steps,
        checks=checks,
        spectral=spectral,
        notes=notes,
    )


def _spectral_data(family: FamilyId, a: float,
                   checks: list[CheckResult]) -> SpectralData | None:
    b = family_b(family, a)
    special = abs(b + a) <= 1e-9
    if family is FamilyId.EX_A:
        theta = math.acos(0.5 * a)
        residuals: list[float] = []
        if special:
            z = cmath.exp(1j * theta)
            r = _poly_residual([1, 0, 4, 0, 4, 0, 4, 0, 1], z)
            residuals.append(r)
            checks.append(CheckResult(
                "minimal_poly_theta", r <= 1e-8, r,
                "e^{i theta} against its degree-8 integer polynomial"))
        return SpectralData(theta=theta, minimal_poly_residuals=residuals)
    if family is FamilyId.EX_B:
        if regime(family, a) is not ConicClass.HYPERBOLA:
            return None
        m13, m4 = piece_matrices(family, a)
        l1 = _large_eig(m4.trace())
        l2 = _large_eig(m13.trace())
        residuals = []
        if special:
            r1 = _poly_residual([1, -7, 13, -7, 1], l1)
            r2 = _poly_residual([1, 0, 23, 0, -77, 0, 23, 0, 1], l2)
            residuals = [r1, r2]
            checks.append(CheckResult(
                "minimal_poly_lambda1", r1 <= 1e-8, r1, f"lambda1={l1!r}"))
            checks.append(CheckResult(
                "minimal_poly_lambda2", r2 <= 1e-7, r2, f"lambda2={l2!r}"))
            tr_err = abs(m4.trace() - (a ** 4 + 2.0))
            checks.append(CheckResult(
                "trace_quartic_identity", tr_err <= 1e-12, tr_err,
                "4-step trace equals a^4 + 2 at the symmetric point"))
        return SpectralData(lambda1=l1, lambda2=l2,
                            minimal_poly_residuals=residuals)
    m1, m2 = piece_matrices(family, a)
    l1 = _large_eig(m1.trace())
    l2 = _large_eig(m2.trace())
    residuals = []
    if special:
        r = _poly_residual([1, -1, -1, 0, -2, 3, 1], a)
        residuals.append(r)
        checks.append(CheckResult(
            "minimal_poly_a", r <= 1e-8, r,
            "a against its degree-6 integer polynomial"))
    return SpectralData(lambda1=l1, lambda2=l2,
                        minimal_poly_residuals=residuals)


def curve_find(
    k: int,
    slice_fn: Callable[[float], tuple[float, float]],
    bracket: tuple[float, float],
    tol: float = 1e-13,
) -> float:
    """Root of [T^k(0,1)]_x = 0 along a parameter slice, by bisection.

    ``slice_fn`` maps the slice parameter t to (a, b); ``k`` may be
    negative (backward iteration).  The objective is normalized by the
    orbit magnitude, which makes it scale-free and keeps bisection
    stable across itinerary kinks.  At the root the y-component must be
    negative (the orbit lands on (0, -1)); the relation lam = -1 is
    confirmed by the generic axis scan before returning.  ``k = 0``, a
    nan or negative ``tol`` and a bracket other than finite ``lo < hi``
    raise :class:`ArgumentError`.
    """
    lo, hi = bracket
    if k == 0:
        raise ArgumentError("k must be nonzero")
    if not tol >= 0.0:
        raise ArgumentError(f"tol must be a number >= 0, got {tol!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ArgumentError(
            f"bracket must be two finite numbers lo < hi, got ({lo!r}, {hi!r})")

    def objective(t: float) -> tuple[float, float]:
        a, b = slice_fn(t)
        chain, _, escape = orbit_chain(Params(a, b), (0.0, 1.0), k)
        check_escape(escape)
        x, y = (chain[-1], chain[-2]) if k > 0 else chain[-2:]
        r = math.hypot(x, y)
        return x / r, y / r

    flo, _ = objective(lo)
    fhi, _ = objective(hi)
    if flo == 0.0:
        root = lo
    elif fhi == 0.0:
        root = hi
    elif flo * fhi > 0.0:
        raise NoBracketError(
            f"objective has the same sign at both ends: f({lo})={flo!r}, "
            f"f({hi})={fhi!r}")
    else:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fmid, _ = objective(mid)
            if fmid == 0.0 or not lo < mid < hi:  # a root, or no float between
                lo = hi = mid
                break
            if (fmid > 0.0) == (flo > 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        root = 0.5 * (lo + hi)

    _, y_root = objective(root)
    if y_root >= 0.0:
        raise SignConstraintError(
            f"y-component {y_root!r} is nonnegative at the root: the "
            "positive-scaling case, not an invariant-circle curve")
    a, b = slice_fn(root)
    rel = orbit_relation(Params(a, b), max_iter=4 * abs(k), tol=1e-6)
    if rel is None or rel.lam >= 0:
        raise SignConstraintError(
            "the axis scan does not confirm the lam = -1 relation at the root")
    return root
