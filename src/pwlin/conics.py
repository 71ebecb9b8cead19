"""Invariant quadratic forms of unimodular matrices and their level-set arcs.

A matrix M = [[a, b], [c, d]] with det 1 (and M != +-I) preserves the
form Q(x, y) = c*x^2 + (d - a)*x*y - b*y^2, and every matrix commuting
with M preserves the same form.  Its level sets are ellipses, hyperbolas
or parallel line pairs according to |tr M| < 2, > 2, or = 2.

Everything here works with one matrix, the form's generator K = J*G
(G the Gram matrix of Q, J the quarter turn), which is M - (tr M / 2)*I
up to the form's scale.  Its flow p' = sign(level)*K*p keeps Q and
sweeps area counter-clockwise at the rate |level| / 2, and draws the
arcs of every class; its eigenlines are the null lines of Q, i.e. the
asymptotes of the hyperbolas; and -4*det K is the discriminant.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .circle import TWO_PI, normalize
from .core import Mat2, Point
from .errors import (ArgumentError, AsymptoteInSectorError, DegenerateError,
                     DegenerateMatrixError)
from .returnmap import Ray, Sector

#: Default tolerance for the |trace| = 2 boundary.
TRACE_TOL = 1e-9


class ConicClass(enum.Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    PARALLEL_LINES = "parallel_lines"


@dataclass(frozen=True)
class QuadraticForm:
    """Q(x, y) = A*x^2 + 2*B*x*y + C*y^2, in a normalized scaling.

    Normalization: max(|A|, |2B|, |C|) = 1 and the first nonzero entry
    of (A, 2B, C) is positive, so equal forms compare equal across code
    paths.  ``disc`` is (2B)^2 - 4AC = -4*det K, proportional to
    tr(M)^2 - 4 for the generating matrix; it saturates to inf.
    """

    A: float
    B: float
    C: float

    @classmethod
    def normalized(cls, A: float, B2: float, C: float) -> "QuadraticForm":
        """Build from raw coefficients (A, 2B, C)."""
        scale = max(abs(A), abs(B2), abs(C))
        if scale == 0.0:
            raise DegenerateError("zero quadratic form")
        for lead in (A, B2, C):
            if lead != 0.0:
                if lead < 0.0:
                    scale = -scale
                break
        return cls(A / scale, 0.5 * (B2 / scale), C / scale)

    def generator(self) -> Mat2:
        """K = J*G = [[-B, -C], [A, B]]: K^2 = (disc / 4)*I, and the
        flow p' = K p keeps Q."""
        return Mat2(-self.B, -self.C, self.A, self.B)

    @property
    def disc(self) -> float:
        return -4.0 * self.generator().det()

    def __call__(self, p: Point) -> float:
        x, y = p
        return self.A * x * x + 2.0 * self.B * x * y + self.C * y * y

    def conic_class(self, disc_tol: float = 4.0 * TRACE_TOL) -> ConicClass:
        """Class of the nonzero level sets, from the (normalized)
        discriminant; near-zero counts as the parallel-line case."""
        d = self.disc
        if abs(d) <= disc_tol:
            return ConicClass.PARALLEL_LINES
        return ConicClass.ELLIPSE if d < 0.0 else ConicClass.HYPERBOLA


def invariant_form(m: Mat2, tol: float = 1e-10) -> QuadraticForm:
    """The quadratic form preserved by a det-1 matrix, normalized.

    Raises DegenerateMatrixError when an entry of m is not finite, when
    m is +-I within tolerance (every form is invariant then) and when
    det differs from 1 by more than the tolerance.
    """
    if not all(map(math.isfinite, (m.m11, m.m12, m.m21, m.m22))):
        raise DegenerateMatrixError(f"matrix has a non-finite entry: {m}")
    scale = m.max_abs()
    if abs(m.det() - 1.0) > tol * max(1.0, scale * scale):
        raise DegenerateMatrixError(f"determinant {m.det()!r} is not 1")
    if scale == 0.0 or (
        m.dist(Mat2.identity()) <= tol * scale
        or m.dist(Mat2(-1.0, 0.0, 0.0, -1.0)) <= tol * scale
    ):
        raise DegenerateMatrixError("matrix is +-identity; form is undetermined")
    return QuadraticForm.normalized(m.m21, m.m22 - m.m11, -m.m12)


def conic_class_of_trace(trace: float, tol: float = TRACE_TOL) -> ConicClass:
    """Ellipse / hyperbola / parallel-lines split of |trace| against 2."""
    t = abs(trace)
    if t < 2.0 - tol:
        return ConicClass.ELLIPSE
    if t > 2.0 + tol:
        return ConicClass.HYPERBOLA
    return ConicClass.PARALLEL_LINES


def level_through(form: QuadraticForm, p: Point) -> float:
    """The level of the form's level set through p."""
    if p[0] == 0 and p[1] == 0:
        raise DegenerateError("level is ambiguous at the origin")
    return form(p)


def null_directions(form: QuadraticForm) -> list[Point]:
    """Unit directions with Q = 0 (one per line; empty when definite),
    the eigenlines of the form's generator K.  For the form of a
    hyperbolic matrix these are the asymptotes of its hyperbolas."""
    return [ray.direction for ray in eigenrays(form.generator())]


def eigenrays(m: Mat2) -> list[Ray]:
    """Real eigendirections of m, canonicalized to angles in [0, pi).

    The asymptote solver: the eigenlines of a hyperbolic return piece,
    or of a form's generator K, are the asymptotes of the invariant
    hyperbolas.  Empty when the spectrum is complex or m is a multiple
    of the identity, else one ray per eigenline (for the +-pair).  m is
    first scaled, exactly, by the power of two that puts its largest
    entry in [0.5, 1), so that the discriminant cannot overflow.
    """
    e = -math.frexp(m.max_abs())[1]
    m = Mat2(*(math.ldexp(v, e) for v in (m.m11, m.m12, m.m21, m.m22)))
    tr = m.trace()
    disc = tr * tr - 4.0 * m.det()
    if disc < 0.0:
        return []
    out: list[Ray] = []
    r = math.sqrt(max(disc, 0.0))
    for s in (1.0, -1.0):
        lam = 0.5 * (tr + s * r)
        # rows of (m - lam I) are orthogonal to the eigenvector; use the
        # numerically larger one
        r1 = (m.m11 - lam, m.m12)
        r2 = (m.m21, m.m22 - lam)
        row = r1 if math.hypot(*r1) >= math.hypot(*r2) else r2
        if math.hypot(*row) == 0.0:
            continue  # multiple of the identity: no distinguished rays
        v = normalize((-row[1], row[0]))
        if v[1] < 0.0 or (v[1] == 0.0 and v[0] < 0.0):
            v = (-v[0], -v[1])
        out.append(Ray(v))
    if len(out) == 2:
        (ux, uy), (vx, vy) = out[0].direction, out[1].direction
        if abs(ux * vy - uy * vx) < 1e-14:
            out = out[:1]
    return out


@dataclass(frozen=True)
class ConicArc:
    """A sector-restricted sampled arc of one level-set component.

    Samples are ordered CCW from the start ray to the end ray, with the
    two boundary points included.
    """

    form: QuadraticForm
    level: float
    sector: Sector
    conic_class: ConicClass
    anchor: Point
    samples: list[Point]


def _boundary_point(form: QuadraticForm, level: float, ray: Ray) -> Point:
    """Intersection of the level set with a boundary ray."""
    d = normalize(ray.direction)
    qd = form(d)
    if qd == 0.0 or level == 0.0 or (qd > 0.0) != (level > 0.0):
        raise DegenerateError("level set does not meet the boundary ray")
    s = math.sqrt(level / qd)
    if not math.isfinite(s):
        raise DegenerateError("level set meets the boundary ray out of range")
    return (s * d[0], s * d[1])


def arc_in_sector(
    form: QuadraticForm,
    level: float,
    sector: Sector,
    anchor: Point,
    n_samples: int = 512,
    trace_class: ConicClass | None = None,
) -> ConicArc:
    """Sample the level-set component through ``anchor`` inside ``sector``.

    The samples follow the area flow from the level set's point on the
    start ray to its point on the end ray, which are the first and last
    samples exactly, in steps of equal swept area.  Each ray meets the
    level set at most once, so this is the component through ``anchor``.
    The class only labels the arc and gates the asymptote test.
    DegenerateError is raised when the flow does not run from the start
    point to the end point counter-clockwise.

    The class is the form's own (:meth:`QuadraticForm.conic_class`),
    except that ``trace_class``, the class of the generating matrix's
    trace when the caller has it, decides where the normalized
    discriminant lies within its absolute tolerance of zero: the trace
    does not depend on the scale of the form, while the discriminant of
    a long ellipse, normalized to a largest coefficient of 1, shrinks
    into that tolerance.

    Raises AsymptoteInSectorError when a null direction of a hyperbolic
    form (an asymptote, i.e. an eigenray of the generating matrix) lies
    inside the sector: the restricted level set is unbounded there.
    """
    if n_samples < 2:
        raise ArgumentError("need at least two samples")
    scale = max(1.0, abs(level))
    if abs(form(anchor) - level) > 1e-9 * scale:
        raise DegenerateError("anchor does not lie on the level set")
    # the anchor is often exactly on the start ray, which is inside
    if not sector.contains(anchor):
        raise DegenerateError("anchor direction is outside the sector")

    cls = form.conic_class()
    if cls is ConicClass.PARALLEL_LINES and trace_class is not None:
        cls = trace_class
    if cls is ConicClass.HYPERBOLA:
        for d in null_directions(form):
            for v in (d, (-d[0], -d[1])):
                if sector.contains(v):
                    raise AsymptoteInSectorError(
                        "an asymptote direction lies inside the sector; "
                        "the restricted level set is unbounded",
                        eigenray=v,
                    )
    samples = _sample_arc(form, level, sector, n_samples)
    return ConicArc(form, level, sector, cls, anchor, samples)


def _sample_arc(form: QuadraticForm, level: float, sector: Sector,
                n_samples: int) -> list[Point]:
    """Samples at equal time steps of the flow p' = s K p, s = sign(level).

    K^2 = (disc / 4)*I, so exp(tsK) p0 = cos(wt) p0 + sin(wt) sK p0 / w,
    with w = sqrt(|disc|) / 2, cosh and sinh in place of cos and sin when
    disc > 0, and w = 1, cos = 1, sin(x) = x when disc = 0.  The end
    phase w*t1 solves cross(p0, p1) = |level| sin(w*t1) / w and
    p0^T G p1 = level cos(w*t1); it must be finite and positive, and its
    point must be p1 within 1e-9 relative.  The last sample is p1.
    """
    p0 = _boundary_point(form, level, sector.start)
    p1 = _boundary_point(form, level, sector.end)
    (x0, y0), (x1, y1) = p0, p1
    k = form.generator()
    sign = 1.0 if level > 0.0 else -1.0
    cross = x0 * y1 - y0 * x1
    disc = form.disc
    w = 0.5 * math.sqrt(abs(disc))
    if disc < 0.0:
        kx1, ky1 = k.apply(p1)
        dot = x0 * ky1 - y0 * kx1  # p0^T G p1 = cross(p0, K p1)
        phase = math.atan2(w * cross, sign * dot) % TWO_PI
        cos, sin = math.cos, math.sin
    elif disc > 0.0:
        phase = math.asinh(w * cross / abs(level))
        cos, sin = math.cosh, math.sinh
    else:
        w = 1.0
        phase = cross / abs(level)
        cos, sin = (lambda _: 1.0), (lambda x: x)
    if not 0.0 < phase < math.inf:
        raise DegenerateError("the level set does not run counter-clockwise "
                              "from the start ray to the end ray")
    kx, ky = (sign * v / w for v in k.apply(p0))
    last = n_samples - 1
    phases = [phase * j / last for j in range(last)] + [phase]
    # phase <= asinh(float max), where cosh and sinh are still finite
    samples = [(c * x0 + s * kx, c * y0 + s * ky)
               for c, s in zip(map(cos, phases), map(sin, phases))]
    end = samples[-1]
    if not math.hypot(end[0] - x1, end[1] - y1) <= 1e-9 * math.hypot(x1, y1):
        raise DegenerateError("the level set leaves the sector between "
                              "its boundary rays")
    samples[-1] = p1
    return samples
