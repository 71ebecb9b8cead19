"""Invariant quadratic forms of unimodular matrices and their level-set arcs.

A matrix M = [[a, b], [c, d]] with det 1 (and M != +-I) preserves the
form Q(x, y) = c*x^2 + (d - a)*x*y - b*y^2, and every matrix commuting
with M preserves the same form.  Its level sets are ellipses, hyperbolas
or parallel line pairs according to |tr M| < 2, > 2, or = 2.
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
    paths.  ``disc`` is (2B)^2 - 4AC, proportional to tr(M)^2 - 4 for
    the generating matrix.
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

    @property
    def disc(self) -> float:
        return (2.0 * self.B) ** 2 - 4.0 * self.A * self.C

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

    def gram(self) -> np.ndarray:
        import numpy as np

        return np.array([[self.A, self.B], [self.B, self.C]])


def invariant_form(m: Mat2, tol: float = 1e-10) -> QuadraticForm:
    """The quadratic form preserved by a det-1 matrix, normalized.

    Raises DegenerateMatrixError when m is +-I within tolerance (every
    form is invariant then) and when det differs from 1 by more than
    the tolerance.
    """
    if abs(m.det() - 1.0) > tol * max(1.0, m.max_abs() ** 2):
        raise DegenerateMatrixError(f"determinant {m.det()!r} is not 1")
    scale = m.max_abs()
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
    """Unit directions with Q = 0 (one per line; empty when definite).

    For the form of a hyperbolic matrix these are its eigendirections,
    i.e. the asymptotes of the invariant hyperbolas.
    """
    A, B, C = form.A, form.B, form.C
    disc = form.disc
    if disc < 0.0:
        return []
    out: list[Point] = []
    r = math.sqrt(disc)
    if abs(A) >= abs(C):
        if A == 0.0:
            out.append((1.0, 0.0))
            if B != 0.0:
                out.append(normalize((-C, 2.0 * B)))
        else:
            for s in (1.0, -1.0):
                t = (-2.0 * B + s * r) / (2.0 * A)
                out.append(normalize((t, 1.0)))
    else:
        if C == 0.0:
            out.append((0.0, 1.0))
            if B != 0.0:
                out.append(normalize((2.0 * B, -A)))
        else:
            for s in (1.0, -1.0):
                t = (-2.0 * B + s * r) / (2.0 * C)
                out.append(normalize((1.0, t)))
    if len(out) == 2 and _line_distance(out[0], out[1]) < 1e-14:
        out = out[:1]
    return out


def _line_distance(u: Point, v: Point) -> float:
    return abs(u[0] * v[1] - u[1] * v[0])


def eigenrays(m: Mat2) -> list[Ray]:
    """Real eigendirections of m, canonicalized to angles in [0, pi).

    Empty when |trace| < 2 (complex spectrum) or when m is a multiple of
    the identity; otherwise one ray per eigenline (each ray stands for
    the +-direction pair).
    """
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
    if len(out) == 2 and _line_distance(
            out[0].direction, out[1].direction) < 1e-14:
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

    def max_level_residual(self) -> float:
        lam = self.level
        scale = max(1.0, abs(lam))
        return max(abs(self.form(p) - lam) / scale for p in self.samples)


def _principal_frame(form: QuadraticForm):
    """Orthonormal eigenframe (columns) of the Gram matrix with det +1
    and eigenvalues sorted ascending."""
    import numpy as np

    evals, evecs = np.linalg.eigh(form.gram())
    if np.linalg.det(evecs) < 0:
        evecs = evecs.copy()
        evecs[:, 1] = -evecs[:, 1]
    return evals, evecs


def _boundary_point(form: QuadraticForm, level: float, ray: Ray) -> Point:
    """Intersection of the level set with a boundary ray."""
    d = normalize(ray.direction)
    qd = form(d)
    if qd == 0.0 or (qd > 0.0) != (level > 0.0):
        raise DegenerateError("level set does not meet the boundary ray")
    s = math.sqrt(level / qd)
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

    Ellipses are parametrized by angle in the principal frame,
    hyperbolas by the hyperbolic parameter on the anchored branch,
    parallel lines affinely.

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
    if cls is ConicClass.ELLIPSE:
        samples = _sample_ellipse(form, level, sector, n_samples)
    elif cls is ConicClass.PARALLEL_LINES:
        samples = _sample_line(form, level, sector, anchor, n_samples)
    else:
        for d in null_directions(form):
            for v in (d, (-d[0], -d[1])):
                if sector.contains(v):
                    raise AsymptoteInSectorError(
                        "an asymptote direction lies inside the sector; "
                        "the restricted level set is unbounded",
                        eigenray=v,
                    )
        samples = _sample_hyperbola(form, level, sector, anchor, n_samples)
    return ConicArc(form, level, sector, cls, anchor, samples)


def _sample_ellipse(form, level, sector, n_samples):
    evals, evecs = _principal_frame(form)
    e1, e2 = float(evals[0]), float(evals[1])
    w1 = (float(evecs[0, 0]), float(evecs[1, 0]))
    w2 = (float(evecs[0, 1]), float(evecs[1, 1]))
    if level / e1 <= 0.0 or level / e2 <= 0.0:
        raise DegenerateError("empty elliptic level set")
    r1 = math.sqrt(level / e1)
    r2 = math.sqrt(level / e2)

    def param_at(p: Point) -> float:
        c1 = (p[0] * w1[0] + p[1] * w1[1]) / r1
        c2 = (p[0] * w2[0] + p[1] * w2[1]) / r2
        return math.atan2(c2, c1)

    def point_at(t: float) -> Point:
        c1 = r1 * math.cos(t)
        c2 = r2 * math.sin(t)
        return (c1 * w1[0] + c2 * w2[0], c1 * w1[1] + c2 * w2[1])

    t_start = param_at(_boundary_point(form, level, sector.start))
    t_end = param_at(_boundary_point(form, level, sector.end))
    # det(frame) = +1, so the plane angle increases with t and the CCW
    # arc from the start ray is the interval [t_start, t_start + dt]
    dt = math.fmod(t_end - t_start, TWO_PI)
    if dt < 0.0:
        dt += TWO_PI
    return [point_at(t_start + dt * j / (n_samples - 1))
            for j in range(n_samples)]


def _sample_hyperbola(form, level, sector, anchor, n_samples):
    evals, evecs = _principal_frame(form)
    e_min, e_max = float(evals[0]), float(evals[1])
    w_min = (float(evecs[0, 0]), float(evecs[1, 0]))
    w_max = (float(evecs[0, 1]), float(evecs[1, 1]))
    # cosh-axis: the eigenvector whose eigenvalue has the sign of level
    if level > 0.0:
        ec, es = e_max, e_min
        wc, ws = w_max, w_min
    else:
        ec, es = e_min, e_max
        wc, ws = w_min, w_max
    rc = math.sqrt(level / ec)
    rs = math.sqrt(-level / es)
    branch = 1.0 if (anchor[0] * wc[0] + anchor[1] * wc[1]) >= 0.0 else -1.0

    def param_at(p: Point) -> float:
        return math.asinh((p[0] * ws[0] + p[1] * ws[1]) / rs)

    def point_at(s: float) -> Point:
        c = branch * rc * math.cosh(s)
        d = rs * math.sinh(s)
        return (c * wc[0] + d * ws[0], c * wc[1] + d * ws[1])

    s_start = param_at(_boundary_point(form, level, sector.start))
    s_end = param_at(_boundary_point(form, level, sector.end))
    return [point_at(s_start + (s_end - s_start) * j / (n_samples - 1))
            for j in range(n_samples)]


def _sample_line(form, level, sector, anchor, n_samples):
    evals, evecs = _principal_frame(form)
    # the level line runs along the (near-)null eigendirection
    i0 = 0 if abs(evals[0]) <= abs(evals[1]) else 1
    w0 = (float(evecs[0, i0]), float(evecs[1, i0]))

    def boundary_param(ray: Ray) -> float:
        d = normalize(ray.direction)
        denom = w0[0] * d[1] - w0[1] * d[0]
        if abs(denom) < 1e-300:
            raise DegenerateError("line is parallel to the boundary ray")
        t = (d[0] * anchor[1] - d[1] * anchor[0]) / denom
        p = (anchor[0] + t * w0[0], anchor[1] + t * w0[1])
        if p[0] * d[0] + p[1] * d[1] <= 0.0:
            raise DegenerateError("line meets the ray on the wrong side")
        return t

    t_start = boundary_param(sector.start)
    t_end = boundary_param(sector.end)
    out = []
    for j in range(n_samples):
        t = t_start + (t_end - t_start) * j / (n_samples - 1)
        out.append((anchor[0] + t * w0[0], anchor[1] + t * w0[1]))
    return out
