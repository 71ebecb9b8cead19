"""Scalar per-step loops kept as test oracles.

Each is the straightforward loop that a faster path in ``pwlin``
replaced, or, for conic arcs, the per-class samplers that the area flow
replaced; the tests compare the library against them.
"""
import math
from fractions import Fraction

import numpy as np

from pwlin.circle import (TWO_PI, angle_of, normalize, rotation_number,
                          snap_rational)
from pwlin import output
from pwlin.conics import ConicClass, _boundary_point
from pwlin.core import (MINUS, OVERFLOW_LIMIT, PLUS, Mat2, Point,
                        inverse_step, iterate, step)
from pwlin.errors import DegenerateError, NoReturnError, OrbitOverflowError
from pwlin.returnmap import OrbitRelation, Ray


def norm_run(params, forward, budget, cap):
    """Norm extremes and axis proximity of the orbit of (0, 1).

    Stops early once the norm exceeds ``cap`` times the starting norm.
    Returns (max_ratio, min_ratio, min |x|/||v||); an overflow returns
    an infinite max.
    """
    p = (0.0, 1.0)
    stepf = step if forward else inverse_step
    mx = mn = 1.0
    near = math.inf
    for _ in range(budget):
        try:
            p = stepf(params, p)
        except OrbitOverflowError:
            return math.inf, mn, near
        r = math.hypot(*p)
        if r > mx:
            mx = r
        elif r < mn:
            mn = r
        prox = abs(p[0]) / r
        if prox < near:
            near = prox
        if mx > cap:
            break
    return mx, mn, near


def diverges_both_ways(params, budget=100_000, ratio=1e6):
    """Whether the orbit of (0, 1) passes norm ``ratio`` (or overflows)
    within ``budget`` steps both forward and backward."""
    for stepf in (step, inverse_step):
        p = (0.0, 1.0)
        grew = False
        for _ in range(budget):
            try:
                p = stepf(params, p)
            except OrbitOverflowError:
                grew = True
                break
            if math.hypot(*p) > ratio:
                grew = True
                break
        if not grew:
            return False
    return True


def iterate_backward(params, p0, n):
    """``n`` backward steps from ``p0`` with :func:`inverse_step`'s
    arithmetic: the orbit and its sign word read in forward order.
    Raises :class:`OrbitOverflowError` with the index of the step at
    which y escaped."""
    a, b = params.a, params.b
    x, y = p0
    orbit = [(x, y)]
    signs = []
    for k in range(n):
        slope = a if y >= 0 else b
        x, y = y, slope * y - x
        if abs(y) > OVERFLOW_LIMIT:
            raise OrbitOverflowError(f"orbit escaped at step {k + 1}",
                                     index=k + 1)
        orbit.append((x, y))
        signs.append(PLUS if x >= 0 else MINUS)
    return orbit, "".join(reversed(signs))


def emit_svg(spec):
    """:func:`pwlin.emit_svg` drawn from :func:`iterate`'s points, each
    coordinate converted by ``float(v)`` (for an mpf orbit, one mpf made
    and converted per value).  An escaping orbit is drawn up to its
    escape, in the direction of ``spec.n``."""
    try:
        orbit, _ = iterate(spec.params, spec.start, spec.n)
    except OrbitOverflowError as exc:
        k = exc.index - 1
        orbit, _ = iterate(spec.params, spec.start, -k if spec.n < 0 else k)
    output._write_svg(spec, np.array([float(x) for x, _ in orbit]),
                      np.array([float(y) for _, y in orbit]))


def first_preimage_in(params, target, sector, i_min=0, max_iter=10000):
    """:func:`pwlin.returnmap.first_preimage_in` as one float loop:
    ``inverse_step``'s arithmetic and overflow test, inline, then
    ``Sector.contains`` at each step."""
    if target[0] == 0 and target[1] == 0:
        raise DegenerateError("target must be nonzero")
    a, b = params.a, params.b
    x, y = target
    for i in range(max_iter + 1):
        if i >= i_min and sector.contains((x, y)):
            return Ray.through((x, y)), i
        ny = (a if y >= 0 else b) * y - x
        if abs(ny) > OVERFLOW_LIMIT or abs(y) > OVERFLOW_LIMIT:
            raise OrbitOverflowError(
                f"orbit component exceeded {OVERFLOW_LIMIT:g}")
        x, y = y, ny
    return None


def first_return(params, u, sector, budget, margin=0.0):
    """:func:`pwlin.returnmap._first_return` with the point renormalized
    by ``hypot`` at every step.

    The chunked walk matches this loop only up to rounding.  With
    ``margin`` > 0 the result is None as soon as a point comes within
    ``margin`` of the vertical axis (relative |x|, which signs the word)
    or of a sector boundary (radians), where rounding can decide the
    outcome; the sector test is :func:`angle_contains`'s arithmetic."""
    x, y = u
    a, b = params.a, params.b
    start_angle, width = _angles(sector)
    signs = []
    for k in range(1, budget + 1):
        if abs(x) < margin * math.hypot(x, y):
            return None
        signs.append("+" if x >= 0.0 else "-")
        x, y = (a * x - y, x) if x >= 0.0 else (b * x - y, x)
        r = math.hypot(x, y)
        if r == 0.0 or not math.isfinite(r):
            raise NoReturnError("orbit degenerated before returning")
        x /= r
        y /= r
        rel = _rel(x, y, start_angle)
        if min(rel, abs(rel - width), TWO_PI - rel) < margin:
            return None
        if rel < width:
            return "".join(signs), k
    raise NoReturnError(f"no return to the sector within {budget} steps")


def first_return_rescaled(params, u, sector, budget, seams):
    """:func:`pwlin.returnmap._first_return` one step at a time: the
    point is rescaled by a power of two before each step index in
    ``seams`` (the chunk starts), stepped with ``step``'s arithmetic and
    tested after every step.  These are the chunked walk's float
    operations, so the two agree bit for bit."""
    a, b = params.a, params.b
    x, y = u
    signs = []
    for k in range(budget):
        if k in seams:
            e = math.frexp(max(abs(x), abs(y)))[1]
            x, y = math.ldexp(x, -e), math.ldexp(y, -e)
        signs.append(PLUS if x >= 0.0 else MINUS)
        x, y = (a * x - y, x) if x >= 0.0 else (b * x - y, x)
        if not 0.0 < abs(x) + abs(y) < math.inf:
            raise NoReturnError("orbit degenerated before returning")
        if sector.contains((x, y)):
            return "".join(signs), k + 1
    raise NoReturnError(f"no return to the sector within {budget} steps")


# ---- angle-based sector membership, replaced by exact cross-product signs ----

#: Angular distance (rad) from a boundary within which :func:`gap_sectors`
#: falls back to the per-point test.
BOUNDARY_SLACK = 1e-9


def _angles(sector):
    """The sector's start angle and CCW width in [0, 2*pi), reduced as
    the angle-based test reduced them."""
    return sector.start.angle, _mod_two_pi(sector.end.angle - sector.start.angle)


def _mod_two_pi(t):
    t = math.fmod(t, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        t = 0.0
    return t


def rel_angle(t, start_angle):
    """CCW offset of angle t from start_angle, in [0, 2*pi]; one that
    rounds up to 2*pi is kept, so the point stays outside."""
    rel = math.fmod(t - start_angle, TWO_PI)
    if rel < 0.0:
        rel += TWO_PI
    return rel


def angle_contains(sector, p):
    """Sector membership by ``angle_of`` and the reduced angles: the
    point's CCW offset from the start ray is below the width."""
    start_angle, width = _angles(sector)
    return rel_angle(angle_of(p), start_angle) < width


def angle_gap(sector, p):
    """Angular distance (rad) of p from the nearer of the sector's rays."""
    start_angle, width = _angles(sector)
    rel = rel_angle(angle_of(p), start_angle)
    return min(rel, TWO_PI - rel, abs(rel - width), TWO_PI - abs(rel - width))


def _rel(x, y, start_angle):
    """CCW offset of the point's angle from start_angle, as
    :func:`angle_contains` computes it."""
    return rel_angle(angle_of((x, y)), start_angle)


def gap_sectors(sectors, x, y):
    """Index of the first sector holding each float point (x[k], y[k]) by
    :func:`angle_contains`, or -1, looked up in a table of angular gaps.

    The sector boundaries (every start angle and its end
    ``fmod(start + width, 2*pi)``, plus 0 and 2*pi) cut [0, 2*pi] into
    gaps; each gap's owner is the per-point test at its midpoint, and a
    last slot of -1 follows the table, where a NaN angle sorts.  Points
    within ``BOUNDARY_SLACK`` of a boundary take the per-point test."""
    spans = [_angles(s) for s in sectors]

    def first(t):
        return next((i for i, (start, width) in enumerate(spans)
                     if rel_angle(t, start) < width), -1)

    cuts = np.unique([0.0, TWO_PI, *(start for start, _ in spans),
                      *(math.fmod(start + width, TWO_PI)
                        for start, width in spans)])
    owner = np.array([first(0.5 * (lo + hi))
                      for lo, hi in zip(cuts[:-1], cuts[1:])] + [-1])
    with np.errstate(invalid="ignore"):
        t = np.arctan2(y, x)
    t = np.where(t < 0.0, t + TWO_PI, t)
    lo = np.searchsorted(cuts, t - BOUNDARY_SLACK)
    hi = np.searchsorted(cuts, t + BOUNDARY_SLACK, side="right")
    clear = lo == hi
    sec = np.empty(len(t), dtype=np.intp)
    sec[clear] = owner[lo[clear] - 1]
    for k in np.flatnonzero(~clear).tolist():
        sec[k] = first(angle_of((float(x[k]), float(y[k]))))
    return sec


def orbit_relation(params, max_iter=10000, tol=1e-9):
    """:func:`pwlin.returnmap.orbit_relation` with the forward and
    backward iterates of (0, 1) interleaved, ``step`` and
    ``inverse_step`` one call each per step."""
    src = (0.0, 1.0)
    fwd = bwd = src
    for k in range(1, max_iter + 1):
        if fwd is None and bwd is None:
            break
        for sgn in (1, -1):
            p = fwd if sgn > 0 else bwd
            if p is None:
                continue
            try:
                p = step(params, p) if sgn > 0 else inverse_step(params, p)
            except OrbitOverflowError:
                if sgn > 0:
                    fwd = None
                else:
                    bwd = None
                continue
            if sgn > 0:
                fwd = p
            else:
                bwd = p
            if abs(p[0]) <= tol * math.hypot(*p):
                lam = p[1]
                if lam < 0 and abs(lam + 1.0) > 1000 * tol:
                    raise DegenerateError(
                        f"negative axis return with lam={lam!r}; "
                        "tolerance too loose for a reliable relation")
                return OrbitRelation(sgn * k, lam, src, p)
    return None


def period_matrix_residual(params, q):
    """:func:`pwlin.scanner._period_matrix_residual` with the word read
    off the orbit of (1, 0) renormalized by ``hypot`` at every step."""
    u = (1.0, 0.0)
    signs = []
    for _ in range(q):
        signs.append("+" if u[0] >= 0 else "-")
        try:
            u = step(params, u)
        except OrbitOverflowError:
            return math.inf
        r = math.hypot(*u)
        u = (u[0] / r, u[1] / r)
    m = word_matrix(params, "".join(signs))
    return min(m.dist(Mat2.identity()), m.dist(Mat2(-1.0, 0.0, 0.0, -1.0)))


def word_matrix(params, word):
    """:func:`pwlin.core.word_matrix` with one product loop for double
    slopes, in ``np.longdouble``, and another for every other type."""
    a, b = params.a, params.b
    if isinstance(a, float) and isinstance(b, float):
        one = np.longdouble(1.0)
        m11, m12, m21, m22 = one, one * 0, one * 0, one
        al, bl = np.longdouble(a), np.longdouble(b)
        for ch in word:
            slope = al if ch == PLUS else bl
            m11, m12, m21, m22 = (slope * m11 - m21, slope * m12 - m22,
                                  m11, m12)
        return Mat2(float(np.float64(m11)), float(np.float64(m12)),
                    float(np.float64(m21)), float(np.float64(m22)))
    one = a ** 0
    m11, m12, m21, m22 = one, one - one, one - one, one
    for ch in word:
        slope = a if ch == PLUS else b
        m11, m12, m21, m22 = (slope * m11 - m21, slope * m12 - m22, m11, m12)
    return Mat2(m11, m12, m21, m22)


# ---- rotation brackets, and the snap walk they cut short ----

def rotation_brackets(params, steps):
    """The brackets of :func:`pwlin.circle.rotation_brackets` after each
    of ``steps`` steps, one ``(lower, upper)`` pair of Fractions per
    step: the orbit of (1, 0) walked with ``step``'s arithmetic and
    ``_rotation_steps``' rescale by 2**512, the winding count and both
    bounds updated at every step."""
    a, b = params.a, params.b
    x, y = 1.0, 0.0
    turns = 0
    lower = upper = None
    out = []
    for n in range(1, steps + 1):
        if x < 0.0 <= y:
            turns += 1
        x, y = (a * x - y, x) if x >= 0.0 else (b * x - y, x)
        m = max(abs(x), abs(y))
        if m > 1e150:
            x, y = x * 2.0 ** -512, y * 2.0 ** -512
        elif m < 1e-150:
            x, y = x * 2.0 ** 512, y * 2.0 ** 512
        lo = Fraction(turns - (y < 0.0), n)
        hi = Fraction(turns + (y > 0.0 or (y == 0.0 and x < 0.0)), n)
        lower = lo if lower is None else max(lower, lo)
        upper = hi if upper is None else min(upper, hi)
        out.append((lower, upper))
    return out


def builder_snap(params, steps, q_max=64):
    """The periodic-suspect decision ``build_invariant_circle`` took from
    the full walk alone: the snap of the ``steps``-step estimate."""
    return snap_rational(rotation_number(params, (1.0, 0.0), steps), q_max)


def sample_arc(form, level, sector, anchor, n_samples, cls):
    """The samples :func:`pwlin.arc_in_sector` took per conic class
    before the area flow: by angle in the Gram matrix's eigenframe for
    an ellipse, by the hyperbolic parameter on the anchored branch for a
    hyperbola, affinely along the null eigendirection for parallel
    lines."""
    if cls is ConicClass.ELLIPSE:
        return sample_ellipse(form, level, sector, n_samples)
    if cls is ConicClass.PARALLEL_LINES:
        return sample_line(form, level, sector, anchor, n_samples)
    return sample_hyperbola(form, level, sector, anchor, n_samples)


def principal_frame(form):
    """Orthonormal eigenframe (columns) of the Gram matrix with det +1
    and eigenvalues sorted ascending."""
    gram = np.array([[form.A, form.B], [form.B, form.C]])
    evals, evecs = np.linalg.eigh(gram)
    if np.linalg.det(evecs) < 0:
        evecs = evecs.copy()
        evecs[:, 1] = -evecs[:, 1]
    return evals, evecs


def sample_ellipse(form, level, sector, n_samples):
    evals, evecs = principal_frame(form)
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


def sample_hyperbola(form, level, sector, anchor, n_samples):
    evals, evecs = principal_frame(form)
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


def sample_line(form, level, sector, anchor, n_samples):
    evals, evecs = principal_frame(form)
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
