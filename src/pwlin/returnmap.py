"""Angular sectors, first-return maps, and the axis-orbit relation.

Sectors are half-open counterclockwise cones R+[start, end); because the
map sends rays to rays, its first-return map to a sector is piecewise
linear, with breakpoints at preimages of the vertical directions and of
the sector boundary.

Every geometric decision here (sector membership, CCW order, the sort of
the distinguished set) rests on the sign of a cross product
``ux*py - uy*px``, decided by :func:`cross_sign` exactly on the given
numbers: the float result decides wherever it clears its rounding
error bound, and integer arithmetic on the numbers' ratios decides the
rest.  Angles are only read out (``Ray.angle``, probe placement),
never compared, except by :func:`sector_table`'s pseudo-angle bins,
and those only filter: a point they cannot provably place goes to
the exact sign rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key

from .circle import TWO_PI, angle_of
from .core import (MAX_CHUNK, MINUS, OVERFLOW_LIMIT, PLUS, Mat2, Params,
                   Point, check_slopes, chunk_schedule, first_escape, iterate,
                   rescale_chunk, walk_chain, walk_rescaled, word_matrix)
from .errors import (ArgumentError, DegenerateError, InconsistentPieceError,
                     NoReturnError, OrbitOverflowError)

#: Rays closer than this (the sine of the angle between them) are
#: treated as the same direction by ``return_map``.
RAY_DEDUP_TOL = 1e-11

#: For products l, r of doubles, the float sign of ``l - r`` is exact when
#: ``|l - r| > _ERR * (|l| + |r|) + _TINY`` (4x the rounding error, plus
#: a margin for products that underflow).
_ERR, _TINY = 2.0 ** -51, 2.0 ** -1000

#: :meth:`Sector.first_inside` tests ranges of at most SHORT_RANGE
#: points one point at a time.  :func:`sector_table` has TABLE_BINS
#: equal bins of the pseudo-angle [0, 4), and UNSURE marks a bin or a
#: point whose sector it cannot prove.
SHORT_RANGE, TABLE_BINS, UNSURE = 32, 2 ** 14, -2


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


def cross_sign(u: Point, p: Point) -> int:
    """Sign (1, 0 or -1) of ``u[0]*p[1] - u[1]*p[0]``, exact on the
    given finite numbers (floats, ints or ``Fraction``s alike).  The
    computed difference decides when it clears its error bound; else,
    with ratios a/b, c/d, e/f, g/h of u[0], p[1], u[1], p[0] (positive
    denominators), the sign of the integer a*c*f*h - e*g*b*d does."""
    l, r = u[0] * p[1], u[1] * p[0]
    if abs(l - r) > _ERR * (abs(l) + abs(r)) + _TINY:
        return 1 if l > r else -1
    (a, b), (c, d), (e, f), (g, h) = (v.as_integer_ratio()
                                      for v in (u[0], p[1], u[1], p[0]))
    return _sgn(a * c * f * h - e * g * b * d)


def _half(u: Point, p: Point) -> int:
    """0 when p lies in the half-plane [u, -u) (CCW from u, the ray of u
    included: p on it has u's component signs), else 1; 1 for p = 0."""
    s = cross_sign(u, p)
    return int(s < 0 or s == 0 and (_sgn(p[0]), _sgn(p[1]))
               != (_sgn(u[0]), _sgn(u[1])))


def ccw_key(u: Point):
    """Sort key that puts nonzero points in CCW order of direction,
    starting at the ray of u: by :func:`_half`, then by cross sign
    (two directions in one half-plane are less than pi apart)."""
    def order(p: Point, q: Point) -> int:
        hp, hq = _half(u, p), _half(u, q)
        return hp - hq if hp != hq else -cross_sign(p, q)
    return cmp_to_key(order)


@dataclass(frozen=True)
class Ray:
    """A direction from the origin, stored as the vector it was given.

    :meth:`through` scales a float vector by the power of two that puts
    its larger component in [1, 2) when that is exact, so products with
    orbit points stay finite; the direction is never rounded.  ``angle``
    is a read-out, computed on first access; no decision rests on it.
    """

    direction: Point

    @classmethod
    def through(cls, p: Point) -> "Ray":
        x, y = p
        if x == 0 and y == 0 or not x - x == 0 == y - y:  # zero, inf, nan
            raise DegenerateError(f"a ray needs a finite nonzero point: {p}")
        if isinstance(x, float) and isinstance(y, float):
            e = 1 - math.frexp(max(abs(x), abs(y)))[1]
            sx, sy = math.ldexp(x, e), math.ldexp(y, e)
            if math.ldexp(sx, -e) == x and math.ldexp(sy, -e) == y:
                x, y = sx, sy
        return cls((x, y))

    @classmethod
    def at_angle(cls, t: float) -> "Ray":
        return cls((math.cos(t), math.sin(t)))

    @cached_property
    def angle(self) -> float:
        return angle_of(self.direction)


@dataclass(frozen=True)
class Sector:
    """Half-open CCW sector R+[start, end).

    With u and v the start and end directions, p lies in the sector when
    it comes before v in the CCW order from u (:func:`ccw_key`): p is in
    the half-plane [u, -u) and v is not, or both or neither are and
    cross(p, v) > 0.  Narrower than pi, this is cross(u, p) >= 0 and
    cross(p, v) > 0; the half-plane test serves sectors of width pi or
    more.  The signs are :func:`cross_sign`'s, exact on the given
    numbers: the start ray is inside, the end ray is not.  Zero and
    non-finite points are in no sector.
    """

    start: Ray
    end: Ray

    def __post_init__(self):
        if self._end_half == 0 and cross_sign(self.start.direction,
                                              self.end.direction) == 0:
            raise DegenerateError("sector endpoints coincide")

    @cached_property
    def _end_half(self) -> int:
        return _half(self.start.direction, self.end.direction)

    @property
    def width(self) -> float:  # a read-out, as Ray.angle
        return (self.end.angle - self.start.angle) % TWO_PI

    def contains(self, p: Point) -> bool:
        key = ccw_key(self.start.direction)
        finite = p[0] - p[0] == 0 and p[1] - p[1] == 0  # not inf or nan
        return finite and key(p) < key(self.end.direction)

    def _mask(self, first: np.ndarray, ahead: np.ndarray) -> np.ndarray:
        """:meth:`contains` from the points' :func:`_sides` of the start
        ray (``first``) and of the end ray (``ahead``)."""
        return first & ahead if self._end_half == 0 else first | ahead

    def first_inside(self, xs, ys, lo: int, hi: int, shift=0) -> int | None:
        """Smallest k in [lo, hi) with the float point ``(xs[k], ys[k +
        shift])`` inside, or None: :meth:`contains` up to the lists' end.
        Up to ``SHORT_RANGE`` points, :func:`_sides`' float test runs
        point by point, with :func:`_half` and :func:`cross_sign` where
        it cannot decide, and stops at the first hit; else numpy."""
        hi = min(hi, len(xs), len(ys) - shift)
        u, v = self.start.direction, self.end.direction
        if hi - lo > SHORT_RANGE:
            import numpy as np

            first, ahead = _sides(
                (u, v), np.fromiter(xs[lo:hi], float, hi - lo),
                np.fromiter(ys[lo + shift:hi + shift], float, hi - lo))
            hit = np.flatnonzero(self._mask(first[0], ahead[1]))
            return lo + int(hit[0]) if hit.size else None
        (u0, u1), (v0, v1) = u, v
        scale = _ERR * max(abs(u0) + abs(u1), abs(v0) + abs(v1))
        wide = self._end_half == 1
        for k in range(lo, hi):
            x, y = xs[k], ys[k + shift]
            ax, ay = abs(x), abs(y)
            # a non-finite point makes d or the bound nan or inf: unsure
            bound = scale * (ax if ax > ay else ay) + _TINY
            d = u0 * y - u1 * x
            first = d > bound or not d < -bound and x - x == 0 == y - y \
                and _half(u, (x, y)) == 0
            if first and wide:
                return k
            if first or wide:  # inside when ahead of the end ray
                d = v0 * y - v1 * x
                if d < -bound or not d > bound and x - x == 0 == y - y \
                        and cross_sign(v, (x, y)) < 0:
                    return k
        return None

    def angle_at(self, fraction: float) -> float:
        """Angle at a fractional position across the sector (not reduced
        mod 2*pi); places ``return_map``'s probes."""
        return self.start.angle + fraction * self.width

    def subdivide(self, interior: list[Ray]) -> list["Sector"]:
        """Split at interior rays, taken in CCW order from the start."""
        key = ccw_key(self.start.direction)
        rays = [self.start,
                *sorted(interior, key=lambda r: key(r.direction)), self.end]
        return [Sector(rays[i], rays[i + 1]) for i in range(len(rays) - 1)]


def _near(r: Ray, s: Ray) -> bool:
    """Whether two rays lie within ``RAY_DEDUP_TOL`` of each other: the
    sine of the angle between them at most the tolerance, its cosine
    positive."""
    (ux, uy), (vx, vy) = r.direction, s.direction
    return ux * vx + uy * vy > 0 and abs(ux * vy - uy * vx) <= (
        RAY_DEDUP_TOL * math.hypot(ux, uy) * math.hypot(vx, vy))


def _sides(rays, x: np.ndarray,
           y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each float point p = (x[k], y[k]) (column) lies in the
    half-plane [u, -u) of each float ray u (row), and whether
    cross(p, u) > 0; neither for a non-finite p.  The float
    ``u[0]*y - u[1]*x`` (a two-term matrix product) decides where it
    exceeds ``_ERR * c * max(|x|, |y|) + _TINY``, c the largest
    |u[0]| + |u[1]|, which bounds its error; :func:`cross_sign` and
    :func:`_half` decide the rest."""
    import numpy as np

    scale = _ERR * max(abs(a) + abs(b) for a, b in rays)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan points
        d = np.array([(-b, a) for a, b in rays]) @ np.vstack((x, y))
    bound = scale * np.maximum(np.abs(x), np.abs(y)) + _TINY
    first, ahead = d > bound, d < -bound  # the sure signs
    sure = first | ahead  # not where d or bound is nan
    for j, k in zip(*np.nonzero(~sure)) if not sure.all() else ():
        p = (float(x[k]), float(y[k]))
        if math.isfinite(p[0]) and math.isfinite(p[1]):
            first[j, k] = _half(rays[j], p) == 0
            ahead[j, k] = cross_sign(rays[j], p) < 0
    return first, ahead


def first_sector(sectors: list[Sector], x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Index of the first of ``sectors`` that contains each float point
    (x[k], y[k]), or -1; the sides of a shared ray are found once."""
    import numpy as np

    row = {r: j for j, r in enumerate(dict.fromkeys(
        r.direction for s in sectors for r in (s.start, s.end)))}
    first, ahead = _sides(list(row), x, y)
    out = np.full(len(x), -1)
    for i in reversed(range(len(sectors))):  # the first one wins
        s = sectors[i]
        f, a = first[row[s.start.direction]], ahead[row[s.end.direction]]
        np.putmask(out, s._mask(f, a), i)
    return out


def _pseudo_angle(x: float, y: float) -> float:
    """1 - x/(|x|+|y|) for y >= 0, else 3 + x/(|x|+|y|): increasing with
    the angle, [0, 2pi) onto [0, 4), no ``atan2``; within 2^-51 in
    floats when |x|+|y| lies in (2^-900, inf)."""
    t = x / (abs(x) + abs(y))
    return 1.0 - t if y >= 0.0 else 3.0 + t


def sector_table(sectors: list[Sector]) -> np.ndarray:
    """:func:`first_sector` over ``TABLE_BINS`` equal bins of the
    pseudo-angle, as int16; ``UNSURE`` marks the bins it cannot prove.

    The cuts are every ray's pseudo-angle, 0 and 4.  A bin is sure when
    its range, widened by 2^-40, holds no cut: every point whose float
    pseudo-angle falls in it then lies strictly between the same rays
    as the middle of its gap between cuts, whose sector it gets.  All
    bins are unsure when a ray's pseudo-angle cannot be trusted."""
    import numpy as np

    table = np.full(TABLE_BINS, UNSURE, np.int16)
    dirs = [r.direction for s in sectors for r in (s.start, s.end)]
    if not all(type(x) is float is type(y)
               and 2.0 ** -900 < abs(x) + abs(y) < math.inf for x, y in dirs):
        return table
    cuts = sorted({0.0, 4.0, *(_pseudo_angle(*d) for d in dirs)})
    mids = [(c + d) / 2 for c, d in zip(cuts, cuts[1:])]
    # a direction at each middle, _pseudo_angle inverted
    xs = [1.0 - m if m <= 2.0 else m - 3.0 for m in mids]
    ys = [math.copysign(1.0 - abs(x), 2.0 - m) for x, m in zip(xs, mids)]
    owners = first_sector(sectors, np.array(xs), np.array(ys))
    n, w = TABLE_BINS / 4, 2.0 ** -40
    for c, d, owner in zip(cuts, cuts[1:], owners.tolist()):
        # bin i, [i, i + 1) / n, widened by w lies strictly inside (c, d)
        table[math.floor((c + w) * n) + 1:
              max(math.ceil((d - w) * n) - 1, 0)] = owner
    return table


def lookup_sectors(table: np.ndarray, x: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """:func:`first_sector` of each float point from a
    :func:`sector_table`, or ``UNSURE`` for a point in an unsure bin or
    with |x|+|y| outside (2^-900, inf), where the pseudo-angle's error
    bound fails."""
    import numpy as np

    with np.errstate(all="ignore"):  # zero, huge, inf and nan points
        s = np.abs(x) + np.abs(y)
        t = x / s
        i = (np.where(y >= 0.0, 1.0 - t, 3.0 + t)
             * (TABLE_BINS / 4)).astype(np.intp)
    owner = table[np.clip(i, 0, TABLE_BINS - 1)].astype(np.intp)
    owner[~((s > 2.0 ** -900) & (s < math.inf))] = UNSURE
    return owner


@dataclass(frozen=True)
class ReturnPiece:
    """One linear piece of a first-return map."""

    subsector: Sector
    word: str
    matrix: Mat2
    steps: int


@dataclass(frozen=True)
class ReturnMap:
    """First-return map of a sector: CCW-ordered linear pieces that
    partition the sector."""

    sector: Sector
    pieces: list[ReturnPiece] = field(default_factory=list)


@dataclass(frozen=True)
class OrbitRelation:
    """The orbit coincidence T^n(0,1) = (0, lam) (n < 0 runs backward).

    lam < 0 forces lam = -1 (the invariant-circle case); lam > 0 is the
    positive-scaling case with rational rotation number.
    """

    n: int
    lam: float
    source: Point
    target: Point

    @property
    def index(self) -> int:
        return abs(self.n)


def first_preimage_in(
    params: Params,
    target: Point,
    sector: Sector,
    i_min: int = 0,
    max_iter: int = 10000,
) -> tuple[Ray, int] | None:
    """Smallest i >= i_min with T^(-i)(target) pointing into the sector.

    Returns the (ray, i) pair, or None when the budget runs out first;
    ``max_iter`` 0 tests the target alone, a negative one raises
    :class:`~pwlin.errors.ArgumentError`.  Overflow raises
    OrbitOverflowError: the step out of point i (taken for i = max_iter
    too) fails when point i or i + 1 has a y beyond ``OVERFLOW_LIMIT``.
    ``inverse_step`` is ``step`` conjugated by the swap, so the
    backward orbit is the swapped target's
    :func:`~pwlin.core.walk_chain`, read back swapped and tested with
    :meth:`Sector.first_inside`: bit-identical to ``inverse_step`` and
    ``Sector.contains`` per step.
    """
    if max_iter < 0:
        raise ArgumentError(f"max_iter must be >= 0, got {max_iter}")
    if target[0] == 0 and target[1] == 0:
        raise DegenerateError("target must be nonzero")
    x, y = target
    for lo, m in chunk_schedule(max_iter + 1, MAX_CHUNK):
        # point lo + k is (part[k], part[k + 1]), for k = 0..m
        part = walk_chain(params.a, params.b, y, x, m)
        esc = first_escape(part, 1)
        end = m if esc is None else max(esc - 2, 0) + 1
        k = sector.first_inside(part, part, max(i_min - lo, 0), end, 1)
        if k is not None:
            return Ray.through((part[k], part[k + 1])), lo + k
        if esc is not None:
            raise OrbitOverflowError(
                f"orbit component exceeded {OVERFLOW_LIMIT:g}")
        x, y = part[m], part[m + 1]
    return None


def _first_return(params: Params, u: Point, sector: Sector, budget: int):
    """Iterate a direction until its ray re-enters the sector.

    Returns (word, steps).  Signs and angles are invariant under
    positive scaling, so the orbit is walked by
    :func:`~pwlin.core.walk_rescaled`.  A zero or non-finite point comes
    only from such a start (and stays so) or slope (one-step chunks), so
    the chunk's last point shows it.  It and budget exhaustion mean "no
    return seen".  A walk renormalized by ``hypot`` at every step rounds
    differently: the two agree only up to rounding, so an orbit point
    within an ulp or so of a sector boundary or of the vertical axis may
    go either way.
    """
    a, b = params.a, params.b
    xs: list[float] = []  # x before each step: the signs of the word
    chunk = rescale_chunk((a, b), MAX_CHUNK) or 1
    for done, chain, _ in walk_rescaled(a, b, *u, budget, chunk):
        # point k of the chunk, step done + k, is (chain[k + 1], chain[k])
        m = len(chain) - 2
        if not 0.0 < abs(chain[-1]) + abs(chain[-2]) < math.inf:
            raise NoReturnError("orbit degenerated before returning")
        k = sector.first_inside(chain[1:], chain, 1, m + 1)
        if k is not None:
            xs += chain[1:k + 1]
            return "".join(PLUS if v >= 0.0 else MINUS for v in xs), done + k
        xs += chain[1:m + 1]
    raise NoReturnError(f"no return to the sector within {budget} steps")


def return_map(
    params: Params,
    sector: Sector,
    distinguished: list[Ray] | None = None,
    budget: int = 20000,
) -> ReturnMap:
    """Extract the piecewise-linear first-return map of a sector.

    Candidate breakpoints are found constructively: the first backward
    hits of the vertical directions (0, +-1) in the sector, the first
    strict preimage of the start ray, and the first preimage of the end
    ray.  Each resulting subsector is probed at its 1/4, 1/2 and 3/4
    angles; the three itineraries must agree, and adjacent subsectors
    with identical itineraries merge into a single linear piece.

    ``distinguished`` rays, when given, snap nearby candidates onto the
    exact known directions (deterministic boundary assignment).
    Candidates within ``RAY_DEDUP_TOL`` of the boundary or of a kept
    one are dropped; the rest cut the sector in CCW order
    (:meth:`Sector.subdivide`).  A budget below 1 raises
    :class:`~pwlin.errors.ArgumentError`, a non-finite slope
    :class:`~pwlin.errors.DomainError`.
    """
    if budget < 1:
        raise ArgumentError(f"budget must be >= 1, got {budget}")
    check_slopes(params)
    interior: list[Ray] = []
    for target, i_min in (((0.0, 1.0), 0), ((0.0, -1.0), 0),
                          (sector.start.direction, 1),
                          (sector.end.direction, 0)):
        try:
            hit = first_preimage_in(params, target, sector, i_min, budget)
        except OrbitOverflowError:
            continue  # the backward orbit escaped: no reachable preimage
        if hit is None:
            continue
        ray = next((d for d in distinguished or () if _near(hit[0], d)),
                   hit[0])
        # skip the boundary, and rays numerically indistinguishable from it
        # or from a kept one
        if not any(_near(ray, r) for r in (sector.start, sector.end, *interior)):
            interior.append(ray)

    # adjacent subsectors that turn out to carry the same word merge:
    # spurious candidates (e.g. deep preimages) do not create new pieces
    merged: list[tuple[Sector, str, int]] = []
    for sub in sector.subdivide(interior):
        # (word, steps) of the probes; steps is the word's length
        words = {_first_return(params, (math.cos(t), math.sin(t)), sector,
                               budget)
                 for t in map(sub.angle_at, (0.25, 0.5, 0.75))}
        if len(words) != 1:
            raise InconsistentPieceError(
                f"itinerary changes inside subsector at "
                f"[{sub.start.angle:.12f}, {sub.start.angle + sub.width:.12f})")
        (word, steps), = words
        if merged and merged[-1][1] == word:
            sub = Sector(merged.pop()[0].start, sub.end)
        merged.append((sub, word, steps))
    return ReturnMap(sector, [ReturnPiece(sub, word, word_matrix(params, word),
                                          steps) for sub, word, steps in merged])


def commutator_residual(m1: Mat2, m2: Mat2) -> float:
    """Relative size of m1@m2 - m2@m1, normalized by m1@m2."""
    prod = m1 @ m2
    comm = prod.dist(m2 @ m1)
    scale = prod.max_abs()
    return comm / scale if scale > 0 else comm


def orbit_relation(
    params: Params,
    max_iter: int = 10000,
    tol: float = 1e-9,
) -> OrbitRelation | None:
    """Scan the orbit of (0, 1) for a return to the vertical axis.

    The smallest |n| wins, forward on a tie.  A point counts as on-axis
    when |x| <= tol * ||v||; a direction ends at its first iterate with
    a component beyond ``OVERFLOW_LIMIT``.  Absence within the budget
    is a valid result (None).  Both directions are
    :func:`~pwlin.core.walk_chain` lanes: forward from (0, 1), backward
    from the swapped start (1, 0), read back swapped.  A ``max_iter``
    below 1 raises :class:`~pwlin.errors.ArgumentError`, a non-finite
    slope :class:`~pwlin.errors.DomainError`.
    """
    if max_iter < 1:
        raise ArgumentError(f"max_iter must be >= 1, got {max_iter}")
    check_slopes(params)
    src = (0.0, 1.0)
    lanes = {1: (0.0, 1.0), -1: (1.0, 0.0)}  # sign of n: walk start
    for done, m in chunk_schedule(max_iter, MAX_CHUNK):
        hits = []
        for sgn, (x, y) in list(lanes.items()):
            chain = walk_chain(params.a, params.b, x, y, m)
            esc = first_escape(chain, 2)
            end = m + 1 if esc is None else esc - 1
            # point k of the chunk is (chain[k + 1], chain[k]), swapped
            # back for n < 0
            for k, p in enumerate(zip(chain[2:end + 1], chain[1:end]), 1):
                p = p if sgn > 0 else p[::-1]
                if abs(p[0]) <= tol * math.hypot(*p):
                    hits.append((k, -sgn, p))  # forward wins a tie
                    break
            if esc is None:
                lanes[sgn] = chain[-1], chain[-2]
            else:
                del lanes[sgn]  # escaped: no further returns this way
        if hits:
            k, back, p = min(hits)
            lam = p[1]
            if lam < 0 and abs(lam + 1.0) > 1000 * tol:
                raise DegenerateError(
                    f"negative axis return with lam={lam!r}; "
                    "tolerance too loose for a reliable relation")
            return OrbitRelation(-back * (done + k), lam, src, p)
        if not lanes:
            break  # both directions escaped: no further returns possible
    return None


def distinguished_set(params: Params, relation: OrbitRelation) -> list[Point]:
    """The |n| orbit points joining (0,1) and (0,-1), sorted CCW.

    Requires the lam = -1 case.  The points keep their true magnitudes;
    the list starts at the first point CCW from the positive x axis,
    that axis included (:func:`ccw_key`).
    """
    if relation.lam >= 0:
        raise ArgumentError("distinguished set needs the lam = -1 relation")
    x, y = relation.source  # (0, 1), in the relation's number type
    start = (x, y) if relation.n > 0 else (x, -y)
    orbit, _ = iterate(params, start, relation.index)
    points = orbit[1:]
    points.sort(key=ccw_key((1, 0)))
    return points


def distinguished_sectors(points: list[Point]) -> list[Sector]:
    """Consecutive CCW sectors cut by the rays of a distinguished set."""
    rays = [Ray.through(p) for p in points]
    return [
        Sector(rays[i], rays[(i + 1) % len(rays)]) for i in range(len(rays))
    ]
