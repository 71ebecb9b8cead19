"""Angular sectors, first-return maps, and the axis-orbit relation.

Sectors are half-open counterclockwise cones R+[start, end); because the
map sends rays to rays, its first-return map to a sector is piecewise
linear, with breakpoints at preimages of the vertical directions and of
the sector boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .circle import TWO_PI, angle_of, normalize
from .core import (
    MINUS,
    OVERFLOW_LIMIT,
    PLUS,
    Mat2,
    Params,
    Point,
    iterate,
    rescale_chunk,
    walk_chain,
    word_matrix,
)
from .errors import (
    ArgumentError,
    DegenerateError,
    InconsistentPieceError,
    NoReturnError,
    OrbitOverflowError,
)

#: Rays closer than this (radians) are treated as the same direction.
RAY_DEDUP_TOL = 1e-11


def _mod_two_pi(t: float) -> float:
    t = math.fmod(t, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        t = 0.0
    return t


def _rel_angle(t: float, start_angle: float) -> float:
    """CCW offset of angle t from start_angle, in [0, 2*pi].

    A result that rounds up to 2*pi is kept as 2*pi: it denotes a point
    an ulp clockwise of the start ray, which must stay outside a
    half-open sector rooted there.
    """
    rel = math.fmod(t - start_angle, TWO_PI)
    if rel < 0.0:
        rel += TWO_PI
    return rel


#: Orbit searches walk :func:`~pwlin.core.walk_chain` chunks of
#: FIRST_CHUNK steps, doubling up to MAX_CHUNK.  In the circle
#: certificates most searches end within 16 steps, but most steps are
#: walked by the few that run out a budget of 8,192: short chunks keep
#: the first from walking far past their end, long ones keep the
#: per-chunk cost of the second low.
FIRST_CHUNK, MAX_CHUNK = 16, 1024


def _chunks(total: int, cap: int):
    """(steps walked, next chunk's length) over ``total`` steps."""
    done, m = 0, FIRST_CHUNK
    while done < total:
        m = min(m, cap, total - done)
        yield done, m
        done += m
        m *= 2


def _first_escape(values: list, lo: int) -> int | None:
    """Smallest k >= lo with ``|values[k]| > OVERFLOW_LIMIT`` (never a
    nan, as in the per-step overflow test), or None."""
    rest, limit = values[lo:], OVERFLOW_LIMIT
    if max(rest) <= limit and min(rest) >= -limit:  # False when rest[0] is nan
        return None
    return next((k for k, v in enumerate(rest, lo) if abs(v) > limit), None)


@dataclass(frozen=True)
class Ray:
    """A direction from the origin, stored as a unit vector.  Its angle
    is computed on first access and kept."""

    direction: Point

    @classmethod
    def through(cls, p: Point) -> "Ray":
        return cls(normalize(p))

    @classmethod
    def at_angle(cls, t: float) -> "Ray":
        return cls((math.cos(t), math.sin(t)))

    @cached_property
    def angle(self) -> float:
        return angle_of(self.direction)


@dataclass(frozen=True)
class Sector:
    """Half-open CCW sector R+[start, end).

    Membership is decided by exact angle comparison after mod-2*pi
    reduction, so boundary points are assigned deterministically: the
    start ray is inside, the end ray is not.
    """

    start: Ray
    end: Ray

    def __post_init__(self):
        if self.width <= RAY_DEDUP_TOL:
            raise DegenerateError("sector endpoints coincide")

    @property
    def start_angle(self) -> float:
        return self.start.angle

    @property
    def width(self) -> float:
        return _mod_two_pi(self.end.angle - self.start.angle)

    def contains_angle(self, t: float) -> bool:
        return _rel_angle(t, self.start_angle) < self.width

    def contains(self, p: Point) -> bool:
        return self.contains_angle(angle_of(p))

    def first_inside(self, xs, ys, lo: int, hi: int) -> int | None:
        """Smallest k in [lo, hi) with the float point ``(xs[k], ys[k])``
        inside, or None.  Each test is :meth:`contains`'s arithmetic:
        ``math.atan2`` per point, the exact rest on the range at once
        (a loop over :meth:`contains` makes the searches 5x slower)."""
        t = np.fromiter(map(math.atan2, ys[lo:hi], xs[lo:hi]), float)
        t[t < 0.0] += TWO_PI
        t[t >= TWO_PI] = 0.0
        rel = np.fmod(t - self.start_angle, TWO_PI)
        rel[rel < 0.0] += TWO_PI
        hit = np.flatnonzero(rel < self.width)
        return lo + int(hit[0]) if hit.size else None

    def contains_closure(self, p: Point, slack: float = 1e-9) -> bool:
        """Membership up to angular slack on both boundaries."""
        rel = _rel_angle(angle_of(p), self.start_angle)
        return rel < self.width + slack or rel >= TWO_PI - slack

    def angle_at(self, fraction: float) -> float:
        """Angle at a fractional position across the sector."""
        return _mod_two_pi(self.start_angle + fraction * self.width)

    def subdivide(self, interior_angles: list[float]) -> list["Sector"]:
        """Split at interior angles (given in absolute radians), CCW."""
        rel = sorted(_mod_two_pi(t - self.start_angle) for t in interior_angles)
        cuts = [self.start_angle] + [
            _mod_two_pi(self.start_angle + r) for r in rel
        ] + [self.end.angle]
        rays = [self.start] + [Ray.at_angle(t) for t in cuts[1:-1]] + [self.end]
        return [Sector(rays[i], rays[i + 1]) for i in range(len(rays) - 1)]


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

    def breakpoints(self) -> list[Ray]:
        return [p.subsector.start for p in self.pieces[1:]]


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

    Returns the (ray, i) pair, or None when the budget runs out first.
    Overflow raises OrbitOverflowError: the step out of point i (taken
    for i = max_iter too) fails when point i or i + 1 has a y beyond
    ``OVERFLOW_LIMIT``.  ``inverse_step`` is ``step`` conjugated by the
    swap, so the backward orbit is the swapped target's
    :func:`~pwlin.core.walk_chain`, read back swapped and tested with
    :meth:`Sector.first_inside`: bit-identical to ``inverse_step`` and
    ``Sector.contains`` per step.
    """
    if target[0] == 0 and target[1] == 0:
        raise DegenerateError("target must be nonzero")
    x, y = target
    for lo, m in _chunks(max_iter + 1, MAX_CHUNK):
        # point lo + k is (part[k], part[k + 1]), for k = 0..m
        part = walk_chain(params.a, params.b, y, x, m)
        esc = _first_escape(part, 1)
        end = m if esc is None else max(esc - 2, 0) + 1
        k = sector.first_inside(part, part[1:], max(i_min - lo, 0), end)
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
    positive scaling, so the orbit is walked in
    :func:`~pwlin.core.rescale_chunk` chunks, rescaled by a power of two
    between them.  A zero or non-finite point comes only from such a
    start (and stays so) or slope (one-step chunks), so the chunk's last
    point shows it.  It and budget exhaustion mean "no return seen".
    A walk renormalized by ``hypot`` at every step rounds differently:
    the two agree only up to rounding, so an orbit point within an ulp
    or so of a sector boundary or of the vertical axis may go either way.
    """
    a, b = params.a, params.b
    x, y = u
    xs: list[float] = []  # x before each step: the signs of the word
    for done, m in _chunks(budget, rescale_chunk((a, b), MAX_CHUNK) or 1):
        e = math.frexp(abs(x) + abs(y))[1]
        # point k of the chunk, step done + k, is (chain[k + 1], chain[k])
        chain = walk_chain(a, b, math.ldexp(x, -e), math.ldexp(y, -e), m)
        y, x = chain[-2:]
        if not 0.0 < abs(x) + abs(y) < math.inf:
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
    """
    candidates: list[tuple[Ray, int]] = []
    for target, i_min in (
        ((0.0, 1.0), 0),
        ((0.0, -1.0), 0),
        (sector.start.direction, 1),
        (sector.end.direction, 0),
    ):
        try:
            hit = first_preimage_in(params, target, sector, i_min, budget)
        except OrbitOverflowError:
            hit = None  # the backward orbit escaped: no reachable preimage
        if hit is not None:
            candidates.append(hit)

    interior: list[float] = []
    for ray, _ in candidates:
        rel = _mod_two_pi(ray.angle - sector.start_angle)
        if distinguished:
            for dray in distinguished:
                if abs(_mod_two_pi(ray.angle - dray.angle + math.pi) - math.pi) <= RAY_DEDUP_TOL:
                    rel = _mod_two_pi(dray.angle - sector.start_angle)
                    break
        if rel <= RAY_DEDUP_TOL or rel >= sector.width - RAY_DEDUP_TOL:
            continue  # boundary, or numerically indistinguishable from it
        if all(abs(rel - r) > RAY_DEDUP_TOL for r in interior):
            interior.append(rel)

    subsectors = sector.subdivide(
        [_mod_two_pi(sector.start_angle + r) for r in sorted(interior)])

    probed: list[tuple[Sector, str, int]] = []
    for sub in subsectors:
        words = []
        for frac in (0.25, 0.5, 0.75):
            t = sub.angle_at(frac)
            words.append(_first_return(params, (math.cos(t), math.sin(t)),
                                       sector, budget))
        if len({w for w, _ in words}) != 1:
            raise InconsistentPieceError(
                f"itinerary changes inside subsector at "
                f"[{sub.start_angle:.12f}, {sub.start_angle + sub.width:.12f})")
        probed.append((sub, words[0][0], words[0][1]))

    # merge adjacent subsectors that turned out to carry the same word:
    # spurious candidates (e.g. deep preimages) do not create new pieces
    merged: list[tuple[Sector, str, int]] = []
    for sub, word, steps in probed:
        if merged and merged[-1][1] == word:
            prev = merged[-1]
            merged[-1] = (Sector(prev[0].start, sub.end), word, steps)
        else:
            merged.append((sub, word, steps))

    pieces = [
        ReturnPiece(sub, word, word_matrix(params, word), steps)
        for sub, word, steps in merged
    ]
    return ReturnMap(sector, pieces)


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
    from the swapped start (1, 0), read back swapped.
    """
    src = (0.0, 1.0)
    lanes = {1: (0.0, 1.0), -1: (1.0, 0.0)}  # sign of n: walk start
    for done, m in _chunks(max_iter, MAX_CHUNK):
        hits = []
        for sgn, (x, y) in list(lanes.items()):
            chain = walk_chain(params.a, params.b, x, y, m)
            esc = _first_escape(chain, 2)
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
    the list starts at the smallest angle in [0, 2*pi).
    """
    if relation.lam >= 0:
        raise ArgumentError("distinguished set needs the lam = -1 relation")
    start = (0.0, 1.0) if relation.n > 0 else (0.0, -1.0)
    orbit, _ = iterate(params, start, relation.index)
    points = orbit[1:]
    points.sort(key=angle_of)
    return points


def distinguished_sectors(points: list[Point]) -> list[Sector]:
    """Consecutive CCW sectors cut by the rays of a distinguished set."""
    rays = [Ray.through(p) for p in points]
    return [
        Sector(rays[i], rays[(i + 1) % len(rays)]) for i in range(len(rays))
    ]
