"""Assembly of piecewise-conic invariant circles.

When the orbit of (0, 1) reaches (0, -1) in n steps (the lam = -1
relation) and the rotation number is irrational, the closure of every
nonzero orbit is an invariant circle made of at most |n| conic arcs of
a single type.  The builder constructs the canonical circle through
(0, 1): the orbit points joining the two axis hits cut the plane into
|n| sectors, each sector carries a two-piece commuting return map, and
the shared invariant form anchored at the sector's own orbit point
yields the arc.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, angle_of, rotation_number, snap_rational
from .conics import (
    ConicArc,
    ConicClass,
    arc_in_sector,
    conic_class_of_trace,
    invariant_form,
    level_through,
)
from .core import OVERFLOW_LIMIT, Params, Point, walk_chain
from .errors import (
    ArgumentError,
    AsymptoteInSectorError,
    CommutationError,
    InconsistentPieceError,
    OrbitOverflowError,
    PeriodicSuspectError,
    PwlinError,
)
from .returnmap import (
    OrbitRelation,
    Ray,
    commutator_residual,
    distinguished_sectors,
    distinguished_set,
    return_map,
)

#: Builder acceptance thresholds (two orders above double noise at 1e5 steps).
MAX_GAP = 1e-6
MAX_COMMUTATOR = 1e-8
#: Rotation snaps with denominator <= this mark the map as periodic-suspect.
PERIODIC_Q_MAX = 64
#: Orbit points per numpy block in ``residual_report``; bounds its memory.
RESIDUAL_CHUNK = 4096
#: Angular distance (rad) from a sector boundary within which
#: ``residual_report`` finds a point's sector by the per-point test.
BOUNDARY_SLACK = 1e-9


@dataclass(frozen=True)
class InvariantCircle:
    """A certified piecewise-conic invariant circle.

    ``arcs`` are CCW-ordered, one per sector cut by the distinguished
    orbit points; they all share one conic class.  ``max_residual`` is
    the worst level residual of the distinguished points against their
    sectors' forms, ``max_gap`` the worst relative endpoint mismatch
    between adjacent arcs.
    """

    params: Params
    n: int
    arcs: list[ConicArc]
    conic_class: ConicClass
    max_residual: float
    max_gap: float

    @property
    def sector_count(self) -> int:
        return len(self.arcs)


def build_invariant_circle(
    params: Params,
    relation: OrbitRelation,
    n_samples: int = 512,
    budget: int = 8192,
    snap_check_steps: int = 100_000,
) -> InvariantCircle:
    """Build the canonical invariant circle for a lam = -1 relation.

    Every sector is processed even after a failure, so the strongest
    structural obstruction wins: an asymptote inside a sector (no
    bounded invariant set exists, the divergent regime) is reported in
    preference to budget exhaustion in transient sectors.  When the
    rotation number snaps to a small-denominator rational the map is
    suspected periodic and the result is withheld as uncertifiable.
    """
    if relation.lam >= 0:
        raise ArgumentError("invariant-circle construction needs lam = -1")

    est = rotation_number(params, (1.0, 0.0), snap_check_steps)
    periodic_suspect = snap_rational(est, PERIODIC_Q_MAX)

    points = distinguished_set(params, relation)
    sectors = distinguished_sectors(points)
    rays = [Ray.through(p) for p in points]

    arcs: list[ConicArc | None] = []
    failures: list[PwlinError] = []
    classes: set[ConicClass] = set()
    for i, sector in enumerate(sectors):
        try:
            arcs.append(_sector_arc(params, sector, points[i], rays,
                                    n_samples, budget))
            classes.add(arcs[-1].conic_class)
        except ArgumentError:  # a bad argument, not a property of the sector
            raise
        except PwlinError as exc:
            arcs.append(None)
            failures.append(exc)

    asymptote = next(
        (e for e in failures if isinstance(e, AsymptoteInSectorError)), None)
    if asymptote is not None:
        raise asymptote
    if failures:
        if periodic_suspect is not None:
            raise PeriodicSuspectError(
                f"rotation snaps to {periodic_suspect}; construction "
                f"degenerated ({failures[0]})") from failures[0]
        raise failures[0]
    if periodic_suspect is not None:
        raise PeriodicSuspectError(
            f"rotation number snaps to {periodic_suspect} "
            f"(denominator <= {PERIODIC_Q_MAX}); circle not certified")
    if len(classes) != 1:
        raise InconsistentPieceError(
            f"sectors disagree on the conic class: {sorted(c.value for c in classes)}")

    built = [a for a in arcs if a is not None]
    max_residual = _points_residual(built, points)
    max_gap = _adjacent_gap(built)
    if max_gap > MAX_GAP:
        raise InconsistentPieceError(
            f"adjacent arcs fail to meet: relative gap {max_gap:.3e}")
    return InvariantCircle(
        params=params,
        n=relation.n,
        arcs=built,
        conic_class=classes.pop(),
        max_residual=max_residual,
        max_gap=max_gap,
    )


def _sector_arc(params, sector, anchor_point, rays, n_samples, budget):
    """Two-piece return map, shared form, and the arc for one sector."""
    rmap = return_map(params, sector, distinguished=rays, budget=budget)
    if len(rmap.pieces) != 2:
        raise InconsistentPieceError(
            f"expected a two-piece return map, found {len(rmap.pieces)}")
    m1, m2 = rmap.pieces[0].matrix, rmap.pieces[1].matrix
    resid = commutator_residual(m1, m2)
    if resid > MAX_COMMUTATOR:
        raise CommutationError(
            f"return pieces fail to commute: residual {resid:.3e}")
    form = invariant_form(m1)
    _check_preserves(form, m2)
    level = level_through(form, anchor_point)
    # both pieces share one class; use the trace split on the first piece
    cls = conic_class_of_trace(m1.trace())
    arc = arc_in_sector(form, level, sector, anchor_point, n_samples)
    if arc.conic_class is not cls and cls is not ConicClass.PARALLEL_LINES:
        raise InconsistentPieceError(
            f"form class {arc.conic_class.value} disagrees with "
            f"trace class {cls.value}")
    return arc


def _check_preserves(form, m, tol: float = 1e-8):
    """The commuting partner must preserve the same form."""
    for v in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.3), (-0.4, -0.9)):
        image = m.apply(v)
        scale = max(1.0, abs(form(v)))
        if abs(form(image) - form(v)) > tol * scale * max(1.0, m.max_abs() ** 2):
            raise CommutationError(
                "second piece does not preserve the invariant form")


def _points_residual(arcs: list[ConicArc], points: list[Point]) -> float:
    """Worst level residual of the distinguished points.

    Each point bounds two sectors: it anchors one arc (residual zero by
    construction) and closes the CCW-previous one, so the previous
    arc's form is the informative check.
    """
    worst = 0.0
    count = len(arcs)
    for i, arc in enumerate(arcs):
        for p in (points[i], points[(i + 1) % count]):
            scale = max(1.0, abs(arc.level))
            worst = max(worst, abs(arc.form(p) - arc.level) / scale)
    return worst


def _adjacent_gap(arcs: list[ConicArc]) -> float:
    """Worst relative mismatch between an arc's end and the next start."""
    worst = 0.0
    for i, arc in enumerate(arcs):
        nxt = arcs[(i + 1) % len(arcs)]
        pa = arc.samples[-1]
        pb = nxt.samples[0]
        scale = max(math.hypot(*pa), math.hypot(*pb), 1e-300)
        worst = max(worst, math.hypot(pa[0] - pb[0], pa[1] - pb[1]) / scale)
    return worst


def residual_report(
    circle: InvariantCircle,
    orbit_len: int = 100_000,
    start: Point = (0.0, 1.0),
) -> tuple[float, list[float]]:
    """Level residuals of a long orbit against the circle's arcs.

    Iterates ``start`` and checks each point against the form and level
    of its containing sector (the first arc, in CCW order, whose sector
    holds the point's angle; a point in none is skipped).  Returns the
    overall maximum and the per-sector maxima (CCW order of the arcs).

    The orbit is walked in chunks of at most ``RESIDUAL_CHUNK`` points
    by the float walker ``rotation_number`` also uses
    (:func:`walk_chain`: ``step``'s arithmetic, no per-step check).
    ``step`` would raise at the first component beyond
    ``OVERFLOW_LIMIT``, and that aborts the whole call, so the same
    error is raised when any non-NaN point of a chunk exceeds it.  The
    sector of each point is the one the per-point loop would find from
    its ``angle_of`` angle (``math.atan2``) and ``Sector.contains_angle``
    in arc order; it is looked up in a table of angular gaps, with that
    loop run only near gap boundaries (see :func:`_residual_walk`).
    Residuals are evaluated with numpy, each operation the one
    ``QuadraticForm`` performs, in the same order, so the result is
    bit-identical to the per-point loop, and a NaN residual is never
    recorded.
    """
    max_res, per_sector, _ = _residual_walk(circle, orbit_len, start, 0)
    return max_res, per_sector


def _first_sector(circle: InvariantCircle, t: float) -> int:
    """Index of the first arc, in CCW order, whose sector holds angle
    ``t``, or -1."""
    return next((i for i, arc in enumerate(circle.arcs)
                 if arc.sector.contains_angle(t)), -1)


def _residual_walk(circle: InvariantCircle, orbit_len: int, start: Point,
                   keep: int) -> tuple[float, list[float],
                                       tuple[np.ndarray, np.ndarray]]:
    """:func:`residual_report`, plus the first ``keep + 1`` points of its
    orbit (``start`` included) as float64 x and y arrays, taken from the
    same walk.

    Sector lookup.  The sector boundaries (every arc's start angle and
    its end ``fmod(start + width, 2*pi)``, plus 0 and 2*pi) cut [0, 2*pi]
    into gaps; each gap's owner is the per-point test evaluated at its
    midpoint, and a last slot of -1 follows the gap table.  A point's
    angle, from ``np.arctan2`` reduced as in ``angle_of``, picks its gap
    by ``np.searchsorted``; a NaN angle sorts past every boundary into
    the last slot, since a NaN angle is in no sector.  This is exact
    away from the boundaries: ``np.arctan2`` and libm ``atan2`` differ
    by a few ulps, and the per-point test's ``fmod`` and ``+ 2*pi`` round
    by about 1e-15 rad, so an angle more than ``BOUNDARY_SLACK`` from
    every boundary lies, by either ``atan2``, on the same side of every
    boundary, where each arc's test gives the same answer as at the gap's
    midpoint.  Points within the slack of a boundary take the per-point
    path (``angle_of``, then :func:`_first_sector`).  That path always
    runs: the first ``|n|`` orbit points of (0, 1) are the distinguished
    points, which lie on the sector rays.
    """
    sectors = [arc.sector for arc in circle.arcs]
    cuts = np.unique([0.0, TWO_PI, *(s.start_angle for s in sectors),
                      *(math.fmod(s.start_angle + s.width, TWO_PI)
                        for s in sectors)])
    owner = np.array([_first_sector(circle, 0.5 * (lo + hi))
                      for lo, hi in zip(cuts[:-1], cuts[1:])] + [-1])
    coef_a = np.array([arc.form.A for arc in circle.arcs])
    coef_2b = np.array([2.0 * arc.form.B for arc in circle.arcs])
    coef_c = np.array([arc.form.C for arc in circle.arcs])
    levels = np.array([arc.level for arc in circle.arcs])
    scales = np.array([max(1.0, abs(arc.level)) for arc in circle.arcs])
    best = np.zeros(len(circle.arcs))

    a, b = circle.params.a, circle.params.b
    limit = OVERFLOW_LIMIT
    x, y = start
    if orbit_len > 0 and abs(x) > limit:
        raise OrbitOverflowError(f"orbit component exceeded {limit:g}")
    kept = [np.array([y, x], dtype=float)]  # the chain of the first keep steps
    done = 0
    while done < orbit_len:
        m = min(RESIDUAL_CHUNK, orbit_len - done)
        chain = walk_chain(a, b, x, y, m)
        xs = np.array(chain)
        # the start's x was tested above, every later x is in this chunk
        if (np.abs(xs[2:]) > limit).any():
            raise OrbitOverflowError(f"orbit component exceeded {limit:g}")
        if done < keep:
            kept.append(xs[2:2 + keep - done])
        y, x = chain[-2], chain[-1]
        done += m

        px, py = xs[2:], xs[1:-1]
        with np.errstate(invalid="ignore"):  # NaN points
            t = np.arctan2(py, px)
        t = np.where(t < 0.0, t + TWO_PI, t)
        lo = np.searchsorted(cuts, t - BOUNDARY_SLACK)
        hi = np.searchsorted(cuts, t + BOUNDARY_SLACK, side="right")
        clear = lo == hi
        sec = np.empty(m, dtype=np.intp)
        sec[clear] = owner[lo[clear] - 1]
        for k in np.flatnonzero(~clear).tolist():
            sec[k] = _first_sector(circle,
                                   angle_of((chain[k + 2], chain[k + 1])))
        hit = sec >= 0
        sec = sec[hit]
        px, py = px[hit], py[hit]
        # float overflow and inf - inf pass silently, as in scalar code
        with np.errstate(over="ignore", invalid="ignore"):
            q = (coef_a[sec] * px * px + coef_2b[sec] * px * py
                 + coef_c[sec] * py * py)
            r = np.abs(q - levels[sec]) / scales[sec]
        valid = ~np.isnan(r)
        np.maximum.at(best, sec[valid], r[valid])
    per_sector = [float(v) for v in best]
    prefix = np.concatenate(kept, dtype=float)
    return max(per_sector), per_sector, (prefix[1:], prefix[:-1])


def circle_to_polyline(
    circle: InvariantCircle,
    samples_per_arc: int | None = None,
) -> list[Point]:
    """Closed CCW polyline through all arcs.

    Shared endpoints between adjacent arcs are deduplicated; the final
    point closes the loop (equal to the first within 1e-9 relative for
    an accepted circle).  When ``samples_per_arc`` differs from the
    arcs' native sampling, the arcs are resampled.
    """
    arcs = circle.arcs
    if samples_per_arc is not None and any(
            len(a.samples) != samples_per_arc for a in arcs):
        arcs = [
            arc_in_sector(a.form, a.level, a.sector, a.anchor, samples_per_arc)
            for a in arcs
        ]
    out: list[Point] = []
    for arc in arcs:
        pts = arc.samples
        if out and _close(out[-1], pts[0]):
            pts = pts[1:]
        out.extend(pts)
    return out


def _close(p: Point, q: Point, tol: float = 1e-9) -> bool:
    scale = max(math.hypot(*p), math.hypot(*q), 1e-300)
    return math.hypot(p[0] - q[0], p[1] - q[1]) <= tol * scale
