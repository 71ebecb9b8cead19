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
from fractions import Fraction

from .circle import rotation_brackets, rotation_number, snap_rational
from .conics import (ConicArc, ConicClass, arc_in_sector, conic_class_of_trace,
                     invariant_form, level_through)
from .core import OVERFLOW_LIMIT, Params, Point, walk_chain
from .errors import (ArgumentError, AsymptoteInSectorError, CommutationError,
                     InconsistentPieceError, OrbitOverflowError,
                     PeriodicSuspectError, PwlinError)
from .returnmap import (OrbitRelation, commutator_residual,
                        distinguished_sectors, distinguished_set,
                        first_sector, return_map)

#: Builder acceptance thresholds (two orders above double noise at 1e5 steps).
MAX_GAP = 1e-6
MAX_COMMUTATOR = 1e-8
#: Rotation snaps with denominator <= this mark the map as periodic-suspect.
PERIODIC_Q_MAX = 64
#: Steps of the rotation bracket walk before the full snap walk is run.
SNAP_BRACKET_STEPS = 8192
#: Orbit points per numpy block in ``residual_report``; bounds its memory.
RESIDUAL_CHUNK = 4096


@dataclass(frozen=True)
class InvariantCircle:
    """A certified piecewise-conic invariant circle.

    ``arcs`` are CCW-ordered, one per sector cut by the distinguished
    orbit points; they all share one conic class.  ``max_residual`` is
    the worst level residual of the distinguished points against their
    sectors' forms, ``max_gap`` the worst relative endpoint mismatch
    between adjacent arcs.  Every arc starts and ends exactly on its
    sector's boundary rays, so ``max_gap`` measures only how far the
    forms and levels of adjacent sectors disagree on their shared ray.
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

    Sectors are walked in CCW order.  The first one with an asymptote
    inside it (no bounded invariant set: the divergent regime) raises
    its :class:`AsymptoteInSectorError` at once; other sector failures
    are collected while the rest are walked.  Only when no asymptote is
    found is the rotation number checked: when a ``snap_check_steps``
    estimate snaps to a small-denominator rational the map is suspected
    periodic and the result is withheld as uncertifiable.  The estimate
    is skipped when a short sign-count bracket already rules every such
    snap out.  ``lam >= 0`` and ``snap_check_steps < 1`` raise before
    any sector is walked.
    """
    if relation.lam >= 0:
        raise ArgumentError("invariant-circle construction needs lam = -1")
    if snap_check_steps < 1:
        raise ArgumentError("snap_check_steps must be >= 1")

    points = distinguished_set(params, relation)
    sectors = distinguished_sectors(points)
    rays = [sector.start for sector in sectors]

    arcs: list[ConicArc] = []
    failures: list[PwlinError] = []
    for i, sector in enumerate(sectors):
        try:
            arcs.append(_sector_arc(params, sector, points[i], rays,
                                    n_samples, budget))
        # a bad argument is no sector property; an asymptote decides
        except (ArgumentError, AsymptoteInSectorError):
            raise
        except PwlinError as exc:
            failures.append(exc)

    periodic_suspect = _periodic_suspect(params, snap_check_steps)
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
    classes = {arc.conic_class for arc in arcs}
    if len(classes) != 1:
        raise InconsistentPieceError(
            f"sectors disagree on the conic class: {sorted(c.value for c in classes)}")

    max_residual = _points_residual(arcs, points)
    max_gap = _adjacent_gap(arcs)
    if max_gap > MAX_GAP:
        raise InconsistentPieceError(
            f"adjacent arcs fail to meet: relative gap {max_gap:.3e}")
    return InvariantCircle(
        params=params,
        n=relation.n,
        arcs=arcs,
        conic_class=classes.pop(),
        max_residual=max_residual,
        max_gap=max_gap,
    )


def _periodic_suspect(params: Params, steps: int) -> Fraction | None:
    """``snap_rational(rotation_number(params, (1, 0), steps),
    PERIODIC_Q_MAX)``, skipping the walk once it is sure to be None.

    The estimate lies within 1/steps of the rotation number and a snap
    lies within 2/steps of the estimate, so once the bracket of
    :func:`rotation_brackets` keeps every p/q with q <= PERIODIC_Q_MAX
    more than 3/steps (plus 1e-9 for the estimate's rounding) away,
    nothing can snap.  The bracket walk stops there, or after
    ``SNAP_BRACKET_STEPS`` or ``steps`` steps, when the full walk runs.
    """
    slack = Fraction(3, steps) + Fraction(1, 10 ** 9)
    for _, lower, upper in rotation_brackets(
            params, min(steps, SNAP_BRACKET_STEPS)):
        if _no_fraction_in(lower - slack, upper + slack, PERIODIC_Q_MAX):
            return None
    est = rotation_number(params, (1.0, 0.0), steps)
    return snap_rational(est, PERIODIC_Q_MAX)


def _no_fraction_in(lo: Fraction, hi: Fraction, q_max: int) -> bool:
    """Whether no p/q with q <= q_max lies in [lo, hi]: for each q the
    smallest p with p/q >= lo exceeds the largest with p/q <= hi."""
    return all(-(-lo.numerator * q // lo.denominator)
               > hi.numerator * q // hi.denominator
               for q in range(1, q_max + 1))


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
    arc = arc_in_sector(form, level, sector, anchor_point, n_samples, cls)
    if arc.conic_class is not cls and cls is not ConicClass.PARALLEL_LINES:
        raise InconsistentPieceError(
            f"form class {arc.conic_class.value} disagrees with "
            f"trace class {cls.value}")
    return arc


def _check_preserves(form, m, tol: float = 1e-8):
    """The commuting partner must preserve the same form."""
    size = max(1.0, m.max_abs())
    for v in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.3), (-0.4, -0.9)):
        image = m.apply(v)
        scale = max(1.0, abs(form(v)))
        if abs(form(image) - form(v)) > tol * scale * size * size:
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
    return max(_relative_gap(arc.samples[-1], nxt.samples[0])
               for arc, nxt in zip(arcs, arcs[1:] + arcs[:1]))


def _relative_gap(p: Point, q: Point) -> float:
    """|p - q| / max(|p|, |q|), with 1e-300 guarding two zero points."""
    scale = max(math.hypot(*p), math.hypot(*q), 1e-300)
    return math.hypot(p[0] - q[0], p[1] - q[1]) / scale


def residual_report(
    circle: InvariantCircle,
    orbit_len: int = 100_000,
    start: Point = (0.0, 1.0),
) -> tuple[float, list[float]]:
    """Level residuals of a long orbit against the circle's arcs.

    Iterates ``start`` and checks each point against the form and level
    of its containing sector (the first arc, in CCW order, whose sector
    contains the point by :meth:`Sector.contains`; a point in none is
    skipped).  Returns the overall maximum and the per-sector maxima
    (CCW order of the arcs).

    The orbit is walked in chunks of at most ``RESIDUAL_CHUNK`` points
    by the float walker ``rotation_number`` also uses
    (:func:`walk_chain`: ``step``'s arithmetic, no per-step check).
    ``step`` would raise at the first component beyond
    ``OVERFLOW_LIMIT``, and that aborts the whole call, so the same
    error is raised when any non-NaN point of a chunk exceeds it.  Each
    chunk's sectors come from :func:`~pwlin.returnmap.first_sector`, its
    residuals from numpy, each operation the one ``QuadraticForm``
    performs, in the same order: the result is bit-identical to the
    per-point loop, and a NaN residual is never recorded.
    """
    max_res, per_sector, _ = _residual_walk(circle, orbit_len, start, 0)
    return max_res, per_sector


def _residual_walk(circle: InvariantCircle, orbit_len: int, start: Point,
                   keep: int) -> tuple[float, list[float],
                                       tuple[np.ndarray, np.ndarray]]:
    """:func:`residual_report`, plus the first ``keep + 1`` points of its
    orbit (``start`` included) as float64 x and y arrays, taken from the
    same walk."""
    import numpy as np

    sectors = [arc.sector for arc in circle.arcs]
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
        sec = first_sector(sectors, px, py)
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


def circle_to_polyline(circle: InvariantCircle) -> list[Point]:
    """Closed CCW polyline through all arcs.

    Shared endpoints between adjacent arcs are deduplicated; the final
    point closes the loop (equal to the first within 1e-9 relative for
    an accepted circle).  The arcs' sampling density is the
    ``n_samples`` of :func:`build_invariant_circle`.
    """
    out: list[Point] = []
    for arc in circle.arcs:
        pts = arc.samples
        if out and _relative_gap(out[-1], pts[0]) <= 1e-9:
            pts = pts[1:]
        out.extend(pts)
    return out
