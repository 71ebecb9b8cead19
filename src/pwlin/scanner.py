"""Heuristic parameter classification and grid scans.

The verdicts are candidates, not certificates: exact arithmetic would
be needed to promote them.  Thresholds live in :class:`ScanConfig`; the
defaults classify every worked example and every figure parameter of
the underlying study correctly.

One method, :meth:`_NormRuns.fold`, reduces the norm runs chunk by
chunk, taking ``hypot`` only where a point may move a running extreme:
:func:`classify` feeds it :func:`~pwlin.core.walk_rescaled` chunks of
one cell, :func:`scan` the numpy lanes of all cells of a grid, and
:func:`scan` then decides each cell with the code of :func:`classify`.
Verdicts, snaps, ``periodic_q`` and the norm columns match per-cell
:func:`classify` bit for bit.  :func:`scan` takes the rotation value by
counting turns (:func:`~pwlin.circle.winding_value`) where
:func:`classify` sums N angles; on the 41x41 grid over [-2, 2]^2 they
agree to 1.8e-13 relative at budget 1e4 and 1.8e-12 at 1e5.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .circle import (RotationEstimate, rotation_number, snap_rational,
                     winding_value)
from .core import (GROWTH_BITS, OVERFLOW_LIMIT, Mat2, Params, iterate,
                   rescale_chunk, walk_rescaled, word_matrix)
from .errors import ArgumentError, OrbitOverflowError, PwlinError


class Verdict(enum.Enum):
    PERIODIC_CANDIDATE = "periodic_candidate"
    CIRCLE_CANDIDATE = "circle_candidate"
    DIVERGENT = "divergent"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ScanConfig:
    """Classification thresholds.

    ``divergence_ratio``: norm growth (both time directions) that marks
    an orbit divergent.  ``periodic_q_max``: largest snap denominator
    for which the one-period matrix test is attempted.
    ``small_q_max``: snaps at or below this denominator block the
    circle verdict (they are credible rationals, not estimation noise).
    ``radius_ratio_max``: largest radial spread accepted as
    circle-like.
    """

    divergence_ratio: float = 1e6
    periodic_q_max: int = 256
    small_q_max: int = 64
    matrix_tol: float = 1e-8
    radius_ratio_max: float = 100.0


@dataclass(frozen=True)
class Evidence:
    """Numbers backing a verdict; unused entries are None."""

    norm_growth: float | None = None
    near_return_residual: float | None = None
    period_matrix_residual: float | None = None
    radius_ratio: float | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in order, not deep-copied


@dataclass(frozen=True)
class ClassRecord:
    params: Params
    rotation: RotationEstimate
    verdict: Verdict
    periodic_q: int | None = None
    evidence: Evidence = field(default_factory=Evidence)
    error: str | None = None

    def to_dict(self) -> dict:
        snap = self.rotation.snap
        return {
            "schema_version": "v1",
            "a": self.params.a,
            "b": self.params.b,
            "rotation_value": self.rotation.value,
            "rotation_steps": self.rotation.steps,
            "rotation_error_bound": self.rotation.error_bound,
            "rotation_snap_p": None if snap is None else snap.numerator,
            "rotation_snap_q": None if snap is None else snap.denominator,
            "verdict": self.verdict.value,
            "periodic_q": self.periodic_q,
            "error": self.error,
            **self.evidence.to_dict(),
        }


class _NormStats(NamedTuple):
    """Norm-run results: forward max/min ratio and least axis proximity
    of the orbit of (0, 1), and its backward max ratio."""

    fwd_max: float
    fwd_min: float
    near: float
    bwd_max: float


#: Smallest step budget :func:`classify` accepts.
MIN_BUDGET = 1000
_BUDGET_ERROR = f"budget must be at least {MIN_BUDGET}"


def classify(params: Params, budget: int = 100_000,
             config: ScanConfig = ScanConfig()) -> ClassRecord:
    """Classify one parameter pair.

    Order of tests: divergence (norm growth in both time directions),
    then a one-period cocycle test when the rotation estimate snaps to
    a rational, then the bounded-orbit (circle) heuristic.  The norm
    runs come from :func:`norm_runs`, the rotation estimate from
    :func:`~pwlin.circle.rotation_number`, which raises
    :class:`DomainError` for a non-finite slope.
    """
    if budget < MIN_BUDGET:
        raise ArgumentError(_BUDGET_ERROR)
    est = rotation_number(params, (1.0, 0.0), budget)
    return _decide(params, est,
                   norm_runs(params, budget, config.divergence_ratio), config)


def _decide(params: Params, est: RotationEstimate, stats: _NormStats,
            config: ScanConfig) -> ClassRecord:
    """Snap, period test and verdict of one cell from its orbit
    statistics; shared by :func:`classify` and :func:`scan`."""
    est = est.with_snap(snap_rational(est, config.periodic_q_max))
    norm_growth = min(stats.fwd_max, stats.bwd_max)
    radius_ratio = stats.fwd_max / stats.fwd_min
    evidence = Evidence(norm_growth=norm_growth,
                        near_return_residual=stats.near,
                        radius_ratio=radius_ratio)

    if (stats.fwd_max > config.divergence_ratio
            and stats.bwd_max > config.divergence_ratio):
        return ClassRecord(params, est, Verdict.DIVERGENT, evidence=evidence)

    snap = est.snap
    if snap is not None and snap.denominator <= config.periodic_q_max:
        q = snap.denominator
        residual = _period_matrix_residual(params, q)
        evidence = Evidence(norm_growth=norm_growth,
                            near_return_residual=stats.near,
                            period_matrix_residual=residual,
                            radius_ratio=radius_ratio)
        if residual <= config.matrix_tol:
            return ClassRecord(params, est, Verdict.PERIODIC_CANDIDATE,
                               periodic_q=q, evidence=evidence)

    small_snap = snap is not None and snap.denominator <= config.small_q_max
    if radius_ratio < config.radius_ratio_max and not small_snap:
        return ClassRecord(params, est, Verdict.CIRCLE_CANDIDATE,
                           evidence=evidence)
    return ClassRecord(params, est, Verdict.UNDETERMINED, evidence=evidence)


def _period_matrix_residual(params: Params, q: int) -> float:
    """Distance of the q-step cocycle along the orbit of (1, 0) from
    +-identity (a snap p/q makes q steps one full angular period).  The
    word is :func:`~pwlin.core.iterate`'s; an escaping orbit gives inf."""
    try:
        m = word_matrix(params, iterate(params, (1.0, 0.0), q)[1])
    except OrbitOverflowError:
        return math.inf
    return min(m.dist(Mat2.identity()), m.dist(Mat2(-1.0, 0.0, 0.0, -1.0)))


def scan(
    a_range: tuple[float, float],
    b_range: tuple[float, float],
    resolution: int,
    budget: int = 10_000,
    half_plane: bool = False,
    config: ScanConfig = ScanConfig(),
) -> list[ClassRecord]:
    """Classify a rectangular parameter grid, row-major in (a, b).

    Cells are independent pure computations merged in a deterministic
    order, so the work can be sharded externally and re-merged by grid
    index.  ``half_plane`` keeps only cells with a >= b (the swap
    conjugacy makes the rest redundant).  Per-cell domain and
    arithmetic failures (:class:`PwlinError`, :class:`ArithmeticError`)
    are recorded in the cell, not raised; an :class:`ArgumentError`
    (such as a ``config`` out of range) and any other exception
    propagate.  A budget below 1 raises :class:`ArgumentError`; one
    from 1 to ``MIN_BUDGET - 1`` marks every cell.

    The orbits of all cells are walked together by one batched kernel.
    Cells it does not reproduce exactly (slopes that are not finite
    floats, or of magnitude 2**399 and beyond) go through
    :func:`classify` one by one.
    """
    if resolution < 0 or resolution > 2048:
        raise ArgumentError("resolution must be in [0, 2048]")
    if budget < 1:
        raise ArgumentError(f"budget must be >= 1, got {budget}")
    if resolution == 0:
        return []
    cells = []
    for i in range(resolution):
        a = _grid_value(a_range, i, resolution)
        for j in range(resolution):
            b = _grid_value(b_range, j, resolution)
            if not (half_plane and a < b):
                cells.append(Params(a, b))
    if budget < MIN_BUDGET:  # classify would reject every cell
        return [_failed_cell(params, budget, _BUDGET_ERROR) for params in cells]
    stats = {}
    batch = [k for k, params in enumerate(cells)
             if rescale_chunk((params.a, params.b), _CHUNK)]
    for lo in range(0, len(batch), _BLOCK):
        block = batch[lo:lo + _BLOCK]
        stats.update(zip(block, _orbit_stats(
            [cells[k] for k in block], budget, config.divergence_ratio)))
    out: list[ClassRecord] = []
    for k, params in enumerate(cells):
        try:
            if k in stats:
                out.append(_decide(params, *stats[k], config))
            else:
                out.append(classify(params, budget, config))
        except ArgumentError:  # a bad argument or config, not a cell property
            raise
        except (PwlinError, ArithmeticError) as exc:  # per-cell marker
            out.append(_failed_cell(params, budget, str(exc)))
    return out


def _failed_cell(params: Params, budget: int, error: str) -> ClassRecord:
    est = RotationEstimate(math.nan, budget)
    return ClassRecord(params, est, Verdict.UNDETERMINED, error=error)


# Lanes are rescaled every _CHUNK steps at most, fewer where the slopes
# are steep (see rescale_chunk).  _BLOCK * _CHUNK = 2**18 bounds the
# (chunk, lanes) buffers of one kernel call.
_CHUNK = 128
_BLOCK = 2048  # cells per kernel call


def _orbit_stats(cells: list[Params], budget: int,
                 cap: float) -> list[tuple[RotationEstimate, _NormStats]]:
    """Rotation estimate from (1, 0) and norm runs of (0, 1) for many
    cells, as :func:`classify` computes them one cell at a time.

    Each cell has two lanes, laid out as in :class:`_NormRuns`: the
    (1, 0) lanes give both the rotation estimate and the backward norm
    run.  A chunk buffer holds ``[y, x, x_1, ..., x_m]`` per lane, as
    :func:`~pwlin.core.walk_chain` does; between chunks its last two
    rows are rescaled by an exact power of two into the first two.  The
    rotation estimate is :func:`~pwlin.circle.winding_value` of each
    (1, 0) lane's count of steps from ``x < 0 <= y`` and its last point.
    A step is four ufunc calls on same-shape rows (a broadcast one would
    take numpy's slower general loop).

    The buffer holds each lane in a sign-folded frame, ``z = c * x`` with
    ``c = +1`` where ``a >= b`` and ``-1`` elsewhere, where the step
    ``F(x) = (a if x >= 0 else b) * x`` becomes ``c * F(x) = max(a * z,
    b * z)``.  Rounding to nearest is monotone, so ``max`` picks the
    rounded product of the right slope, and odd, as negation is exact,
    so ``fl(a * z) = c * fl(a * x)`` and ``fl(u - v)`` in the frame is
    ``c`` times the difference of the x lane: the z lane is ``c * x``
    bit for bit, up to the sign of a zero.  That sign never reaches a
    nonzero value: two consecutive x are never both zero (the start
    pairs are not, and ``x_{n+1} = F(x_n) - x_{n-1}`` is ``-x_{n-1}``
    where ``x_n`` is zero), a zero times a slope is a zero, and a
    nonzero minus a zero (or a zero minus a nonzero) is exact.  The norm
    runs and the rescaling read only magnitudes, the turn count reads
    ``c * z`` through ``< 0`` and ``>= 0``, which take no zero sign, and
    the end point is ``c * z`` with its y passed through ``+ 0.0``.
    """
    import numpy as np

    n = len(cells)
    a = np.array([c.a for c in cells], dtype=float)
    b = np.array([c.b for c in cells], dtype=float)
    slope_a, slope_b = np.tile(a, 2), np.tile(b, 2)  # each lane's slopes
    sign = np.where(slope_a >= slope_b, 1.0, -1.0)
    chunk = rescale_chunk((np.abs(a).max(), np.abs(b).max()), _CHUNK)

    buf = np.empty((chunk + 2, 2 * n))
    rows = list(buf)
    buf[0] = np.repeat([0.0, 1.0], n) * sign
    buf[1] = np.repeat([1.0, 0.0], n) * sign
    prod_a, prod_b = np.empty((2, 2 * n))
    multiply, subtract, maximum = np.multiply, np.subtract, np.maximum
    expo = np.zeros(2 * n, dtype=np.int64)  # true lane = buffer * 2**expo
    turns = np.zeros(n, dtype=np.int64)
    runs = _NormRuns(n, chunk, cap)

    done = 0
    while done < budget:
        m = min(chunk, budget - done)
        for y, z, row in zip(rows, rows[1:m + 1], rows[2:m + 2]):
            multiply(slope_a, z, prod_a)
            multiply(slope_b, z, prod_b)
            maximum(prod_a, prod_b, out=row)
            subtract(row, y, row)
        xs = buf[:m + 1, :n] * sign[:n]
        turns += np.count_nonzero((xs[1:] < 0.0) & (xs[:-1] >= 0.0), axis=0)
        runs.fold(buf[1:m + 2], expo)

        _, e = np.frexp(np.abs(buf[m:m + 2]).max(axis=0))
        np.ldexp(buf[m:m + 2], -e, out=buf[:2])
        expo += e
        done += m

    # + 0.0 turns a y of -0.0, which the count read as y >= 0, into +0.0
    ends = zip((buf[1, :n] * sign[:n]).tolist(),
               (buf[0, :n] * sign[:n] + 0.0).tolist())
    return [(RotationEstimate(winding_value(t, (1.0, 0.0), end, budget),
                              budget), stats)
            for t, end, stats in zip(turns.tolist(), ends, runs.stats())]


#: Relative slack of the candidate rule of :meth:`_NormRuns.fold`, far
#: above the few-ulp errors of ``hypot`` and of the squared norms.
_SLACK = 2.0 ** -30
#: Squared proximities below this may have lost accuracy to underflow.
_TINY_Q = 2.0 ** -190


class _NormRuns:
    """Norm runs of the orbit of (0, 1) of ``n`` cells, forward and
    backward, folded in one chunk at a time.

    Lanes ``[:n]`` follow the orbit of (1, 0), which with x and y
    swapped is the backward orbit of (0, 1) (``inverse_step`` is
    ``step`` conjugated by the swap); lanes ``[n:]`` follow the orbit
    of (0, 1).  ``mx``: each lane's running max norm ratio; ``mn`` and
    ``near``: each forward lane's running min and least ``|x| /
    ||v||``.  A run stops (``live`` turns False) at its first norm
    above ``cap``, which is counted, or at its first ``|x|`` above
    ``OVERFLOW_LIMIT``, which is not and sets its max to inf.
    """

    def __init__(self, n: int, rows: int, cap: float):
        import numpy as np

        self.cap, self.fresh = cap, True  # fresh: no chunk folded yet
        self.mx = np.ones(2 * n)
        self.mn, self.near = np.ones(n), np.full(n, math.inf)
        self.live = np.ones(2 * n, dtype=bool)
        # kept across chunks: fresh ones per chunk cost page faults
        self._sq = np.empty((rows + 1, 2 * n))
        self._s = np.empty((rows, 2 * n))
        self._cand = np.empty((2, rows, 2 * n), dtype=bool)

    def stats(self) -> list[_NormStats]:
        """Each cell's statistics, as plain floats."""
        n = self.mn.size
        mx, mn, near = self.mx.tolist(), self.mn.tolist(), self.near.tolist()
        return [_NormStats(mx[n + i], mn[i], near[i], mx[i])
                for i in range(n)]

    def fold(self, chain, expo) -> None:
        """Fold in one chunk: a ``(m + 1, lanes)`` array of x-components
        in buffer scale, point ``k`` being ``(chain[k + 1], chain[k])``
        and the true point the buffer point times ``2**expo``.

        ``s = x*x + y*y`` and ``q = x*x / s`` are ``h**2`` and ``(|x| /
        h)**2`` of ``h = hypot(x, y)`` to a few ulps, so only an element
        whose ``s`` is within ``_SLACK`` of the squared running max
        (min) of its lane, scaled by ``2**-expo``, or beyond can raise
        (lower) it, and likewise ``q`` for ``near``.  Only these
        candidates get a ``hypot``, with every ``q`` up to ``_TINY_Q``
        (below ``2**-200``, underflow in ``x*x`` may have cost ``q`` its
        accuracy, and its ``|x| / h`` is far below that of any larger
        ``q``) and every ``s`` from ``(2**-expo * OVERFLOW_LIMIT / 2)**2``
        up, which an ``|x|`` above the limit reaches under any running
        max.  The first chunk, whose running stats are the start's,
        takes its own column extremes of ``s`` and ``q`` instead; a
        stopped lane takes nan, which no element passes.  This needs
        finite elements with ``max(|x|, |y|)`` in ``[2**-401,
        2**401]``, as the kernel's chunks keep them (see
        ``rescale_chunk``), or a single row, where an ``s`` that
        overflows is inf, a candidate in any case.

        A live lane's running max is <= cap (the first step's norm is at
        least the starting 1), so its first norm above ``cap`` is a
        candidate.  Compared with ``cap`` and ``OVERFLOW_LIMIT`` scaled
        by ``2**-expo``, exactly: a live lane's ``2**expo`` is at most
        twice values it has seen below both limits, so the scaled limits
        are normal floats (or inf where the true ones are beyond any
        buffer value).  A lane that stops is cut at its stopping row over
        its whole column, a cap step counted, an overflow step not.
        Scaling by a power of two is monotone, so it commutes with max
        and min bit for bit.
        """
        import numpy as np

        live, n, m = self.live, self.mn.size, chain.shape[0] - 1
        x, y = chain[1:], chain[:-1]
        sq = np.multiply(chain, chain, out=self._sq[:m + 1])
        xx = sq[1:]
        s = np.add(xx, sq[:-1], out=self._s[:m])
        cand, more = self._cand[:, :m]
        # least s that may raise the max, largest s (q) that may lower
        # the min (near); nan for backward lanes' min and near, unread
        hi, lo, near = np.full((3, live.size), math.nan)
        with np.errstate(over="ignore"):
            cap_e, limit_e = np.ldexp([[self.cap], [OVERFLOW_LIMIT]], -expo)
            if self.fresh:
                self.fresh = False
                np.multiply(s.max(axis=0), 1.0 - _SLACK, out=hi)
                lo[n:] = s[:, n:].min(axis=0) * (1.0 + _SLACK)
                near[n:] = (xx[:, n:] / s[:, n:]).min(axis=0)
            else:
                np.ldexp(self.mx * (1.0 - _SLACK), -expo, out=hi)
                lo[n:] = np.ldexp(self.mn * (1.0 + _SLACK), -expo[n:])
                near[n:] = self.near * self.near
                hi *= hi
                lo *= lo
            np.minimum(hi, np.square(limit_e * 0.5), out=hi)
            near[n:] = np.maximum(near[n:] * (1.0 + _SLACK), _TINY_Q)
            hi[~live] = lo[~live] = near[~live] = math.nan
            np.greater_equal(s, hi, out=cand)
            cand |= np.less_equal(s, lo, out=more)
            s *= near
            cand |= np.less_equal(xx, s, out=more)

            row, col = np.divmod(np.flatnonzero(cand), live.size)
            xc = x[row, col]
            hk, ak = np.hypot(xc, y[row, col]), np.abs(xc)
            hi, lo, prox = np.full((3, live.size), math.inf)
            hi *= -1.0
            np.maximum.at(hi, col, hk)
            np.minimum.at(lo, col, hk)
            np.minimum.at(prox, col, ak / hk)
            stop = (ak > limit_e[col]) | (hk > cap_e[col])
            if stop.any():
                hit = np.flatnonzero(np.bincount(col[stop], minlength=2 * n))
                hk, ak = np.hypot(x[:, hit], y[:, hit]), np.abs(x[:, hit])
                escaped = ak > limit_e[hit]
                stop = escaped | (hk > cap_e[hit])
                first = stop.argmax(axis=0)
                overflow = escaped[first, np.arange(hit.size)]
                seen = np.arange(m)[:, None] < first + 1 - overflow
                hi[hit] = np.where(seen, hk, -math.inf).max(axis=0)
                hi[hit[overflow]] = math.inf
                lo[hit] = np.where(seen, hk, math.inf).min(axis=0)
                prox[hit] = np.where(seen, ak / hk, math.inf).min(axis=0)
                live[hit] = False
            np.maximum(self.mx, np.ldexp(hi, expo), out=self.mx)
            np.minimum(self.mn, np.ldexp(lo[n:], expo[n:]), out=self.mn)
        np.minimum(self.near, prox[n:], out=self.near)


def norm_runs(params: Params, budget: int, cap: float) -> _NormStats:
    """Norm runs of the orbit of (0, 1) of one cell, forward and
    backward, as :func:`_orbit_stats` computes them for a grid.

    The two lanes of :class:`_NormRuns` are walked by
    :func:`~pwlin.core.walk_rescaled` while they are live, in chunks as
    long as :func:`~pwlin.core.rescale_chunk` allows for the slopes'
    float values (so mpf slopes get long chunks too), one step where it
    rejects them.
    """
    import numpy as np

    a, b = params.a, params.b
    chunk = rescale_chunk((float(a), float(b)), GROWTH_BITS) or 1
    lanes = [walk_rescaled(a, b, x, y, budget, chunk, chunk)
             for x, y in ((1.0, 0.0), (0.0, 1.0))]
    buf = np.empty((chunk + 1, 2))
    expo = np.zeros(2, dtype=np.int64)
    runs = _NormRuns(1, chunk, cap)
    # one-step chunks of steep slopes may overflow x*x in the fold
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(0, budget, chunk):
            live = np.flatnonzero(runs.live).tolist()
            if not live:
                break
            for j in live:
                _, chain, e = next(lanes[j])
                buf[:len(chain) - 1, j] = chain[1:]
                expo[j] += e
            runs.fold(buf[:len(chain) - 1], expo)
    return runs.stats()[0]


def _grid_value(rng: tuple[float, float], i: int, resolution: int) -> float:
    lo, hi = rng
    if resolution == 1:
        return lo
    return lo + (hi - lo) * i / (resolution - 1)
