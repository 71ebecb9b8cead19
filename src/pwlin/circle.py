"""Rotation estimates (angle sum, winding count, sign-count brackets)
and rational snapping."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (Params, Point, check_slopes, mpf_context, mpf_pair,
                   rescale_chunk, walk_chain, walk_mpf, walk_rescaled)
from .errors import ArgumentError, DegenerateError

TWO_PI = 2.0 * math.pi


def _backend(*values):
    """Pick the math module matching the numeric type of the inputs.

    Plain ints/floats use :mod:`math`; anything else (mpmath floats) is
    routed through :mod:`mpmath`, which shares the needed names.
    """
    if all(isinstance(v, (int, float)) for v in values):
        return math
    import mpmath

    return mpmath


def normalize(p: Point) -> Point:
    """Scale a nonzero point to the unit circle."""
    x, y = p
    r = _backend(x, y).hypot(x, y)
    if r == 0:
        raise DegenerateError("cannot normalize the zero vector")
    return (x / r, y / r)


def angle_of(p: Point):
    """Counterclockwise angle of a nonzero point, in [0, 2*pi)."""
    x, y = p
    mm = _backend(x, y)
    t = mm.atan2(y, x)
    if t < 0:
        t = t + 2 * mm.pi
    if t >= 2 * mm.pi:  # guard: tiny negative atan2 can round up to 2*pi
        t = t * 0
    return t


@dataclass(frozen=True)
class RotationEstimate:
    """Birkhoff-average rotation estimate, in turns.

    The ``value`` is reported raw, never clamped to [0, 1/2].
    """

    value: float
    steps: int
    snap: Fraction | None = field(default=None, kw_only=True)

    @property
    def error_bound(self) -> float:
        """The classical 1/N bound for a degree-one monotone circle map.

        It bounds the error for the exact orbit.  A rounded float orbit
        can take the other branch at the vertical axis and leave it: at
        a = -1.1565700953723733e248, b = -2.9520161173403357e-248,
        N = 7 from (1, 0) the float estimate is 2.25/N from the 200-bit
        one.
        """
        return 1.0 / self.steps

    def with_snap(self, snap: Fraction | None) -> "RotationEstimate":
        return RotationEstimate(self.value, self.steps, snap=snap)


def rotation_number(params: Params, u0: Point, steps: int) -> RotationEstimate:
    """Average angular advance of the circle map over ``steps`` iterates.

    Non-finite slopes raise :class:`~pwlin.errors.DomainError`.  Float
    inputs are walked as :func:`~pwlin.core.walk_rescaled` walks, in chunks
    bounded by :func:`rescale_chunk` (one step each for slopes it
    rejects as too steep); one loop steps each chunk, takes each point's
    ``math.atan2`` and adds the unwrapped increments in the order of a
    plain per-step loop.  Power-of-two scaling is exact and
    ``math.atan2`` is scale-invariant, so the result is that plain
    loop's bit for bit wherever its orbit stays clear of overflow and of
    the subnormal range, and keeps the bits it loses elsewhere (a
    subnormal or huge start, slopes of magnitude ``2**399`` and beyond).

    Other inputs (mpmath floats, ``Fraction``) use the winding identity
    of :func:`winding_value` instead of an angle per step.  They are
    walked in blocks of ``ROTATION_BLOCK`` steps: the ``mpf`` inputs
    that :func:`~pwlin.core.mpf_context` admits on integer mantissas by
    :func:`walk_mpf`, the rest by the duck-typed :func:`walk_chain`;
    those give nan when the orbit passes through a non-finite point.
    """
    if steps < 1:
        raise ArgumentError("steps must be >= 1")
    check_slopes(params)
    x, y = u0
    mm = _backend(x, y, params.a, params.b)
    if mm is math:
        return _rotation_float(params, float(x), float(y), steps)
    a, b = params.a, params.b
    ctx = mpf_context(a, b, x, y)
    turns, end = 0, (x, y)
    if ctx is not None:
        a, b, *end = map(mpf_pair, (a, b, x, y))
    for lo in range(0, steps, ROTATION_BLOCK):
        m = min(ROTATION_BLOCK, steps - lo)
        # point k of the block is (chain[k + 1], chain[k]); count the
        # steps from x < 0 <= y: x negative, y (the previous x) not
        if ctx is not None:  # (m, e) pairs: m carries the sign
            chain = walk_mpf(a, b, *end, m, ctx.prec)
            turns += sum(1 for v, u in zip(chain[1:-1], chain)
                         if v[0] < 0 <= u[0])
        else:
            chain = walk_chain(a, b, *end, m)
            if not all(v - v == 0 for v in chain):  # nan and +-inf
                return RotationEstimate(mm.nan, steps)
            turns += sum(1 for v, u in zip(chain[1:-1], chain) if v < 0 <= u)
        end = chain[-1], chain[-2]
    if ctx is not None:
        from mpmath.libmp import from_man_exp

        end = tuple(ctx.make_mpf(from_man_exp(*v)) for v in end)
    return RotationEstimate(winding_value(turns, (x, y), end, steps, mm),
                            steps)


def winding_value(turns: int, start: Point, end: Point, steps: int, mm=math):
    """Mean lift increment, in turns, of ``steps`` steps from ``start``
    to ``end``, ``turns`` of them taken from a point with ``x < 0 <= y``
    (``mm`` is :mod:`math` or :mod:`mpmath`).

    The winding identity: a step's lift increment lies in
    (-pi/2, 3*pi/2) and the new point's y is the old point's x, so the
    increment is the raw ``atan2`` difference plus a full turn exactly
    at those steps, never minus one.  Two ``atan2`` calls replace N,
    and the value differs from the sum of N rounded increments by about
    N rounding errors at most.  The count reads a float ``y = -0.0`` as
    ``y >= 0`` but ``math.atan2`` puts ``(x < 0, -0.0)`` at -pi, so
    float callers pass such a ``y`` as ``+0.0`` (mpf has no -0).
    """
    delta = mm.atan2(end[1], end[0]) - mm.atan2(start[1], start[0])
    return (turns + delta / (2 * mm.pi)) / steps


#: Steps per block of the rotation walks: bounds the chain a non-float
#: walk holds per block, and the float walks' chunks between rescales.
ROTATION_BLOCK = 4096


def _rotation_float(params: Params, x: float, y: float, steps: int) -> RotationEstimate:
    # walk_rescaled's chunks and rescales, with each step's angle taken,
    # unwrapped and added in turn; a pass takes two steps, the first
    # leaving the point as (y, x) and the second as (x, y)
    a, b = params.a, params.b
    chunk = rescale_chunk((a, b), ROTATION_BLOCK) or 1
    atan2, two_pi, lo, hi = math.atan2, TWO_PI, -0.5 * math.pi, 1.5 * math.pi
    prev, total = atan2(y, x), 0.0
    for done in range(0, steps, chunk):
        m = min(chunk, steps - done)
        e = math.frexp(max(abs(x), abs(y)))[1]
        x, y = math.ldexp(x, -e), math.ldexp(y, -e)
        for _ in range(m >> 1):
            y = a * x - y if x >= 0.0 else b * x - y
            t = atan2(x, y)
            d = t - prev
            if d < lo:
                d += two_pi
            elif d >= hi:
                d -= two_pi
            total += d / two_pi
            x = a * y - x if y >= 0.0 else b * y - x
            prev = atan2(y, x)
            d = prev - t
            if d < lo:
                d += two_pi
            elif d >= hi:
                d -= two_pi
            total += d / two_pi
        if m & 1:
            x, y = (a * x - y if x >= 0.0 else b * x - y), x
            t = atan2(y, x)
            d = t - prev
            if d < lo:
                d += two_pi
            elif d >= hi:
                d -= two_pi
            total += d / two_pi
            prev = t
    return RotationEstimate(total / steps, steps)


#: Largest walk of :func:`rotation_brackets`: below 2**26 steps distinct
#: fractions with such denominators stay distinct, in order, as floats.
BRACKET_STEPS_MAX = 2 ** 26


def rotation_brackets(params: Params, steps: int):
    """Exact brackets of the rotation number, from the signs of the
    float orbit of (1, 0).

    The circle map lifts to an increasing F that commutes with integer
    shifts, so F^n(0) >= p proves rho >= p/n and F^n(0) <= p proves
    rho <= p/n.  After n steps with W of them taken from a point with
    ``x < 0 <= y`` (the winding count of :func:`winding_value`), the
    lift of (x_n, y_n) is W plus its angle in (-1/2, 1/2] turns, so
    rho >= (W - [y_n < 0]) / n and rho <= (W + [y_n > 0 or (y_n = 0
    and x_n < 0)]) / n.

    The orbit is walked in :func:`~pwlin.core.walk_rescaled` chunks on
    the chunk schedule and exact power-of-two rescales of the float
    :func:`rotation_number`, which leave every sign and every ``atan2``
    as it was.  After each chunk this yields ``(n, lower, upper)``: n
    the steps walked, ``lower`` the largest and ``upper`` the smallest
    of the bounds over steps 1..n, both :class:`Fraction`.  On floats it
    is a proof for the computed orbit only.  Non-finite slopes raise
    :class:`~pwlin.errors.DomainError`; other number types than floats
    (for which the float signs prove nothing) yield nothing.
    """
    if not 1 <= steps <= BRACKET_STEPS_MAX:
        raise ArgumentError(f"steps must be in [1, {BRACKET_STEPS_MAX}]")
    check_slopes(params)
    a, b = params.a, params.b
    if _backend(a, b) is not math:
        return
    import numpy as np

    chunk = rescale_chunk((a, b), ROTATION_BLOCK) or 1
    turns = 0
    lower = upper = None
    for done, chain, _ in walk_rescaled(a, b, 1.0, 0.0, steps, chunk, chunk):
        chain = np.array(chain)
        m = len(chain) - 2
        # point j of the chunk is (chain[j + 1], chain[j]); the step
        # out of it winds when x < 0 <= y
        neg = chain < 0.0
        wound = np.cumsum(neg[1:-1] & ~neg[:-2]) + turns
        ys = chain[1:-1]
        n = np.arange(done + 1, done + m + 1)
        lo = wound - neg[1:-1]
        hi = wound + ((ys > 0.0) | ((ys == 0.0) & neg[2:]))
        # float quotients order the fractions exactly (steps bound)
        k = int(np.argmax(lo / n))
        cand = Fraction(int(lo[k]), int(n[k]))
        lower = cand if lower is None else max(lower, cand)
        k = int(np.argmin(hi / n))
        cand = Fraction(int(hi[k]), int(n[k]))
        upper = cand if upper is None else min(upper, cand)
        turns = int(wound[-1])
        yield done + m, lower, upper


def convergents(x: float, q_max: int):
    """Continued-fraction convergents p/q of x with q <= q_max."""
    out: list[Fraction] = []
    h_prev, h, k_prev, k = 0, 1, 1, 0  # seeds of the standard recurrence
    y = float(x)
    for _ in range(64):
        a0 = math.floor(y)
        h_prev, h = h, int(a0) * h + h_prev
        k_prev, k = k, int(a0) * k + k_prev
        if k > q_max:
            break
        out.append(Fraction(h, k))
        frac = y - a0
        if frac < 1e-14:
            break
        y = 1.0 / frac
    return out


def snap_rational(est: RotationEstimate, q_max: int) -> Fraction | None:
    """Rational candidate for the rotation number, or None.

    Scans the continued-fraction convergents p/q of the estimate with
    q <= q_max and returns the first one that is consistent with the
    estimation error (within twice the bound) and is a legitimate
    approximation of its quality class (within 1/(2 q^2)), provided the
    run was long enough to resolve denominator q (q^2 <= steps / 4).
    A snap is only a candidate; periodicity needs the matrix test.  A
    non-finite estimate has none.
    """
    if q_max < 1:
        raise ArgumentError("q_max must be >= 1")
    value = float(est.value)
    if not math.isfinite(value):
        return None
    tol = 2.0 * est.error_bound
    for frac in convergents(value, q_max):
        q = frac.denominator
        if q * q > est.steps / 4:
            continue
        err = abs(value - frac.numerator / q)
        if err <= tol and err <= 1.0 / (2.0 * q * q):
            return frac
    return None
