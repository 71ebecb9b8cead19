"""The two-slope piecewise-linear plane map and its matrix cocycle.

The map acts on column vectors: ``(x, y) -> (a*x - y, x)`` when ``x >= 0``
and ``(b*x - y, x)`` when ``x < 0``.  It is an area-preserving
homeomorphism that sends rays from the origin to rays from the origin.
All functions here are pure and duck-typed over the numeric type of
their inputs, so an extended-precision backend (e.g. ``mpmath.mpf``)
can be substituted for ``float`` without any API change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap

from .errors import DomainError, OrbitOverflowError

# Components beyond this magnitude count as escaped; orbits that reach it
# abort with an indexed error instead of propagating infinities.
OVERFLOW_LIMIT = 1e300

#: Points of the plane, column-vector semantics.
Point = tuple[float, float]

#: Sign-word symbols.  A step taken from a point with x >= 0 records PLUS
#: (the x = 0 tie goes to the a-branch everywhere in this package).
PLUS = "+"
MINUS = "-"


@dataclass(frozen=True)
class Params:
    """Slope pair: ``a`` applies where x >= 0, ``b`` where x < 0.

    ``mu`` and ``nu`` are the half-difference/half-sum coordinates in
    which the orbit recursion reads ``x_{n+2} = mu*|x_{n+1}| +
    nu*x_{n+1} - x_n``.  They are always derived from (a, b), never
    stored, so ``a == nu + mu`` and ``b == nu - mu`` hold by
    construction.
    """

    a: float
    b: float

    @property
    def mu(self):
        return 0.5 * (self.a - self.b)

    @property
    def nu(self):
        return 0.5 * (self.a + self.b)


def check_slopes(params: Params) -> None:
    """Raise :class:`DomainError` naming the slopes unless both are
    finite (``v - v == 0`` fails only for nan and +-inf, in any number
    type)."""
    if not (params.a - params.a == 0 and params.b - params.b == 0):
        raise DomainError(
            f"slopes must be finite, got a={params.a!r}, b={params.b!r}")


def step(params: Params, p: Point) -> Point:
    """One forward application of the map."""
    x, y = p
    slope = params.a if x >= 0 else params.b
    nx = slope * x - y
    if abs(nx) > OVERFLOW_LIMIT or abs(x) > OVERFLOW_LIMIT:
        raise OrbitOverflowError(f"orbit component exceeded {OVERFLOW_LIMIT:g}")
    return (nx, x)


def inverse_step(params: Params, p: Point) -> Point:
    """One backward application; exact inverse of :func:`step`."""
    x, y = p
    slope = params.a if y >= 0 else params.b
    ny = slope * y - x
    if abs(ny) > OVERFLOW_LIMIT or abs(y) > OVERFLOW_LIMIT:
        raise OrbitOverflowError(f"orbit component exceeded {OVERFLOW_LIMIT:g}")
    return (y, ny)


def orbit_chain(params: Params, p0: Point, n: int):
    """``(chain, ctx, escape)`` of the forward run of ``|n|`` steps from
    ``p0``, or from the swapped start when ``n < 0``: ``chain`` is ``[y,
    x, x_1, ...]``, cut before the first x beyond ``OVERFLOW_LIMIT``,
    whose step is ``escape`` (else None; the start is not tested).
    Inputs that :func:`mpf_context` admits give their context and
    :func:`walk_mpf`'s ``(m, e)`` pairs; others give None and
    :func:`walk_chain` chunks of ``MAX_CHUNK`` steps, each checked by
    :func:`first_escape`, so the walk stops within a chunk of an escape.
    Raises :class:`DomainError` for a non-finite slope."""
    check_slopes(params)
    a, b = params.a, params.b
    x, y = (p0[1], p0[0]) if n < 0 else p0
    ctx = mpf_context(a, b, x, y)
    if ctx is not None:
        chain = walk_mpf(*map(mpf_pair, (a, b, x, y)), abs(n), ctx.prec,
                         OVERFLOW_LIMIT)
    else:
        chain = [y, x]
        for _, m in chunk_schedule(abs(n), MAX_CHUNK, MAX_CHUNK):
            part = walk_chain(a, b, chain[-1], chain[-2], m)
            esc = first_escape(part, 2)
            chain += part[2:esc]
            if esc is not None:
                break
    k = len(chain) - 1  # a cut chain ends before step k
    return chain, ctx, (k if k <= abs(n) else None)


def iterate(params: Params, p0: Point, n: int) -> tuple[list[Point], str]:
    """Iterate ``|n|`` steps from ``p0`` (backward when ``n < 0``).

    Returns the orbit (``|n| + 1`` points including ``p0``) together with
    its sign word.  For forward runs, symbol ``k`` is the sign of the
    x-coordinate before step ``k``.  For backward runs the word is the
    itinerary of the traversed segment read in forward order, so
    ``word_matrix(word)`` always maps the last orbit point to the first.

    The steps of a forward run taken from a point with ``x < 0 <= y``
    (its word's ``+-`` pairs, plus the first step when the word starts
    with ``-`` and ``y_0 >= 0``) are the whole turns of the lift of the
    circle map: see :func:`pwlin.circle.winding_value`.

    Orbit and word are read off :func:`orbit_chain`.  A backward run is the
    forward run from the swapped start ``(y, x)`` with every point
    swapped back and the word reversed, since :func:`inverse_step` is
    :func:`step` conjugated by the swap.

    Raises :class:`DomainError` for a non-finite slope and
    :class:`OrbitOverflowError` carrying the step index at which a
    component escaped.
    """
    chain, ctx, escape = orbit_chain(params, p0, n)
    check_escape(escape)
    if ctx is not None:
        from mpmath.libmp import from_man_exp

        word = "".join([MINUS if m < 0 else PLUS for m, _ in chain[1:-1]])
        chain = list(map(ctx.make_mpf, starmap(from_man_exp, chain)))
    else:
        word = "".join([PLUS if v >= 0 else MINUS for v in chain[1:-1]])
    if n < 0:
        return list(zip(chain, chain[1:])), word[::-1]
    return list(zip(chain[1:], chain)), word


def check_escape(k: int | None) -> None:
    """Raise :class:`OrbitOverflowError` for an orbit whose x escaped at
    step ``k``, unless ``k`` is None."""
    if k is not None:
        raise OrbitOverflowError(f"orbit escaped at step {k}", index=k)


def mpf_context(*values):
    """The mpmath context of ``values`` when all are finite ``mpf`` of
    that one context with at most its precision in bits, and it rounds
    to nearest: the inputs on which :func:`walk_mpf` gives what the
    ``mpf`` operators give.  Else None: nan and +-inf have a negative
    bit count, and for a value made at a higher precision ``mpf_add``'s
    shortcut for far-apart exponents is not correctly rounded."""
    ctx = getattr(values[0], "context", None)
    mpf = getattr(ctx, "mpf", None)
    if mpf is not None and ctx._prec_rounding[1] == "n" and all(
            type(v) is mpf and 0 <= v._mpf_[3] <= ctx.prec for v in values):
        return ctx
    return None


def mpf_pair(v) -> tuple[int, int]:
    """``(m, e)`` with ``m * 2**e`` the value of the finite mpf ``v``."""
    sign, man, exp, _ = v._mpf_
    return (-man if sign else man), exp


def walk_mpf(a, b, x, y, n: int, prec: int, limit=None) -> list:
    """:func:`walk_chain` for finite mpmath floats, on signed integer
    mantissas.

    ``a``, ``b``, ``x``, ``y`` are :func:`mpf_pair` pairs ``(m, e)``,
    value ``m * 2**e``, of values with at most ``prec`` significant
    bits.  Each step rounds the
    exact product ``slope * x`` to ``prec`` bits, to nearest with ties
    to even, then the exact difference with ``y`` once more.  For such
    operands ``mpf_mul`` and ``mpf_sub`` at ``prec`` bits, rounding to
    nearest, are correctly rounded (``mpf_add``'s shortcut for
    far-apart exponents, a sticky bit at ``prec + 4`` bits, included),
    so every value is what the ``mpf`` operators give, bit for bit.
    The branch is read off the sign of ``m`` (mpf has no negative
    zero).  Returns the chain ``[y, x, x_1, ..., x_n]`` of pairs, not
    normalized, cut before the first x beyond ``limit``, if one is given.
    """
    from mpmath.libmp import from_float, from_man_exp, mpf_gt

    # |x| <= 2**(e + prec), so only an x beyond these bits needs the test
    bits = math.inf if limit is None else math.frexp(limit)[1] - 1
    lim = None if limit is None else from_float(limit)
    (am, ae), (bm, be), (xm, xe), (ym, ye) = a, b, x, y
    chain = [y, x]
    push = chain.append
    # both roundings inlined: a helper call per rounding costs what
    # the integer arithmetic saves
    for _ in range(n):
        if xm < 0:
            t, e = bm * xm, be + xe
        else:
            t, e = am * xm, ae + xe
        s = t.bit_length() - prec
        if s > 0:  # q keeps the half bit; >> floors, so t may be < 0
            q = t >> (s - 1)
            if q & 1 and (q & 2 or t & ((1 << (s - 1)) - 1)):
                t = (q >> 1) + 1
            else:
                t = q >> 1
            e += s
        if e >= ye:
            t, e = (t << (e - ye)) - ym, ye
        else:
            t -= ym << (ye - e)
        s = t.bit_length() - prec
        if s > 0:
            q = t >> (s - 1)
            if q & 1 and (q & 2 or t & ((1 << (s - 1)) - 1)):
                t = (q >> 1) + 1
            else:
                t = q >> 1
            e += s
        if e + prec > bits and mpf_gt(from_man_exp(abs(t), e), lim):
            break
        xm, xe, ym, ye = t, e, xm, xe
        push((t, e))
    return chain


#: An orbit walked in unchecked chunks may grow by at most this many bits
#: within one chunk (see :func:`rescale_chunk`).
GROWTH_BITS = 400


def rescale_chunk(slopes, cap: int) -> int:
    """Steps per chunk for an orbit walked without per-step checks.

    Between chunks the orbit is rescaled by an exact power of two.  One
    step changes its max-norm by at most a factor ``max|slope| + 1``
    either way, so the chunk (at most ``cap`` steps) is kept short
    enough that this factor to its length stays within
    ``2**GROWTH_BITS``: an orbit rescaled below 1 then never overflows,
    and never comes near the subnormal range, inside a chunk.  Returns 0
    when no such chunk exists: a slope that is not a finite float, or
    has magnitude ``2**(GROWTH_BITS - 1)`` or more.  Finite float slopes
    that steep are walked one step per chunk (``or 1``): one step from a
    max-norm below 1 stays finite, though a small component of the next
    point may lose bits to the subnormal range.
    """
    limit = 2.0 ** (GROWTH_BITS - 1)
    if not all(isinstance(v, (int, float)) and abs(v) < limit for v in slopes):
        return 0
    growth = math.log2(max(abs(v) for v in slopes) + 1.0)
    return min(cap, int(GROWTH_BITS / max(growth, 1.0)))


def walk_chain(a: float, b: float, x: float, y: float, n: int) -> list:
    """x-components of ``n`` forward float steps from ``(x, y)``.

    Returns ``[y, x, x_1, ..., x_n]``: each point's y is the previous
    point's x, so point ``k`` of the orbit is ``(chain[k + 1],
    chain[k])``.  Each step is :func:`step`'s arithmetic without its
    overflow test; callers bound the chunk or check it afterwards.
    The loop takes four steps per pass, each the same expression, so
    every number type gets the values of a one-step loop.
    """
    chain = [y, x]
    push = chain.append
    for _ in range(n >> 2):
        x1 = a * x - y if x >= 0.0 else b * x - y
        push(x1)
        x2 = a * x1 - x if x1 >= 0.0 else b * x1 - x
        push(x2)
        y = a * x2 - x1 if x2 >= 0.0 else b * x2 - x1
        push(y)
        x = a * y - x2 if y >= 0.0 else b * y - x2
        push(x)
    for _ in range(n & 3 if n > 0 else 0):
        x, y = (a * x - y if x >= 0.0 else b * x - y), x
        push(x)
    return chain


#: Chunked walks start with chunks of FIRST_CHUNK steps by default (see
#: :func:`chunk_schedule`).  In the circle certificates most orbit
#: searches end within 16 steps, but most steps are walked by the few
#: that run out a budget of 8,192: short chunks keep the first from
#: walking far past their end, long ones keep the per-chunk cost of the
#: second low.
FIRST_CHUNK = 16
#: The longest chunk of a chunked orbit walk.
MAX_CHUNK = 1024


def first_escape(values: list, lo: int) -> int | None:
    """Smallest k >= lo with ``|values[k]| > OVERFLOW_LIMIT`` (never a
    nan, as in the per-step overflow test), or None."""
    rest, limit = values[lo:], OVERFLOW_LIMIT
    if max(rest) <= limit and min(rest) >= -limit:  # False when rest[0] is nan
        return None
    return next((k for k, v in enumerate(rest, lo) if abs(v) > limit), None)


def chunk_schedule(total: int, cap: int, first: int = FIRST_CHUNK):
    """(steps walked, next chunk's length) over ``total`` steps: chunks
    of ``first`` steps, doubling up to ``cap`` (all of ``cap`` steps
    when ``first`` is ``cap``), the last one cut at ``total``."""
    done, m = 0, first
    while done < total:
        m = min(m, cap, total - done)
        yield done, m
        done += m
        m *= 2


def walk_rescaled(a, b, x, y, total: int, cap: int,
                  first: int = FIRST_CHUNK):
    """Walk ``total`` steps from ``(x, y)`` in :func:`walk_chain` chunks
    of :func:`chunk_schedule`, each started from the previous point
    scaled by the power of two ``2**-e`` that puts its max-norm in
    [0.5, 1).

    Yields ``(done, chain, e)`` per chunk, ``done`` the steps walked
    before it: orbit point ``done + k`` is ``(chain[k + 1], chain[k])``
    times ``2**E``, E the sum of the ``e`` yielded so far.  The map
    commutes with positive scaling and a power of two scales exactly, so
    each chunk's signs and directions are those of the unscaled orbit
    (of a subnormal start too, whose first rescale loses nothing), and
    with ``cap`` from :func:`rescale_chunk` no chunk overflows.  A zero
    start is walked as it is (``e`` is 0), and nan and inf stay so.
    """
    for done, m in chunk_schedule(total, cap, first):
        e = math.frexp(max(abs(x), abs(y)))[1]
        chain = walk_chain(a, b, math.ldexp(x, -e), math.ldexp(y, -e), m)
        yield done, chain, e
        y, x = chain[-2:]


@dataclass(frozen=True)
class Mat2:
    """A 2x2 real matrix, row-major entries."""

    m11: float
    m12: float
    m21: float
    m22: float

    @classmethod
    def identity(cls, one=1.0) -> "Mat2":
        """The identity, with entries of ``one``'s numeric type."""
        zero = one - one
        return cls(one, zero, zero, one)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def apply(self, p: Point) -> Point:
        x, y = p
        return (self.m11 * x + self.m12 * y, self.m21 * x + self.m22 * y)

    def trace(self):
        return self.m11 + self.m22

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def max_abs(self):
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))

    def dist(self, other: "Mat2"):
        return max(
            abs(self.m11 - other.m11), abs(self.m12 - other.m12),
            abs(self.m21 - other.m21), abs(self.m22 - other.m22))


def word_matrix(params: Params, word: str) -> Mat2:
    """Cocycle product for a sign word, rightmost factor first.

    Applied to a point whose itinerary matches ``word``, the product
    reproduces the corresponding orbit iterate; its determinant is 1.
    The product is taken in the slopes' own numeric type (``Fraction``
    slopes give an exact one), except that double slopes are promoted
    to ``np.longdouble`` and the result rounded back to doubles: the
    slopes blow up near the parameter poles of the relation families,
    and the resulting cancellations would otherwise eat the 1e-12
    identity margin.  ``np.finfo(np.longdouble).nmant`` is 63 where
    longdouble is x87 extended precision (x86-64 Linux), 112 where it
    is IEEE quad (aarch64 Linux); where it is plain double (52: Windows,
    macOS on Apple silicon) that margin is lost.
    """
    a, b = params.a, params.b
    wide = isinstance(a, float) and isinstance(b, float)
    if wide:
        import numpy as np

        a, b = np.longdouble(a), np.longdouble(b)
    one = a ** 0
    m11, m12, m21, m22 = one, one - one, one - one, one
    for ch in word:
        slope = a if ch == PLUS else b
        # left-multiply by [[slope, -1], [1, 0]]
        m11, m12, m21, m22 = (slope * m11 - m21, slope * m12 - m22, m11, m12)
    if wide:  # saturating: entries beyond the double range become inf
        m11, m12, m21, m22 = (float(np.float64(v))
                              for v in (m11, m12, m21, m22))
    return Mat2(m11, m12, m21, m22)


def difference_step(params: Params, x_prev, x_cur):
    """Second-order recursion form: ``mu*|x_cur| + nu*x_cur - x_prev``.

    Agrees with the x-component of ``step(params, (x_cur, x_prev))`` up
    to rounding in the derived (mu, nu) pair.
    """
    return params.mu * abs(x_cur) + params.nu * x_cur - x_prev
