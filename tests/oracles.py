"""Scalar per-step loops kept as test oracles.

Each is the straightforward loop that a faster path in ``pwlin``
replaced; the tests compare the library against them.
"""
import math

from pwlin.core import MINUS, OVERFLOW_LIMIT, PLUS, inverse_step, step
from pwlin.errors import OrbitOverflowError


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
