"""Shared fixtures and frozen reference values.

Reference numbers were produced by independent brute-force oracles
(direct iteration, direct 2x2 products, polynomial bisection) and are
frozen here; the tests then compare library output against them.
"""
import math

import pytest
from hypothesis import settings

from pwlin import FamilyId, Params, family_b

# Property tests draw the same examples on every run; a failure seen once
# is seen again.  max_examples stays at Hypothesis's default.
settings.register_profile("pwlin", derandomize=True, deadline=None)
settings.load_profile("pwlin")

# the three distinguished algebraic parameter points (b = -a on each curve)
A_SPECIAL = 2.0 ** 0.25                       # 8-step family
B_SPECIAL = math.sqrt((math.sqrt(5.0) - 1.0) / 2.0)  # 10-step family
C_SPECIAL = 1.2358779767576859                # 13-step family (sextic root)

# closed-form rotation number at A_SPECIAL: (3*pi - 7*t)/(14*pi - 32*t),
# t = arccos(2^(-3/4)); frozen from direct evaluation
A_SPECIAL_ROTATION = 0.20481811188071547

# quartic root in (0, 1): trace threshold of the 10-step family
ALPHA0 = 0.3802775690976141

# dominant eigenvalues of the 4-step/13-step pieces at B_SPECIAL
B_LAMBDA1 = 1.8378527913529716
B_LAMBDA2 = 1.6304156697933334
B_ROTATION = 0.23458014199255547   # eigenvalue-logarithm formula value


@pytest.fixture
def params_a12() -> Params:
    return Params(1.2, family_b(FamilyId.EX_A, 1.2))


@pytest.fixture
def params_a_special() -> Params:
    return Params(A_SPECIAL, -A_SPECIAL)


@pytest.fixture
def params_c_special() -> Params:
    return Params(C_SPECIAL, -C_SPECIAL)


def sextic_root_oracle() -> float:
    """Bisection root of x^6 - x^5 - x^4 - 2x^2 + 3x + 1 in [1.2, 1.3].

    Independent of the package's own root finding.
    """
    def poly(x: float) -> float:
        return ((((x - 1.0) * x - 1.0) * x * x - 2.0) * x + 3.0) * x + 1.0

    lo, hi = 1.2, 1.3
    flo = poly(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fmid = poly(mid)
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
