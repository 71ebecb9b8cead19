"""Exception types shared across the package."""
from __future__ import annotations


class PwlinError(Exception):
    """Base class for all domain errors raised by this package."""


class ArgumentError(PwlinError, ValueError):
    """An argument is outside the range the function accepts (a step
    count below 1, a grid above the size cap, and the like).

    It is also a ``ValueError``, so ``except ValueError`` callers keep
    catching it.
    """


class OrbitOverflowError(PwlinError, OverflowError):
    """An orbit component exceeded the overflow limit.

    ``index`` is the iteration step at which the blow-up occurred, when
    known (0 means the starting point itself was out of range).
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DegenerateError(PwlinError):
    """A geometric operation received an input it cannot handle (zero
    vector, zero-width sector, and the like)."""


class DegenerateMatrixError(PwlinError):
    """The matrix is (numerically) plus or minus the identity, so it has
    no well-defined invariant quadratic form."""


class NoReturnError(PwlinError):
    """No first return to the sector was observed within the step budget.

    This is an expected outcome in transient angular intervals of the
    divergent regime, not a programming error.
    """


class InconsistentPieceError(PwlinError):
    """Test points inside one subsector produced different return
    itineraries; the subdivision or the budget is unreliable."""


class CommutationError(PwlinError):
    """The two return-map pieces fail to commute within tolerance."""


class AsymptoteInSectorError(PwlinError):
    """An eigenray (asymptote of the invariant hyperbolas) lies inside the
    sector, so no bounded invariant arc exists there.

    ``eigenray`` carries the offending direction as an (x, y) unit pair.
    """

    def __init__(self, message: str, eigenray=None):
        super().__init__(message)
        self.eigenray = eigenray


class PeriodicSuspectError(PwlinError):
    """The rotation number snaps to a small-denominator rational, so the
    map is suspected periodic and no certified circle is emitted."""


class DomainError(PwlinError):
    """Parameter outside the valid domain of a family or formula."""


class NoBracketError(PwlinError):
    """Root bracketing failed: the objective has equal signs at both ends."""


class SignConstraintError(PwlinError):
    """A root was found but the y-component sign constraint fails there
    (the positive-scaling case, which does not yield an invariant circle)."""
