"""Exception types shared across the library."""


class ScrollsecError(Exception):
    """Base class for all library errors."""


class NonPrimeError(ScrollsecError):
    pass


class EvenCharacteristicError(ScrollsecError):
    pass


class DimensionMismatchError(ScrollsecError):
    pass


class CodimTooSmallError(ScrollsecError):
    pass


class EmptyTypeError(ScrollsecError):
    pass


class ZeroVectorError(ScrollsecError):
    pass


class ZeroMatrixError(ScrollsecError):
    pass


class VertexPointError(ScrollsecError):
    pass


class PointOnVarietyError(ScrollsecError):
    pass


class UnclassifiableSignatureError(ScrollsecError):
    """Raised when the (span dimension, quadric rank) data does not fit any
    of the six legal locus types.  Carries the raw data so callers can report
    it instead of silently mislabelling."""

    def __init__(self, message, s=None, rank=None):
        super().__init__(message)
        self.s = s
        self.rank = rank


class BudgetExceededError(ScrollsecError):
    pass


class ScrollParseError(ScrollsecError):
    pass


class InvariantError(ScrollsecError):
    """An internal invariant of the computation failed: a bug, not bad input."""
