"""Exception hierarchy shared by all geodesy modules."""

from __future__ import annotations


class GeodesyError(Exception):
    """Base class for every error raised by this package."""


# --- expression parsing / evaluation ---------------------------------------

class ExpressionError(GeodesyError):
    pass


class ParseError(ExpressionError):
    """Malformed source text.

    Attributes:
        position: 0-based offset into the source where parsing failed.
        expected: set of token descriptions that would have been accepted.
    """

    def __init__(self, message: str, position: int, expected: set[str] | None = None):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.expected = expected or set()


class UnknownIdentifierError(ParseError):
    pass


class NonHolomorphicPrimitiveError(ParseError):
    """Identifier names a primitive that is not holomorphic (complex mode)."""


class DomainError(ExpressionError):
    """Evaluation hit a pole, a branch point, or left the real domain."""


# --- geometry ---------------------------------------------------------------

class OutOfDomainError(GeodesyError):
    """Point violates the chart's domain set; the message names the condition."""


class SingularMetricError(GeodesyError):
    pass


# --- geodesics --------------------------------------------------------------

class StepSizeUnderflowError(GeodesyError):
    pass


class StartOnSingularSetError(OutOfDomainError):
    pass


class TurningPointAtStartError(GeodesyError):
    """First chart coordinate has zero velocity at s=0; no explicit form exists."""


class OutsideSupportError(GeodesyError):
    pass


# --- reconstruction ---------------------------------------------------------

class DenominatorVanishesError(GeodesyError):
    pass


class ResidualTooLargeError(GeodesyError):
    """Input curve does not solve the explicit-form geodesic equation."""


class ZeroCrossingOfUError(GeodesyError):
    pass


class NegativeRadicandError(GeodesyError):
    pass


class PathLeavesSupportError(GeodesyError):
    pass
