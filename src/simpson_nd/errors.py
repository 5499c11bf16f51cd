"""Exception types shared across the package."""


class SimpsonNdError(Exception):
    """Base class for all domain errors raised by this package."""


class IncompatibleScalars(SimpsonNdError):
    """Exact arithmetic cannot represent the requested combination
    (distinct radicands, pi times pi, pi mixed additively with a
    nonzero non-pi value, and similar)."""


class DimensionMismatch(SimpsonNdError):
    """Point, multi-index, or polynomial dimension does not match the region."""


class NoVertices(SimpsonNdError):
    """The region has no vertex list (the unit disc)."""


class NodeNotOnBoundary(SimpsonNdError):
    """A boundary-rule node does not lie on the region boundary."""


class NodeOutsideRegion(SimpsonNdError):
    """A rule node lies strictly outside the closed region."""


class DenominatorZero(SimpsonNdError):
    """A family parameter places nodes where M and T agree on every target."""


class SingularInterpolation(SimpsonNdError):
    """The interpolation system has a singular coefficient matrix."""


class UnsupportedRegion(SimpsonNdError):
    """The operation does not support this region type."""


class WorkLimit(SimpsonNdError):
    """The input asks for more work than a documented limit allows; raised
    before the work starts."""


class DegenerateErrors(SimpsonNdError):
    """Convergence-order fit got a zero or non-decreasing error sequence."""


class NotPolynomial(SimpsonNdError):
    """The expression cannot be lowered to an exact polynomial."""


class ExprSyntaxError(SimpsonNdError):
    """Parse failure, carrying the byte offset and the expected token set."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str = ""):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.found = found
        what = found if found else "end of input"
        super().__init__(
            f"syntax error at offset {offset}: found {what}, "
            f"expected one of {', '.join(self.expected)}"
        )
