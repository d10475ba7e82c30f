"""Exception types shared across the toolkit."""


class ShortopsError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(ShortopsError):
    """Operands live in incompatible spaces."""


class BadDims(ShortopsError):
    """A generator was asked for impossible dimensions."""


class NotPSD(ShortopsError):
    """A matrix expected to be positive semidefinite has a genuinely negative eigenvalue."""


class NotComplementary(ShortopsError):
    """Two subspaces do not decompose the ambient space as a direct sum."""


class RangeNotIncluded(ShortopsError):
    """The range inclusion required by a reduced-solution call fails.

    Carries the observed relative residual; ``borderline`` is set when the
    residual sits within a decade of the acceptance threshold, so randomized
    harnesses can discard ill-conditioned draws instead of counting them as
    genuine failures.
    """

    def __init__(self, residual: float, borderline: bool = False):
        self.residual = residual
        self.borderline = borderline
        super().__init__(f"range inclusion fails (residual {residual:.3e})")


class NotComplementable(ShortopsError):
    """Shorting was requested for a non-complementable (A, S, T) triple."""

    def __init__(self, report):
        self.report = report
        super().__init__("operator is not complementable with respect to (S, T)")


class NotSummable(ShortopsError):
    """A parallel sum was requested for a non-summable pair."""

    def __init__(self, report):
        self.report = report
        super().__init__("operators are not parallel summable")


class NotInDA(ShortopsError):
    """Parallel subtraction asked for an operator outside the admissible class."""


class ZeroOperator(ShortopsError):
    """An operation that needs a nonzero operator received zero."""


class BadAuxiliary(ShortopsError):
    """The auxiliary operator's range/corange do not match the target subspaces."""


class EscalationExhausted(ShortopsError):
    """Doubling the scale parameter never reached a usable configuration."""
