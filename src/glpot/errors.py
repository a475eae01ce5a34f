"""Exception types shared across the package."""


class GlpotError(Exception):
    """Base class for all package errors."""


class DomainError(GlpotError, ValueError):
    """An argument lies outside the open interval an operation is defined on."""


class DivergenceError(GlpotError, ArithmeticError):
    """Exponent analysis shows the requested integral is infinite."""


class ToleranceError(GlpotError, ArithmeticError):
    """A quadrature or refinement loop could not reach the requested accuracy.

    Carries the achieved relative error estimate in ``achieved``.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative error {achieved:.3e})")
        self.achieved = achieved


class FeasibilityError(GlpotError, ValueError):
    """An infimum has an empty feasible set (no argument maps into the weight's domain)."""
