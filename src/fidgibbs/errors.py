"""Exception types shared across the package."""


class FidgibbsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FidgibbsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateDataError(FidgibbsError, ValueError):
    """The data admit no valid estimate (zero spread, empty support, ...)."""


class EvaluationError(FidgibbsError, ArithmeticError):
    """A target function produced a non-finite value during solving."""


class StructuralError(FidgibbsError, RuntimeError):
    """A structural equation could not be inverted for the observed statistic.

    Carries a ``diagnostics`` dict (statistic value, gamma draw, bracket
    state, chain/cycle position when raised inside a sampler run).
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)

    def __str__(self):
        base = super().__str__()
        if self.diagnostics:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.diagnostics.items()))
            return f"{base} [{detail}]"
        return base
