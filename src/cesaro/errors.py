"""Exception types and the pole-signal outcome used across the package."""

from __future__ import annotations

from dataclasses import dataclass, field


class CesaroError(Exception):
    """Base class for all package-specific errors."""


class NotConvergentError(CesaroError):
    """No limit could be assigned within the configured averaging budget."""

    def __init__(self, message: str = "not convergent", diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class LambdaIsOneError(CesaroError):
    """A regular factor was requested with eigenvalue 1 (the excluded case)."""


class SAtPoleError(CesaroError):
    """The zeta partial-sum expansion was requested at s = 1."""


class CrossCheckMismatchError(CesaroError):
    """Two independent evaluation paths disagreed beyond tolerance."""

    def __init__(self, message, value_a=None, value_b=None):
        super().__init__(message)
        self.value_a = value_a
        self.value_b = value_b


class FitFailureError(CesaroError):
    """A fit did not capture the sampled behaviour, or its value could not
    be made exact; value is the unsnapped number, where there is one."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class IllegalCancellationError(CesaroError):
    """Log divergences at distinct endpoints may not silently cancel."""


class NonTriangularError(CesaroError):
    """Expansion exponents do not form the descending unit-gap ladder."""


class NonIntegerRhoError(CesaroError):
    """An exact discrete eigensequence requires a nonnegative integer index."""


class VanishingMassError(CesaroError):
    """The measure's cumulative mass vanished on the evaluation range."""


class MissingDerivativeTermError(CesaroError):
    """Internal assertion: the differentiated limit pipeline lost a term."""


class QuadratureError(CesaroError):
    """Numerical integration failed on a finite subinterval."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


@dataclass(frozen=True)
class PoleSignal:
    """A pole detected during a limit computation.

    This is a first-class outcome, not an exception: residue calculations
    compute *with* it, so it must be able to flow through value channels.
    """

    origin: str = ""
    log_power: int = 1
    residue: complex | None = None
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return True


def is_pole(value) -> bool:
    return isinstance(value, PoleSignal)
