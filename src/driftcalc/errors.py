"""Exception types shared across the engine.

Usage errors (bad dimensions, malformed parameters) raise plain ValueError.
The classes below mark *computation* diagnostics: a calculation that started
from valid inputs but cannot produce a trustworthy number.
"""


class EngineError(RuntimeError):
    """Base class for computation diagnostics.

    A jump integral or drift whose outputs fail raises the lowest-index
    one's error, with ``faults`` mapping each failing output to its own
    error, the one a call of that output alone raises; else it is empty."""

    faults: dict = {}


class NanPointError(EngineError):
    """An integrand or representing function was undefined at a named point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ConvergenceError(EngineError):
    """A quadrature or optimizer loop failed to converge, or a series
    would need more terms than its cap allows."""


class NonIntegrableError(ConvergenceError):
    """A jump integral whose integrand outgrows the jump law's tail decay."""
