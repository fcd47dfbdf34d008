"""Exception types raised by the toolkit.

``LssError`` is the common base; the CLI maps it to exit code 1.
``ModelFormatError`` covers file/JSON problems and maps to exit code 2.
"""


class LssError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(LssError):
    """Matrix or vector dimensions are incompatible with the model."""


class StabilityError(LssError):
    """An operation requires a stable mode matrix and got an unstable one."""


class ConvergenceError(LssError):
    """A coupled Gramian series did not converge.

    ``diagnostics`` is the failed run's :class:`~lssbal.gramians.SolveDiagnostics`,
    whose observed contraction the message names.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class AssumptionError(LssError):
    """A matrix-inequality assumption required by a certificate fails."""


class BalancingError(LssError):
    """Balancing cannot proceed (singular or indefinite Gramian factor)."""


class ModelFormatError(LssError):
    """A model or signal file could not be parsed against the schema."""
