"""Exception hierarchy shared by all modules.

Two families matter for the CLI exit-code contract: configuration-type
errors (bad parameters, under-resolved rules) map to exit code 2, runtime
errors (blow-up, sampling exhaustion, corrupted files) map to exit code 3.
"""


class BallNlsError(Exception):
    """Base class for all package errors."""


class UsageError(BallNlsError):
    """Configuration-type error; CLI exit code 2."""


class RuntimeFailure(BallNlsError):
    """Runtime/numerics error; CLI exit code 3."""


class DomainError(UsageError):
    """Argument outside its mathematical domain."""


class ResolutionError(UsageError):
    """Quadrature, cutoff or sampling grid too coarse for the request."""


class PrecisionError(UsageError):
    """Too few trials/samples to meet the stated statistical precision."""


class FitDegenerateError(RuntimeFailure):
    """Tail fit impossible (no tail mass, degenerate distribution)."""


class SamplingError(RuntimeFailure):
    """Rejection sampler exhausted its attempt budget."""

    def __init__(self, message, acceptance_rate=None):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate


class BlowUpError(RuntimeFailure):
    """Non-finite state or mass jump during integration.

    Carries any partial trajectory so callers can persist diagnostics.
    """

    def __init__(self, message, partial_trajectory=None):
        super().__init__(message)
        self.partial_trajectory = partial_trajectory


class StorageError(RuntimeFailure):
    """Cache/trajectory file I/O or integrity failure."""


class UndefinedRatioError(DomainError):
    """Requested ratio has a zero denominator."""
