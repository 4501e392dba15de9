"""Exception types shared across the package."""

from __future__ import annotations


class DilgpError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DilgpError, ValueError):
    """Two arrays that must share a dimension do not."""


class NonFiniteInput(DilgpError, ValueError):
    """An input array contains NaN or infinity."""


class InvalidSetting(DilgpError, ValueError):
    """A model or run setting lies outside its valid range."""


class InvalidDomainTag(DilgpError, ValueError):
    """A domain tag is not an integer that an int64 holds."""


class NotPositiveDefinite(DilgpError):
    """Cholesky failed even at the maximum jitter level.

    Carries the kernel parameters that produced the matrix so the failure
    can be reproduced.
    """

    def __init__(self, message: str, params=None):
        super().__init__(message)
        self.params = params


class TrainingAbort(DilgpError):
    """Training stopped before completing its configured step count.

    ``trace`` holds whatever was recorded before the abort, for post-mortem;
    the trainer sets it, and an abort raised elsewhere reads None.
    """

    trace = None


class ObjectiveFailure(DilgpError):
    """The black-box objective returned a non-finite value twice in a row.

    ``state`` holds the partial optimization state accumulated so far.
    """

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state
