"""Exception hierarchy shared by all modules; each type carries its CLI exit code."""


class MultiheadError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InvalidInputError(MultiheadError):
    """Malformed or out-of-range user input."""

    exit_code = 2


class UndefinedStatisticError(MultiheadError):
    """A statistic is undefined for the given state (e.g. Mandel Q at zero amplitude)."""

    exit_code = 2


class InternalConsistencyError(MultiheadError):
    """A closed-form normalization N*S_0 came out not positive.

    This signals a formula transcription bug, not a user error.
    """


class TruncationError(MultiheadError):
    """The requested Fock cutoff discards more probability mass than allowed."""


class CutoffInsufficientError(TruncationError):
    """An operator application pushed significant amplitude past the cutoff."""


class CapacityError(MultiheadError):
    """The computation would exceed the configured resource limits."""

    exit_code = 3
