"""Shared exception taxonomy: one class per CLI exit code.

Exit-code mapping used by the CLI: ConfigurationError -> 2,
DivergenceError -> 3, tolerance failures in check subcommands -> 4.
"""


class MkdvLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MkdvLabError):
    """Input an operation cannot take: a config field or argument out of
    range, a non-Hermitian field where a real one is required, records too
    coarse for a window, or a degenerate delta set."""


class DivergenceError(MkdvLabError):
    """Blow-up detected during time integration.

    Carries the time and the half spectrum c[0..M] of the last good record,
    so a caller can inspect the trajectory up to the failure.
    """

    def __init__(self, message, t_last=None, state_last=None):
        super().__init__(message)
        self.t_last = t_last
        self.state_last = state_last
