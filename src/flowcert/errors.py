"""Exception types shared across the package.

Each class owns the exit code that `flowcert` returns when it ends a run:
64 for a usage error, 3 for a failed hypothesis, and 1 (the base's) for any
other package error.  There is one class per exit code, plus the two that
callers tell apart: InsufficientDataError, which a fit's caller catches by
name, and IntegrationError, which carries the last valid state.
"""


class FlowcertError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class InvalidInputError(FlowcertError):
    """Input violates an invariant: a malformed value, constant, file or configuration."""

    exit_code = 64


class NumericError(FlowcertError):
    """A numerical routine failed or an internal consistency check tripped."""


class PreconditionError(FlowcertError):
    """State does not meet an operation's precondition (a surface left the graph
    regime, a decay envelope is undefined, a radius does not fit the grid)."""

    exit_code = 3


class IntegrationError(FlowcertError):
    """Time integration stalled, blew up or collapsed; carries the last valid state."""

    exit_code = 3

    def __init__(self, message: str, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class InsufficientDataError(FlowcertError):
    """Not enough admissible data to run the requested fit."""

    exit_code = 3
