"""Exception types shared across the package.

Each class owns the exit code that `flowcert` returns when it ends a run:
64 for a usage error, 3 for a failed hypothesis, and 1 (the base's) for any
other package error.  A subclass inherits its parent's code.
"""


class FlowcertError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class InvalidInputError(FlowcertError):
    """Input data violates a structural invariant (positivity, monotonicity, ordering)."""

    exit_code = 64


class ParameterError(FlowcertError):
    """A constant lies outside its admissible range."""

    exit_code = 64


class NumericError(FlowcertError):
    """A numerical routine failed or an internal consistency check tripped."""


class PreconditionError(FlowcertError):
    """Caller-supplied state does not meet an operation's stated precondition."""

    exit_code = 3


class EnvelopeNotApplicableError(FlowcertError):
    """Decay envelope undefined: the tracked quantity is not strictly positive."""

    exit_code = 3


class GeometryError(FlowcertError):
    """A surface left the embedded-graph regime (radius reached zero)."""

    exit_code = 3


class IntegrationError(FlowcertError):
    """Time integration failed; carries the last valid state."""

    exit_code = 3

    def __init__(self, message: str, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class StiffnessError(IntegrationError):
    """Time integration stalled."""


class BlowupError(IntegrationError):
    """Discrete instability or NaN detected."""


class InsufficientDataError(FlowcertError):
    """Not enough admissible data to run the requested fit."""

    exit_code = 3


class ConfigError(FlowcertError):
    """Malformed run configuration (file syntax, unknown key, bad value)."""

    exit_code = 64
