"""Exception types shared across the package."""


class FlowcertError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(FlowcertError):
    """Input data violates a structural invariant (positivity, monotonicity, ordering)."""


class ParameterError(FlowcertError):
    """A constant lies outside its admissible range."""


class NumericError(FlowcertError):
    """A numerical routine failed or an internal consistency check tripped."""


class PreconditionError(FlowcertError):
    """Caller-supplied state does not meet an operation's stated precondition."""


class EnvelopeNotApplicableError(FlowcertError):
    """Decay envelope undefined: the tracked quantity is not strictly positive."""


class GeometryError(FlowcertError):
    """A surface left the embedded-graph regime (radius reached zero)."""


class IntegrationError(FlowcertError):
    """Time integration failed; carries the last valid state."""

    def __init__(self, message: str, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class StiffnessError(IntegrationError):
    """Time integration stalled."""


class BlowupError(IntegrationError):
    """Discrete instability or NaN detected."""


class InsufficientDataError(FlowcertError):
    """Not enough admissible data to run the requested fit."""


class ConfigError(FlowcertError):
    """Malformed run configuration (file syntax, unknown key, bad value)."""
