"""Exception types shared across the package."""

__all__ = ["GainGraphError", "ValidationError", "InstanceTooLargeError", "NumericError"]


class GainGraphError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GainGraphError, ValueError):
    """Malformed input: bad graph data, a group mismatch, or a broken precondition."""


class InstanceTooLargeError(GainGraphError):
    """An enumeration-backed operation was asked to exceed its configured cap."""


class NumericError(GainGraphError):
    """A numeric routine failed to reach its accuracy target."""
