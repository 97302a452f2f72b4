"""Exception hierarchy shared across the package."""

__all__ = [
    "SipEffmassError",
    "ConfigError",
    "ValidationError",
    "DomainError",
    "PoleError",
    "NumericalError",
]


class SipEffmassError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SipEffmassError):
    """A configuration or validation problem (CLI exit code 2)."""


class ValidationError(ConfigError):
    """A model violates its family constraints.

    Carries the list of violated constraint identifiers.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DomainError(SipEffmassError):
    """Evaluation requested outside the valid domain of a map or model."""


class PoleError(SipEffmassError):
    """Evaluation landed on (or within guard distance of) a pole."""


class NumericalError(SipEffmassError):
    """A numerical procedure failed to converge or produced garbage
    (CLI exit code 3)."""
