"""Exception types shared across the package."""


class ProcureError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(ProcureError, ValueError):
    """A numeric argument is outside its mathematical domain."""


class ConfigurationError(ProcureError, ValueError):
    """Inputs are structurally invalid (bad counts, missing fields, bad priors,
    more prices than cells)."""

