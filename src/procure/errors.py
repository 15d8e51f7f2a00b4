"""Exception types shared across the package."""


class ProcureError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(ProcureError, ValueError):
    """A numeric argument is outside its mathematical domain."""


class ConfigurationError(ProcureError, ValueError):
    """Inputs are structurally invalid (bad counts, missing fields, bad priors)."""


class CellReopenedError(ProcureError, RuntimeError):
    """A quantity cell priced open after an earlier cell closed.

    With V' nonincreasing and convex expected costs a closed cell stays
    closed, so this signals inputs that break those assumptions within
    rounding (for example a cost curve that dips just past the closure).
    """
