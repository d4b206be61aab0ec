"""Exception types shared across the package, and ``_one``, which unwraps
the result of a stacked kernel run on a stack of one."""


class FbbaiError(Exception):
    """Base class for all package-specific failures."""


class ConfigurationError(FbbaiError, ValueError):
    """A run configuration is invalid before any sampling happens."""


class DegenerateInputError(FbbaiError, ValueError):
    """An input matrix or vector carries no usable information."""


class SingularDesignError(FbbaiError, ValueError):
    """The weighted information matrix of a design is not invertible."""


class BudgetTooSmallError(FbbaiError, ValueError):
    """A rounding budget cannot cover the support of a design."""


class InvalidAllocationError(FbbaiError, RuntimeError):
    """Sampled data cannot support estimation (singular or ill-conditioned)."""


class EstimationFailureError(FbbaiError, RuntimeError):
    """An iterative estimator diverged instead of converging."""


class UndefinedBoundError(FbbaiError, ValueError):
    """A probability bound is requested for inputs where it is undefined."""


def _one(stack: list):
    """The entry of a stack of one, raised if it is an error."""
    (entry,) = stack
    if isinstance(entry, Exception):
        raise entry
    return entry
