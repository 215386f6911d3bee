"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A distribution spec, study config or data file failed validation."""


class DegenerateSampleError(ValueError):
    """The sample admits no maximum-likelihood fit (too small or constant)."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class EngineError(RuntimeError):
    """The Monte Carlo engine hit a persistent failure (e.g. MLE breakdown)."""
