"""Exception types shared across the package, and the checked range of gamma.

This module imports nothing, so the argument parser can name the gamma range
in its help text without loading numpy.
"""

#: The weights gamma the statistic is checked for against mpmath. Below them
#: T = sum K/n + n L - 2 sum lam cancels terms of order n/gamma down to O(1),
#: so a per-value error in lam or L shows in T magnified by about n/(gamma T).
GAMMA_MIN, GAMMA_MAX = 1e-3, 1e3


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
