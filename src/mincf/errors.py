"""Exception types shared across the package, and the checked range of gamma.

This module imports nothing, so the argument parser can name the gamma range
in its help text without loading numpy.
"""

#: The weights gamma the statistic is checked for against mpmath; outside them
#: the 1/gamma^3 terms of L cancel (small gamma) or K_nu underflows (large).
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
