"""Exception types shared across the package, and the checked ranges of gamma.

This module imports nothing, so the argument parser can name the gamma ranges
in its help text without loading numpy.
"""

#: The weights gamma the statistic is checked for against mpmath. Below them
#: T = sum K/n + n L - 2 sum lam cancels terms of order n/gamma down to O(1),
#: so a per-value error in lam or L shows in T magnified by about n/(gamma T).
GAMMA_MIN, GAMMA_MAX = 1e-3, 1e3

#: Weibull's statistic ends its range here. Standardized Weibull rows have mean 1,
#: so psi_n - psi0 is exponentially small near t = 0 and T falls faster than any
#: power of 1/gamma, while its terms fall as 1/gamma^3: from gamma ~ 300, T is the
#: rounding noise of its three terms, about half the null values negative. 30 is
#: the largest gamma at which the tests check Weibull's T against mpmath.
WEIBULL_GAMMA_MAX = 30.0


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
