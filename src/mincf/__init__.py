"""Goodness-of-fit tests for Weibull, Pareto I and Frechet families.

The tests compare the empirical min-characteristic function of
MLE-standardized data with the one of the standard family member under a
weighted-L2 distance; Monte Carlo simulation of the (parameter-free) null
distribution supplies critical values and p-values.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    EngineError,
    IntegrationError,
)
from .families import (
    AlternativeSpec,
    Family,
    ParamPair,
    STANDARD_PARAMS,
    alternative_support,
    null_min_cf,
    null_quantile,
    parse_alternative,
    sample_alternative,
    sample_null,
)
from .estimation import Estimate, StandardizedSample, mle, standardize
from .special import EULER_GAMMA, bessel_k, exp_integral_e1
from .stat import StatisticBreakdown, l_constant, lambda_table, statistic
from .simulation import (
    STATISTIC_CODE_VERSION,
    NullCache,
    NullDistribution,
    PowerResult,
    StudyConfig,
    StudyResult,
    TestResult,
    build_null,
    build_nulls,
    critical_value,
    derive_seed,
    p_value,
    power,
    run_study,
    gof_test,
)

__version__ = "0.1.0"

# The reference routes load scipy.integrate and scipy.optimize, so the package
# root resolves their names on first use (PEP 562).
_REFERENCE = frozenset({
    "QuadratureResult", "QuadratureSpec", "alternative_cdf", "alternative_density",
    "empirical_min_cf", "integrate", "kernel_lambda", "mle_limit", "null_cdf",
    "null_density", "population_delta", "population_min_cf", "small_lambda",
    "statistic_direct",
})


def __getattr__(name):
    if name in _REFERENCE:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
