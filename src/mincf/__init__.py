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
    alternative_cdf,
    alternative_density,
    alternative_support,
    null_cdf,
    null_density,
    null_min_cf,
    null_quantile,
    parse_alternative,
    sample_alternative,
    sample_null,
)
from .estimation import Estimate, StandardizedSample, mle, standardize
from .special import (
    EULER_GAMMA,
    QuadratureSpec,
    QuadratureResult,
    bessel_k,
    exp_integral_e1,
    integrate,
)
from .stat import (
    StatisticBreakdown,
    empirical_min_cf,
    kernel_lambda,
    l_constant,
    lambda_table,
    mle_limit,
    population_delta,
    population_min_cf,
    small_lambda,
    statistic,
    statistic_direct,
)
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
