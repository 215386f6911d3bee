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
)
from .families import (
    AlternativeSpec,
    Family,
    ParamPair,
    STANDARD_PARAMS,
    null_min_cf,
    null_quantile,
    parse_alternative,
    sample_alternative,
    sample_null,
)
from .estimation import Estimate, mle, standardize
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
