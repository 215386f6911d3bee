"""Goodness-of-fit tests for Weibull, Pareto I and Frechet families.

The tests compare the empirical min-characteristic function of
MLE-standardized data with the one of the standard family member under a
weighted-L2 distance; Monte Carlo simulation of the (parameter-free) null
distribution supplies critical values and p-values.

The public names resolve on first access (PEP 562), so ``import mincf``
loads no numpy; the command line's parser relies on that.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("ConfigError", "ConvergenceError", "DegenerateSampleError",
                   "DomainError", "EngineError"),
        "families": ("AlternativeSpec", "Family", "ParamPair", "STANDARD_PARAMS",
                     "null_min_cf", "null_quantile", "parse_alternative",
                     "sample_alternative", "sample_null"),
        "estimation": ("Estimate", "mle", "standardize"),
        "special": ("EULER_GAMMA", "bessel_k", "exp_integral_e1"),
        "stat": ("StatisticBreakdown", "l_constant", "lambda_table", "statistic"),
        "simulation": ("STATISTIC_CODE_VERSION", "NullCache", "NullDistribution",
                       "PowerResult", "StudyConfig", "StudyResult", "TestResult",
                       "build_null", "build_nulls", "critical_value", "derive_seed",
                       "p_value", "power", "run_study", "gof_test"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
