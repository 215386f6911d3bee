"""Test oracles: the quantities of the test computed from their definitions.

This module is part of the test suite, not of the package. The production
route (:mod:`mincf.stat`) assembles the statistic from closed forms and
fixed rules. The tests hold it to the routes here, which integrate the
defining integrals adaptively through :func:`integrate` (QUADPACK):

* :func:`statistic_direct` - n int (psi_n(t) - psi0(t))^2 e^(-gamma t) dt;
* :func:`small_lambda` - lam(z) at one point, by one quadrature of its
  bounded complement;
* :func:`kernel_lambda` - the pairwise kernel K, whose n x n grid checks the
  sorted double sum;
* :func:`mle_limit`, :func:`population_min_cf` and :func:`population_delta` -
  the limit of statistic/n under a fixed alternative;
* :func:`newton_weibull_shape` - the earlier production shape solver, a
  safeguarded Newton iteration with both bracket-end scores evaluated on
  every row, whose converged mask the Halley solver must reproduce;
* the densities and distribution functions of the null and alternative laws.

The integrands take and return one float, written with :mod:`math`; their
psi0 takes E1 from ``scipy.special``, not from :mod:`mincf.special`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf, exp1, gammainc, ndtr

from mincf.errors import ConfigError, ConvergenceError, DomainError
from mincf.families import AlternativeSpec, Family, ParamPair
from mincf.special import gammainc23
from mincf.stat import _check_gamma, lambda_table


class IntegrationError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance.

    Carries the best estimate and the achieved error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, *, estimate, error):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


# ---------------------------------------------------------------------------
# Adaptive quadrature.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget settings for :func:`integrate`."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    subdivisions: int


def integrate(f: Callable[[float], float], a: float, b: float,
              spec: QuadratureSpec = DEFAULT_QUADRATURE) -> QuadratureResult:
    """Integrate ``f`` over ``[a, b]`` with ``b`` possibly ``inf`` (``scipy.integrate.quad``).

    QUADPACK calls ``f`` on one float at a time and never at the endpoints.
    Finite intervals reaching more than a decade past max(a, 1) are split at
    the powers of ten inside them, so localized mass cannot slip between the
    nodes of one wide panel.

    Raises :class:`DomainError` when ``f`` returns a non-finite value and
    :class:`IntegrationError`, carrying the best estimate, when the
    subdivision budget is exhausted before the tolerance is met.
    """
    if not (math.isfinite(a) and a >= 0):
        raise DomainError("lower limit must be finite and nonnegative")
    if b <= a:
        raise DomainError("upper limit must exceed lower limit")

    def checked(t):
        # The check runs in the callback: a NaN handed to QUADPACK on [a, inf) can crash it.
        v = f(t)
        if not math.isfinite(v):
            raise DomainError(f"integrand returned a non-finite value at {t!r}")
        return v

    points = None
    if math.isfinite(b) and b > 10.0 * max(a, 1.0):
        points = 10.0 ** np.arange(math.ceil(math.log10(max(a, 1.0))), math.ceil(math.log10(b)))
        points = points[points > a]
    value, error, info, *warning = quad(
        checked, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=spec.max_subdivisions,
        points=points, full_output=1,
    )
    if warning and "maximum number of subdivisions" in warning[0]:
        raise IntegrationError(
            f"quadrature did not converge within {info['last']} subdivisions "
            f"(estimate {value!r}, error {error:.3e})",
            estimate=value,
            error=error,
        )
    return QuadratureResult(value=value, error=error, subdivisions=int(info["last"]))


# ---------------------------------------------------------------------------
# Densities and distribution functions of the laws the tests draw from.
# ---------------------------------------------------------------------------

def null_density(family: Family, params: ParamPair, x):
    """Density (phi/c)(x/c)^(phi-1) f0((x/c)^phi); zero outside the support."""
    c, phi = params.c, params.phi
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)

    # Densities are assembled as exp(log density) so that extreme abscissae
    # underflow to zero instead of tripping inf*0.
    with np.errstate(over="ignore"):
        if family is Family.WEIBULL:
            m = arr > 0
            lr = np.log(arr[m] / c)
            out[m] = np.exp(np.log(phi / c) + (phi - 1.0) * lr - np.exp(phi * lr))
        elif family is Family.PARETO:
            m = arr > c
            out[m] = np.exp(np.log(phi / c) - (phi + 1.0) * np.log(arr[m] / c))
        elif family is Family.FRECHET:
            m = arr > 0
            lr = np.log(arr[m] / c)
            out[m] = np.exp(np.log(phi / c) - (1.0 + phi) * lr - np.exp(-phi * lr))
        else:
            raise DomainError(f"unknown family {family!r}")
    return float(out[0]) if scalar else out.reshape(np.shape(x))


def null_cdf(family: Family, params: ParamPair, x):
    """Distribution function F0((x/c)^phi); zero at or below the support edge."""
    c, phi = params.c, params.phi
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)

    if family is Family.WEIBULL:
        m = arr > 0
        out[m] = -np.expm1(-((arr[m] / c) ** phi))
    elif family is Family.PARETO:
        m = arr > c
        out[m] = -np.expm1(phi * np.log(c / arr[m]))
    elif family is Family.FRECHET:
        m = arr > 0
        out[m] = np.exp(-((arr[m] / c) ** -phi))
    else:
        raise DomainError(f"unknown family {family!r}")
    return float(out[0]) if scalar else out.reshape(np.shape(x))


# math.exp raises above about 709.78; an inner exponent capped here still
# sends the density to zero far out, as numpy's overflow to inf did.
_EXP_CAP = 709.0


def alternative_support(spec: AlternativeSpec) -> float:
    """Infimum of the support (the essential minimum of the law)."""
    if spec.name == "P":
        return spec.shift + spec.params[1]
    return spec.shift


def alternative_density(spec: AlternativeSpec, x: float) -> float:
    """Density of the (shifted) alternative law at one x; zero outside the support."""
    v = x - spec.shift
    name = spec.name
    # exp(log density) form: extreme abscissae underflow to zero rather than
    # hitting inf*0.
    if name == "P":
        shape, scale = spec.params
        if not v > scale:
            return 0.0
        return math.exp(math.log(shape / scale) - (shape + 1.0) * math.log(v / scale))
    if not v > 0.0:
        return 0.0
    if name == "W":
        shape, scale = spec.params
        lr = math.log(v / scale)
        log_d = math.log(shape / scale) + (shape - 1.0) * lr - math.exp(min(shape * lr, _EXP_CAP))
    elif name == "G":
        shape, scale = spec.params
        log_d = ((shape - 1.0) * math.log(v) - v / scale
                 - shape * math.log(scale) - math.lgamma(shape))
    elif name == "LN":
        mu, sigma = spec.mu_sigma
        lv = math.log(v)
        log_d = (-((lv - mu) ** 2) / (2.0 * sigma ** 2) - lv
                 - math.log(sigma * math.sqrt(2.0 * math.pi)))
    elif name == "HN":
        theta = spec.params[0]
        log_d = math.log(math.sqrt(2.0 / math.pi) / theta) - v * v / (2.0 * theta ** 2)
    elif name == "LFR":
        theta = spec.params[0]
        log_d = math.log1p(theta * v) - v - 0.5 * theta * v * v
    elif name == "CH":
        theta = spec.params[0]
        lv = math.log(v)
        w = math.exp(min(theta * lv, _EXP_CAP))
        log_d = math.log(2.0 * theta) + (theta - 1.0) * lv + w - 2.0 * math.expm1(min(w, _EXP_CAP))
    elif name == "F":
        shape, scale = spec.params
        lr = math.log(v / scale)
        log_d = math.log(shape / scale) - (1.0 + shape) * lr - math.exp(min(-shape * lr, _EXP_CAP))
    else:  # pragma: no cover
        raise ConfigError(f"unknown alternative {name!r}")
    return math.exp(log_d)


def alternative_cdf(spec: AlternativeSpec, x):
    """Distribution function of the (shifted) alternative law."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr) - spec.shift
    out = np.zeros_like(arr)
    name = spec.name

    if name == "P":
        shape, scale = spec.params
        m = arr > scale
        out[m] = -np.expm1(shape * np.log(scale / arr[m]))
    else:
        m = arr > 0
        v = arr[m]
        if name == "W":
            shape, scale = spec.params
            out[m] = -np.expm1(-((v / scale) ** shape))
        elif name == "G":
            shape, scale = spec.params
            out[m] = gammainc(shape, v / scale)
        elif name == "LN":
            mu, sigma = spec.mu_sigma
            out[m] = ndtr((np.log(v) - mu) / sigma)
        elif name == "HN":
            theta = spec.params[0]
            out[m] = erf(v / (theta * math.sqrt(2.0)))
        elif name == "LFR":
            theta = spec.params[0]
            out[m] = -np.expm1(-v - 0.5 * theta * v ** 2)
        elif name == "CH":
            theta = spec.params[0]
            out[m] = -np.expm1(-2.0 * np.expm1(v ** theta))
        elif name == "F":
            shape, scale = spec.params
            out[m] = np.exp(-((v / scale) ** -shape))
        else:  # pragma: no cover
            raise ConfigError(f"unknown alternative {name!r}")
    return float(out[0]) if scalar else out.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# The terms of the statistic.
# ---------------------------------------------------------------------------

def _psi0(family: Family, t: float) -> float:
    """psi0(t) of the standard member at one t > 0."""
    if family is Family.WEIBULL:
        return -t * math.expm1(-1.0 / t)
    if family is Family.PARETO:
        return t * (1.0 - math.log(t)) if t <= 1.0 else 1.0
    if family is Family.FRECHET:
        return -math.expm1(-t) + t * float(exp1(t))
    raise DomainError(f"unknown family {family!r}")


def kernel_lambda(gamma, z1, z2):
    """K(z1, z2) = int_0^inf min(1, t z1) min(1, t z2) e^(-gamma t) dt.

    Closed form, symmetric in (z1, z2); the piecewise integration is written
    through regularized incomplete gammas so it stays accurate for arguments
    of any magnitude. Accepts scalars or broadcastable arrays.
    """
    g = _check_gamma(gamma)
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if not (np.all(z1 > 0) and np.all(z2 > 0)):
        raise DomainError("kernel arguments must be positive")
    scalar = z1.ndim == 0 and z2.ndim == 0
    # The closed form assumes z1 <= z2; swapping is exact.
    a = 1.0 / np.maximum(z1, z2)
    b = 1.0 / np.minimum(z1, z2)
    ga = g * a
    gb = g * b
    p2a, p3a = gammainc23(ga)
    p2b, _ = gammainc23(gb)
    out = 2.0 * p3a / (g ** 3 * a * b) + (p2b - p2a) / (g * g * b) + np.exp(-gb) / g
    return float(out) if scalar else out


_LAMBDA_QUAD = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=2000)


def small_lambda(family: Family, gamma: float, z: float) -> float:
    """lam(z) = int_0^inf min(1, t z) psi0(t) e^(-gamma t) dt at one point.

    Every family runs one adaptive quadrature of lam_inf - C(z), the
    reference for the panels that lambda_table fits on a uniform grid in log z.
    lam_inf is the production value, which ``TestLConstant`` holds to mpmath.
    """
    g = _check_gamma(gamma)
    z = float(z)
    if not (z > 0 and np.isfinite(z)):
        raise DomainError(f"lambda argument must be positive, got {z!r}")
    return _lambda_via_complement(family, g, z, lambda_table(family, g).lam_inf)


def _lambda_via_complement(family: Family, g: float, z: float, lam_inf: float) -> float:
    """lam(z) = lam_inf - int_0^(1/z) (1 - z t) psi0(t) e^(-g t) dt."""
    def integrand(t):
        return (1.0 - z * t) * _psi0(family, t) * math.exp(-g * t)

    return lam_inf - integrate(integrand, 0.0, 1.0 / z, _LAMBDA_QUAD).value


def empirical_min_cf(sample, t):
    """Empirical min-characteristic function (1/n) sum_j min(1, t X_j)."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 1:
        raise DomainError("sample must be nonempty")
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(arr > 0):
        raise DomainError("empirical_min_cf requires t > 0")
    out = np.minimum(1.0, arr[:, None] * x[None, :]).mean(axis=1)
    return float(out[0]) if scalar else out.reshape(np.shape(t))


_DIRECT_QUAD = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-16, max_subdivisions=600)


def statistic_direct(family: Family, y, gamma: float) -> float:
    """n * int_0^inf (psi_n(t) - psi0(t))^2 e^(-gamma t) dt by quadrature.

    Direct evaluation of the defining distance; the empirical curve has a
    kink at each 1/Y_j, so the integration runs piecewise between kinks.
    """
    g = _check_gamma(gamma)
    y = np.asarray(y, dtype=float)
    n = y.size
    if not np.all(y > 0):
        raise DomainError("standardized values must be positive")
    values = y.tolist()

    def integrand(t):
        diff = sum(min(1.0, t * v) for v in values) / n - _psi0(family, t)
        return diff * diff * math.exp(-g * t)

    kinks = np.unique(1.0 / y)
    if family is Family.PARETO:
        kinks = np.unique(np.append(kinks, 1.0))
    total = 0.0
    lo = 0.0
    for k in kinks.tolist():
        total += integrate(integrand, lo, k, _DIRECT_QUAD).value
        lo = k
    total += integrate(integrand, lo, math.inf, _DIRECT_QUAD).value
    return n * total


# ---------------------------------------------------------------------------
# Population-level distance under a fixed alternative.
# ---------------------------------------------------------------------------

_MOMENT_QUAD = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13, max_subdivisions=1200)
_DELTA_OUTER = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-11, max_subdivisions=400)


def _alt_expectation(spec: AlternativeSpec, fn, upper: float = math.inf) -> float:
    """E[fn(X); X < upper] under the alternative, by quadrature from the support edge."""
    lo = alternative_support(spec)

    def integrand(u):
        x = lo + u
        d = alternative_density(spec, x)
        # fn may blow up where the density has already underflowed to zero.
        return fn(x) * d if d > 0.0 else 0.0

    return integrate(integrand, 0.0, upper - lo, _MOMENT_QUAD).value


def mle_limit(family: Family, alt: AlternativeSpec) -> ParamPair:
    """Probability limit (c_X, phi_X) of the MLE under a fixed alternative.

    Maximizes E[log f_(c,phi)(X)] numerically: the shape solves the
    population version of the profile score equation, the scale follows in
    closed form. For the Pareto family the scale limit is the essential
    minimum of the alternative, which must be positive.
    """
    if family is Family.PARETO:
        c = alternative_support(alt)
        if c <= 0:
            raise DomainError(f"Pareto MLE limit undefined: {alt} has support reaching zero")
        mean_log = _alt_expectation(alt, lambda x: math.log(x / c))
        return ParamPair(c, 1.0 / mean_log)

    sign = 1.0 if family is Family.WEIBULL else -1.0
    mean_log = _alt_expectation(alt, math.log)

    def score(phi):
        m = _alt_expectation(alt, lambda x: x ** (sign * phi))
        md = _alt_expectation(alt, lambda x: x ** (sign * phi) * math.log(x))
        return md / m - sign / phi - mean_log

    # Bracket the root on a geometric grid, skipping shapes whose moment
    # integrals diverge for this alternative.
    grid = np.geomspace(1e-2, 100.0, 33)
    vals = []
    for phi in grid.tolist():
        try:
            vals.append(score(phi))
        except Exception:
            vals.append(np.nan)
    vals = np.asarray(vals)
    bracket = None
    for i in range(len(grid) - 1):
        if np.isfinite(vals[i]) and np.isfinite(vals[i + 1]) and vals[i] * vals[i + 1] < 0:
            bracket = (grid[i], grid[i + 1])
            break
    if bracket is None:
        raise ConvergenceError(f"no MLE limit found for {family.value} under {alt}")
    phi = brentq(score, *bracket, xtol=1e-12, rtol=1e-14)
    m = _alt_expectation(alt, lambda x: x ** (sign * phi))
    c = m ** (sign / phi)
    return ParamPair(c, phi)


def newton_weibull_shape(logs):
    """(phi, converged, iterations) of the Weibull shape equation for each row
    of a (B, n) log matrix, by the safeguarded Newton iteration that
    ``mincf.estimation.solve_weibull_shape`` used before its Halley steps.

    A row converges once |score| <= 1e-12 with score(1e-3) < 0 < score(1e3),
    both ends evaluated on every row; constant rows never do.
    """
    logs = np.asarray(logs, dtype=float)
    b = logs.shape[0]
    log_mean = logs.mean(axis=1)

    def score_and_slope(phi):
        t = phi[:, None] * logs
        t -= t.max(axis=1, keepdims=True)
        w = np.exp(t)
        w /= w.sum(axis=1, keepdims=True)
        m1 = (w * logs).sum(axis=1)
        m2 = (w * logs * logs).sum(axis=1)
        return m1 - 1.0 / phi - log_mean, (m2 - m1 * m1) + 1.0 / (phi * phi)

    spread = logs.max(axis=1) - logs.min(axis=1)
    degenerate = spread <= 1e-12 * np.maximum(1.0, np.abs(logs).max(axis=1))
    sd = logs.std(axis=1)
    phi = np.clip(1.2825 / np.where(sd > 0, sd, np.inf), 1e-3, 1e3)
    lo = np.full(b, 1e-3)
    hi = np.full(b, 1e3)
    solvable = ~degenerate & (score_and_slope(lo)[0] < 0) & (score_and_slope(hi)[0] > 0)
    converged = np.zeros(b, dtype=bool)
    iterations = np.zeros(b, dtype=np.int64)
    for it in range(1, 101):
        score, slope = score_and_slope(phi)
        done = solvable & ~converged & (np.abs(score) <= 1e-12)
        iterations[done] = it
        converged |= done
        active = solvable & ~converged
        if not active.any():
            break
        hi = np.where(active & (score > 0), np.minimum(phi, hi), hi)
        lo = np.where(active & (score < 0), np.maximum(phi, lo), lo)
        with np.errstate(invalid="ignore", divide="ignore"):
            cand = phi - score / slope
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        phi = np.where(active, np.where(bad, 0.5 * (lo + hi), cand), phi)
    return phi, converged, iterations


def population_min_cf(alt: AlternativeSpec, limit_params: ParamPair, t: float) -> float:
    """psi_X(t) = E min{1, t (X/c)^phi} under the alternative."""
    c, phi = limit_params.c, limit_params.phi
    t = float(t)
    if t <= 0:
        raise DomainError("population_min_cf requires t > 0")
    lo = alternative_support(alt)
    x_cap = c * t ** (-1.0 / phi)
    if x_cap <= lo:
        return 1.0 - float(alternative_cdf(alt, lo))
    partial = _alt_expectation(alt, lambda x: (x / c) ** phi, x_cap)
    return t * partial + 1.0 - float(alternative_cdf(alt, x_cap))


def population_delta(family: Family, alt: AlternativeSpec, gamma: float,
                     limit_params: ParamPair) -> float:
    """Population distance int_0^inf (psi_X(t) - psi0(t))^2 e^(-gamma t) dt.

    This is the probability limit of statistic/n under the alternative; it
    is zero exactly when the alternative belongs to the null family.
    """
    g = _check_gamma(gamma)

    def integrand(t):
        diff = population_min_cf(alt, limit_params, t) - _psi0(family, t)
        return diff * diff * math.exp(-g * t)

    # Both min-CFs vanish at least as fast as t(1 + |log t|) near zero, so
    # the mass below t=1e-9 is under 1e-24 and the integration starts there.
    return integrate(integrand, 1e-9, math.inf, _DELTA_OUTER).value
