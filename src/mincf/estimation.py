"""Maximum-likelihood fitting and MLE standardization.

Fitting a scale-power family member (c, phi) and mapping the data through
Y_j = (X_j / c_hat)^phi_hat reduces any test built on the standardized values
to a test of the standard member with both parameters equal to one. The
Weibull and Frechet shape equations are solved by a safeguarded Newton
iteration on a bracket; the Pareto fit is closed form.

All solvers come in a batched form operating on a replicate-by-observation
matrix, which the Monte Carlo engine relies on; the public API wraps the
batch of size one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateSampleError, DomainError
from .families import Family, ParamPair

_PHI_LO = 1e-3
_PHI_HI = 1e3
_SCORE_TOL = 1e-12
_MAX_ITER = 100
#: Moment-based starting value: sd(log X) = 1.2825/phi for the Weibull.
_MOMENT_CONST = 1.2825


@dataclass(frozen=True)
class Estimate:
    """Fitted (c, phi) with solver diagnostics; :func:`mle` returns only
    converged fits."""

    family: Family
    params: ParamPair
    iterations: int
    log_likelihood: float


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) along ``axis``, shifted by the finite maximum so it cannot overflow."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


def _weibull_score(phi, logs, log_mean):
    """Profile score of the Weibull shape and its derivative, batched.

    score(phi) = sum(x^phi log x)/sum(x^phi) - 1/phi - mean(log x), written
    through softmax weights of phi*log x so large shapes cannot overflow.
    """
    t = phi[:, None] * logs
    t -= t.max(axis=1, keepdims=True)
    w = np.exp(t)
    w /= w.sum(axis=1, keepdims=True)
    m1 = (w * logs).sum(axis=1)
    m2 = (w * logs * logs).sum(axis=1)
    score = m1 - 1.0 / phi - log_mean
    slope = (m2 - m1 * m1) + 1.0 / (phi * phi)
    return score, slope


def solve_weibull_shape(logs: np.ndarray):
    """Solve the Weibull shape equation for each row of a (B, n) log matrix.

    Returns (phi, converged, iterations). Rows whose data are constant, or
    whose root falls outside [1e-3, 1e3], are reported as not converged.
    """
    logs = np.asarray(logs, dtype=float)
    b, _ = logs.shape
    log_mean = logs.mean(axis=1)
    spread = logs.max(axis=1) - logs.min(axis=1)
    degenerate = spread <= 1e-12 * np.maximum(1.0, np.abs(logs).max(axis=1))

    sd = logs.std(axis=1)
    phi = np.clip(_MOMENT_CONST / np.where(sd > 0, sd, np.inf), _PHI_LO, _PHI_HI)
    lo = np.full(b, _PHI_LO)
    hi = np.full(b, _PHI_HI)
    g_lo, _ = _weibull_score(lo, logs, log_mean)
    g_hi, _ = _weibull_score(hi, logs, log_mean)
    solvable = ~degenerate & (g_lo < 0) & (g_hi > 0)

    converged = np.zeros(b, dtype=bool)
    iterations = np.zeros(b, dtype=np.int64)
    for it in range(1, _MAX_ITER + 1):
        score, slope = _weibull_score(phi, logs, log_mean)
        done = solvable & ~converged & (np.abs(score) <= _SCORE_TOL)
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
        cand = np.where(bad, 0.5 * (lo + hi), cand)
        phi = np.where(active, cand, phi)
    return phi, converged, iterations


def fit_batch(family: Family, x: np.ndarray):
    """Fit every row of a (B, n) sample matrix.

    Returns (c, phi, converged, iterations) arrays. Invalid rows carry
    converged=False and should be discarded or redrawn by the caller.
    """
    x = np.asarray(x, dtype=float)
    b, n = x.shape
    if n < 3:
        raise DegenerateSampleError("need at least 3 observations to fit two parameters")
    if not np.all(x > 0):
        raise DomainError("sample values must be positive")
    logs = np.log(x)

    if family is Family.PARETO:
        c = x.min(axis=1)
        tail = logs.sum(axis=1) - n * np.log(c)
        converged = tail > 0
        phi = np.where(converged, n / np.where(tail > 0, tail, 1.0), np.nan)
        return c, phi, converged, np.zeros(b, dtype=np.int64)

    if family is Family.WEIBULL:
        phi, converged, iterations = solve_weibull_shape(logs)
        log_c = (_logsumexp(phi[:, None] * logs, axis=1) - np.log(n)) / phi
        return np.exp(log_c), phi, converged, iterations

    if family is Family.FRECHET:
        # x -> 1/x turns the Frechet likelihood into the Weibull one with
        # phi unchanged and c inverted.
        phi, converged, iterations = solve_weibull_shape(-logs)
        log_c = -(_logsumexp(-phi[:, None] * logs, axis=1) - np.log(n)) / phi
        return np.exp(log_c), phi, converged, iterations

    raise DomainError(f"unknown family {family!r}")


def _log_likelihood(family: Family, x: np.ndarray, c: float, phi: float) -> float:
    n = x.size
    logs = np.log(x)
    if family is Family.PARETO:
        return n * np.log(phi) + n * phi * np.log(c) - (phi + 1.0) * logs.sum()
    if family is Family.WEIBULL:
        power_sum = np.exp(_logsumexp(phi * (logs - np.log(c))))
        return n * np.log(phi) - n * phi * np.log(c) + (phi - 1.0) * logs.sum() - power_sum
    if family is Family.FRECHET:
        power_sum = np.exp(_logsumexp(-phi * (logs - np.log(c))))
        return n * np.log(phi) + n * phi * np.log(c) - (phi + 1.0) * logs.sum() - power_sum
    raise DomainError(f"unknown family {family!r}")


def mle(family: Family, sample) -> Estimate:
    """Maximum-likelihood estimate of (c, phi) for one sample.

    Raises :class:`DegenerateSampleError` for samples that admit no fit
    (fewer than 3 points, or essentially constant data) and
    :class:`ConvergenceError` if the shape iteration fails.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 3:
        raise DegenerateSampleError(f"need n >= 3, got n={x.size}")
    if not np.all(x > 0):
        raise DomainError("sample values must be positive")
    if x.max() - x.min() <= 1e-12 * max(1.0, abs(x.max())):
        raise DegenerateSampleError("sample values are all (numerically) equal")

    c, phi, converged, iterations = fit_batch(family, x[None, :])
    if not converged[0]:
        raise ConvergenceError(
            f"{family.value} shape equation did not converge "
            f"(n={x.size}, data spread may be too small or too extreme)"
        )
    c0, phi0 = float(c[0]), float(phi[0])
    return Estimate(
        family=family,
        params=ParamPair(c0, phi0),
        iterations=int(iterations[0]),
        log_likelihood=float(_log_likelihood(family, x, c0, phi0)),
    )


def standardize(sample, estimate: Estimate) -> np.ndarray:
    """The 1-D array Y_j = (X_j / c)^phi of the observations, in their order.

    For the Pareto fit c equals the sample minimum, so min(Y) is exactly 1.
    """
    x = np.asarray(sample, dtype=float).ravel()
    return (x / estimate.params.c) ** estimate.params.phi
