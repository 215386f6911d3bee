"""Maximum-likelihood fitting and MLE standardization.

Fitting a scale-power family member (c, phi) and mapping the data through
Y_j = (X_j / c_hat)^phi_hat reduces any test built on the standardized values
to a test of the standard member with both parameters equal to one. The
Weibull and Frechet shape equations are solved by a safeguarded Halley
iteration on a bracket, falling back to bisection; the Pareto fit is closed
form.

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


def _weibull_moments(phi, d):
    """Sum of the weights e^(phi d) and the first three moments of d under
    them, batched.

    Each row of d is a row of log x minus its maximum, so phi*d <= 0: the
    weights e^(phi d) cannot overflow and sum to at least 1.
    """
    w = np.multiply(phi[:, None], d)
    np.exp(w, out=w)
    total = w.sum(axis=1)
    w *= d
    m1 = w.sum(axis=1) / total
    w *= d
    m2 = w.sum(axis=1) / total
    w *= d
    return total, m1, m2, w.sum(axis=1) / total


def _score_at(phi, d, d_mean, rows):
    """The profile score at the single shape ``phi`` for the masked rows."""
    _, m1, _, _ = _weibull_moments(np.full(np.count_nonzero(rows), phi), d[rows])
    return m1 - d_mean[rows] - 1.0 / phi


def solve_weibull_shape(logs: np.ndarray):
    """Solve the Weibull shape equation for each row of a (B, n) log matrix.

    The profile score is score(phi) = m1 - 1/phi - mean(log x), with m_k the
    k-th moment of log x under the weights x^phi / sum(x^phi). It rises in
    phi, with slope Var + 1/phi^2 and second derivative kappa3 - 2/phi^3
    (the variance and third central moment under the same weights), so one
    pass over a row gives a Halley step. A step that leaves the bracket
    [lo, hi] of the root is replaced by bisection.

    The bracket [1e-3, 1e3] holds the root if score(1e-3) < 0 < score(1e3).
    As m1 <= max log x, score(1e-3) <= max log x - mean log x - 1000, so
    score(1e-3) is evaluated only for rows where that bound is not negative,
    and score(1e3) only for rows whose iterate passes 500: below it, a
    converged root lies far enough under 1e3 that score(1e3) > 0.

    Returns (phi, log_scale, converged, iterations), where log_scale is
    log c = log(mean(x^phi))/phi, read off the last pass. Rows whose data
    are constant, or whose root falls outside [1e-3, 1e3], are reported as
    not converged, with log_scale NaN.
    """
    logs = np.asarray(logs, dtype=float)
    b, n = logs.shape
    top, bottom = logs.max(axis=1), logs.min(axis=1)
    degenerate = top - bottom <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(top), np.abs(bottom)))
    d = logs - top[:, None]
    d_mean = d.mean(axis=1)

    sd = logs.std(axis=1)
    phi = np.clip(_MOMENT_CONST / np.where(sd > 0, sd, np.inf), _PHI_LO, _PHI_HI)
    lo = np.full(b, _PHI_LO)
    hi = np.full(b, _PHI_HI)
    solvable = ~degenerate
    check = solvable & (-d_mean - 1.0 / _PHI_LO >= 0)
    if check.any():
        solvable[check] = _score_at(_PHI_LO, d, d_mean, check) < 0
    hi_checked = np.zeros(b, dtype=bool)

    converged = np.zeros(b, dtype=bool)
    iterations = np.zeros(b, dtype=np.int64)
    mean_power = np.full(b, np.nan)  # mean e^(phi d) at each converged phi
    for it in range(1, _MAX_ITER + 1):
        check = solvable & ~hi_checked & (phi > 0.5 * _PHI_HI)
        if check.any():
            solvable[check] = _score_at(_PHI_HI, d, d_mean, check) > 0
            hi_checked |= check
        total, m1, m2, m3 = _weibull_moments(phi, d)
        inv = 1.0 / phi
        score = m1 - d_mean - inv
        done = solvable & ~converged & (np.abs(score) <= _SCORE_TOL)
        iterations[done] = it
        mean_power[done] = total[done] / n
        converged |= done
        active = solvable & ~converged
        if not active.any():
            break
        hi = np.where(active & (score > 0), np.minimum(phi, hi), hi)
        lo = np.where(active & (score < 0), np.maximum(phi, lo), lo)
        slope = m2 - m1 * m1 + inv * inv
        curv = m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3 - 2.0 * inv ** 3
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            cand = phi - 2.0 * score * slope / (2.0 * slope * slope - score * curv)
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        cand = np.where(bad, 0.5 * (lo + hi), cand)
        phi = np.where(active, cand, phi)
    return phi, top + np.log(mean_power) / phi, converged, iterations


def fit_batch(family: Family, x: np.ndarray):
    """Fit every row of a (B, n) sample matrix; it checks nothing, since its callers check n.

    Returns (c, phi, converged, iterations) arrays. A row that does not fit, and any row
    holding a value outside (0, inf), has converged=False; the caller drops or redraws it.
    """
    x = np.asarray(x, dtype=float)
    b, n = x.shape
    inside = (x > 0) & (x < np.inf)  # False at NaN
    if not inside.all():  # such a row becomes a row of ones, which no family fits
        x = np.where(inside.all(axis=1)[:, None], x, 1.0)
    logs = np.log(x)

    if family is Family.PARETO:
        c = x.min(axis=1)
        tail = logs.sum(axis=1) - n * np.log(c)
        converged = tail > 0
        phi = np.where(converged, n / np.where(tail > 0, tail, 1.0), np.nan)
        return c, phi, converged, np.zeros(b, dtype=np.int64)

    if family in (Family.WEIBULL, Family.FRECHET):
        # x -> 1/x turns the Frechet likelihood into the Weibull one with
        # phi unchanged and c inverted.
        sign = 1.0 if family is Family.WEIBULL else -1.0
        phi, log_scale, converged, iterations = solve_weibull_shape(sign * logs)
        return np.exp(sign * log_scale), phi, converged, iterations

    raise DomainError(f"unknown family {family!r}")


def _log_likelihood(family: Family, x: np.ndarray, c: float, phi: float) -> float:
    """The log-likelihood at the MLE (c, phi) of the sample x.

    For Weibull and Frechet, c is log(mean (x^(+-phi)))/(+-phi) at the fitted
    phi, so sum (x/c)^(+-phi) = n.
    """
    n = x.size
    logs = np.log(x)
    if family is Family.PARETO:
        return n * np.log(phi) + n * phi * np.log(c) - (phi + 1.0) * logs.sum()
    sign = 1.0 if family is Family.WEIBULL else -1.0  # the mirror of fit_batch
    return n * np.log(phi) - sign * n * phi * np.log(c) + (sign * phi - 1.0) * logs.sum() - n


def mle(family: Family, sample) -> Estimate:
    """Maximum-likelihood estimate of (c, phi) for one sample.

    Raises :class:`DegenerateSampleError` for samples that admit no fit
    (fewer than 3 points, or essentially constant data) and
    :class:`ConvergenceError` if the shape iteration fails.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 3:
        raise DegenerateSampleError(f"need n >= 3, got n={x.size}")
    if not np.all((x > 0) & np.isfinite(x)):
        raise DomainError("sample values must be positive and finite")
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


def _standardize_rows(x, c, phi):
    """Y = (x / c)^phi of the data and every replicate, clipped to [1e-150, 1e150], where T is at
    its limits: lam = lam_inf, g / Y < inf, the kernel term ~1e-150 (NaN once sum Y overflows)."""
    with np.errstate(over="ignore", divide="ignore"):
        y = (x / c) ** phi
        far = (y < 1e-150) | (y > 1e150)
        if far.any():  # from logs, as x / c leaves double range on data over 308 decades wide
            y[far] = np.exp(phi * (np.log(x) - np.log(c)))[far]
    return np.clip(y, 1e-150, 1e150, out=y)


def standardize(sample, estimate: Estimate) -> np.ndarray:
    """Y_j = (X_j / c)^phi of the observations in their order, clipped to [1e-150, 1e150].

    For the Pareto fit c equals the sample minimum, so min(Y) is exactly 1.
    """
    x = np.asarray(sample, dtype=float).ravel()
    return _standardize_rows(x, estimate.params.c, estimate.params.phi)
