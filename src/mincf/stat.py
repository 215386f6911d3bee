"""The weighted-L2 min-CF test statistic and its building blocks.

The statistic for a standardized sample Y_1..Y_n and weight exp(-gamma*t) is

    T = (1/n) sum_jk K(Y_j, Y_k) + n*L - 2 sum_j lam(Y_j)

with K(z1,z2) = int min(1,t z1) min(1,t z2) e^(-gamma t) dt (family-free,
closed form, double sum in O(n log n) by :func:`_kernel_sum`), L = int
psi0(t)^2 e^(-gamma t) dt (per family, closed up to one fixed Gauss-Legendre
residual) and lam(z) = int min(1,t z) psi0(t) e^(-gamma t) dt.

lam has one production route, the cached vectorized :func:`lambda_table`,
serving the observed :func:`statistic` and the engine's :func:`batch_statistics`;
:class:`LambdaTable` is its one switch on the family:

* Pareto and Frechet - closed forms through E1 and regularized incomplete
  gammas. Where those forms cancel (small 1/z or gamma/z), both integrate
  power series term by term through one Horner helper, :func:`_series_moment`.
* Weibull - int t^2 e^(-1/t - gamma t) dt has no elementary form, so
  Chebyshev panels on a uniform grid in log z are fitted once per gamma to
  a composite Gauss-Legendre rule, with the exact linear asymptote below
  the panels and an analytic tail above them.

Every public function takes gamma in [GAMMA_MIN, GAMMA_MAX] = [0.001, 1000], the
range the tests check lam and L against mpmath, and raises DomainError outside it.

E1, K_nu and the incomplete gammas come from :mod:`mincf.special` in numpy,
so the production route loads no scipy. The quadrature oracles the tests
hold these terms to are part of the test suite (``tests/oracles.py``), not
of the package.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .errors import GAMMA_MAX, GAMMA_MIN, DomainError
from .families import Family, null_min_cf
from .special import _E1_SERIES, EULER_GAMMA, bessel_k, exp_integral_e1, gammainc23, gammaincc23


@functools.cache
def _gl_rule():
    # Built on first use: the eigen-solve's first LAPACK call costs ~9 ms of start-up.
    return np.polynomial.legendre.leggauss(32)


def _gauss_legendre(f, edges):
    """Composite 32-node Gauss-Legendre integral of f over consecutive pieces.

    The pieces run along the last axis of ``edges``; the leading axes batch
    independent integrals, and f receives the abscissae with one more axis.
    """
    nodes, weights = _gl_rule()
    lo = edges[..., :-1]
    hw = 0.5 * (edges[..., 1:] - lo)
    t = (lo + hw)[..., None] + hw[..., None] * nodes
    return (hw[..., None] * weights * f(t)).sum(axis=(-2, -1))


def _geometric_edges(top):
    """Pieces 0, 4^-12, ..., 4^top: ratio 4 keeps a log t singularity at 0 far off each."""
    return np.concatenate(([0.0], 4.0 ** np.arange(-12, top + 1)))


def _check_gamma(gamma) -> float:
    g = float(gamma)
    if not GAMMA_MIN <= g <= GAMMA_MAX:
        raise DomainError(f"gamma must lie in [{GAMMA_MIN:g}, {GAMMA_MAX:g}], got {gamma!r}")
    return g


@dataclass(frozen=True)
class StatisticBreakdown:
    """The three terms of the statistic and their combination."""

    double_sum: float
    n_times_l: float
    lambda_sum: float
    value: float


# ---------------------------------------------------------------------------
# Pairwise kernel.
# ---------------------------------------------------------------------------

def _kernel_sum(g: float, y: np.ndarray) -> np.ndarray:
    """sum_jk K(y_j, y_k) over the last axis of y in O(n log n) (Huo & Szekely 2016).

    For s <= l, K(s, l) = s F(l) + G(s) exactly, F(l) = 2l P(3, g/l)/g^3 - P(2, g/l)/g^2,
    G(s) = s P(2, g/s)/g^2 + e^(-g/s)/g = s (1 - e^(-g/s))/g^2. On sorted values, with
    S_j the sum of the j smaller ones, the sum is
    sum_j F(y_j)(2 S_j + y_j) + G(y_j)(2(n-1-j) + 1). The pairwise form,
    ``kernel_lambda`` in ``tests/oracles.py``, is the test oracle.

    The split cancels where both values of a pair are << g (K ~ 2ls/g^3, each
    part ~ s/g^2). MLE-standardized rows have max(Y) >= 1 (Weibull: mean Y = 1;
    Pareto: min Y = 1; Frechet: mean 1/Y = 1) and match the pair grid to ~1e-14
    relative; a raw row of values near 1e-6 loses 1e-11 (g = 0.2) to 1e-9 (g = 30).
    """
    y = np.sort(y, axis=-1)
    u = g / y
    p2, p3 = gammainc23(u)
    f = (2.0 * y * p3 / g - p2) / g ** 2
    small = -y * np.expm1(-u) / g ** 2
    weight = np.arange(2 * y.shape[-1] - 1, 0, -2)  # 2(n-1-j) + 1
    return (f * (2.0 * np.cumsum(y, axis=-1) - y) + small * weight).sum(axis=-1)


# ---------------------------------------------------------------------------
# Family constants L_gamma.
# ---------------------------------------------------------------------------

@functools.cache
def l_constant(family: Family, gamma: float) -> float:
    """L = int_0^inf psi0(t)^2 e^(-gamma t) dt for the standard member.

    Weibull is closed form; Pareto and Frechet add one residual integral by
    :func:`_gauss_legendre` on geometric pieces, within 1e-15 relative of
    mpmath for gamma from 0.001 to 1000.
    """
    g = _check_gamma(gamma)

    if family is Family.WEIBULL:
        return 2.0 / g ** 3 + (
            4.0 * math.sqrt(2.0) * bessel_k(3.0, math.sqrt(8.0 * g))
            - 4.0 * bessel_k(3.0, 2.0 * math.sqrt(g))
        ) / g ** 1.5

    if family is Family.PARETO:
        resid = float(_gauss_legendre(
            lambda t: t * t * np.log(t) ** 2 * np.exp(-g * t), _geometric_edges(0)
        ))
        e1g = exp_integral_e1(g)
        return (
            math.exp(-g) / g
            + (math.exp(-g) * (4.0 - g * g) + 4.0 * (math.log(g) + e1g + EULER_GAMMA - 1.0))
            / g ** 3
            + resid
        )

    if family is Family.FRECHET:
        def integrand(t):
            e1 = exp_integral_e1(t)
            return t * t * e1 * e1 * np.exp(-g * t)

        # The integrand decays as e^(-(2+g) t): stop at the first power of 4 past 40/(2+g).
        top = max(-12, math.ceil(0.5 * math.log2(40.0 / (2.0 + g))))
        resid = float(_gauss_legendre(integrand, _geometric_edges(top)))
        return (
            1.0 / (2.0 + g)
            + (g + 2.0 * (math.log1p(g) + 1.0 / (1.0 + g) - 1.0)) / g ** 2
            - 2.0 * (g + math.log(2.0 + g) + 1.0 / (2.0 + g)) / (1.0 + g) ** 2
            + resid
        )

    raise DomainError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# lam(z): the closed forms of Pareto and Frechet.
# ---------------------------------------------------------------------------

def _frechet_lambda(g, z):
    """Frechet lam(z), psi0(t) = 1 - e^(-t) + t E1(t), vectorized over z > 0.

    With a = 1/z and I_k(a) = int_0^a t^k e^(-g t) E1(t) dt,
    lam = _frechet_lambda_closed(g, z) + z I_2(a) + int_a^inf t e^(-g t) E1(t) dt,
    the first term being the elementary part from 1 - e^(-t).
    Integrating by parts against E1'(t) = -e^(-t)/t writes I_k and the tail
    through E1 and regularized incomplete gammas. That form cancels for
    small a and small g a, so for a <= min(0.5, 2/g), and for g a <= 0.1 up
    to a = 4 (as far as the 27 Ein terms hold), the series
    e^(-g t) E1(t) = e^(-g t) (Ein(t) - EULER_GAMMA) - e^(-g t) log t is
    integrated term by term instead.
    """
    a = 1.0 / z
    out = _frechet_lambda_closed(g, z)
    r = g / (1.0 + g)
    series = a <= min(max(0.5, 0.1 / g), 2.0 / g, 4.0)
    if np.any(series):
        m1 = (math.log1p(g) - r) / g ** 2
        a_s = a[series]
        e = _exp_series(g)
        b = np.convolve(_E1_SERIES, e)[:e.size] - EULER_GAMMA * e
        out[series] += (z[series] * _series_moment(a_s, 2, b, -e)
                        + m1 - _series_moment(a_s, 1, b, -e))
    big = ~series
    if np.any(big):
        a_b = a[big]
        e1a = exp_integral_e1(a_b)
        e1b = exp_integral_e1((1.0 + g) * a_b)
        q = np.exp(-(1.0 + g) * a_b)
        q2, q3 = gammaincc23(g * a_b)
        p2, _ = gammainc23((1.0 + g) * a_b)
        i2 = 2.0 * (
            math.log1p(g) - q3 * e1a + e1b - r * (1.0 - q) - 0.5 * r * r * p2
        ) / g ** 3
        tail1 = (q2 * e1a - e1b - r * q) / g ** 2
        out[big] += z[big] * i2 + tail1
    return out


def _frechet_lambda_closed(g, z):
    """z(1 - e^(-g/z))/g^2 - z(1 - e^(-(1+g)/z))/(1+g)^2."""
    return (-z * np.expm1(-g / z)) / g ** 2 + (z * np.expm1(-(1.0 + g) / z)) / (1.0 + g) ** 2


def _pareto_lambda(g, z):
    """Pareto lam(z), psi0(t) = t(1 - log t) for t <= 1 and 1 beyond, over z > 0."""
    out = np.empty_like(z)
    low = z <= 1.0
    out[low] = _pareto_lambda_low(g, z[low])
    out[~low] = _pareto_lambda_high(g, z[~low])
    return out


def _pareto_lambda_low(g, z):
    """Pareto branch for z <= 1: lam = z c1 + z (e^(-g)(1 + g) - e^(-g/z))/g^2
    with c1 = int_0^1 t^2 (1 - log t) e^(-g t) dt. c1's closed form is a
    difference of terms of order 1/g^3, so for g <= 0.1 the exponential
    series is integrated term by term instead."""
    eg = math.exp(-g)
    if g <= 0.1:
        e = _exp_series(g)
        c1 = _series_moment(1.0, 2, e, -e)
    else:
        c1 = (
            (2.0 - eg * (2.0 + 2.0 * g + g * g))
            - (3.0 - 2.0 * EULER_GAMMA - eg * (3.0 + g) - 2.0 * exp_integral_e1(g)
               - 2.0 * math.log(g))
        ) / g ** 3
    return z * c1 + z * (eg * (1.0 + g) - np.exp(-g / z)) / (g * g)


def _pareto_lambda_high(g, z):
    """Pareto branch for z > 1, through the log moments L_p(a) = int_0^a t^p log t e^(-g t) dt.

    With a = 1/z, lam = t1 + t2 - e^(-g)/g^2 - z L_2(a) - (L_1(1) - L_1(a)). L_1 and
    L_2 are closed forms through E1(g a), e^(-g a) and log a, which cancel for
    small a and for small g a, so for a <= min(0.25, 1/g) and wherever
    g a <= 0.1 the exponential series is integrated term by term instead.
    """
    a = 1.0 / z
    l1_full = (1.0 - EULER_GAMMA - math.log(g) - math.exp(-g) - exp_integral_e1(g)) / g ** 2
    l1, l2 = np.empty_like(a), np.empty_like(a)
    small = a <= min(max(0.25, 0.1 / g), 1.0 / g)
    if np.any(small):
        e = _exp_series(g)
        l1[small] = _series_moment(a[small], 1, 0.0, e)
        l2[small] = _series_moment(a[small], 2, 0.0, e)
    ab = a[~small]
    ga = g * ab
    ega, la, e1 = np.exp(-ga), np.log(ab), exp_integral_e1(ga)
    l1[~small] = (-ega * (ga + 1.0) * la - ega - e1) / g ** 2 - (
        -(1.0 - EULER_GAMMA - math.log(g)) / g ** 2
    )
    l2[~small] = (
        -ega * (ga * ga + 2.0 * ga + 2.0) * la
        - (ega * (ga + 3.0) + 2.0 * e1)
        + (3.0 - 2.0 * math.log(g) - 2.0 * EULER_GAMMA)
    ) / g ** 3
    # Built after the moments, so fewer (B, n) temporaries are alive at once.
    u = g / z
    eu = np.exp(-u)
    t1 = (-2.0 * z * np.expm1(-u) - eu * (2.0 * g + g * g / z)) / g ** 3
    t2 = eu * (g + z) / (g * g * z)
    return t1 + t2 - math.exp(-g) / g ** 2 - z * l2 - (l1_full - l1)


def _exp_series(g):
    """Taylor coefficients (-g)^k/k! of e^(-g t), as many as special._E1_SERIES has."""
    k = np.arange(len(_E1_SERIES), dtype=float)
    return (-g) ** k / np.cumprod(np.maximum(k, 1.0))


def _series_moment(a, p, b, c):
    """int_0^a t^p (B(t) + C(t) log t) dt for power series B, C with coefficients b, c.

    Term by term, with q_k = p + k + 1, this is
    a^(p+1) [sum (b_k/q_k - c_k/q_k^2) a^k + log a sum (c_k/q_k) a^k]: two Horner sums.
    """
    q = p + 1.0 + np.arange(len(c))
    return a ** (p + 1.0) * (
        _poly.polyval(a, b / q - c / q ** 2) + np.log(a) * _poly.polyval(a, c / q)
    )


# ---------------------------------------------------------------------------
# lam(z): the vectorized table route.
# ---------------------------------------------------------------------------

def lambda_complete(family: Family, gamma: float) -> float:
    """Limit of lam(z) as z -> inf: int_0^inf psi0(t) e^(-gamma t) dt."""
    g = _check_gamma(gamma)
    if family is Family.WEIBULL:
        return 1.0 / g ** 2 - 2.0 * bessel_k(2.0, 2.0 * math.sqrt(g)) / g
    if family is Family.PARETO:
        return (EULER_GAMMA + math.log(g) + exp_integral_e1(g)) / g ** 2
    if family is Family.FRECHET:
        return 1.0 / g - 1.0 / (1.0 + g) + (math.log1p(g) - g / (1.0 + g)) / g ** 2
    raise DomainError(f"unknown family {family!r}")


_CHEB_DEG = 14
_CHEB_TEST = np.array([-0.971, -0.683, -0.317, 0.089, 0.459, 0.823, 0.987])
_MAX_PANELS = 256  # bounds one level's quadrature; gamma in range needs at most 16


@dataclass(frozen=True)
class LambdaTable:
    """Vectorized evaluator of lam(z) for one (family, gamma).

    Pareto and Frechet evaluate their closed forms and carry no panels. For
    Weibull, Chebyshev fits of lam(e^u) on len(coeffs) panels of width h
    cover [u_lo, u_lo + h len(coeffs)] = [log z_lo, log z_hi]; below z_lo
    the exact linear asymptote applies, above z_hi an analytic tail.
    """

    family: Family
    gamma: float
    lam_inf: float
    z_lo: float = 0.0
    z_hi: float = math.inf
    slope: float = math.nan
    u_lo: float = math.nan
    h: float = math.nan
    coeffs: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if self.family is Family.WEIBULL:
            out = self._weibull(z)
        elif self.family is Family.PARETO:
            out = _pareto_lambda(self.gamma, z)
        else:
            out = _frechet_lambda(self.gamma, z)
        return float(out[0]) if scalar else out

    def _weibull(self, z):
        out = np.empty_like(z)
        lo = z < self.z_lo
        hi = z > self.z_hi
        mid = ~(lo | hi)
        out[lo] = self.slope * z[lo]
        if np.any(hi):
            # psi0(t) = t up to O(e^(-1/t)), negligible beyond z_hi.
            g = self.gamma
            p2, p3 = gammainc23(g / z[hi])
            corr = p2 / g ** 2 - 2.0 * z[hi] * p3 / g ** 3
            out[hi] = self.lam_inf - corr
        if np.any(mid):
            # Truncation, not floor: a log z rounded just below u_lo stays in panel 0.
            x = (np.log(z[mid]) - self.u_lo) / self.h
            idx = np.minimum(x.astype(np.intp), len(self.coeffs) - 1)
            x = 2.0 * (x - idx) - 1.0
            # The panels in use, in order; np.unique would import numpy.ma (~10 ms) on first use.
            for k in np.flatnonzero(np.bincount(idx)):
                sel = idx == k
                x[sel] = _cheb.chebval(x[sel], self.coeffs[k])  # abscissae become values
            out[mid] = x
        return out


@functools.cache
def lambda_table(family: Family, gamma: float) -> LambdaTable:
    """Build (and cache) the lam evaluator for one (family, gamma).

    Only Weibull has panels to fit: its lam has no elementary closed form.
    1, 2, 4, ... equal panels split [log(gamma/40), log 40], a level per
    chebfit call, until each is within 1e-11 * max(1, lam_inf) of the
    quadrature at 7 test points: up to 16 panels for gamma in [0.001, 1000].
    """
    g = _check_gamma(gamma)
    lam_inf = lambda_complete(family, g)
    if family is not Family.WEIBULL:
        return LambdaTable(family=family, gamma=g, lam_inf=lam_inf)

    # lim lam(z)/z as z -> 0, i.e. int_0^inf t psi0(t) e^(-g t) dt.
    slope = 2.0 / g ** 3 - 2.0 * bessel_k(3.0, 2.0 * math.sqrt(g)) / g ** 1.5
    z_lo, z_hi = g / 40.0, 40.0
    tol = 1e-11 * max(1.0, lam_inf)
    u_lo, u_hi = math.log(z_lo), math.log(z_hi)

    pieces = [0.0, 0.05, 0.2, 1.0, 4.0, 16.0]
    while pieces[-1] < 1.0 / z_lo:  # ratio 4 up to 1/z_lo, as psi0 is singular at t = 0
        pieces.append(4.0 * pieces[-1])

    def f(u):
        # lam_inf minus int_0^(1/z) (1 - z t) psi0(t) e^(-g t) dt at every z at once, by
        # Gauss-Legendre on `pieces` cut at 1/z: within 1e-15 * max(1, lam_inf) of
        # the test oracle small_lambda for g in [0.001, 1000]. A last piece
        # [16, 40/g] lost 5e-7 at g = 0.02.
        z = np.exp(u)[..., None]
        return lam_inf - _gauss_legendre(
            lambda t: (1.0 - z[..., None] * t) * null_min_cf(Family.WEIBULL, t) * np.exp(-g * t),
            np.minimum(pieces, 1.0 / z),
        )

    nodes = np.cos(np.arange(_CHEB_DEG + 1) * np.pi / _CHEB_DEG)
    m = 1
    while True:
        h = (u_hi - u_lo) / m
        mids = u_lo + h * (np.arange(m) + 0.5)
        coeffs = _cheb.chebfit(nodes, f(mids + 0.5 * h * nodes[:, None]), _CHEB_DEG)
        err = _cheb.chebval(_CHEB_TEST, coeffs) - f(mids[:, None] + 0.5 * h * _CHEB_TEST)
        if np.max(np.abs(err)) <= tol or m == _MAX_PANELS:
            break
        m *= 2
    return LambdaTable(
        family=family, gamma=g, lam_inf=lam_inf, z_lo=z_lo, z_hi=z_hi, slope=slope,
        u_lo=u_lo, h=h, coeffs=coeffs.T,
    )


# ---------------------------------------------------------------------------
# Statistic assembly.
# ---------------------------------------------------------------------------

def statistic(family: Family, y, gamma: float) -> StatisticBreakdown:
    """Assemble the test statistic from the 1-D array ``y`` of standardized values.

    Same terms as :func:`batch_statistics`: the double sum from
    :func:`_kernel_sum`, lam from :func:`lambda_table` and L from
    :func:`l_constant`.
    """
    g = _check_gamma(gamma)
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 3:
        raise DomainError("statistic needs n >= 3")
    if not np.all((y > 0) & np.isfinite(y)):
        raise DomainError("standardized values must be positive and finite")

    double_sum = float(_kernel_sum(g, y)) / n
    lambda_sum = 2.0 * lambda_table(family, g)(y).sum()
    n_times_l = n * l_constant(family, g)
    value = double_sum + n_times_l - lambda_sum
    return StatisticBreakdown(
        double_sum=double_sum, n_times_l=n_times_l, lambda_sum=lambda_sum, value=value
    )


def batch_statistics(family: Family, gamma: float, y: np.ndarray) -> np.ndarray:
    """Statistic values for every row of a (B, n) standardized matrix.

    The terms of :func:`statistic` row by row, in O(B n log n) time and
    O(B n) memory.
    """
    g = _check_gamma(gamma)
    y = np.asarray(y, dtype=float)
    b, n = y.shape
    lam = lambda_table(family, g)(y.reshape(-1)).reshape(b, n).sum(axis=1)
    return _kernel_sum(g, y) / n + n * l_constant(family, g) - 2.0 * lam
