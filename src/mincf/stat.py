"""The weighted-L2 min-CF test statistic and its building blocks.

The statistic for a standardized sample Y_1..Y_n and weight exp(-gamma*t) is

    T = (1/n) sum_jk K(Y_j, Y_k) + n*L - 2 sum_j lam(Y_j)

with K(z1,z2) = int min(1,t z1) min(1,t z2) e^(-gamma t) dt (family-free,
closed form, double sum in O(n log n) by :func:`_kernel_sum`), L = int
psi0(t)^2 e^(-gamma t) dt and lam(z) = int min(1,t z) psi0(t) e^(-gamma t) dt.

The per-gamma integrals of psi0 - L, lam's limit lam_inf and the slope
lam(z)/z at z -> 0 - have one route: a fixed Gauss-Legendre rule (:func:`_gl_rule`,
by Newton's method) over a positive integrand on :func:`_geometric_edges`, by
:func:`_psi0_integral` (the slope as the panel build's last running sum).

lam has one production route for every family, the cached vectorized
:func:`lambda_table`, serving the observed :func:`statistic` and the engine's
:func:`batch_statistics`. Above z_lo ~ gamma/40 it is lam = lam_inf - C(z), with
the bounded complement C(z) = int_0^(1/z) (1 - t z) psi0(t) e^(-gamma t) dt, so
lam is as exact as lam_inf; below z_lo the exact linear asymptote applies. C is
held by Chebyshev panels on a uniform grid in log z, with z = 1 (Pareto's kink)
on a panel edge, fitted once per gamma by a fixed DCT-I matrix to running sums
of per-piece Gauss-Legendre integrals plus one partial piece and evaluated by
one Clenshaw recurrence over all values; above the panels C is a power series
(:func:`_series_complement`, summed by Horner's rule).

Every public function takes gamma in [GAMMA_MIN, GAMMA_MAX] = [0.001, 1000], the
range the tests check lam and L against mpmath, and raises DomainError outside it.

The incomplete gammas and the Horner and Clenshaw helpers come from
:mod:`mincf.special`, so the production route loads no scipy or numpy.polynomial
and makes no LAPACK or BLAS call, each of which adds to every CLI process's peak
RSS. The quadrature oracles the tests
hold these terms to are part of the test suite (``tests/oracles.py``), not
of the package.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GAMMA_MAX, GAMMA_MIN, DomainError
from .families import Family, null_min_cf
from .special import EULER_GAMMA, clenshaw, gammainc23, horner


@functools.cache
def _gl_rule():
    """32-node Gauss-Legendre rule with no LAPACK call: Newton on P_32's three-term
    recurrence from cosine estimates, then leggauss's symmetrization and scaling."""
    n = 32
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(5):  # the third step reaches rounding, the rest settle the last bits
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (p0 - x * p1) / (1.0 - x * x)  # P_n'(x)
        x = x - p1 / dp
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    return x, w * (2.0 / w.sum())


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


def _geometric_edges(g):
    """Pieces 0, 4^-12, ..., 4^top: ratio 4 keeps a log t singularity at 0 far off each.

    4^top is the first power of 4 past 60/g, where e^(-g t) is below e^(-60).
    """
    top = max(-12, math.ceil(0.5 * math.log2(60.0 / g)))
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
# The integrals of psi0 that depend only on gamma.
# ---------------------------------------------------------------------------

def _psi0_integral(family: Family, g: float, k: int, p: int) -> float:
    """int_0^inf t^k psi0(t)^p e^(-g t) dt by :func:`_gauss_legendre` on geometric pieces.

    The pieces put the log t singularity of Pareto and Frechet at 0 and
    Pareto's kink at t = 1 on their edges.
    """
    return float(_gauss_legendre(
        lambda t: t ** k * null_min_cf(family, t) ** p * np.exp(-g * t), _geometric_edges(g)
    ))


@functools.cache
def l_constant(family: Family, gamma: float) -> float:
    """L = int_0^inf psi0(t)^2 e^(-gamma t) dt for the standard member.

    One fixed Gauss-Legendre pass of a positive integrand, within 6e-16
    relative of mpmath for gamma from 0.001 to 1000.
    """
    return _psi0_integral(family, _check_gamma(gamma), 0, 2)


# ---------------------------------------------------------------------------
# lam(z) = lam_inf - C(z): the complement's series above the panels.
# ---------------------------------------------------------------------------

#: Taylor coefficients of B(t) = psi0(t)/t + log t = (1 - e^(-t))/t + Ein(t) - EULER_GAMMA
#: for Frechet: 1 - EULER_GAMMA, then (-1)^(k+1)/(k (k+1)!) to k = 26, as far as
#: special's series of Ein.
_FRECHET_SERIES = np.array(
    [1.0 - EULER_GAMMA] + [(-1.0) ** (k + 1) / (k * math.factorial(k + 1)) for k in range(1, 27)]
)

#: Each family's _series_complement arguments (b, log) above the panels, where
#: t <= 1/z <= min(1/40, 1/gamma): Weibull's psi0 is t up to e^(-1/t) < e^(-40),
#: Pareto's t (1 - log t) and Frechet's t (B(t) - log t).
_TAIL = {
    Family.WEIBULL: ([1.0], False),
    Family.PARETO: ([1.0], True),
    Family.FRECHET: (_FRECHET_SERIES, True),
}


def _series_complement(g, a, b, log):
    """C = int_0^a (1 - t/a) psi0(t) e^(-g t) dt for psi0(t) = t (B(t) - log t) on [0, a].

    With e_k = (-g)^k/k!, d the coefficients of B(t) e^(-g t) (b convolved
    with e) and r_k = 1/((k + 2)(k + 3)), term by term
    C = a^2 [sum (d_k r_k + (2k + 5) e_k r_k^2) a^k - log a sum e_k r_k a^k]: two Horner sums.
    Without the log term (``log`` false, psi0(t) = t B(t)) C = a^2 sum d_k r_k a^k.
    """
    k = np.arange(_FRECHET_SERIES.size, dtype=float)
    e = (-g) ** k / np.cumprod(np.maximum(k, 1.0))
    d = np.convolve(b, e)[:k.size]
    r = 1.0 / ((k + 2.0) * (k + 3.0))
    if not log:
        return a * a * horner(a, (d * r)[::-1])
    return a * a * (
        horner(a, (d * r + (2.0 * k + 5.0) * e * r * r)[::-1])
        - np.log(a) * horner(a, (e * r)[::-1])
    )


# ---------------------------------------------------------------------------
# lam(z): the vectorized table route.
# ---------------------------------------------------------------------------

def lambda_complete(family: Family, gamma: float) -> float:
    """Limit of lam(z) as z -> inf: int_0^inf psi0(t) e^(-gamma t) dt."""
    return _psi0_integral(family, _check_gamma(gamma), 0, 1)


_CHEB_DEG = 14
_CHEB_TEST = np.array([-0.971, -0.683, -0.317, 0.089, 0.459, 0.823, 0.987])
#: Fit nodes cos(j pi/14) and the DCT-I taking values there to Chebyshev coefficients
#: (Trefethen 2013, ch. 3): c_k = (2/14) sum_j f_j cos(j k pi/14), end terms halved in j and k.
_J = np.arange(_CHEB_DEG + 1)
_CHEB_NODES = np.cos(_J * np.pi / _CHEB_DEG)
_HALF_ENDS = np.where(_J % _CHEB_DEG, 1.0, 0.5)
_DCT = (2.0 / _CHEB_DEG) * _HALF_ENDS[:, None] * _HALF_ENDS * np.cos(
    np.outer(_J, _J) * np.pi / _CHEB_DEG)
_MAX_PANELS = 256  # bounds one level's quadrature; gamma in range needs at most 17


@dataclass(frozen=True)
class LambdaTable:
    """Vectorized evaluator of lam(z) for one (family, gamma).

    lam = lam_inf - C(z) from z_lo up. Chebyshev fits of C(e^u) on len(coeffs)
    panels of width h cover [u_lo, u_lo + h len(coeffs)] = [log z_lo, log z_hi];
    above z_hi C is the family's complement series. Below z_lo the exact
    linear asymptote applies.
    """

    family: Family
    gamma: float
    lam_inf: float
    z_lo: float
    z_hi: float
    slope: float
    u_lo: float
    h: float
    coeffs: np.ndarray

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        lo = z < self.z_lo
        hi = z > self.z_hi
        mid = ~(lo | hi)
        out[lo] = self.slope * z[lo]
        if np.any(hi):
            out[hi] = self.lam_inf - _series_complement(self.gamma, 1.0 / z[hi], *_TAIL[self.family])
        if np.any(mid):
            # Truncation, not floor: a log z rounded just below u_lo stays in panel 0.
            x = (np.log(z[mid]) - self.u_lo) / self.h
            idx = np.minimum(x.astype(np.intp), len(self.coeffs) - 1)
            x = 2.0 * (x - idx) - 1.0
            # One recurrence for all panels, each value gathering its panel's coefficients.
            out[mid] = self.lam_inf - clenshaw(
                x, (c.take(idx) for c in self.coeffs.T[::-1]))
        return float(out[0]) if scalar else out


@functools.cache
def lambda_table(family: Family, gamma: float) -> LambdaTable:
    """Build (and cache) the lam evaluator for one (family, gamma).

    Levels of width h = (log max(40, gamma) - log(gamma/40))/m, m = 4, 8, 16, ...,
    each fitted by the _DCT matrix, until every panel is within 1e-13 * lam_inf of
    C(z) at 7 test points: 5 to 17 panels for gamma in [0.001, 1000]. The panels are
    the whole multiples of h that cover that range, so z = 1 is a panel edge: the
    second derivative of Pareto's psi0 jumps at t = 1, and the fourth of lam at
    z = 1. C rather than lam is fitted, so the fit rounds at the size of C, which
    on z >= 1, where standardized rows lie, is far below lam_inf for small gamma.
    Past the top the tail series holds: 1/z <= min(1/40, 1/gamma).
    """
    g = _check_gamma(gamma)
    lam_inf = lambda_complete(family, g)
    u_lo, u_hi = math.log(g / 40.0), math.log(max(40.0, g))

    def weighted(t):
        return null_min_cf(family, t) * np.exp(-g * t)

    # C(z) = int_0^a (1 - z t) psi0(t) e^(-g t) dt at a = 1/z on _psi0_integral's
    # pieces: the whole pieces below a from running sums of their integrals of
    # psi0 e^(-g t) and t psi0 e^(-g t), the rest [edge_j, a] by one piece more.
    # Pareto's kink t = 1 is a piece edge, so no piece straddles it.
    edges = _geometric_edges(g)  # past 60/g; a beyond it adds a piece of mass below e^(-60)
    moments = _gauss_legendre(lambda t: weighted(t) * np.stack([np.ones_like(t), t]),
                              np.stack([edges[:-1], edges[1:]], axis=-1))
    cum0, cum1 = np.cumsum(np.pad(moments, ((0, 0), (1, 0))), axis=-1)
    slope = float(cum1[-1])  # lim lam(z)/z as z -> 0

    def f(u):
        z = np.exp(u)
        a = 1.0 / z
        j = np.searchsorted(edges, a, side="right") - 1
        rest = _gauss_legendre(lambda t: (1.0 - z[..., None, None] * t) * weighted(t),
                               np.stack([edges[j], a], axis=-1))
        return cum0[j] - z * cum1[j] + rest

    x = np.concatenate([_CHEB_NODES, _CHEB_TEST])  # fit nodes, then test points: one f call a level
    m = 4  # on a fine gamma grid no table met the tolerance with fewer
    while True:
        h = (u_hi - u_lo) / m
        k_lo, k_hi = math.floor(u_lo / h), math.ceil(u_hi / h)
        # Panel k is [k h, (k + 1) h]; its end nodes x = -1, 1 fall on k h and (k + 1) h exactly.
        vals = f(h * (np.arange(k_lo, k_hi) + 0.5 + 0.5 * x[:, None]))
        # A broadcast product, not a matrix product: BLAS's first call costs peak RSS.
        coeffs = (_DCT[:, :, None] * vals[:_CHEB_NODES.size]).sum(axis=1)
        err = clenshaw(_CHEB_TEST, coeffs[::-1, :, None]) - vals[_CHEB_NODES.size:].T
        if np.max(np.abs(err)) <= 1e-13 * lam_inf or m == _MAX_PANELS:
            break
        m *= 2
    return LambdaTable(
        family=family, gamma=g, lam_inf=lam_inf, z_lo=math.exp(k_lo * h),
        z_hi=math.exp(k_hi * h), slope=slope, u_lo=k_lo * h, h=h, coeffs=coeffs.T,
    )


# ---------------------------------------------------------------------------
# Statistic assembly.
# ---------------------------------------------------------------------------

def _terms(family: Family, g: float, y: np.ndarray):
    """(sum K / n, n L, 2 sum lam) for every row of the (B, n) matrix y.

    The double sum from :func:`_kernel_sum`, lam from :func:`lambda_table`
    and L from :func:`l_constant`, in O(B n log n) time and O(B n) memory.
    """
    b, n = y.shape
    lam = lambda_table(family, g)(y.reshape(-1)).reshape(b, n).sum(axis=1)
    return _kernel_sum(g, y) / n, n * l_constant(family, g), 2.0 * lam


def statistic(family: Family, y, gamma: float) -> StatisticBreakdown:
    """Assemble the test statistic from the 1-D array ``y`` of standardized values.

    The one-row case of :func:`batch_statistics`, with the input checked and
    the three terms kept.
    """
    g = _check_gamma(gamma)
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        raise DomainError("statistic needs n >= 3")
    if not np.all((y > 0) & np.isfinite(y)):
        raise DomainError("standardized values must be positive and finite")

    double_sum, n_times_l, lambda_sum = _terms(family, g, y.reshape(1, -1))
    double_sum, lambda_sum = float(double_sum[0]), float(lambda_sum[0])
    return StatisticBreakdown(
        double_sum=double_sum, n_times_l=n_times_l, lambda_sum=lambda_sum,
        value=double_sum + n_times_l - lambda_sum,
    )


def batch_statistics(family: Family, gamma: float, y: np.ndarray) -> np.ndarray:
    """Statistic values for every row of a (B, n) standardized matrix."""
    double_sum, n_times_l, lambda_sum = _terms(family, _check_gamma(gamma), np.asarray(y, float))
    return double_sum + n_times_l - lambda_sum
