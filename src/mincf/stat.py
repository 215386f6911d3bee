"""The weighted-L2 min-CF test statistic and its building blocks.

The statistic for a standardized sample Y_1..Y_n and weight exp(-gamma*t) is

    T = (1/n) sum_jk K(Y_j, Y_k) + n*L - 2 sum_j lam(Y_j)

with K(z1,z2) = int min(1,t z1) min(1,t z2) e^(-gamma t) dt (family-free,
closed form, double sum in O(n log n) by :func:`_kernel_sum`), L = int
psi0(t)^2 e^(-gamma t) dt and lam(z) = int min(1,t z) psi0(t) e^(-gamma t) dt.

The per-gamma integrals of psi0 - L, lam's limit lam_inf, the slope
lam(z)/z at z -> 0 and Pareto's constant c1 - have one route: a fixed
Gauss-Legendre rule over a positive integrand on :func:`_geometric_edges`,
by :func:`_psi0_integral` (the slope as the panel build's last running sum).

lam has one production route, the cached vectorized :func:`lambda_table`,
serving the observed :func:`statistic` and the engine's :func:`batch_statistics`.
For large z every family takes lam = lam_inf - C(z), with the bounded
complement C(z) = int_0^(1/z) (1 - t z) psi0(t) e^(-gamma t) dt, so lam is as
exact as lam_inf. :class:`LambdaTable` tests the family once:

* Pareto - a closed form: z c1 plus an elementary term for z <= 1, and C
  through E1 for z > 1, by its power series where gamma/z <= 1
  (:func:`_series_complement`, one Horner helper).
* Weibull and Frechet - one panel build. Chebyshev panels on a uniform grid
  in log z are fitted once per gamma to lam_inf - C(z), with C from running
  sums of per-piece Gauss-Legendre integrals plus one partial piece, and
  evaluated by one Clenshaw recurrence over all values. Below the panels
  the exact linear asymptote applies; above them a closed tail: Weibull's
  through incomplete gammas, Frechet's by :func:`_series_complement`.

Every public function takes gamma in [GAMMA_MIN, GAMMA_MAX] = [0.001, 1000], the
range the tests check lam and L against mpmath, and raises DomainError outside it.

E1 and the incomplete gammas come from :mod:`mincf.special` in numpy, so
the production route loads no scipy. The quadrature oracles the tests
hold these terms to are part of the test suite (``tests/oracles.py``), not
of the package.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .errors import GAMMA_MAX, GAMMA_MIN, DomainError
from .families import Family, null_min_cf
from .special import EULER_GAMMA, exp_integral_e1, gammainc23


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


def _geometric_edges(g, top=None):
    """Pieces 0, 4^-12, ..., 4^top: ratio 4 keeps a log t singularity at 0 far off each.

    By default 4^top is the first power of 4 past 60/g, where e^(-g t) is below e^(-60).
    """
    if top is None:
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

def _psi0_integral(family: Family, g: float, k: int, p: int, top: int | None = None) -> float:
    """int_0^(4^top) t^k psi0(t)^p e^(-g t) dt by :func:`_gauss_legendre` on geometric pieces.

    The pieces put the log t singularity of Pareto and Frechet at 0 and
    Pareto's kink at t = 1 on their edges.
    """
    return float(_gauss_legendre(
        lambda t: t ** k * null_min_cf(family, t) ** p * np.exp(-g * t), _geometric_edges(g, top)
    ))


@functools.cache
def l_constant(family: Family, gamma: float) -> float:
    """L = int_0^inf psi0(t)^2 e^(-gamma t) dt for the standard member.

    One fixed Gauss-Legendre pass of a positive integrand, within 6e-16
    relative of mpmath for gamma from 0.001 to 1000.
    """
    return _psi0_integral(family, _check_gamma(gamma), 0, 2)


# ---------------------------------------------------------------------------
# lam(z) = lam_inf - C(z) in closed form: above the panels, and Pareto's.
# ---------------------------------------------------------------------------

#: Taylor coefficients of B(t) = psi0(t)/t + log t = (1 - e^(-t))/t + Ein(t) - EULER_GAMMA
#: for Frechet: 1 - EULER_GAMMA, then (-1)^(k+1)/(k (k+1)!) to k = 26, as far as
#: special's series of Ein. Pareto's B on t <= 1 is 1.
_FRECHET_SERIES = np.array(
    [1.0 - EULER_GAMMA] + [(-1.0) ** (k + 1) / (k * math.factorial(k + 1)) for k in range(1, 27)]
)


def _series_complement(g, a, b):
    """C = int_0^a (1 - t/a) psi0(t) e^(-g t) dt for psi0(t) = t (B(t) - log t) on [0, a].

    With e_k = (-g)^k/k!, d the coefficients of B(t) e^(-g t) (b convolved
    with e) and r_k = 1/((k + 2)(k + 3)), term by term
    C = a^2 [sum (d_k r_k + (2k + 5) e_k r_k^2) a^k - log a sum e_k r_k a^k]: two Horner sums.
    """
    k = np.arange(_FRECHET_SERIES.size, dtype=float)
    e = (-g) ** k / np.cumprod(np.maximum(k, 1.0))
    d = np.convolve(b, e)[:k.size]
    r = 1.0 / ((k + 2.0) * (k + 3.0))
    return a * a * (
        _poly.polyval(a, d * r + (2.0 * k + 5.0) * e * r * r) - np.log(a) * _poly.polyval(a, e * r)
    )


def _weibull_complement(g, a):
    """Weibull's C for a = 1/z <= 1/40, where psi0(t) = t up to O(e^(-1/t)), below e^(-40)."""
    p2, p3 = gammainc23(g * a)
    return p2 / g ** 2 - 2.0 * p3 / (g ** 3 * a)


@functools.cache
def _pareto_c1(g):
    """c1 = int_0^1 t psi0(t) e^(-g t) dt = int_0^1 t^2 (1 - log t) e^(-g t) dt."""
    return _psi0_integral(Family.PARETO, g, 1, 1, top=0)


def _pareto_lambda(g, z, lam_inf):
    """Pareto lam(z), psi0(t) = t(1 - log t) for t <= 1 and 1 beyond, over z > 0.

    For z <= 1, lam = z c1 + z (e^(-g)(1 + g) - e^(-g/z))/g^2, the bracket taken
    as e^(-g)(g - expm1(g - g/z)): exact at z = 1, where it cancels and where
    every MLE-standardized row has its minimum. Above, lam = lam_inf - C(z).
    """
    out = np.empty_like(z)
    low = z <= 1.0
    zl = z[low]
    out[low] = zl * _pareto_c1(g) + zl * (math.exp(-g) * (g - np.expm1(g - g / zl))) / (g * g)
    out[~low] = lam_inf - _pareto_complement(g, 1.0 / z[~low])
    return out


def _pareto_complement(g, a):
    """Pareto's C = int_0^a (1 - t/a) t (1 - log t) e^(-g t) dt for a = 1/z < 1.

    C = M_1 - M_2/a with M_p = int_0^a t^p (1 - log t) e^(-g t) dt, the
    incomplete moment of e^(-g t) minus the log moment
    L_p(a) = int_0^a t^p log t e^(-g t) dt. Both are closed forms through
    e^(-g a), E1(g a) and log a, which cancel for small g a, so wherever
    g a <= 1 the series is taken instead.
    """
    out = np.empty_like(a)
    small = g * a <= 1.0
    out[small] = _series_complement(g, a[small], [1.0])
    ab = a[~small]
    x = g * ab
    ex, la, e1 = np.exp(-x), np.log(ab), exp_integral_e1(x)
    em = -np.expm1(-x)
    # g^2 M_1 and g^3 M_2; the constants are g^2 L_1 and g^3 L_2 at a = inf.
    first = em + ex * ((x + 1.0) * la + 1.0 - x) + e1 - (1.0 - EULER_GAMMA - math.log(g))
    second = (2.0 * (em + e1) + ex * ((x * x + 2.0 * x + 2.0) * la + 3.0 - x - x * x)
              - (3.0 - 2.0 * math.log(g) - 2.0 * EULER_GAMMA))
    out[~small] = (first - second / x) / g ** 2
    return out


# ---------------------------------------------------------------------------
# lam(z): the vectorized table route.
# ---------------------------------------------------------------------------

def lambda_complete(family: Family, gamma: float) -> float:
    """Limit of lam(z) as z -> inf: int_0^inf psi0(t) e^(-gamma t) dt."""
    return _psi0_integral(family, _check_gamma(gamma), 0, 1)


_CHEB_DEG = 14
_CHEB_TEST = np.array([-0.971, -0.683, -0.317, 0.089, 0.459, 0.823, 0.987])
_MAX_PANELS = 256  # bounds one level's quadrature; gamma in range needs at most 16


@dataclass(frozen=True)
class LambdaTable:
    """Vectorized evaluator of lam(z) for one (family, gamma).

    Pareto evaluates its closed form and carries no panels. For Weibull and
    Frechet, Chebyshev fits of lam(e^u) on len(coeffs) panels of width h
    cover [u_lo, u_lo + h len(coeffs)] = [log z_lo, log z_hi]; below z_lo
    the exact linear asymptote applies, above z_hi lam = lam_inf - tail(gamma, 1/z).
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
    tail: Callable | None = None

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if self.family is Family.PARETO:
            out = _pareto_lambda(self.gamma, z, self.lam_inf)
        else:
            out = self._panels(z)
        return float(out[0]) if scalar else out

    def _panels(self, z):
        out = np.empty_like(z)
        lo = z < self.z_lo
        hi = z > self.z_hi
        mid = ~(lo | hi)
        out[lo] = self.slope * z[lo]
        if np.any(hi):
            out[hi] = self.lam_inf - self.tail(self.gamma, 1.0 / z[hi])
        if np.any(mid):
            # Truncation, not floor: a log z rounded just below u_lo stays in panel 0.
            x = (np.log(z[mid]) - self.u_lo) / self.h
            idx = np.minimum(x.astype(np.intp), len(self.coeffs) - 1)
            x = 2.0 * (x - idx) - 1.0
            # Clenshaw's recurrence for all panels at once, each value reading
            # its panel's coefficients; chebval's operations in chebval's order.
            c = self.coeffs.T
            x2 = 2.0 * x
            c0, c1 = c[-2].take(idx), c[-1].take(idx)
            for k in range(len(c) - 3, -1, -1):
                c0, c1 = c[k].take(idx) - c1, c0 + c1 * x2
            out[mid] = c0 + c1 * x
        return out


@functools.cache
def lambda_table(family: Family, gamma: float) -> LambdaTable:
    """Build (and cache) the lam evaluator for one (family, gamma).

    Pareto's lam is closed. For Weibull and Frechet, 4, 8, 16, ... equal
    panels split [log(gamma/40), log max(40, gamma)], a level per chebfit
    call, until each is within 1e-13 * lam_inf of lam_inf - C(z) at 7 test
    points: up to 16 panels for gamma in [0.001, 1000]. Past the top the
    tail is closed: Weibull's psi0 is t there, and Frechet's series holds
    for 1/z <= min(4, 1/gamma).
    """
    g = _check_gamma(gamma)
    lam_inf = lambda_complete(family, g)
    if family is Family.PARETO:
        return LambdaTable(family=family, gamma=g, lam_inf=lam_inf)

    z_lo, z_hi = g / 40.0, max(40.0, g)
    u_lo, u_hi = math.log(z_lo), math.log(z_hi)

    def weighted(t):
        return null_min_cf(family, t) * np.exp(-g * t)

    # C(z) = int_0^a (1 - z t) psi0(t) e^(-g t) dt at a = 1/z on _psi0_integral's
    # pieces: the whole pieces below a from running sums of their integrals of
    # psi0 e^(-g t) and t psi0 e^(-g t), the rest [edge_j, a] by one piece more.
    edges = _geometric_edges(g)  # past 60/g, so past every a <= 1/z_lo
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
        return lam_inf - (cum0[j] - z * cum1[j] + rest)

    nodes = np.cos(np.arange(_CHEB_DEG + 1) * np.pi / _CHEB_DEG)
    x = np.concatenate([nodes, _CHEB_TEST])  # fit nodes, then test points: one f call a level
    m = 4  # on a fine gamma grid no table met the tolerance with fewer
    while True:
        h = (u_hi - u_lo) / m
        vals = f(u_lo + h * (np.arange(m) + 0.5) + 0.5 * h * x[:, None])
        coeffs = _cheb.chebfit(nodes, vals[:nodes.size], _CHEB_DEG)
        err = _cheb.chebval(_CHEB_TEST, coeffs) - vals[nodes.size:].T
        if np.max(np.abs(err)) <= 1e-13 * lam_inf or m == _MAX_PANELS:
            break
        m *= 2
    tail = (_weibull_complement if family is Family.WEIBULL
            else functools.partial(_series_complement, b=_FRECHET_SERIES))
    return LambdaTable(
        family=family, gamma=g, lam_inf=lam_inf, z_lo=z_lo, z_hi=z_hi, slope=slope,
        u_lo=u_lo, h=h, coeffs=coeffs.T, tail=tail,
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
