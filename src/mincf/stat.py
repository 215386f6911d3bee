"""The weighted-L2 min-CF test statistic and its building blocks.

The statistic for a standardized sample Y_1..Y_n and weight exp(-gamma*t) is

    T = (1/n) sum_jk K(Y_j, Y_k) + n*L - 2 sum_j lam(Y_j)

with K(z1,z2) = int min(1,t z1) min(1,t z2) e^(-gamma t) dt (family-free,
closed form, double sum in O(n log n) by :func:`_kernel_sum`), L = int
psi0(t)^2 e^(-gamma t) dt and lam(z) = int min(1,t z) psi0(t) e^(-gamma t) dt.

lam has one production route for every family, the cached vectorized
:func:`lambda_table`, serving the observed :func:`statistic` and the engine's
:func:`batch_statistics`. Below z_lo ~ gamma/40 the exact linear asymptote
applies. From z_lo up lam = lam_inf - C(z), with the bounded complement
C(z) = int_0^(1/z) (1 - t z) psi0(t) e^(-gamma t) dt, so lam is as exact as
lam_inf. C is held by Chebyshev panels on a uniform grid in log z, with z = 1
(Pareto's kink) on a panel edge, fitted once per gamma by a fixed DCT-I matrix
and evaluated by one Clenshaw recurrence over all values, on as many panels as
their Chebyshev tails need. The panels run up to z_hi, where C rounds away
against lam_inf, and from there lam is lam_inf.

The build's one fixed Gauss-Legendre pass (:func:`_gl_rule`, by Newton's
method) over positive integrands on :func:`_geometric_edges` gives C's running
sums and every per-gamma integral of psi0: lam_inf, the slope lam(z)/z at
z -> 0 and L (:func:`l_constant`).

:func:`lambda_table`, :func:`l_constant` and :func:`batch_statistics` take gamma in
[GAMMA_MIN, GAMMA_MAX] = [0.001, 1000] for every family, the range the tests check
lam and L against mpmath; the tables raise DomainError outside it. :func:`statistic`
takes gamma in its family's range (:func:`check_gamma`): up to WEIBULL_GAMMA_MAX = 30
for Weibull, whose T is rounding noise from about 300, and up to 1000 for the others.

The incomplete gammas and the Clenshaw recurrence come from :mod:`mincf.special`,
so the production route loads no scipy or numpy.polynomial and makes no LAPACK
or BLAS call, each of which adds to every CLI process's peak RSS. The
quadrature oracles the tests hold these terms to are part of the test suite
(``tests/oracles.py``), not of the package.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GAMMA_MAX, GAMMA_MIN, WEIBULL_GAMMA_MAX, ConfigError, DomainError
from .families import Family, null_min_cf
from .special import clenshaw, gammainc23


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
    """gamma as a float if lam and L are checked there, for every family."""
    g = float(gamma)
    if not GAMMA_MIN <= g <= GAMMA_MAX:
        raise DomainError(f"gamma must lie in [{GAMMA_MIN:g}, {GAMMA_MAX:g}], got {gamma!r}")
    return g


def check_gamma(family: Family, gamma) -> float:
    """gamma as a float if the statistic of ``family`` is checked there, else a
    ConfigError naming the family's range; bools and strings are not gammas."""
    hi = WEIBULL_GAMMA_MAX if family is Family.WEIBULL else GAMMA_MAX
    if (isinstance(gamma, bool) or not isinstance(gamma, numbers.Real)
            or not GAMMA_MIN <= gamma <= hi):
        raise ConfigError(
            f"gamma for {family.value} must be a number in [{GAMMA_MIN:g}, {hi:g}], got {gamma!r}")
    return float(gamma)


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

    The split cancels where both values of a pair are << g (K ~ 2ls/g^3, each part
    ~ s/g^2). MLE-standardized rows lie in [1e-150, 1e150] with max(Y) >= 1 (Weibull:
    mean Y = 1; Pareto: min Y = 1; Frechet: mean 1/Y = 1) and match the pair grid to
    ~1e-14 relative; a raw row of values near 1e-6 loses 1e-11 (g = 0.2) to 1e-9 (g = 30).
    """
    y = np.sort(y, axis=-1)
    u = g / y
    p2, p3 = gammainc23(u)
    f = (2.0 * y * p3 / g - p2) / g ** 2
    small = -y * np.expm1(-u) / g ** 2
    weight = np.arange(2 * y.shape[-1] - 1, 0, -2)  # 2(n-1-j) + 1
    return (f * (2.0 * np.cumsum(y, axis=-1) - y) + small * weight).sum(axis=-1)


# ---------------------------------------------------------------------------
# lam(z) and L: the vectorized table route.
# ---------------------------------------------------------------------------

_CHEB_DEG = 14
#: Fit nodes cos(j pi/14) and the DCT-I taking values there to Chebyshev coefficients
#: (Trefethen 2013, ch. 3): c_k = (2/14) sum_j f_j cos(j k pi/14), end terms halved in j and k.
_J = np.arange(_CHEB_DEG + 1)
_CHEB_NODES = np.cos(_J * np.pi / _CHEB_DEG)
_HALF_ENDS = np.where(_J % _CHEB_DEG, 1.0, 0.5)
_DCT = (2.0 / _CHEB_DEG) * _HALF_ENDS[:, None] * _HALF_ENDS * np.cos(
    np.outer(_J, _J) * np.pi / _CHEB_DEG)
_MAX_PANELS = 256  # the last level m, so the loop ends; gamma in range stops by m = 32


@dataclass(frozen=True)
class LambdaTable:
    """Vectorized evaluator of lam(z) for one (family, gamma), with L.

    Below z_lo the exact linear asymptote applies. On [z_lo, z_hi),
    lam = lam_inf - C(z), with Chebyshev fits of C(e^u) on len(coeffs) panels of
    width h covering [u_lo, u_lo + h len(coeffs)] = [log z_lo, log z_hi]. From
    z_hi up C rounds away against lam_inf, and lam is lam_inf.
    """

    lam_inf: float
    l_const: float
    z_lo: float
    z_hi: float
    slope: float
    u_lo: float
    h: float
    coeffs: np.ndarray

    def __call__(self, z):
        """lam at z, which must be positive and finite (as MLE-standardized values are) and
        is not checked: a negative z gives a meaningless number, and a NaN raises IndexError.
        :func:`statistic` is the checked entry point."""
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        lo = z < self.z_lo
        hi = z >= self.z_hi
        mid = ~(lo | hi)
        out[lo] = self.slope * z[lo]
        out[hi] = self.lam_inf
        # Truncation, not floor: a log z rounded just below u_lo stays in panel 0.
        x = (np.log(z[mid]) - self.u_lo) / self.h
        idx = np.minimum(x.astype(np.intp), len(self.coeffs) - 1)
        x = 2.0 * (x - idx) - 1.0
        # One recurrence for all panels, each value gathering its panel's coefficients.
        out[mid] = self.lam_inf - clenshaw(x, (c.take(idx) for c in self.coeffs.T[::-1]))
        return float(out[0]) if scalar else out


@functools.cache
def lambda_table(family: Family, gamma: float) -> LambdaTable:
    """Build (and cache) the lam evaluator and L for one (family, gamma).

    One Gauss-Legendre pass over :func:`_geometric_edges` integrates psi0 e^(-g t),
    t psi0 e^(-g t) and psi0^2 e^(-g t) piece by piece. The running sums of the
    first two give C below, and their totals lam_inf and the slope; the third's
    total is L. Every integrand is positive, so nothing cancels.

    C is fitted on levels of width h = (log max(40, gamma) - log(gamma/40))/m,
    m = 8, 16, 32, ..., by the _DCT matrix, until every panel's last two Chebyshev
    coefficients are within 1e-14 * lam_inf, the series' own tail (as Chebfun reads
    convergence; Aurentz & Trefethen 2017): 34 to 78 panels for gamma in
    [0.001, 1000]. The tails fall 1000 to 3000x a doubling to rounding, near
    6.5e-16 * lam_inf, so any bound from 1e-15 to 1e-13 gives the same errors. The
    panels are the whole multiples of h from below gamma/40 up to z_hi, the first
    edge where lam_inf - C rounds to lam_inf, so z = 1 is a panel edge: the
    second derivative of Pareto's psi0 jumps at t = 1, and the fourth of lam at
    z = 1. C rather than lam is fitted, so the fit rounds at the size of C, which
    on z >= 1, where standardized rows lie, is far below lam_inf for small gamma.
    """
    g = _check_gamma(gamma)
    u_lo, u_hi = math.log(g / 40.0), math.log(max(40.0, g))

    def weighted(t):
        return null_min_cf(family, t) * np.exp(-g * t)

    def moments(t):
        psi0 = null_min_cf(family, t)
        w = psi0 * np.exp(-g * t)
        return np.stack([w, t * w, psi0 * w])

    # C(z) = int_0^a (1 - z t) psi0(t) e^(-g t) dt at a = 1/z on the pieces: the
    # whole pieces below a from the running sums, the rest [edge_j, a] by one piece
    # more. Pareto's kink t = 1 and the log t singularity at 0 are piece edges.
    edges = _geometric_edges(g)  # past 60/g; a beyond it adds a piece of mass below e^(-60)
    pieces = _gauss_legendre(moments, np.stack([edges[:-1], edges[1:]], axis=-1))
    cum0, cum1, cum2 = np.cumsum(np.pad(pieces, ((0, 0), (1, 0))), axis=-1)
    # lam_inf = lim lam(z) as z -> inf, slope = lim lam(z)/z as z -> 0.
    lam_inf, slope, l_const = float(cum0[-1]), float(cum1[-1]), float(cum2[-1])

    def f(u):
        z = np.exp(u)
        a = 1.0 / z
        j = np.searchsorted(edges, a, side="right") - 1
        rest = _gauss_legendre(lambda t: (1.0 - z[..., None, None] * t) * weighted(t),
                               np.stack([edges[j], a], axis=-1))
        return cum0[j] - z * cum1[j] + rest

    m = 8  # on a fine gamma grid no table meets the tolerance with fewer
    while True:
        h = (u_hi - u_lo) / m
        k_lo = math.floor(u_lo / h)
        # psi0 rises and is at most 1, so C(z) <= psi0(1/z)/z <= 1/z. The top is the
        # first edge where lam_inf less that bound rounds to lam_inf; any x up to
        # 2^-54 lam_inf rounds away, so the edges tried end past z = 2^54/lam_inf.
        ks = np.arange(k_lo + 1, math.ceil(math.log(2.0 ** 54 / lam_inf) / h) + 1)
        top = np.exp(ks * h)
        k_hi = int(ks[np.argmax(lam_inf - null_min_cf(family, 1.0 / top) / top == lam_inf)])
        blocks = []
        for k in range(k_lo, k_hi, 16):  # 16 panels a block bound the temporaries
            # Panel k is [k h, (k + 1) h]; its end nodes x = -1, 1 fall on its edges exactly.
            vals = f(h * (np.arange(k, min(k + 16, k_hi)) + 0.5 + 0.5 * _CHEB_NODES[:, None]))
            # A broadcast product, not a matrix product: BLAS's first call costs peak RSS.
            blocks.append((_DCT[:, :, None] * vals).sum(axis=1))
            if np.max(np.abs(blocks[-1][-2:])) > 1e-14 * lam_inf and m < _MAX_PANELS:
                break  # a tail too long: on to the next level
        else:
            break
        m *= 2
    return LambdaTable(
        lam_inf=lam_inf, l_const=l_const, z_lo=math.exp(k_lo * h), z_hi=math.exp(k_hi * h),
        slope=slope, u_lo=k_lo * h, h=h, coeffs=np.concatenate(blocks, axis=1).T,
    )


@functools.cache
def l_constant(family: Family, gamma: float) -> float:
    """L = int_0^inf psi0(t)^2 e^(-gamma t) dt for the standard member.

    The third integral of :func:`lambda_table`'s Gauss-Legendre pass, within
    6e-16 relative of mpmath for gamma from 0.001 to 1000.
    """
    return lambda_table(family, gamma).l_const


# ---------------------------------------------------------------------------
# Statistic assembly.
# ---------------------------------------------------------------------------

def _terms(family: Family, g: float, y: np.ndarray):
    """(sum K / n, n L, 2 sum lam) for every row of the (B, n) matrix y.

    The double sum from :func:`_kernel_sum`, lam and L from the one
    :func:`lambda_table`, in O(B n log n) time and O(B n) memory.
    """
    b, n = y.shape
    table = lambda_table(family, g)
    lam = table(y.reshape(-1)).reshape(b, n).sum(axis=1)
    return _kernel_sum(g, y) / n, n * table.l_const, 2.0 * lam


def statistic(family: Family, y, gamma: float) -> StatisticBreakdown:
    """Assemble the test statistic from the 1-D array ``y`` of standardized values.

    The one-row case of :func:`batch_statistics`, with the input checked and
    the three terms kept.
    """
    g = check_gamma(family, gamma)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DomainError(f"statistic needs a 1-D sample, got shape {y.shape}")
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
    """Statistic values for every row of a (B, n) matrix of MLE-standardized values,
    which lie in [1e-150, 1e150]. The engine's hot path checks nothing but gamma, which
    the table build checks on a cache miss: a negative value gives a meaningless
    number, and a NaN raises IndexError. :func:`statistic` is the checked entry point."""
    double_sum, n_times_l, lambda_sum = _terms(family, gamma, np.asarray(y, float))
    return double_sum + n_times_l - lambda_sum
