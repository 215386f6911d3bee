"""Special functions of the statistic's closed forms.

The closed forms of the statistic need the exponential integral E1 and the
regularized lower incomplete gammas at orders 2 and 3. Each has a short numpy form
here, within 5e-15 relative of mpmath over the arguments the statistic
produces, so the production route imports no scipy: E1 by series, Chebyshev
table and continued fraction, and the incomplete gammas by their finite sums.

The modified Bessel function K_nu, by the trapezoid rule on its integral over
cosh, stays public (the paper prints Weibull's L and lam_inf through it, and
criterion 6 of the acceptance suite checks it), but no production route calls
it: those integrals of psi0 are taken by quadrature in :mod:`mincf.stat`.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: Euler-Mascheroni constant to full double precision.
EULER_GAMMA = 0.5772156649015329

#: 1/k! for k = 3..20: x^3 e^(-x) times this series is P(3, x) to double precision for x < 1.
_P3_SERIES = np.array([1.0 / math.factorial(k) for k in range(3, 21)])


def horner(x, c):
    """sum c_k x^k, c given from the highest order down: polyval's operations in its order."""
    c = iter(c)
    acc = next(c) + x * 0
    for ck in c:
        acc = ck + acc * x
    return acc


def clenshaw(x, c):
    """sum c_k T_k(x) over two or more coefficients given from the highest order down,
    chebval's operations in chebval's order; c may gather each term as it is reached."""
    c = iter(c)
    c1, c0 = next(c), next(c)
    x2 = 2.0 * x
    for ck in c:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


def _clamp(x):
    # e^(-x) is 0.0 from x ~ 745 on, so capping x there changes no value and keeps
    # x = inf from turning e^(-x) x^2 into 0 * inf.
    return np.minimum(np.asarray(x, dtype=float), 750.0)


def gammainc23(x):
    """Regularized lower incomplete gammas (P(2, x), P(3, x)) for x >= 0, elementwise.

    From x = 1 up, P = 1 - Q with Q(n+1, x) = e^(-x) sum_(k<=n) x^k/k! (DLMF 8.4.11).
    Below, where that difference cancels, P(3, x) = e^(-x) sum_(k>=3) x^k/k!
    (DLMF 8.7.1) and P(2, x) = P(3, x) + e^(-x) x^2/2, sums of positive terms.
    """
    x = _clamp(x)
    shape = x.shape
    x = x.ravel()
    e = np.exp(-x)
    p2 = 1.0 - e * (1.0 + x)
    p3 = 1.0 - e * (1.0 + x + 0.5 * x * x)
    small = x < 1.0
    xs, es = x[small], e[small]
    p3[small] = es * xs * xs * xs * horner(xs, _P3_SERIES[::-1])
    p2[small] = p3[small] + 0.5 * es * xs * xs
    return p2.reshape(shape), p3.reshape(shape)


#: Largest argument before exp(-z) underflows double precision headroom.
_BESSEL_Z_MAX = 700.0


def bessel_k(order: float, argument: float) -> float:
    """Modified Bessel function K_nu(z) for nu >= 0, z > 0.

    The trapezoid rule on K_nu(z) = e^(-z) int_0^inf e^(-z (cosh t - 1)) cosh(nu t) dt
    (DLMF 10.32.9), which converges exponentially in the step for this
    doubly-exponentially decaying integrand (Trefethen & Weideman, SIAM Rev.
    2014). The step is 0.05, finer where z or nu makes the peak narrower than
    0.1, and the nodes stop where the terms fall below e^-50 of the first;
    within 1e-15 relative of mpmath for nu <= 3 and z up to 700. Raises
    :class:`OverflowError` where the value leaves double precision instead of
    returning 0 or inf.
    """
    nu = float(order)
    z = float(argument)
    if not nu >= 0:
        raise DomainError("order must be nonnegative")
    if not z > 0:
        raise DomainError("argument must be positive")
    if z > _BESSEL_Z_MAX:
        raise OverflowError(f"K_nu underflows for z={z} > {_BESSEL_Z_MAX}")
    if nu * math.log(2.0 / z) > 690.0:
        raise OverflowError(f"K_{nu}({z}) overflows double precision")
    h = min(0.05, 0.5 / (z * z + nu * nu) ** 0.25)
    # The exponent nu t - z (cosh t - 1) falls to -50 where t = acosh(1 + (50 + nu t)/z):
    # a contraction, climbing to its root from below.
    top = 0.0
    for _ in range(4):
        top = math.acosh(1.0 + (50.0 + nu * top) / z)
    t = h * np.arange(int(top / h) + 2)
    expo = -2.0 * z * np.sinh(0.5 * t) ** 2
    terms = np.exp(expo + nu * t) + np.exp(expo - nu * t)
    terms[0] *= 0.5
    return 0.5 * h * math.exp(-z) * math.fsum(terms)


#: Taylor coefficients of Ein(x) = E1(x) + EULER_GAMMA + log x, (-1)^(k+1)/(k k!) to
#: k = 26 (A&S 5.1.11): the series for x <= 1.
_E1_SERIES = np.array([0.0] + [(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 27)])
#: Depth of the continued fraction used above x = 4.
_E1_CF_DEPTH = 24

#: Chebyshev coefficients of e^x E1(x) in t = (2x - 5)/3 on (1, 4], degree 28.
#: Regenerated by scripts/e1_chebyshev.py; within 3.5e-15 relative of mpmath with the e^(-x).
_E1_CHEB = (
    0.34855668833984915,
    -0.18026494209196262,
    0.04857774391342619,
    -0.013509296231469469,
    0.0038494967405386274,
    -0.0011181348147536704,
    0.0003297919390336042,
    -9.849136040156196e-05,
    2.9718313907868556e-05,
    -9.044601349833033e-06,
    2.772827638422657e-06,
    -8.554023729876961e-07,
    2.6531772363750134e-07,
    -8.268215609726279e-08,
    2.5873830959904825e-08,
    -8.126579005436319e-09,
    2.5608260652833527e-09,
    -8.093400637054904e-10,
    2.5646917559425833e-10,
    -8.146750014895348e-11,
    2.5934920338559232e-11,
    -8.272845849667909e-12,
    2.6437633737282017e-12,
    -8.4629957347905e-13,
    2.7133109806247067e-13,
    -8.710882504256333e-14,
    2.797781331633401e-14,
    -8.918659349525467e-15,
    2.6031104124532333e-15,
)


def exp_integral_e1(z):
    """Exponential integral E1(z) = int_z^inf u^-1 e^-u du for z > 0.

    Series for z <= 1, the Chebyshev table of e^z E1(z) on (1, 4], and above 4
    the continued fraction E1(z) = e^(-z)/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...)))
    (A&S 5.1.22) evaluated backward from depth 24: within 5e-15 relative of
    mpmath up to z = 700. The value underflows gradually above z ~ 708 and is
    0.0 from z ~ 740. Accepts scalars or arrays.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(arr > 0):
        raise DomainError("exp_integral_e1 requires z > 0")
    x = arr.ravel()
    out = np.empty_like(x)
    low = x <= 1.0
    high = x > 4.0
    mid = ~(low | high)
    xl = x[low]
    out[low] = horner(xl, _E1_SERIES[::-1]) - EULER_GAMMA - np.log(xl)
    xm = x[mid]
    out[mid] = np.exp(-xm) * clenshaw((2.0 * xm - 5.0) / 3.0, _E1_CHEB[::-1])
    xh = x[high]
    f = xh + (2 * _E1_CF_DEPTH + 1)
    for k in range(_E1_CF_DEPTH, 0, -1):
        f = (xh + (2 * k - 1)) - (k * k) / f
    out[high] = np.exp(-xh) / f
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
