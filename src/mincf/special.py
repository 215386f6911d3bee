"""Special functions and one-dimensional adaptive quadrature.

Provides the numerical kernel the test-statistic formulas rest on: a
Gauss-Kronrod adaptive integrator for bounded and semi-infinite intervals
with support for logarithmic endpoint singularities at zero, and the
modified Bessel function K_nu and exponential integral E1 as thin,
argument-checked wrappers over ``scipy.special``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import DomainError, IntegrationError

#: Euler-Mascheroni constant to full double precision.
EULER_GAMMA = 0.5772156649015329


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


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# The 7 Gauss nodes sit at the odd indices of the sorted Kronrod nodes.
_XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WK = np.array([
    0.022935322010529224, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225018, 0.06309209262997855, 0.022935322010529224,
])
_WG = np.array([
    0.12948496616886969, 0.27970539148927664, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.27970539148927664,
    0.12948496616886969,
])


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel; returns (estimate, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _XK
    y = np.asarray(f(x), dtype=float)
    if y.ndim == 0:
        y = np.full_like(x, float(y))
    if not np.all(np.isfinite(y)):
        raise DomainError(f"integrand returned non-finite values on [{a!r}, {b!r}]")
    k = half * float(_WK @ y)
    g = half * float(_WG @ y[1::2])
    return k, abs(k - g)


# Graded seed edges for a panel that starts exactly at zero, where the
# integrands of interest may carry log t / log^2 t singularities.
_ORIGIN_EPS = 1e-4
_ORIGIN_EDGES = (1e-300, 1e-100, 1e-50, 1e-25, 1e-16, 1e-12, 1e-9, 1e-7, 1e-5, _ORIGIN_EPS)

# Seed edges for the u-variable of a mapped [1, inf) tail. Kept away from the
# extreme origin: t = 1/u beyond ~1e12 would overflow polynomial factors
# before the exponential weight flushes them to zero.
_TAIL_EDGES = (1e-9, 1e-6, 1e-4, 1e-2)


def _head_edges(a: float, b: float) -> list[float]:
    edges = [a]
    if a == 0.0 and b > _ORIGIN_EPS:
        edges += [e for e in _ORIGIN_EDGES if e < b]
    # Wide intervals get geometric seed points so localized mass cannot slip
    # between the nodes of a single huge panel.
    lo = max(edges[-1], 1.0)
    while b / lo > 10.0 and lo * 10.0 < b:
        lo *= 10.0
        edges.append(lo)
    edges.append(b)
    return edges


def _tail_segments(f: Callable, upper: float) -> list[tuple]:
    def mapped(u, _f=f):
        return _f(1.0 / u) / (u * u)

    edges = [0.0, *(e for e in _TAIL_EDGES if e < upper), upper]
    return _segments(mapped, edges)


def integrate(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> QuadratureResult:
    """Integrate ``f`` over ``[a, b]`` with ``b`` possibly ``inf``.

    ``f`` must accept a numpy array of abscissae and return the integrand
    values; it is never evaluated at the endpoints. Semi-infinite intervals
    are split at 1 and the unbounded piece is mapped onto (0, 1] through
    t = 1/u. Integrands with an integrable logarithmic singularity at zero
    are handled by a graded initial subdivision near the origin.

    Raises :class:`IntegrationError` carrying the best estimate when the
    subdivision budget is exhausted before the tolerance is met.
    """
    if not (np.isfinite(a) and a >= 0):
        raise DomainError("lower limit must be finite and nonnegative")
    if b <= a:
        raise DomainError("upper limit must exceed lower limit")

    if np.isinf(b):
        if a < 1.0:
            segments = _segments(f, _head_edges(a, 1.0)) + _tail_segments(f, 1.0)
        else:
            segments = _tail_segments(f, 1.0 / a)
    else:
        segments = _segments(f, _head_edges(a, b))

    return _adapt(segments, spec)


def _segments(f, edges):
    return [(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _adapt(segments, spec: QuadratureSpec) -> QuadratureResult:
    heap = []
    total = 0.0
    heap_err = 0.0
    frozen_err = 0.0
    counter = 0
    for f, lo, hi in segments:
        est, err = _gk15(f, lo, hi)
        total += est
        heap_err += err
        heapq.heappush(heap, (-err, counter, f, lo, hi, est))
        counter += 1

    subdivisions = len(segments)
    while heap_err + frozen_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if subdivisions >= spec.max_subdivisions or not heap:
            raise IntegrationError(
                f"quadrature did not converge within {subdivisions} "
                f"subdivisions (estimate {total!r}, error "
                f"{heap_err + frozen_err:.3e})",
                estimate=total,
                error=heap_err + frozen_err,
            )
        neg_err, _, f, lo, hi, est = heapq.heappop(heap)
        heap_err += neg_err
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at machine resolution: its error cannot be reduced.
            frozen_err -= neg_err
            continue
        left, left_err = _gk15(f, lo, mid)
        right, right_err = _gk15(f, mid, hi)
        total += left + right - est
        heap_err += left_err + right_err
        heapq.heappush(heap, (-left_err, counter, f, lo, mid, left))
        counter += 1
        heapq.heappush(heap, (-right_err, counter, f, mid, hi, right))
        counter += 1
        subdivisions += 1

    return QuadratureResult(
        value=total, error=heap_err + frozen_err, subdivisions=subdivisions
    )


# ---------------------------------------------------------------------------
# Special functions (scipy, behind the package's argument checks).
# ---------------------------------------------------------------------------

#: Largest argument before exp(-z) underflows double precision headroom.
_BESSEL_Z_MAX = 700.0


def bessel_k(order: float, argument: float) -> float:
    """Modified Bessel function K_nu(z) for nu >= 0, z > 0 (``scipy.special.kv``).

    Raises :class:`OverflowError` where the value leaves double precision
    instead of returning 0 or inf.
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
    return float(_sp.kv(nu, z))


def exp_integral_e1(z):
    """Exponential integral E1(z) = int_z^inf u^-1 e^-u du for z > 0.

    ``scipy.special.exp1``: the value underflows gradually above z ~ 708
    and is 0.0 from z ~ 740. Accepts scalars or arrays.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(arr > 0):
        raise DomainError("exp_integral_e1 requires z > 0")
    out = _sp.exp1(arr)
    return float(out) if arr.ndim == 0 else out
