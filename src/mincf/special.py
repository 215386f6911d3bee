"""Special functions and the reference quadrature.

The modified Bessel function K_nu and the exponential integral E1 are thin,
argument-checked wrappers over ``scipy.special``. :func:`integrate` wraps
QUADPACK (``scipy.integrate.quad``) for bounded and semi-infinite intervals
behind the package's tolerance spec and errors; only the reference routes
the tests compare against call it.
"""
from __future__ import annotations

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


def integrate(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> QuadratureResult:
    """Integrate ``f`` over ``[a, b]`` with ``b`` possibly ``inf`` (``scipy.integrate.quad``).

    ``f`` takes a numpy array of abscissae; QUADPACK calls it on 1-element
    arrays and never at the endpoints. Finite intervals reaching more than a
    decade past max(a, 1) are split at the powers of ten inside them, so
    localized mass cannot slip between the nodes of one wide panel. No
    production route calls this: it serves the reference routes the tests
    compare against.

    Raises :class:`IntegrationError` carrying the best estimate when the
    subdivision budget is exhausted before the tolerance is met.
    """
    if not (np.isfinite(a) and a >= 0):
        raise DomainError("lower limit must be finite and nonnegative")
    if b <= a:
        raise DomainError("upper limit must exceed lower limit")
    # scipy.integrate loads scipy.optimize (about 0.3 s), so it waits for the first call.
    from scipy.integrate import quad

    def scalar(t):
        v = float(np.ravel(f(np.array([t])))[0])
        if not math.isfinite(v):
            raise DomainError(f"integrand returned a non-finite value at {t!r}")
        return v

    points = None
    if np.isfinite(b) and b > 10.0 * max(a, 1.0):
        points = 10.0 ** np.arange(math.ceil(math.log10(max(a, 1.0))), math.ceil(math.log10(b)))
        points = points[points > a]
    value, error, info, *warning = quad(
        scalar, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=spec.max_subdivisions,
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
