"""Shared oracle utilities for the test suite.

Oracles: brute-force midpoint sums, scipy.integrate.quad with explicit kink
points, and mpmath high-precision quadrature. oracles.integrate also wraps
scipy.integrate.quad, so these oracles are independent of the production
route only: closed forms plus a fixed Gauss-Legendre rule, which share no
code with QUADPACK.
"""
import os
import subprocess
import sys

import numpy as np
from scipy import integrate as _si

import mincf
from mincf.families import Family, null_min_cf


def checkout_env(**extra) -> dict:
    """The environment, plus ``extra``, for a fresh interpreter that imports
    this checkout's mincf."""
    src = os.path.dirname(os.path.dirname(mincf.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports this checkout's mincf;
    return the last line it printed."""
    out = subprocess.run(
        [sys.executable, "-c", script], env=checkout_env(), capture_output=True, text=True,
        check=True,
    ).stdout
    return out.strip().splitlines()[-1]


def out_of_range_sample(family: Family) -> np.ndarray:
    """Tied data whose fitted phi (720 or 760) takes one (x / c)^phi out of double
    range: 719 ones and one e overflow it for Pareto and Frechet, and 759 ones and
    one 1/e underflow it to 0 for Weibull. Ties keep ``statistic_direct`` fast."""
    if family is Family.WEIBULL:
        return np.r_[np.ones(759), 1.0 / np.e]
    return np.r_[np.ones(719), np.e]


def midpoint_oracle(f, a, b, points=10_000_000, chunks=20):
    """Brute-force midpoint Riemann sum with a vectorized integrand."""
    edges = np.linspace(a, b, chunks + 1)
    per = points // chunks
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = lo + (np.arange(per) + 0.5) * (hi - lo) / per
        total += float(f(x).sum()) * (hi - lo) / per
    return total


def quad_pieces(f, points, upper=np.inf, gamma=None):
    """scipy quadrature split at the given interior points (> 0).

    For an integrand damped by exp(-gamma t) it also splits at 1/gamma,
    10/gamma and 100/gamma: at large gamma the mass sits near t ~ 1/gamma,
    which an unsplit quad over [0, inf) steps past.
    """
    if gamma is not None:
        points = set(points) | {1.0 / gamma, 10.0 / gamma, 100.0 / gamma}
    total, lo = 0.0, 0.0
    for p in sorted(points):
        if lo < p:
            total += _si.quad(f, lo, p, limit=300)[0]
            lo = p
    total += _si.quad(f, lo, upper, limit=300)[0]
    return total


def lambda_oracle(family: Family, gamma: float, z: float) -> float:
    """Defining integral of lam(z), split at the integrand kinks."""
    kinks = {1.0 / z}
    if family is Family.PARETO:
        kinks.add(1.0)

    def f(t):
        return min(1.0, t * z) * null_min_cf(family, t) * np.exp(-gamma * t)

    return quad_pieces(f, kinks, gamma=gamma)


def l_constant_oracle(family: Family, gamma: float) -> float:
    """Defining integral of the family constant L."""
    def f(t):
        v = null_min_cf(family, t)
        return v * v * np.exp(-gamma * t)

    kinks = {1.0} if family is Family.PARETO else set()
    return quad_pieces(f, kinks, gamma=gamma)


def kernel_oracle(gamma: float, z1: float, z2: float) -> float:
    def f(t):
        return min(1.0, t * z1) * min(1.0, t * z2) * np.exp(-gamma * t)

    return quad_pieces(f, {1.0 / z1, 1.0 / z2}, gamma=gamma)
