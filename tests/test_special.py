import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincf import special
from mincf.errors import DomainError
from mincf.special import EULER_GAMMA, bessel_k, exp_integral_e1, gammainc23

from helpers import midpoint_oracle
from oracles import IntegrationError, QuadratureSpec, integrate


def test_euler_gamma_bracket():
    assert 0.5772156 < EULER_GAMMA < 0.5772157


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-10
        assert spec.abs_tol == 1e-14
        assert spec.max_subdivisions == 2000

    @pytest.mark.parametrize("kwargs", [
        dict(rel_tol=0.0), dict(abs_tol=-1e-3), dict(max_subdivisions=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


class TestIntegrate:
    def test_exponential_tail(self):
        r = integrate(lambda t: np.exp(-t), 0.0, np.inf)
        assert abs(r.value - 1.0) < 1e-12

    def test_log_squared_singularity_vs_midpoint(self):
        f = lambda t: t * t * np.log(t) ** 2 * np.exp(-t)
        ref = midpoint_oracle(f, 0.0, 1.0, points=10_000_000)
        r = integrate(f, 0.0, 1.0)
        assert abs(r.value - ref) < 1e-8

    def test_te1_tail_vs_midpoint(self):
        # Tail beyond 60 is below exp(-60) ~ 1e-26, far under the tolerance.
        f = lambda t: t * exp_integral_e1(t) * np.exp(-t)
        ref = midpoint_oracle(f, 1.0, 60.0, points=3_000_000)
        r = integrate(f, 1.0, np.inf)
        assert abs(r.value - ref) < 1e-8

    def test_polynomial_exactness(self):
        for k in range(14):
            r = integrate(lambda x, k=k: x ** k, 0.0, 1.0)
            assert abs(r.value - 1.0 / (k + 1)) < 1e-13

    def test_linearity(self):
        rng = np.random.default_rng(2024)
        spec = QuadratureSpec()
        for _ in range(20):
            c1, c2, c3 = rng.normal(size=3)
            alpha, beta = rng.uniform(-3, 3, size=2)
            f = lambda t: (c1 + c2 * t + c3 * t * t) * np.exp(-t)
            g = lambda t: np.exp(-2.0 * t) * (1.0 + t)
            combo = lambda t: alpha * f(t) + beta * g(t)
            lhs = integrate(combo, 0.0, np.inf, spec)
            rhs_f = integrate(f, 0.0, np.inf, spec)
            rhs_g = integrate(g, 0.0, np.inf, spec)
            rhs = alpha * rhs_f.value + beta * rhs_g.value
            bound = abs(alpha) * rhs_f.error + abs(beta) * rhs_g.error + lhs.error + 1e-12
            assert abs(lhs.value - rhs) <= bound

    def test_pure_and_bit_stable(self):
        f = lambda t: np.sin(t) * np.exp(-t)
        a = integrate(f, 0.0, np.inf)
        b = integrate(f, 0.0, np.inf)
        assert a.value == b.value and a.error == b.error

    def test_convergence_error_carries_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=12)
        with pytest.raises(IntegrationError) as err:
            integrate(lambda t: np.log(t) ** 2, 0.0, 1.0, spec)
        assert math.isfinite(err.value.estimate)
        assert err.value.error > 0

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(np.exp, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(np.exp, -1.0, 1.0)

    def test_non_finite_integrand(self):
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            integrate(lambda t: np.log(t - 0.5), 0.0, 1.0)


class TestBesselK:
    def test_half_integer_closed_form(self):
        expected = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
        assert abs(bessel_k(0.5, 2.0) - expected) <= 1e-12 * expected

    def test_order_three_vs_defining_integral(self):
        # High-precision quadrature of (1/2)(z/2)^3 int e^(-t - z^2/4t) t^-4 dt.
        mp.mp.dps = 30
        z = mp.mpf(2)
        ref = float(
            0.5 * (z / 2) ** 3
            * mp.quad(lambda t: mp.e ** (-t - z * z / (4 * t)) * t ** -4, [0, 1, mp.inf])
        )
        assert abs(bessel_k(3.0, 2.0) - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("z", [0.5, 1.0, 4.0])
    def test_recurrence_examples(self, z):
        lhs = bessel_k(3.0, z)
        rhs = bessel_k(1.0, z) + (4.0 / z) * bessel_k(2.0, z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_recurrence_sweep(self):
        for z in np.geomspace(0.1, 40.0, 25):
            lhs = bessel_k(3.0, z)
            rhs = bessel_k(1.0, z) + (4.0 / z) * bessel_k(2.0, z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_k(3.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(3.0, -1.0)
        with pytest.raises(DomainError):
            bessel_k(-1.0, 1.0)
        with pytest.raises(OverflowError):
            bessel_k(3.0, 750.0)

    def test_purity(self):
        assert bessel_k(2.0, 1.5) == bessel_k(2.0, 1.5)

    @pytest.mark.parametrize("order", [2.0, 3.0])
    def test_against_mpmath(self, order):
        # The orders and range the Weibull L, lam_inf and slope reach (z = sqrt(8 g)
        # is 90 at g ~ 1000), then up to the underflow guard, where the step shrinks.
        for z in [*np.geomspace(1e-3, 90.0, 60), *np.geomspace(90.0, 700.0, 8)]:
            ref = float(mp.besselk(order, z))
            assert abs(bessel_k(order, z) - ref) <= 2e-15 * ref, z

    def test_overflow_guard_and_nan(self):
        with pytest.raises(OverflowError):
            bessel_k(300.0, 1e-3)  # 300 log(2000) > 690
        with pytest.raises(DomainError):
            bessel_k(2.0, float("nan"))
        with pytest.raises(DomainError):
            bessel_k(float("nan"), 1.0)


class TestExpIntegral:
    def test_at_one_vs_quadrature(self):
        mp.mp.dps = 30
        ref = float(mp.quad(lambda u: mp.e ** (-u) / u, [1, mp.inf]))
        assert abs(exp_integral_e1(1.0) - ref) <= 1e-12 * ref

    def test_small_argument_limit(self):
        z = 1e-8
        assert abs(exp_integral_e1(z) + math.log(z) + EULER_GAMMA) < 1e-7

    def test_monotone_decreasing(self):
        z = np.geomspace(1e-10, 600.0, 200)
        v = exp_integral_e1(z)
        assert np.all(np.diff(v) < 0)
        assert np.all(v > 0)

    def test_bracketing_bounds(self):
        # e^-z/(z+1) < E1(z) < e^-z/z at 1000 log-spaced points.
        z = np.geomspace(1e-6, 690.0, 1000)
        v = exp_integral_e1(z)
        with np.errstate(under="ignore"):
            low = np.exp(-z) / (z + 1.0)
            high = np.exp(-z) / z
        assert np.all(v > low)
        assert np.all(v < high)

    def test_underflow_and_domain(self):
        assert exp_integral_e1(800.0) == 0.0
        with pytest.raises(DomainError):
            exp_integral_e1(0.0)
        with pytest.raises(DomainError):
            exp_integral_e1(np.array([1.0, -2.0]))

    def test_against_mpmath_grid(self):
        # Every branch: the series to 1, the Chebyshev table on (1, 4] and the
        # continued fraction above, with the floats either side of each branch point.
        mp.mp.dps = 30
        edges = [np.nextafter(b, d) for b in (1.0, 4.0) for d in (0.0, 5.0)]
        z = np.concatenate((np.geomspace(1e-10, 700.0, 400), [1.0, 4.0], edges))
        ref = np.array([float(mp.e1(v)) for v in z])
        assert np.max(np.abs(exp_integral_e1(z) / ref - 1.0)) <= 5e-15

    def test_zero_from_740(self):
        assert np.all(exp_integral_e1(np.array([740.0, 745.0, 1e4, np.inf])) == 0.0)
        assert exp_integral_e1(740.0) == 0.0

    def test_chebyshev_table_reproduces(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "e1_chebyshev.py"
        out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             check=True).stdout
        table = {}
        exec(out, table)
        assert table["_E1_CHEB"] == special._E1_CHEB

    def test_vectorized_matches_scalar(self):
        z = np.array([1e-10, 0.3, 1.0, 7.0, 300.0])
        vec = exp_integral_e1(z)
        scal = np.array([exp_integral_e1(float(v)) for v in z])
        assert np.array_equal(vec, scal)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-10, max_value=650.0))
    def test_against_mpmath(self, z):
        ref = float(mp.e1(z))
        assert abs(exp_integral_e1(z) - ref) <= 1e-12 * ref + 1e-300


class TestIncompleteGammas:
    """Regularized P at orders 2 and 3, on both sides of the series switch at 1."""

    X = np.concatenate((np.geomspace(1e-8, 60.0, 300),
                        [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]))

    @pytest.mark.parametrize("order", [2, 3])
    def test_against_mpmath(self, order):
        mp.mp.dps = 30
        p_ref = np.array([float(mp.gammainc(order, 0, v, regularized=True)) for v in self.X])
        p = gammainc23(self.X)[order - 2]
        assert np.max(np.abs(p / p_ref - 1.0)) <= 5e-15

    def test_limits_and_shape(self):
        p2, p3 = gammainc23(np.array([[0.0, np.inf]]))
        assert p2.shape == (1, 2)
        assert p2.tolist() == p3.tolist() == [[0.0, 1.0]]
        assert gammainc23(0.5)[0].shape == ()


class TestPolynomialHelpers:
    """horner and clenshaw repeat numpy's polyval and chebval operation for operation."""

    # Every branch of both functions, with the floats either side of 1 and 4.
    X = np.concatenate((np.geomspace(1e-10, 700.0, 3001), np.linspace(0.9, 4.1, 1001),
                        [np.nextafter(b, d) for b in (1.0, 4.0) for d in (0.0, 5.0)]))

    def test_functions_are_bit_identical_to_the_numpy_route(self, monkeypatch):
        from numpy.polynomial.chebyshev import chebval
        from numpy.polynomial.polynomial import polyval
        got = (*gammainc23(self.X), exp_integral_e1(self.X))
        # The helpers take coefficients from the highest order down.
        monkeypatch.setattr(special, "horner", lambda x, c: polyval(x, np.array(c)[::-1]))
        monkeypatch.setattr(special, "clenshaw", lambda x, c: chebval(x, np.array(c)[::-1]))
        ref = (*gammainc23(self.X), exp_integral_e1(self.X))
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
