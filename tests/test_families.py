import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as si
from scipy import stats

from mincf.errors import ConfigError, DomainError
from mincf.families import (
    AlternativeSpec,
    Family,
    ParamPair,
    STANDARD_PARAMS,
    null_min_cf,
    null_quantile,
    parse_alternative,
    sample_alternative,
    sample_null,
)

from helpers import quad_pieces
from oracles import (
    alternative_cdf,
    alternative_density,
    alternative_support,
    null_cdf,
    null_density,
)

ALL_FAMILIES = list(Family)


class TestNullMinCF:
    def test_weibull_at_one(self):
        # Oracle: E min(1, tX) for X standard exponential.
        t = 1.0
        ref = quad_pieces(
            lambda x: min(1.0, t * x) * math.exp(-x), {1.0 / t}
        )
        assert abs(null_min_cf(Family.WEIBULL, t) - ref) < 1e-10
        assert abs(null_min_cf(Family.WEIBULL, 1.0) - (1.0 - math.exp(-1.0))) < 1e-14

    def test_pareto_at_half(self):
        t = 0.5
        ref = si.quad(lambda x: t * x * x ** -2.0, 1.0, 2.0)[0] + 0.5
        assert abs(null_min_cf(Family.PARETO, t) - ref) < 1e-12
        assert abs(null_min_cf(Family.PARETO, t) - 0.5 * (1.0 + math.log(2.0))) < 1e-14

    def test_pareto_saturates(self):
        assert null_min_cf(Family.PARETO, 2.0) == 1.0
        assert null_min_cf(Family.PARETO, 1.0) == 1.0

    def test_frechet_vs_quadrature(self):
        for t in (0.2, 1.0, 3.0, 1e-12, 1e-200):
            ref = quad_pieces(
                lambda x: min(1.0, t * x) * null_density(Family.FRECHET, STANDARD_PARAMS, x),
                {1.0 / t},
            )
            assert abs(null_min_cf(Family.FRECHET, t) - ref) < 1e-9
            # The absolute bound says little at tiny t, so check t*E1(t) there too.
            with mp.workdps(30):
                exact = float(-mp.expm1(-t) + t * mp.e1(t))
            assert abs(null_min_cf(Family.FRECHET, t) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_boundaries(self, family):
        assert null_min_cf(family, 1e-9) < 1e-6
        assert abs(null_min_cf(family, 1e9) - 1.0) < 1e-6

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_monotone_concave_bounded(self, family):
        t = np.geomspace(1e-4, 60.0, 1000)
        v = null_min_cf(family, t)
        assert np.all((v >= 0.0) & (v <= 1.0))
        assert np.all(np.diff(v) >= -1e-15)
        # Concavity on a uniform grid: second differences nonpositive.
        tu = np.linspace(1e-3, 5.0, 1000)
        vu = null_min_cf(family, tu)
        assert np.all(np.diff(vu, 2) <= 1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            null_min_cf(Family.WEIBULL, 0.0)
        with pytest.raises(DomainError):
            null_min_cf(Family.PARETO, -1.0)


class TestNullDensity:
    def test_weibull_standard_is_exponential(self):
        x = np.array([0.1, 1.0, 3.0])
        assert np.allclose(null_density(Family.WEIBULL, STANDARD_PARAMS, x), np.exp(-x),
                           rtol=1e-14)

    def test_pareto_value_and_numeric_derivative(self):
        p = ParamPair(1.0, 2.0)
        assert abs(null_density(Family.PARETO, p, 2.0) - 0.25) < 1e-14
        h = 1e-6
        num = (null_cdf(Family.PARETO, p, 2.0 + h) - null_cdf(Family.PARETO, p, 2.0 - h)) / (2 * h)
        assert abs(null_density(Family.PARETO, p, 2.0) - num) < 1e-8

    def test_frechet_value_and_numeric_derivative(self):
        p = STANDARD_PARAMS
        assert abs(null_density(Family.FRECHET, p, 1.0) - math.exp(-1.0)) < 1e-14
        h = 1e-6
        num = (null_cdf(Family.FRECHET, p, 1.0 + h) - null_cdf(Family.FRECHET, p, 1.0 - h)) / (2 * h)
        assert abs(null_density(Family.FRECHET, p, 1.0) - num) < 1e-8

    def test_outside_support_is_zero(self):
        assert null_density(Family.PARETO, ParamPair(2.0, 1.0), 1.5) == 0.0
        assert null_density(Family.WEIBULL, STANDARD_PARAMS, -1.0) == 0.0
        assert null_density(Family.FRECHET, STANDARD_PARAMS, 0.0) == 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("params", [ParamPair(1, 1), ParamPair(2.5, 0.7), ParamPair(0.5, 3.0)])
    def test_normalization(self, family, params):
        lo = params.c if family is Family.PARETO else 0.0
        total, _ = si.quad(lambda x: null_density(family, params, x), lo, np.inf, limit=500)
        assert abs(total - 1.0) < 1e-8


class TestSampling:
    def test_inverse_transform_formulas(self):
        u = np.array([0.05, 0.4, 0.9])
        c, phi = 1.7, 0.8
        np.testing.assert_allclose(
            null_quantile(Family.WEIBULL, ParamPair(c, phi), u),
            c * (-np.log(1 - u)) ** (1 / phi), rtol=1e-14)
        np.testing.assert_allclose(
            null_quantile(Family.PARETO, ParamPair(c, phi), u),
            c * (1 - u) ** (-1 / phi), rtol=1e-14)
        np.testing.assert_allclose(
            null_quantile(Family.FRECHET, ParamPair(c, phi), u),
            c * (-np.log(u)) ** (-1 / phi), rtol=1e-14)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_ks_against_cdf(self, family):
        params = ParamPair(1.7, 0.8)
        x = sample_null(family, params, 100_000, np.random.default_rng(31))
        ks = stats.kstest(x, lambda q: null_cdf(family, params, q)).statistic
        assert ks < 0.006

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_closure_under_scale_power(self, family):
        # aX^(1/b) for X ~ F(c, phi) has law F(a c^(1/b), b phi).
        a, b = 2.3, 1.7
        c, phi = 1.2, 0.9
        rng = np.random.default_rng(7)
        x = sample_null(family, ParamPair(c, phi), 100_000, rng)
        direct = sample_null(family, ParamPair(a * c ** (1 / b), b * phi), 100_000, rng)
        ks = stats.ks_2samp(a * x ** (1 / b), direct).statistic
        assert ks < 0.01

    def test_pareto_never_below_scale(self):
        x = sample_null(Family.PARETO, ParamPair(2.0, 1.5), 100_000, np.random.default_rng(3))
        assert np.all(x >= 2.0)

    def test_reproducible(self):
        a = sample_null(Family.WEIBULL, STANDARD_PARAMS, 10, np.random.default_rng(5))
        b = sample_null(Family.WEIBULL, STANDARD_PARAMS, 10, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestAlternatives:
    def test_lfr_closed_form_inversion(self):
        theta = 0.5
        spec = AlternativeSpec("LFR", (theta,))
        x = sample_alternative(spec, 1_000_000, np.random.default_rng(11))
        ks = stats.kstest(x, lambda q: alternative_cdf(spec, q)).statistic
        assert ks < 0.002

    def test_lfr_theta_to_zero_is_exponential(self):
        spec = AlternativeSpec("LFR", (1e-9,))
        x = sample_alternative(spec, 1_000_000, np.random.default_rng(13))
        ks = stats.kstest(x, stats.expon.cdf).statistic
        assert ks < 0.002

    def test_chen_inversion_and_density(self):
        theta = 0.8
        spec = AlternativeSpec("CH", (theta,))
        u = 0.3
        e = -math.log1p(-u)
        expected = math.log1p(e / 2.0) ** (1.0 / theta)
        # Inverse of the distribution function at u.
        assert abs(alternative_cdf(spec, expected) - u) < 1e-12
        total, _ = si.quad(lambda q: alternative_density(spec, q), 0, np.inf, limit=400)
        assert abs(total - 1.0) < 1e-8
        x = sample_alternative(spec, 500_000, np.random.default_rng(17))
        ks = stats.kstest(x, lambda q: alternative_cdf(spec, q)).statistic
        assert ks < 0.003

    @pytest.mark.parametrize("name, family, inverse", [
        ("W", Family.WEIBULL, lambda u, shape, scale: scale * (-np.log1p(-u)) ** (1.0 / shape)),
        ("P", Family.PARETO, lambda u, shape, scale: scale * (1.0 - u) ** (-1.0 / shape)),
        ("F", Family.FRECHET,
         lambda u, shape, scale: scale * (-np.log(np.maximum(u, 1e-300))) ** (-1.0 / shape)),
    ])
    def test_null_law_alternative_is_the_member_scale_shape(self, name, family, inverse):
        # name(shape, scale) is the family member (c, phi) = (scale, shape),
        # drawn bit for bit by the law's inverse on one uniform per variate.
        spec = parse_alternative(f"{name}(2.5,0.7)+1")
        x = sample_alternative(spec, (4, 30), np.random.default_rng(23))
        u = np.random.default_rng(23).random((4, 30))
        assert np.array_equal(x, inverse(u, 2.5, 0.7) + 1.0)
        member = sample_null(family, ParamPair(c=0.7, phi=2.5), (4, 30), np.random.default_rng(23))
        assert np.array_equal(x, member + 1.0)

    @pytest.mark.parametrize("text", [
        "W(1.5,1)+1", "P(2,1)", "G(3,1)", "LN(2.5)", "LN(0,1.2)", "HN(1)",
        "LFR(0.2)+1", "CH(0.8)+1", "F(2,1)",
    ])
    def test_sampler_matches_cdf(self, text):
        spec = parse_alternative(text)
        x = sample_alternative(spec, 200_000, np.random.default_rng(19))
        assert np.all(x >= alternative_support(spec))
        ks = stats.kstest(x, lambda q: alternative_cdf(spec, q)).statistic
        assert ks < 0.005

    @pytest.mark.parametrize("text", [
        "W(0.5,1)+1", "G(0.8,1)", "LN(1)", "HN(2)", "LFR(1)", "CH(1.5)+1", "F(1,0.5)",
    ])
    def test_density_normalizes(self, text):
        spec = parse_alternative(text)
        lo = alternative_support(spec)
        total, _ = si.quad(lambda q: alternative_density(spec, q), lo, np.inf, limit=500)
        assert abs(total - 1.0) < 1e-7


class TestSpecParser:
    @pytest.mark.parametrize("text,name,params,shift", [
        ("W(1.5,1)+1", "W", (1.5, 1.0), 1.0),
        ("LN(2.5)", "LN", (2.5,), 0.0),
        ("CH(0.8)+1", "CH", (0.8,), 1.0),
        ("gamma(2,1)", "G", (2.0, 1.0), 0.0),
        ("g(0.8,1)+1", "G", (0.8, 1.0), 1.0),
        ("lfr(0.2) + 1", "LFR", (0.2,), 1.0),
        ("  hn( 1 ) ", "HN", (1.0,), 0.0),
    ])
    def test_accepts(self, text, name, params, shift):
        spec = parse_alternative(text)
        assert (spec.name, spec.params, spec.shift) == (name, params, shift)

    def test_round_trip(self):
        for text in ["W(1.5,1)+1", "LN(2.5)", "CH(0.8)+1", "P(2,1)", "G(0.8,1)+1"]:
            spec = parse_alternative(text)
            assert parse_alternative(str(spec)) == spec

    @pytest.mark.parametrize("bad", [
        "X(1)", "W(1)", "W(1,2,3)", "LN()", "HN(1,2)", "W(1.5,1)+-1",
        "W(-1,1)", "HN(0)", "W 1.5", "", "LFR", "CH(0.8)1",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_alternative(bad)

    def test_lognormal_location_may_be_negative(self):
        spec = parse_alternative("LN(-0.5,1.2)")
        assert spec.mu_sigma == (-0.5, 1.2)

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["W", "P", "G", "F"]),
        st.floats(min_value=0.1, max_value=9.9),
        st.floats(min_value=0.1, max_value=9.9),
        st.sampled_from([0.0, 1.0, 2.5]),
    )
    def test_round_trip_property(self, name, p1, p2, shift):
        spec = AlternativeSpec(name, (round(p1, 3), round(p2, 3)), shift)
        assert parse_alternative(str(spec)) == spec


class TestParamValidation:
    def test_param_pair(self):
        with pytest.raises(DomainError):
            ParamPair(0.0, 1.0)
        with pytest.raises(DomainError):
            ParamPair(1.0, -2.0)

    def test_family_parse(self):
        assert Family.parse(" Weibull ") is Family.WEIBULL
        with pytest.raises(ConfigError):
            Family.parse("cauchy")
