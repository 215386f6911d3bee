import math

import numpy as np
import pytest

from mincf.errors import DegenerateSampleError, DomainError
from mincf.estimation import _logsumexp, fit_batch, mle, standardize
from mincf.families import Family, ParamPair, sample_null

ALL_FAMILIES = list(Family)


def weibull_score(phi, x):
    xs = x ** phi
    return np.sum(xs * np.log(x)) / np.sum(xs) - 1.0 / phi - np.mean(np.log(x))


def log_likelihood(family, x, c, phi):
    if family is Family.WEIBULL:
        return np.sum(np.log(phi / c) + (phi - 1) * np.log(x / c) - (x / c) ** phi)
    if family is Family.PARETO:
        if np.min(x) < c:
            return -np.inf
        return np.sum(np.log(phi / c) - (phi + 1) * np.log(x / c))
    return np.sum(np.log(phi / c) - (1 + phi) * np.log(x / c) - (x / c) ** -phi)


class TestPareto:
    def test_closed_form_example(self):
        est = mle(Family.PARETO, [2.0, 4.0, 8.0])
        assert est.params.c == 2.0
        assert abs(est.params.phi - 1.0 / math.log(2.0)) < 1e-12
        assert est.iterations == 0  # closed form, no shape iteration

    def test_local_maximality(self):
        x = np.array([2.0, 4.0, 8.0])
        est = mle(Family.PARETO, x)
        best = log_likelihood(Family.PARETO, x, est.params.c, est.params.phi)
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = est.params.c * rng.uniform(0.5, 1.0)  # c cannot exceed min(x)
            phi = est.params.phi * rng.uniform(0.7, 1.3)
            if (c, phi) == (est.params.c, est.params.phi):
                continue
            assert log_likelihood(Family.PARETO, x, c, phi) <= best + 1e-12


class TestWeibull:
    def test_score_residual_and_maximality(self):
        rng = np.random.default_rng(8)
        x = sample_null(Family.WEIBULL, ParamPair(2.0, 1.4), 60, rng)
        est = mle(Family.WEIBULL, x)
        assert abs(weibull_score(est.params.phi, x)) < 1e-10
        best = log_likelihood(Family.WEIBULL, x, est.params.c, est.params.phi)
        for _ in range(200):
            c = est.params.c * math.exp(rng.uniform(-0.2, 0.2))
            phi = est.params.phi * math.exp(rng.uniform(-0.2, 0.2))
            assert log_likelihood(Family.WEIBULL, x, c, phi) <= best + 1e-10

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            mle(Family.WEIBULL, [5.0, 5.0, 5.0])

    def test_too_small_sample(self):
        with pytest.raises(DegenerateSampleError):
            mle(Family.WEIBULL, [1.0, 2.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            mle(Family.WEIBULL, [1.0, -2.0, 3.0])

    def test_large_shape_no_overflow(self):
        # Tight samples push the fitted shape very high; the log-domain sums
        # must survive x^phi far beyond float range.
        rng = np.random.default_rng(4)
        x = sample_null(Family.WEIBULL, ParamPair(3.0, 200.0), 50, rng)
        est = mle(Family.WEIBULL, x)
        assert 50 < est.params.phi < 1000  # mle raises unless the shape converged


class TestStandardize:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_unit_point_and_order(self, family):
        rng = np.random.default_rng(10)
        x = sample_null(family, ParamPair(1.5, 2.0), 40, rng)
        est = mle(family, x)
        x2 = x.copy()
        x2[7] = est.params.c
        y = standardize(x2, est)
        assert y[7] == 1.0
        assert y.shape == (40,)
        # order preserved
        assert np.array_equal(np.argsort(x2), np.argsort(y))

    def test_pareto_min_is_exactly_one(self):
        rng = np.random.default_rng(11)
        x = sample_null(Family.PARETO, ParamPair(4.2, 0.8), 100, rng)
        est = mle(Family.PARETO, x)
        y = standardize(x, est)
        assert y.min() == 1.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_refit_returns_unit_parameters(self, family):
        rng = np.random.default_rng(12)
        x = sample_null(family, ParamPair(0.7, 1.9), 50, rng)
        est = mle(family, x)
        refit = mle(family, standardize(x, est))
        assert abs(refit.params.c - 1.0) < 1e-8
        assert abs(refit.params.phi - 1.0) < 1e-8

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_idempotent(self, family):
        rng = np.random.default_rng(13)
        x = sample_null(family, ParamPair(2.0, 0.6), 50, rng)
        y1 = standardize(x, mle(family, x))
        y2 = standardize(y1, mle(family, y1))
        assert np.max(np.abs(y2 - y1) / y1) < 1e-8


class TestEquivariance:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_scale_power_equivariance(self, family):
        rng = np.random.default_rng(21)
        x = sample_null(family, ParamPair(1.3, 1.1), 60, rng)
        base = mle(family, x)
        for _ in range(25):
            a, b = rng.uniform(0.2, 5.0, size=2)
            est = mle(family, a * x ** (1.0 / b))
            c_expected = a * base.params.c ** (1.0 / b)
            phi_expected = b * base.params.phi
            assert abs(est.params.c - c_expected) < 1e-8 * c_expected
            assert abs(est.params.phi - phi_expected) < 1e-8 * phi_expected


class TestConsistency:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_large_sample_recovers_parameters(self, family):
        params = ParamPair(1.5, 2.0)
        x = sample_null(family, params, 100_000, np.random.default_rng(77))
        est = mle(family, x)
        assert abs(est.params.c - params.c) / params.c < 0.05
        assert abs(est.params.phi - params.phi) / params.phi < 0.05


class TestBatch:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_batch_matches_scalar(self, family):
        rng = np.random.default_rng(30)
        rows = np.stack([sample_null(family, ParamPair(1, 1), 25, rng) for _ in range(8)])
        c, phi, ok, _ = fit_batch(family, rows)
        assert ok.all()
        for i in range(8):
            est = mle(family, rows[i])
            assert abs(c[i] - est.params.c) < 1e-12 * est.params.c
            assert abs(phi[i] - est.params.phi) < 1e-12 * est.params.phi

    def test_batch_flags_degenerate_rows(self):
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0]])
        _, _, ok, _ = fit_batch(Family.WEIBULL, rows)
        assert ok.tolist() == [True, False]
        _, _, ok_p, _ = fit_batch(Family.PARETO, rows)
        assert ok_p.tolist() == [True, False]

    def test_loglik_reported(self):
        rng = np.random.default_rng(31)
        x = sample_null(Family.FRECHET, ParamPair(1, 1), 30, rng)
        est = mle(Family.FRECHET, x)
        ref = log_likelihood(Family.FRECHET, x, est.params.c, est.params.phi)
        assert abs(est.log_likelihood - ref) < 1e-8 * abs(ref)


def test_logsumexp_matches_direct_sum_and_cannot_overflow():
    a = np.random.default_rng(5).normal(scale=3.0, size=(4, 50))
    direct = [math.log(math.fsum(math.exp(v) for v in row)) for row in a]
    assert np.allclose(_logsumexp(a, axis=1), direct, rtol=1e-14, atol=0.0)
    assert _logsumexp(np.array([1000.0, 1000.0])) == 1000.0 + math.log(2.0)
    assert _logsumexp(np.array([-np.inf, 0.0])) == 0.0
