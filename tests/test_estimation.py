import math

import numpy as np
import pytest
from scipy.optimize import brentq

from mincf import estimation, gof_test
from mincf.errors import DegenerateSampleError, DomainError
from mincf.estimation import fit_batch, mle, solve_weibull_shape, standardize
from mincf.families import Family, ParamPair, sample_null

from oracles import newton_weibull_shape

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


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_infinite_value_rejected(family):
    # The spread check read inf - 1 <= 1e-12 * inf as true: a "constant" sample.
    data = [1.0, 2.0, float("inf")]
    with pytest.raises(DomainError, match="finite"):
        mle(family, data)
    with pytest.raises(DomainError, match="finite"):
        gof_test(data, family, [1.0], 10, seed=0)


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


def _weighted_moments(phi, logs):
    """Score, slope and second derivative of the shape equation of one row at phi."""
    w = np.exp(phi * (logs - logs.max()))
    w /= w.sum()
    m1, m2, m3 = (w * logs).sum(), (w * logs ** 2).sum(), (w * logs ** 3).sum()
    return (m1 - 1.0 / phi - logs.mean(), m2 - m1 * m1 + phi ** -2.0,
            m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3 - 2.0 * phi ** -3.0)


def _brentq_root(logs):
    return brentq(lambda phi: _weighted_moments(phi, logs)[0], 1e-3, 1e3,
                  xtol=1e-300, rtol=1e-15, maxiter=500)


class TestShapeSolver:
    """solve_weibull_shape: Halley steps on a bracket, bisection as fallback."""

    @pytest.mark.parametrize("n", [3, 20, 200])
    def test_constant_and_near_constant_rows_do_not_converge(self, n):
        rng = np.random.default_rng(40 + n)
        rows = np.array([
            np.full(n, 0.0),
            np.full(n, -4.2),
            math.log(5.0) + 1e-9 * rng.standard_normal(n),
            math.log(5.0) + 1e-5 * rng.standard_normal(n),  # root near 1e5
            np.log(rng.standard_exponential(n)),  # a regular row beside them
        ])
        rows[3, :2] = math.log(5.0) + np.array([-1e-5, 1e-5])  # spread bounded away from 0
        assert _weighted_moments(1e3, rows[3])[0] < 0  # the root lies above 1e3
        _, log_scale, converged, _ = solve_weibull_shape(rows)
        assert converged.tolist() == [False, False, False, False, True]
        assert np.isnan(log_scale[:4]).all()
        assert np.array_equal(converged, newton_weibull_shape(rows)[1])

    def test_root_just_above_the_bracket_does_not_converge(self):
        # Scaling log x by 1/a scales the root by a. Here the root sits
        # 2e-10 relative above 1e3, so |score(1e3)| is inside the tolerance:
        # only the upper-end check keeps the row from converging at 1e3.
        base = np.log(np.random.default_rng(44).standard_exponential(20))
        row = base * (_brentq_root(base) / (1e3 * (1.0 + 2e-10)))
        assert -1e-12 < _weighted_moments(1e3, row)[0] < 0
        _, _, converged, _ = solve_weibull_shape(row[None, :])
        assert not converged[0]
        assert not newton_weibull_shape(row[None, :])[1][0]

    def test_rows_with_root_below_the_bracket_do_not_converge(self, monkeypatch):
        passes = []
        moments = estimation._weibull_moments

        def counted(phi, d):
            passes.append(phi.size)
            return moments(phi, d)

        monkeypatch.setattr(estimation, "_weibull_moments", counted)
        rng = np.random.default_rng(41)
        wide = [rng.choice([-3000.0, 0.0, 3000.0], 30), np.linspace(-2500.0, 2500.0, 30)]
        # A root just inside the bracket: max log x - mean log x exceeds 1000,
        # so score(1e-3) is evaluated rather than bounded.
        inside = 600.0 * np.log(rng.standard_exponential(30))
        rows = np.array(wide + [inside])
        for row in wide:
            assert _weighted_moments(1e-3, row)[0] >= 0  # the root lies below 1e-3
        assert inside.max() - inside.mean() >= 1000.0
        phi, _, converged, _ = solve_weibull_shape(rows)
        assert converged.tolist() == [False, False, True]
        # The rows outside are dropped by one score(1e-3) pass, not iterated to the limit.
        assert len(passes) < 10
        assert np.array_equal(converged, newton_weibull_shape(rows)[1])
        root = _brentq_root(inside)
        assert 1e-3 < root < 1e-2
        assert abs(phi[2] - root) <= 1e-11 * root

    def test_bisection_fallback_converges(self, monkeypatch):
        # Started at the bracket's lower end, phi = 1e-3, the first Halley step
        # of many rows lands below it and is replaced by bisection.
        rows = np.log(np.random.default_rng(42).standard_exponential((200, 5)))
        expected, _, ok, _ = solve_weibull_shape(rows)
        assert ok.all()
        first = []
        for row in rows:
            score, slope, curv = _weighted_moments(1e-3, row)
            first.append(1e-3 - 2.0 * score * slope / (2.0 * slope * slope - score * curv))
        leaves = np.array([not 1e-3 < c < 1e3 for c in first])
        assert leaves.sum() >= 10
        monkeypatch.setattr(estimation, "_MOMENT_CONST", 1e-9)
        phi, _, converged, _ = solve_weibull_shape(rows)
        assert converged.all()
        assert np.allclose(phi, expected, rtol=1e-11, atol=0.0)

    def test_matches_brentq_and_the_newton_solver(self):
        rng = np.random.default_rng(43)
        for n in (5, 20, 50, 200):
            for sign in (1.0, -1.0):  # the Frechet fit solves the mirrored rows
                regular = np.concatenate([
                    sign * np.log(rng.weibull(shape, (20, n))) for shape in (0.3, 1.0, 3.0)
                ])
                edge = np.array([
                    np.full(n, 1.5),
                    2.0 + 1e-4 * rng.standard_normal(n),
                    rng.choice([-3000.0, 3000.0], n),
                    np.log(rng.weibull(300.0, n)),
                    np.r_[np.zeros(n - 1), 50.0],
                ])
                rows = np.concatenate([regular, edge])
                phi, log_scale, converged, iterations = solve_weibull_shape(rows)
                _, newton_converged, newton_iterations = newton_weibull_shape(rows)
                assert np.array_equal(converged, newton_converged)
                assert converged[:len(regular)].all()
                assert iterations[converged].mean() < newton_iterations[converged].mean()
                roots = np.array([_brentq_root(row) for row in regular])
                assert np.allclose(phi[:len(regular)], roots, rtol=1e-11, atol=0.0)
                # log c = log(mean x^phi)/phi at the fitted phi, by a direct sum.
                direct = [math.log(math.fsum(np.exp(p * row)) / n) / p
                          for row, p in zip(rows[converged], phi[converged])]
                assert np.allclose(log_scale[converged], direct, rtol=1e-13, atol=1e-13)


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

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_data_wider_than_double_range(self, family):
        # On data spanning 600 decades x / c overflows or underflows to 0 while
        # (x / c)^phi, at a phi near 0.002, lies between 0.1 and 14.
        x = np.array([1e-300, 1e-200, 1.0, 2.0, 3.0, 1e300])
        est = mle(family, x)
        logs = est.params.phi * (np.log(x) - np.log(est.params.c))
        assert np.allclose(standardize(x, est), np.exp(logs), rtol=1e-14, atol=0.0)


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

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_rows_outside_0_inf_fail_alone(self, family):
        # A row holding 0, -1, inf or NaN is a failed fit, not an error; the
        # rows beside it fit as they do without it, bit for bit.
        rng = np.random.default_rng(32)
        good = np.stack([sample_null(family, ParamPair(1, 1), 25, rng) for _ in range(4)])
        bad = good[::-1].copy()
        bad[[0, 1, 2, 3], [5, 0, 24, 11]] = [0.0, -1.0, np.inf, np.nan]
        rows = np.empty((8, 25))
        rows[0::2], rows[1::2] = good, bad
        given = rows.copy()
        c, phi, ok, iterations = fit_batch(family, rows)
        assert ok.tolist() == [True, False] * 4
        c_alone, phi_alone, ok_alone, iterations_alone = fit_batch(family, good)
        assert ok_alone.all()
        assert np.array_equal(c[0::2], c_alone) and np.array_equal(phi[0::2], phi_alone)
        assert np.array_equal(iterations[0::2], iterations_alone)
        assert np.array_equal(rows, given, equal_nan=True)  # the caller's rows stay as given

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_checks_nothing_but_the_family(self, family):
        # n >= 3 is checked where samples enter (mle, the engine's counts): a
        # one-value row is a failed fit, and no rows is an empty result.
        assert fit_batch(family, np.array([[5.0]]))[2].tolist() == [False]
        assert all(out.size == 0 for out in fit_batch(family, np.empty((0, 4))))

    def test_loglik_reported(self):
        rng = np.random.default_rng(31)
        x = sample_null(Family.FRECHET, ParamPair(1, 1), 30, rng)
        est = mle(Family.FRECHET, x)
        ref = log_likelihood(Family.FRECHET, x, est.params.c, est.params.phi)
        assert abs(est.log_likelihood - ref) < 1e-8 * abs(ref)

