import dataclasses
import math
import tracemalloc
import warnings
from itertools import accumulate

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from mincf.errors import DomainError
from mincf.estimation import fit_batch, mle, standardize
from mincf.families import (
    Family, ParamPair, null_min_cf, parse_alternative, sample_alternative, sample_null,
)
from mincf.stat import (
    _CHEB_NODES,
    _DCT,
    _gl_rule,
    _kernel_sum,
    batch_statistics,
    l_constant,
    lambda_table,
    statistic,
)

from helpers import (
    kernel_oracle, l_constant_oracle, lambda_oracle, out_of_range_sample, run_python,
)
from oracles import (
    empirical_min_cf,
    integrate,
    kernel_lambda,
    mle_limit,
    population_delta,
    population_min_cf,
    small_lambda,
    statistic_direct,
)

ALL_FAMILIES = list(Family)
GAMMAS = (0.5, 1.0, 5.0)


def _mp_psi0(family):
    """psi0 of the standard member as an mpmath function."""
    if family is Family.FRECHET:
        return lambda t: 1 - mp.exp(-t) + t * mp.e1(t)
    if family is Family.WEIBULL:
        return lambda t: t * (1 - mp.exp(-1 / t))
    return lambda t: t * (1 - mp.log(t)) if t <= 1 else mp.mpf(1)


def _mp_statistic(family, y, gamma, dps=40):
    """n int (psi_n - psi0)^2 e^(-gamma t) dt by mpmath, every kink 1/Y_j (and t = 1) a break point."""
    with mp.workdps(dps):
        ys = [mp.mpf(float(v)) for v in y]
        g, n, psi0 = mp.mpf(gamma), len(ys), _mp_psi0(family)

        def f(t):
            d = sum(min(1, t * v) for v in ys) / n - psi0(t)
            return d * d * mp.exp(-g * t)

        return float(n * mp.quad(f, sorted({mp.mpf(0), mp.mpf(1), mp.inf, *(1 / v for v in ys)})))


def _standardized(family, n, rng, params=ParamPair(1.0, 1.0)):
    x = sample_null(family, params, n, rng)
    return standardize(x, mle(family, x))


def kernel_printed_form(g, z1, z2):
    """Literal transliteration of the closed form (z1 <= z2 convention)."""
    z1, z2 = min(z1, z2), max(z1, z2)
    return (
        z1 / z2 * (2 * z2 ** 2 - math.exp(-g / z2) * (2 * z2 ** 2 + 2 * g * z2 + g ** 2)) / g ** 3
        + z1 / z2 * math.exp(-g / z2) * (g + z2) / g ** 2
        - z1 * math.exp(-g / z1) / g ** 2
    )


class TestKernel:
    def test_unit_point(self):
        assert abs(kernel_lambda(1.0, 1.0, 1.0) - (2.0 - 4.0 * math.exp(-1.0))) < 1e-14

    def test_large_arguments_approach_inverse_gamma(self):
        assert abs(kernel_lambda(2.0, 1e6, 1e6) - 0.5) < 1e-5

    def test_against_defining_integral(self):
        for g, z1, z2 in [(1, 1, 1), (0.5, 0.3, 4), (5, 2, 0.01), (1, 100, 0.02)]:
            ref = kernel_oracle(g, z1, z2)
            assert abs(kernel_lambda(g, z1, z2) - ref) <= 1e-10 * max(ref, 1e-12)

    def test_matches_printed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            g = math.exp(rng.uniform(math.log(0.3), math.log(6.0)))
            z1, z2 = np.exp(rng.uniform(-3, 3, size=2))
            a = kernel_lambda(g, z1, z2)
            b = kernel_printed_form(g, z1, z2)
            assert abs(a - b) <= 1e-11 * abs(b)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_symmetric_and_bounded(self, g, z1, z2):
        a = kernel_lambda(g, z1, z2)
        b = kernel_lambda(g, z2, z1)
        assert a == b  # swap convention makes symmetry exact
        assert 0.0 < a <= 1.0 / g + 1e-12

    def test_vectorized(self):
        g = 1.0
        z = np.array([0.5, 1.0, 2.0])
        mat = kernel_lambda(g, z[:, None], z[None, :])
        assert mat.shape == (3, 3)
        assert np.array_equal(mat, mat.T)
        assert mat[1, 1] == kernel_lambda(g, 1.0, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kernel_lambda(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            kernel_lambda(1.0, -1.0, 1.0)


class TestKernelSum:
    """The sorted O(n log n) double sum against the pairwise kernel grid."""

    ALTERNATIVES = ("LN(3)", "LN(8)", "W(0.3,1)", "CH(0.8)+1")

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_pair_grid(self, family):
        rng = np.random.default_rng(107)
        for n in (3, 20, 200):
            raw = [sample_null(family, ParamPair(1.0, 1.0), n, rng)]
            raw += [sample_alternative(parse_alternative(a), n, rng) for a in self.ALTERNATIVES]
            raw.append(np.repeat(raw[0][: n // 2 + 1], 2)[:n])  # every value tied
            y = np.stack([standardize(x, mle(family, x)) for x in raw])
            for g in (0.2, 0.5, 1.0, 5.0, 8.0, 30.0):
                ref = kernel_lambda(g, y[:, :, None], y[:, None, :]).sum((1, 2))
                got = _kernel_sum(g, y)
                assert np.max(np.abs(got - ref) / ref) <= 1e-13
                # The 1-D call is the one statistic() makes.
                one = np.array([_kernel_sum(g, row) for row in y])
                assert np.max(np.abs(one - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_large_row_memory_is_linear(self, family):
        # The n x n pair grid of this row would take about 80 GB.
        x = sample_null(family, ParamPair(1.0, 1.0), 100_000, np.random.default_rng(109))
        y = standardize(x, mle(family, x))[None, :]
        tracemalloc.start()
        try:
            value = batch_statistics(family, 1.0, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value[0]) and value[0] >= 0.0
        assert peak < 64 * 2 ** 20


class TestLConstant:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("gamma", [*GAMMAS, 1000.0])
    def test_against_defining_integral(self, family, gamma):
        ref = l_constant_oracle(family, gamma)
        assert abs(l_constant(family, gamma) - ref) <= 1e-8 * ref

    def test_weibull_printed_bessel_form(self):
        from mincf.special import bessel_k
        g = 1.0
        printed = 2.0 / g ** 3 + (
            4.0 * math.sqrt(2.0) * bessel_k(3.0, math.sqrt(8.0 * g))
            - 4.0 * bessel_k(3.0, math.sqrt(4.0 * g))
        ) / g ** 1.5
        assert abs(l_constant(Family.WEIBULL, g) - printed) < 1e-14

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("gamma", [0.001, 0.003, 0.01, 0.02, 30.0, 1000.0])
    def test_against_mpmath_outside_tested_gammas(self, family, gamma):
        # The psi0 integrals against a 30-digit reference, at a tolerance the
        # scipy oracle cannot hold (l_constant_oracle is about 1e-10 off at
        # gamma = 30): L, lam_inf and the table's slope, which serves every
        # value below z_lo. This is the one independent check of lam_inf,
        # which small_lambda reads.
        table = lambda_table(family, gamma)
        got = {(0, 2): l_constant(family, gamma), (0, 1): table.lam_inf, (1, 1): table.slope}
        psi0 = _mp_psi0(family)
        with mp.workdps(30):
            g = mp.mpf(gamma)
            for (k, p), value in got.items():
                ref = float(mp.quad(lambda t: t ** k * psi0(t) ** p * mp.exp(-g * t),
                                    sorted({0, 1 / g, 1, mp.inf})))
                assert abs(value - ref) <= 1e-14 * ref, (k, p)


class TestSmallLambda:
    @pytest.mark.parametrize("z", [0.3, 1.0, 4.0])
    def test_weibull_against_defining_integral(self, z):
        ref = lambda_oracle(Family.WEIBULL, 1.0, z)
        assert abs(small_lambda(Family.WEIBULL, 1.0, z) - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_all_families_against_oracle(self, family, gamma):
        for z in (0.05, 0.7, 1.0, 2.5, 30.0):
            ref = lambda_oracle(family, gamma, z)
            assert abs(small_lambda(family, gamma, z) - ref) <= 1e-8 * max(ref, 1e-12)

    def test_pareto_branch_continuity(self):
        for g in GAMMAS:
            low = small_lambda(Family.PARETO, g, 1.0)
            high = small_lambda(Family.PARETO, g, 1.0 + 1e-9)
            assert abs(low - high) < 1e-8

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_vanishes_at_zero(self, family):
        assert abs(small_lambda(family, 1.0, 1e-9)) < 1e-8

    def test_cauchy_schwarz_bound(self):
        # lam(z)^2 <= K(z,z) * L for every family, gamma and argument.
        rng = np.random.default_rng(9)
        for family in ALL_FAMILIES:
            table_cache = {}
            for _ in range(333):
                g = math.exp(rng.uniform(math.log(0.2), math.log(8.0)))
                z = math.exp(rng.uniform(-6.0, 6.0))
                lam = small_lambda(family, g, z)
                bound = kernel_lambda(g, z, z) * l_constant(family, g)
                assert lam * lam <= bound * (1.0 + 1e-9)


class TestBuildRules:
    """The quadrature rule and the panel fit, against the numpy routines they
    replace, and the LAPACK-free build and engine they give."""

    def test_gauss_legendre_rule_matches_leggauss(self):
        from numpy.polynomial.legendre import leggauss
        nodes, weights = _gl_rule()
        ref_nodes, ref_weights = leggauss(32)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-16
        assert np.max(np.abs(weights - ref_weights)) <= 5e-16
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert abs(weights.sum() - 2.0) <= 4.5e-16

    def test_dct_matrix_matches_chebfit(self):
        # Column j of the fit of the unit values at node j is column j of the matrix.
        from numpy.polynomial.chebyshev import chebfit
        values = np.eye(_CHEB_NODES.size)
        ref = chebfit(_CHEB_NODES, values, _CHEB_NODES.size - 1)
        got = (_DCT[:, :, None] * values).sum(axis=1)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(values))

    def test_build_and_engine_make_no_lapack_call(self):
        # A fresh interpreter, so that no cached table or rule hides a call.
        script = (
            "import numpy as np\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('numpy.linalg called')\n"
            "for name in ('lstsq', 'eigvalsh', 'eigh', 'eig', 'svd', 'solve'):\n"
            "    setattr(np.linalg, name, refuse)\n"
            "from mincf import (Family, STANDARD_PARAMS, build_nulls, l_constant, lambda_table,\n"
            "                   mle, sample_null, standardize, statistic)\n"
            "for family in Family:\n"
            "    for gamma in (0.5, 1.0, 5.0):\n"
            "        lambda_table(family, gamma)\n"
            "        l_constant(family, gamma)\n"
            "    x = sample_null(family, STANDARD_PARAMS, 30, np.random.default_rng(1))\n"
            "    assert np.isfinite(statistic(family, standardize(x, mle(family, x)), 1.0).value)\n"
            "    nulls = build_nulls(family, 20, (0.5, 1.0, 5.0), 600, seed=2, workers=1)\n"
            "    assert all(np.all(np.isfinite(null.sorted_stats)) for null in nulls)\n"
            "print('ok')\n"
        )
        assert run_python(script) == "ok"


class TestLambdaTable:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_matches_reference_route(self, family, gamma):
        table = lambda_table(family, gamma)
        z = np.geomspace(1e-8, 1e8, 160)
        fast = table(z)
        ref = np.array([small_lambda(family, gamma, v) for v in z])
        scale = max(1.0, lambda_table(family, gamma).lam_inf)
        assert np.max(np.abs(fast - ref)) < 5e-10 * scale

    @pytest.mark.parametrize(("family", "gamma"), [
        # Weibull's cases keep their bare-gamma ids.
        *(pytest.param(Family.WEIBULL, g, id=str(g)) for g in (0.001, 0.5, 1.0, 5.0, 1000.0)),
        *(pytest.param(Family.FRECHET, g, id=f"frechet-{g}") for g in (0.001, 0.5, 1.0, 5.0, 1000.0)),
        *(pytest.param(Family.PARETO, g, id=f"pareto-{g}") for g in (0.001, 0.5, 1.0, 5.0, 1000.0)),
    ])
    def test_clenshaw_matches_per_panel_chebval(self, family, gamma):
        # The panels are evaluated by one recurrence over all values, each
        # reading its own panel's coefficients; chebval on each panel alone
        # is the reference, at the range ends, on every panel edge and at
        # z = 1 (Pareto's kink) too.
        table = lambda_table(family, gamma)
        m = len(table.coeffs)  # perfbench's layer replay counts panels this way
        assert table.coeffs.shape == (m, 15)
        assert math.isclose(table.u_lo + m * table.h, math.log(table.z_hi), rel_tol=1e-14)
        edges = np.exp(table.u_lo + table.h * np.arange(m + 1))
        inner = np.exp(np.random.default_rng(7).uniform(table.u_lo, math.log(table.z_hi), 3000))
        z = np.concatenate([[table.z_lo, table.z_hi, 1.0], edges, inner])
        z = z[(z >= table.z_lo) & (z <= table.z_hi)]
        # A table whose u_lo sits one ulp above log z_lo: z_lo's log then
        # rounds below u_lo and must still be read from panel 0.
        shifted = dataclasses.replace(table, u_lo=np.nextafter(table.u_lo, np.inf))
        assert (np.log(table.z_lo) - shifted.u_lo) < 0
        scale = max(1.0, table.lam_inf)
        for tab in (table, shifted):
            x = (np.log(z) - tab.u_lo) / tab.h
            panel = np.clip(np.floor(x), 0, m - 1).astype(int)
            ref = tab.lam_inf - np.array([chebval(2.0 * (v - k) - 1.0, tab.coeffs[k])
                                          for v, k in zip(x, panel)])
            assert np.max(np.abs(tab(z) - ref)) <= 1e-15 * scale

    def test_panel_grid_is_anchored_at_one(self):
        # Panel edges are whole multiples of h, so z = 1, where Pareto's psi0
        # has its kink, is an edge and every family converges on few panels.
        for gamma in np.geomspace(0.001, 1000.0, 121):
            for family in ALL_FAMILIES:
                table = lambda_table(family, float(gamma))
                # 78: Weibull at gamma ~ 16 on the 16-panel level, whose panels run
                # on past max(40, gamma) up to where C rounds away against lam_inf.
                assert 1 <= len(table.coeffs) <= 78, (family, gamma)
                # Every table stopped on its Chebyshev tail, none on the level cap.
                assert np.max(np.abs(table.coeffs[:, -2:])) <= 1e-14 * table.lam_inf, (family, gamma)
                if table.z_lo <= 1.0 <= table.z_hi:
                    k = -table.u_lo / table.h
                    assert abs(k - round(k)) <= 1e-9, (family, gamma)

    def test_monotone_increasing(self):
        table = lambda_table(Family.FRECHET, 1.0)
        z = np.geomspace(1e-6, 1e6, 400)
        assert np.all(np.diff(table(z)) >= -1e-12)


class TestClosedFormLambda:
    """The lam table of every family against mpmath quadrature.

    This checks the panels and the linear asymptote below them without the
    adaptive quadrature of TestLambdaTable.
    The z grid straddles every switch: the panel range, about
    [gamma/40, max(40, gamma)], and z = 1, Pareto's kink.
    """

    Z = np.geomspace(1e-8, 1e8, 33)
    _known = {}  # (family, gamma, dps) -> {z: lam(z)}, filled by _oracle

    @classmethod
    def _oracle(cls, family, gamma, zs, dps=20):
        """lam at each z by mpmath, as z A1(1/z) + T0(1/z), where A1(s) = int_0^s t w,
        T0(s) = int_s^inf w and w(t) = psi0(t) e^(-gamma t). The points 1/z of the z not
        yet known at (family, gamma, dps), with t = 1, cut (0, inf) into gaps, one
        mp.quad each: A1 is their running sum from the bottom and T0 from the top."""
        known = cls._known.setdefault((family, gamma, dps), {})
        new = {float(z) for z in zs} - known.keys()
        if new:
            with mp.workdps(dps):
                g, psi0 = mp.mpf(gamma), _mp_psi0(family)
                w = lambda t: psi0(t) * mp.exp(-g * t)
                inv = {z: 1 / mp.mpf(z) for z in new}
                s = sorted({mp.mpf(1), *inv.values()})
                a1 = list(accumulate(mp.quad(lambda t: t * w(t), [a, b])
                                     for a, b in zip([mp.mpf(0), *s], s)))
                t0 = list(accumulate(mp.quad(w, [a, b])
                                     for a, b in zip(s[::-1], [mp.inf, *s[::-1]])))[::-1]
                at = {v: k for k, v in enumerate(s)}
                known.update({z: float(mp.mpf(z) * a1[at[v]] + t0[at[v]])
                              for z, v in inv.items()})
        return np.array([known[float(z)] for z in zs])

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("gamma", [0.02, 0.05, 0.2, 0.5, 1.0, 5.0, 8.0, 30.0, 1000.0, 0.001])
    def test_against_mpmath(self, family, gamma):
        ref = self._oracle(family, gamma, self.Z)
        got = lambda_table(family, gamma)(self.Z)
        scale = max(1.0, lambda_table(family, gamma).lam_inf)
        assert np.max(np.abs(got - ref)) <= 5e-10 * scale

    @pytest.mark.parametrize("gamma", [0.001, 0.01, 0.1])
    def test_pareto_low_branch_at_small_gamma(self, gamma):
        # c1 = int_0^1 t^2 (1 - log t) e^(-g t) dt, whose closed form lost
        # 4.4e-10 * max(1, lam_inf) here at g = 0.001.
        z = self.Z[self.Z <= 1.0]
        ref = self._oracle(Family.PARETO, gamma, z)
        table = lambda_table(Family.PARETO, gamma)
        assert np.max(np.abs(table(z) - ref)) <= 1e-12 * max(1.0, table.lam_inf)

    @pytest.mark.parametrize("gamma", [0.001, 0.01])
    def test_pareto_above_the_kink_at_small_gamma(self, gamma):
        # lam = lam_inf - C(z) with C bounded; closed forms that rebuilt parts
        # of lam_inf inside lam lost 4.8e-13 * max(1, lam_inf) here at g = 0.001.
        z = np.concatenate([[1.0], self.Z[self.Z > 1.0]])
        ref = self._oracle(Family.PARETO, gamma, z)
        table = lambda_table(Family.PARETO, gamma)
        assert np.max(np.abs(table(z) - ref)) <= 1e-14 * max(1.0, table.lam_inf)

    @pytest.mark.parametrize("gamma", [0.001, 0.01])
    def test_frechet_at_small_gamma(self, gamma):
        # Panels fitted to lam_inf - C(z); a closed form through E1 and incomplete
        # gammas lost 2.2e-12 * max(1, lam_inf) here at g = 0.001, z = 0.249.
        z = np.concatenate([self.Z, np.geomspace(0.02, 0.249, 6)])
        ref = self._oracle(Family.FRECHET, gamma, z, dps=30)
        table = lambda_table(Family.FRECHET, gamma)
        assert np.max(np.abs(table(z) - ref)) <= 1e-14 * max(1.0, table.lam_inf)

    @pytest.mark.parametrize("gamma", [5.0, 30.0])
    def test_weibull_relative_to_lam_inf(self, gamma):
        # lam_inf < 1 here, so a panel tolerance of 1e-11 * max(1, lam_inf) was
        # absolute: it allowed 1.7e-11 (g = 5) and 2.0e-9 (g = 30) of lam_inf.
        ref = self._oracle(Family.WEIBULL, gamma, self.Z, dps=30)
        got = lambda_table(Family.WEIBULL, gamma)(self.Z)
        assert np.max(np.abs(got - ref)) <= 1e-13 * lambda_table(Family.WEIBULL, gamma).lam_inf

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize(("gamma", "lo", "hi"), [(1000.0, 50.0, 200.0), (1.0, 0.1, 0.15)])
    def test_panels_reach_rounding(self, family, gamma, lo, hi):
        # Panels that stopped when 7 test points were within 1e-13 * lam_inf read
        # 4.1e-14 * lam_inf off here at gamma = 1000 and 7.2e-15 at gamma = 1.
        z = np.linspace(lo, hi, 6)
        ref = self._oracle(family, gamma, z, dps=30)
        got = lambda_table(family, gamma)(z)
        assert np.max(np.abs(got - ref)) <= 2e-15 * lambda_table(family, gamma).lam_inf

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("gamma", [0.001, 1.0, 5.0, 1000.0])
    def test_lam_inf_from_the_top(self, family, gamma):
        # From z_hi up lam is lam_inf itself, and just below it the panels do not
        # pass lam_inf. On [40, 1e12] the table reads at most 3.7e-15 * lam_inf
        # off (gamma = 1000, z = 40).
        table = lambda_table(family, gamma)
        # z_hi is the first panel edge where the bound C(z) <= psi0(1/z)/z rounds away.
        k = round(table.u_lo / table.h) + len(table.coeffs)
        for edge, rounds in ((k, True), (k - 1, False)):
            z = math.exp(edge * table.h)
            assert (table.lam_inf - null_min_cf(family, 1.0 / z) / z == table.lam_inf) is rounds
        assert math.exp(k * table.h) == table.z_hi
        above = np.geomspace(table.z_hi, 1e300, 200)
        assert np.array_equal(table(above), np.full_like(above, table.lam_inf))
        assert table(table.z_hi) == table.lam_inf
        below = table.z_hi * (1.0 - np.geomspace(1e-15, 1e-3, 20))
        assert np.all(table(below) <= table.lam_inf)
        z = np.geomspace(40.0, 1e12, 7)
        ref = self._oracle(family, gamma, z, dps=30)
        assert np.max(np.abs(table(z) - ref)) <= 5e-15 * table.lam_inf

    @pytest.mark.parametrize("z", [1e-8, 1e-3])
    def test_weibull_reference_at_large_gamma(self, z):
        # The mass of the complement integrand sits near t ~ 1/gamma = 1e-3, deep
        # inside [0, 1/z]; a quadrature that never samples there returns lam_inf.
        lam_inf = lambda_table(Family.WEIBULL, 1000.0).lam_inf
        ref = self._oracle(Family.WEIBULL, 1000.0, [z])[0]
        assert abs(small_lambda(Family.WEIBULL, 1000.0, z) - ref) <= 1e-12 * lam_inf


class TestStatistic:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_oracle_equivalence_sample(self, family):
        rng = np.random.default_rng(101)
        for n in (5, 20):
            for _ in range(3):
                y = _standardized(family, n, rng)
                for g in GAMMAS:
                    br = statistic(family, y, g)
                    direct = statistic_direct(family, y, g)
                    assert br.value >= -1e-9
                    assert abs(br.value - direct) <= 1e-6 * max(br.value, 1e-12)
                    assert abs(br.double_sum + br.n_times_l - br.lambda_sum - br.value) < 1e-14

    @pytest.mark.parametrize(("family", "gamma"), [
        (Family.WEIBULL, 0.01), (Family.WEIBULL, 0.001),
        (Family.PARETO, 0.01), (Family.FRECHET, 0.01),
    ])
    def test_oracle_equivalence_at_small_gamma(self, family, gamma):
        # Criterion 1's bound below its gammas, where T = sum K/n + n L - 2 sum lam
        # cancels terms of order n/gamma down to O(1), so an error in L or lam
        # shows in T magnified by about n/(gamma T).
        rng = np.random.default_rng(113)
        for n in (20, 50):
            for _ in range(4):
                y = _standardized(family, n, rng)
                direct = statistic_direct(family, y, gamma)
                assert abs(statistic(family, y, gamma).value - direct) <= 1e-6 * direct

    @pytest.mark.parametrize("gamma", [0.01, 0.001])
    def test_pareto_oracle_equivalence_at_small_gamma(self, gamma):
        # The small-gamma test's samples at 1e-8: with lam = lam_inf - C(z),
        # Pareto's T stays within 1.4e-9 of the defining integral at g = 0.001.
        rng = np.random.default_rng(113)
        for n in (20, 50):
            for _ in range(4):
                y = _standardized(Family.PARETO, n, rng)
                direct = statistic_direct(Family.PARETO, y, gamma)
                assert abs(statistic(Family.PARETO, y, gamma).value - direct) <= 1e-8 * direct

    def test_frechet_oracle_equivalence_at_small_gamma(self):
        # The small-gamma test's samples at 1e-8: Frechet's lam from panels keeps
        # T within 3.4e-9 of the defining integral at g = 0.001 (a closed form: 6.5e-7).
        rng = np.random.default_rng(113)
        for n in (20, 50):
            for _ in range(4):
                y = _standardized(Family.FRECHET, n, rng)
                direct = statistic_direct(Family.FRECHET, y, 0.001)
                assert abs(statistic(Family.FRECHET, y, 0.001).value - direct) <= 1e-8 * direct

    @pytest.mark.parametrize(("gamma", "bound"), [(5.0, 1e-10), (30.0, 1e-8)])
    def test_weibull_against_mpmath_at_large_gamma(self, gamma, bound):
        # T shrinks fast with gamma while n L and 2 sum lam do not, so lam's error
        # relative to lam_inf is what T sees: panels held to an absolute 1e-11
        # put T 2.6e-8 (g = 5) and 4.6e-4 (g = 30) off on these rows.
        rng = np.random.default_rng(11)
        for _ in range(2):
            y = _standardized(Family.WEIBULL, 20, rng)
            ref = _mp_statistic(Family.WEIBULL, y, gamma)
            assert abs(statistic(Family.WEIBULL, y, gamma).value - ref) <= bound * ref

    @pytest.mark.parametrize("family", [Family.PARETO, Family.FRECHET])
    def test_against_mpmath_at_gamma_1000(self, family):
        # T is 4e-8 to 2e-7 against terms up to 4e-6, so lam's error relative to
        # lam_inf shows in T: panels stopped by 7 test points put Pareto's T
        # 5.3e-12 off on these rows.
        rng = np.random.default_rng(11)
        for _ in range(2):
            y = _standardized(family, 20, rng)
            ref = _mp_statistic(family, y, 1000.0)
            assert abs(statistic(family, y, 1000.0).value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_pipeline_invariance(self, family):
        rng = np.random.default_rng(103)
        x = sample_null(family, ParamPair(1.0, 1.0), 20, rng)
        ya = standardize(x, mle(family, x))
        xt = 3.7 * x ** (1.0 / 2.2)
        yb = standardize(xt, mle(family, xt))
        for g in GAMMAS:
            a = statistic(family, ya, g).value
            b = statistic(family, yb, g).value
            assert abs(a - b) <= 1e-6 * max(a, 1e-12)

    def test_equal_values_identity(self):
        # With all standardized values equal to 1 the statistic collapses to
        # n * (K(1,1) + L - 2 lam(1)).
        y = np.ones(3)
        for family in ALL_FAMILIES:
            got = statistic(family, y, 1.0).value
            expected = 3.0 * (
                kernel_lambda(1.0, 1.0, 1.0)
                + l_constant(family, 1.0)
                - 2.0 * small_lambda(family, 1.0, 1.0)
            )
            assert abs(got - expected) < 1e-12
            direct = statistic_direct(family, y, 1.0)
            assert abs(direct - expected) < 1e-8 * max(abs(expected), 1e-9)

    def test_zero_distance_integrand(self):
        # If the empirical curve equals psi0 the weighted distance is zero.
        from mincf.families import null_min_cf
        for family in ALL_FAMILIES:
            r = integrate(
                lambda t: (null_min_cf(family, t) - null_min_cf(family, t)) ** 2
                * np.exp(-t),
                0.0, np.inf,
            )
            assert r.value == 0.0

    def test_batch_matches_reference(self):
        rng = np.random.default_rng(105)
        for family in ALL_FAMILIES:
            rows = np.stack([_standardized(family, 15, rng) for _ in range(12)])
            for g in GAMMAS:
                fast = batch_statistics(family, g, rows)
                ref = np.array([statistic(family, row, g).value for row in rows])
                assert np.max(np.abs(fast - ref)) < 1e-13 * max(1.0, np.max(ref))

    @pytest.mark.parametrize("n", [20, 50, 200])
    def test_weibull_null_statistics_stay_positive_at_gamma_100(self, n):
        # The exact T falls off faster than any power of 1/gamma while n*L
        # falls as 1/gamma^3; at gamma = 100 null rows read about 1e-14,
        # still far above the rounding of the three terms (near 1e-20).
        x = sample_null(Family.WEIBULL, ParamPair(1.0, 1.0), (200, n), np.random.default_rng(106))
        c, phi, ok, _ = fit_batch(Family.WEIBULL, x)
        assert ok.all()
        stats = batch_statistics(Family.WEIBULL, 100.0, (x / c[:, None]) ** phi[:, None])
        assert np.all(stats > 0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_out_of_range_standardized_value_gets_the_limit(self, family):
        # One (x / c)^phi overflows (Pareto, Frechet) or underflows to 0 (Weibull);
        # clipped to [1e-150, 1e150], it gives T at its limit, which the defining
        # integral reaches on the values clipped to [1e-12, 1e12].
        x = out_of_range_sample(family)
        y = standardize(x, mle(family, x))
        for g in GAMMAS:
            value = statistic(family, y, g).value
            assert np.isfinite(value)
            direct = statistic_direct(family, np.clip(y, 1e-12, 1e12), g)
            assert abs(value - direct) <= 1e-12 * direct

    def test_rejects_non_finite_values(self):
        # This Pareto fit's unclipped (x / c)^phi overflows to Y = inf, as values
        # from outside the program may; it must fail on the input check, before
        # the kernel or lam warn about it.
        x = np.array([1e-300, 1e-200, 1.0, 2.0, 3.0, 1e300])
        est = mle(Family.PARETO, x)
        with np.errstate(over="ignore"):
            y = (x / est.params.c) ** est.params.phi
        assert np.isinf(y).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                statistic(Family.PARETO, y, 1.0)

    def test_requires_minimum_size(self):
        with pytest.raises(DomainError):
            statistic(Family.WEIBULL, np.array([1.0, 2.0]), 1.0)

    def test_rejects_a_matrix(self):
        # A (2, 3) array is two rows, not one row of 6: batch_statistics scores rows.
        with pytest.raises(DomainError, match="1-D"):
            statistic(Family.WEIBULL, [[0.5, 1.0, 1.5], [0.7, 1.2, 1.1]], 1.0)
        with pytest.raises(DomainError, match="1-D"):
            statistic(Family.WEIBULL, 2.0, 1.0)


class TestEmpiricalMinCF:
    def test_single_point(self):
        assert empirical_min_cf([1.0], 0.5) == 0.5
        assert empirical_min_cf([1.0], 2.0) == 1.0

    def test_monotone_concave(self):
        rng = np.random.default_rng(11)
        x = rng.exponential(size=50)
        t = np.linspace(0.01, 10.0, 500)
        v = empirical_min_cf(x, t)
        assert np.all(np.diff(v) >= -1e-15)
        assert np.all(np.diff(v, 2) <= 1e-12)
        assert np.all((v >= 0) & (v <= 1))

    def test_lln_at_unit_argument(self):
        x = np.random.default_rng(12).exponential(size=100_000)
        assert abs(empirical_min_cf(x, 1.0) - (1.0 - math.exp(-1.0))) < 0.01


class TestPopulationDelta:
    def test_null_alternative_gives_zero(self):
        cases = [
            (Family.WEIBULL, "W(1.3,2)"),
            (Family.PARETO, "P(2,1)"),
            (Family.FRECHET, "F(2,1)"),
        ]
        for family, text in cases:
            alt = parse_alternative(text)
            limit = mle_limit(family, alt)
            assert population_delta(family, alt, 1.0, limit) < 1e-6

    def test_lognormal_under_weibull_is_positive(self):
        alt = parse_alternative("LN(1)")
        limit = mle_limit(Family.WEIBULL, alt)
        assert population_delta(Family.WEIBULL, alt, 1.0, limit) > 1e-4

    def test_population_min_cf_shape(self):
        alt = parse_alternative("G(3,1)")
        limit = mle_limit(Family.WEIBULL, alt)
        t = np.geomspace(0.01, 50.0, 40)
        vals = np.array([population_min_cf(alt, limit, v) for v in t])
        assert np.all(np.diff(vals) >= -1e-9)
        assert vals[0] < 0.05 and vals[-1] > 0.99

    def test_statistic_over_n_flattens(self):
        # Under a fixed alternative statistic/n settles near its limit.
        from mincf.estimation import fit_batch
        from mincf.families import sample_alternative
        alt = parse_alternative("G(3,1)")
        means = {}
        for n in (500, 2000):
            vals = []
            for i in range(20):
                rng = np.random.default_rng(np.random.SeedSequence(55, spawn_key=(n, i)))
                x = sample_alternative(alt, n, rng)[None, :]
                c, phi, ok, _ = fit_batch(Family.WEIBULL, x)
                y = (x / c[:, None]) ** phi[:, None]
                vals.append(batch_statistics(Family.WEIBULL, 1.0, y)[0] / n)
            means[n] = np.mean(vals)
        assert abs(means[500] - means[2000]) / means[2000] < 0.10
