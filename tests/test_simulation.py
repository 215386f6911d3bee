import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from mincf import simulation, stat
from mincf.errors import ConfigError, EngineError
from mincf.estimation import fit_batch, mle, standardize
from mincf.families import (
    STANDARD_PARAMS,
    AlternativeSpec,
    Family,
    ParamPair,
    parse_alternative,
    sample_alternative,
    sample_null,
)
from mincf.simulation import (
    STATISTIC_CODE_VERSION,
    NullCache,
    NullDistribution,
    StudyConfig,
    build_null,
    build_nulls,
    critical_value,
    derive_seed,
    p_value,
    power,
    run_study,
    gof_test,
)
from mincf.stat import batch_statistics, statistic

from helpers import out_of_range_sample
from oracles import IntegrationError


def toy_null(stats, family=Family.WEIBULL, n=20, gamma=1.0, seed=0):
    arr = np.sort(np.asarray(stats, dtype=float))
    return NullDistribution(
        family=family, n=n, gamma=gamma, replicates=arr.size,
        sorted_stats=arr, seed=seed,
    )


class TestCriticalValue:
    def test_nineteen_replicates_alpha_five_percent(self):
        null = toy_null(np.arange(1.0, 20.0))
        assert critical_value(null, 0.05) == 19.0

    def test_median_order_statistic(self):
        null = toy_null(np.arange(1.0, 100.0))
        assert critical_value(null, 0.5) == 50.0

    def test_monotone_in_alpha(self):
        null = toy_null(np.random.default_rng(1).exponential(size=500))
        alphas = [0.01, 0.05, 0.10, 0.25, 0.5]
        cvs = [critical_value(null, a) for a in alphas]
        assert all(a >= b for a, b in zip(cvs[:-1], cvs[1:]))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.001, max_value=0.999),
           st.floats(min_value=0.001, max_value=0.999))
    def test_monotone_property(self, a1, a2):
        null = toy_null(np.linspace(0.0, 1.0, 137))
        lo, hi = min(a1, a2), max(a1, a2)
        assert critical_value(null, lo) >= critical_value(null, hi)

    def test_alpha_validation(self):
        null = toy_null([1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            critical_value(null, 0.0)


class TestPValue:
    def test_counting_definition(self):
        null = toy_null([0.1, 0.2, 0.3])
        assert p_value(null, 0.25) == 0.5

    def test_above_maximum(self):
        null = toy_null([0.1, 0.2, 0.3])
        assert p_value(null, 0.9) == 0.25  # 1/(N+1)

    def test_ties_count_as_exceedances(self):
        null = toy_null([0.1, 0.2, 0.3])
        assert p_value(null, 0.2) == 0.75

    def test_never_zero_never_above_one(self):
        null = toy_null(np.linspace(0, 1, 99))
        assert 0.0 < p_value(null, 1e9) <= 1.0
        assert p_value(null, -1e9) == 1.0

    def test_two_dimensional_stats_rejected(self):
        # 300 values in a (20, 15) array would fail later, in p_value's search.
        with pytest.raises(ConfigError, match="1-D"):
            NullDistribution(family=Family.WEIBULL, n=20, gamma=1.0, replicates=300,
                             sorted_stats=np.zeros((20, 15)), seed=0)


class TestNullDistribution:
    @pytest.mark.parametrize("stats", [[3.0, 2.0, 1.0], [1.0, np.nan, 3.0], [np.nan] * 3,
                                       [1.0, 2.0, np.nan]],
                             ids=["descending", "nan-inside", "all-nan", "nan-last"])
    def test_stats_that_are_not_ascending_rejected(self, stats):
        # p_value and critical_value read counts and order statistics off the
        # array, so an unsorted one answers wrongly without an error.
        with pytest.raises(ConfigError, match="ascending"):
            NullDistribution(family=Family.WEIBULL, n=20, gamma=1.0, replicates=3,
                             sorted_stats=np.array(stats), seed=0)

    @pytest.mark.parametrize("redraws", [-1, 2.0, np.inf, True, "3"])
    def test_redraws_that_is_not_a_count_rejected(self, redraws):
        with pytest.raises(ConfigError, match="redraws must be an integer >= 0"):
            NullDistribution(family=Family.WEIBULL, n=20, gamma=1.0, replicates=3,
                             sorted_stats=np.arange(3.0), seed=0, redraws=redraws)

    def test_ties_and_infinities_in_order_accepted(self):
        null = NullDistribution(family=Family.WEIBULL, n=20, gamma=1.0, replicates=4,
                                sorted_stats=np.array([1.0, 1.0, 2.0, np.inf]), seed=0)
        assert p_value(null, 1.0) == 1.0


class TestBuildNull:
    def test_deterministic_across_worker_counts(self):
        one = build_null(Family.WEIBULL, 10, 1.0, 1100, seed=42, workers=1)
        many = build_null(Family.WEIBULL, 10, 1.0, 1100, seed=42, workers=8)
        assert np.array_equal(one.sorted_stats, many.sorted_stats)
        assert one.redraws == many.redraws

    def test_sorted_and_sized(self):
        null = build_null(Family.PARETO, 8, 0.5, 300, seed=1)
        assert null.replicates == 300
        assert np.all(np.diff(null.sorted_stats) >= 0)
        assert np.all(null.sorted_stats > 0)

    def test_transform_invariance_replicatewise(self):
        # Statistics from X and from 3.1 * X^(1/2.2) agree replicate by
        # replicate, which is the exact form of parameter-freeness.
        for i in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(77, spawn_key=(i,)))
            x = sample_null(Family.WEIBULL, ParamPair(1, 1), 20, rng)[None, :]
            xt = 3.1 * x ** (1 / 2.2)
            stats = []
            for data in (x, xt):
                c, phi, ok, _ = fit_batch(Family.WEIBULL, data)
                y = (data / c[:, None]) ** phi[:, None]
                stats.append(batch_statistics(Family.WEIBULL, 1.0, y)[0])
            assert abs(stats[0] - stats[1]) <= 1e-6 * max(stats[0], 1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError, match="n must be an integer >= 3"):
            build_null(Family.WEIBULL, 2, 1.0, 500, seed=0)
        with pytest.raises(ConfigError, match="replicates must be an integer >= 100"):
            build_null(Family.WEIBULL, 10, 1.0, 50, seed=0)

    def test_pvalue_uniform_under_null(self):
        null = build_null(Family.PARETO, 10, 1.0, 2000, seed=11)
        fresh = build_null(Family.PARETO, 10, 1.0, 2000, seed=12)
        pvals = np.array([p_value(null, s) for s in fresh.sorted_stats])
        ks = sps.kstest(pvals, "uniform").statistic
        assert ks < 0.04


GAMMAS = (0.5, 1.0, 5.0)


@pytest.fixture
def no_draw(monkeypatch):
    """Fail the test if the engine draws a sample."""
    def draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(simulation, "_draw", draw)


@pytest.fixture
def helper_forks(monkeypatch):
    """Record the pid of each helper the engine forks; afterwards, check that
    every helper was reaped."""
    real_fork, pids = os.fork, []

    def counted():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBuildNulls:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("family", list(Family))
    def test_one_pass_equals_per_gamma_calls(self, family, workers):
        together = build_nulls(family, 20, GAMMAS, 600, seed=13, workers=workers)
        for gamma, null in zip(GAMMAS, together):
            alone = build_null(family, 20, gamma, 600, seed=13, workers=workers)
            assert null.gamma == gamma
            assert np.array_equal(null.sorted_stats, alone.sorted_stats)
            assert null.redraws == alone.redraws

    def test_helpers_sized_to_chunks(self, helper_forks):
        serial = build_null(Family.PARETO, 10, 1.0, 600, seed=3, workers=1)
        assert helper_forks == []
        wide = build_null(Family.PARETO, 10, 1.0, 600, seed=3, workers=64)
        assert len(helper_forks) == 2 - 1
        assert np.array_equal(serial.sorted_stats, wide.sorted_stats)

    def test_failure_counted_once_and_names_all_gammas(self, monkeypatch):
        # Every row fails its first fit, so all 300 replicates count as
        # failed once, however many gammas share the pass.
        real_fit, calls = simulation.fit_batch, []

        def fail_first_call(family, x):
            c, phi, ok, iterations = real_fit(family, x)
            calls.append(x)
            return c, phi, ok & (len(calls) > 1), iterations

        monkeypatch.setattr(simulation, "fit_batch", fail_first_call)
        with pytest.raises(EngineError, match=r"failed on 300 of 300 .*gamma=0\.5,1,5\)"):
            build_nulls(Family.WEIBULL, 10, GAMMAS, 300, seed=1)

    @staticmethod
    def fail_twice(monkeypatch, rows):
        """Make the first two fit_batch calls fail the first ``rows`` rows they get."""
        real_fit, calls = simulation.fit_batch, []

        def fit(family, x):
            c, phi, ok, iterations = real_fit(family, x)
            calls.append(x)
            if len(calls) <= 2:
                ok[:rows] = False
            return c, phi, ok, iterations

        monkeypatch.setattr(simulation, "fit_batch", fit)

    def test_replicate_failing_twice_counts_once(self, monkeypatch):
        # One chunk of 300 rows, one block per attempt: every row fails its
        # first two fits, so 600 redraws but 300 failed replicates.
        self.fail_twice(monkeypatch, 300)
        with pytest.raises(EngineError, match=r"failed on 300 of 300 "):
            build_nulls(Family.WEIBULL, 10, GAMMAS, 300, seed=1)

    def test_two_rows_failing_twice_redraw_four_times(self, monkeypatch):
        # 2 failed replicates are within 1% of 300; each is redrawn twice.
        self.fail_twice(monkeypatch, 2)
        for null in build_nulls(Family.WEIBULL, 10, GAMMAS, 300, seed=1):
            assert null.redraws == 4

    @pytest.mark.parametrize(("n", "replicates", "name"),
                             [(10.0, 300, "n"), (10, 300.0, "replicates")])
    def test_float_count_rejected_before_any_draw(self, no_draw, n, replicates, name):
        # Unchecked, a float reaches range() or rng.random() and fails with a bare TypeError.
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            build_nulls(Family.WEIBULL, n, GAMMAS, replicates, seed=1)

    def test_each_table_is_built_once(self):
        # Every chunk must read the tables _warm built, so each (family, gamma)
        # misses exactly once, and L comes from the table, not l_constant.
        gammas = np.geomspace(0.5, 30.0, 40)
        stat.lambda_table.cache_clear()
        stat.l_constant.cache_clear()
        build_nulls(Family.WEIBULL, 10, gammas, 1100, seed=5)
        assert stat.lambda_table.cache_info().misses == 40
        assert stat.l_constant.cache_info().misses == 0

    def test_partial_cache_simulates_only_the_misses(self, tmp_path):
        data = np.random.default_rng(4).exponential(size=30)
        cold = gof_test(data, Family.WEIBULL, GAMMAS, 300, seed=9)
        cache = NullCache(tmp_path)
        build_null(Family.WEIBULL, 30, 1.0, 300, seed=9, cache=cache)
        (hit,) = os.listdir(tmp_path)
        inode = os.stat(tmp_path / hit).st_ino
        warm = gof_test(data, Family.WEIBULL, GAMMAS, 300, seed=9, cache=cache)
        assert len(set(os.listdir(tmp_path)) - {hit}) == 2
        assert os.stat(tmp_path / hit).st_ino == inode  # the hit was not rewritten
        assert [r.p_value for r in warm] == [r.p_value for r in cold]
        assert [r.statistic for r in warm] == [r.statistic for r in cold]


class TestChunkStreams:
    """Chunk k of 512 replicates draws from substream (seed, k): one (count, n)
    matrix, then each round of MLE redraws in one call on the same stream."""

    @staticmethod
    def by_hand(family, n, seed, k, count, draw, reject=()):
        # One chunk, fitted as the engine fits it: the rows in ``reject``
        # fail their first fit and are redrawn once, in one call, then refitted.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        reject = np.asarray(reject, dtype=int)
        x = draw((count, n), rng)
        stats = np.empty((len(GAMMAS), count))

        def score(rows, c, phi):
            y = (x[rows] / c[:, None]) ** phi[:, None]
            for j, gamma in enumerate(GAMMAS):
                stats[j, rows] = batch_statistics(family, gamma, y)

        c, phi, ok, _ = fit_batch(family, x)
        assert ok.all()
        keep = np.setdiff1d(np.arange(count), reject)
        score(keep, c[keep], phi[keep])
        if reject.size:
            x[reject] = draw((reject.size, n), rng)
            c, phi, ok, _ = fit_batch(family, x[reject])
            assert ok.all()
            score(reject, c, phi)
        return stats

    @pytest.mark.parametrize("family", list(Family))
    def test_chunk_equals_hand_reproduction(self, family):
        ln = parse_alternative("LN(1)")
        cases = [
            (None, lambda shape, rng: sample_null(family, STANDARD_PARAMS, shape, rng)),
            (ln, lambda shape, rng: sample_alternative(ln, shape, rng)),
        ]
        for alt, draw in cases:
            for k, i0, i1 in [(0, 0, 512), (2, 1024, 1100)]:  # a full and a last chunk
                stats, redraws, failed = simulation._simulate_chunk(
                    family, 20, GAMMAS, 13, i0, i1, alt)
                assert (redraws, failed) == (0, 0)
                assert np.array_equal(stats, self.by_hand(family, 20, 13, k, i1 - i0, draw))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_redraws_come_from_the_chunk_stream(self, monkeypatch, workers):
        # The first fit of each full chunk rejects every 128th row. Forked
        # helpers inherit the patch, so both worker counts see it.
        real_fit = simulation.fit_batch

        def reject_on_first_fit(family, x):
            c, phi, ok, iterations = real_fit(family, x)
            if x.shape[0] == 512:
                ok = ok.copy()
                ok[::128] = False
            return c, phi, ok, iterations

        monkeypatch.setattr(simulation, "fit_batch", reject_on_first_fit)
        nulls = build_nulls(Family.FRECHET, 20, GAMMAS, 1024, seed=7, workers=workers)

        def draw(shape, rng):
            return sample_null(Family.FRECHET, STANDARD_PARAMS, shape, rng)

        stats = np.concatenate([
            self.by_hand(Family.FRECHET, 20, 7, k, 512, draw, reject=[0, 128, 256, 384])
            for k in (0, 1)
        ], axis=1)
        for row, null in zip(stats, nulls):
            assert null.redraws == 8
            assert np.array_equal(null.sorted_stats, np.sort(row))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_redraws_come_from_the_chunk_stream_across_blocks(self, monkeypatch, workers):
        # At n = 200 a chunk is fitted in blocks of _BLOCK // 200 rows. The
        # first fit of every other block, made before its chunk's first
        # redraw, rejects the block's row 0: 4 rows a chunk, under the 1%
        # failure limit. Forked helpers inherit the patches.
        n, count = 200, 512
        rows = simulation._BLOCK // n
        real_chunk, real_draw, real_fit = (
            simulation._simulate_chunk, simulation._draw, simulation.fit_batch)
        draws, first_fits = [], []  # the current chunk's draws and first-fit block sizes

        def chunk(*args):
            draws.clear()
            first_fits.clear()
            return real_chunk(*args)

        def draw(*args):
            draws.append(args)
            return real_draw(*args)

        def reject_on_first_fit(family, x):
            c, phi, ok, iterations = real_fit(family, x)
            if len(draws) == 1:
                if len(first_fits) % 2 == 0:
                    ok = ok.copy()
                    ok[0] = False
                first_fits.append(x.shape[0])
            return c, phi, ok, iterations

        monkeypatch.setattr(simulation, "_simulate_chunk", chunk)
        monkeypatch.setattr(simulation, "_draw", draw)
        monkeypatch.setattr(simulation, "fit_batch", reject_on_first_fit)
        nulls = build_nulls(Family.FRECHET, n, GAMMAS, 2 * count, seed=7, workers=workers)
        blocks = list(range(0, count, rows))
        assert len(blocks) > 2
        assert first_fits == [min(rows, count - b) for b in blocks]  # the caller's last chunk
        reject = blocks[::2]

        def null_draw(shape, rng):
            return sample_null(Family.FRECHET, STANDARD_PARAMS, shape, rng)

        stats = np.concatenate([
            self.by_hand(Family.FRECHET, n, 7, k, count, null_draw, reject=reject)
            for k in (0, 1)
        ], axis=1)
        for row, null in zip(stats, nulls):
            assert null.redraws == 2 * len(reject)
            assert np.array_equal(null.sorted_stats, np.sort(row))

    @pytest.mark.parametrize("family", list(Family))
    def test_rows_holding_0_or_inf_are_redrawn(self, monkeypatch, family):
        # The chunk's first draw holds a 0 in row 4 and an inf in row 17: both
        # rows fail their fit and are redrawn from the chunk's stream.
        real_draw, draws = simulation._draw, []

        def draw(*args):
            x = real_draw(*args)
            if not draws:
                x[4, 3], x[17, 0] = 0.0, np.inf
            draws.append(x.shape)
            return x

        monkeypatch.setattr(simulation, "_draw", draw)
        stats, redraws, failed = simulation._simulate_chunk(family, 20, GAMMAS, 13, 0, 30, None)
        assert (redraws, failed) == (2, 2)
        assert draws == [(30, 20), (2, 20)]

        def null_draw(shape, rng):
            return sample_null(family, STANDARD_PARAMS, shape, rng)

        assert np.array_equal(stats, self.by_hand(family, 20, 13, 0, 30, null_draw, reject=[4, 17]))

    @pytest.mark.parametrize("family", list(Family))
    def test_blocks_leave_the_chunk_unchanged(self, monkeypatch, family):
        # One row per block, uneven blocks of 7 rows, and the whole chunk as
        # one block, for a full and a last chunk at n = 200.
        n = 200
        for alt in (None, parse_alternative("LN(1)")):
            for i0, i1 in [(0, 512), (1024, 1100)]:
                runs = []
                for block in (n, 7 * n, 2 ** 30):
                    monkeypatch.setattr(simulation, "_BLOCK", block)
                    runs.append(simulation._simulate_chunk(family, n, GAMMAS, 13, i0, i1, alt))
                stats, redraws, failed = runs[0]
                for other in runs[1:]:
                    assert np.array_equal(other[0], stats)
                    assert other[1:] == (redraws, failed)


class TestOutOfRangeRows:
    """Rows with a fitted phi near 720 whose (x / c)^phi leaves double range: the
    engine scores them as :func:`statistic` scores the same data."""

    @staticmethod
    def draw_only(monkeypatch, x):
        monkeypatch.setattr(simulation, "_draw",
                            lambda family, alt, shape, rng: np.tile(x, (shape[0], 1)))

    @pytest.mark.parametrize("family", list(Family))
    def test_chunk_scores_them_as_statistic_does(self, monkeypatch, family):
        # 30 rows of n = 720 or 760 are two blocks.
        x = out_of_range_sample(family)
        self.draw_only(monkeypatch, x)
        y = standardize(x, mle(family, x))
        want = np.array([[statistic(family, y, g).value] for g in GAMMAS])
        for alt in (None, parse_alternative("LN(1)")):
            stats, redraws, failed = simulation._simulate_chunk(
                family, x.size, GAMMAS, 3, 0, 30, alt)
            assert (redraws, failed) == (0, 0)
            assert np.isfinite(stats).all()
            assert np.array_equal(stats, np.repeat(want, 30, axis=1))

    @pytest.mark.parametrize("family", list(Family))
    def test_power_counts_them_as_rejections(self, monkeypatch, family):
        # Their T at gamma = 1 is 14 to 35, far above this null's values.
        x = out_of_range_sample(family)
        self.draw_only(monkeypatch, x)
        null = toy_null(np.linspace(0.0, 1.0, 200), family=family, n=x.size)
        res = power(family, parse_alternative("LN(1)"), x.size, 1.0, 0.05, 100, null, seed=4)
        assert res.rejections == 100


class TestChunkMemory:
    @pytest.mark.parametrize("family", list(Family))
    def test_n200_chunk_peak_is_small(self, family):
        # Fitted and scored in one piece, a (512, 200) chunk peaked at
        # 9.1-15.5 MiB of temporaries; in blocks of ~2^14 values it needs
        # little more than its 0.8 MiB sample matrix.
        for gamma in GAMMAS:  # the tables are built once per process, not per chunk
            stat.lambda_table(family, gamma)
            stat.l_constant(family, gamma)
        for alt in (None, parse_alternative("LN(1)")):
            simulation._simulate_chunk(family, 200, GAMMAS, 3, 0, 512, alt)
            tracemalloc.start()
            try:
                simulation._simulate_chunk(family, 200, GAMMAS, 4, 0, 512, alt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2 ** 20


class TestHelpers:
    """Chunk i runs in process i % min(workers, chunks): the caller is process
    0 and the others are forked helpers, which die or are reaped with the run."""

    @staticmethod
    def in_helpers_only(monkeypatch, name, action):
        # Patch simulation.<name> so that ``action(real, *args)`` runs in a
        # forked helper while the caller keeps the real function.
        caller, real = os.getpid(), getattr(simulation, name)

        def patched(*args):
            return real(*args) if os.getpid() == caller else action(real, *args)

        monkeypatch.setattr(simulation, name, patched)

    def test_without_fork_every_chunk_runs_here(self, monkeypatch):
        serial = build_null(Family.FRECHET, 10, 1.0, 1100, seed=6, workers=1)
        monkeypatch.delattr(os, "fork")
        alone = build_null(Family.FRECHET, 10, 1.0, 1100, seed=6, workers=3)
        assert np.array_equal(serial.sorted_stats, alone.sorted_stats)

    def test_dead_helper_is_an_engine_error(self, monkeypatch, helper_forks):
        self.in_helpers_only(monkeypatch, "fit_batch", lambda real, *args: os._exit(1))
        with pytest.raises(EngineError, match="returned no chunk result"):
            build_nulls(Family.WEIBULL, 10, GAMMAS, 1100, seed=5, workers=2)
        assert len(helper_forks) == 1
        assert_no_child_left()

    def test_unpicklable_exception_costs_only_its_chunk(self, monkeypatch, helper_forks):
        # IntegrationError needs keyword arguments, so it does not unpickle.
        def fail_seed_1(real, *chunk):
            if chunk[3] == 1:
                raise IntegrationError("no", estimate=0.0, error=1.0)
            return real(*chunk)

        self.in_helpers_only(monkeypatch, "_simulate_chunk", fail_seed_1)
        passes = [(Family.WEIBULL, 10, GAMMAS, 1024, seed, None) for seed in (1, 2)]
        bad, good = simulation._run_passes(passes, 2)
        assert isinstance(bad, EngineError) and "IntegrationError" in str(bad)
        (alone,) = simulation._run_passes(passes[1:], 1)
        assert np.array_equal(good[0], alone[0]) and good[1] == alone[1]

    def test_closed_early_leaves_no_helper(self, helper_forks):
        passes = [(Family.PARETO, 10, (1.0,), 1024, seed, None) for seed in (1, 2, 3)]
        outcomes = simulation._run_passes(passes, 3)
        next(outcomes)
        outcomes.close()
        assert len(helper_forks) == 2
        assert_no_child_left()

    def test_study_stopped_by_progress_leaves_no_helper(self, helper_forks):
        cfg = StudyConfig(
            families=(Family.WEIBULL,),
            alternatives=(parse_alternative("LN(1)"), parse_alternative("G(2,1)")),
            gammas=(1.0,), sample_sizes=(10,), replicates=1100, crit_replicates=1100, seed=3,
        )

        class Stop(Exception):
            pass

        def stop(result):
            raise Stop

        # The traceback keeps run_study's frame, and so its pass iterator, alive.
        with pytest.raises(Stop) as stopped:
            run_study(cfg, workers=2, progress=stop)
        assert len(helper_forks) == 1
        assert_no_child_left()
        assert stopped.traceback


class TestPower:
    def test_null_mismatch_rejected(self):
        null = build_null(Family.WEIBULL, 10, 1.0, 200, seed=3)
        with pytest.raises(ConfigError):
            power(Family.WEIBULL, parse_alternative("LN(1)"), 12, 1.0, 0.05,
                  200, null, seed=4)

    def test_size_near_nominal(self):
        null = build_null(Family.WEIBULL, 20, 1.0, 4000, seed=21)
        res = power(Family.WEIBULL, parse_alternative("W(1,1)"), 20, 1.0,
                    0.05, 2000, null, seed=22)
        assert abs(res.rate - 0.05) < 0.02
        assert res.rejections == int(round(res.rate * res.replicates))

    @pytest.mark.parametrize("replicates", [0, 1, 99])
    def test_too_few_replicates_rejected(self, replicates):
        # The same check, error and message as build_nulls.
        null = build_null(Family.WEIBULL, 10, 1.0, 200, seed=3)
        with pytest.raises(ConfigError, match="replicates must be an integer >= 100"):
            power(Family.WEIBULL, parse_alternative("LN(1)"), 10, 1.0, 0.05,
                  replicates, null, seed=4)

    @pytest.mark.parametrize(("alpha", "replicates", "match"), [
        (1.5, 200, r"alpha must be a number in \(0, 1\), got 1.5"),
        (0.05, 200.0, "replicates must be an integer >= 100, got 200.0"),
    ], ids=["alpha", "float-replicates"])
    def test_bad_alpha_or_replicates_rejected_before_any_draw(self, no_draw, alpha,
                                                              replicates, match):
        # Unchecked, a bad alpha surfaces only in critical_value, after the whole pass.
        null = toy_null(np.arange(1.0, 201.0), n=10)
        with pytest.raises(ConfigError, match=match):
            power(Family.WEIBULL, parse_alternative("LN(1)"), 10, 1.0, alpha, replicates,
                  null, seed=4)

    def test_weibull_null_above_30_rejected_before_any_draw(self, no_draw):
        null = toy_null(np.arange(1.0, 201.0), n=10, gamma=300.0)
        with pytest.raises(ConfigError, match=r"\[0.001, 30\]"):
            power(Family.WEIBULL, parse_alternative("LN(1)"), 10, 300.0, 0.05, 200, null, seed=4)

    @pytest.mark.parametrize(("family", "alt", "match"), [
        (Family.PARETO, "P(0.001,1)", "kept failing the MLE after 100 redraws"),
        (Family.WEIBULL, "G(0.01,1)", "MLE failed on 3 of 200 replicates"),
    ], ids=["pareto-P", "weibull-G"])
    def test_draws_past_double_range_are_failed_fits(self, family, alt, match):
        # P(0.001,1) overflows to inf in nearly every row, and G(0.01,1) underflows
        # to 0 in about 1% of them: failed fits, which end the pass as an engine
        # failure, not as a 100% rate or an input error.
        null = build_null(family, 20, 1.0, 200, seed=1)
        with pytest.raises(EngineError, match=match):
            power(family, parse_alternative(alt), 20, 1.0, 0.05, 200, null, seed=3)

    def test_engine_error_on_unfittable_alternative(self):
        # A law this degenerate drives the fitted shape out of range on
        # every replicate, which must surface as an engine failure.
        null = build_null(Family.WEIBULL, 5, 1.0, 200, seed=31)
        with pytest.raises(EngineError):
            power(Family.WEIBULL, AlternativeSpec("LN", (1e-12,)), 5, 1.0,
                  0.05, 200, null, seed=32)


class TestStudy:
    def test_config_round_trip_and_defaults(self):
        cfg = StudyConfig.from_dict({
            "families": ["weibull"],
            "alternatives": ["LN(1)", "W(1,1)"],
            "replicates": 500,
            "seed": 9,
        })
        assert cfg.gammas == (0.5, 1.0, 5.0)
        assert cfg.sample_sizes == (20, 50)
        assert cfg.effective_crit_replicates == 1000
        # to_dict resolves defaults, so the round trip preserves the
        # effective configuration.
        assert StudyConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"families": [], "alternatives": ["LN(1)"]})
        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"families": ["weibull"], "alternatives": ["XX(1)"]})
        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"families": ["weibull"], "alternatives": ["LN(1)"],
                                   "alpha": 1.5})
        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"families": ["weibull"], "alternatives": ["LN(1)"],
                                   "bogus": 1})

    @pytest.mark.parametrize("field, entries", [
        ("families", ["weibull", "pareto", "Weibull"]),
        ("alternatives", ["LN(1)", "Gamma(2,1)", "G(2, 1)"]),
        ("gammas", [1, 0.5, 1.0]),
        ("sample_sizes", [20, 50, 20]),
    ])
    def test_config_repeating_an_entry_names_the_field(self, field, entries):
        config = {"families": ["weibull"], "alternatives": ["LN(1)"], field: entries}
        with pytest.raises(ConfigError, match=f"^{field} lists an entry twice"):
            StudyConfig.from_dict(config)

    def test_null_only_study_hits_alpha(self):
        cfg = StudyConfig(
            families=(Family.PARETO,),
            alternatives=(parse_alternative("P(1,1)"), parse_alternative("P(2,1)")),
            gammas=(1.0,), sample_sizes=(10,), replicates=1000,
            crit_replicates=2000, seed=5,
        )
        study = run_study(cfg)
        assert not study.failures
        for res in study.results:
            assert abs(res.rate - 0.05) < 0.025

    def test_rerun_identical(self):
        cfg = StudyConfig(
            families=(Family.WEIBULL,), alternatives=(parse_alternative("LN(1)"),),
            gammas=(1.0,), sample_sizes=(10,), replicates=200,
            crit_replicates=200, seed=13,
        )
        a = run_study(cfg)
        b = run_study(cfg)
        assert a.results == b.results

    def test_one_pass_per_family_n_and_alternative(self, monkeypatch):
        # Each cell equals a standalone power() at key (1, fi, ni, ai) against
        # the build_nulls at (0, fi, ni), from families x sizes x
        # (1 + alternatives) engine passes in all.
        cfg = StudyConfig(
            families=(Family.WEIBULL, Family.PARETO),
            alternatives=(parse_alternative("LN(1)"), parse_alternative("G(2,1)")),
            gammas=(0.5, 1.0, 5.0), sample_sizes=(10,), replicates=200,
            crit_replicates=300, seed=23,
        )
        real, calls = simulation._run_passes, []

        def counted(passes, workers):
            calls.append([p[2] for p in passes])
            return real(passes, workers)

        monkeypatch.setattr(simulation, "_run_passes", counted)
        study = run_study(cfg)
        assert not study.failures
        assert calls == [[cfg.gammas] * 2 * 1 * (1 + 2)]
        cells = iter(study.results)
        for fi, family in enumerate(cfg.families):
            nulls = build_nulls(family, 10, cfg.gammas, 300, derive_seed(23, (0, fi, 0)))
            for ai, alt in enumerate(cfg.alternatives):
                for null in nulls:
                    alone = power(family, alt, 10, null.gamma, 0.05, 200, null,
                                  derive_seed(23, (1, fi, 0, ai)))
                    assert next(cells) == alone
        assert next(cells, None) is None

    def test_helpers_sized_to_all_chunks(self, helper_forks):
        # 2 families x (a 2-chunk null + 2 alternatives of 2 chunks) = 12 chunks.
        cfg = StudyConfig(
            families=(Family.WEIBULL, Family.FRECHET),
            alternatives=(parse_alternative("LN(1)"), parse_alternative("G(2,1)")),
            gammas=(0.5, 5.0), sample_sizes=(10,), replicates=600,
            crit_replicates=700, seed=29,
        )
        serial = run_study(cfg, workers=1)
        assert helper_forks == []
        assert run_study(cfg, workers=5) == serial
        assert len(helper_forks) == 5 - 1
        helper_forks.clear()
        assert run_study(cfg, workers=64) == serial
        assert len(helper_forks) == 12 - 1
        assert not serial.failures and len(serial.results) == 2 * 2 * 2

    def test_failures_collected_without_abort(self, helper_forks):
        cfg = StudyConfig(
            families=(Family.WEIBULL,),
            alternatives=(AlternativeSpec("LN", (1e-12,)), parse_alternative("LN(1)")),
            gammas=(1.0,), sample_sizes=(5,), replicates=200,
            crit_replicates=200, seed=17,
        )
        for workers in (1, 4):  # here, then beside helpers for 2 of the 3 chunks
            study = run_study(cfg, workers=workers)
            assert len(study.failures) == 1
            assert "LN(1e-12)" in study.failures[0]
            assert len(study.results) == 1
        assert len(helper_forks) == 3 - 1

    def test_failed_null_drops_only_its_cells(self, tmp_path):
        # A null that cannot be saved fails its (family, n); the cells of the
        # next (family, n) still pair with their own passes.
        class WeibullSaveFails(NullCache):
            def save(self, null):
                if null.family is Family.WEIBULL:
                    raise OSError("disk full")
                return super().save(null)

        cfg = StudyConfig(
            families=(Family.WEIBULL, Family.PARETO),
            alternatives=(parse_alternative("LN(1)"), parse_alternative("G(2,1)")),
            gammas=(1.0,), sample_sizes=(10,), replicates=200,
            crit_replicates=200, seed=31,
        )
        study = run_study(cfg, cache=WeibullSaveFails(tmp_path))
        assert study.failures == ("null weibull n=10: disk full",)
        assert study.results == tuple(r for r in run_study(cfg).results
                                      if r.family is Family.PARETO)


class TestPowerMonotonicity:
    def test_weibull_vs_lfr_power_grows_with_n(self):
        # The rejection rate against a fixed linear-failure-rate alternative
        # increases from n=20 to n=50 for every gamma. The effect is a few
        # percentage points (the law sits close to the Weibull family), so
        # the replicate count keeps the comparison at the >5 sigma level.
        alt = parse_alternative("LFR(1)")
        for gamma in (0.5, 1.0, 5.0):
            rates = {}
            for n in (20, 50):
                null = build_null(Family.WEIBULL, n, gamma, 4000, seed=101,
                                  workers=2)
                rates[n] = power(Family.WEIBULL, alt, n, gamma, 0.05, 4000,
                                 null, seed=202, workers=2).rate
            assert rates[50] > rates[20], (gamma, rates)


class TestSeedDerivation:
    def test_distinct_and_stable(self):
        a = derive_seed(1, (0, 1, 2))
        b = derive_seed(1, (0, 1, 3))
        assert a != b
        assert derive_seed(1, (0, 1, 2)) == a


class TestCache:
    def test_file_in_the_explicit_layout_loads_bit_for_bit(self, tmp_path):
        # The layout the cache has always written, field by field, so files
        # from either side of a change to NullCache load on the other.
        cache = NullCache(tmp_path)
        null = build_null(Family.PARETO, 8, 0.5, 300, seed=2)
        path = cache._path(Family.PARETO, 8, 0.5, 300, 2)
        assert os.path.basename(path) == f"pareto_n8_g0.5_N300_s2_v{STATISTIC_CODE_VERSION}.npz"
        with open(path, "wb") as fh:
            np.savez(fh, family="pareto", n=8, gamma=np.float64(0.5), replicates=300, seed=2,
                     version=STATISTIC_CODE_VERSION, redraws=null.redraws,
                     sorted_stats=null.sorted_stats)
        hit = cache.load(Family.PARETO, 8, 0.5, 300, 2)
        assert hit == dataclasses.replace(null, sorted_stats=hit.sorted_stats)
        assert hit.sorted_stats.tobytes() == null.sorted_stats.tobytes()
        with np.load(path) as explicit:
            expected = {k: explicit[k] for k in explicit.files}
        cache.save(null)
        with np.load(path) as written:
            assert written.files == list(expected)
            for k, v in expected.items():
                assert written[k].dtype == v.dtype and written[k].tobytes() == v.tobytes(), k

    @pytest.mark.parametrize("redraws", [[0, 0], np.inf, 1j, -1, 2.0],
                             ids=["non-scalar", "inf", "complex", "negative", "float"])
    def test_redraws_that_is_not_a_count_is_a_miss(self, tmp_path, redraws):
        cache = NullCache(tmp_path)
        null = build_null(Family.WEIBULL, 8, 1.0, 300, seed=2)
        with open(cache._path(Family.WEIBULL, 8, 1.0, 300, 2), "wb") as fh:
            np.savez(fh, family="weibull", n=8, gamma=1.0, replicates=300, seed=2,
                     version=STATISTIC_CODE_VERSION, redraws=redraws,
                     sorted_stats=null.sorted_stats)
        assert cache.load(Family.WEIBULL, 8, 1.0, 300, 2) is None

    def test_round_trip_bit_exact(self, tmp_path):
        cache = NullCache(tmp_path)
        null = build_null(Family.FRECHET, 8, 0.5, 300, seed=2, cache=cache)
        again = build_null(Family.FRECHET, 8, 0.5, 300, seed=2, cache=cache)
        assert np.array_equal(null.sorted_stats, again.sorted_stats)
        assert again.redraws == null.redraws
        # the second call came from disk
        hit = cache.load(Family.FRECHET, 8, 0.5, 300, 2)
        assert hit is not None
        assert np.array_equal(hit.sorted_stats, null.sorted_stats)

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = NullCache(tmp_path)
        build_null(Family.WEIBULL, 8, 1.0, 300, seed=2, cache=cache)
        assert cache.load(Family.WEIBULL, 8, 1.0, 300, 3) is None
        assert cache.load(Family.WEIBULL, 9, 1.0, 300, 2) is None
        assert cache.load(Family.WEIBULL, 8, 2.0, 300, 2) is None
        assert cache.load(Family.PARETO, 8, 1.0, 300, 2) is None

    def test_save_leaves_no_temp_files(self, tmp_path):
        cache = NullCache(tmp_path)
        null = build_null(Family.WEIBULL, 8, 1.0, 300, seed=2)
        path = cache.save(null)
        cache.save(null)
        assert os.listdir(tmp_path) == [os.path.basename(path)]

    @pytest.mark.parametrize("content", [b"", b"PK\x03\x04garbage", b"\x93NUMPY"])
    def test_unreadable_file_is_a_miss(self, tmp_path, content):
        cache = NullCache(tmp_path)
        null = build_null(Family.WEIBULL, 8, 1.0, 300, seed=2)
        path = cache.save(null)
        with open(path, "wb") as fh:
            fh.write(content)
        assert cache.load(Family.WEIBULL, 8, 1.0, 300, 2) is None
        cache.save(null)
        assert cache.load(Family.WEIBULL, 8, 1.0, 300, 2) is not None

    def test_other_code_version_is_a_miss(self, tmp_path, monkeypatch):
        cache = NullCache(tmp_path)
        null = build_null(Family.WEIBULL, 8, 1.0, 300, seed=2)
        with monkeypatch.context() as m:
            m.setattr(simulation, "STATISTIC_CODE_VERSION", "8")
            stale = cache.save(null)
        # Under the current version's name, only the header tells the files apart.
        current = cache._path(Family.WEIBULL, 8, 1.0, 300, 2)
        assert stale != current
        os.replace(stale, current)
        assert cache.load(Family.WEIBULL, 8, 1.0, 300, 2) is None


class TestTestSample:
    def test_p_value_in_range_and_reproducible(self):
        rng = np.random.default_rng(8)
        data = rng.exponential(size=40)
        a = gof_test(data, Family.WEIBULL, [0.5, 1.0], 500, seed=3)
        b = gof_test(data, Family.WEIBULL, [0.5, 1.0], 500, seed=3)
        for ra, rb in zip(a, b):
            assert 0.0 < ra.p_value <= 1.0
            assert ra.statistic == rb.statistic
            assert ra.p_value == rb.p_value
