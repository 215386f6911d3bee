"""Per-layer replay for traced runs.

Replays the shapes the three workloads send through mincf by calling the
public function of each module (families, estimation, stat, special,
simulation, cli) directly, with a span around every call. Unless a metric
names otherwise, a chunk is 512 replicates of the Weibull family at gamma=1.

The split of a ``build_null`` chunk comes from spans recorded inside one
``build_null`` call: the wrappers from ``tracing.engine_targets`` plus a
proxy around the lambda table time sampling, fitting, the batch statistic
and its lambda evaluation; what is left of the ``build_null`` span is the
engine's own time (substream set-up and the per-row Python loop). The same
chunk is also run without wrappers, and the difference is reported as the
tracing gap.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import Tracer, engine_targets

FAMILIES = ("weibull", "pareto", "frechet")
GAMMAS = (0.5, 1.0, 5.0)
SIZES = (20, 50, 200)
CHUNK = 512
#: table2's fifteen alternatives to the Weibull null.
TABLE2_ALTERNATIVES = (
    "W(1,0.5)", "W(0.5,1)", "G(0.8,1)", "G(2,1)", "G(3,1)", "LN(1)", "LN(2.5)",
    "HN(1)", "LFR(0.2)", "LFR(0.5)", "LFR(0.8)", "LFR(1)", "CH(0.8)", "CH(1)",
    "CH(1.5)",
)


class _TracedTable:
    """Stands in for a lambda table so its evaluations get their own span."""

    def __init__(self, tracer: Tracer, table):
        self._tracer, self._table = tracer, table

    def __call__(self, z):
        with self._tracer.span("stat.lambda_eval"):
            return self._table(z)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _median_time(repeats: int, fn, *args, **kwargs) -> float:
    return statistics.median(_timed(fn, *args, **kwargs)[0] for _ in range(repeats))


def family_sample(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the family at a random (c, phi), by inverse transform."""
    c, phi = rng.uniform(0.5, 5.0), rng.uniform(0.8, 3.0)
    e = rng.standard_exponential(n)
    if family == "weibull":
        return c * e ** (1.0 / phi)
    if family == "pareto":
        return c * np.exp(e / phi)
    return c * e ** (-1.0 / phi)


def replay(tracer: Tracer, work, seed: int, env: dict) -> tuple[dict, list[str]]:
    """Run every layer probe; return (metrics, problems)."""
    import mincf
    from mincf import cli, simulation, special, stat

    rng = np.random.default_rng([seed, 7])
    metrics: dict[str, tuple[float, str, int]] = {}
    problems: list[str] = []
    weibull = mincf.Family.WEIBULL

    def put(name, value, unit="s", samples=1):
        metrics[name] = (float(value), unit, samples)

    # cli ------------------------------------------------------------------
    import_times = []
    for _ in range(3):
        with tracer.span("cli.import") as rec:
            subprocess.run([sys.executable, "-c", "import mincf.cli"], env=env, check=True)
        import_times.append(Tracer.duration(rec))
    put("cli.import_s", statistics.median(import_times), samples=3)
    data_path = work / "layer_data.txt"
    np.savetxt(data_path, family_sample("weibull", 50, rng), fmt="%.17g")
    put("cli.read_data_s", _median_time(25, cli.read_data_file, str(data_path)), samples=25)

    # special --------------------------------------------------------------
    z = 10.0 ** rng.uniform(-3.0, 2.5, 200_000)
    with tracer.span("special.exp_integral_e1") as rec:
        special.exp_integral_e1(z)
    put("special.exp1_s", Tracer.duration(rec))
    with tracer.span("special.bessel_k") as rec:
        for order in (0.0, 0.5, 1.0, 3.0):
            for arg in (0.1, 1.0, 2.0 * np.sqrt(2.0), 10.0):
                special.bessel_k(order, arg)
    put("special.bessel_k_s", Tracer.duration(rec))

    # stat: one-off tables and constants, then the reference statistic ------
    stat.lambda_table.cache_clear()
    stat.l_constant.cache_clear()
    for name in FAMILIES:
        family = mincf.Family.parse(name)
        build = panels = const = 0.0
        for g in GAMMAS:
            with tracer.span("stat.lambda_table", family=name, gamma=g) as rec:
                table = stat.lambda_table(family, g)
            build += Tracer.duration(rec)
            panels += len(table.coeffs)
            with tracer.span("stat.l_constant", family=name, gamma=g) as rec:
                stat.l_constant(family, g)
            const += Tracer.duration(rec)
        put(f"stat.lambda_table_build_s.{name}", build)
        put(f"stat.l_constant_s.{name}", const)
        if name != "pareto":
            put(f"stat.lambda_table_panels.{name}", panels, "count")
        x = family_sample(name, 50, rng)
        y = mincf.standardize(x, mincf.mle(family, x))
        with tracer.span("stat.statistic", family=name) as rec:
            stat.statistic(family, y, 1.0)
        put(f"stat.statistic_s.{name}", Tracer.duration(rec))

    # simulation: one build_null chunk per n, untraced and split by spans ----
    traced_table = lambda family, gamma: _TracedTable(tracer, stat.lambda_table(family, gamma))
    targets = engine_targets(tracer) + [(simulation, "lambda_table", traced_table)]
    nulls = {}
    for n in SIZES:
        # The first large batch pays the page faults of its pair-grid
        # temporaries; take them before timing so both runs below start warm.
        stat.batch_statistics(weibull, 1.0, rng.standard_exponential((64, n)))
        null_seed = int(rng.integers(2**31))
        plain, null = _timed(simulation.build_null, weibull, n, 1.0, CHUNK, null_seed, workers=1)
        with tracer.patched(targets), tracer.span("simulation.build_null", n=n) as root:
            traced = simulation.build_null(weibull, n, 1.0, CHUNK, null_seed, workers=1)
        if not np.array_equal(null.sorted_stats, traced.sorted_stats):
            problems.append(f"traced build_null at n={n} changed the statistics")
        nulls[n] = null
        batch = tracer.total(root, "stat.batch_statistics")
        lam = tracer.total(root, "stat.lambda_eval")
        fits = tracer.descendants(root, "estimation.fit_batch")
        put(f"simulation.build_null_s.n{n}", plain)
        put(f"trace.build_null_gap_s.n{n}", Tracer.duration(root) - plain)
        put(f"simulation.overhead_s.n{n}", tracer.self_time(root))
        put(f"families.sample_s.n{n}", tracer.total(root, "families.sample_null"))
        put(f"estimation.fit_s.n{n}", sum(Tracer.duration(r) for r in fits))
        put(f"stat.batch_statistics_s.n{n}", batch)
        put(f"stat.lambda_eval_s.n{n}", lam)
        put(f"stat.kernel_s.n{n}", batch - lam)
        if n == 20:
            put("estimation.fit_failed.n20", sum(r["attrs"]["failed"] for r in fits), "count")
            put("simulation.redraws.n20", traced.redraws, "count")
        if n == 50:
            rows = sum(r["attrs"]["rows"] for r in fits)
            put("estimation.fit_iters.n50",
                sum(r["attrs"]["iterations"] for r in fits) / rows, "count")

    # families: alternatives, one chunk of per-row substreams each ----------
    sample_alt = 0.0
    for text in TABLE2_ALTERNATIVES:
        spec = mincf.parse_alternative(text)
        rngs = [np.random.default_rng([seed, i]) for i in range(CHUNK)]
        with tracer.span("families.sample_alternative", alternative=text) as rec:
            for r in rngs:
                mincf.sample_alternative(spec, 20, r)
        sample_alt += Tracer.duration(rec)
    put("families.sample_alt_s.n20", sample_alt)

    # simulation: power at n=20 on one and two workers ----------------------
    alt = mincf.parse_alternative("LN(1)")
    power_seed = int(rng.integers(2**31))
    times = {1: [], 2: []}
    rates = set()
    for _ in range(3):
        for w in (1, 2):
            with tracer.span("simulation.power", workers=w) as rec:
                res = simulation.power(weibull, alt, 20, 1.0, 0.05, 2 * CHUNK, nulls[20],
                                       power_seed, workers=w)
            times[w].append(Tracer.duration(rec))
            rates.add(res.rejections)
    if len(rates) != 1:
        problems.append(f"power() rejections differ across worker counts: {sorted(rates)}")
    put("simulation.power_s.w1", statistics.median(times[1]), samples=3)
    put("simulation.power_s.w2", statistics.median(times[2]), samples=3)

    # simulation: the on-disk null cache ------------------------------------
    big = simulation.NullDistribution(
        family=weibull, n=50, gamma=1.0, replicates=10_000,
        sorted_stats=np.sort(rng.random(10_000)), seed=1,
    )
    cache = simulation.NullCache(work / "layer_cache")
    put("simulation.cache_save_s", _median_time(5, cache.save, big), samples=5)
    put("simulation.cache_load_s", _median_time(5, cache.load, weibull, 50, 1.0, 10_000, 1),
        samples=5)
    loaded = cache.load(weibull, 50, 1.0, 10_000, 1)
    if loaded is None or not np.array_equal(loaded.sorted_stats, big.sorted_stats):
        problems.append("NullCache did not round-trip 10k statistics")
    return metrics, problems
