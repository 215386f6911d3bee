"""The names the benchmark in ``perfbench/`` reaches into mincf by.

``perfbench/tracing.py`` swaps module attributes for recording wrappers and
``perfbench/layers.py`` calls layer functions directly, so a rename in
mincf breaks a traced benchmark run (``perfbench/run.py --trace 1``) only
when it runs. These tests resolve those names in the suite instead.
"""
import os

import numpy as np
import pytest

import mincf
from mincf import Family, simulation, special, stat

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_cli_targets_resolve_and_see_the_engine(tracing):
    tracer = tracing.Tracer()
    targets = tracing.cli_targets(tracer)
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    with tracer.patched(targets):
        simulation.build_null(Family.WEIBULL, 10, 1.0, 100, 0)
    assert [getattr(owner, attr) for owner, attr, _ in targets] == originals
    names = {rec["name"] for rec in tracer.spans}
    assert {"simulation.build_null", "families.sample_null", "estimation.fit_batch",
            "stat.batch_statistics"} <= names
    fits = [rec for rec in tracer.spans if rec["name"] == "estimation.fit_batch"]
    assert sum(rec["attrs"]["rows"] for rec in fits) >= 100


def test_traced_fits_see_every_block(tracing):
    # At n = 200 each attempt fits its rows in blocks; the engine calls
    # fit_batch through simulation's namespace, so the tracer sees them all.
    tracer = tracing.Tracer()
    with tracer.patched(tracing.cli_targets(tracer)):
        null = simulation.build_null(Family.WEIBULL, 200, 1.0, 600, 0)
    fits = [rec for rec in tracer.spans if rec["name"] == "estimation.fit_batch"]
    assert len(fits) > 2  # 600 replicates are two chunks
    assert sum(rec["attrs"]["rows"] for rec in fits) == 600 + null.redraws


def test_layer_replay_names_resolve(tracing):
    import layers  # noqa: F401  (imports only numpy and tracing)

    for name in ("lambda_table", "sample_alternative", "build_null", "power",
                 "NullDistribution", "NullCache"):
        assert hasattr(simulation, name), name
    assert callable(special.exp_integral_e1) and callable(special.bessel_k)
    stat.lambda_table.cache_clear()
    stat.l_constant.cache_clear()
    for family in Family:
        panels = len(stat.lambda_table(family, 1.0).coeffs)  # layers.py counts panels so
        assert (panels == 0) if family is Family.PARETO else (panels >= 1), family
        assert stat.l_constant(family, 1.0) > 0


def test_statistic_call_shapes_resolve():
    # layers.py scores a (64, n) matrix positionally as (family, gamma, rows);
    # gate.py reads .value of the package root's statistic(family, y, gamma).
    rows = np.random.default_rng(0).standard_exponential((64, 20))
    stats = stat.batch_statistics(Family.WEIBULL, 1.0, rows)
    assert stats.shape == (64,)
    for family in Family:
        value = mincf.statistic(family, rows[0], 1.0).value
        assert isinstance(value, float)
        assert value == stat.statistic(family, rows[0], 1.0).value
    assert stat.statistic(Family.WEIBULL, rows[0], 1.0).value == stats[0]
