"""Acceptance suite: every criterion at its stated tolerance.

Runs the statistic-correctness oracles, exact invariance, size calibration,
power spot checks against the published full-scale rates, the consistency
limit, special-function accuracy and determinism. One PASS/FAIL line is
printed per criterion (run pytest with -s to see them as they happen).

Power checks default to the desk scale (2000 replicates, +-4 percentage
points); set MINCF_ACCEPTANCE_FULL=1 for the full 10000-replicate runs at
+-3 points. Critical values always come from 20000-replicate nulls.
"""
import math
import os
import time

import mpmath as mp
import numpy as np
import pytest

from mincf import (
    Family,
    ParamPair,
    bessel_k,
    build_null,
    critical_value,
    derive_seed,
    exp_integral_e1,
    mle,
    parse_alternative,
    power,
    standardize,
    statistic,
)
from mincf.estimation import fit_batch
from mincf.families import sample_alternative, sample_null
from mincf.simulation import NullCache
from mincf.stat import batch_statistics

from oracles import mle_limit, population_delta, statistic_direct

SEED = 20230817
WORKERS = min(8, os.cpu_count() or 1)
FULL_SCALE = os.environ.get("MINCF_ACCEPTANCE_FULL", "") == "1"
N_CRIT = 20000
N_SIZE = 10000
N_POWER = 10000 if FULL_SCALE else 2000
POWER_TOL = 0.03 if FULL_SCALE else 0.04

FAMILIES = list(Family)
GAMMAS = (0.5, 1.0, 5.0)


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {marker} - {detail}", flush=True)
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def null_store(tmp_path_factory):
    cache = NullCache(tmp_path_factory.mktemp("nulls"))

    def get(family, n, gamma):
        fi = FAMILIES.index(family)
        gi = GAMMAS.index(gamma)
        seed = derive_seed(SEED, (0, fi, n, gi))
        return build_null(family, n, gamma, N_CRIT, seed,
                          workers=WORKERS, cache=cache)

    return get


def test_criterion_1_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for family in FAMILIES:
        for n in (5, 20):
            done = 0
            while done < 10:
                x = sample_null(family, ParamPair(1.0, 1.0), n, rng)
                try:
                    y = standardize(x, mle(family, x))
                except Exception:
                    continue  # rare degenerate small-sample draw
                done += 1
                for gamma in GAMMAS:
                    a = statistic(family, y, gamma).value
                    b = statistic_direct(family, y, gamma)
                    worst = max(worst, abs(a - b) / max(a, 1e-12))
    elapsed = time.time() - started
    report(
        "1 (oracle equivalence)",
        worst <= 1e-6 and elapsed < 120,
        f"max relative gap {worst:.2e} (tol 1e-6), {elapsed:.0f}s",
    )


def test_criterion_2_exact_invariance():
    started = time.time()
    rng = np.random.default_rng(SEED + 1)
    worst_stat = 0.0
    worst_refit = 0.0
    for family in FAMILIES:
        x = sample_null(family, ParamPair(1.0, 1.0), 20, rng)
        y = standardize(x, mle(family, x))
        base = statistic(family, y, 1.0).value
        for _ in range(100):
            a, b = rng.uniform(0.2, 5.0, size=2)
            xt = a * x ** (1.0 / b)
            est = mle(family, xt)
            yt = standardize(xt, est)
            refit = mle(family, yt)
            worst_refit = max(
                worst_refit,
                abs(refit.params.c - 1.0),
                abs(refit.params.phi - 1.0),
            )
            value = statistic(family, yt, 1.0).value
            worst_stat = max(worst_stat, abs(value - base) / max(base, 1e-12))
    elapsed = time.time() - started
    report(
        "2 (exact invariance)",
        worst_stat <= 1e-6 and worst_refit <= 1e-8 and elapsed < 120,
        f"max statistic gap {worst_stat:.2e} (tol 1e-6), "
        f"max refit gap {worst_refit:.2e} (tol 1e-8), {elapsed:.0f}s",
    )


def test_criterion_3_size_calibration(null_store):
    started = time.time()
    sizes = {}
    for family in FAMILIES:
        for n in (20, 50):
            for gamma in GAMMAS:
                null = null_store(family, n, gamma)
                cv = critical_value(null, 0.05)
                fi = FAMILIES.index(family)
                gi = GAMMAS.index(gamma)
                fresh = build_null(
                    family, n, gamma, N_SIZE,
                    derive_seed(SEED, (1, fi, n, gi)), workers=WORKERS,
                )
                size = float((fresh.sorted_stats > cv).mean())
                sizes[(family.value, n, gamma)] = size
                print(f"  size {family.value:8s} n={n:2d} gamma={gamma:3g}: "
                      f"{100 * size:.2f}%", flush=True)
    elapsed = time.time() - started
    bad = {k: v for k, v in sizes.items() if not 0.035 <= v <= 0.065}
    report(
        "3 (size calibration)",
        not bad,
        f"all 18 sizes in [3.5%, 6.5%]" if not bad else f"out of band: {bad}; "
        f"{elapsed:.0f}s",
    )
    print(f"  criterion 3 runtime: {elapsed:.0f}s "
          f"(budget 900s on 8 cores; {WORKERS} here)", flush=True)


# Reference full-scale rejection percentages for the spot-checked cells.
POWER_CASES = [
    (Family.WEIBULL, "LN(2.5)", 50, (57, 54, 65)),
    (Family.PARETO, "W(1.5,1)+1", 20, (62, 61, 63)),
    (Family.PARETO, "CH(1.5)+1", 20, (73, 74, 76)),
    (Family.FRECHET, "HN(1)", 20, (82, 83, 86)),
    (Family.FRECHET, "G(2,1)", 50, (96, 96, 97)),
]

# The remaining reference row, checked separately below: its target rates are
# unattainable for the linear-failure-rate law actually specified (see the
# test docstring), so the check is expected to stay red.
LFR_ROW = (Family.WEIBULL, "LFR(0.2)", 50, (95, 92, 89))


def _run_power_row(null_store, family, alt_text, n, expected, row_id):
    alt = parse_alternative(alt_text)
    failures = []
    for gamma, target in zip(GAMMAS, expected):
        null = null_store(family, n, gamma)
        fi = FAMILIES.index(family)
        gi = GAMMAS.index(gamma)
        res = power(
            family, alt, n, gamma, 0.05, N_POWER, null,
            derive_seed(SEED, (2, fi, n, gi, row_id)),
            workers=WORKERS,
        )
        gap = abs(res.rate - target / 100.0)
        print(f"  power {family.value:8s} vs {alt_text:12s} n={n:2d} "
              f"gamma={gamma:3g}: {100 * res.rate:5.1f}% "
              f"(reference {target}%)", flush=True)
        if gap > POWER_TOL:
            failures.append((family.value, alt_text, n, gamma,
                             round(100 * res.rate, 1), target))
    return failures


def test_criterion_4_power_spot_checks(null_store):
    started = time.time()
    failures = []
    for row_id, (family, alt_text, n, expected) in enumerate(POWER_CASES):
        failures += _run_power_row(null_store, family, alt_text, n, expected, row_id)
    elapsed = time.time() - started
    scale = "full" if FULL_SCALE else "desk"
    report(
        "4 (power spot checks)",
        not failures,
        f"{scale} scale N={N_POWER}, tol +-{100 * POWER_TOL:.0f}pp, "
        f"{elapsed:.0f}s" + (f"; out of tolerance: {failures}" if failures else ""),
    )


def test_criterion_4_lfr_row_is_unattainable(null_store):
    """The LFR(0.2) reference row cannot be met by any implementation.

    The linear-failure-rate law with density (1+0.2x)exp(-x-0.1x^2) lies
    within sup-distance 0.011 of its best-fitting Weibull member
    (c=0.892, phi=1.084); by Pinsker's inequality every level-5% test of the
    Weibull family has power below ~0.28 against it at n=50, and a correctly
    sized Anderson-Darling cross-check reaches only ~11%. The quoted targets
    (95/92/89%) therefore cannot describe this law. This check runs the row
    faithfully as stated and is expected to fail; see the decisions ledger
    for the full analysis.
    """
    family, alt_text, n, expected = LFR_ROW
    failures = _run_power_row(null_store, family, alt_text, n, expected, len(POWER_CASES))
    report(
        "4b (LFR(0.2) reference row, known-unattainable)",
        not failures,
        f"N={N_POWER}, tol +-{100 * POWER_TOL:.0f}pp; out of tolerance: "
        f"{failures} - any test's power against this law at n=50 is "
        f"information-bounded near 28%, so the quoted 95/92/89% cannot be met",
    )


def test_criterion_5_consistency():
    started = time.time()
    alt = parse_alternative("G(3,1)")
    limit = mle_limit(Family.WEIBULL, alt)
    delta = population_delta(Family.WEIBULL, alt, 1.0, limit)

    def mean_scaled_statistic(n):
        vals = []
        for i in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(1234, spawn_key=(i,)))
            x = sample_alternative(alt, n, rng)[None, :]
            c, phi, ok, _ = fit_batch(Family.WEIBULL, x)
            y = (x / c[:, None]) ** phi[:, None]
            vals.append(batch_statistics(Family.WEIBULL, 1.0, y)[0] / n)
        return float(np.mean(vals))

    m500 = mean_scaled_statistic(500)
    m2000 = mean_scaled_statistic(2000)
    gap2000 = abs(m2000 - delta) / delta
    trend_ok = abs(m2000 - delta) < abs(m500 - delta)
    elapsed = time.time() - started
    report(
        "5 (consistency)",
        gap2000 <= 0.10 and trend_ok and elapsed < 300,
        f"limit {delta:.3e}; mean T/n: n=500 {m500:.3e}, n=2000 {m2000:.3e} "
        f"(gap {100 * gap2000:.1f}%, tol 10%); trend toward limit: {trend_ok}; "
        f"{elapsed:.0f}s",
    )


def k3_defining_integral(z: float) -> float:
    """High-precision quadrature of the K_3 defining integral
    K_3(z) = (z/2)^3 / 2 int_0^inf e^(-t - z^2/(4t)) t^-4 dt (DLMF 10.32.10).

    In the log variable t = t_p e^s, dt = t ds, about the integrand's peak t_p,
    the root of t^2 + 4t = z^2/4, the mass lies within a few units of s = 0 for
    every z, so fixed pieces of s serve the whole grid.
    """
    with mp.workdps(30):
        zm = mp.mpf(z)
        tp = -2 + mp.sqrt(4 + zm * zm / 4)

        def integrand(s):
            t = tp * mp.e ** s
            return mp.e ** (-t - zm * zm / (4 * t)) * t ** -3

        integral = mp.quad(integrand, [-40, -8, -2, 0, 2, 8, 40], maxdegree=6)
        return float(0.5 * (zm / 2) ** 3 * integral)


def e1_defining_integral(z: float) -> float:
    """High-precision quadrature of int_z^inf e^(-u)/u du."""
    with mp.workdps(30):
        zm = mp.mpf(z)
        hi = max(z + 40.0, 40.0)
        ladder = [p for p in np.geomspace(z, hi, 24) if p > z]
        pts = [zm, *ladder, mp.inf]
        return float(mp.quad(lambda u: mp.e ** (-u) / u, pts, maxdegree=10))


def test_criterion_6_special_functions():
    started = time.time()

    worst_k = 0.0
    for z in np.geomspace(1e-3, 50.0, 100):
        ref = k3_defining_integral(float(z))
        worst_k = max(worst_k, abs(bessel_k(3.0, float(z)) - ref) / ref)

    worst_e1 = 0.0
    for z in np.geomspace(1e-10, 650.0, 100):
        ref = e1_defining_integral(float(z))
        worst_e1 = max(worst_e1, abs(exp_integral_e1(float(z)) - ref) / ref)

    worst_half = 0.0
    for z in np.geomspace(1e-3, 50.0, 100):
        closed = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
        worst_half = max(worst_half, abs(bessel_k(0.5, float(z)) - closed) / closed)

    elapsed = time.time() - started
    report(
        "6 (special functions)",
        worst_k <= 1e-10 and worst_e1 <= 1e-10 and worst_half <= 1e-12
        and elapsed < 60,
        f"K_3 max rel {worst_k:.2e} (tol 1e-10), E1 max rel {worst_e1:.2e} "
        f"(tol 1e-10), K_1/2 closed form {worst_half:.2e} (tol 1e-12), "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_determinism():
    started = time.time()
    null_1 = build_null(Family.FRECHET, 20, 1.0, 1200, seed=SEED, workers=1)
    null_8 = build_null(Family.FRECHET, 20, 1.0, 1200, seed=SEED, workers=8)
    stats_identical = np.array_equal(null_1.sorted_stats, null_8.sorted_stats)

    alt = parse_alternative("LN(1)")
    pw_1 = power(Family.FRECHET, alt, 20, 1.0, 0.05, 800, null_1, SEED + 3,
                 workers=1)
    pw_8 = power(Family.FRECHET, alt, 20, 1.0, 0.05, 800, null_8, SEED + 3,
                 workers=8)
    counts_identical = pw_1.rejections == pw_8.rejections
    elapsed = time.time() - started
    report(
        "7 (determinism)",
        stats_identical and counts_identical,
        f"sorted stats bit-identical: {stats_identical}, "
        f"power counts equal: {counts_identical} "
        f"({pw_1.rejections} vs {pw_8.rejections}), {elapsed:.0f}s",
    )
