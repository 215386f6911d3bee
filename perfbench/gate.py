"""Correctness gate applied to every benchmarked CLI op.

Each check reads what the program wrote and returns a list of problems; an
empty list means the op passed. ``self_check`` feeds deliberately tampered
copies of a passing op's output back through the same checks and reports any
tampering that got through, so a broken program cannot post fast numbers.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

REL_TOL = 1e-9


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), None
    except (OSError, ValueError) as exc:
        return None, f"{os.path.basename(path)}: not a readable JSON report ({exc})"


def reference_statistics(family: str, data_path: str, gammas) -> list[float]:
    """The statistic per gamma from an in-process ``mincf.statistic()`` call."""
    import mincf

    fam = mincf.Family.parse(family)
    x = np.loadtxt(data_path)
    y = mincf.standardize(x, mincf.mle(fam, x))
    return [mincf.statistic(fam, y, g).value for g in gammas]


def null_p_values(cache_dir: str, family: str, n: int, gammas, replicates: int,
                  seed: int, statistics) -> list[float | None]:
    """p = (1 + #{null >= s}) / (N + 1) from the nulls the op left in its cache."""
    import mincf

    cache = mincf.NullCache(cache_dir)
    fam = mincf.Family.parse(family)
    out = []
    for g, s in zip(gammas, statistics):
        null = cache.load(fam, n, g, replicates, seed)
        if null is None:
            out.append(None)
            continue
        exceed = replicates - int(np.searchsorted(null.sorted_stats, s, side="left"))
        out.append((1 + exceed) / (replicates + 1))
    return out


def check_test(report_path: str, *, family: str, n: int, gammas, replicates: int,
               ref_stats, ref_p) -> list[str]:
    report, err = _load_json(report_path)
    if err:
        return [err]
    problems = []
    inputs = report.get("inputs", {})
    if (inputs.get("family"), inputs.get("n"), inputs.get("replicates")) != (family, n, replicates):
        problems.append(f"report inputs {inputs} do not match the op")
    rows = report.get("results", [])
    if [r.get("gamma") for r in rows] != [float(g) for g in gammas]:
        return problems + [f"report gammas {[r.get('gamma') for r in rows]} != {list(gammas)}"]
    for r, s_ref, p_ref in zip(rows, ref_stats, ref_p):
        s, p = r.get("statistic"), r.get("p_value")
        g = r["gamma"]
        if not isinstance(p, float) or not 0.0 < p <= 1.0:
            problems.append(f"gamma={g}: p-value {p!r} outside (0, 1]")
        elif p_ref is None:
            problems.append(f"gamma={g}: no cached null to check the p-value against")
        elif abs(p - p_ref) > 1e-12:
            problems.append(f"gamma={g}: p-value {p!r} != {p_ref!r} from the cached null")
        if not isinstance(s, float) or not math.isfinite(s):
            problems.append(f"gamma={g}: statistic {s!r} is not finite")
        elif abs(s - s_ref) > REL_TOL * abs(s_ref):
            problems.append(f"gamma={g}: statistic {s!r} != in-process statistic() {s_ref!r}")
    return problems


def critical_values(report_path: str, *, n: int, alphas) -> tuple[list[float] | None, list[str]]:
    """The op's critical values in alpha order, and the problems found."""
    report, err = _load_json(report_path)
    if err:
        return None, [err]
    rows = report.get("results", [])
    if len(rows) != 1 or rows[0].get("n") != n or rows[0].get("gamma") != 1.0:
        return None, [f"expected one row for n={n}, gamma=1, got {rows!r}"]
    table = rows[0].get("critical_values", {})
    if sorted(table) != sorted(str(a) for a in alphas):
        return None, [f"critical values for alphas {sorted(table)}, expected {alphas}"]
    cvs = [table[str(a)] for a in alphas]
    problems = []
    if not all(isinstance(v, float) and math.isfinite(v) and v > 0 for v in cvs):
        problems.append(f"critical values {cvs} are not positive finite numbers")
    by_alpha = sorted(zip(alphas, cvs), reverse=True)
    if any(hi[1] > lo[1] for hi, lo in zip(by_alpha, by_alpha[1:])):
        problems.append(f"critical values {cvs} do not grow as alpha {alphas} falls")
    return cvs, problems


def check_identical(cvs_a, cvs_b) -> list[str]:
    if cvs_a is None or cvs_b is None or cvs_a != cvs_b:
        return [f"critical values differ between two runs at one seed: {cvs_a} vs {cvs_b}"]
    return []


def check_power_study(csv_path: str, manifest_path: str, report_path: str, *,
                      cells: set) -> list[str]:
    problems = []
    try:
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"results CSV unreadable: {exc}"]
    if not rows or rows[0] != ["family", "alternative", "n", "gamma", "rate_percent"]:
        return [f"results CSV header is {rows[:1]}"]
    seen = []
    for row in rows[1:]:
        if len(row) != 5:
            problems.append(f"malformed CSV row {row}")
            continue
        seen.append(tuple(row[:4]))
        try:
            rate = float(row[4])
        except ValueError:
            rate = math.nan
        if not 0.0 <= rate <= 100.0:
            problems.append(f"rate {row[4]!r} outside [0, 100] in {row}")
    if len(seen) != len(set(seen)) or set(seen) != cells:
        missing, extra = cells - set(seen), set(seen) - cells
        problems.append(f"CSV cells: {len(seen)} rows, missing {sorted(missing)[:3]}, "
                        f"unexpected {sorted(extra)[:3]}")
    for path in (manifest_path, report_path):
        manifest, err = _load_json(path)
        if err:
            problems.append(err)
        elif manifest.get("failures") != []:
            problems.append(f"{os.path.basename(path)} lists failures {manifest.get('failures')}")
    return problems


# ---------------------------------------------------------------------------
# Tamper self-check.
# ---------------------------------------------------------------------------

def _rewrite_json(src: str, dst: str, edit) -> str:
    with open(src, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return dst


def _truncate(src: str, dst: str) -> str:
    with open(src, encoding="utf-8") as fh:
        text = fh.read()
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2])
    return dst


def self_check(kind: str, scratch: str, passing: dict) -> list[str]:
    """Tamper with a passing op's output in ``scratch``; return every tampering
    the gate accepted. ``passing`` holds the op's paths and check arguments."""
    os.makedirs(scratch, exist_ok=True)
    tampered = os.path.join(scratch, "tampered.json")
    escaped = []

    def expect_rejected(label, problems):
        if not problems:
            escaped.append(label)

    if kind == "test":
        report, kw = passing["report"], passing["check"]

        def shift_p(d):
            r = d["results"][0]
            r["p_value"] = r["p_value"] / 2 if r["p_value"] > 0.5 else r["p_value"] + 0.25

        def zero_p(d):
            d["results"][-1]["p_value"] = 0.0

        def nudge_stat(d):
            d["results"][1]["statistic"] *= 1.0 + 1e-6

        for label, edit in (("changed p-value", shift_p), ("p-value of 0", zero_p),
                            ("changed statistic", nudge_stat)):
            expect_rejected(label, check_test(_rewrite_json(report, tampered, edit), **kw))
        expect_rejected("truncated report", check_test(_truncate(report, tampered), **kw))

    elif kind == "critvals":
        report, kw, cvs = passing["report"], passing["check"], passing["cvs"]

        def swap(d):
            t = d["results"][0]["critical_values"]
            keys = list(t)
            t[keys[0]], t[keys[-1]] = t[keys[-1]], t[keys[0]]

        def last_digit(d):
            t = d["results"][0]["critical_values"]
            k = next(iter(t))
            t[k] = float(np.nextafter(t[k], np.inf))

        def drop_row(d):
            d["results"] = []

        for label, edit in (("swapped critical values", swap),
                            ("critical value off by one ulp", last_digit),
                            ("dropped row", drop_row)):
            got, problems = critical_values(_rewrite_json(report, tampered, edit), **kw)
            expect_rejected(label, problems + check_identical(got, cvs))

    elif kind == "power-study":
        kw = passing["check"]
        csv_path, manifest, report = passing["csv"], passing["manifest"], passing["report"]
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        bad_csv = os.path.join(scratch, "tampered.csv")

        def csv_variant(new_lines):
            with open(bad_csv, "w", encoding="utf-8") as fh:
                fh.writelines(new_lines)
            return check_power_study(bad_csv, manifest, report, **kw)

        expect_rejected("dropped CSV row", csv_variant(lines[:-1]))
        expect_rejected("duplicated CSV row", csv_variant(lines[:-1] + lines[1:2]))
        fields = lines[1].rstrip("\n").split(",")
        expect_rejected("rate above 100%", csv_variant(
            [lines[0], ",".join(fields[:4] + ["150.00"]) + "\n"] + lines[2:]))

        def add_failure(d):
            d["failures"] = ["power weibull n=20 gamma=1 vs LN(1): injected"]

        expect_rejected("manifest failure", check_power_study(
            csv_path, _rewrite_json(manifest, tampered, add_failure), report, **kw))
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    return escaped
