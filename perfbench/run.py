#!/usr/bin/env python3
"""End-to-end benchmark of the mincf CLI, with a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {test,critvals,power-study} \
        --seed N --seconds S --trace {0,1}

The benchmark drives ``python -m mincf`` from the checkout's ``src`` in
child processes, one op at a time (a closed loop with one client), with
``--workers`` = min(2, nproc) and BLAS/OpenMP pinned to one thread. All
inputs are generated from ``--seed`` into ``perfbench/work/``; every run
gets a fresh null cache there, so no user cache is read or written.

Workloads (why each was chosen):

* ``test`` - the main user path: per family one ``mincf test`` at n=50,
  gamma=0.5,1,5 on an empty cache (cold: lambda-table build, simulation,
  cache write), then warm ops on new datasets that read the cached nulls
  (CLI import, reference ``statistic()``, cache read). One warm op per
  family makes a cycle; cycles repeat while the run has time.
* ``critvals`` - ``mincf critvals`` for Pareto (closed-form lambda, so the
  table build is bypassed) at n=20, 50 and 200 with ``--no-cache``:
  dominated by the O(n^2) kernel double sum. Rounds run in pairs at one
  seed, so the critical values can be compared bit for bit.
* ``power-study`` - ``mincf power-study`` on table2's fifteen Weibull
  alternatives at n=20 with 500-replicate cells: per-cell fixed costs
  (pool start-up, per-replicate substreams, row-by-row sampling) dominate.

Every op goes through the correctness gate in ``gate.py``; a tamper
self-check then proves the gate rejects altered output. With ``--trace 0``
the last stdout line reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of ``layers.replay`` plus the tracing
overhead: traced minus untraced time of the workload's first CLI op, over
two pairs run in alternating order. A full record of each run (machine,
settings, every op, spans) goes to ``perfbench/results/``.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import gate
import layers
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("test", "critvals", "power-study")
FAMILIES = ("weibull", "pareto", "frechet")
GAMMAS = (0.5, 1.0, 5.0)
TEST_N = 50
TEST_REPLICATES = 1024
MAX_WARM_CYCLES = 16
CRIT_SIZES = (20, 50, 200)
CRIT_REPLICATES = 1024
ALPHAS = (0.10, 0.05, 0.01)
STUDY_N = 20
STUDY_REPLICATES = 500
MAX_ROUNDS = 16
SETUPS = 5
#: Every child op must end by this many seconds after start-up.
RUN_BUDGET_S = 170.0


def _gamma_arg() -> str:
    return ",".join(f"{g:g}" for g in GAMMAS)


class Run:
    """State of one benchmark run: its directory, children and op records."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.perf_counter()
        self.work = HERE / "work" / f"{workload}-s{seed}-t{int(trace)}"
        self.workers = min(2, os.cpu_count() or 1)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.ops: list[dict] = []
        self.n_logs = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def child(self, args: list[str], spans: Path | None = None) -> tuple[int | None, float, str]:
        """Run one mincf CLI process (traced through ``tracing.py`` when
        ``spans`` is given); return (exit code or None on timeout, seconds, log)."""
        if spans is None:
            cmd = [sys.executable, "-m", "mincf", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), *args]
        self.n_logs += 1
        log = self.work / f"op{self.n_logs:03d}.log"
        with open(log, "w", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                code = None
            seconds = time.perf_counter() - start
            try:  # pool workers share the child's process group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        return code, seconds, str(log)

    def record(self, label: str, kind: str, seconds: float, code, log: str,
               problems: list[str], replicates: int = 0, **extra) -> dict:
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:]
            problems = [f"exit code {code}: {tail.strip()}"] + problems
        op = {"label": label, "kind": kind, "seconds": seconds, "ok": not problems,
              "problems": problems, "replicates": replicates, **extra}
        self.ops.append(op)
        return op


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------

def setup(run: Run) -> dict:
    """Generate the inputs from the seed into a fresh work directory, make a
    fresh cache directory and run one ``mincf --version``."""
    if run.work.exists():
        shutil.rmtree(run.work)
    (run.work / "cache").mkdir(parents=True)
    rng = np.random.default_rng([run.seed, WORKLOADS.index(run.workload)])
    plan = {"seeds": [int(s) for s in rng.integers(1, 2**31, MAX_ROUNDS)]}
    if run.workload == "test":
        plan["null_seed"] = plan["seeds"][0]
        for label in ["cold"] + [f"warm{c}" for c in range(MAX_WARM_CYCLES)]:
            for family in FAMILIES:
                x = layers.family_sample(family, TEST_N, rng)
                np.savetxt(run.work / f"{label}_{family}.txt", x, fmt="%.17g")
    elif run.workload == "power-study":
        for r, study_seed in enumerate(plan["seeds"]):
            config = {
                "families": ["weibull"], "alternatives": list(layers.TABLE2_ALTERNATIVES),
                "gammas": list(GAMMAS), "sample_sizes": [STUDY_N], "alpha": 0.05,
                "replicates": STUDY_REPLICATES, "seed": study_seed,
            }
            (run.work / f"study{r}.json").write_text(json.dumps(config), encoding="utf-8")
    (run.work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    code, _, log = run.child(["--version"])
    if code != 0:
        raise SystemExit(f"mincf --version failed; see {log}")
    return plan


# ---------------------------------------------------------------------------
# Ops: one CLI invocation each, gated.
# ---------------------------------------------------------------------------

def _cache_state(directory: Path) -> dict:
    return {p.name: p.stat().st_mtime_ns for p in directory.glob("*.npz")}


def test_op(run: Run, plan: dict, label: str, family: str, cache: Path,
            cold: bool, spans: Path | None = None) -> dict:
    data = run.work / f"{label}_{family}.txt"
    out = run.work / f"{label}_{family}{'_traced' if spans else ''}.out.json"
    before = _cache_state(cache)
    code, seconds, log = run.child(
        ["test", "--family", family, "--data", str(data), "--gamma", _gamma_arg(),
         "--replicates", str(TEST_REPLICATES), "--seed", str(plan["null_seed"]),
         "--workers", str(run.workers), "--cache-dir", str(cache), "--out", str(out)],
        spans)
    problems = []
    after = _cache_state(cache)
    changed = sorted(k for k in after if before.get(k) != after[k])
    if len(changed) != (len(GAMMAS) if cold else 0):
        problems.append(f"{'cold' if cold else 'warm'} op changed cache files {changed}")
    check = {}
    if code == 0:
        stats = gate.reference_statistics(family, str(data), GAMMAS)
        p_ref = gate.null_p_values(str(cache), family, TEST_N, GAMMAS, TEST_REPLICATES,
                                   plan["null_seed"], stats)
        check = dict(family=family, n=TEST_N, gammas=GAMMAS, replicates=TEST_REPLICATES,
                     ref_stats=stats, ref_p=p_ref)
        problems += gate.check_test(str(out), **check)
    replicates = len(GAMMAS) * TEST_REPLICATES if cold else 0
    op = run.record(f"test {label} {family}", "cold" if cold else "warm", seconds, code, log,
                    problems, replicates, family=family)
    op["passing"] = {"report": str(out), "check": check}
    return op


def critvals_op(run: Run, n: int, seed: int, tag: str, spans: Path | None = None) -> dict:
    out = run.work / f"critvals_n{n}_{tag}.out.json"
    code, seconds, log = run.child(
        ["critvals", "--family", "pareto", "--n", str(n), "--gamma", "1",
         "--alpha", ",".join(f"{a:g}" for a in ALPHAS), "--replicates", str(CRIT_REPLICATES),
         "--seed", str(seed), "--workers", str(run.workers), "--no-cache",
         "--cache-dir", str(run.work / "cache"), "--out", str(out)],
        spans)
    cvs, problems = (gate.critical_values(str(out), n=n, alphas=ALPHAS) if code == 0
                     else (None, []))
    if _cache_state(run.work / "cache"):
        problems.append("--no-cache op wrote to the cache directory")
    op = run.record(f"critvals n={n} {tag}", f"n{n}", seconds, code, log, problems,
                    CRIT_REPLICATES, n=n, seed=seed)
    op["cvs"] = cvs
    op["passing"] = {"report": str(out), "check": {"n": n, "alphas": ALPHAS}, "cvs": cvs}
    return op


def study_cells() -> set:
    return {("weibull", a, str(STUDY_N), f"{g:g}")
            for a in layers.TABLE2_ALTERNATIVES for g in GAMMAS}


def study_op(run: Run, r: int, tag: str, spans: Path | None = None) -> dict:
    cache = run.work / "cache" / tag
    csv_path = run.work / f"{tag}.csv"
    code, seconds, log = run.child(
        ["power-study", "--config", str(run.work / f"study{r}.json"),
         "--workers", str(run.workers), "--cache-dir", str(cache),
         "--out-csv", str(csv_path), "--out", str(run.work / f"{tag}.out.json")],
        spans)
    check = {"cells": study_cells()}
    paths = {"csv": str(csv_path), "manifest": str(run.work / f"{tag}_manifest.json"),
             "report": str(run.work / f"{tag}.out.json")}
    problems = gate.check_power_study(paths["csv"], paths["manifest"], paths["report"],
                                      **check) if code == 0 else []
    cells = len(check["cells"])
    replicates = len(GAMMAS) * 2 * STUDY_REPLICATES + cells * STUDY_REPLICATES
    op = run.record(f"power-study {tag}", "study", seconds, code, log, problems,
                    replicates, cells=cells)
    op["passing"] = {**paths, "check": check}
    return op


# ---------------------------------------------------------------------------
# Workload loops.
# ---------------------------------------------------------------------------

def measure_test(run: Run, plan: dict) -> dict:
    start = time.perf_counter()
    cache = run.work / "cache"
    cold = [test_op(run, plan, "cold", f, cache, cold=True) for f in FAMILIES]
    cycles = []
    while not cycles or (time.perf_counter() - start < run.seconds
                         and len(cycles) < MAX_WARM_CYCLES):
        cycles.append([test_op(run, plan, f"warm{len(cycles)}", f, cache, cold=False)
                       for f in FAMILIES])
    cold_s = sum(op["seconds"] for op in cold)
    warm = [op["seconds"] for cycle in cycles for op in cycle]
    wall = cold_s + statistics.median(sum(op["seconds"] for op in c) for c in cycles)
    return {
        "wall_s": (wall, "s", len(cycles)),
        "replicates_per_s": (sum(op["replicates"] for op in cold) / wall, "1/s", len(cycles)),
        "cold_s": (cold_s, "s", len(cold)),
        "warm_s.p50": (statistics.median(warm), "s", len(warm)),
        **{f"warm_s.{f}": (statistics.median(c[i]["seconds"] for c in cycles), "s", len(cycles))
           for i, f in enumerate(FAMILIES)},
    }


def measure_critvals(run: Run, plan: dict) -> dict:
    start = time.perf_counter()
    rounds = []
    while not rounds or (time.perf_counter() - start < run.seconds
                         and len(rounds) < MAX_ROUNDS):
        seed = plan["seeds"][len(rounds) // 2]
        for tag in ("a", "b"):
            rounds.append([critvals_op(run, n, seed, f"r{len(rounds)}{tag}")
                           for n in CRIT_SIZES])
        for first, second in zip(*rounds[-2:]):
            problems = gate.check_identical(first["cvs"], second["cvs"])
            if problems:
                second["problems"] += problems
                second["ok"] = False
    wall = statistics.median(sum(op["seconds"] for op in r) for r in rounds)
    out = {
        "wall_s": (wall, "s", len(rounds)),
        "replicates_per_s": (len(CRIT_SIZES) * CRIT_REPLICATES / wall, "1/s", len(rounds)),
    }
    for i, n in enumerate(CRIT_SIZES):
        out[f"null_s.n{n}"] = (statistics.median(r[i]["seconds"] for r in rounds), "s",
                               len(rounds))
    return out


def measure_study(run: Run, plan: dict) -> dict:
    start = time.perf_counter()
    ops = []
    while not ops or (time.perf_counter() - start < run.seconds and len(ops) < MAX_ROUNDS):
        ops.append(study_op(run, len(ops), f"study{len(ops)}"))
    wall = statistics.median(op["seconds"] for op in ops)
    return {
        "wall_s": (wall, "s", len(ops)),
        "replicates_per_s": (ops[0]["replicates"] / wall, "1/s", len(ops)),
        "cells_per_s": (ops[0]["cells"] / wall, "1/s", len(ops)),
    }


MEASURE = {"test": measure_test, "critvals": measure_critvals, "power-study": measure_study}


def tracing_overhead(run: Run, plan: dict) -> float:
    """Traced minus untraced time of the workload's first CLI op: the median
    over two pairs, run in alternating order."""
    spans = HERE / "results" / f"{run.work.name}.cli_spans.json"
    diffs, first_cvs = [], None
    for pair, order in enumerate(((False, True), (True, False))):
        seconds = {}
        for traced in order:
            tag = f"{'traced' if traced else 'plain'}{pair}"
            if traced:
                spans.unlink(missing_ok=True)
            if run.workload == "test":
                cache = run.work / "cache" / tag
                cache.mkdir()
                op = test_op(run, plan, "cold", "weibull", cache, cold=True,
                             spans=spans if traced else None)
            elif run.workload == "critvals":
                op = critvals_op(run, 50, plan["seeds"][0], tag, spans if traced else None)
                first_cvs = first_cvs or op["cvs"]
                op["problems"] += gate.check_identical(first_cvs, op["cvs"])
            else:
                op = study_op(run, 0, tag, spans if traced else None)
            if traced and not spans.exists():
                op["problems"].append("traced CLI wrote no spans")
            op["ok"] = not op["problems"]
            seconds[traced] = op["seconds"]
        diffs.append(seconds[True] - seconds[False])
    return statistics.median(diffs)


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mincf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mincf" / "__init__.py").is_file():
        print(f"error: no mincf sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    (HERE / "results").mkdir(exist_ok=True)
    setup_times = []
    for _ in range(1 if run.trace else SETUPS):
        t0 = time.perf_counter()
        plan = setup(run)
        setup_times.append(time.perf_counter() - t0)

    if run.trace:
        tracer = Tracer()
        with tracer.span("layers.replay") as rec:
            layer_metrics, problems = layers.replay(tracer, run.work, run.seed, run.env)
        run.record("layer replay", "layers", Tracer.duration(rec), 0, "", problems)
        metrics = dict(layer_metrics)
        metrics["trace.overhead_s"] = (tracing_overhead(run, plan), "s", 2)
        tracer.dump(str(HERE / "results" / f"{run.work.name}.spans.json"))
    else:
        metrics = MEASURE[run.workload](run, plan)
        metrics["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB", 1)

    failed = sum(not op["ok"] for op in run.ops)
    failed_ratio = failed / len(run.ops)
    passing = next((op["passing"] for op in reversed(run.ops)
                    if op["ok"] and "passing" in op), None)
    escaped = (gate.self_check(run.workload, str(run.work / "tamper"), passing)
               if passing else ["no passing op to tamper with"])
    correct = failed == 0 and not escaped

    info = machine()
    settings = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds,
                "trace": int(run.trace), "workers": run.workers,
                "thread_env": {v: run.env[v] for v in THREAD_VARS}}
    print("machine: " + json.dumps(info))
    print("settings: " + json.dumps(settings))
    for op in run.ops:
        status = "ok" if op["ok"] else "FAILED: " + "; ".join(op["problems"])
        print(f"op {op['label']:<28s} {op['seconds']:9.3f} s  {status}")
    if escaped:
        print("self-check: gate accepted tampered output: " + ", ".join(escaped))
    else:
        print("self-check: gate rejected every tampered output")
    print(f"{'metric':<36s} {'value':>14s} {'unit':<6s} samples")
    for name, (value, unit, count) in sorted(metrics.items()):
        print(f"{name:<36s} {value:14.6g} {unit:<6s} {count}")
    print(f"{'failed_ratio':<36s} {failed_ratio:14.6g} {'ratio':<6s} {len(run.ops)}")

    record = {
        "machine": info, "settings": settings, "correct": correct,
        "self_check_escaped": escaped, "failed_ratio": failed_ratio,
        "setup_s": setup_times,
        "metrics": {k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in metrics.items()},
        "ops": [{k: v for k, v in op.items() if k != "passing"} for op in run.ops],
    }
    (HERE / "results" / f"{run.work.name}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    shutil.rmtree(run.work, ignore_errors=True)

    names = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "per_layer" if run.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": correct, "attempted": len(run.ops), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
