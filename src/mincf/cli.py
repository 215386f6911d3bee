"""Command-line front end: test datasets, tabulate critical values, run studies.

Exit codes: 0 success, 2 input/validation error (an OSError from a
user-supplied path counts as one), 3 numerical failure, 4 internal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    EngineError,
    IntegrationError,
)
from .families import Family, parse_alternative
from .simulation import (
    STATISTIC_CODE_VERSION,
    NullCache,
    StudyConfig,
    build_null,  # unused here; perfbench traces cli.build_null
    build_nulls,
    critical_value,
    run_study,
    gof_test,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

_DEFAULT_CACHE = os.path.join("~", ".cache", "mincf")


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one (a cpuset can be smaller than the machine), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def read_data_file(path: str) -> np.ndarray:
    """Parse a data file: one positive real per line (or single-column CSV).

    Blank lines are skipped; a leading non-numeric row is treated as a
    header. Any other unparsable or nonpositive entry is an error naming
    the offending line.
    """
    values = []
    header_allowed = True
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc}")
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip().rstrip(",").strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise ConfigError(f"{path}, line {lineno}: cannot parse {line!r} as a number")
            header_allowed = False
            if not np.isfinite(value) or value <= 0:
                raise ConfigError(f"{path}, line {lineno}: values must be positive, got {line!r}")
            values.append(value)
    if len(values) < 3:
        raise ConfigError(f"{path}: need at least 3 positive values, found {len(values)}")
    return np.asarray(values)


def _float_list(text: str) -> list[float]:
    try:
        out = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as a comma-separated float list")
    if not out:
        raise ConfigError("empty list")
    return out


def _int_list(text: str) -> list[int]:
    out = _float_list(text)
    if not all(v.is_integer() for v in out):  # also False for inf and nan
        raise ConfigError(f"{text!r} is not a comma-separated list of integers")
    return [int(v) for v in out]


def _resolve_cache(args) -> NullCache | None:
    if args.no_cache:
        return None
    return NullCache(os.path.expanduser(args.cache_dir))


def _write_report(args, report: dict) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")


def _cmd_test(args) -> int:
    data = read_data_file(args.data)
    family = Family.parse(args.family)
    gammas = _float_list(args.gamma)
    cache = _resolve_cache(args)
    results = gof_test(
        data, family, gammas, args.replicates, args.seed,
        workers=args.workers, cache=cache,
    )
    est = results[0].estimate
    print(f"family: {family.value}   n = {data.size}")
    print(f"MLE: c = {est.params.c:.6g}, phi = {est.params.phi:.6g} "
          f"(converged in {est.iterations} iterations, log-likelihood {est.log_likelihood:.6g})")
    print(f"null replicates: {args.replicates}   seed: {args.seed}")
    print(f"{'gamma':>8s} {'statistic':>14s} {'p-value':>10s}")
    for r in results:
        print(f"{r.gamma:8g} {r.statistic:14.6e} {r.p_value:10.4f}")
    report = {
        "command": "test",
        "version": __version__,
        "statistic_code_version": STATISTIC_CODE_VERSION,
        "inputs": {
            "data": os.path.abspath(args.data),
            "n": int(data.size),
            "family": family.value,
            "gammas": gammas,
            "replicates": args.replicates,
            "seed": args.seed,
            "workers": args.workers,
        },
        "estimate": {
            "c": est.params.c,
            "phi": est.params.phi,
            "iterations": est.iterations,
            "log_likelihood": est.log_likelihood,
        },
        "results": [
            {"gamma": r.gamma, "statistic": r.statistic, "p_value": r.p_value}
            for r in results
        ],
    }
    _write_report(args, report)
    return EXIT_OK


def _cmd_critvals(args) -> int:
    family = Family.parse(args.family)
    sizes = _int_list(args.n)
    gammas = _float_list(args.gamma)
    alphas = _float_list(args.alpha)
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {a}")
    cache = _resolve_cache(args)
    rows = []
    header = f"{'n':>5s} {'gamma':>8s} " + " ".join(f"cv({a:g})".rjust(12) for a in alphas)
    print(f"family: {family.value}   replicates: {args.replicates}   seed: {args.seed}")
    print(header)
    for n in sizes:
        nulls = build_nulls(
            family, n, gammas, args.replicates, args.seed,
            workers=args.workers, cache=cache,
        )
        for gamma, null in zip(gammas, nulls):
            cvs = [critical_value(null, a) for a in alphas]
            rows.append({"n": n, "gamma": gamma,
                         "critical_values": dict(zip(map(str, alphas), cvs))})
            print(f"{n:5d} {gamma:8g} " + " ".join(f"{v:12.6e}" for v in cvs))
    report = {
        "command": "critvals",
        "version": __version__,
        "statistic_code_version": STATISTIC_CODE_VERSION,
        "inputs": {
            "family": family.value, "n": sizes, "gammas": gammas,
            "alphas": alphas, "replicates": args.replicates,
            "seed": args.seed, "workers": args.workers,
        },
        "results": rows,
    }
    _write_report(args, report)
    return EXIT_OK


def _cmd_power_study(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open config {args.config}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config} is not valid JSON: {exc}")
    config = StudyConfig.from_dict(raw)
    cache = _resolve_cache(args)

    started = time.perf_counter()
    done = [0]
    total = (len(config.families) * len(config.sample_sizes)
             * len(config.gammas) * len(config.alternatives))

    def progress(res):
        done[0] += 1
        print(
            f"[{done[0]}/{total}] {res.family.value} vs {res.alternative} "
            f"n={res.n} gamma={res.gamma:g}: {100 * res.rate:.1f}%",
            flush=True,
        )

    study = run_study(config, workers=args.workers, cache=cache, progress=progress)
    elapsed = time.perf_counter() - started

    csv_path = args.out_csv or (os.path.splitext(args.config)[0] + "_results.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "alternative", "n", "gamma", "rate_percent"])
        for r in study.results:
            writer.writerow([r.family.value, str(r.alternative), r.n,
                             f"{r.gamma:g}", f"{100 * r.rate:.2f}"])
    print(f"results written to {csv_path}")

    manifest = {
        "command": "power-study",
        "version": __version__,
        "statistic_code_version": STATISTIC_CODE_VERSION,
        "config": config.to_dict(),
        "workers": args.workers,
        "elapsed_seconds": elapsed,
        "failures": list(study.failures),
        "results_csv": os.path.abspath(csv_path),
    }
    manifest_path = os.path.splitext(csv_path)[0] + "_manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"manifest written to {manifest_path}")

    for failure in study.failures:
        print(f"warning: {failure}", file=sys.stderr)
    if getattr(args, "out", None):
        _write_report(args, manifest)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mincf",
        description="Goodness-of-fit tests for Weibull, Pareto I and Frechet "
                    "families based on the min-characteristic function.",
    )
    parser.add_argument("--version", action="version", version=f"mincf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--workers", type=int, default=available_cpus(),
                       help="processes for the simulation (default: usable CPUs)")
        p.add_argument("--cache-dir", default=_DEFAULT_CACHE,
                       help="directory for cached null distributions")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the null-distribution cache")
        p.add_argument("--out", help="write a JSON report to this path")

    p_test = sub.add_parser("test", help="test a dataset against a family")
    p_test.add_argument("--family", required=True, help="weibull | pareto | frechet")
    p_test.add_argument("--data", required=True, help="data file (one value per line)")
    p_test.add_argument("--gamma", default="0.5,1,5",
                        help="comma-separated weight parameters (default 0.5,1,5)")
    p_test.add_argument("--replicates", type=int, default=10000,
                        help="Monte Carlo null replicates (default 10000)")
    common(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_cv = sub.add_parser("critvals", help="tabulate Monte Carlo critical values")
    p_cv.add_argument("--family", required=True)
    p_cv.add_argument("--n", default="20,50", help="comma-separated sample sizes")
    p_cv.add_argument("--gamma", default="0.5,1,5")
    p_cv.add_argument("--alpha", default="0.10,0.05,0.01")
    p_cv.add_argument("--replicates", type=int, default=20000)
    common(p_cv)
    p_cv.set_defaults(func=_cmd_critvals)

    p_ps = sub.add_parser("power-study", help="run a power study from a JSON config")
    p_ps.add_argument("--config", required=True, help="study config (JSON)")
    p_ps.add_argument("--out-csv", help="output CSV path (default: next to config)")
    common(p_ps)
    p_ps.set_defaults(func=_cmd_power_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateSampleError, ConvergenceError, IntegrationError, EngineError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
