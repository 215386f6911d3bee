"""Command-line front end: test datasets, tabulate critical values, run studies.

The parser lives in :mod:`mincf.entry`, which parses before this module (and
numpy) is imported; :func:`run` runs a parsed command.

Exit codes: 0 success, 2 input/validation error (an OSError from a
user-supplied path counts as one), 3 numerical failure, 4 internal error,
130 interrupted (Ctrl-C, SIGINT).
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from . import __version__
from .entry import available_cpus, build_parser, main  # noqa: F401  (cli.main parses first)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    EngineError,
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
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell's code for Ctrl-C


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
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}")
        for lineno, raw in enumerate(lines, 1):
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


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _header(command: str) -> dict:
    return {"command": command, "version": __version__,
            "statistic_code_version": STATISTIC_CODE_VERSION}


def _write_report(args, report: dict) -> None:
    if getattr(args, "out", None):
        _write_json(args.out, report)
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
        **_header("test"),
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
            {"gamma": r.gamma, "statistic": r.statistic, "p_value": r.p_value,
             "redraws": r.redraws}
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
                         "critical_values": dict(zip(map(str, alphas), cvs)),
                         "redraws": null.redraws})
            print(f"{n:5d} {gamma:8g} " + " ".join(f"{v:12.6e}" for v in cvs))
    report = {
        **_header("critvals"),
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
    import csv  # only this command writes CSV; the others skip its import

    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open config {args.config}: {exc}")
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{args.config} is not valid UTF-8 JSON: {exc}")
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
        **_header("power-study"),
        "config": config.to_dict(),
        "workers": args.workers,
        "elapsed_seconds": elapsed,
        "failures": list(study.failures),
        "results_csv": os.path.abspath(csv_path),
    }
    manifest_path = os.path.splitext(csv_path)[0] + "_manifest.json"
    _write_json(manifest_path, manifest)
    print(f"manifest written to {manifest_path}")

    for failure in study.failures:
        print(f"warning: {failure}", file=sys.stderr)
    _write_report(args, manifest)
    return EXIT_OK


_COMMANDS = {"test": _cmd_test, "critvals": _cmd_critvals, "power-study": _cmd_power_study}


def run(args) -> int:
    """Run the command ``args`` (from :func:`build_parser`) names; return its
    exit code."""
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateSampleError, ConvergenceError, EngineError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_NUMERIC
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
