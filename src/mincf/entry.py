"""The ``mincf`` command's entry point: parse the arguments, then run.

This module imports only the standard library, so ``--version``, ``--help``
and a usage error (exit 2) return before numpy loads. :mod:`mincf.cli`, and
numpy with it, is imported only to run a command.
"""
from __future__ import annotations

import argparse
import os

from . import __version__
from .errors import GAMMA_MAX, GAMMA_MIN, WEIBULL_GAMMA_MAX

_DEFAULT_CACHE = os.path.join("~", ".cache", "mincf")


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one (a cpuset can be smaller than the machine), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mincf",
        description="Goodness-of-fit tests for Weibull, Pareto I and Frechet "
                    "families based on the min-characteristic function.",
    )
    parser.add_argument("--version", action="version", version=f"mincf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workers", type=int, default=available_cpus(),
                       help="processes for the simulation (default: usable CPUs)")
        p.add_argument("--cache-dir", default=_DEFAULT_CACHE,
                       help="directory for cached null distributions")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the null-distribution cache")
        p.add_argument("--out", help="write a JSON report to this path")

    gamma_help = (f"comma-separated weight parameters, each in [{GAMMA_MIN:g}, {GAMMA_MAX:g}]"
                  f", or in [{GAMMA_MIN:g}, {WEIBULL_GAMMA_MAX:g}] for weibull (default 0.5,1,5)")

    p_test = sub.add_parser("test", help="test a dataset against a family")
    p_test.add_argument("--family", required=True, help="weibull | pareto | frechet")
    p_test.add_argument("--data", required=True, help="data file (one value per line)")
    p_test.add_argument("--gamma", default="0.5,1,5", help=gamma_help)
    p_test.add_argument("--replicates", type=int, default=10000,
                        help="Monte Carlo null replicates (default 10000)")
    p_test.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common(p_test)

    p_cv = sub.add_parser("critvals", help="tabulate Monte Carlo critical values")
    p_cv.add_argument("--family", required=True)
    p_cv.add_argument("--n", default="20,50", help="comma-separated sample sizes")
    p_cv.add_argument("--gamma", default="0.5,1,5", help=gamma_help)
    p_cv.add_argument("--alpha", default="0.10,0.05,0.01")
    p_cv.add_argument("--replicates", type=int, default=20000)
    p_cv.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common(p_cv)

    p_ps = sub.add_parser("power-study", help="run a power study from a JSON config")
    p_ps.add_argument("--config", required=True, help="study config (JSON)")
    p_ps.add_argument("--out-csv", help="output CSV path (default: next to config)")
    common(p_ps)
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``), then run the command; return
    its exit code. argparse itself exits 0 for ``--version``/``--help`` and 2
    for a usage error."""
    args = build_parser().parse_args(argv)
    from . import cli  # numpy and the engine load only for a command that computes

    return cli.run(args)
