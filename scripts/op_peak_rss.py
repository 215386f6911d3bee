#!/usr/bin/env python3
"""Peak resident memory and time of one ``python -m mincf ...`` process.

Usage, from the root of a checkout::

    python3 scripts/op_peak_rss.py [--repeat N] -- critvals --family pareto --n 200 --no-cache

Runs the command from the checkout's ``src``, with BLAS/OpenMP pinned to one
thread as ``perfbench/run.py`` runs its ops, and prints one line per run::

    peak_mb wall_s cpu_s

``peak_mb`` is the child's ``ru_maxrss`` in MB: the maximum over the child and
the helpers it forked and waited for. ``wall_s`` is ``perf_counter`` from just
before the child starts until a blocking ``os.wait4`` reaps it, so it falls on
no polling grid. ``cpu_s`` is ``ru_utime + ru_stime`` from the same rusage,
the child's and its waited-for helpers' CPU time.

This script imports the standard library alone. On Linux an exec'd child
starts with its parent's high-water RSS, so a child started by a parent that
has loaded numpy reports that parent's peak whenever its own is lower; from
this small parent the reading is the CLI's own.
"""
import argparse
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def measure(argv: list[str]) -> tuple[float, float, float]:
    """Run ``python -m mincf *argv`` to completion; return its (peak MB, wall s, CPU s)."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mincf", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode != 0:
        raise SystemExit(f"mincf {' '.join(argv)} exited with code {proc.returncode}")
    # Linux reports ru_maxrss in kilobytes.
    return usage.ru_maxrss / 1024.0, wall, usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=1, help="runs of the command (default 1)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the mincf arguments, after --")
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv or args.repeat < 1:
        parser.error("give a mincf command after -- and --repeat >= 1")
    for _ in range(args.repeat):
        peak, wall, cpu = measure(argv)
        print(f"{peak:.2f} {wall:.4f} {cpu:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
