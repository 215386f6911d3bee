#!/usr/bin/env python3
"""Run the three desk-scale power studies and write one CSV per family.

Usage: python scripts/run_desk_tables.py [--workers K] [--cache-dir DIR]

At 2000 replicates per cell the rates carry a Monte Carlo standard error of
roughly one percentage point; expect agreement with published full-scale
tables to within a few points.
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from mincf.cli import available_cpus, main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = ["table2_desk.json", "table3_desk.json", "table4_desk.json"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=available_cpus())
    parser.add_argument("--cache-dir", default=os.path.join(HERE, ".null-cache"))
    args = parser.parse_args()

    for name in CONFIGS:
        config = os.path.join(HERE, name)
        print(f"=== {name} ===", flush=True)
        code = cli_main([
            "power-study", "--config", config,
            "--workers", str(args.workers),
            "--cache-dir", args.cache_dir,
        ])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
