#!/usr/bin/env python3
"""Do two checkouts give the same bytes? Compare their outputs record by record.

Usage::

    python3 scripts/compare_trees.py PARENT CHANGE

PARENT and CHANGE are checkout roots. Each runs this file's record code in a
fresh interpreter whose PYTHONPATH is that checkout's ``src`` alone, at
``workers`` 1 and 2, and yields one record per:

- null: the sha256 of the sorted statistics and the redraw count of each
  ``build_nulls`` null, for 3 families x n in {10, 20, 50, 200, 2000} x gamma
  in {0.5, 1, 5}, 1100 replicates, seed 7;
- alternative pass: the sha256 of the (gamma, replicate) statistics and the
  redraw count of each engine pass against a law, for 3 families x n in
  {20, 50, 200} x the ten laws of ``GRID``, 1100 replicates, seed 11;
- CLI output: the exit code and the sha256 of stdout, stderr and each file
  written by ``mincf test``, ``critvals`` and ``power-study`` (``--no-cache``),
  with the run's temporary directory and the checkout's path replaced by
  ``<tmp>`` and ``<tree>``, and ``elapsed_seconds`` taken out;
- acceptance line: each ``size`` and ``power`` line that the checkout's
  ``tests/test_acceptance.py`` prints for the tests ``GRID["criteria"]``
  selects (``pytest -k``), run once: its key is the text before the colon,
  its value the percentages after it.

It prints one line per record: ``=`` and the value if both checkouts agree,
``!`` and both values if not. It exits 0 if every record agrees, 1 if any
differs and 2 if a checkout's run fails; the acceptance run's known failing
test is not a run failure. Both checkouts take about 55 s on two CPUs. This
script imports the standard library alone; the record code imports numpy and
the checkout's mincf in the child.
"""
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

#: What each checkout runs. ``compare`` takes any grid of this shape.
GRID = {
    "families": ["weibull", "pareto", "frechet"],
    "gammas": [0.5, 1.0, 5.0],
    "workers": [1, 2],
    "nulls": {"sizes": [10, 20, 50, 200, 2000], "replicates": 1100, "seed": 7},
    "passes": {"sizes": [20, 50, 200], "replicates": 1100, "seed": 11,
               "laws": ["W(1.5,1)+1", "P(2,1)", "F(2,1)", "G(0.8,1)", "G(2,1)", "LN(1)",
                        "LN(0,1.2)", "HN(1)", "LFR(0.5)", "CH(0.8)+1"]},
    "cli": {"replicates": 1100, "sizes": "10,50",
            "study": {"alternatives": ["LN(1)", "G(2,1)", "HN(1)", "W(1.5,1)+1"],
                      "gammas": [0.5, 1, 5], "sample_sizes": [20], "replicates": 300,
                      "crit_replicates": 1100, "seed": 3}},
    "criteria": "criterion_3 or criterion_4",
}
#: A criterion line as ``-s`` prints it, after the progress mark of the test before.
_CRITERION_LINE = re.compile(r"^[.FEsx]?  ((?:size|power) [^:\n]*): *(.*)$", re.M)


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.tobytes()).hexdigest()


def null_records(grid, workers):
    from mincf.families import Family
    from mincf.simulation import build_nulls

    spec = grid["nulls"]
    for name in grid["families"]:
        for n in spec["sizes"]:
            for null in build_nulls(Family(name), n, grid["gammas"], spec["replicates"],
                                    spec["seed"], workers=workers):
                yield (f"null {name} n={n} gamma={null.gamma:g} workers={workers}",
                       f"{_sha(null.sorted_stats)} redraws={null.redraws}")


def pass_records(grid, workers):
    from mincf import simulation
    from mincf.families import Family, parse_alternative

    spec = grid["passes"]
    passes = [(Family(name), n, tuple(grid["gammas"]), spec["replicates"], spec["seed"],
               parse_alternative(law))
              for name in grid["families"] for n in spec["sizes"] for law in spec["laws"]]
    for (family, n, *_, alt), outcome in zip(passes, simulation._run_passes(passes, workers)):
        key = f"pass {family.value} n={n} {alt} workers={workers}"
        if isinstance(outcome, Exception):
            yield key, f"{type(outcome).__name__}: {outcome}"
        else:
            stats, redraws = outcome
            yield key, f"{_sha(stats)} redraws={redraws}"


def cli_records(grid, workers):
    """Run each command in a new temporary directory; record what it printed and wrote."""
    import mincf

    tree = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(mincf.__file__))))
    spec = grid["cli"]
    common = ["--replicates", str(spec["replicates"]), "--workers", str(workers), "--no-cache"]
    commands = []
    for name in grid["families"]:
        commands += [
            (f"test {name}", ["test", "--family", name, "--data", "data.txt", "--seed", "5",
                              *common, "--out", "report.json"]),
            (f"critvals {name}", ["critvals", "--family", name, "--n", spec["sizes"],
                                  "--seed", "3", *common, "--out", "report.json"]),
        ]
    commands.append(("power-study", ["power-study", "--config", "study.json", "--out-csv",
                                     "study.csv", "--workers", str(workers), "--no-cache",
                                     "--out", "report.json"]))
    for label, argv in commands:
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "data.txt"), "w") as fh:  # 40 exponential values
                fh.writelines(f"{v!r}\n" for v in _exponential_data())
            with open(os.path.join(tmp, "study.json"), "w") as fh:
                json.dump({"families": grid["families"], **spec["study"]}, fh)
            proc = subprocess.run([sys.executable, "-m", "mincf", *argv], cwd=tmp,
                                  capture_output=True)
            paths = {os.path.realpath(tmp): b"<tmp>", tmp: b"<tmp>", tree: b"<tree>"}
            key = f"cli {label} workers={workers}"
            yield f"{key} exit", str(proc.returncode)
            yield f"{key} stdout", _sha(_scrub(proc.stdout, paths))
            yield f"{key} stderr", _sha(_scrub(proc.stderr, paths))
            for out in sorted(set(os.listdir(tmp)) - {"data.txt", "study.json"}):
                with open(os.path.join(tmp, out), "rb") as fh:
                    yield f"{key} {out}", _sha(_scrub(fh.read(), paths))


def criterion_records(grid):
    """Run the checkout's acceptance tests that ``grid["criteria"]`` selects; record
    each criterion line they print."""
    src = os.path.realpath(os.environ["PYTHONPATH"])
    proc = subprocess.run([sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s",
                           "-q", "-p", "no:cacheprovider", "-k", grid["criteria"]],
                          cwd=os.path.dirname(src), capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a test failed, as the known red one does
        raise SystemExit(f"acceptance run exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return parse_criterion_lines(proc.stdout)


def parse_criterion_lines(text: str) -> list:
    """``(key, percentages)`` for each ``size`` and ``power`` line of an acceptance run,
    the key's runs of spaces made one."""
    return [(" ".join(key.split()), value) for key, value in _CRITERION_LINE.findall(text)]


def _scrub(data: bytes, paths: dict) -> bytes:
    """``data`` without its elapsed_seconds line, and with each path replaced by its tag."""
    data = re.sub(rb'\n *"elapsed_seconds": [^\n]*', b"", data)
    for path, tag in paths.items():
        data = data.replace(os.fsencode(path), tag)
    return data


def _exponential_data():
    import numpy as np

    return np.random.default_rng(5).exponential(size=40).tolist()


def child(grid):
    """The record code, run under one checkout: print each record as a JSON line."""
    import mincf

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if os.path.dirname(os.path.realpath(os.path.dirname(mincf.__file__))) != src:
        raise SystemExit(f"imported mincf from {mincf.__file__}, not from {src}")
    for workers in grid["workers"]:
        for records in (null_records, pass_records, cli_records):
            for record in records(grid, workers):
                print(json.dumps(record), flush=True)
    if "criteria" in grid:
        for record in criterion_records(grid):
            print(json.dumps(record), flush=True)


def tree_records(tree, grid) -> dict:
    """Run :func:`child` under ``tree``'s ``src``; return its records by key, in order."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    code = (f"import json, sys; sys.path.insert(1, {HERE!r}); import compare_trees; "
            f"compare_trees.child(json.loads(sys.argv[1]))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(grid)], env=env,
                          cwd=tempfile.gettempdir(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: record run exited {proc.returncode}:\n{proc.stderr}")
    return dict(json.loads(line) for line in proc.stdout.splitlines())


def report(parent: dict, change: dict) -> tuple[list[str], int]:
    """One line per record, marked ``!`` where the two sides differ, and the count that do."""
    lines, differ = [], 0
    for key in list(parent) + [k for k in change if k not in parent]:
        old, new = parent.get(key, "(missing)"), change.get(key, "(missing)")
        if old == new:
            lines.append(f"= {key}  {old}")
        else:
            differ += 1
            lines.append(f"! {key}  parent: {old}  change: {new}")
    return lines, differ


def compare(parent_tree, change_tree, grid=GRID) -> int:
    try:
        parent, change = tree_records(parent_tree, grid), tree_records(change_tree, grid)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines, differ = report(parent, change)
    print("\n".join(lines))
    print(f"{len(lines)} records, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
