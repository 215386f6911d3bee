"""In-memory span recorder for the benchmark's traced runs.

A span is (id, name, start, end, parent, attrs). Spans are recorded around
calls into mincf's public functions by swapping the module attribute that
the caller looks up for a recording wrapper; nothing inside mincf changes.
Spans stay in memory and are written out once, when the run ends.

Run as a script, this module is the traced CLI: it installs wrappers on the
layer functions the CLI reaches, runs ``mincf.cli.main`` and writes the
spans as JSON::

    python3 perfbench/tracing.py SPANS_JSON mincf-args...

Spans recorded inside pool worker processes stay in those processes; the
wrappers still cost their time there, which is what the tracing overhead
measures.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` recording a span per call; ``on_result(rec, result)``
        may attach counts taken from the result."""
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, result)
                return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Swap ``(owner, attr, wrapper)`` triples in, and restore them on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- queries ------------------------------------------------------------

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def descendants(self, root: dict, name: str) -> list[dict]:
        """Spans called ``name`` anywhere below ``root``."""
        below = {root["id"]}
        out = []
        for rec in self.spans[root["id"] + 1:]:
            if rec["parent"] in below:
                below.add(rec["id"])
                if rec["name"] == name:
                    out.append(rec)
        return out

    def total(self, root: dict, name: str) -> float:
        return sum(self.duration(r) for r in self.descendants(root, name))

    def self_time(self, root: dict) -> float:
        """Duration of ``root`` minus the time its direct children cover."""
        children = [r for r in self.spans if r["parent"] == root["id"]]
        return self.duration(root) - sum(self.duration(r) for r in children)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def engine_targets(tracer: Tracer):
    """Wrappers for the layers one ``build_null``/``power`` call passes through."""
    from mincf import simulation

    def fit_counts(rec, result):
        _, _, ok, iterations = result
        rec["attrs"].update(rows=int(ok.size), failed=int((~ok).sum()),
                            iterations=int(iterations.sum()))

    return [
        (simulation, "sample_null", tracer.wrap("families.sample_null", simulation.sample_null)),
        (simulation, "sample_alternative",
         tracer.wrap("families.sample_alternative", simulation.sample_alternative)),
        (simulation, "fit_batch", tracer.wrap("estimation.fit_batch", simulation.fit_batch, fit_counts)),
        (simulation, "batch_statistics",
         tracer.wrap("stat.batch_statistics", simulation.batch_statistics)),
    ]


def cli_targets(tracer: Tracer):
    """Wrappers for every layer entry the CLI process reaches."""
    from mincf import cli, simulation

    targets = engine_targets(tracer)
    for name in ("mle", "standardize", "statistic", "lambda_table", "l_constant",
                 "build_null", "power"):
        targets.append((simulation, name, tracer.wrap(f"simulation.{name}", getattr(simulation, name))))
    for name in ("read_data_file", "gof_test", "build_null", "run_study"):
        targets.append((cli, name, tracer.wrap(f"cli.{name}", getattr(cli, name))))
    for name in ("load", "save"):
        targets.append((simulation.NullCache, name,
                        tracer.wrap(f"simulation.cache_{name}", getattr(simulation.NullCache, name))))
    return targets


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from mincf import cli

    tracer = Tracer()
    with tracer.patched(cli_targets(tracer)):
        with tracer.span("cli.main"):
            code = cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
