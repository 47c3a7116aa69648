"""Spans around flowcat's public functions, for the traced benchmark run.

As a script it runs one CLI query in this interpreter:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json <flowcat arguments>

It wraps the public functions of each flowcat module, binds each wrapper in
every module that imported the function by name (for example
flowcat.lidskii.kostant) and in the verify suite table, runs flowcat.cli.main
and writes the spans to TRACE.json when the query ends.  A span is
(name, start, end, parent, size): size is the length of the result of
enumerate_tableaux and vertex_tableaux and the monomial count of the
integrand given to constant_term.  The generators weak_compositions and
staircase_matrices get no span, since their work interleaves with the
caller's; their calls and yielded items are counted by the calling span's
name instead, and their time is part of the caller's self time.

The parent side, `layer_metrics`, turns the trace files of one round of
queries into the per-layer metrics.  It imports nothing from flowcat.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import perf_counter

MODULES = ("compositions", "core", "lidskii", "ctengine", "faces", "closedform", "verify")
GENERATORS = {"compositions.weak_compositions", "ctengine.staircase_matrices"}
# Arithmetic helpers called millions of times per query; a span on each call
# would cost more than the work it measures.
UNWRAPPED = {"compositions.compositions_weight", "compositions.binomial",
             "compositions.multinomial", "faces.tableau_dimension"}
SIZES = {
    "faces.enumerate_tableaux": lambda args, result: len(result),
    "faces.vertex_tableaux": lambda args, result: len(result),
    "ctengine.constant_term": lambda args, result: len(args[0].numerator),
}


class Tracer:
    """Spans and generator tallies of one query, kept in memory until dump."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, size]
        self.stack = [-1]
        self.generators: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])

    def span(self, name: str, fn):
        spans, stack, size = self.spans, self.stack, SIZES.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if size is not None:
                rec[4] = size(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1]
            tally = self.generators[(name, self.spans[parent][0] if parent >= 0 else "")]
            tally[0] += 1
            return self._count(fn(*args, **kwargs), tally)

        return wrapper

    @staticmethod
    def _count(items, tally):
        n = 0
        try:
            for item in items:
                n += 1
                yield item
        finally:
            tally[1] += n

    def install(self) -> dict[str, str]:
        """Wrap and rebind; returns verify suite name -> traced function name."""
        import flowcat.cli  # noqa: F401  (imports every module below)

        wrapped: dict[int, object] = {}
        names: dict[int, str] = {}
        for mod in (sys.modules[f"flowcat.{m}"] for m in MODULES):
            short = mod.__name__.split(".")[1]
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                make = self.counted if name in GENERATORS else self.span
                wrapped[id(fn)], names[id(fn)] = make(name, fn), name
        for mod in [m for n, m in sys.modules.items() if n == "flowcat" or n.startswith("flowcat.")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
        suites = sys.modules["flowcat.verify"].SUITES
        suite_names = {}
        for key, fn in list(suites.items()):
            suite_names[key] = names[id(fn)]
            suites[key] = wrapped[id(fn)]
        return suite_names

    def dump(self, path: str, suites: dict[str, str]) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "suites": suites,
                       "generators": [[g, p, c, y] for (g, p), (c, y) in self.generators.items()]},
                      fh)


def _main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    suites = tracer.install()
    from flowcat.cli import main

    try:
        return main(argv)
    finally:
        tracer.dump(trace_path, suites)


# --- parent side ------------------------------------------------------------

SUITE_NAMES = ("thm1", "cry", "thm2", "thm3", "morris", "lemma-gen", "lemma-expand",
               "faces", "lidskii-vs-ehrhart")
COUNTS = ("core.kostant.calls", "compositions.weak_compositions.calls",
          "compositions.weak_compositions.yielded", "lidskii.ehrhart_polynomial.calls",
          "ctengine.constant_term.calls", "ctengine.constant_term.monomials",
          "ctengine.staircase_matrices.yielded", "faces.enumerate_tableaux.calls",
          "faces.enumerate_tableaux.tableaux", "lidskii.lidskii_points.useful_ratio",
          "faces.vertex_tableaux.useful_ratio")
SECONDS = ("core.kostant.self_s", "lidskii.lidskii_volume.self_s",
           "lidskii.lidskii_points.self_s", "lidskii.lidskii_volume.total_s",
           "lidskii.lidskii_points.total_s", "lidskii.ehrhart_polynomial.self_s",
           "ctengine.constant_term.self_s", "ctengine.verify_reduction_bijection.self_s",
           "faces.enumerate_tableaux.self_s", "verify.vertices_by_acyclic_support.self_s",
           "closedform.total_s") + tuple(f"verify.suite.{s}.total_s" for s in SUITE_NAMES)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the queries of one round.  self_s is a
    span's duration minus its children's, total_s its whole duration.  A
    ratio whose base is 0 (the layer did not run) reads 0."""
    m: dict[str, float] = defaultdict(float)
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        suite_of = {fn: key for key, fn in trace["suites"].items()}
        for k, (name, start, end, parent, size) in enumerate(spans):
            dur = end - start
            parent_name = spans[parent][0] if parent >= 0 else ""
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += dur - child[k]
            m[f"{name}.total_s"] += dur
            if size is not None:
                m[f"{name}.size"] += size
            if name.startswith("closedform.") and not parent_name.startswith("closedform."):
                m["closedform.total_s"] += dur
            if name in suite_of:
                m[f"verify.suite.{suite_of[name]}.total_s"] += dur
            if name == "core.kostant" and parent_name == "lidskii.lidskii_points":
                m["lidskii_points.kostant_calls"] += 1
            if name == "faces.enumerate_tableaux" and parent_name == "faces.vertex_tableaux":
                m["vertex_tableaux.built"] += size
        for gen, parent_name, calls, yielded in trace["generators"]:
            m[f"{gen}.calls"] += calls
            m[f"{gen}.yielded"] += yielded
            if gen == "compositions.weak_compositions" and parent_name == "lidskii.lidskii_points":
                m["lidskii_points.compositions"] += yielded
    m["ctengine.constant_term.monomials"] = m["ctengine.constant_term.size"]
    m["faces.enumerate_tableaux.tableaux"] = m["faces.enumerate_tableaux.size"]
    visited = m["lidskii_points.compositions"]
    m["lidskii.lidskii_points.useful_ratio"] = (
        m["lidskii_points.kostant_calls"] / visited if visited else 0.0)
    built = m["vertex_tableaux.built"]
    m["faces.vertex_tableaux.useful_ratio"] = (
        m["faces.vertex_tableaux.size"] / built if built else 0.0)
    return {name: m[name] for name in COUNTS + SECONDS}


if __name__ == "__main__":
    sys.exit(_main())
