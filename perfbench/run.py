"""flowcat benchmark: one workload of CLI queries, checked and measured.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from src/ and is not
installed.  Every query is one `flowcat` invocation in a fresh interpreter,
sent by a single client in a closed loop.  The run repeats whole rounds of
the workload's query list for about S seconds and prints, as its last line,
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 each query runs
untraced and then traced, and the run reports the per-layer ones.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import oracles
import tracer
from runner import OUT, ROOT, SRC, run_query
from workloads import WORKLOADS, Query, write_files

SETUP_QUERY = ["points", "--graph", "complete:3", "--netflow", "1,0,-1", "--method", "kostant"]
SETUP_REPEATS = 7


class Run:
    def __init__(self, workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.start = time.perf_counter()
        # Queries still running at the deadline (160 s in at the benchmark's
        # 50 s runs) are killed and count as failed, and no round starts
        # after it, so that a run ends whatever the program does.
        self.deadline = self.start + 2 * seconds + 60
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def query(self, q: Query, trace_path=None):
        """Run and check one query; returns its QueryResult, or None when it
        was not run because the deadline had passed."""
        self.attempted += 1
        left = self.deadline - time.perf_counter()
        if left <= 0:
            self.failed += 1
            return None
        r = run_query(list(q.args), timeout_s=left, trace_path=trace_path)
        problem = None
        if r.timed_out:
            problem = "timed out"
        elif r.returncode != 0:
            problem = f"exit {r.returncode}: {r.stderr.strip()[-200:]}"
        else:
            try:
                problem = q.check(r.stdout)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output {r.stdout.strip()[:200]!r}: {exc}"
            if problem is not None and not q.known_fault:
                self.problems.append(f"flowcat {' '.join(q.args)}: {problem}")
        if problem is not None:
            self.failed += 1
            print(f"failed: flowcat {' '.join(q.args)}: {problem}", file=sys.stderr)
        return r

    def rounds(self, body) -> list:
        """Repeat body() at least once, and again while the next round is
        expected to end less than half a round past the time limit and the
        deadline has not passed; returns each round's result."""
        out, times = [], []
        t0 = time.perf_counter()
        while not out or (
            time.perf_counter() - t0 + statistics.median(times) / 2 < self.seconds
            and time.perf_counter() < self.deadline
        ):
            r0 = time.perf_counter()
            out.append(body())
            times.append(time.perf_counter() - r0)
        return out


def untraced_round(run: Run) -> list:
    """The round's QueryResults, in query order (None for a query not run)."""
    return [run.query(q) for q in run.workload.queries]


def per_query_median(rounds: list, field: str) -> float:
    """Sum over the query list of each query's median over rounds."""
    total = 0.0
    for k in range(len(rounds[0])):
        done = [getattr(r[k], field) for r in rounds if r[k] is not None]
        total += statistics.median(done) if done else 0.0
    return total


def traced_round(run: Run) -> tuple[float, dict[str, float]]:
    """One round in which each query runs untraced and then traced, back to
    back so that the machine's drift cancels; returns (traced minus untraced
    wall time over the list, per-layer metrics of the traced queries)."""
    folder = OUT / "trace" / run.workload.name
    folder.mkdir(parents=True, exist_ok=True)
    overhead, traces = 0.0, []
    for k, q in enumerate(run.workload.queries):
        path = folder / f"query{k}.json"
        path.unlink(missing_ok=True)
        plain = run.query(q)
        traced = run.query(q, trace_path=path)
        if plain is not None and traced is not None and path.exists():
            overhead += traced.wall_s - plain.wall_s
            traces.append(json.loads(path.read_text()))
    return overhead, tracer.layer_metrics(traces)


def measure(run: Run, trace: bool) -> dict[str, tuple[float, str]]:
    if not trace:
        setup = [run_query(SETUP_QUERY, timeout_s=60) for _ in range(SETUP_REPEATS)]
        if any(r.returncode != 0 or '"points": "2"' not in r.stdout for r in setup):
            run.problems.append("setup query failed")
        rounds = run.rounds(lambda: untraced_round(run))
        done = [r for results in rounds for r in results if r is not None]
        return {
            "setup_s": (statistics.median(r.wall_s for r in setup), "s"),
            "wall_s": (per_query_median(rounds, "wall_s"), "s"),
            "cpu_s": (per_query_median(rounds, "cpu_s"), "s"),
            "query_p50_s": (statistics.median(r.wall_s for r in done), "s"),
            "peak_rss_mb": (max(r.rss_mb for r in done), "MB"),
        }
    traced = run.rounds(lambda: traced_round(run))
    layers = {name: statistics.median(m[name] for _, m in traced) for name in tracer.SECONDS}
    counts = traced[0][1]
    for _, m in traced[1:]:
        if any(m[name] != counts[name] for name in tracer.COUNTS):
            run.problems.append("per-layer counts differ between traced rounds")
    out = {name: (counts[name], "ratio") if name.endswith("ratio") else (int(counts[name]), "count")
           for name in tracer.COUNTS}
    out.update({name: (value, "s") for name, value in layers.items()})
    out["trace.overhead_s"] = (statistics.median(w for w, _ in traced), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "flowcat" / "cli.py").is_file():
        print(f"error: no flowcat sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload](args.seed), args.seconds)
    run.problems += [f"oracle self-test: {p}" for p in oracles.self_test()]
    write_files(run.workload, ROOT)
    metrics = measure(run, bool(args.trace))
    for p in run.problems:
        print(f"incorrect: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
