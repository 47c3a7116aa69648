"""The benchmark's workloads: seeded query lists with their expected answers.

A query is the argument list of one `flowcat` invocation plus a check of its
standard output against perfbench/oracles.py.  The seed fixes the order of
every list and, where a workload has seeded inputs, those inputs; the same
seed always gives the same queries.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import oracles

Check = Callable[[str], "str | None"]  # stdout -> problem, or None when right


@dataclass(frozen=True)
class Query:
    args: tuple[str, ...]
    check: Check
    # Lidskii query on a graph with a dead-end vertex: a wrong answer counts
    # as a failed operation rather than an incorrect run, until it is mended.
    known_fault: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple[Query, ...]
    files: dict[str, str]  # path relative to the checkout root -> contents


def _expect_methods(key: str, value: object) -> Check:
    want = str(value)

    def check(out: str) -> str | None:
        got = json.loads(out)
        if got["agreement"] is not True or got[key] != want or any(
            v != want for v in got["methods"].values()
        ):
            return f"{key}: expected {want}, got {out.strip()}"
        return None

    return check


def _expect_text(value: object) -> Check:
    want = str(value)

    def check(out: str) -> str | None:
        return None if out.strip() == want else f"expected {want}, got {out.strip()}"

    return check


def _expect_fvector(n: int, vertices: int) -> Check:
    def check(out: str) -> str | None:
        f = [int(x) for x in out.split()]
        if f[0] != vertices:
            return f"f_0 = {f[0]}, expected {vertices} vertices"
        if len(f) != comb(n, 2) + 1 or f[-1] != 1:
            return f"f-vector does not end in 1 at dimension {comb(n, 2)}: {f}"
        if sum((-1) ** d * x for d, x in enumerate(f)) != 1:
            return f"alternating sum of {f} is not 1"
        return None

    return check


def _expect_suite(name: str) -> Check:
    line = re.compile(rf"^{re.escape(name)}: (\d+)/(\d+) checks passed$")

    def check(out: str) -> str | None:
        m = line.match(out.strip())
        if m is None or m.group(1) != m.group(2) or m.group(2) == "0":
            return f"suite {name}: {out.strip()!r}"
        return None

    return check


def prefix_arg(prefix: tuple[int, ...]) -> str:
    return ",".join(map(str, prefix))


def _netflow_arg(prefix: tuple[int, ...]) -> str:
    return prefix_arg(prefix + (-sum(prefix),))


def two_ones(n: int) -> tuple[int, ...]:
    return (1, 1) + (0,) * (n - 2)


def _one_zeros(n: int) -> tuple[int, ...]:
    return (1,) + (0,) * (n - 1)


def _family_volume(spec: str, prefix: tuple[int, ...]) -> object:
    """Closed-form volume of one of the paper's families."""
    kind, _, raw = spec.partition(":")
    params = [int(x) for x in raw.split(",")]
    n = params[0] - 1
    if kind == "complete":
        return oracles.catalan_volume(n) if prefix == two_ones(n) else oracles.cry_volume(n)
    if kind == "morris":
        return oracles.morris_volume(n, *params[1:])
    return oracles.tesler_volume(n, *params[1:])


def _family_prefix(spec: str, kind: str) -> tuple[int, ...]:
    """Netflow prefix of kind catalan, cry or ones for the graph spec."""
    n = int(spec.partition(":")[2].split(",")[0]) - 1
    return {"catalan": two_ones(n), "cry": _one_zeros(n), "ones": (1,) * n}[kind]


def family_args(spec: str, kind: str) -> list[str]:
    """--graph and --netflow arguments for a family and a netflow kind."""
    return ["--graph", spec, "--netflow", _netflow_arg(_family_prefix(spec, kind))]


def morris_integrand(n: int, a: int, b: int, m: int) -> str:
    """`ct --file` JSON of the Morris-identity integrand
    prod x_i^-a (1-x_i)^-b prod_{i<j} (x_j-x_i)^-m in n variables."""
    return json.dumps({"vars": n, "numerator": [[1, [0] * n]], "x_pole": [a] * n,
                       "one_minus_pole": [b] * n, "vandermonde": m})


def _volume_queries(rows: list[tuple[str, str, str]]) -> list[Query]:
    """rows of (graph spec, netflow kind, methods joined by '+')."""
    out = []
    for spec, kind, methods in rows:
        prefix = _family_prefix(spec, kind)
        args = ["volume", *family_args(spec, kind)]
        for m in methods.split("+"):
            args += ["--method", m]
        out.append(Query(tuple(args), _expect_methods("volume", _family_volume(spec, prefix))))
    return out


def _points_query(vertices: int, edges, prefix: tuple[int, ...], graph_arg: str,
                  known_fault: bool = False) -> Query:
    netflow = prefix + (-sum(prefix),)
    count = oracles.count_flows(vertices, edges, netflow)
    args = ("points", "--graph", graph_arg, "--netflow", _netflow_arg(prefix),
            "--method", "lidskii")
    return Query(args, _expect_methods("points", count), known_fault)


# Fixed graphs with a dead-end vertex (a vertex before the sink with no
# out-edge).  lidskii_points loses their flows; they do not depend on the seed
# so the failed share is the same in every run.
DEAD_END_GRAPHS = (
    (3, ((1, 2, 1), (1, 3, 2)), (1, 0)),
    (5, ((1, 2, 1), (1, 3, 1), (2, 3, 1), (2, 4, 1), (3, 5, 2), (1, 5, 1)), (1, 1, 0, 0)),
)


def random_multigraph(rng: random.Random):
    """A custom multigraph on 4 or 5 vertices, edge multiplicities 0 to 2, in
    which every vertex before the sink has an out-edge (so it is connected),
    with netflow prefix a_1 in {1, 2} and a_i in {0, 1}."""
    while True:
        v = rng.choice((4, 5))
        edges = [(i, j, m) for i in range(1, v + 1) for j in range(i + 1, v + 1)
                 if (m := rng.choice((0, 1, 1, 2)))]
        if all(any(e[0] == i for e in edges) for i in range(1, v)):
            prefix = (rng.choice((1, 2)),) + tuple(rng.choice((0, 0, 1)) for _ in range(v - 2))
            return v, tuple(edges), prefix


def family_point_queries() -> list[tuple[str, tuple[int, ...]]]:
    """(graph spec, netflow) of the family `points` queries."""
    rows = [("complete:8", "catalan"), ("complete:8", "cry"), ("complete:7", "catalan"),
            ("morris:8,1,1,1", "cry"), ("morris:7,1,2,2", "cry"),
            ("tesler:7,1,1", "ones"), ("tesler:6,2,1", "ones")]
    out = []
    for spec, kind in rows:
        prefix = _family_prefix(spec, kind)
        out.append((spec, prefix + (-sum(prefix),)))
    return out


# Suite sizes: the defaults, except where one default run alone outlasts a
# measured run (lemma-expand at its default takes about 130 s, faces about
# 36 s).  --max-n means something different in each suite; see README.md.
# The suites that run the Kostant and Lidskii layers go with `lidskii`; the
# rest with `ct-faces`, where those layers never run.
LIDSKII_SUITES = {"thm1": None, "cry": None, "thm2": None, "thm3": None,
                  "lidskii-vs-ehrhart": None}
CT_SUITES = {"morris": None, "lemma-gen": None, "lemma-expand": 2, "faces": 3}


def _suite_queries(sizes: dict[str, int | None]) -> list[Query]:
    out = []
    for name, size in sizes.items():
        args = ("verify", "--suite", name) + (("--max-n", str(size)) if size is not None else ())
        out.append(Query(args, _expect_suite(name)))
    return out


def lidskii(seed: int) -> Workload:
    """Lidskii volumes (Kostant sweeps with a large supply), Lidskii points
    (the composition loop) and the verify suites built on them."""
    queries = _volume_queries([
        ("complete:7", "catalan", "lidskii"),
        ("complete:8", "cry", "lidskii"),
        ("complete:5", "catalan", "ehrhart"),
        ("complete:6", "cry", "ehrhart"),
        ("morris:8,1,1,1", "cry", "lidskii"),
        ("morris:6,2,2,2", "cry", "lidskii"),
        ("morris:6,1,1,1", "cry", "ehrhart"),
        ("morris:5,1,2,2", "cry", "ehrhart"),
        ("tesler:7,1,1", "ones", "lidskii"),
        ("tesler:6,2,1", "ones", "lidskii"),
        ("tesler:5,1,1", "ones", "ehrhart"),
    ])
    for spec, netflow in family_point_queries():
        kind, _, raw = spec.partition(":")
        vertices, edges = oracles.family_edges(kind, [int(x) for x in raw.split(",")])
        queries.append(_points_query(vertices, edges, netflow[:-1], spec))
    files = {}
    rng = random.Random(seed)
    graphs = [random_multigraph(rng) for _ in range(6)]
    for k, (v, edges, prefix) in enumerate(graphs + list(DEAD_END_GRAPHS)):
        path = f"perfbench/out/lidskii/graph{k}.json"
        files[path] = json.dumps({"vertices": v, "edges": [list(e) for e in edges]})
        queries.append(_points_query(v, edges, prefix, f"file:{path}",
                                     known_fault=k >= len(graphs)))
    queries += _suite_queries(LIDSKII_SUITES)
    return _shuffled("lidskii", seed, queries, files)


def ct_faces(seed: int) -> Workload:
    """Constant terms, closed forms, face counts and the verify suites built
    on them; Kostant and Lidskii never run."""
    queries = _volume_queries([
        ("complete:9", "catalan", "ct+closed"),
        ("complete:11", "cry", "ct+closed"),
        ("morris:8,1,1,1", "cry", "ct+closed"),
        ("morris:7,1,2,2", "cry", "ct+closed"),
        ("tesler:7,1,1", "ones", "ct+closed"),
        ("tesler:6,2,1", "ones", "ct+closed"),
    ])
    rng = random.Random(seed)
    files = {}
    # n stays at most 5: at n = 6 the cost ranges over 0.003-0.4 s with the
    # draw, which would move query_p50_s with the seed.
    for k in range(3):
        n, a, b, m = rng.choice((4, 5)), rng.choice((0, 1, 2)), rng.choice((1, 2, 3)), rng.choice((1, 2))
        path = f"perfbench/out/ct-faces/morris{k}.json"
        files[path] = morris_integrand(n, a, b, m)
        queries.append(Query(("ct", "--file", path), _expect_text(oracles.morris_ct(n, a, b, m))))
    # (1, 0^r, 1, 0^s) prefixes at n = 5, r + s = 3, drawn by the seed; the
    # n = 6 prefix is fixed because n = 6 tableau counts differ by prefix.
    r_vertices, r_fvector = rng.randrange(4), rng.randrange(4)
    faces = [
        ("vertices", two_ones(5)), ("fvector", two_ones(5)),
        ("fvector", two_ones(4)),
        ("vertices", (1,) + (0,) * r_vertices + (1,) + (0,) * (3 - r_vertices)),
        ("fvector", (1,) + (0,) * r_fvector + (1,) + (0,) * (3 - r_fvector)),
        ("vertices", (1, 0, 0, 0, 1, 0)),
    ]
    for cmd, prefix in faces:
        n = len(prefix)
        if prefix == two_ones(n):
            count = 2 * 3 ** (n - 2)
        else:
            r = prefix.index(1, 1) - 1
            count = 2 ** (r + 1) * 3 ** (n - r - 2)
        if cmd == "vertices":
            queries.append(Query(("vertices", "--netflow", prefix_arg(prefix), "--count-only"),
                                 _expect_text(count)))
        else:
            queries.append(Query(("fvector", "--netflow", prefix_arg(prefix)),
                                 _expect_fvector(n, count)))
    queries += _suite_queries(CT_SUITES)
    return _shuffled("ct-faces", seed, queries, files)


def _shuffled(name: str, seed: int, queries: list[Query], files: dict[str, str]) -> Workload:
    random.Random(f"{name}:{seed}").shuffle(queries)
    return Workload(name, tuple(queries), files)


WORKLOADS = {"lidskii": lidskii, "ct-faces": ct_faces}


def write_files(workload: Workload, root: Path) -> None:
    for rel, text in workload.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
