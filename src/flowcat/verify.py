"""Cross-verification sweeps tying the independent computation routes together.

Each suite is a generator of CheckResult records, yielded one at a time in a
fixed order; the CLI `verify` subcommand and the acceptance tests both drive
these and hold only a count and the failures.  A suite's argument check is
its first statement, so a bad size raises on the first `next()`, before any
work.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from operator import index
from typing import Callable, Iterator, NamedTuple, Sequence

# Engines are lazily registered by the package: a suite runs only the modules
# it calls.
from . import closedform, core, ctengine, expansion, faces, lidskii


class CheckResult(NamedTuple):
    label: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def suite_catalan_volume(max_n: int = 5) -> Iterator[CheckResult]:
    """Volume of F_{K_{n+1}}(1,1,0,...,0,-2) three ways plus frozen values."""
    frozen = {2: 1, 3: 4, 4: 64, 5: 5120}
    for n in range(2, max_n + 1):
        netflow = (1, 1) + (0,) * (n - 2) + (-2,)
        vol = lidskii.lidskii_volume(core.complete_graph(n + 1), netflow)
        yield CheckResult(f"n={n} composition-sum vs CT", vol,
                          ctengine.catalan_polytope_ct(n))
        yield CheckResult(f"n={n} composition-sum vs closed form", vol,
                          closedform.catalan_polytope_volume(n))
        if n in frozen:
            yield CheckResult(f"n={n} frozen value", frozen[n], vol)


def suite_cry(max_n: int = 7) -> Iterator[CheckResult]:
    """CRY_n volume by indegree specialization vs the Catalan product."""
    frozen = {3: 1, 4: 2, 5: 10, 6: 140, 7: 5880}
    for n in range(3, max_n + 1):
        vol = lidskii.ps_volume(core.complete_graph(n + 1))
        yield CheckResult(f"n={n} indegree route vs Catalan product",
                          closedform.cry_product(n), vol)
        if n in frozen:
            yield CheckResult(f"n={n} frozen value", frozen[n], vol)


def suite_morris_polytopes(max_n: int = 4) -> Iterator[CheckResult]:
    """Volume of the a,b,m family with netflow (1,0,...,0,-1)."""
    for n, a, b, m in product(range(2, max_n + 1), (1, 2), (1, 2), (1, 2)):
        vol = lidskii.lidskii_volume(core.morris_graph(n + 1, a, b, m),
                                     (1,) + (0,) * (n - 1) + (-1,))
        yield CheckResult(f"n={n} a={a} b={b} m={m}",
                          closedform.morris_closed(n - 1, a - 1, b, m), vol)


def suite_tesler_polytopes(max_n: int = 3) -> Iterator[CheckResult]:
    """Volume of the a,b family with netflow (1,...,1,-n)."""
    for n, a, b in product(range(2, max_n + 1), (1, 2), (1, 2)):
        vol = lidskii.lidskii_volume(core.tesler_graph(n + 1, a, b), (1,) * n + (-n,))
        closed = closedform.tesler_family_volume(n, a, b)
        ct = ctengine.tesler_ct(n, a, b)
        yield CheckResult(f"n={n} a={a} b={b} sum vs CT", vol, ct)
        yield CheckResult(f"n={n} a={a} b={b} sum vs closed form", vol, closed)
        if a == 1 and b == 1:
            yield CheckResult(f"n={n} unit-case product formula",
                              closedform.tesler_unit_volume(n), vol)


def suite_morris_identity(max_n: int = 4) -> Iterator[CheckResult]:
    """Constant term vs Gamma product over the Morris parameter box."""
    for n, a, b, m in product(range(1, max_n + 1), (0, 1, 2), (1, 2, 3), (1, 2)):
        yield CheckResult(f"n={n} a={a} b={b} m={m}", closedform.morris_closed(n, a, b, m),
                          ctengine.morris_ct(n, a, b, m))


def suite_reduction_identity(max_n: int = 5) -> Iterator[CheckResult]:
    """Two-sided CT reduction identity and its bijection, over small vectors.

    The bijection is enumerated for n <= 5 only, so a larger max_n raises
    on the first `next()`, before any work is done."""
    if max_n > 5:
        raise ValueError("the reduction bijection is enumerated for max_n <= 5 only")
    entries = (-1, 0, 1, 2)
    for n in range(2, max_n + 1):
        for head in product(entries, repeat=n - 2):  # a_vec in product order
            for a_vec, lhs, rhs, failures in ctengine.reduction_identity(
                    head, product(entries, repeat=2)):
                yield CheckResult(f"n={n} a={a_vec} sides", lhs, rhs)
                yield CheckResult(f"n={n} a={a_vec} bijection", True, not failures)


# --- series-vs-matrix expansion check ---------------------------------------


def suite_series_expansion(max_n: int = 3) -> Iterator[CheckResult]:
    """Matrix-expansion identity for the pole product, checked coefficient by
    coefficient on a degree box, with a truncation-stability guard; plus the
    worked 4x4 row/hook sums.  At 4 variables the box expansion gives no
    result in two minutes, so max_n > 3 raises on the first `next()`, before
    any work."""
    if max_n > 3:
        raise ValueError("the series expansion is checked for max_n <= 3 only")
    A = ((4, 2, 5, 7), (0, 1, 2, 3), (0, 0, 1, 8), (0, 0, 0, 3))
    # the printed total for h_2 in the source is an arithmetic slip; the
    # definition (and its own summands 2+3-1-2) give 2
    for label, expected, actual in (
        ("worked matrix r_2", 6, sum(A[1])),
        ("worked matrix h_2", 2, ctengine._hook_sum(A, 2)),
        ("worked matrix r_3", 9, sum(A[2])),
        ("worked matrix h_3", 0, ctengine._hook_sum(A, 3)),
    ):
        yield CheckResult(label, expected, actual)

    box = 5
    for n in range(1, max_n + 1):
        for b, m in product((0, 1, 2), repeat=2):
            f = ctengine.CTIntegrand(n, ((1, (0,) * n),), one_minus_pole=(b,) * n,
                                     vandermonde_power=m)
            series = expansion._series_histogram(f, box, bound=12)
            series_hi = expansion._series_histogram(f, box, bound=14)
            matrices = expansion._matrix_histogram(n, b, m, box, bound=12)
            yield CheckResult(f"n={n} b={b} m={m} truncation stable", series, series_hi)
            yield CheckResult(f"n={n} b={b} m={m} series vs matrices", series, matrices)


# --- vertex counts ----------------------------------------------------------


def vertices_by_acyclic_support(prefixes: Sequence[Sequence[int]]) -> list[int]:
    """Vertices of F_{K_{n+1}}(a') for each prefix a of one length n,
    counted independently of tableaux: flows whose support is a forest,
    found by solving the unique flow on every acyclic edge subset and keeping
    the strictly positive ones.  One pass over the subsets of the edges
    (i, j), i < j, serves every prefix: a subset with fewer than n+1 edges is
    peeled once, removing in edge order and pass after pass each edge with a
    degree-1 end (its tail if both), and it is a forest exactly when no edge
    is left.  Each prefix's netflow is then replayed along that peeling: the
    leaf's whole residual crosses its one edge, the replay stops at a flow
    <= 0, and the forest counts when every residual ends at 0.  Returns the
    counts in input order.  There are 82,160 such subsets at n = 6, and
    1,683,218 at n = 7, so n > 6 is rejected before any work."""
    netflows = [a + (-sum(a),) for a in (tuple(map(index, a)) for a in prefixes)]
    if len({len(netflow) for netflow in netflows}) > 1:
        raise ValueError("the prefixes must all have the same length")
    n1 = len(netflows[0]) if netflows else 1
    if n1 > 7:
        raise ValueError("acyclic supports are enumerated for n <= 6 only")
    edges = [(i, j) for i in range(n1) for j in range(i + 1, n1)]
    counts = [0] * len(netflows)
    for subset in chain.from_iterable(combinations(edges, k) for k in range(n1)):
        live = list(subset)
        degree = [0] * n1
        for i, j in live:
            degree[i] += 1
            degree[j] += 1
        steps = []  # (leaf, other end, leaf is the tail)
        peeling = True
        while live and peeling:
            peeling = False
            for e in list(live):
                i, j = e
                if degree[i] == 1 or degree[j] == 1:
                    steps.append((i, j, True) if degree[i] == 1 else (j, i, False))
                    degree[i] -= 1
                    degree[j] -= 1
                    live.remove(e)
                    peeling = True
        if live:  # a cycle is left
            continue
        for k, netflow in enumerate(netflows):
            residual = list(netflow)
            for leaf, other, tail in steps:
                flow = residual[leaf] if tail else -residual[leaf]
                if flow <= 0:  # not a vertex
                    break
                residual[other] += residual[leaf]
                residual[leaf] = 0
            else:
                counts[k] += not any(residual)
    return counts


def suite_faces(max_n: int = 6) -> Iterator[CheckResult]:
    """Vertex counts: tableau enumeration vs the 2^{r+1} 3^s formula for
    n = r+s+2 <= max_n, the 2 * 3^{n-2} corollary for n = 2..max_n, and the
    acyclic-support enumeration for n <= min(max_n, 4), one call per n,
    since its oracle peels every edge subset of K_{n+1} with at most n
    edges.  A max_n outside 0..MAX_N raises on the first `next()`, before
    any work."""
    if not 0 <= max_n <= faces.MAX_N:
        raise ValueError(f"faces are computed for 0 <= max_n <= {faces.MAX_N} only")
    for r in range(max_n - 1):
        for s in range(max_n - 1 - r):
            got = faces.count_vertex_tableaux((1,) + (0,) * r + (1,) + (0,) * s)
            yield CheckResult(f"r={r} s={s} tableaux vs formula",
                              faces.vertex_count_formula(r, s), got)
    for n in range(2, max_n + 1):
        a = (1, 1) + (0,) * (n - 2)
        yield CheckResult(f"n={n} two-ones corollary",
                          faces.catalan_polytope_vertices(n), faces.count_vertex_tableaux(a))
    for n in range(1, min(max_n, 4) + 1):
        prefixes = list(filter(any, product((0, 1, 2), repeat=n)))  # a != 0
        for a, count in zip(prefixes, vertices_by_acyclic_support(prefixes)):
            yield CheckResult(f"a={a} tableaux vs acyclic supports",
                              count, faces.count_vertex_tableaux(a))


def suite_lidskii_vs_ehrhart(max_n: int = 4) -> Iterator[CheckResult]:
    """Composition-sum volume vs the Ehrhart polynomial decoded from the
    lattice-point sum (two Lidskii formulas on one sweep), and that sum vs
    `kostant`, for n <= max_n on K_{n+1} with the two-ones and CRY
    netflows, on the morris box (n <= 4, a, b, m in {1, 2}) and on the
    tesler box (n <= 3, a, b in {1, 2})."""
    pairs = [(f"complete({n + 1}) two-ones", core.complete_graph(n + 1),
              (1, 1) + (0,) * (n - 2) + (-2,)) for n in range(2, max_n + 1)]
    pairs += [(f"complete({n + 1}) cry", core.complete_graph(n + 1),
               (1,) + (0,) * (n - 1) + (-1,)) for n in range(3, max_n + 1)]
    pairs += [(f"morris({n + 1},{a},{b},{m})", core.morris_graph(n + 1, a, b, m),
               (1,) + (0,) * (n - 1) + (-1,))
              for n, a, b, m in product(range(2, min(max_n, 4) + 1), (1, 2), (1, 2), (1, 2))]
    pairs += [(f"tesler({n + 1},{a},{b})", core.tesler_graph(n + 1, a, b), (1,) * n + (-n,))
              for n, a, b in product(range(2, min(max_n, 3) + 1), (1, 2), (1, 2))]
    for label, G, netflow in pairs:
        vol = lidskii.lidskii_volume(G, netflow)
        ehr = lidskii.ehrhart_polynomial(G, netflow).normalized_volume
        yield CheckResult(f"{label} volume", vol, ehr)
        yield CheckResult(f"{label} points", core.kostant(G, netflow),
                          lidskii.lidskii_points(G, netflow))


SUITES: dict[str, Callable[..., Iterator[CheckResult]]] = {
    "thm1": suite_catalan_volume,
    "cry": suite_cry,
    "thm2": suite_morris_polytopes,
    "thm3": suite_tesler_polytopes,
    "morris": suite_morris_identity,
    "lemma-gen": suite_reduction_identity,
    "lemma-expand": suite_series_expansion,
    "faces": suite_faces,
    "lidskii-vs-ehrhart": suite_lidskii_vs_ehrhart,
}
