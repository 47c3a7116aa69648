"""Multigraph data model, degree statistics and exact Kostant partition functions.

Graphs live on the vertex set {1, ..., n+1} with every edge directed from its
smaller to its larger endpoint.  An edge (i, j) carries the root e_i - e_j, and
the Kostant partition function K_G(b) counts nonnegative integer combinations
of the edge roots summing to b, where an edge of multiplicity m contributes m
independent slots.

K_G is evaluated by one exact sweep over the vertices that pushes each
vertex's supply over its out-edges one edge at a time (`_flow_sweep`).  The
sweep is the one counting engine of the package.  It can also share a
budget among the vertices: each vertex takes a part of it, which is
subtracted from its netflow.  The Lidskii sums of `flowcat.lidskii` run
through it on the reversed graph, with their composition parts as that
budget, and so do the constant terms of `flowcat.ctengine`, as Kostant
partition functions of a graph with one extra sink vertex whose start
states carry the numerator; a power numerator and the Lidskii volume are
one budget, a power of a linear form (`_power_sweep`).
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from math import comb
from operator import index
from typing import Callable, Sequence


class Multigraph(namedtuple("Multigraph", "vertex_count edges")):
    """Loopless directed multigraph on vertices 1..vertex_count, edges i < j.

    Parallel (source, target) entries are merged on construction; the stored
    edge list is sorted and duplicate free.  Labels and multiplicities must
    be integers: a float raises TypeError.
    """

    __slots__ = ()

    def __new__(
        cls, vertex_count: int, edges: Sequence[Sequence[int]] = ()
    ) -> "Multigraph":
        vertex_count = index(vertex_count)
        if vertex_count < 1:
            raise ValueError("vertex_count must be at least 1")
        merged: dict[tuple[int, int], int] = defaultdict(int)
        for entry in edges:
            i, j, m = map(index, entry if len(entry) == 3 else (*entry, 1))
            if not (1 <= i <= vertex_count and 1 <= j <= vertex_count):
                raise ValueError(f"edge ({i},{j}) uses an invalid vertex label")
            if i >= j:
                raise ValueError(f"edge ({i},{j}) must have source < target")
            if m < 0:
                raise ValueError("edge multiplicity must be nonnegative")
            merged[(i, j)] += m
        canonical = tuple(
            (i, j, m) for (i, j), m in sorted(merged.items()) if m > 0
        )
        return super().__new__(cls, vertex_count, canonical)

    @property
    def edge_count(self) -> int:
        """Total number of edges N, counted with multiplicity."""
        return sum(m for _, _, m in self.edges)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Multigraph":
        """{"vertices": n+1, "edges": [[i, j, mult], ...]}; integers only."""
        return cls(data["vertices"], data["edges"])


def complete_graph(vertices: int) -> Multigraph:
    """K_{n+1}: every pair (i, j), i < j, once."""
    edges = tuple(
        (i, j, 1)
        for i in range(1, vertices + 1)
        for j in range(i + 1, vertices + 1)
    )
    return Multigraph(vertices, edges)


def morris_graph(vertices: int, a: int, b: int, m: int) -> Multigraph:
    """K_{n+1}^{a,b,m}: edges (1,i) x a and (i,n+1) x b for 1 < i < n+1,
    interior pairs (i,j), 1 < i < j < n+1, with multiplicity m.

    There is deliberately no (1, n+1) edge.
    """
    n1 = vertices
    edges = [(1, i, a) for i in range(2, n1)] + [(i, n1, b) for i in range(2, n1)]
    edges += [(i, j, m) for i in range(2, n1) for j in range(i + 1, n1)]
    return Multigraph(n1, edges)


def tesler_graph(vertices: int, a: int, b: int) -> Multigraph:
    """K_{n+1}^{a,b}: pairs within [n] with multiplicity a, edges (i,n+1) x b."""
    n1 = vertices
    edges = [(i, j, a) for i in range(1, n1) for j in range(i + 1, n1)]
    edges += [(i, n1, b) for i in range(1, n1)]
    return Multigraph(n1, edges)


def degree_offsets(G: Multigraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(t, d) with t_i = outdeg(i) - 1 over the first n vertices and
    d_i = indeg(i) - 1 over all vertices, multiplicity weighted."""
    n1 = G.vertex_count
    out, into = [-1] * (n1 + 1), [-1] * (n1 + 1)
    for i, j, m in G.edges:
        out[i] += m
        into[j] += m
    return tuple(out[1:n1]), tuple(into[1:])


def kostant(G: Multigraph, b: Sequence[int]) -> int:
    """Kostant partition function K_G(b).

    Counts assignments of nonnegative integers to the N edge slots whose
    signed root sum equals b, by one run of the flow sweep (`_flow_sweep`)
    with no budget.
    """
    b = tuple(map(index, b))
    if len(b) != G.vertex_count:
        raise ValueError("vector length must equal the vertex count")
    if sum(b) != 0:
        return 0
    return _flow_sweep(G, {b: 1})


def _flow_sweep(
    G: Multigraph,
    start: dict[tuple[int, ...], int],
    budget: int = 0,
    caps: Sequence[int] | None = None,
    weight: Callable[[int, int, int], int] | None = None,
) -> int:
    """Weighted count of integer flows on G, one out-edge at a time.

    `start` maps netflow vectors to coefficients, and the result is the
    coefficient-weighted sum of the counts for each of them.  Vertex v
    first takes a part i_v of a shared budget, which is subtracted from its
    netflow: it has netflow b_v - i_v.  The parts sum to `budget`, and
    i_v <= caps[v-1]; the flow is weighted by the product of
    weight(v, rem, i_v), rem being the budget left before vertex v.  With
    no budget this is sum_b start[b] * K_G(b).

    The sweep visits the vertices in order.  A state is the budget left and
    the pending inflow of the vertices not yet visited, which starts as
    their netflow.  A vertex's supply (its pending inflow) is pushed over
    its out-edges one edge at a time; flow f on an edge of multiplicity m
    (>= 1, as a Multigraph keeps no edge of multiplicity 0) has weight
    C(f+m-1, m-1), and the last out-edge takes whatever supply
    is left.  States whose budget the remaining vertices cannot absorb are
    dropped.
    """
    n1 = G.vertex_count
    caps = caps if caps is not None else (0,) * n1
    out: list[list[tuple[int, int]]] = [[] for _ in range(n1 + 1)]
    for i, j, m in G.edges:
        out[i].append((j - i + 1, m))  # key index of j's pending inflow
    room = [0] * (n1 + 2)  # the most budget vertices v..n1 can take
    for v in range(n1, 0, -1):
        room[v] = min(budget, room[v + 1] + caps[v - 1])

    # state key: (budget left, pending inflow of v, ..., of n1)
    states = {(budget,) + b: c for b, c in start.items()}
    for v in range(1, n1 + 1):
        cap, later = caps[v - 1], room[v + 1]
        parts: dict[int, list[tuple[int, int]]] = {}
        # stage key: (budget left, supply left at v, pending of v+1, ..., n1)
        stage: dict[tuple[int, ...], int] = defaultdict(int)
        for key, cnt in states.items():
            rem = key[0]
            choices = parts.get(rem)
            if choices is None:
                choices = parts[rem] = [
                    (i, w) for i in range(max(0, rem - later), min(rem, cap) + 1)
                    if (w := 1 if weight is None else weight(v, rem, i))
                ]
            supply, rest = key[1], key[2:]
            for i, w in choices:
                if supply >= i:
                    stage[(rem - i, supply - i) + rest] += cnt * w
        edges = out[v]
        if not edges:
            stage = {k[:1] + k[2:]: c for k, c in stage.items() if k[1] == 0}
        for pos, (slot, m) in enumerate(edges):
            top = max((k[1] for k in stage), default=0)
            ways = [comb(f + m - 1, m - 1) for f in range(top + 1)]
            nxt: dict[tuple[int, ...], int] = defaultdict(int)
            for k, cnt in stage.items():
                rem, s = k[0], k[1]
                before, here, after = k[2:slot], k[slot], k[slot + 1:]
                if pos == len(edges) - 1:
                    nxt[(rem,) + before + (here + s,) + after] += cnt * ways[s]
                    continue
                for f in range(s + 1):
                    nxt[(rem, s - f) + before + (here + f,) + after] += cnt * ways[f]
            stage = nxt
        states = stage
        if not states:
            return 0
    return states.get((0,), 0)


def _power_sweep(G: Multigraph, start: dict[tuple[int, ...], int], c: Sequence[int],
                 power: int) -> int:
    """`_flow_sweep` with (sum_v c_v x_v)^power as its budget: vertex v takes
    the exponent i_v of x_v, none where c_v = 0, with weight binom(rem, i_v)
    * c_v^{i_v}.  By Baldoni-Vergne the volume is the constant term of the
    power of sum_k a_k x_k, so `lidskii_volume` is this sweep with c = rev(a),
    as `ctengine._power_ct` is with c the indicator of its support.  That is
    why `tesler_ct` and `lidskii_volume` on the Tesler netflow are one sweep."""
    return _flow_sweep(G, start, power, [power if cv else 0 for cv in c],
                       lambda v, rem, i: comb(rem, i) * c[v - 1] ** i)
