"""Volumes and lattice-point counts of flow polytopes via composition sums.

Implements the Baldoni-Vergne composition-indexed (Lidskii) expansions of the
normalized volume and of the lattice-point count, the Postnikov-Stanley
indegree specialization for netflow (1,0,...,0,-1), and an independent
Ehrhart oracle: the forward differences of Kostant evaluations.

A Lidskii sum is not evaluated term by term.  Its composition parts are
chosen inside a single Kostant flow sweep (`flowcat.core._flow_sweep`): the
state carries the part of the budget N-n still to be placed, and each vertex
weights the part it takes.  The sweep subtracts a vertex's part from its
netflow, so it runs on the reversed graph, where the term K_{G'}(i - t)
reads K_{G'^rev}(rev(t - i)); placing the parts from the sink end keeps the
states few.  Graphs with dead ends are first reduced to the vertices that
reach the sink, where the expansions hold; the Ehrhart oracle uses the same
reduction.
"""

from __future__ import annotations

from math import comb
from operator import index
from typing import Callable, NamedTuple, Sequence

from .compositions import binomial
from .core import Multigraph, _flow_sweep, degree_offsets, kostant


class NotFullDimensionalError(ValueError):
    """The values K_G(t * a), t = 0..N-n+2, are not those of a polynomial of
    degree at most N-n, as for an empty polytope; raised instead of a bad
    polynomial.  A nonempty polytope of dimension below N-n does not raise:
    its polynomial is exact and its normalized volume is 0."""


def _check_netflow(G: Multigraph, netflow: Sequence[int]) -> tuple[int, ...]:
    a = tuple(map(index, netflow))
    if len(a) != G.vertex_count:
        raise ValueError("netflow length must equal the vertex count")
    if sum(a) != 0:
        raise ValueError("netflow entries must sum to zero")
    if any(x < 0 for x in a[:-1]):
        raise ValueError("netflow entries before the last must be nonnegative")
    return a


def lidskii_volume(G: Multigraph, netflow: Sequence[int]) -> int:
    """Normalized volume of F_G(netflow) as a Lidskii composition sum.

    vol = sum over i |= N-n of multinomial(N-n; i) * prod a_k^{i_k}
          * K_{G'}(i - t), with G' the restriction to [n] and t the outdegree
    offsets, after dead ends are dropped (see `_lidskii_sweep`).  Vertex k
    takes i_k of the rem units left with weight binom(rem, i_k) * a_k^{i_k};
    the product of these is the multinomial term, and a vertex with a_k = 0
    takes nothing.
    """
    return _lidskii_sweep(
        G, netflow,
        cap=lambda ak, tk, budget: budget if ak > 0 else 0,
        weight=lambda ak, tk, rem, i: comb(rem, i) * ak**i,
    )


def lidskii_points(G: Multigraph, netflow: Sequence[int]) -> int:
    """Lattice-point count of F_G(netflow) as a binomial-weighted sum.

    points = sum over i |= N-n of prod binom(a_k + t_k, i_k) * K_{G'}(i - t),
    after dead ends are dropped (see `_lidskii_sweep`).  Then every t_k >= 0,
    so the binomial vanishes for i_k > a_k + t_k.  Equals K_G(netflow)
    exactly; the two routes are compared in the tests.
    """
    return _lidskii_sweep(
        G, netflow,
        cap=lambda ak, tk, budget: ak + tk,
        weight=lambda ak, tk, rem, i: binomial(ak + tk, i),
    )


def _drop_dead_ends(
    G: Multigraph, a: tuple[int, ...]
) -> tuple[Multigraph, tuple[int, ...]] | None:
    """G and its netflow a on the vertices that reach the sink, relabelled
    in order, or None when a dropped vertex has positive netflow (the
    polytope is empty).  An edge whose head cannot reach the sink carries
    zero flow, so the lattice points stay the same; the reduced graph is
    connected, since every vertex left reaches the sink."""
    n1 = G.vertex_count
    reaches = [False] * n1 + [True]
    for i, j, _ in reversed(G.edges):
        reaches[i] = reaches[i] or reaches[j]
    if any(x > 0 and not r for x, r in zip(a, reaches[1:])):
        return None
    kept = [v for v in range(1, n1 + 1) if reaches[v]]
    label = {v: k for k, v in enumerate(kept, 1)}
    reduced = Multigraph(len(kept), tuple(
        (label[i], label[j], m) for i, j, m in G.edges if reaches[j]
    ))
    return reduced, tuple(a[v - 1] for v in kept)


def _lidskii_sweep(
    G: Multigraph,
    netflow: Sequence[int],
    cap: Callable[[int, int, int], int],
    weight: Callable[[int, int, int, int], int],
) -> int:
    """Sum over weak compositions i of N-n, with i_k <= cap(a_k, t_k, N-n),
    of prod_k weight(a_k, t_k, rem_k, i_k) * K_{G'}(i - t), in one flow
    sweep (rem_k is what is left of N-n when vertex k takes its part).

    The formulas need every vertex before the sink to reach the sink, so G
    is first reduced by `_drop_dead_ends`; an empty polytope gives 0.  The
    sweep runs on the reversed restriction G'^rev, with the edges
    (n+1-j, n+1-i) for i < j <= n, where K_{G'}(i - t) = K_{G'^rev}(rev(t - i)):
    vertex n+1-k starts with netflow t_k and its part i_k is subtracted.
    The product of the binom(rem, i_k) factors is the multinomial in any
    vertex order.
    """
    reduced = _drop_dead_ends(G, _check_netflow(G, netflow))
    if reduced is None:
        return 0
    G, a = reduced
    n = G.vertex_count - 1
    if n == 0:
        return 1  # the polytope is the zero flow
    t, _ = degree_offsets(G)
    budget = G.edge_count - n
    rev = Multigraph(n, tuple(
        (n + 1 - j, n + 1 - i, m) for i, j, m in G.edges if j <= n
    ))
    a, t = a[n - 1::-1], t[::-1]
    return _flow_sweep(rev, {t: 1}, budget,
                       [cap(ak, tk, budget) for ak, tk in zip(a, t)],
                       lambda v, rem, i: weight(a[v - 1], t[v - 1], rem, i))


def ps_volume(G: Multigraph) -> int:
    """Volume of F_G(1,0,...,0,-1) from indegree offsets alone.

    Returns K_G(0, d_2, ..., d_{n-1}, -sum d_i) with d_i = indeg(i) - 1,
    following the Postnikov-Stanley specialization.
    """
    n = G.vertex_count
    if n < 2:
        raise ValueError("graph needs at least 2 vertices")
    _, d = degree_offsets(G)
    middle = d[1 : n - 1]
    vec = (0,) + middle + (-sum(middle),)
    return kostant(G, vec)


class EhrhartPolynomial(NamedTuple):
    """Exact Ehrhart polynomial in the binomial basis: p(t) is the sum of
    differences[k] * binom(t, k), where differences[k] is the k-th forward
    difference of p at 0.  All of them are integers."""

    differences: tuple[int, ...]

    def __call__(self, t: int) -> int:
        return sum(c * binomial(t, k) for k, c in enumerate(self.differences))

    @property
    def normalized_volume(self) -> int:
        """d! times the coefficient of t^d, d = len(differences) - 1: the
        last difference; 0 when the polytope has dimension below d."""
        return self.differences[-1]


def ehrhart_polynomial(G: Multigraph, netflow: Sequence[int]) -> EhrhartPolynomial:
    """The polynomial t -> K_G(t * netflow) of degree at most N-n, from the
    forward differences of its values at t = 0..N-n+2.

    G is first reduced by `_drop_dead_ends`, which keeps every K_G(t * a),
    so N and n are those of the reduced graph.  The differences of order
    N-n+1 and N-n+2 must vanish; if they do not, or the polytope is empty,
    NotFullDimensionalError is raised.
    """
    reduced = _drop_dead_ends(G, _check_netflow(G, netflow))
    if reduced is None:
        raise NotFullDimensionalError("the polytope is empty")
    G, a = reduced
    d = G.edge_count - (G.vertex_count - 1)
    row = [kostant(G, tuple(t * x for x in a)) for t in range(d + 3)]
    differences = []
    while row:
        differences.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    if differences[d + 1] or differences[d + 2]:
        raise NotFullDimensionalError(
            f"the values at t = 0..{d + 2} are not a polynomial of degree <= {d}"
        )
    return EhrhartPolynomial(tuple(differences[: d + 1]))
