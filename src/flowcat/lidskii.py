"""Volumes and lattice-point counts of flow polytopes via composition sums.

Implements the Baldoni-Vergne composition-indexed (Lidskii) expansions of the
normalized volume and of the lattice-point count, the Postnikov-Stanley
indegree specialization for netflow (1,0,...,0,-1), and the Ehrhart
polynomial, decoded from two lattice-point sums, at max(d, 1) and at one
large dilation B.  The generalized `binomial`, whose top may be negative,
evaluates the Ehrhart polynomial at any integer t.

A Lidskii sum is not evaluated term by term.  Its composition parts are
chosen inside one Kostant flow sweep (`flowcat.core._flow_sweep`) of the
reversed graph, set up by `_lidskii_setup`: the state carries the part of
the budget N-n still to be placed, and each vertex weights the part it
takes; placing the parts from the sink end keeps the states few.
"""

from __future__ import annotations

from math import comb
from operator import index
from typing import NamedTuple, Sequence

from .core import Multigraph, _flow_sweep, _power_sweep, degree_offsets, kostant


def _lidskii_setup(G: Multigraph, netflow: Sequence[int]
                   ) -> tuple[Multigraph, tuple[int, ...], tuple[int, ...], int] | None:
    """(G'^rev, rev(a), rev(t), N-n) for the Lidskii sums of F_G(netflow), or
    None when the polytope is empty.

    The formulas need every vertex before the sink to reach the sink, so G
    and its netflow a are first reduced by `_drop_dead_ends`; N, n, the
    outdegree offsets t and the restriction G' to [n] are the reduced
    graph's.  The sweep subtracts a vertex's part from its netflow, and
    K_{G'}(i - t) = K_{G'^rev}(rev(t - i)), G'^rev having the edges
    (n+1-j, n+1-i) for i < j <= n: so vertex n+1-k of G'^rev starts with
    netflow t_k, and its part i_k is subtracted.  For n = 0 (the polytope
    is the zero flow) it is a one-vertex graph, whose sweep gives 1."""
    a = tuple(map(index, netflow))
    if len(a) != G.vertex_count:
        raise ValueError("netflow length must equal the vertex count")
    if sum(a) != 0:
        raise ValueError("netflow entries must sum to zero")
    if any(x < 0 for x in a[:-1]):
        raise ValueError("netflow entries before the last must be nonnegative")
    reduced = _drop_dead_ends(G, a)
    if reduced is None:
        return None
    G, a = reduced
    n = G.vertex_count - 1
    if n == 0:
        return Multigraph(1), (0,), (0,), 0
    t, _ = degree_offsets(G)
    rev = Multigraph(n, tuple((n + 1 - j, n + 1 - i, m) for i, j, m in G.edges if j <= n))
    return rev, a[n - 1::-1], t[::-1], G.edge_count - n


def lidskii_volume(G: Multigraph, netflow: Sequence[int]) -> int:
    """Normalized volume of F_G(netflow) as a Lidskii composition sum.

    vol = sum over i |= N-n of multinomial(N-n; i) * prod a_k^{i_k}
          * K_{G'}(i - t), with G' the restriction to [n] and t the outdegree
    offsets, after dead ends are dropped (see `_lidskii_setup`).  The
    multinomial terms are the expansion of (sum_k a_k x_k)^{N-n}, so this is
    `core._power_sweep` on the reversed graph with c = rev(a).
    """
    if (setup := _lidskii_setup(G, netflow)) is None:
        return 0
    rev, a, t, budget = setup
    return _power_sweep(rev, {t: 1}, a, budget)


def lidskii_points(G: Multigraph, netflow: Sequence[int]) -> int:
    """Lattice-point count of F_G(netflow) as a binomial-weighted sum.

    points = sum over i |= N-n of prod binom(a_k + t_k, i_k) * K_{G'}(i - t),
    after dead ends are dropped (see `_lidskii_setup`).  Then every vertex
    before the sink has an out-edge, so t_k >= 0 and a_k + t_k >= 0, and the
    binomial vanishes for i_k > a_k + t_k.  Equals K_G(netflow) exactly; the
    two routes are compared in the tests.
    """
    setup = _lidskii_setup(G, netflow)
    return 0 if setup is None else _points_sweep(*setup)


def _points_sweep(rev: Multigraph, a: tuple[int, ...], t: tuple[int, ...], budget: int) -> int:
    """The sweep of `lidskii_points` on a setup of `_lidskii_setup`."""
    return _flow_sweep(rev, {t: 1}, budget, [ak + tk for ak, tk in zip(a, t)],
                       lambda v, rem, i: comb(a[v - 1] + t[v - 1], i))


def _drop_dead_ends(G: Multigraph, a: tuple[int, ...]
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
    reduced = Multigraph(len(kept), tuple((label[i], label[j], m)
                                          for i, j, m in G.edges if reaches[j]))
    return reduced, tuple(a[v - 1] for v in kept)


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


def binomial(x: int, k: int) -> int:
    """Generalized binomial coefficient binom(x, k) for any integer x, k >= 0:
    the falling factorial x(x-1)...(x-k+1) over k!, so negative tops are
    fine, binom(-1, 2) == 1 (by binom(x, k) = (-1)^k binom(k-x-1, k))."""
    return comb(x, k) if x >= 0 else (-1) ** k * comb(k - x - 1, k)


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
    """The polynomial P(t) = K_G(t * netflow) of degree at most d = N-n, read
    off two `lidskii_points` sums: M = P(T), T = max(d, 1), and V = P(B) with
    B = 2d + d(2M + 1).

    Both sums sweep the one setup of `_lidskii_setup`, whose reduction by
    `_drop_dead_ends` keeps every K_G(t * a), so N and n are those of the
    reduced graph.  An empty polytope gets the zero polynomial, the Ehrhart
    polynomial of the empty set.  Otherwise every vertex reaches the sink
    with a_v >= 0, so the polytope is nonempty, P(0) = 1, and it is a
    lattice polytope (the incidence matrix is totally unimodular).

    Why the digits are exact.  Write P(t) = sum_k D_k binom(t, k).
    - D_k >= 0: by Stanley's theorem P(t) = sum_j h*_j binom(t + e - j, e)
      with h* >= 0 (e the dimension), and Vandermonde's identity expands
      each binom(t + e - j, e) in the binom(t, k) with coefficients >= 0.
    - So P is nondecreasing for t >= 0, and D_k <= P(k) <= P(T) = M for
      k <= d.  T >= 1 keeps the check below a real one when d = 0: it then
      compares P(1) with the decoded P(0).
    - binom(B, j+1) / binom(B, j) = (B - j)/(j + 1) >= 2M + 2 for j < d, so
      sum_{j<k} D_j binom(B, j) <= M binom(B, k) / (2M + 1) < binom(B, k).
      Greedy division of V by binom(B, d), ..., binom(B, 0) thus returns
      D_d, ..., D_0.  For d = 0, B = 0 and V = P(0) = M: the constant.
    A wrong sum shows as a digit above M, or as a polynomial that misses M
    at T; either raises ArithmeticError.
    """
    if (setup := _lidskii_setup(G, netflow)) is None:
        return EhrhartPolynomial((0,))
    rev, a, t, d = setup
    T = max(d, 1)
    M = _points_sweep(rev, tuple(T * x for x in a), t, d)
    B = 2 * d + d * (2 * M + 1)
    V = _points_sweep(rev, tuple(B * x for x in a), t, d)
    differences = []
    for k in range(d, -1, -1):
        digit, V = divmod(V, comb(B, k))
        if digit > M:
            raise ArithmeticError(f"Ehrhart difference {k} is {digit} > P({T}) = {M}")
        differences.append(digit)
    p = EhrhartPolynomial(tuple(reversed(differences)))
    if p(T) != M:
        raise ArithmeticError(f"the decoded Ehrhart polynomial is {p(T)} at t = {T}, not {M}")
    return p
