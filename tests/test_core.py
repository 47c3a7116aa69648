import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcat.core import (
    Multigraph,
    complete_graph,
    degree_offsets,
    kostant,
    morris_graph,
    tesler_graph,
)


def brute_kostant(G: Multigraph, b):
    """Independent oracle: direct search over per-copy edge flows.

    Every parallel copy of an edge is a separate slot; flows are enumerated
    edge by edge in sorted order.  Because all in-edges of a vertex sort
    before all of its out-edges, the residual at the source is exactly its
    available supply when its out-edges are reached.
    """
    copies = []
    for i, j, m in G.edges:
        copies.extend([(i, j)] * m)
    b = tuple(b)
    if sum(b) != 0:
        return 0

    def rec(k, residual):
        if k == len(copies):
            return 1 if all(x == 0 for x in residual) else 0
        i, j = copies[k]
        total = 0
        cap = residual[i - 1]
        for f in range(cap + 1):
            residual[i - 1] -= f
            residual[j - 1] += f
            total += rec(k + 1, residual)
            residual[i - 1] += f
            residual[j - 1] -= f
        return total

    return rec(0, list(b))


def reverse_graph(G: Multigraph) -> Multigraph:
    n1 = G.vertex_count
    return Multigraph(
        n1, tuple((n1 + 1 - j, n1 + 1 - i, m) for i, j, m in G.edges)
    )


class TestMultigraph:
    def test_merges_parallel_edges(self):
        G = Multigraph(3, ((1, 2, 1), (1, 2, 2), (2, 3, 1)))
        assert G.edges == ((1, 2, 3), (2, 3, 1))
        assert G.edge_count == 4

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Multigraph(3, ((2, 1, 1),))
        with pytest.raises(ValueError):
            Multigraph(3, ((1, 4, 1),))
        with pytest.raises(ValueError):
            Multigraph(0)

    def test_json_round_trip(self):
        data = json.loads('{"vertices": 4, "edges": [[1, 2], [1, 2, 2], [2, 4, 1], [3, 4, 0]]}')
        assert Multigraph.from_json_dict(data) == Multigraph(4, ((1, 2, 3), (2, 4, 1)))


class TestFamilies:
    def test_complete_edge_count(self):
        assert complete_graph(5).edge_count == 10

    def test_morris_shape(self):
        G = morris_graph(4, 2, 3, 1)
        assert (1, 4, 1) not in G.edges
        t, d = degree_offsets(G)  # degrees minus 1
        assert t[0] + 1 == 4  # out-degree of vertex 1
        assert d[3] + 1 == 6  # in-degree of vertex 4
        assert G.edge_count == 2 * 2 + 2 * 3 + 1

    def test_tesler_shape(self):
        G = tesler_graph(4, 2, 3)
        assert G.edge_count == 3 * 2 + 3 * 3

    def test_morris_unit_is_complete_without_last_edge(self):
        G = morris_graph(5, 1, 1, 1)
        K = complete_graph(5)
        assert set(K.edges) - set(G.edges) == {(1, 5, 1)}


class TestDegreeOffsets:
    def test_complete(self):
        t, d = degree_offsets(complete_graph(4))
        assert t == (2, 1, 0)
        assert d == (-1, 0, 1, 2)

    def test_morris(self):
        t, d = degree_offsets(morris_graph(5, 2, 1, 3))
        assert t == (5, 6, 3, 0)


class TestKostant:
    def test_zero_vector(self):
        for G in (complete_graph(4), morris_graph(5, 2, 1, 2), tesler_graph(4, 2, 1)):
            assert kostant(G, (0,) * G.vertex_count) == 1

    def test_nonzero_sum_is_zero(self):
        assert kostant(complete_graph(3), (1, 0, 0)) == 0

    def test_small_hand_values(self):
        # K_{K_3}(1,0,-1): 1->3 direct, or 1->2->3
        assert kostant(complete_graph(3), (1, 0, -1)) == 2
        # doubling the supply adds the split route 1->3 and 1->2->3
        assert kostant(complete_graph(3), (2, 0, -2)) == 3
        # negative entry before any inflow is unreachable
        assert kostant(complete_graph(3), (0, -1, 1)) == 0

    def test_matches_brute_force_exhaustive(self):
        for G in (complete_graph(4), tesler_graph(4, 2, 1), morris_graph(4, 1, 2, 1)):
            n1 = G.vertex_count
            for a1 in range(3):
                for a2 in range(3):
                    for a3 in range(3):
                        prefix = (a1, a2, a3)[: n1 - 1]
                        b = prefix + (-sum(prefix),)
                        assert kostant(G, b) == brute_kostant(G, b)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    def test_matches_brute_force_sampled(self, prefix):
        G = complete_graph(5)
        b = tuple(prefix) + (-sum(prefix),)
        assert kostant(G, b) == brute_kostant(G, b)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    def test_reversal_symmetry(self, prefix):
        G = morris_graph(4, 2, 1, 2)
        b = tuple(prefix) + (-sum(prefix),)
        rev_b = tuple(-x for x in reversed(b))
        assert kostant(G, b) == kostant(reverse_graph(G), rev_b)

    def test_multiplicity_equals_parallel_slots(self):
        # one edge of multiplicity 3 counts like 3 distinguishable copies
        G = Multigraph(2, ((1, 2, 3),))
        assert kostant(G, (4, -4)) == 15  # weak compositions of 4 into 3
