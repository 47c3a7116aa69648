from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcat.closedform import catalan_polytope_volume, cry_product
from flowcat.compositions import weak_compositions
from flowcat.core import (
    Multigraph,
    complete_graph,
    degree_offsets,
    kostant,
    morris_graph,
    tesler_graph,
)
from flowcat import lidskii
from flowcat.lidskii import (
    EhrhartPolynomial,
    _drop_dead_ends,
    binomial,
    ehrhart_polynomial,
    lidskii_points,
    lidskii_volume,
    ps_volume,
)


def reference_sum(G, a, coefficient):
    """Reference for the flow sweep: the Lidskii sum term by term, one
    Kostant call per weak composition i of N-n, weighted by coefficient(i).
    Valid when every vertex before the sink has an out-edge."""
    n = G.vertex_count - 1
    t, _ = degree_offsets(G)
    Gp = Multigraph(n, tuple(e for e in G.edges if e[1] <= n))
    total = 0
    for comp in weak_compositions(G.edge_count - n, n):
        coeff = coefficient(comp)
        if coeff:
            total += coeff * kostant(Gp, tuple(ik - tk for ik, tk in zip(comp, t)))
    return total


def reference_ehrhart(G, a):
    """Reference for the decoded Ehrhart polynomial: the forward differences
    of kostant(G, t * a) at the d + 3 nodes t = 0..d+2, d = N - n of the
    graph without dead ends; the differences of order d+1 and d+2 must
    vanish.  An empty polytope has the zero polynomial."""
    reduced = _drop_dead_ends(G, a)
    if reduced is None:
        return EhrhartPolynomial((0,))
    G, a = reduced
    d = G.edge_count - (G.vertex_count - 1)
    row = [kostant(G, tuple(t * x for x in a)) for t in range(d + 3)]
    differences = []
    while row:
        differences.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    assert not (differences[d + 1] or differences[d + 2]), (
        f"the values are not a polynomial of degree <= {d}")
    return EhrhartPolynomial(tuple(differences[: d + 1]))


def multinomial(parts):
    return factorial(sum(parts)) // prod(map(factorial, parts))


def reference_volume(G, a):
    def coefficient(comp):
        coeff = multinomial(comp)
        for ak, ik in zip(a, comp):
            coeff *= ak**ik
        return coeff

    return reference_sum(G, a, coefficient)


def reference_points(G, a):
    t, _ = degree_offsets(G)

    def coefficient(comp):
        coeff = 1
        for ak, tk, ik in zip(a, t, comp):
            coeff *= binomial(ak + tk, ik)
        return coeff

    return reference_sum(G, a, coefficient)


def family_cases():
    """The three families at small n, each with the Catalan and CRY netflows."""
    graphs = [complete_graph(n + 1) for n in range(2, 6)]
    graphs += [morris_graph(n + 1, a, b, m)
               for n in (2, 3, 4) for a in (1, 2) for b in (1, 2) for m in (1, 2)]
    graphs += [tesler_graph(n + 1, a, b) for n in (2, 3, 4) for a in (1, 2) for b in (1, 2)]
    for G in graphs:
        n = G.vertex_count - 1
        yield G, (1, 1) + (0,) * (n - 2) + (-2,)
        yield G, (1,) + (0,) * (n - 1) + (-1,)


@st.composite
def custom_multigraphs(draw):
    """A multigraph on at most 5 vertices with a netflow; dead ends, isolated
    vertices and disconnected graphs are all allowed."""
    n1 = draw(st.integers(2, 5))
    edges = tuple(
        (i, j, draw(st.integers(0, 2)))
        for i in range(1, n1 + 1) for j in range(i + 1, n1 + 1)
    )
    prefix = draw(st.lists(st.integers(0, 2), min_size=n1 - 1, max_size=n1 - 1))
    return Multigraph(n1, edges), tuple(prefix) + (-sum(prefix),)


class TestAgainstCompositionSum:
    def test_families_match_reference_loop(self):
        for G, a in family_cases():
            assert lidskii_volume(G, a) == reference_volume(G, a), (G, a)
            assert lidskii_points(G, a) == reference_points(G, a), (G, a)

    @settings(max_examples=150, deadline=None)
    @given(custom_multigraphs())
    def test_random_multigraphs(self, case):
        G, a = case
        assert lidskii_points(G, a) == kostant(G, a)
        p = ehrhart_polynomial(G, a)
        # only an empty polytope has no lattice point, and it alone gets the
        # zero polynomial; a nonempty one has P(0) = 1
        empty = _drop_dead_ends(G, a) is None
        assert empty == (kostant(G, a) == 0) == (p == EhrhartPolynomial((0,)))
        assert lidskii_volume(G, a) == p.normalized_volume

    def test_dead_end_vertex(self):
        # vertex 2 has no out-edge, so edge (1,2) is forced to carry 0
        G = Multigraph(3, ((1, 2, 1), (1, 3, 2)))
        assert kostant(G, (1, 0, -1)) == 2
        assert lidskii_points(G, (1, 0, -1)) == 2
        assert lidskii_volume(G, (1, 0, -1)) == 1
        # flows f1 + f2 = t on the two copies of (1,3): t + 1 points
        assert ehrhart_polynomial(G, (1, 0, -1)).differences == (1, 1)

    def test_supply_that_cannot_reach_the_sink(self):
        G = Multigraph(3, ((1, 3, 1),))
        assert kostant(G, (0, 1, -1)) == 0
        assert lidskii_points(G, (0, 1, -1)) == 0
        assert lidskii_volume(G, (0, 1, -1)) == 0
        assert ehrhart_polynomial(G, (0, 1, -1)).differences == (0,)


class TestVolume:
    def test_known_small_values(self):
        assert lidskii_volume(complete_graph(3), (1, 1, -2)) == 1
        assert lidskii_volume(complete_graph(4), (1, 1, 0, -2)) == 4
        assert lidskii_volume(complete_graph(4), (1, 0, 0, -1)) == 1

    def test_complete_graph_at_n_10(self):
        G = complete_graph(11)
        catalan = (1, 1) + (0,) * 8 + (-2,)
        cry = (1,) + (0,) * 9 + (-1,)
        assert lidskii_volume(G, catalan) == catalan_polytope_volume(10)
        assert lidskii_volume(G, cry) == cry_product(10)

    def test_rejects_bad_netflow(self):
        G = complete_graph(4)
        with pytest.raises(ValueError):
            lidskii_volume(G, (1, 1, -2))
        with pytest.raises(ValueError):
            lidskii_volume(G, (1, 1, 1, -2))
        with pytest.raises(ValueError):
            lidskii_volume(G, (1, -1, 1, -1))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    def test_scaling_degree(self, prefix):
        """vol is invariant under dilation once divided out of the Ehrhart
        leading term; check vol(2a) = 2^dim vol(a), which also holds when
        the polytope has dimension below dim and both volumes are 0."""
        G = complete_graph(4)
        a = tuple(prefix) + (-sum(prefix),)
        dim = G.edge_count - 3
        doubled = tuple(2 * x for x in a)
        assert lidskii_volume(G, doubled) == 2**dim * lidskii_volume(G, a)


class TestPoints:
    def test_equals_kostant(self):
        cases = [
            (complete_graph(4), (1, 1, 0, -2)),
            (complete_graph(5), (2, 0, 1, 0, -3)),
            (morris_graph(4, 2, 1, 1), (1, 0, 0, -1)),
            (tesler_graph(4, 1, 2), (1, 1, 1, -3)),
        ]
        for G, a in cases:
            assert lidskii_points(G, a) == kostant(G, a)


class TestPsVolume:
    def test_cry_values(self):
        expected = {3: 1, 4: 2, 5: 10, 6: 140}
        for n, v in expected.items():
            assert ps_volume(complete_graph(n + 1)) == v

    def test_agrees_with_composition_sum(self):
        for n in range(3, 6):
            G = complete_graph(n + 1)
            a = (1,) + (0,) * (n - 1) + (-1,)
            assert ps_volume(G) == lidskii_volume(G, a)


class TestEhrhart:
    def test_polynomial_shape(self):
        G = complete_graph(4)
        p = ehrhart_polynomial(G, (1, 1, 0, -2))
        assert len(p.differences) - 1 == G.edge_count - 3
        assert p(0) == 1
        assert p(1) == kostant(G, (1, 1, 0, -2))
        assert p.normalized_volume == 4

    def test_evaluation_matches_kostant_everywhere(self):
        G = tesler_graph(4, 1, 1)
        a = (1, 1, 1, -3)
        p = ehrhart_polynomial(G, a)
        for t in range(8):
            assert p(t) == kostant(G, tuple(t * x for x in a))

    def test_below_full_dimension_has_volume_zero(self):
        # no positive supply reaches vertex 1, so its out-edges carry 0 and
        # the polytope has dimension below N - n
        G = complete_graph(4)
        a = (0, 1, 0, -1)
        p = ehrhart_polynomial(G, a)
        assert p.normalized_volume == 0 == lidskii_volume(G, a)
        for t in range(8):
            assert p(t) == kostant(G, tuple(t * x for x in a))

    def test_segment_with_a_zero_supply_source(self):
        # edge (1,2) is forced to 0, yet the polytope is a full segment
        G = Multigraph(3, ((1, 2, 1), (2, 3, 2)))
        assert ehrhart_polynomial(G, (0, 1, -1)).normalized_volume == 1
        assert lidskii_volume(G, (0, 1, -1)) == 1

    @settings(max_examples=150, deadline=None)
    @given(custom_multigraphs())
    def test_matches_the_node_route(self, case):
        G, a = case
        assert ehrhart_polynomial(G, a) == reference_ehrhart(G, a)

    def test_zero_dimensional(self):
        # d = 0: one edge, one flow, at every dilation
        assert ehrhart_polynomial(complete_graph(2), (1, -1)).differences == (1,)

    def test_catalan_beyond_the_node_route(self):
        G = complete_graph(10)
        p = ehrhart_polynomial(G, (1, 1) + (0,) * 7 + (-2,))
        assert p.normalized_volume == catalan_polytope_volume(9)

    def test_two_points_sums_and_no_kostant_call(self, monkeypatch):
        calls = []
        sweep = lidskii._flow_sweep

        def counted(G, start, *args):
            calls.append(start)
            return sweep(G, start, *args)

        def forbidden(*args):
            raise AssertionError("ehrhart_polynomial called kostant")

        monkeypatch.setattr(lidskii, "_flow_sweep", counted)
        monkeypatch.setattr(lidskii, "kostant", forbidden)
        for G, a in family_cases():
            calls.clear()
            ehrhart_polynomial(G, a)
            assert 1 <= len(calls) <= 2

    def test_one_setup_and_two_sweeps_of_one_graph(self, monkeypatch):
        """The dead ends are dropped once, and both points sums sweep the
        same reversed graph with the same budget, at T and at B."""
        drops, sweeps = [], []
        drop, sweep = lidskii._drop_dead_ends, lidskii._flow_sweep

        def counted_drop(G, a):
            drops.append(a)
            return drop(G, a)

        def counted_sweep(G, start, budget, *args):
            sweeps.append((G, budget))
            return sweep(G, start, budget, *args)

        monkeypatch.setattr(lidskii, "_drop_dead_ends", counted_drop)
        monkeypatch.setattr(lidskii, "_flow_sweep", counted_sweep)
        dead_end = Multigraph(4, ((1, 2, 1), (1, 4, 2), (2, 4, 1))), (1, 1, 0, -2)
        for G, a in [*family_cases(), dead_end]:
            drops.clear()
            sweeps.clear()
            ehrhart_polynomial(G, a)
            assert len(drops) == 1
            assert len(sweeps) == 2 and sweeps[0] == sweeps[1]

    @pytest.mark.parametrize("bump, message", [
        (lambda M, B, d: 1, r"is \d+ at t = \d+, not \d+"),
        (lambda M, B, d: (M + 1) * comb(B, d), r"difference \d+ is \d+ > P\(\d+\)"),
    ], ids=["value at max(d, 1)", "digit above M"])
    def test_each_self_check_fires(self, monkeypatch, bump, message):
        G, a = complete_graph(4), (1, 1, 0, -2)
        d = G.edge_count - 3
        values = []
        sweep = lidskii._flow_sweep

        def wrong_at_large_dilation(G, start, budget, caps, weight):
            value = sweep(G, start, budget, caps, weight)
            values.append(value)
            if len(values) == 2:  # the sum at t = B
                # caps are B * rev(a) + rev(t), started at rev(t), and
                # the last vertex of the reversed graph is vertex 1, a_1 = 1
                M, B = values[0], caps[-1] - next(iter(start))[-1]
                value += bump(M, B, d)
            return value

        monkeypatch.setattr(lidskii, "_flow_sweep", wrong_at_large_dilation)
        with pytest.raises(ArithmeticError, match=message):
            ehrhart_polynomial(G, a)

    def test_binomial_basis_evaluation(self):
        p = EhrhartPolynomial((1, 2, 1))
        assert p(3) == 10
        assert p.normalized_volume == 1

    @pytest.mark.parametrize("G, a", [
        (complete_graph(4), (1, 1, 0, -2)),
        (complete_graph(4), (2, 1, 1, -4)),
        (tesler_graph(4, 1, 1), (1, 1, 1, -3)),
        (complete_graph(5), (1, 0, 0, 0, -1)),
    ])
    def test_reciprocity(self, G, a):
        """(-1)^d p(-t) counts the strictly positive flows of F_G(t * a),
        which are K_G(t * a - delta) with delta_v = outdeg(v) - indeg(v)."""
        p = ehrhart_polynomial(G, a)
        delta = [0] * G.vertex_count
        for i, j, m in G.edges:
            delta[i - 1] += m
            delta[j - 1] -= m
        for t in range(1, 6):
            interior = kostant(G, tuple(t * x - dx for x, dx in zip(a, delta)))
            assert (-1) ** (len(p.differences) - 1) * p(-t) == interior
