from collections import Counter
from itertools import product
from math import comb, factorial
from operator import index
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcat.verify
from flowcat.faces import (
    F_VECTOR_MAX_N,
    MAX_N,
    _checked_prefix,
    _merge,
    catalan_polytope_vertices,
    count_vertex_tableaux,
    f_vector,
    tableau_dimension,
    tableau_to_forest,
    vertex_count_formula,
    vertex_tableaux,
)
from flowcat.verify import vertices_by_acyclic_support


def cell(rows, i, j):
    return rows[i - 1][j - i]


def is_valid(rows, a):
    """The three support conditions of an a-Tesler tableau, checked cell by
    cell."""
    n = len(rows)
    if len(a) != n:
        return False
    nonzero = [any(row) for row in rows]
    for i in range(1, n + 1):
        if a[i - 1] > 0 and not nonzero[i - 1]:
            return False
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if cell(rows, i, j) == 1 and not nonzero[j - 1]:
                return False
    for j in range(1, n + 1):
        col_zero = all(cell(rows, i, j) == 0 for i in range(1, j))
        if a[j - 1] == 0 and col_zero and nonzero[j - 1]:
            return False
    return True


def forest_to_tableau(parents):
    """Inverse of tableau_to_forest: vertex v puts its 1 in column
    parent(v), or on the diagonal if it is a root."""
    n = len(parents)
    rows = [[0] * (n - i) for i in range(n)]
    for v, p in enumerate(parents, start=1):
        if p is not None:
            rows[v - 1][(p or v) - v] = 1
    return tuple(map(tuple, rows))


def roots(parents):
    return {v for v, p in enumerate(parents, start=1) if p == 0}


def leaves(parents):
    present = {v for v, p in enumerate(parents, start=1) if p is not None}
    return present - set(parents)


def brute_enumerate(a):
    """Oracle: generate every (0,1)-filling and filter by the validity
    predicate, ignoring the row-local dichotomy shortcut."""
    n = len(a)
    shapes = [n - i for i in range(n)]
    total = sum(shapes)
    out = []
    for mask in range(1 << total):
        bits = [(mask >> k) & 1 for k in range(total)]
        rows, pos = [], 0
        for w in shapes:
            rows.append(tuple(bits[pos : pos + w]))
            pos += w
        if is_valid(rows, a):
            out.append(tuple(rows))
    return out


class TestTableau:
    def test_cell_addressing(self):
        # rows[i-1][j-i] is cell (i, j): the 1s at (1, 3) and (2, 3) name
        # parent 3, the 1 at (3, 3) makes 3 a root
        rows = ((0, 0, 1), (0, 1), (1,))
        assert [cell(rows, 1, 3), cell(rows, 2, 3), cell(rows, 3, 3)] == [1, 1, 1]
        assert tableau_to_forest(rows) == [3, 3, 0]

    def test_shape_validation(self):
        for rows in (((1, 0),), ((1,), (1, 0)), ((2, 0), (0,))):
            with pytest.raises(ValueError):
                tableau_dimension(rows)
        with pytest.raises(ValueError, match="dimension-0"):
            tableau_to_forest(((1, 1), (1,)))

    def test_dimension(self):
        assert tableau_dimension(((1, 1, 0), (0, 1), (1,))) == 4 - 3
        assert tableau_dimension(()) == 0


def assert_matches_brute_force(a):
    tableaux = brute_enumerate(a)
    dims = Counter(tableau_dimension(T) for T in tableaux)
    assert f_vector(a) == [dims[d] for d in range(max(dims) + 1)]
    vertices = {rows for rows in tableaux if tableau_dimension(rows) == 0}
    assert set(vertex_tableaux(a)) == vertices


class TestEnumeration:
    def test_matches_brute_force(self):
        for n in range(1, 5):
            for a in product((0, 1, 2), repeat=n):
                assert_matches_brute_force(a)

    @settings(max_examples=4, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=5, max_size=5))
    def test_matches_brute_force_at_n_5(self, a):
        assert_matches_brute_force(a)

    def test_zero_netflow_single_tableau(self):
        assert f_vector((0, 0, 0)) == [1]
        assert vertex_tableaux((0, 0, 0)) == [((0, 0, 0), (0, 0), (0,))]

    def test_stream_order_and_count(self):
        """Depth first, by the column of each row's 1, and counted without
        a list."""
        for n in range(6):
            for a in product((0, 1, 2), repeat=n):
                tableaux = vertex_tableaux(a)
                assert tableaux == sorted(tableaux, key=lambda rows: [
                    row.index(1) if any(row) else -1 for row in rows])
                assert count_vertex_tableaux(a) == len(tableaux)

    def test_rejects_negative_entries(self):
        for fn in (f_vector, vertex_tableaux, count_vertex_tableaux):
            with pytest.raises(ValueError):
                fn((1, -1))

    def test_rejects_non_integer_entries(self):
        for fn in (f_vector, vertex_tableaux, count_vertex_tableaux):
            with pytest.raises(TypeError):
                fn((0.5, 1))

    def test_size_bound(self):
        for fn in (vertex_tableaux, count_vertex_tableaux):
            with pytest.raises(ValueError, match=f"n <= {MAX_N}"):
                fn((1,) * (MAX_N + 1))

    def test_f_vector_size_bound(self):
        with pytest.raises(ValueError, match=f"n <= {F_VECTOR_MAX_N}"):
            f_vector((1,) * (F_VECTOR_MAX_N + 1))


# the column-mask DP, which holds up to 2^n states: f_vector's reference
def reference_f_vector(a: Sequence[int]) -> list[int]:
    """Face counts of F_{K_{n+1}}(a') indexed by dimension.

    Rows are filled top to bottom.  Row i must be zero when a_i = 0 and
    column i holds no 1, and nonzero otherwise; the three validity conditions
    reduce to this rule.  So a state is the bitmask of the columns that hold
    a 1, mapped to its counts by dimension.  A forced row is filled one cell
    at a time, with a flag for "the row holds a 1": dimension = ones -
    nonzero rows, so the row's first 1 adds 0 and every later 1 adds 1.
    """
    a = _checked_prefix(a, F_VECTOR_MAX_N)
    n = len(a)
    states: dict[int, list[int]] = {0: [1]}
    for i in range(1, n + 1):
        done: dict[int, list[int]] = {}
        row: dict[tuple[int, bool], list[int]] = {}
        for mask, counts in states.items():
            if a[i - 1] > 0 or mask >> i & 1:
                _merge(row, (mask & ~(1 << i), False), counts)
            else:
                _merge(done, mask, counts)
        for j in range(i, n + 1):
            bit = 1 << j if j > i else 0
            filled = dict(row)
            for (mask, placed), counts in row.items():
                _merge(filled, (mask | bit, True), [0] + counts if placed else counts)
            row = filled
        for (mask, placed), counts in row.items():
            if placed:
                _merge(done, mask, counts)
        states = done
    return states[0]


class TestFVector:
    def test_segment(self):
        assert f_vector((1, 1)) == [2, 1]

    def test_top_dimension_for_positive_netflow(self):
        # all entries positive: the polytope has full dimension C(n+1,2) - n
        for n in (2, 3, 4):
            fv = f_vector((1,) * n)
            assert len(fv) - 1 == (n + 1) * n // 2 - n
            assert fv[-1] == 1

    def test_two_ones_up_to_the_bound(self):
        # f_0 of F_{K_{n+1}}(1,1,0,...,0,-2) equals the listed vertices
        for n in range(7, MAX_N + 1):
            a = (1, 1) + (0,) * (n - 2)
            assert f_vector(a)[0] == catalan_polytope_vertices(n) == len(vertex_tableaux(a))

    def test_two_ones_up_to_the_f_vector_bound(self):
        # F_{K_{n+1}}(1,1,0,...,0,-2) has dimension C(n,2) and 2*3^(n-2) vertices
        for n in range(2, F_VECTOR_MAX_N + 1):
            fv = f_vector((1, 1) + (0,) * (n - 2))
            assert fv[0] == catalan_polytope_vertices(n)
            assert sum((-1) ** d * c for d, c in enumerate(fv)) == 1
            assert len(fv) - 1 == comb(n, 2)
            assert fv[-1] == 1

    def test_vertex_counts_above_the_vertex_bound(self):
        # f_vector reaches past MAX_N: f_0 is 2*3^(n-2) for two ones, n! for all ones
        for n in range(MAX_N + 1, F_VECTOR_MAX_N + 1):
            assert f_vector((1, 1) + (0,) * (n - 2))[0] == catalan_polytope_vertices(n)
            assert f_vector((1,) * n)[0] == factorial(n)

    def test_matches_the_column_mask_reference(self):
        # every prefix in {0,1,2}^n with n <= 6, and three shapes at n = 10
        prefixes = [a for n in range(7) for a in product((0, 1, 2), repeat=n)]
        assert len(prefixes) == 1093
        for a in prefixes + [(1, 1) + (0,) * 8, (1,) * 10, (1,) + (0,) * 9]:
            assert f_vector(a) == reference_f_vector(a), a

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    def test_euler_characteristic(self, a):
        if sum(a) == 0:
            return
        fv = f_vector(a)
        assert sum((-1) ** d * c for d, c in enumerate(fv)) == 1


class TestForests:
    def test_decreasing_constraint(self):
        # every parent is a vertex of the forest and larger than its child
        for n in range(1, 5):
            for a in product((0, 1, 2), repeat=n):
                for rows in vertex_tableaux(a):
                    parents = tableau_to_forest(rows)
                    for v, p in enumerate(parents, start=1):
                        if p:
                            assert p > v and parents[p - 1] is not None

    def test_roots_and_leaves(self):
        rows = ((0, 0, 1, 0, 0), (0, 1, 0, 0), (1, 0, 0), (0, 0), (1,))
        parents = tableau_to_forest(rows)
        assert parents == [3, 3, 0, None, 0]
        assert roots(parents) == {3, 5}
        assert leaves(parents) == {1, 2, 5}

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=5))
    def test_round_trip(self, a):
        n = len(a)
        for rows in vertex_tableaux(a):
            parents = tableau_to_forest(rows)
            assert forest_to_tableau(parents) == rows
            # vertices with a 1 on the diagonal are exactly the roots
            assert roots(parents) == {i for i in range(1, n + 1) if cell(rows, i, i)}

    def test_leaves_lie_in_support(self):
        a = (1, 0, 1, 0)
        support = {i + 1 for i, x in enumerate(a) if x > 0}
        for rows in vertex_tableaux(a):
            assert leaves(tableau_to_forest(rows)) <= support


def reference_acyclic_support_count(a):
    """Reference for `vertices_by_acyclic_support`: the oracle that peels
    every candidate edge subset afresh for each netflow."""
    a = tuple(map(index, a))
    n1 = len(a) + 1
    netflow = a + (-sum(a),)
    edges = [(i, j) for i in range(1, n1 + 1) for j in range(i + 1, n1 + 1)]
    count = 0
    for mask in range(1 << len(edges)):
        if mask.bit_count() >= n1:  # a forest on n+1 vertices has at most n edges
            continue
        live = [e for k, e in enumerate(edges) if mask >> k & 1]
        residual = list(netflow)
        degree = [0] * (n1 + 1)
        for i, j in live:
            degree[i] += 1
            degree[j] += 1
        peeling = True
        while live and peeling:
            peeling = False
            for e in list(live):
                i, j = e
                if degree[i] == 1 or degree[j] == 1:
                    # the leaf's whole netflow crosses its one edge, from i to j
                    flow = residual[i - 1] if degree[i] == 1 else -residual[j - 1]
                    if flow <= 0:  # stop with e left: not a vertex
                        peeling = False
                        break
                    residual[i - 1] -= flow
                    residual[j - 1] += flow
                    degree[i] -= 1
                    degree[j] -= 1
                    live.remove(e)
                    peeling = True
        if not live and not any(residual):
            count += 1
    return count


# every prefix in {0,1,2}^n with n <= 5, grouped by length: the oracle
# shares each edge subset's peeling among the prefixes of one length
ACYCLIC_PREFIXES = [list(product((0, 1, 2), repeat=n)) for n in range(6)]


class TestVertexCounts:
    def test_formula_values(self):
        assert vertex_count_formula(0, 0) == 2
        assert vertex_count_formula(1, 2) == 36
        assert catalan_polytope_vertices(4) == 18

    def test_formula_matches_enumeration(self):
        for r in range(3):
            for s in range(3):
                a = (1,) + (0,) * r + (1,) + (0,) * s
                assert len(vertex_tableaux(a)) == vertex_count_formula(r, s)

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=5, max_size=5))
    def test_acyclic_supports_at_n_5(self, a):
        assert vertices_by_acyclic_support([a]) == [len(vertex_tableaux(a))]

    def test_acyclic_supports_match_the_reference(self):
        for prefixes in ACYCLIC_PREFIXES:
            expected = [reference_acyclic_support_count(a) for a in prefixes]
            assert vertices_by_acyclic_support(prefixes) == expected, len(prefixes[0])

    def test_acyclic_supports_come_in_input_order(self):
        prefixes = [(1, 1, 0), (0, 0, 0), (1, 0, 1), (1, 1, 0)]
        assert vertices_by_acyclic_support(prefixes) == [6, 1, 4, 6]
        assert vertices_by_acyclic_support([]) == []

    def test_acyclic_supports_reject_n_above_6_before_any_work(self, monkeypatch):
        def work(*args):
            raise AssertionError("the enumeration started before checking n")

        monkeypatch.setattr(flowcat.verify, "combinations", work)
        with pytest.raises(ValueError, match="n <= 6"):
            vertices_by_acyclic_support([(1,) * 7])

    def test_acyclic_supports_reject_mixed_lengths(self, monkeypatch):
        def work(*args):
            raise AssertionError("the enumeration started before checking the lengths")

        monkeypatch.setattr(flowcat.verify, "combinations", work)
        with pytest.raises(ValueError, match="same length"):
            vertices_by_acyclic_support([(1, 1), (1, 1, 0)])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            vertex_count_formula(-1, 0)
        with pytest.raises(ValueError):
            catalan_polytope_vertices(1)
