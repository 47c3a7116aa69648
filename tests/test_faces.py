from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcat.faces import (
    MAX_N,
    DecreasingForest,
    TeslerTableau,
    catalan_polytope_vertices,
    f_vector,
    tableau_dimension,
    tableau_to_forest,
    vertex_count_formula,
    vertex_tableaux,
)


def is_valid(T, a):
    """The three support conditions of an a-Tesler tableau, checked cell by
    cell."""
    n = T.n
    if len(a) != n:
        return False
    for i in range(1, n + 1):
        if a[i - 1] > 0 and not T.row_nonzero(i):
            return False
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if T.cell(i, j) == 1 and not T.row_nonzero(j):
                return False
    for j in range(1, n + 1):
        col_zero = all(T.cell(i, j) == 0 for i in range(1, j))
        if a[j - 1] == 0 and col_zero and T.row_nonzero(j):
            return False
    return True


def forest_to_tableau(F, n):
    """Inverse of tableau_to_forest: vertex v puts its 1 in column
    parent(v), or on the diagonal if it is a root."""
    rows = [[0] * (n - i + 1) for i in range(1, n + 1)]
    for v in F.vertices:
        rows[v - 1][F.parents.get(v, v) - v] = 1
    return TeslerTableau(n, tuple(tuple(r) for r in rows))


def leaves(F):
    return F.vertices - set(F.parents.values())


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
        T = TeslerTableau(n, tuple(rows))
        if is_valid(T, a):
            out.append(T)
    return out


class TestTableau:
    def test_cell_addressing(self):
        T = TeslerTableau(3, ((1, 0, 1), (0, 1), (1,)))
        assert T.cell(1, 1) == 1
        assert T.cell(1, 3) == 1
        assert T.cell(2, 3) == 1
        assert T.cell(3, 3) == 1
        assert T.ones() == 4

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TeslerTableau(2, ((1, 0),))
        with pytest.raises(ValueError):
            TeslerTableau(2, ((2, 0), (0,)))

    def test_dimension(self):
        T = TeslerTableau(3, ((1, 1, 0), (0, 1), (1,)))
        assert tableau_dimension(T) == 4 - 3


def assert_matches_brute_force(a):
    tableaux = brute_enumerate(a)
    dims = Counter(tableau_dimension(T) for T in tableaux)
    assert f_vector(a) == [dims[d] for d in range(max(dims) + 1)]
    vertices = {T.rows for T in tableaux if tableau_dimension(T) == 0}
    assert {T.rows for T in vertex_tableaux(a)} == vertices


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
        (T,) = vertex_tableaux((0, 0, 0))
        assert T.ones() == 0

    def test_rejects_negative_entries(self):
        for fn in (f_vector, vertex_tableaux):
            with pytest.raises(ValueError):
                fn((1, -1))

    def test_rejects_non_integer_entries(self):
        for fn in (f_vector, vertex_tableaux):
            with pytest.raises(TypeError):
                fn((0.5, 1))

    def test_size_bound(self):
        for fn in (f_vector, vertex_tableaux):
            with pytest.raises(ValueError, match=f"n <= {MAX_N}"):
                fn((1,) * (MAX_N + 1))


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
        # F_{K_{n+1}}(1,1,0,...,0,-2) has dimension C(n,2) and 2*3^(n-2) vertices
        for n in range(7, MAX_N + 1):
            a = (1, 1) + (0,) * (n - 2)
            fv = f_vector(a)
            assert fv[0] == catalan_polytope_vertices(n) == len(vertex_tableaux(a))
            assert sum((-1) ** d * c for d, c in enumerate(fv)) == 1
            assert len(fv) - 1 == comb(n, 2)
            assert fv[-1] == 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    def test_euler_characteristic(self, a):
        if sum(a) == 0:
            return
        fv = f_vector(a)
        assert sum((-1) ** d * c for d, c in enumerate(fv)) == 1


class TestForests:
    def test_decreasing_constraint(self):
        with pytest.raises(ValueError):
            DecreasingForest(frozenset({1, 2}), {2: 1})
        with pytest.raises(ValueError):
            DecreasingForest(frozenset({2}), {2: 3})

    def test_roots_and_leaves(self):
        F = DecreasingForest(frozenset({1, 2, 3, 5}), {1: 3, 2: 3})
        assert F.roots == {3, 5}
        assert leaves(F) == {1, 2, 5}
        assert F.parent_array(5) == [3, 3, 0, None, 0]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=5))
    def test_round_trip(self, a):
        n = len(a)
        for T in vertex_tableaux(a):
            F = tableau_to_forest(T)
            assert forest_to_tableau(F, n).rows == T.rows
            # vertices with a 1 on the diagonal are exactly the roots
            diag = {i for i in range(1, n + 1) if T.cell(i, i) == 1}
            assert F.roots == diag

    def test_leaves_lie_in_support(self):
        a = (1, 0, 1, 0)
        support = {i + 1 for i, x in enumerate(a) if x > 0}
        for T in vertex_tableaux(a):
            F = tableau_to_forest(T)
            assert leaves(F) <= support


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

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            vertex_count_formula(-1, 0)
        with pytest.raises(ValueError):
            catalan_polytope_vertices(1)
