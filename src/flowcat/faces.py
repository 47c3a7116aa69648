"""Face structure of flow polytopes of the complete graph.

Faces of F_{K_{n+1}}(a') correspond to (0,1)-fillings of the shifted
staircase satisfying three support conditions (Tesler tableaux), graded by
dimension; dimension-0 tableaux biject with decreasing forests whose leaves
sit in the support of a.  A tableau is its tuple of row tuples and a forest
its parent array.
"""

from __future__ import annotations

from itertools import product, zip_longest
from math import comb
from operator import index
from typing import Sequence

# Listing the n! vertices of the all-ones prefix (`vertices --enumerate`) takes
# 0.8 s at n = 8, 11 s and 670 MB at n = 9.
MAX_N = 8
# The f_vector DP holds at most (n+1)(n+2)/2 states of two counts: n = 16
# takes about 0.15 s and 15 MB in a fresh process (2-core VM).
F_VECTOR_MAX_N = 16


def tableau_dimension(rows: Sequence[Sequence[int]]) -> int:
    """Number of 1s minus the number of nonzero rows of a tableau, given as
    its rows: rows[i-1][j-i] is cell (i, j) of the shifted staircase, so the
    rows have lengths n, n-1, ..., 1 and hold only 0s and 1s."""
    if [len(row) for row in rows] != list(range(len(rows), 0, -1)):
        raise ValueError("rows must have lengths n, n-1, ..., 1")
    if any(v not in (0, 1) for row in rows for v in row):
        raise ValueError("cells must be 0 or 1")
    return sum(map(sum, rows)) - sum(map(any, rows))


def _checked_prefix(a: Sequence[int], max_n: int) -> tuple[int, ...]:
    a = tuple(map(index, a))
    if any(x < 0 for x in a):
        raise ValueError("netflow prefix entries must be nonnegative")
    if len(a) > max_n:
        raise ValueError(f"faces are computed for n <= {max_n}, got n={len(a)}")
    return a


def _merge(states: dict, key: object, counts: list[int]) -> None:
    states[key] = [
        x + y for x, y in zip_longest(states.get(key, ()), counts, fillvalue=0)
    ]


def f_vector(a: Sequence[int]) -> list[int]:
    """Face counts of F_{K_{n+1}}(a') indexed by dimension.

    Row i is nonzero exactly when a_i > 0 or column i holds a 1; the three
    validity conditions reduce to this rule.  Rows are filled bottom to top.
    Row i may put a 1 on its diagonal or in the column of any nonzero row
    below it, never in a zero row's column, so which rows below are nonzero
    never matters, only how many.  A state is (s, u): s nonzero rows below,
    u of them with a_j = 0 and still no 1 in column j, mapped to counts by
    dimension; there are at most (n+1)(n+2)/2 states.  A row with a_i = 0
    may stay zero.  Any row may be nonzero, taking c of the u waiting
    columns and k of its other s - u + 1 cells (c + k >= 1) in
    comb(u, c) * comb(s - u + 1, k) ways: dimension = ones - nonzero rows
    grows by c + k - 1, and the state becomes (s + 1, u - c + [a_i = 0]).
    The faces are the states with u = 0.
    """
    a = _checked_prefix(a, F_VECTOR_MAX_N)
    states: dict[tuple[int, int], list[int]] = {(0, 0): [1]}
    for ai in reversed(a):
        done: dict[tuple[int, int], list[int]] = {}
        for (s, u), counts in states.items():
            if ai == 0:
                _merge(done, (s, u), counts)
            for c, k in product(range(u + 1), range(s - u + 2)):
                if c or k:
                    _merge(done, (s + 1, u - c + (ai == 0)), [0] * (c + k - 1)
                           + [comb(u, c) * comb(s - u + 1, k) * x for x in counts])
        states = done
    return [sum(column) for column in zip_longest(
        *(counts for (_, u), counts in states.items() if u == 0), fillvalue=0)]


def tableau_to_forest(rows: Sequence[Sequence[int]]) -> list[int | None]:
    """Dimension-0 tableau -> decreasing forest as its parent array: entry
    v-1 is the parent of v (the column of row v's single 1), 0 for a root (a
    1 on the diagonal), or None when row v is zero and v is absent."""
    if tableau_dimension(rows) != 0:
        raise ValueError("only dimension-0 tableaux correspond to forests")
    return [(i + row.index(1) if row[0] == 0 else 0) if any(row) else None
            for i, row in enumerate(rows, start=1)]


def vertex_count_formula(r: int, s: int) -> int:
    """Vertices of F_{K_{n+1}}(1, 0^r, 1, 0^s, -2): 2^{r+1} * 3^s."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")
    return 2 ** (r + 1) * 3**s


def catalan_polytope_vertices(n: int) -> int:
    """Vertices of F_{K_{n+1}}(1, 1, 0, ..., 0, -2): 2 * 3^{n-2}."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return 2 * 3 ** (n - 2)


def vertex_tableaux(a: Sequence[int]) -> list[tuple[tuple[int, ...], ...]]:
    """The dimension-0 a-Tesler tableaux (the polytope's vertices), each as
    its tuple of rows (see `tableau_dimension`).

    Dimension is the sum over nonzero rows of (ones - 1), so a tableau is a
    vertex exactly when every nonzero row holds a single 1: each row that must
    be nonzero (see f_vector) places one 1 and every other row stays zero.
    """
    a = _checked_prefix(a, MAX_N)
    n = len(a)
    partial: list[tuple[tuple[tuple[int, ...], ...], int]] = [((), 0)]
    for i in range(1, n + 1):
        width = n - i + 1
        # the possible rows i, shared by every tableau that holds them
        zero = (0,) * width
        ones = [zero[:k] + (1,) + zero[k + 1:] for k in range(width)]
        extended = []
        for rows, mask in partial:
            if a[i - 1] > 0 or mask >> i & 1:
                extended += [(rows + (row,), mask | 1 << (i + k))
                             for k, row in enumerate(ones)]
            else:
                extended.append((rows + (zero,), mask))
        partial = extended
    return [rows for rows, _ in partial]
