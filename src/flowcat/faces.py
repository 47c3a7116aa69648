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
from typing import Iterator, Sequence

# `vertices --enumerate` lists the n! vertices of the all-ones prefix in 1.0 s
# and 80 MB at n = 8 (fresh process, 2-core VM); `--count-only` streams them in
# 14 MB: 0.2 s at n = 8, 0.9 s at n = 9 and 6.3 s at n = 10 with the bound lifted.
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
    its tuple of rows (see `tableau_dimension`), in the order of `_vertex_rows`."""
    return list(_vertex_rows(_checked_prefix(a, MAX_N)))


def count_vertex_tableaux(a: Sequence[int]) -> int:
    """The number of vertex tableaux, counted as `_vertex_rows` streams them."""
    return sum(1 for _ in _vertex_rows(_checked_prefix(a, MAX_N)))


def _vertex_rows(a: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The vertex tableaux of a checked prefix, depth first, ordered by the
    column of each row's 1.

    Dimension is the sum over nonzero rows of (ones - 1), so a tableau is a
    vertex exactly when every nonzero row holds a single 1: each row that must
    be nonzero (see f_vector) places one 1 and every other row stays zero.
    The stack holds at most n partial tableaux per row, each with the
    bitmask of the columns that hold a 1."""
    n = len(a)
    # the possible rows i, shared by every tableau that holds them
    zeros = [(0,) * width for width in range(n, 0, -1)]
    ones = [[zero[:k] + (1,) + zero[k + 1:] for k in range(len(zero))] for zero in zeros]
    stack: list[tuple[tuple[tuple[int, ...], ...], int]] = [((), 0)]
    while stack:
        rows, mask = stack.pop()
        i = len(rows) + 1
        if i > n:
            yield rows
        elif a[i - 1] > 0 or mask >> i & 1:  # pushed last to first, popped in order
            stack += [(rows + (ones[i - 1][k],), mask | 1 << (i + k))
                      for k in range(n - i, -1, -1)]
        else:
            stack.append((rows + (zeros[i - 1],), mask))
