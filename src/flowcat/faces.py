"""Face structure of flow polytopes of the complete graph.

Faces of F_{K_{n+1}}(a') correspond to (0,1)-fillings of the shifted
staircase satisfying three support conditions (Tesler tableaux), graded by
dimension; dimension-0 tableaux biject with decreasing forests whose leaves
sit in the support of a.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest
from operator import index
from typing import Sequence

# Listing the n! vertices of the all-ones prefix takes 2 s at n = 8, 21 s at n = 9.
MAX_N = 8


class TeslerTableau(namedtuple("TeslerTableau", "n rows")):
    """(0,1)-filling of the shifted staircase; rows[i-1][j-i] is cell (i, j)."""

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "TeslerTableau":
        if len(rows) != n:
            raise ValueError("need one row per index 1..n")
        for i, row in enumerate(rows, start=1):
            if len(row) != n - i + 1:
                raise ValueError(f"row {i} must have {n - i + 1} cells")
            if any(v not in (0, 1) for v in row):
                raise ValueError("cells must be 0 or 1")
        return super().__new__(cls, n, rows)

    def cell(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - i]

    def row_nonzero(self, i: int) -> bool:
        return any(self.rows[i - 1])

    def ones(self) -> int:
        return sum(sum(row) for row in self.rows)


def tableau_dimension(T: TeslerTableau) -> int:
    """Number of 1s minus the number of nonzero rows."""
    nonzero = sum(1 for i in range(1, T.n + 1) if T.row_nonzero(i))
    return T.ones() - nonzero


class DecreasingForest(namedtuple("DecreasingForest", "vertices parents")):
    """Rooted forest on a subset of [n] with every child smaller than its
    parent; roots carry no parent entry."""

    __slots__ = ()

    def __new__(
        cls, vertices: frozenset[int], parents: dict[int, int]
    ) -> "DecreasingForest":
        for child, parent in parents.items():
            if child not in vertices or parent not in vertices:
                raise ValueError("parent map must stay inside the vertex set")
            if child >= parent:
                raise ValueError("children must be smaller than their parents")
        return super().__new__(cls, vertices, parents)

    @property
    def roots(self) -> frozenset[int]:
        return self.vertices - self.parents.keys()

    def parent_array(self, n: int) -> list[int | None]:
        """Length-n serialization: parent label, 0 for a root, None if the
        vertex is absent from the forest."""
        return [self.parents.get(v, 0) if v in self.vertices else None
                for v in range(1, n + 1)]


def _checked_prefix(a: Sequence[int]) -> tuple[int, ...]:
    a = tuple(map(index, a))
    if any(x < 0 for x in a):
        raise ValueError("netflow prefix entries must be nonnegative")
    if len(a) > MAX_N:
        raise ValueError(f"faces are computed for n <= {MAX_N}, got n={len(a)}")
    return a


def _merge(states: dict, key: object, counts: list[int]) -> None:
    states[key] = [
        x + y for x, y in zip_longest(states.get(key, ()), counts, fillvalue=0)
    ]


def f_vector(a: Sequence[int]) -> list[int]:
    """Face counts of F_{K_{n+1}}(a') indexed by dimension.

    Rows are filled top to bottom.  Row i must be zero when a_i = 0 and
    column i holds no 1, and nonzero otherwise; the three validity conditions
    reduce to this rule.  So a state is the bitmask of the columns that hold
    a 1, mapped to its counts by dimension.  A forced row is filled one cell
    at a time, with a flag for "the row holds a 1": dimension = ones -
    nonzero rows, so the row's first 1 adds 0 and every later 1 adds 1.
    """
    a = _checked_prefix(a)
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


def tableau_to_forest(T: TeslerTableau) -> DecreasingForest:
    """Dimension-0 tableau -> decreasing forest: nonzero rows become
    vertices, off-diagonal 1s edges, diagonal 1s roots."""
    if tableau_dimension(T) != 0:
        raise ValueError("only dimension-0 tableaux correspond to forests")
    vertices = frozenset(i for i in range(1, T.n + 1) if T.row_nonzero(i))
    # each nonzero row holds a single 1; off the diagonal it names the parent
    parents = {i: i + T.rows[i - 1].index(1) for i in vertices if not T.cell(i, i)}
    return DecreasingForest(vertices, parents)


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


def vertex_tableaux(a: Sequence[int]) -> list[TeslerTableau]:
    """The dimension-0 a-Tesler tableaux (the polytope's vertices).

    Dimension is the sum over nonzero rows of (ones - 1), so a tableau is a
    vertex exactly when every nonzero row holds a single 1: each forced row
    (see f_vector) places one 1 and every other row stays zero.
    """
    a = _checked_prefix(a)
    n = len(a)
    partial: list[tuple[tuple[tuple[int, ...], ...], int]] = [((), 0)]
    for i in range(1, n + 1):
        width = n - i + 1
        extended = []
        for rows, mask in partial:
            if a[i - 1] > 0 or mask >> i & 1:
                extended += [(rows + (tuple(int(c == k) for c in range(width)),),
                              mask | 1 << (i + k)) for k in range(width)]
            else:
                extended.append((rows + ((0,) * width,), mask))
        partial = extended
    return [TeslerTableau(n, rows) for rows, _ in partial]
