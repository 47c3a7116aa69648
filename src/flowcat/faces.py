"""Face structure of flow polytopes of the complete graph.

Faces of F_{K_{n+1}}(a') correspond to (0,1)-fillings of the shifted
staircase satisfying three support conditions (Tesler tableaux), graded by
dimension; dimension-0 tableaux biject with decreasing forests whose leaves
sit in the support of a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

# Enumeration builds every tableau: n = 6 takes seconds, n = 7 over a minute.
MAX_N = 6


@dataclass(frozen=True)
class TeslerTableau:
    """(0,1)-filling of the shifted staircase; rows[i-1][j-i] is cell (i, j)."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError("need one row per index 1..n")
        for i, row in enumerate(self.rows, start=1):
            if len(row) != self.n - i + 1:
                raise ValueError(f"row {i} must have {self.n - i + 1} cells")
            if any(v not in (0, 1) for v in row):
                raise ValueError("cells must be 0 or 1")

    def cell(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - i]

    def row_nonzero(self, i: int) -> bool:
        return any(self.rows[i - 1])

    def ones(self) -> int:
        return sum(sum(row) for row in self.rows)

    def is_valid(self, a: Sequence[int]) -> bool:
        """The three support conditions against the netflow prefix a."""
        a = tuple(a)
        if len(a) != self.n:
            return False
        for i in range(1, self.n + 1):
            if a[i - 1] > 0 and not self.row_nonzero(i):
                return False
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                if self.cell(i, j) == 1 and not self.row_nonzero(j):
                    return False
        for j in range(1, self.n + 1):
            col_zero = all(self.cell(i, j) == 0 for i in range(1, j))
            if a[j - 1] == 0 and col_zero and self.row_nonzero(j):
                return False
        return True


def tableau_dimension(T: TeslerTableau) -> int:
    """Number of 1s minus the number of nonzero rows."""
    nonzero = sum(1 for i in range(1, T.n + 1) if T.row_nonzero(i))
    return T.ones() - nonzero


@dataclass(frozen=True)
class DecreasingForest:
    """Rooted forest on a subset of [n] with every child smaller than its
    parent; roots carry no parent entry."""

    vertices: frozenset[int]
    parents: dict[int, int]

    def __post_init__(self) -> None:
        for child, parent in self.parents.items():
            if child not in self.vertices or parent not in self.vertices:
                raise ValueError("parent map must stay inside the vertex set")
            if child >= parent:
                raise ValueError("children must be smaller than their parents")

    @property
    def roots(self) -> frozenset[int]:
        return self.vertices - self.parents.keys()

    @property
    def leaves(self) -> frozenset[int]:
        return self.vertices - set(self.parents.values())

    def parent_array(self, n: int) -> list[int | None]:
        """Length-n serialization: parent label, 0 for a root, None if the
        vertex is absent from the forest."""
        out: list[int | None] = []
        for v in range(1, n + 1):
            if v not in self.vertices:
                out.append(None)
            else:
                out.append(self.parents.get(v, 0))
        return out


def enumerate_tableaux(a: Sequence[int]) -> list[tuple[TeslerTableau, int]]:
    """Every a-valid Tesler tableau with its dimension, each exactly once.

    Rows are filled top to bottom.  Once rows 1..j-1 are fixed, row j is
    forced all-zero when a_j = 0 and column j holds no 1, and forced nonzero
    otherwise when a_j > 0 or column j holds a 1; the three validity
    conditions reduce to exactly this row-local dichotomy.
    """
    a = tuple(int(x) for x in a)
    n = len(a)
    if any(x < 0 for x in a):
        raise ValueError("netflow prefix entries must be nonnegative")
    if n > MAX_N:
        raise ValueError(f"face enumeration supports n <= {MAX_N}, got n={n}")

    out: list[tuple[TeslerTableau, int]] = []
    rows: list[tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i > n:
            T = TeslerTableau(n, tuple(rows))
            out.append((T, tableau_dimension(T)))
            return
        width = n - i + 1
        # cell (k+1, i) lives at rows[k][i - (k+1)]
        col_has_one = any(rows[k][i - (k + 1)] for k in range(i - 1))
        must_fill = a[i - 1] > 0 or col_has_one
        if not must_fill:
            rows.append((0,) * width)
            rec(i + 1)
            rows.pop()
            return
        for pattern in range(1, 1 << width):
            row = tuple((pattern >> b) & 1 for b in range(width))
            rows.append(row)
            rec(i + 1)
            rows.pop()

    rec(1)
    return out


def f_vector(a: Sequence[int]) -> list[int]:
    """Face counts of F_{K_{n+1}}(a') indexed by dimension."""
    pairs = enumerate_tableaux(a)
    top = max(d for _, d in pairs)
    out = [0] * (top + 1)
    for _, d in pairs:
        out[d] += 1
    return out


def tableau_to_forest(T: TeslerTableau) -> DecreasingForest:
    """Dimension-0 tableau -> decreasing forest: nonzero rows become
    vertices, off-diagonal 1s edges, diagonal 1s roots."""
    if tableau_dimension(T) != 0:
        raise ValueError("only dimension-0 tableaux correspond to forests")
    vertices = frozenset(i for i in range(1, T.n + 1) if T.row_nonzero(i))
    parents: dict[int, int] = {}
    for i in vertices:
        for j in range(i + 1, T.n + 1):
            if T.cell(i, j):
                parents[i] = j
    return DecreasingForest(vertices, parents)


def forest_to_tableau(F: DecreasingForest, n: int) -> TeslerTableau:
    """Inverse of tableau_to_forest."""
    rows = [[0] * (n - i + 1) for i in range(1, n + 1)]
    for v in F.vertices:
        parent = F.parents.get(v)
        j = parent if parent is not None else v
        rows[v - 1][j - v] = 1
    return TeslerTableau(n, tuple(tuple(r) for r in rows))


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
    """The dimension-0 a-Tesler tableaux (the polytope's vertices)."""
    return [T for T, d in enumerate_tableaux(a) if d == 0]
