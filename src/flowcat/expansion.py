"""The oracle of the `lemma-expand` suite: the pole product's coefficients on
a degree box, by truncated Laurent series and by explicit matrix tuples."""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Sequence

# Lazily registered by the package, as this module is.
from . import ctengine


def _box_product(
    start: dict[tuple[int, ...], int],
    factors: Sequence[dict[tuple[int, ...], int]],
    box: int,
) -> dict[tuple[int, ...], int]:
    """Coefficients of start times every factor on the box sum|e_i| <= box.

    Factors map exponent vectors to coefficients and are multiplied in one
    at a time; a term of a partial product is dropped when the remaining
    factors' per-variable least and greatest shifts cannot bring it back
    into the box.
    """
    n = len(next(iter(start), ()))
    # lo[k], hi[k]: per-variable least and greatest shift of factors k, k+1, ...
    lo, hi = [(0,) * n], [(0,) * n]
    for h in reversed(factors):
        lo.append(tuple(x + min(e[v] for e in h) for v, x in enumerate(lo[-1])))
        hi.append(tuple(x + max(e[v] for e in h) for v, x in enumerate(hi[-1])))
    lo.reverse()
    hi.reverse()
    states = dict(start)
    for k, h in enumerate(factors):
        new: dict[tuple[int, ...], int] = {}
        for e, c in states.items():
            for te, tc in h.items():
                ne = tuple(x + y for x, y in zip(e, te))
                if all(x + a <= box and x + b >= -box
                       for x, a, b in zip(ne, lo[k + 1], hi[k + 1])):
                    new[ne] = new.get(ne, 0) + c * tc
        states = new
    return {e: c for e, c in states.items() if sum(abs(x) for x in e) <= box}


def _series_histogram(
    f: ctengine.CTIntegrand, box: int, bound: int
) -> dict[tuple[int, ...], int]:
    """Coefficients of the integrand f on the box sum|e_i| <= box, by
    truncated Laurent-series multiplication; the constant term is the zero
    coefficient at box 0.

    Each pole factor is truncated at `bound` terms, with the same
    1/(x_j - x_i) = x_j^{-1} sum_k (x_i/x_j)^k convention as the CT engine,
    and the product is pruned to the box (`_box_product`).  Truncation is
    exact once `bound` is at least every term index that reaches the box;
    callers check stability in `bound`.
    """
    n = f.n_vars
    factors = [
        {tuple(r * (v == i) for v in range(n)): comb(r + b - 1, b - 1)
         for r in range(bound + 1)}
        for i, b in enumerate(f.one_minus_pole) if b > 0
    ]
    for i in range(n):
        for j in range(i + 1, n):
            x_i_over_x_j = {  # x_j^{-1} (x_i/x_j)^k
                tuple(k * (v == i) - (k + 1) * (v == j) for v in range(n)): 1
                for k in range(bound + 1)
            }
            factors += [x_i_over_x_j] * f.vandermonde_power
    start: dict[tuple[int, ...], int] = {}
    for c, exps in f.numerator:
        e = tuple(x - a for x, a in zip(exps, f.x_pole))
        start[e] = start.get(e, 0) + c
    return _box_product(start, factors, box)


def _matrix_histogram(
    n: int, b: int, m: int, box: int, bound: int
) -> dict[tuple[int, ...], int]:
    """Same coefficients from explicit matrix tuples: rectangular matrices
    contribute row sums, staircase upper triangular matrices hook sums.
    The factors are multiplied with the same pruning to the box
    (`_box_product`)."""
    # hook sums first: the row sums after them only add, so every partial
    # term already above the box is dropped at once
    factors: list[dict[tuple[int, ...], int]] = []
    if m > 0 and n > 1:
        free = [(i, j) for i in range(n) for j in range(i + 1, n)]
        single: dict[tuple[int, ...], int] = {}
        for vals in product(range(bound + 1), repeat=len(free)):
            grid = [[0] * n for _ in range(n)]
            for i in range(n):
                grid[i][i] = i
            for (i, j), v in zip(free, vals):
                grid[i][j] = v
            key = tuple(ctengine._hook_sum(grid, k) for k in range(1, n + 1))
            single[key] = single.get(key, 0) + 1
        factors += [single] * m

    if b > 0:
        # rows of an n x b matrix are independent
        for i in range(n):
            part: dict[tuple[int, ...], int] = {}
            for row in product(range(bound + 1), repeat=b):
                key = tuple(sum(row) * (v == i) for v in range(n))
                part[key] = part.get(key, 0) + 1
            factors.append(part)

    return _box_product({(0,) * n: 1}, factors, box)
