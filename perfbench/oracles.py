"""Answers for the benchmark's queries, computed apart from flowcat.

Nothing here imports flowcat: the product formulas are written out from the
paper's statements, half-integer Gamma values are built by the recursion
Gamma(x + 1) = x Gamma(x) from Gamma(1/2) = sqrt(pi), and lattice-point
counts come from enumerating every integer flow one by one.

    python3 perfbench/oracles.py            # check against the paper's values
    python3 perfbench/oracles.py --counts   # regenerate the flow-count table
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, factorial, prod
from typing import Sequence


def catalan(i: int) -> int:
    return comb(2 * i, i) // (i + 1)


def catalan_volume(n: int) -> int:
    """Volume for K_{n+1} with netflow (1, 1, 0, ..., 0, -2):
    2^{C(n,2)-1} prod_{i=1}^{n-2} Cat(i)."""
    return 2 ** (comb(n, 2) - 1) * prod(catalan(i) for i in range(1, n - 1))


def cry_volume(n: int) -> int:
    """Volume of the Chan-Robbins-Yuen polytope, K_{n+1} with netflow
    (1, 0, ..., 0, -1): prod_{k=1}^{n-2} Cat(k)."""
    return prod(catalan(k) for k in range(1, n - 1))


def tesler_unit_volume(n: int) -> int:
    """Volume of the Tesler polytope: C(n,2)! 2^{C(n,2)} / prod_{i=1}^n i!."""
    c2 = comb(n, 2)
    vol, rem = divmod(factorial(c2) * 2**c2, prod(factorial(i) for i in range(1, n + 1)))
    if rem:
        raise ArithmeticError("Tesler quotient is not an integer")
    return vol


def _gamma_half(two_x: int) -> tuple[Fraction, int]:
    """Gamma(two_x / 2) as (q, k), meaning q * sqrt(pi)^k."""
    if two_x <= 0:
        raise ValueError("Gamma argument must be positive")
    if two_x % 2 == 0:
        return Fraction(factorial(two_x // 2 - 1)), 0
    q, x = Fraction(1), Fraction(1, 2)
    while 2 * x < two_x:
        q *= x
        x += 1
    return q, 1


def _gamma_ratio(top: Sequence[int], bottom: Sequence[int]) -> Fraction:
    """prod Gamma(t/2) / prod Gamma(b/2), arguments given doubled; the
    sqrt(pi) powers must cancel."""
    q, k = Fraction(1), 0
    for t in top:
        g, e = _gamma_half(t)
        q, k = q * g, k + e
    for b in bottom:
        g, e = _gamma_half(b)
        q, k = q / g, k - e
    if k:
        raise ArithmeticError(f"residual sqrt(pi)^{k}")
    return q


def morris_ct(n: int, a: int, b: int, c: int) -> Fraction:
    """Morris identity: CT of prod x_i^{-a} (1-x_i)^{-b} prod_{i<j} (x_j-x_i)^{-c}
    equals prod_{j=0}^{n-1} Gamma(a+b+(n-1+j)c/2) Gamma(1+c/2)
    / (Gamma(a+1+jc/2) Gamma(b+jc/2) Gamma(1+(j+1)c/2))."""
    top, bottom = [], []
    for j in range(n):
        top += [2 * (a + b) + (n - 1 + j) * c, 2 + c]
        bottom += [2 * a + 2 + j * c, 2 * b + j * c, 2 + (j + 1) * c]
    return _gamma_ratio(top, bottom)


def morris_volume(n: int, a: int, b: int, m: int) -> Fraction:
    """Volume for K_{n+1}^{a,b,m} with netflow (1, 0, ..., 0, -1): the Morris
    constant term in n - 1 variables with x-pole a - 1."""
    return morris_ct(n - 1, a - 1, b, m)


def tesler_volume(n: int, a: int, b: int) -> Fraction:
    """Volume for K_{n+1}^{a,b} with netflow (1, ..., 1, -n):
    ((b-1)n + a C(n,2))! prod_{i=0}^{n-1} Gamma(1+a/2)
    / (Gamma(1+(i+1)a/2) Gamma(b+ia/2))."""
    top, bottom = [], []
    for i in range(n):
        top.append(2 + a)
        bottom += [2 + (i + 1) * a, 2 * b + i * a]
    return factorial((b - 1) * n + a * comb(n, 2)) * _gamma_ratio(top, bottom)


def count_flows(vertices: int, edges: Sequence[Sequence[int]], netflow: Sequence[int]) -> int:
    """Number of integer flows, found by listing every flow.

    An edge (i, j, m) is m separate slots.  Vertices are visited in order;
    each one's supply (netflow plus what has arrived) is split over its
    out-slots in every possible way, and each completed assignment that
    leaves the last vertex balanced is one flow.
    """
    out: list[list[int]] = [[] for _ in range(vertices + 1)]
    for i, j, m in edges:
        out[i] += [j] * m
    inflow = [0] * (vertices + 1)

    def visit(v: int) -> int:
        if v == vertices:
            return 1 if inflow[v] + netflow[v - 1] == 0 else 0
        supply = netflow[v - 1] + inflow[v]
        if supply < 0:
            return 0
        return split(v, 0, supply)

    def split(v: int, k: int, left: int) -> int:
        targets = out[v]
        if k == len(targets):
            return visit(v + 1) if left == 0 else 0
        if k == len(targets) - 1:
            choices = range(left, left + 1)
        else:
            choices = range(left + 1)
        found = 0
        for x in choices:
            inflow[targets[k]] += x
            found += split(v, k + 1, left - x)
            inflow[targets[k]] -= x
        return found

    return visit(1)


def family_edges(kind: str, params: Sequence[int]) -> tuple[int, list[tuple[int, int, int]]]:
    """(vertex count, edges) of complete:V, morris:V,a,b,m or tesler:V,a,b."""
    v = params[0]
    if kind == "complete":
        return v, [(i, j, 1) for i in range(1, v + 1) for j in range(i + 1, v + 1)]
    if kind == "morris":
        _, a, b, m = params
        return v, ([(1, i, a) for i in range(2, v)] + [(i, v, b) for i in range(2, v)]
                   + [(i, j, m) for i in range(2, v) for j in range(i + 1, v)])
    if kind == "tesler":
        _, a, b = params
        return v, ([(i, j, a) for i in range(1, v) for j in range(i + 1, v)]
                   + [(i, v, b) for i in range(1, v)])
    raise ValueError(f"unknown family {kind!r}")


def self_test() -> list[str]:
    """Mismatches against the paper's small values and between the two
    Tesler formulas; empty when every oracle agrees."""
    bad = []

    def check(label: str, got: object, want: object) -> None:
        if got != want:
            bad.append(f"{label}: got {got}, want {want}")

    check("Catalan volumes n=2..5", [catalan_volume(n) for n in range(2, 6)], [1, 4, 64, 5120])
    check("CRY volumes n=3..7", [cry_volume(n) for n in range(3, 8)], [1, 2, 10, 140, 5880])
    check("Tesler volumes n=3..5", [tesler_unit_volume(n) for n in range(3, 6)], [4, 160, 107520])
    for n in range(2, 7):
        check(f"Tesler Gamma product n={n}", tesler_volume(n, 1, 1), tesler_unit_volume(n))
    for n in range(3, 8):
        check(f"CRY as Morris K^(1,1,1) n={n}", morris_volume(n, 1, 1, 1), cry_volume(n))
    for a in range(3):
        for b in range(1, 4):
            check(f"Morris n=1 a={a} b={b}", morris_ct(1, a, b, 2), comb(a + b - 1, a))
    check("flows on K_3, netflow (1,0,-1)", count_flows(*family_edges("complete", [3]), (1, 0, -1)), 2)
    check("flows with a dead end", count_flows(3, [(1, 2, 1), (1, 3, 2)], (1, 0, -1)), 2)
    check("flows on K_4, netflow (1,1,0,-2)",
          count_flows(*family_edges("complete", [4]), (1, 1, 0, -2)), 7)
    return bad


def _print_counts() -> None:
    from workloads import family_point_queries

    for spec, netflow in family_point_queries():
        kind, _, params = spec.partition(":")
        graph = family_edges(kind, [int(x) for x in params.split(",")])
        print(f"{spec} netflow {','.join(map(str, netflow))}: {count_flows(*graph, netflow)}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--counts"]:
        _print_counts()
    else:
        problems = self_test()
        print("\n".join(problems) if problems else "all oracles match the paper's values")
        sys.exit(1 if problems else 0)
