"""Exact iterated constant terms CT_{x_n} ... CT_{x_1}.

The integrand family is a Laurent polynomial numerator times poles
x_i^{-a_i} (1-x_i)^{-b_i} prod_{i<j} (x_j - x_i)^{-m}, with 1/(x_j - x_i)
always expanded as the Laurent series x_j^{-1} sum_k (x_i/x_j)^k.

Under that convention every pole factor is a series with nonnegative
coefficients, so the constant term is a weighted count of exponent
configurations: (1-x_i)^{-b} contributes x_i^{r} with weight equal to the
number of matrix rows of length b summing to r, and each power of the
Vandermonde pole contributes hook-sum exponents of an upper triangular
matrix with staircase diagonal.  Following Baldoni and Vergne, those
configurations are the integer flows of a graph with one extra sink vertex,
so the constant term is a sum of Kostant partition function values, one per
numerator monomial.  It runs through the package's one flow sweep
(`flowcat.core._flow_sweep`), once per integrand, with the numerator's
monomials as its start states.  A power numerator (x_{i1}+...+x_{ik})^p,
as in the Tesler and reduction-identity integrands, is not expanded: it is
the sweep's budget p, shared by those variables (`core._power_sweep`).  So
`tesler_ct` makes the same sweep as `lidskii_volume` on its netflow, while
`catalan_polytope_ct` takes the reduction identity at a = 0 to a Morris CT,
as the paper's proof of Theorem 1 does, and is an independent route.

The matrix section enumerates those staircase matrices explicitly, as
tuples of row tuples (a row sum is `sum(row)`, a hook sum `_hook_sum`).
`staircase_matrices` builds the rows whose hook sums are pinned, and
`_bijection_failures` checks the drop-two-rows bijection behind
`reduction_identity` on them, on indices into the cropped family Y: each
square matrix of either side is a Y member plus one row, so each side is one
pass over Y per image index.  Y, and the identity's right-hand CT, depend
only on the head of the vector, so `reduction_identity` takes one head and
its pairs, and computes both once per call; the left-hand CT once per
unordered last pair.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from math import comb
from operator import index
from typing import Iterable, Iterator, Sequence

# Lazily registered by the package: only the matrix section runs it.
from . import compositions
from .core import Multigraph, _power_sweep


class CTIntegrand(namedtuple(
        "CTIntegrand", "n_vars numerator x_pole one_minus_pole vandermonde_power")):
    """Symbolic integrand for the iterated constant term.

    numerator: list of (coefficient, exponent vector) monomials; exponents
    may be negative.  x_pole[i] is the exponent a_i in x_i^{-a_i} (negative
    values mean a plain numerator power).  one_minus_pole[i] is b_i in
    (1-x_i)^{-b_i}.  vandermonde_power is m in prod_{i<j} (x_j-x_i)^{-m}.
    """

    __slots__ = ()

    def __new__(
        cls,
        n_vars: int,
        numerator: Sequence[tuple[int, Sequence[int]]],
        x_pole: Sequence[int] = (),
        one_minus_pole: Sequence[int] = (),
        vandermonde_power: int = 0,
    ) -> "CTIntegrand":
        n_vars, vandermonde_power = index(n_vars), index(vandermonde_power)
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        numerator = tuple(
            (index(c), tuple(map(index, exps))) for c, exps in numerator
        )
        x_pole = tuple(map(index, x_pole)) or (0,) * n_vars
        omp = tuple(map(index, one_minus_pole)) or (0,) * n_vars
        for _, exps in numerator:
            if len(exps) != n_vars:
                raise ValueError("monomial exponent vector has wrong length")
        if len(x_pole) != n_vars or len(omp) != n_vars:
            raise ValueError("pole vectors must have length n_vars")
        if any(b < 0 for b in omp):
            raise ValueError("one_minus_pole entries must be nonnegative")
        if vandermonde_power < 0:
            raise ValueError("vandermonde_power must be nonnegative")
        return super().__new__(cls, n_vars, numerator, x_pole, omp, vandermonde_power)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CTIntegrand":
        return cls(
            n_vars=data["vars"],
            numerator=data["numerator"],
            x_pole=data.get("x_pole") or (),
            one_minus_pole=data.get("one_minus_pole") or (),
            vandermonde_power=data.get("vandermonde", 0),
        )


def constant_term(f: CTIntegrand) -> int:
    """CT_{x_n} ... CT_{x_1} of the integrand, exactly.

    A configuration picks r_i >= 0 from (1-x_i)^{-b_i}, with weight
    C(r_i+b_i-1, b_i-1), and K_{i,j} >= 0 (i < j) from the m factors
    1/(x_j-x_i), with weight C(K_{i,j}+m-1, m-1).  It hits the constant
    term of x^e times the poles exactly when, for every i,

        (i-1)m + a_i - e_i + sum_{j<i} K_{j,i} = r_i + sum_{j>i} K_{i,j},

    so it is an integer flow on the graph on n+1 vertices with edges (i, j)
    of multiplicity m for i < j <= n and (i, n+1) of multiplicity b_i,
    where vertex i has netflow (i-1)m + a_i - e_i.  The sweep weights each
    flow by the same binomials.  The whole numerator enters as its start
    states, so one sweep covers every monomial.
    """
    return _power_ct(f, (), 0)


def _power_ct(f: CTIntegrand, support: Sequence[int], power: int) -> int:
    """CT of (sum_{i in support} x_i)^power times the integrand f.

    The power is not expanded: it is the budget of `core._power_sweep`, with
    c the indicator of the support.  Each monomial's start netflow omits the
    power, and the sink's is power minus the others.
    """
    n, m = f.n_vars, f.vandermonde_power
    edges = [(i, j, m) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges += [(i, n + 1, b) for i, b in enumerate(f.one_minus_pole, 1)]
    start: dict[tuple[int, ...], int] = defaultdict(int)
    for coeff, exps in f.numerator:
        net = tuple(i * m + a - e for i, (a, e) in enumerate(zip(f.x_pole, exps)))
        start[net + (power - sum(net),)] += coeff
    c = [int(v in support) for v in range(1, n + 2)]
    return _power_sweep(Multigraph(n + 1, tuple(edges)), start, c, power)


def catalan_polytope_ct(n: int) -> int:
    """CT of (x_{n-1} + x_n)^{C(n,2)} / prod_{i<j} (x_j - x_i).

    Equals the normalized volume of the flow polytope of K_{n+1} with
    netflow (1, 1, 0, ..., 0, -2).  At a = 0 the reduction identity
    (`reduction_identity`) reads 2 CT = 2^{C(n,2)} morris_ct(n-2, 0, 2, 1)
    for n >= 3, so the CT is computed as 2^{C(n,2)-1} times that Morris CT:
    a sweep of n - 1 vertices with no budget, not the power CT's budgeted
    sweep, which is the one `lidskii_volume` makes on the same netflow.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return 2 ** (comb(n, 2) - 1) * morris_ct(n - 2, 0, 2, 1) if n > 2 else 1


def morris_ct(n: int, a: int, b: int, m: int) -> int:
    """CT of prod x_i^{-a} (1-x_i)^{-b} prod_{i<j} (x_j - x_i)^{-m}."""
    if n < 1:
        raise ValueError("n must be positive")
    return constant_term(
        CTIntegrand(
            n,
            ((1, (0,) * n),),
            x_pole=(a,) * n,
            one_minus_pole=(b,) * n,
            vandermonde_power=m,
        )
    )


def tesler_ct(n: int, a: int, b: int) -> int:
    """CT of (x_1+...+x_n)^{a C(n,2) + n(b-1)} prod x_i^{-b+1}
    prod_{i<j} (x_j - x_i)^{-a}."""
    if n < 2:
        raise ValueError("n must be at least 2")
    power = a * comb(n, 2) + n * (b - 1)
    if power < 0:
        raise ValueError("numerator exponent is negative")
    f = CTIntegrand(n, ((1, (0,) * n),), x_pole=(b - 1,) * n,
                    vandermonde_power=a)
    return _power_ct(f, range(1, n + 1), power)


def reduction_identity(
    head: Sequence[int], pairs: Iterable[Sequence[int]]
) -> Iterator[tuple[tuple[int, ...], int, int, tuple[str, ...]]]:
    """Both sides of the pair-symmetrized CT reduction identity, and the
    bijection behind it, for each a_vec = head + pair, of length
    n = len(head) + 2.

    lhs = CT over n variables of
          (x_{n-1}+x_n)^{C(n,2)-a} (x_{n-1}^{a_{n-1}} x_n^{a_n}
          + x_{n-1}^{a_n} x_n^{a_{n-1}}) prod_{i<=n-2} x_i^{a_i}
          / prod_{i<j} (x_j - x_i),
    rhs = 2^{C(n,2)-a} * CT over n-2 variables of
          prod x_i^{a_i} (1-x_i)^{-2} / prod_{i<j} (x_j - x_i),
    where a = sum(a_vec).  Yields (a_vec, lhs, rhs, failures) for each pair,
    in order, with R = C(n,2) - a >= 0 (below 0 both sides are the empty
    binomial sum); failures is empty when the bijection holds.  The
    right-hand CT and Y's index tables depend only on the head, so they are
    computed once per call; the left-hand CT once per unordered pair.  A
    head longer than 3 (n > 5) raises on the first `next()`, before any work.
    """
    head = tuple(map(index, head))
    k = len(head)
    if k > 3:
        raise ValueError("enumeration supported for n <= 5, a head of length at most 3")
    n = k + 2
    rhs_ct = constant_term(CTIntegrand(k, ((1, head),), one_minus_pole=(2,) * k,
                                       vandermonde_power=1)) if k else 1
    tables = _cropped_family(tuple(-x for x in head))
    lhs_cts: dict[tuple[int, int], int] = {}
    for first, last in pairs:
        first, last = index(first), index(last)
        R = comb(n, 2) - sum(head) - first - last
        if R < 0:
            continue
        key = (min(first, last), max(first, last))
        if key not in lhs_cts:
            f = CTIntegrand(n, ((1, head + key), (1, head + key[::-1])), vandermonde_power=1)
            lhs_cts[key] = _power_ct(f, (n - 1, n), R)
        yield (head + (first, last), lhs_cts[key], 2**R * rhs_ct,
               _bijection_failures(*tables, R, first, last))


# --- explicit matrix enumeration and the reduction bijection -----------------


def _hook_sum(rows: Sequence[Sequence[int]], k: int) -> int:
    """h_k of a matrix given by its rows: row k right of the diagonal minus
    column k down to the diagonal (both 1-based, diagonal included in the
    column part)."""
    return sum(rows[k - 1][k:]) - sum(row[k - 1] for row in rows[:k])


def staircase_matrices(
    cols: int, hook_targets: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The first len(hook_targets) rows of every upper triangular matrix
    with `cols` columns and diagonal 0, 1, 2, ... whose hook sums h_1, h_2,
    ... are hook_targets.

    Given the rows above it, h_k fixes the sum of row k's entries right of
    the diagonal, so the rows are built top down; the rows below the
    targeted ones are not part of the result.
    """
    targets = tuple(map(index, hook_targets))

    def rec(rows: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        i = len(rows)
        if i == len(targets):
            yield rows
            return
        supply = targets[i] + i + sum(row[i] for row in rows)
        if supply < 0:
            return
        for free in compositions.weak_compositions(supply, cols - i - 1):
            yield from rec(rows + ((0,) * i + (i,) + free,))

    return rec(())


def _cropped_family(
    targets: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int | None, ...]]:
    """Per member of the cropped family Y = staircase_matrices(n, targets),
    n = len(targets) + 2: its column n-1 sum down to the diagonal, and the Y
    index of its crop on each side (X: the member; X': its column-swapped
    crop, None if not in Y)."""
    n = len(targets) + 2
    Y = list(staircase_matrices(n, targets))
    pos = {C: i for i, C in enumerate(Y)}
    diag = tuple(n - 2 + sum(row[n - 2] for row in C) for C in Y)
    own = tuple(pos[C] for C in Y)
    swapped = tuple(pos.get(tuple(r[: n - 2] + (r[n - 1], r[n - 2]) for r in C)) for C in Y)
    return diag, own, swapped


def _bijection_failures(
    diag: Sequence[int], own: Sequence[int], swapped: Sequence[int | None],
    R: int, first: int, last: int,
) -> tuple[str, ...]:
    """Machine-check the bijection behind the CT reduction identity for
    a_vec = head + (first, last), on the index tables of the head's cropped
    family Y (`_cropped_family`).

    For each window t in 0..R, R = C(n,2) - a, the square-matrix family X
    (X') is member i of Y plus a row n-1 whose one free entry, d_i - first
    - t (d_i - last - t), is >= 0, where d_i is member i's column n-1 sum.
    The drop-two-rows map sends it to (its crop, t) on X and (its
    column-swapped crop, R - t) on X'; the check is that these images,
    keyed by the int j(R+1) + t, cover Y x {0..R} once each, on the side
    that d_i - first - t >= 0 selects.  Returns the first 10 failures, so
    the bijection holds when the result is empty.

    Checks left out, as they cannot fail: h_{n-1} of the square rows is the
    free entry minus d_i, so the image index is always t on X and R - t on
    X', both in 0..R; the X crop is the member itself (`own`), never None;
    and the X' threshold d_i + 1 - first - t <= 0 negates the X one.
    """
    failures: list[str] = []
    images: dict[int, str] = {}
    for tag, anchor, crop in (("X", first, own), ("X'", last, swapped)):
        for t_window in range(R + 1):
            t = t_window if tag == "X" else R - t_window
            for i, d in enumerate(diag):
                if d - anchor - t_window < 0:
                    continue
                j = crop[i]
                if j is None:
                    failures.append(f"{tag}: cropped matrix not in Y")
                    continue
                if j * (R + 1) + t in images:
                    failures.append(f"duplicate image at index {t}")
                images[j * (R + 1) + t] = tag

    if len(images) != len(own) * (R + 1):
        failures.append(
            f"image count {len(images)} != |Y| * (R+1) = {len(own) * (R + 1)}"
        )

    for j, d in zip(own, diag):
        for t in range(R + 1):
            got = images.get(j * (R + 1) + t)
            if got is None:
                failures.append(f"no preimage for index {t}")
            elif (got == "X") != (d - first - t >= 0):
                failures.append(f"preimage side mismatch at t={t}")

    return tuple(failures[:10])
