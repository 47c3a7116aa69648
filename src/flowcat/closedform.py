"""Exact closed-form product evaluations: Catalan products, the Morris
identity right-hand side, and the Gamma-product volume formulas of the
Catalan and Tesler families.  The a,b,m family with netflow (1,0,...,0,-1)
on K_{n+1} has volume morris_closed(n - 1, a - 1, b, m).

Every formula is an integer.  A Gamma product at half-integer arguments is
evaluated exactly as a quotient of integers, with its sqrt(pi) factors counted
apart; a sqrt(pi) or a remainder left over at the end of a product is a hard
error, never a rounding question.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable


def _gamma_product(scale: int, num: Iterable[int], den: Iterable[int]) -> int:
    """scale * prod_{x in num} G(x/2) / prod_{x in den} G(x/2), exactly.

    G(k) = (k-1)! and G(k+1/2) = (2k)! sqrt(pi) / (4^k k!).  The sqrt(pi)
    factors are counted, and one left over is an ArithmeticError; so is a
    product that is not an integer.
    """
    ratio = [scale, 1]  # numerator, denominator
    roots = 0
    for args, side in ((num, 0), (den, 1)):
        for x in args:
            if x <= 0:
                raise ValueError("Gamma argument must be positive")
            k, odd = divmod(x, 2)
            if odd:
                ratio[side] *= factorial(2 * k)
                ratio[1 - side] *= 4**k * factorial(k)
                roots += 1 - 2 * side
            else:
                ratio[side] *= factorial(k - 1)
    if roots:
        raise ArithmeticError(f"value carries a residual pi^({roots}/2) factor")
    value, rem = divmod(*ratio)
    if rem:
        raise ArithmeticError("the Gamma product is not an integer")
    return value


def catalan(i: int) -> int:
    """The i-th Catalan number binom(2i, i) / (i + 1)."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return comb(2 * i, i) // (i + 1)


def cry_product(n: int) -> int:
    """prod_{k=1}^{n-2} Cat(k): the volume of the Chan-Robbins-Yuen polytope
    CRY_n (empty product for n = 2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    out = 1
    for k in range(1, n - 1):
        out *= catalan(k)
    return out


def morris_closed(n: int, a: int, b: int, m: int) -> int:
    """Right-hand side of the Morris constant-term identity:

    (1/n!) prod_{j=0}^{n-1} G(a+b+(n-1+j)m/2) G(m/2)
           / (G(b+jm/2) G(m/2+jm/2) G(a+jm/2+1)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _gamma_product(
        1,
        [2 * (a + b) + (n - 1 + j) * m for j in range(n)] + [m] * n,
        [x for j in range(n) for x in (2 * b + j * m, m + j * m, 2 * a + j * m + 2)]
        + [2 * n + 2],  # G(n+1) = n!
    )


def catalan_polytope_volume(n: int) -> int:
    """2^{C(n,2)-1} * prod_{i=1}^{n-2} Cat(i): volume of the flow polytope of
    K_{n+1} with netflow (1, 1, 0, ..., 0, -2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return 2 ** (comb(n, 2) - 1) * cry_product(n)


def tesler_family_volume(n: int, a: int, b: int) -> int:
    """Gamma-product volume of the a,b multigraph family with netflow
    (1, ..., 1, -n):

    ((b-1)n + a C(n,2))! prod_{i=0}^{n-1} G(1+a/2)
                                          / (G(1+(i+1)a/2) G(b+ia/2)).

    b = 0 makes the i = 0 denominator Gamma(0); rejected rather than
    continued analytically.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    power = (b - 1) * n + a * comb(n, 2)
    if power < 0:
        raise ValueError("factorial argument is negative")
    return _gamma_product(
        factorial(power),
        [2 + a] * n,
        [x for i in range(n) for x in (2 + (i + 1) * a, 2 * b + i * a)],
    )


def syt_staircase(n: int) -> int:
    """Number of standard Young tableaux of staircase shape (n-1, ..., 1),
    by the hook length formula."""
    if n < 2:
        raise ValueError("n must be at least 2")
    shape = tuple(range(n - 1, 0, -1))
    cells = sum(shape)
    hooks = 1
    for r, width in enumerate(shape):
        for c in range(width):
            arm = width - c - 1
            leg = sum(1 for rr in range(r + 1, len(shape)) if shape[rr] > c)
            hooks *= arm + leg + 1
    return factorial(cells) // hooks


def tesler_unit_volume(n: int) -> int:
    """C(n,2)! * 2^{C(n,2)} / prod_{i=1}^n i!: volume of the Tesler polytope
    (the a = b = 1 member with netflow (1, ..., 1, -n)).

    Also asserts the equivalent SYT-times-Catalan-product form.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    c2 = comb(n, 2)
    denom = 1
    for i in range(1, n + 1):
        denom *= factorial(i)
    vol, rem = divmod(factorial(c2) * 2**c2, denom)
    if rem:
        raise ArithmeticError("volume formula did not produce an integer")
    alt = syt_staircase(n)
    for i in range(n):
        alt *= catalan(i)
    if alt != vol:
        raise ArithmeticError("SYT product form disagrees with the quotient form")
    return vol
