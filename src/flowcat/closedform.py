"""Exact closed-form product evaluations: Catalan products, the Morris
identity right-hand side, and the Gamma-product volume formulas for the
three polytope families.

Gamma at half-integers is kept exact as a pair (rational, power of sqrt(pi));
a residual sqrt(pi) exponent at the end of a product is a hard error, never a
rounding question.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


class GammaHalfValue:
    """The exact value q * pi^(e/2), q rational and e an integer.

    Immutable, compared and hashed as the pair (q, e).  Not a tuple, so that
    `2 * value` raises instead of repeating it.
    """

    __slots__ = ("q", "e")

    def __init__(self, q: Fraction, e: int = 0) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "e", e)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.q, self.e) == (other.q, other.e)

    def __hash__(self) -> int:
        return hash((self.q, self.e))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(q={self.q!r}, e={self.e!r})"

    def __mul__(self, other: "GammaHalfValue") -> "GammaHalfValue":
        return GammaHalfValue(self.q * other.q, self.e + other.e)

    def __truediv__(self, other: "GammaHalfValue") -> "GammaHalfValue":
        return GammaHalfValue(self.q / other.q, self.e - other.e)

    @property
    def is_rational(self) -> bool:
        return self.e == 0

    def to_rational(self) -> Fraction:
        if self.e != 0:
            raise ArithmeticError(
                f"value carries a residual pi^({self.e}/2) factor"
            )
        return self.q


def gamma_half(two_j: int) -> GammaHalfValue:
    """Gamma(two_j / 2), exactly.

    Integer arguments give factorials; half-integer arguments reduce to
    Gamma(1/2) = sqrt(pi) through the double-factorial recursion.
    """
    if two_j <= 0:
        raise ValueError("Gamma argument must be positive")
    if two_j % 2 == 0:
        return GammaHalfValue(Fraction(factorial(two_j // 2 - 1)))
    k = (two_j - 1) // 2  # argument is k + 1/2
    return GammaHalfValue(Fraction(factorial(2 * k), 4**k * factorial(k)), 1)


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


def morris_closed(n: int, a: int, b: int, m: int) -> Fraction:
    """Right-hand side of the Morris constant-term identity:

    (1/n!) prod_{j=0}^{n-1} G(a+b+(n-1+j)m/2) G(m/2)
           / (G(b+jm/2) G(m/2+jm/2) G(a+jm/2+1)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    acc = GammaHalfValue(Fraction(1, factorial(n)))
    for j in range(n):
        acc = acc * gamma_half(2 * (a + b) + (n - 1 + j) * m)
        acc = acc * gamma_half(m)
        acc = acc / gamma_half(2 * b + j * m)
        acc = acc / gamma_half(m + j * m)
        acc = acc / gamma_half(2 * a + j * m + 2)
    return acc.to_rational()


def catalan_polytope_volume(n: int) -> int:
    """2^{C(n,2)-1} * prod_{i=1}^{n-2} Cat(i): volume of the flow polytope of
    K_{n+1} with netflow (1, 1, 0, ..., 0, -2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return 2 ** (comb(n, 2) - 1) * cry_product(n)


def morris_polytope_volume(n: int, a: int, b: int, m: int) -> Fraction:
    """Gamma-product volume of the a,b,m multigraph family with netflow
    (1, 0, ..., 0, -1):

    (1/(n-1)!) prod_{j=0}^{n-2} G(a-1+b+(n-2+j)m/2) G(m/2)
               / (G(a+jm/2) G(b+jm/2) G(m/2+jm/2)).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    acc = GammaHalfValue(Fraction(1, factorial(n - 1)))
    for j in range(n - 1):
        acc = acc * gamma_half(2 * (a - 1 + b) + (n - 2 + j) * m)
        acc = acc * gamma_half(m)
        acc = acc / gamma_half(2 * a + j * m)
        acc = acc / gamma_half(2 * b + j * m)
        acc = acc / gamma_half(m + j * m)
    return acc.to_rational()


def tesler_family_volume(n: int, a: int, b: int) -> Fraction:
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
    acc = GammaHalfValue(Fraction(factorial(power)))
    for i in range(n):
        acc = acc * gamma_half(2 + a)
        acc = acc / gamma_half(2 + (i + 1) * a)
        acc = acc / gamma_half(2 * b + i * a)
    return acc.to_rational()


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
