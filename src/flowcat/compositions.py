"""Weak compositions and exact binomial helpers.

Everything here is plain integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterator


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield every weak composition of `total` into `parts` parts, once each.

    Compositions come out in colexicographic order (last coordinate varies
    slowest).
    """
    if total < 0 or parts < 0:
        raise ValueError("total and parts must be nonnegative")

    def gen(t: int, k: int) -> Iterator[tuple[int, ...]]:
        if k == 0:
            if t == 0:
                yield ()
            return
        for last in range(t + 1):
            for rest in gen(t - last, k - 1):
                yield rest + (last,)

    return gen(total, parts)


def binomial(x: int, k: int) -> int:
    """Generalized binomial coefficient binom(x, k) for any integer x, k >= 0.

    Falling-factorial definition, so negative tops are fine:
    binom(-1, 2) == 1.
    """
    if k < 0:
        return 0
    if x >= 0:
        return comb(x, k)
    num = 1
    for i in range(k):
        num *= x - i
    return num // factorial(k)


def compositions_weight(value: int, slots: int) -> int:
    """Number of ways to write `value` as an ordered sum of `slots` >= 0 parts.

    Zero slots admit only value 0.
    """
    if value < 0:
        return 0
    if slots == 0:
        return 1 if value == 0 else 0
    return comb(value + slots - 1, slots - 1)
