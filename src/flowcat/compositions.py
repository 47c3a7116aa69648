"""Weak compositions: the free entries of a staircase-matrix row in `flowcat.ctengine`."""

from __future__ import annotations

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
