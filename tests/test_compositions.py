from math import comb

from hypothesis import given
from hypothesis import strategies as st

from flowcat.compositions import weak_compositions
from flowcat.lidskii import binomial


@given(st.integers(0, 8), st.integers(1, 5))
def test_weak_composition_count(total, parts):
    comps = list(weak_compositions(total, parts))
    assert len(comps) == comb(total + parts - 1, parts - 1)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == total and len(c) == parts for c in comps)


def test_weak_compositions_zero_parts():
    assert list(weak_compositions(0, 0)) == [()]
    assert list(weak_compositions(3, 0)) == []


def test_generalized_binomial():
    assert binomial(5, 2) == 10
    assert binomial(-2, 3) == -4
    assert binomial(-1, 2) == 1
    assert binomial(3, 0) == 1
    assert binomial(2, 5) == 0


@given(st.integers(-6, 6), st.integers(0, 6))
def test_binomial_pascal(x, k):
    assert binomial(x, k) + binomial(x, k + 1) == binomial(x + 1, k + 1)
