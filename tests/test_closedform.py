from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcat.closedform import (
    _gamma_product,
    catalan,
    catalan_polytope_volume,
    cry_product,
    morris_closed,
    syt_staircase,
    tesler_family_volume,
    tesler_unit_volume,
)
from flowcat.ctengine import morris_ct


class TestGammaHalf:
    """_gamma_product(scale, num, den) = scale * prod G(x/2) / prod G(x/2),
    an int; a value that is not one raises."""

    def test_integer_arguments(self):
        assert _gamma_product(1, [2], []) == 1
        assert _gamma_product(1, [8], []) == 6
        assert _gamma_product(1, [10], []) == 24
        assert _gamma_product(1, [10], [8]) == 4

    def test_half_integer_arguments(self):
        with pytest.raises(ArithmeticError):
            _gamma_product(1, [1], [])
        with pytest.raises(ArithmeticError):
            _gamma_product(1, [], [3])
        # G(3/2) = sqrt(pi)/2, G(5/2) = 3 sqrt(pi)/4
        assert _gamma_product(2, [3], [1]) == 1
        assert _gamma_product(4, [5], [1]) == 3

    def test_non_integral_value_raises(self):
        # G(3/2)/G(1/2) = 1/2 and G(4)/G(5) = 1/4
        with pytest.raises(ArithmeticError, match="not an integer"):
            _gamma_product(1, [3], [1])
        with pytest.raises(ArithmeticError, match="not an integer"):
            _gamma_product(3, [8], [10])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _gamma_product(1, [0], [])
        with pytest.raises(ValueError):
            _gamma_product(1, [2], [-1])

    @given(st.integers(1, 20))
    def test_functional_equation(self, two_j):
        # Gamma(z + 1) = z Gamma(z) with z = two_j / 2
        assert _gamma_product(2, [two_j + 2], [two_j]) == two_j
        assert _gamma_product(two_j, [two_j], [two_j + 2]) == 2
        if two_j % 2:
            with pytest.raises(ArithmeticError, match="not an integer"):
                _gamma_product(1, [two_j + 2], [two_j])

    def test_sqrt_pi_bookkeeping(self):
        # Gamma(1/2)^2 = pi is not rational; dividing by it cancels it
        with pytest.raises(ArithmeticError):
            _gamma_product(1, [1, 1], [])
        assert _gamma_product(1, [1, 1], [1, 1]) == 1
        assert _gamma_product(3, [1, 3, 4], [5, 1]) == 2


class TestCatalan:
    @given(st.integers(1, 10))
    def test_recurrence(self, i):
        assert catalan(i) == sum(
            catalan(k) * catalan(i - 1 - k) for k in range(i)
        )

    def test_small_values(self):
        assert [catalan(i) for i in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_cry_product_values(self):
        assert [cry_product(n) for n in range(2, 8)] == [1, 1, 2, 10, 140, 5880]


class TestMorrisClosed:
    def test_one_variable_is_binomial(self):
        for a in range(4):
            for b in range(1, 5):
                for m in (1, 2, 3):
                    assert morris_closed(1, a, b, m) == comb(a + b - 1, a)

    def test_rationality_across_parities(self):
        # odd m exercises the sqrt(pi) cancellation; every value is an exact int
        for n in (2, 3):
            for m in (1, 2, 3):
                for value in (morris_closed(n, 1, 1, m),
                              morris_closed(n - 1, 0, 1, m),
                              tesler_family_volume(n, m, 1)):
                    assert type(value) is int

    def test_known_value(self):
        assert morris_closed(1, 2, 3, 1) == 6

    def test_odd_m_3_matches_constant_term(self):
        # the verify suite's box has m <= 2
        for n in (1, 2, 3):
            for a in (0, 1, 2):
                for b in (1, 2, 3):
                    assert morris_closed(n, a, b, 3) == morris_ct(n, a, b, 3)


class TestVolumeFormulas:
    def test_catalan_polytope_values(self):
        assert [catalan_polytope_volume(n) for n in (2, 3, 4, 5)] == [
            1, 4, 64, 5120
        ]

    def test_morris_volume_unit_parameters_give_cry(self):
        for n in range(2, 7):
            assert morris_closed(n - 1, 0, 1, 1) == cry_product(n)

    def test_tesler_volume_unit_case(self):
        for n in (2, 3, 4):
            assert tesler_family_volume(n, 1, 1) == tesler_unit_volume(n)

    def test_tesler_volume_rejects_b_zero(self):
        with pytest.raises(ValueError):
            tesler_family_volume(3, 1, 0)

    def test_tesler_unit_values(self):
        assert [tesler_unit_volume(n) for n in (2, 3, 4)] == [1, 4, 160]


class TestSytStaircase:
    def test_small_shapes(self):
        assert syt_staircase(2) == 1
        assert syt_staircase(3) == 2
        assert syt_staircase(4) == 16
        assert syt_staircase(5) == 768

    def test_brute_force_count(self):
        # linear extensions of the staircase poset (2, 1), counted directly
        from itertools import permutations

        cells = [(0, 0), (0, 1), (1, 0)]
        count = 0
        for perm in permutations(range(1, 4)):
            grid = dict(zip(cells, perm))
            if grid[(0, 0)] < grid[(0, 1)] and grid[(0, 0)] < grid[(1, 0)]:
                count += 1
        assert syt_staircase(3) == count
