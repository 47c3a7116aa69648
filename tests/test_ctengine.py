import json
import random
from collections import defaultdict
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcat.core
import flowcat.ctengine
from flowcat.closedform import tesler_unit_volume
from flowcat.compositions import weak_compositions
from flowcat.ctengine import (
    CTIntegrand,
    _cropped_family,
    _hook_sum,
    _power_ct,
    catalan_polytope_ct,
    constant_term,
    morris_ct,
    reduction_identity,
    staircase_matrices,
    tesler_ct,
)
from flowcat.expansion import _series_histogram
from flowcat.verify import suite_reduction_identity


def series_ct(f: CTIntegrand, bound: int) -> int:
    """The constant term as the zero coefficient of the truncated
    Laurent-series oracle at box 0; callers check stability in `bound`."""
    return _series_histogram(f, 0, bound).get((0,) * f.n_vars, 0)


@st.composite
def integrands(draw, n: int, m: int) -> CTIntegrand:
    """A random integrand on n variables with Vandermonde power m: a few
    monomials with signed coefficients and exponents, often repeating an
    exponent vector, and per-variable poles, where a zero (1-x_i) pole
    leaves vertex i without a sink edge."""
    exps = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * n),
                         min_size=1, max_size=3))
    numerator = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from(exps)),
        min_size=1, max_size=4,
    ))
    x_pole = draw(st.tuples(*[st.integers(-1, 2)] * n))
    one_minus_pole = draw(st.tuples(*[st.integers(0, 2)] * n))
    return CTIntegrand(n, tuple(numerator), x_pole, one_minus_pole, m)


def flow_bound(f: CTIntegrand) -> int:
    """The largest total positive netflow (i-1)m + a_i - e_i over the
    monomials; no series term of a higher index reaches the constant term."""
    m = f.vandermonde_power
    return max(
        sum(max(0, i * m + a - e) for i, (a, e) in enumerate(zip(f.x_pole, exps)))
        for _, exps in f.numerator
    )


class TestConstantTerm:
    def test_single_variable_by_hand(self):
        # CT x^-2 (1-x)^-3 = coeff of x^2 in (1-x)^-3 = C(4,2)
        f = CTIntegrand(1, ((1, (0,)),), x_pole=(2,), one_minus_pole=(3,))
        assert constant_term(f) == 6

    def test_pure_numerator(self):
        f = CTIntegrand(2, ((5, (0, 0)), (7, (1, 0))))
        assert constant_term(f) == 5

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 2),
        st.data(),
    )
    def test_matches_series_oracle(self, n, a, b, m, data):
        uniform = CTIntegrand(
            n,
            ((1, (0,) * n),),
            x_pole=(a,) * n,
            one_minus_pole=(b,) * n,
            vandermonde_power=m,
        )
        mixed = data.draw(integrands(n, m))
        for f, bound in ((uniform, 3 * (a + 1) * n), (mixed, flow_bound(mixed))):
            lo = series_ct(f, bound)
            hi = series_ct(f, bound + 2)
            assert lo == hi, "series truncation not stable"
            assert constant_term(f) == lo

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2), st.integers(0, 6), st.data())
    def test_power_numerator_as_budget(self, n, m, p, data):
        """CT of (sum_{i in S} x_i)^p * f with the power as the sweep's
        budget, against constant_term on the expanded numerator."""
        f = data.draw(integrands(n, m))
        support = data.draw(st.lists(st.integers(1, n), unique=True))
        expanded = []
        for coeff, exps in f.numerator:
            for comp in weak_compositions(p, len(support)):
                e = list(exps)
                for v, k in zip(support, comp):
                    e[v - 1] += k
                multinomial = factorial(p) // prod(map(factorial, comp))
                expanded.append((coeff * multinomial, tuple(e)))
        g = CTIntegrand(n, tuple(expanded), f.x_pole, f.one_minus_pole, m)
        assert _power_ct(f, support, p) == constant_term(g)

    def test_mixed_numerator_against_series(self):
        f = CTIntegrand(
            2,
            ((1, (2, 0)), (-3, (0, 1)), (2, (1, 1))),
            x_pole=(1, 0),
            one_minus_pole=(1, 2),
            vandermonde_power=1,
        )
        assert series_ct(f, 12) == series_ct(f, 14)
        assert constant_term(f) == series_ct(f, 12)

    def test_json_round_trip(self):
        f = CTIntegrand(
            2, ((1, (1, -2)),), x_pole=(0, 3), one_minus_pole=(2, 0),
            vandermonde_power=2,
        )
        data = json.loads('{"vars": 2, "numerator": [[1, [1, -2]]], "x_pole": [0, 3],'
                          ' "one_minus_pole": [2, 0], "vandermonde": 2}')
        assert CTIntegrand.from_json_dict(data) == f
        del data["x_pole"], data["one_minus_pole"], data["vandermonde"]
        assert CTIntegrand.from_json_dict(data) == CTIntegrand(2, ((1, (1, -2)),))

    def test_validation(self):
        with pytest.raises(ValueError):
            CTIntegrand(2, ((1, (0,)),))
        with pytest.raises(ValueError):
            CTIntegrand(1, ((1, (0,)),), one_minus_pole=(-1,))
        with pytest.raises(ValueError):
            CTIntegrand(1, ((1, (0,)),), vandermonde_power=-1)


class TestNamedIntegrands:
    def test_catalan_polytope_values(self):
        assert [catalan_polytope_ct(n) for n in (2, 3, 4, 5)] == [1, 4, 64, 5120]

    def test_catalan_reduction_is_the_power_ct(self):
        """The reduction to a Morris CT against the direct power CT, with
        (x_{n-1} + x_n)^{C(n,2)} as the sweep's budget."""
        for n in range(2, 9):
            f = CTIntegrand(n, ((1, (0,) * n),), vandermonde_power=1)
            assert catalan_polytope_ct(n) == _power_ct(f, (n - 1, n), comb(n, 2))

    def test_catalan_ct_is_not_the_lidskii_sweep(self, monkeypatch):
        """The power CT is the budgeted sweep that `lidskii_volume` makes on
        the Catalan netflow; the reduction makes only sweeps with no budget."""
        budgets, sweep = [], flowcat.core._flow_sweep

        def spy(G, start, budget=0, *args):
            budgets.append(budget)
            return sweep(G, start, budget, *args)

        monkeypatch.setattr(flowcat.core, "_flow_sweep", spy)
        for n in range(3, 9):
            budgets.clear()
            catalan_polytope_ct(n)
            assert budgets and set(budgets) == {0}

    def test_morris_small_values(self):
        # n = 1 cases reduce to a one-variable binomial coefficient
        assert morris_ct(1, 2, 3, 1) == 6
        assert morris_ct(1, 0, 2, 1) == 1
        # two variables, checked against the series oracle
        f = CTIntegrand(
            2, ((1, (0, 0)),), x_pole=(0, 0), one_minus_pole=(2, 2),
            vandermonde_power=1,
        )
        assert morris_ct(2, 0, 2, 1) == series_ct(f, 16) == 2

    def test_tesler_small_values(self):
        assert tesler_ct(2, 1, 1) == 1
        assert tesler_ct(3, 1, 1) == 4
        assert tesler_ct(9, 1, 1) == tesler_unit_volume(9)


class TestMatrixGrid:
    """Matrices as tuples of row tuples, with `_hook_sum` and `sum(row)`."""

    def test_row_and_hook_sums(self):
        A = ((4, 2, 5, 7), (0, 1, 2, 3), (0, 0, 1, 8), (0, 0, 0, 3))
        assert sum(A[1]) == 6
        assert sum(A[2]) == 9
        assert _hook_sum(A, 2) == 2
        assert _hook_sum(A, 3) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_hook_sum_conservation(self, n, data):
        """For square staircase-diagonal matrices the hook sums always total
        -C(n,2): every free entry cancels and the diagonal survives."""
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = i
            for j in range(i + 1, n):
                entries[i][j] = data.draw(st.integers(0, 5))
        A = tuple(tuple(r) for r in entries)
        assert sum(_hook_sum(A, k) for k in range(1, n + 1)) == -comb(n, 2)


def staircase_by_filter(cols: int, targets: tuple[int, ...], top: int) -> set:
    """The first len(targets) rows of every staircase matrix with free
    entries at most `top` whose hook sums match, by brute force."""
    rows = len(targets)
    free = [(i, j) for i in range(rows) for j in range(i + 1, cols)]
    out = set()
    for vals in product(range(top + 1), repeat=len(free)):
        grid = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            grid[i][i] = i
        for (i, j), v in zip(free, vals):
            grid[i][j] = v
        A = tuple(tuple(r) for r in grid)
        if tuple(_hook_sum(A, k) for k in range(1, rows + 1)) == targets:
            out.add(A)
    return out


class TestStaircaseEnumeration:
    def test_matches_filter(self):
        # square shape, all rows and all but the last (which has no free
        # entries); cropped shape, two of four rows
        for cols, targets in ((3, (2, 0, -5)), (3, (2, 0)), (4, (1, -2))):
            got = set(staircase_matrices(cols, targets))
            assert got == staircase_by_filter(cols, targets, top=6)
            assert got

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_rows_are_staircase_with_the_target_hook_sums(self, cols, data):
        targets = tuple(data.draw(st.lists(st.integers(-6, 3), max_size=cols - 1)))
        for A in staircase_matrices(cols, targets):
            assert len(A) == len(targets)
            for i, row in enumerate(A):
                assert len(row) == cols
                assert row[:i] == (0,) * i and row[i] == i
                assert min(row) >= 0
            assert tuple(_hook_sum(A, k) for k in range(1, len(A) + 1)) == targets


ENTRIES = (-1, 0, 1, 2)
PAIRS = tuple(product(ENTRIES, repeat=2))


def lemma_gen_vectors(n: int) -> list[tuple[int, ...]]:
    """The vectors of length n that the lemma-gen suite checks."""
    return [a for a in product(ENTRIES, repeat=n) if comb(n, 2) - sum(a) >= 0]


def lemma_gen_identities(ns=range(2, 6)):
    """(n, a_vec, lhs, rhs, failures) of every lemma-gen vector with n in ns,
    one `reduction_identity` call per head, as the suite makes them."""
    for n in ns:
        for head in product(ENTRIES, repeat=n - 2):
            for a_vec, lhs, rhs, failures in reduction_identity(head, PAIRS):
                yield n, a_vec, lhs, rhs, failures


def bijection_failures(vectors) -> dict:
    """The bijection failures of each (n, a_vec), one `reduction_identity`
    call per (n, head) over that head's pairs."""
    by_head = defaultdict(list)
    for n, a_vec in vectors:
        by_head[n, a_vec[: n - 2]].append(a_vec[n - 2:])
    return {(n, a_vec): failures
            for (n, head), pairs in by_head.items()
            for a_vec, _, _, failures in reduction_identity(head, pairs)}


def reference_bijection(n: int, a_vec: tuple[int, ...]) -> tuple[str, ...]:
    """Reference for the bijection failures of `reduction_identity`: the
    oracle on row tuples, rebuilding each square matrix and hashing (cropped
    rows, t) per image."""
    R = comb(n, 2) - sum(a_vec)
    if R < 0:
        return ()
    head = tuple(-x for x in a_vec[: n - 2])
    Y = list(flowcat.ctengine.staircase_matrices(n, head))
    y_set = set(Y)

    failures: list[str] = []
    images: dict[tuple, str] = {}
    for tag, anchor in (("X", a_vec[n - 2]), ("X'", a_vec[n - 1])):
        for t_window in range(R + 1):
            for C in Y:
                last = -anchor - t_window + (n - 2) + sum(row[n - 2] for row in C)
                if last < 0:
                    continue
                A = C + ((0,) * (n - 2) + (n - 2, last),)
                t = -anchor - _hook_sum(A, n - 1)
                B = A[: n - 2]
                if tag == "X'":
                    B = tuple(r[: n - 2] + (r[n - 1], r[n - 2]) for r in B)
                    t = R - t
                if B not in y_set:
                    failures.append(f"{tag}: cropped matrix not in Y")
                    continue
                if not 0 <= t <= R:
                    failures.append(f"{tag}: image index {t} out of range")
                    continue
                if (B, t) in images:
                    failures.append(f"duplicate image at index {t}")
                images[B, t] = tag

    if len(images) != len(Y) * (R + 1):
        failures.append(
            f"image count {len(images)} != |Y| * (R+1) = {len(Y) * (R + 1)}"
        )

    for B in Y:
        c = sum(row[n - 2] for row in B)
        for t in range(R + 1):
            in_x = c + (n - 2) - a_vec[n - 2] - t >= 0
            in_xp = c + (n - 1) - a_vec[n - 2] - t <= 0
            if in_x == in_xp:
                failures.append(f"threshold dichotomy fails at t={t}")
                continue
            got = images.get((B, t))
            if got is None:
                failures.append(f"no preimage for index {t}")
            elif (got == "X") != in_x:
                failures.append(f"preimage side mismatch at t={t}")

    return tuple(failures[:10])


# every lemma-gen vector with n <= 4 and a seeded sample with n = 5
DIFFERENTIAL_VECTORS = [(n, a) for n in (2, 3, 4) for a in lemma_gen_vectors(n)] + [
    (5, a) for a in random.Random(5).sample(lemma_gen_vectors(5), 40)
]


class TestReductionIdentity:
    def test_sides_small(self):
        assert list(reduction_identity((), [(0, 0)])) == [((0, 0), 2, 2, ())]
        for head, pair in (((1,), (1, 1)), ((0, 1), (0, 2))):
            [(a_vec, lhs, rhs, failures)] = reduction_identity(head, [pair])
            assert a_vec == head + pair and lhs == rhs and failures == ()

    def test_rejects_head_above_3_before_any_work(self, monkeypatch):
        """n = len(head) + 2 is bounded by 5: a longer head raises on the
        first `next()`, before any CT or enumeration."""
        def work(*args):
            raise AssertionError("the identity started before checking the head")

        for name in ("constant_term", "_power_ct", "_cropped_family", "_bijection_failures"):
            monkeypatch.setattr(flowcat.ctengine, name, work)
        identities = reduction_identity((0, 0, 0, 0), [(0, 0)])
        with pytest.raises(ValueError, match="n <= 5"):
            next(identities)

    def test_negative_exponent_gives_zero(self):
        """With C(n,2) - a < 0 both sides are the empty binomial sum, 0, and
        the pair is skipped; the other pairs of the head still come, in
        order."""
        got = [a_vec for a_vec, *_ in reduction_identity((), [(2, 2), (0, 1), (1, 2)])]
        assert got == [(0, 1)]

    def test_bijection_reports(self):
        assert [r[3] for r in reduction_identity((1,), [(0, 1)])] == [()]

    def test_bijection_check_can_fail(self, monkeypatch):
        """Every failure message the oracle has, each under a named edit of Y
        or of its crops that makes it fire on some lemma-gen vector."""
        enumerate_rows = flowcat.ctengine.staircase_matrices

        def edit_y(cut):
            def edited(cols, targets):
                Y = list(enumerate_rows(cols, targets))
                return cut(Y, len(Y) // 2)
            return edited

        def no_column_swap(targets):
            diag, own, _ = _cropped_family(targets)
            return diag, own, own

        # edit: (patched name, replacement, messages that must fire)
        table = {
            "drop first": ("staircase_matrices", edit_y(lambda Y, k: Y[1:]),
                           ("X': cropped matrix not in Y", "no preimage")),
            "drop middle": ("staircase_matrices", edit_y(lambda Y, k: Y[:k] + Y[k + 1:]),
                            ("X': cropped matrix not in Y",)),
            "drop last": ("staircase_matrices", edit_y(lambda Y, k: Y[:-1]),
                          ("X': cropped matrix not in Y",)),
            "duplicate middle": ("staircase_matrices",
                                 edit_y(lambda Y, k: Y[: k + 1] + Y[k:]),
                                 ("duplicate image", "image count")),
            "no column swap": ("_cropped_family", no_column_swap,
                               ("preimage side mismatch",)),
        }
        assert not any(r[4] for r in lemma_gen_identities())
        for edit, (name, replacement, messages) in table.items():
            with monkeypatch.context() as patch:
                patch.setattr(flowcat.ctengine, name, replacement)
                fired = {f for r in lemma_gen_identities() for f in r[4]}
            for message in messages:
                assert any(f.startswith(message) for f in fired), (edit, message)

    def test_square_rows_are_y_plus_one_row(self):
        # every (head, h_{n-1}) that the lemma-gen vectors pin, each once
        targets = defaultdict(set)
        for n in range(2, 6):
            for a_vec in lemma_gen_vectors(n):
                R = comb(n, 2) - sum(a_vec)
                head = tuple(-x for x in a_vec[: n - 2])
                for anchor in a_vec[n - 2:]:
                    targets[n, head].update(-anchor - t for t in range(R + 1))
        for (n, head), hooks in targets.items():
            Y = list(staircase_matrices(n, head))
            diag = [n - 2 + sum(row[n - 2] for row in C) for C in Y]
            for h in hooks:
                built = [C + ((0,) * (n - 2) + (n - 2, h + d),)
                         for C, d in zip(Y, diag) if h + d >= 0]
                assert sorted(built) == sorted(staircase_matrices(n, head + (h,)))

    def test_bijection_enumerates_y_once(self, monkeypatch):
        enumerate_rows = flowcat.ctengine.staircase_matrices
        calls = []

        def counted(cols, targets):
            calls.append(targets)
            return enumerate_rows(cols, targets)

        monkeypatch.setattr(flowcat.ctengine, "staircase_matrices", counted)
        # each pair with R > 0 and a nonempty Y, then the same pair swapped
        for n, a_vec in ((2, (0, 0)), (3, (-1, 0, 1)), (4, (-1, 0, 0, 2)),
                         (5, (0, -1, 0, 1, 2))):
            assert comb(n, 2) - sum(a_vec) > 0
            head, pair = a_vec[: n - 2], a_vec[n - 2:]
            calls.clear()
            got = list(reduction_identity(head, [pair, pair[::-1]]))
            assert [r[0] for r in got] == [a_vec, head + pair[::-1]]
            assert all(r[3] == () for r in got)
            assert calls == [tuple(-x for x in head)]

    @pytest.mark.parametrize("edit", ["none", "drop first", "drop middle",
                                      "duplicate middle"])
    def test_bijection_matches_reference(self, monkeypatch, edit):
        enumerate_rows = flowcat.ctengine.staircase_matrices

        def edited(cols, targets):
            Y = list(enumerate_rows(cols, targets))
            k = len(Y) // 2
            return {"none": Y, "drop first": Y[1:], "drop middle": Y[:k] + Y[k + 1:],
                    "duplicate middle": Y[: k + 1] + Y[k:]}[edit]

        monkeypatch.setattr(flowcat.ctengine, "staircase_matrices", edited)
        got = bijection_failures(DIFFERENTIAL_VECTORS)
        assert len(got) == len(DIFFERENTIAL_VECTORS)
        failing = 0
        for n, a_vec in DIFFERENTIAL_VECTORS:
            expected = reference_bijection(n, a_vec)
            assert got[n, a_vec] == expected, (n, a_vec)
            failing += bool(expected)
        assert (failing == 0) == (edit == "none")

    def test_lemma_gen_sweeps_once_per_head(self, monkeypatch):
        counts = {"staircase_matrices": 0, "_flow_sweep": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for module, name in ((flowcat.ctengine, "staircase_matrices"),
                             (flowcat.core, "_flow_sweep")):
            monkeypatch.setattr(module, name, counted(module, name))
        results = list(suite_reduction_identity())
        assert len(results) == 2678 and all(r.ok for r in results)
        # Y once for each of the 85 (n, head) pairs; 835 distinct left-hand
        # integrands among the 1,339 vectors, and one right-hand CT per
        # nonempty head
        assert counts == {"staircase_matrices": 85, "_flow_sweep": 835 + 84}

    def test_memos_match_fresh_constant_terms(self):
        """Each yielded side equals a fresh CT of its own integrand, for both
        orders of every pair, so no CT computed for one pair or one head is
        served to another."""
        seen = 0
        for n, a_vec, lhs, rhs, _ in lemma_gen_identities(range(2, 5)):
            head, pair = a_vec[: n - 2], a_vec[n - 2:]
            R = comb(n, 2) - sum(a_vec)
            f = CTIntegrand(n, ((1, a_vec), (1, head + pair[::-1])), vandermonde_power=1)
            assert lhs == _power_ct(f, (n - 1, n), R)
            k = n - 2
            fresh = constant_term(CTIntegrand(
                k, ((1, head),), one_minus_pole=(2,) * k, vandermonde_power=1,
            )) if k else 1
            assert rhs == 2**R * fresh
            seen += 1
        assert seen == sum(len(lemma_gen_vectors(n)) for n in range(2, 5))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_bijection_random_vectors(self, n, data):
        head = tuple(data.draw(st.integers(-1, 2)) for _ in range(n - 2))
        pair = (data.draw(st.integers(-1, 2)), data.draw(st.integers(-1, 2)))
        for a_vec, lhs, rhs, failures in reduction_identity(head, [pair]):
            assert a_vec == head + pair
            assert lhs == rhs
            assert not failures, failures
