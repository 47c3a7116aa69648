"""End-to-end acceptance sweeps.

Each test runs one verification suite, consuming its checks as they are
yielded, and prints a single PASS/FAIL line on the real stdout (capture
suspended) so the outcome is always visible.
Every comparison is an exact integer equality.  A last table test checks
that each suite's max_n is the largest n of its checks.
"""

import inspect

import pytest

from flowcat.verify import SUITES


@pytest.fixture
def report(capfd):
    def _report(criterion, results):
        # one pass, as `flowcat verify` makes: a count and the failures only
        count, bad = 0, []
        for r in results:
            count += 1
            if not r.ok:
                bad.append(r)
        status = "FAIL" if bad else "PASS"
        with capfd.disabled():
            print(
                f"acceptance {criterion}: {status} "
                f"({count - len(bad)}/{count} checks)",
                flush=True,
            )
        detail = "; ".join(
            f"{r.label}: expected {r.expected}, got {r.actual}"
            for r in bad[:3]
        )
        assert not bad, detail

    return _report


def test_criterion_1_catalan_volume_three_ways(report):
    report("1 catalan volumes", SUITES["thm1"]())


def test_criterion_2_cry_volumes(report):
    report("2 cry volumes", SUITES["cry"]())


def test_criterion_3_morris_family_volumes(report):
    report("3 morris family volumes", SUITES["thm2"]())


def test_criterion_4_tesler_family_volumes(report):
    report("4 tesler family volumes", SUITES["thm3"]())


def test_criterion_5_morris_identity(report):
    report("5 morris identity", SUITES["morris"]())


def test_criterion_6_reduction_identity_and_bijection(report):
    report("6 reduction identity", SUITES["lemma-gen"]())


def test_criterion_7_series_vs_matrix_expansion(report):
    report("7 series expansion", SUITES["lemma-expand"]())


def test_criterion_8_vertex_counts(report):
    report("8 vertex counts", SUITES["faces"]())


def test_criterion_9_oracle_agreement(report):
    report("9 oracle agreement", SUITES["lidskii-vs-ehrhart"]())


# (suite, the largest max_n to sweep up to, the default of max_n).  Each sweep
# stops at the default, except lemma-expand, whose default (1.3 s) the
# criterion test above already runs, and lidskii-vs-ehrhart, which is cheap
# enough to sweep past its default.
MAX_N_SWEEPS = [("thm1", 5, 5), ("cry", 7, 7), ("thm2", 4, 4), ("thm3", 3, 3),
                ("morris", 4, 4), ("lemma-gen", 5, 5), ("lemma-expand", 2, 3),
                ("faces", 6, 6), ("lidskii-vs-ehrhart", 7, 4)]


@pytest.mark.parametrize("name, top, default", MAX_N_SWEEPS,
                         ids=[name for name, _, _ in MAX_N_SWEEPS])
def test_max_n_is_the_largest_n(name, top, default):
    fn = SUITES[name]
    # unstarted, a suite's generator holds only its arguments, so a call
    # without one runs the same checks as the call at the default
    assert inspect.getgeneratorlocals(fn()) == {"max_n": default}
    smaller = list(fn(0))
    # at 0 no check has its n: only lemma-expand's four worked-matrix checks run
    assert len(smaller) == (4 if name == "lemma-expand" else 0)
    for k in range(1, top + 1):
        larger = list(fn(k))
        by_label = {r.label: r for r in larger}
        assert len(by_label) == len(larger)
        # every check at k - 1 is made, with the same values, at k
        assert all(by_label.get(r.label) == r for r in smaller), k
        smaller = larger
