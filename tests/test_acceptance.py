"""End-to-end acceptance sweeps.

Each test runs one verification suite, consuming its checks as they are
yielded, and prints a single PASS/FAIL line on the real stdout (capture
suspended) so the outcome is always visible.
Every comparison is an exact integer equality.
"""

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
