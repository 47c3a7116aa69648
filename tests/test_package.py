"""The package surface: which modules a query runs, the lazy namespace, the
parser's literal copies of engine constants, the record types, and the
integer check of the entry points."""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

import flowcat
from flowcat import cli, faces, verify
from flowcat.core import Multigraph, complete_graph, kostant
from flowcat.ctengine import CTIntegrand, reduction_identity, staircase_matrices
from flowcat.lidskii import EhrhartPolynomial, ehrhart_polynomial, lidskii_points
from flowcat.verify import CheckResult, vertices_by_acyclic_support

# Runs one query in a fresh interpreter (with no arguments it only imports the
# package) and prints, on its last line, the flowcat modules that executed (a
# lazily registered module that never ran is not yet a plain module) and the
# modules that loading and running flowcat added.  The probe imports `json`
# only after it has taken both snapshots, so `new` shows whether the query did.
PROBE = """
import sys, types
before = set(sys.modules)
if sys.argv[1:]:
    import flowcat.cli
    code = flowcat.cli.main(sys.argv[1:])
else:
    import flowcat
    code = 0
executed = sorted(name[len("flowcat."):] for name, module in sys.modules.items()
                  if name.startswith("flowcat.") and type(module) is types.ModuleType)
new = sorted(set(sys.modules) - before)
import json
print(json.dumps({"code": code, "executed": executed, "new": new}))
"""

SRC = os.path.dirname(os.path.dirname(flowcat.__file__))
GRAPH_ROUTE = {"cli", "core"}


def probe(*argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def ct_file(tmp_path):
    path = tmp_path / "integrand.json"
    path.write_text(json.dumps({"vars": 2, "numerator": [[1, [0, 0]]],
                                "one_minus_pole": [1, 1], "vandermonde": 1}))
    return str(path)


CATALAN_5 = ("--graph", "complete:5", "--netflow", "1,1,0,0,-2")
MORRIS_4 = ("--graph", "morris:4,1,1,1", "--netflow", "1,0,0,-1")

# (suite, --max-n small enough to be quick, the engine modules it runs)
LIDSKII_ROUTE = {"core", "lidskii"}
CT_ROUTE = {"core", "ctengine"}
VERIFY_ROUTES = [
    ("thm1", 2, LIDSKII_ROUTE | {"ctengine", "closedform"}),
    ("cry", 3, LIDSKII_ROUTE | {"closedform"}),
    ("thm2", 2, LIDSKII_ROUTE | {"closedform"}),
    ("thm3", 2, LIDSKII_ROUTE | {"ctengine", "closedform"}),
    ("morris", 1, CT_ROUTE | {"closedform"}),
    ("lemma-gen", 2, CT_ROUTE),
    ("lemma-expand", 1, CT_ROUTE | {"expansion"}),
    ("faces", 1, {"faces"}),
    ("lidskii-vs-ehrhart", 2, LIDSKII_ROUTE),
]


# Standard-library modules a query loads only when it needs them: `csv` for
# --format csv, `json` to read or print JSON.
ON_DEMAND = {"csv", "json"}
# Modules no query loads: the closed forms are exact ints, so no query needs
# `fractions`, and the CLI parses argv from its own flag table, not argparse.
NEVER = {"dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale"}

# (argv, the engine modules it runs, the ON_DEMAND modules it loads)
QUERY_ROUTES = [
    (("points", "--graph", "complete:4", "--netflow", "1,0,0,-1",
      "--method", "lidskii"), GRAPH_ROUTE | {"lidskii"}, {"json"}),
    (("points", "--graph", "complete:4", "--netflow", "1,0,0,-1",
      "--method", "kostant"), GRAPH_ROUTE, {"json"}),
    (("volume", *CATALAN_5, "--method", "lidskii"), GRAPH_ROUTE | {"lidskii"}, {"json"}),
    (("volume", *CATALAN_5, "--method", "ehrhart"), GRAPH_ROUTE | {"lidskii"}, {"json"}),
    (("volume", *CATALAN_5, "--method", "ct"), GRAPH_ROUTE | {"ctengine"}, {"json"}),
    (("volume", *CATALAN_5, "--method", "closed"), GRAPH_ROUTE | {"closedform"},
     {"json"}),
    (("fvector", "--netflow", "1,1,0"), {"cli", "faces"}, set()),
    (("vertices", "--netflow", "1,1,0", "--enumerate", "--format", "csv"),
     {"cli", "faces"}, {"csv", "json"}),
    (("volume", *MORRIS_4, "--method", "closed"), GRAPH_ROUTE | {"closedform"},
     {"json"}),
    (("volume", "--graph", "tesler:4,1,1", "--netflow", "1,1,1,-3", "--method", "closed",
      "--format", "csv"), GRAPH_ROUTE | {"closedform"}, {"csv", "json"}),
    (("fvector", "--netflow", "1,1,0", "--format", "json"), {"cli", "faces"}, {"json"}),
    (("vertices", "--netflow", "1,1,0", "--count-only"), {"cli", "faces"}, set()),
    (("verify", "--suite", "cry", "--max-n", "3", "--format", "csv"),
     {"cli", "verify", "closedform"} | LIDSKII_ROUTE, {"csv"}),
]


def assert_on_demand(new, loaded):
    assert not new & NEVER
    assert new & ON_DEMAND == loaded


class TestImportSurface:
    # ids by position, so that a case keeps its name when a column is added
    @pytest.mark.parametrize(
        "argv, executed, loaded", QUERY_ROUTES,
        ids=[f"argv{i}-executed{i}" for i in range(len(QUERY_ROUTES))])
    def test_a_query_runs_only_its_route(self, argv, executed, loaded):
        result = probe(*argv)
        assert result["code"] == 0
        assert set(result["executed"]) == executed
        assert_on_demand(set(result["new"]), loaded)

    def test_ct_file_runs_the_ct_engine_only(self, ct_file):
        result = probe("ct", "--file", ct_file)
        assert set(result["executed"]) == GRAPH_ROUTE | {"ctengine"}
        assert_on_demand(set(result["new"]), {"json"})

    @pytest.mark.parametrize("suite, max_n, engines", VERIFY_ROUTES,
                             ids=[suite for suite, _, _ in VERIFY_ROUTES])
    def test_a_verify_suite_runs_only_its_engines(self, suite, max_n, engines):
        result = probe("verify", "--suite", suite, "--max-n", str(max_n))
        assert result["code"] == 0
        assert set(result["executed"]) == {"cli", "verify"} | engines
        assert_on_demand(set(result["new"]), set())

    def test_importing_the_package_runs_no_engine(self):
        result = probe()
        assert result["executed"] == []
        assert_on_demand(set(result["new"]), set())


class TestNamespace:
    def test_every_public_name_is_its_module_object(self):
        for name in flowcat.__all__:
            module = importlib.import_module(f"flowcat.{flowcat._EXPORTS[name]}")
            assert getattr(flowcat, name) is getattr(module, name)

    def test_dir_covers_all(self):
        assert set(flowcat.__all__) <= set(dir(flowcat))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            flowcat.no_such_name
        assert not hasattr(flowcat, "MAX_N")

    def test_star_import(self):
        namespace = {}
        exec("from flowcat import *", namespace)
        assert set(flowcat.__all__) <= set(namespace)
        assert namespace["kostant"] is flowcat.core.kostant


class TestParserLiterals:
    @staticmethod
    def verify_flag(flag):
        """(kind, default, help) of a verify flag in the CLI's flag table."""
        return cli._COMMANDS["verify"][2][flag]

    def test_suite_choices_are_the_suites(self):
        assert self.verify_flag("--suite")[0] == tuple(verify.SUITES) + ("all",)

    def test_max_n_help_states_each_default_and_bound(self):
        # "<suite> <default>" or "<suite> <default> [<bound>]", in suite order
        stated = self.verify_flag("--max-n")[2].partition("Default [bound]: ")[2]
        entries = re.findall(r"([\w-]+) (\d+)(?: \[(\d+)\])?", stated)
        assert [name for name, _, _ in entries] == list(verify.SUITES)
        for name, default, bound in entries:
            fn = verify.SUITES[name]
            assert inspect.signature(fn).parameters["max_n"].default == int(default)
            # a bound is the largest max_n whose first check runs; a suite
            # with none takes any max_n, such as one above every bound
            top = int(bound) if bound else 20
            next(fn(top))
            if bound:
                with pytest.raises(ValueError, match=f"max_n <= {bound}"):
                    next(fn(top + 1))


RECORDS = [
    (lambda: Multigraph(3, ((1, 2), (1, 2, 2), (2, 3, 1))), "vertex_count",
     "Multigraph(vertex_count=3, edges=((1, 2, 3), (2, 3, 1)))"),
    (lambda: CTIntegrand(1, ((1, (0,)),), one_minus_pole=(2,)), "numerator",
     "CTIntegrand(n_vars=1, numerator=((1, (0,)),), x_pole=(0,), "
     "one_minus_pole=(2,), vandermonde_power=0)"),
    (lambda: EhrhartPolynomial((1, 2)), "differences",
     "EhrhartPolynomial(differences=(1, 2))"),
    (lambda: CheckResult("n=2", 4, 4), "actual",
     "CheckResult(label='n=2', expected=4, actual=4)"),
]


class TestRecords:
    @pytest.mark.parametrize("make, field, text", RECORDS)
    def test_frozen_equal_and_repr(self, make, field, text):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == make()
        assert repr(record) == text

    def test_hash_follows_equality(self):
        assert hash(Multigraph(2, ((1, 2),))) == hash(Multigraph(2, ((1, 2, 1),)))

    def test_keyword_construction_validates(self):
        assert Multigraph(vertex_count=2, edges=((1, 2), (1, 2))).edges == ((1, 2, 2),)
        with pytest.raises(ValueError, match="vandermonde_power"):
            CTIntegrand(n_vars=1, numerator=(), vandermonde_power=-1)


# Non-integer inputs that `int()` used to truncate into a wrong answer.
FLOAT_INPUTS = {
    "kostant half units": lambda: kostant(complete_graph(3), (0.5, -0.5, 0)),
    "kostant sum 0.9": lambda: kostant(complete_graph(3), (1.9, 0, -1)),
    "lidskii_points": lambda: lidskii_points(complete_graph(3), (2.7, 0, -2.7)),
    "ehrhart_polynomial": lambda: ehrhart_polynomial(complete_graph(3), (1.2, 0, -1.2)),
    "reduction_identity": lambda: next(reduction_identity((0.9,), [(0, 0)])),
    "staircase_matrices": lambda: staircase_matrices(3, (0.5,)),
    "vertices_by_acyclic_support": lambda: vertices_by_acyclic_support([(1.5, 0)]),
    "multigraph multiplicity": lambda: Multigraph(3, ((1, 2, 1.5), (2, 3))),
    "multigraph vertex count": lambda: Multigraph(3.0, ((1, 2),)),
}


@pytest.mark.parametrize("call", FLOAT_INPUTS.values(), ids=FLOAT_INPUTS.keys())
def test_float_inputs_raise_type_error(call):
    with pytest.raises(TypeError):
        call()
