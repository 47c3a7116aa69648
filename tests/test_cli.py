import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import flowcat
from flowcat import closedform, verify
from flowcat.cli import _COMMANDS, _cmd_volume, _parse_input, main, parse_args
from flowcat.faces import F_VECTOR_MAX_N, MAX_N
from flowcat.lidskii import lidskii_volume


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    return f"file:{path}"


class TestVolume:
    def test_methods_agree(self, capsys):
        code, out, _ = run(
            capsys,
            "volume", "--graph", "complete:4", "--netflow", "1,1,0,-2",
            "--method", "lidskii", "--method", "closed", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["volume"] == "4"
        assert payload["agreement"] is True

    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys,
            "volume", "--graph", "complete:4", "--netflow", "1,1,0,-2",
            "--method", "lidskii", "--method", "closed", "--format", "text",
        )
        assert code == 0
        assert out == ('agreement: True\n'
                       'methods: {"closed": "4", "lidskii": "4"}\n'
                       'volume: 4\n')

    def test_default_method(self, capsys):
        code, out, _ = run(
            capsys,
            "volume", "--graph", "tesler:4,1,1", "--netflow", "1,1,1,-3",
        )
        assert code == 0
        assert json.loads(out)["volume"] == "4"

    def test_determinism(self, capsys):
        argv = (
            "volume", "--graph", "morris:4,2,1,1", "--netflow", "1,0,0,-1",
            "--method", "lidskii", "--method", "ehrhart", "--format", "json",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_big_integers_are_strings(self, capsys):
        code, out, _ = run(
            capsys,
            "volume", "--graph", "complete:9", "--netflow",
            "1,1,0,0,0,0,0,0,-2", "--method", "closed", "--format", "json",
        )
        assert code == 0
        value = json.loads(out)["volume"]
        assert isinstance(value, str)
        assert int(value) > 10**12

    def test_wrong_netflow_length(self, capsys):
        code, _, err = run(
            capsys, "volume", "--graph", "complete:4", "--netflow", "1,-1",
        )
        assert code == 1
        assert "netflow length" in err

    def test_inapplicable_method(self, capsys):
        code, _, err = run(
            capsys,
            "volume", "--graph", "complete:4", "--netflow", "2,0,0,-2",
            "--method", "closed",
        )
        assert code == 1
        assert "does not apply" in err

    def test_bad_graph_spec(self, capsys):
        code, _, err = run(
            capsys, "volume", "--graph", "wheel:4", "--netflow", "1,0,0,-1",
        )
        assert code == 1

    def test_file_graph(self, capsys, tmp_path):
        graph = {"vertices": 3, "edges": [[1, 2, 1], [1, 3, 1], [2, 3, 1]]}
        code, out, _ = run(
            capsys,
            "volume", "--graph", write_graph(tmp_path, graph), "--netflow", "1,1,-2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["volume"] == "1"

    def test_non_integer_vertex_count(self, capsys, tmp_path):
        graph = {"vertices": 3.9, "edges": [[1, 2, 1], [1, 3, 1], [2, 3, 1]]}
        code, out, err = run(
            capsys,
            "volume", "--graph", write_graph(tmp_path, graph), "--netflow", "1,1,-2",
        )
        assert code == 1
        assert out == ""
        assert "integer" in err

    def test_non_integral_closed_form_exits_1(self, capsys, monkeypatch):
        # one more G(3) = 2 in the denominator halves the CRY volume 1
        exact = closedform._gamma_product
        monkeypatch.setattr(closedform, "_gamma_product",
                            lambda scale, num, den: exact(scale, num, [*den, 6]))
        code, out, err = run(
            capsys,
            "volume", "--graph", "morris:4,1,1,1", "--netflow", "1,0,0,-1",
            "--method", "closed",
        )
        assert code == 1
        assert out == ""
        assert "not an integer" in err

    def test_constant_term_only_when_asked(self, capsys, monkeypatch):
        def eager(*args):
            raise AssertionError("tesler_ct ran without --method ct")

        monkeypatch.setattr("flowcat.ctengine.tesler_ct", eager)
        code, out, _ = run(
            capsys,
            "volume", "--graph", "tesler:5,1,1", "--netflow", "1,1,1,1,-4",
            "--method", "lidskii", "--method", "closed",
        )
        assert code == 0
        assert json.loads(out)["agreement"] is True


class TestBelowFullDimension:
    """Polytopes with an edge forced to 0: the Ehrhart route agrees with
    the others instead of rejecting them."""

    def test_segment_volume(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "volume", "--graph",
            write_graph(tmp_path, {"vertices": 3, "edges": [[1, 2, 1], [2, 3, 2]]}),
            "--netflow", "0,1,-1", "--method", "lidskii", "--method", "ehrhart",
        )
        assert code == 0
        assert json.loads(out)["volume"] == "1"
        assert json.loads(out)["agreement"] is True

    def test_zero_supply_source_volume(self, capsys, tmp_path):
        graph = {"vertices": 4, "edges": [[1, 4, 1], [2, 3, 1], [2, 4, 2], [3, 4, 1]]}
        code, out, _ = run(
            capsys,
            "volume", "--graph", write_graph(tmp_path, graph),
            "--netflow", "0,2,2,-4", "--method", "lidskii", "--method", "ehrhart",
        )
        assert code == 0
        assert json.loads(out)["volume"] == "4"
        assert json.loads(out)["agreement"] is True

    def test_lower_dimensional_points(self, capsys):
        code, out, _ = run(
            capsys,
            "points", "--graph", "complete:4", "--netflow", "0,1,0,-1",
            "--method", "kostant", "--method", "ehrhart",
        )
        assert code == 0
        assert json.loads(out)["points"] == "2"
        assert json.loads(out)["agreement"] is True

    @pytest.mark.parametrize("command, methods", [
        ("volume", ("lidskii", "ehrhart")),
        ("points", ("lidskii", "ehrhart", "kostant")),
    ])
    def test_empty_polytope(self, capsys, tmp_path, command, methods):
        # vertex 2 has supply 1 and no out-edge, so no flow exists, and the
        # Ehrhart polynomial is the zero polynomial
        argv = [command, "--graph", write_graph(tmp_path, {"vertices": 3, "edges": [[1, 3, 1]]}),
                "--netflow", "1,1,-2"]
        for method in methods:
            argv += ["--method", method]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {command: "0", "agreement": True,
                                   "methods": {method: "0" for method in methods}}


class TestCsv:
    """Fields that hold commas are quoted, so every row parses back to the
    header's field count."""

    def rows(self, capsys, *argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return list(csv.reader(io.StringIO(out)))

    def test_volume_methods(self, capsys):
        header, *rows = self.rows(
            capsys,
            "volume", "--graph", "complete:4", "--netflow", "1,1,0,-2",
            "--method", "lidskii", "--method", "closed", "--format", "csv",
        )
        assert rows and all(len(row) == len(header) for row in rows)
        fields = dict(zip(header, rows[0]))
        assert fields["volume"] == "4"
        assert json.loads(fields["methods"]) == {"closed": "4", "lidskii": "4"}

    def test_vertices_enumerate(self, capsys):
        header, *rows = self.rows(
            capsys,
            "vertices", "--netflow", "1,0", "--enumerate", "--format", "csv",
        )
        assert rows and all(len(row) == len(header) for row in rows)
        fields = dict(zip(header, rows[0]))
        assert json.loads(fields["tableaux"]) == [[[1, 0], [0]], [[0, 1], [1]]]
        assert json.loads(fields["forests"]) == [[0, None], [2, 0]]

    def test_verify_rows(self, capsys):
        rows = self.rows(capsys, "verify", "--suite", "lemma-gen",
                         "--max-n", "2", "--format", "csv")
        assert rows and all(len(row) == 5 for row in rows)
        assert any("," in row[1] for row in rows)


class TestPoints:
    def test_dead_end_graph(self, capsys, tmp_path):
        graph = {"vertices": 3, "edges": [[1, 2, 1], [1, 3, 2]]}
        code, out, _ = run(
            capsys,
            "points", "--graph", write_graph(tmp_path, graph), "--netflow", "1,0,-1",
            "--method", "lidskii", "--method", "kostant",
        )
        assert code == 0
        assert json.loads(out)["points"] == "2"
        assert json.loads(out)["agreement"] is True

    def test_non_integer_multiplicity(self, capsys, tmp_path):
        graph = {"vertices": 3, "edges": [[1, 2, 1.5], [1, 3, 2]]}
        code, out, err = run(
            capsys,
            "points", "--graph", write_graph(tmp_path, graph), "--netflow", "1,0,-1",
            "--method", "kostant",
        )
        assert code == 1
        assert out == ""
        assert "integer" in err

    def test_boolean_multiplicity(self, capsys, tmp_path):
        graph = {"vertices": 3, "edges": [[1, 2, True], [2, 3, 1]]}
        code, out, err = run(
            capsys,
            "points", "--graph", write_graph(tmp_path, graph), "--netflow", "1,0,-1",
            "--method", "kostant",
        )
        assert code == 1
        assert out == ""
        assert "true is not a JSON integer" in err

    def test_routes_agree(self, capsys):
        code, out, _ = run(
            capsys,
            "points", "--graph", "complete:5", "--netflow", "2,1,0,0,-3",
            "--method", "lidskii", "--method", "kostant", "--method",
            "ehrhart", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agreement"] is True
        assert payload["points"] == "92"


class TestVertices:
    def test_count_only(self, capsys):
        code, out, _ = run(
            capsys, "vertices", "--netflow", "1,1,0,0", "--count-only",
        )
        assert code == 0
        assert out.strip() == "18"

    def test_count_only_keeps_the_csv_header(self, capsys):
        # only text prints the bare count
        code, out, _ = run(capsys, "vertices", "--netflow", "1,1,0", "--count-only",
                           "--format", "csv")
        assert code == 0
        assert out == "count\n6\n"
        assert run(capsys, "vertices", "--netflow", "1,1,0", "--format", "csv")[1] == out

    def test_enumerate_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "vertices", "--netflow", "1,1", "--enumerate", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == "2"
        assert len(payload["tableaux"]) == 2
        assert len(payload["forests"]) == 2

    def test_count_only_and_enumerate_exclude_each_other(self, capsys):
        code, out, err = run(capsys, "vertices", "--netflow", "1,1",
                             "--count-only", "--enumerate")
        assert code == 1
        assert out == ""
        assert "not allowed with" in err

    def test_rejects_negative_prefix(self, capsys):
        code, _, err = run(capsys, "vertices", "--netflow", "1,-1",
                           "--count-only")
        assert code == 1

    def test_rejects_n_above_vertex_bound(self, capsys):
        prefix = ",".join(["1", "1"] + ["0"] * (MAX_N - 1))
        code, out, err = run(capsys, "vertices", "--netflow", prefix, "--count-only")
        assert code == 1
        assert out == ""
        assert f"n <= {MAX_N}" in err


class TestFvector:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "fvector", "--netflow", "1,1")
        assert code == 0
        assert out.strip() == "2 1"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "fvector", "--netflow", "1,1",
                           "--format", "json")
        assert json.loads(out)["f_vector"] == ["2", "1"]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "fvector", "--netflow", "1,1,0", "--format", "csv")
        assert code == 0
        assert out == "dim0,dim1,dim2,dim3\n6,9,5,1\n"

    def test_rejects_n_above_face_bound(self, capsys):
        prefix = ",".join(["1", "1"] + ["0"] * (F_VECTOR_MAX_N - 1))
        code, out, err = run(capsys, "fvector", "--netflow", prefix)
        assert code == 1
        assert out == ""
        assert f"n <= {F_VECTOR_MAX_N}" in err


class TestCt:
    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "integrand.json"
        path.write_text(json.dumps({
            "vars": 1,
            "numerator": [[1, [0]]],
            "x_pole": [2],
            "one_minus_pole": [3],
            "vandermonde": 0,
        }))
        code, out, _ = run(capsys, "ct", "--file", str(path))
        assert code == 0
        assert out.strip() == "6"

    @pytest.mark.parametrize("fmt, expected", [("text", "1\n"),
                                               ("json", '{"constant_term": "1"}\n')])
    def test_stdin_input(self, capsys, monkeypatch, fmt, expected):
        integrand = {"vars": 2, "numerator": [[1, [0, 0]]], "one_minus_pole": [1, 1],
                     "vandermonde": 1}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(integrand)))
        code, out, _ = run(capsys, "ct", "--file", "-", "--format", fmt)
        assert code == 0
        assert out == expected

    def test_non_integer_coefficient(self, capsys, tmp_path):
        path = tmp_path / "integrand.json"
        path.write_text(json.dumps({"vars": 1, "numerator": [[0.5, [0]]]}))
        code, out, err = run(capsys, "ct", "--file", str(path))
        assert code == 1
        assert out == ""
        assert "integer" in err

    def test_boolean_variable_count(self, capsys, tmp_path):
        path = tmp_path / "integrand.json"
        path.write_text(json.dumps({"vars": True, "numerator": [[1, [0]]]}))
        code, out, err = run(capsys, "ct", "--file", str(path))
        assert code == 1
        assert out == ""
        assert "true is not a JSON integer" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "ct", "--file", "/no/such/file.json")
        assert code == 1


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cry")
        assert code == 0
        assert "checks passed" in out

    def test_csv_of_every_suite_is_pinned(self, capsys):
        # every check's label and both values, byte for byte, so a suite that
        # drops, reorders or relabels a check, or a memo that serves a stale
        # value, fails
        code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "298038e89d9c5dd0239fd6aa1cc416dfd1f439df39a7047f93437a439eef78b4")

    def test_checks_stream_through_both_formats(self, monkeypatch):
        def many_checks():
            for _ in range(100_000):
                yield verify.CheckResult("check", 1, 1)  # a new tuple each time

        monkeypatch.setitem(verify.SUITES, "cry", many_checks)
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            for fmt in ("text", "csv"):
                tracemalloc.start()
                try:
                    code = main(["verify", "--suite", "cry", "--format", fmt])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert code == 0
                # a list of the 100,000 checks would hold about 7 MB
                assert peak < 1 << 20, (fmt, peak)

    def test_csv_keeps_the_rows_before_a_suite_raises(self, capsys, monkeypatch):
        def fails_partway():
            yield verify.CheckResult("first", 1, 1)
            raise ValueError("second check out of range")

        monkeypatch.setitem(verify.SUITES, "cry", fails_partway)
        code, out, err = run(capsys, "verify", "--suite", "cry", "--format", "csv")
        assert code == 1
        assert out == "cry,first,True,1,1\n"
        assert "second check out of range" in err

    def test_text_reports_each_failure(self, capsys, monkeypatch):
        def one_failure():
            yield verify.CheckResult("n=2 wrong", 1, 2)

        monkeypatch.setitem(verify.SUITES, "cry", one_failure)
        code, out, _ = run(capsys, "verify", "--suite", "cry")
        assert code == 2
        assert out == "cry: 0/1 checks passed\n  FAIL n=2 wrong: expected 1, got 2\n"

    def test_unknown_suite_is_input_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 1

    def test_lemma_gen_rejects_max_n_above_5_before_any_work(
        self, capsys, monkeypatch
    ):
        def work(*args):
            raise AssertionError("the suite started before checking --max-n")

        monkeypatch.setattr("flowcat.ctengine.reduction_identity", work)
        code, _, err = run(capsys, "verify", "--suite", "lemma-gen", "--max-n", "6")
        assert code == 1
        assert "max_n <= 5" in err

    def test_lemma_expand_rejects_max_n_above_3_before_any_work(
        self, capsys, monkeypatch
    ):
        def work(*args):
            raise AssertionError("the suite started before checking --max-n")

        monkeypatch.setattr("flowcat.expansion._series_histogram", work)
        code, _, err = run(capsys, "verify", "--suite", "lemma-expand",
                           "--max-n", "4")
        assert code == 1
        assert "max_n <= 3" in err

    def test_all_checks_every_bound_before_any_output(self, capsys):
        # lemma-expand, the seventh suite, is bounded at 3
        code, out, err = run(capsys, "verify", "--suite", "all", "--max-n", "4")
        assert code == 1
        assert out == ""
        assert "max_n <= 3" in err

    def test_suite_with_no_checks_is_an_error(self, capsys):
        for suite, max_n in (("thm1", -1), ("cry", -1), ("thm2", -1),
                             ("thm3", -1), ("morris", -1), ("lemma-gen", -1),
                             ("lidskii-vs-ehrhart", -1), ("thm1", 1)):
            code, out, err = run(capsys, "verify", "--suite", suite,
                                 "--max-n", str(max_n))
            assert code == 1
            assert out == ""
            assert f"suite {suite} makes no checks" in err

    def test_faces_rejects_max_n_above_bound_before_any_work(
        self, capsys, monkeypatch
    ):
        def work(*args):
            raise AssertionError("the suite started before checking --max-n")

        monkeypatch.setattr("flowcat.faces.count_vertex_tableaux", work)
        code, _, err = run(capsys, "verify", "--suite", "faces",
                           "--max-n", str(MAX_N + 1))
        assert code == 1
        assert f"max_n <= {MAX_N}" in err

    def test_faces_rejects_negative_max_n_before_any_work(
        self, capsys, monkeypatch
    ):
        def work(*args):
            raise AssertionError("the suite started before checking --max-n")

        monkeypatch.setattr("flowcat.faces.count_vertex_tableaux", work)
        code, out, err = run(capsys, "verify", "--suite", "faces", "--max-n", "-1")
        assert code == 1
        assert out == ""
        assert f"0 <= max_n <= {MAX_N}" in err


class TestClosedPipe:
    """A reader that closes stdout early ends the query with exit status 1
    and nothing on stderr, as the module docstring states."""

    ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(flowcat.__file__))}

    def test_reader_that_stops_after_one_line(self):
        # the CSV rows fill the pipe, so the writer is still writing
        proc = subprocess.Popen(
            [sys.executable, "-m", "flowcat.cli", "verify", "--suite", "lemma-gen",
             "--format", "csv"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first.startswith(b"lemma-gen,") and err == b""

    def test_help_into_a_closed_pipe(self):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "flowcat.cli", "--help"],
                                  stdout=write, stderr=subprocess.PIPE, env=self.ENV,
                                  timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestParsing:
    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_non_integer_netflow(self, capsys):
        code, _, err = run(
            capsys, "volume", "--graph", "complete:3", "--netflow", "1,x,-1",
        )
        assert code == 1

    def test_netflow_with_a_negative_first_entry(self, capsys):
        # the token after a value flag is its value unless it starts with --
        query = ("points", "--graph", "complete:3", "--method", "kostant")
        for netflow in (("--netflow", "-1,0,1"), ("--netflow=-1,0,1",)):
            code, out, _ = run(capsys, *query, *netflow)
            assert code == 0
            assert json.loads(out)["points"] == "0"

    def test_help(self, capsys):
        for argv in (["--help"], ["-h"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert all(name in out for name in _COMMANDS)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "cry", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        names = ["--suite", "--max-n", "--format", *verify.SUITES, "all", "text", "csv"]
        assert [name for name in names if name not in out] == []

    @pytest.mark.parametrize("argv, message", [
        (("volume", "--graph", "complete:3", "--netflow", "1,0,-1", "--nope"),
         "unrecognized arguments: --nope"),
        (("volume", "--graph", "complete:3", "--netflow", "1,0,-1", "--format", "xml"),
         "argument --format: invalid choice: 'xml'"),
        (("volume", "--graph", "complete:3", "--netflow", "1,0,-1", "--method", "guess"),
         "argument --method: invalid choice: 'guess'"),
        (("volume", "--netflow", "1,0,-1"), "required: --graph"),
        (("verify", "--max-n", "x"), "argument --max-n: invalid int value: 'x'"),
        (("volume", "--graph", "complete:3", "--netflow"),
         "argument --netflow: expected one argument"),
        (("volume", "--graph", "--netflow", "1,0,-1"), "argument --graph: expected one argument"),
        (("fvector", "--netflow", "1,0", "--format"), "argument --format: expected one argument"),
        (("vertices", "--netflow", "1,0", "--count-only=yes"),
         "unrecognized arguments: --count-only=yes"),
        (("volume", "complete:3"), "unrecognized arguments: complete:3"),
        (("area",), "invalid subcommand 'area'"),
    ])
    def test_parse_errors_exit_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert message in err

    def test_repeated_method_keeps_its_order(self):
        args = parse_args(["volume", "--graph", "complete:4", "--netflow", "1,1,0,-2",
                           "--method", "ct", "--method", "lidskii"])
        assert args.method == ["ct", "lidskii"]
        assert (args.fn, args.graph, args.netflow, args.format) == (
            _cmd_volume, "complete:4", "1,1,0,-2", "json")


def family_inputs():
    """(--graph, --netflow) of every family spec with small parameters, each
    with the distinct two-ones, CRY and all-ones netflows of its vertex count."""
    specs = [f"morris:{v},{a},{b},{m}" for v in range(2, 6) for a in range(3)
             for b in range(3) for m in range(3)]
    specs += [f"tesler:{v},{a},{b}" for v in range(2, 6) for a in range(3) for b in range(3)]
    specs += [f"complete:{v}" for v in range(2, 8)]
    for spec in specs:
        n = int(spec.partition(":")[2].split(",")[0]) - 1
        prefixes = {((1, 1) + (0,) * n)[:n], ((1,) + (0,) * n)[:n], (1,) * n}
        for prefix in sorted(prefixes):
            yield spec, ",".join(map(str, prefix + (-sum(prefix),)))


class TestFamilyRoutes:
    def test_every_offered_route_is_the_lidskii_volume(self):
        offered, wrong = 0, []
        for spec, netflow in family_inputs():
            G, flow, routes = _parse_input(spec, netflow)
            expected = lidskii_volume(G, flow)
            for method, route in routes.items():
                offered += 1
                value = route()
                if value != expected:
                    wrong.append((spec, netflow, method, value, expected))
        assert wrong == []
        # ct and closed on 9 complete pairs; morris n >= 2, a, b >= 1: 36 ct and
        # 24 closed (m >= 1); ct and closed on 18 tesler pairs (n >= 2, b >= 1)
        assert offered == 2 * 9 + 36 + 24 + 2 * 18

    def test_morris_without_edges_into_the_sink_has_no_ct(self, capsys):
        # the polytope is empty, yet the Morris constant term is 1
        code, out, err = run(
            capsys,
            "volume", "--graph", "morris:3,1,0,2", "--netflow", "1,0,-1", "--method", "ct",
        )
        assert code == 1
        assert out == ""
        assert "method 'ct' does not apply to this input" in err

    def test_morris_at_m_zero_has_ct(self, capsys):
        code, out, _ = run(
            capsys, "volume", "--graph", "morris:4,1,1,0", "--netflow", "1,0,0,-1",
            "--method", "lidskii", "--method", "ct",
        )
        assert code == 0
        assert json.loads(out)["volume"] == "1"

    @pytest.mark.parametrize("graph, netflow, methods", [
        ("morris:4,1,1,0", "1,0,0,-1", ("lidskii", "closed")),  # Gamma(m/2) = Gamma(0)
        ("tesler:4,1,0", "1,1,1,-3", ("ct",)),  # no edge into the sink
        ("morris:2,1,1,1", "1,-1", ("ct",)),  # n = 1
    ])
    def test_route_outside_its_identity_is_not_offered(self, capsys, graph, netflow,
                                                       methods):
        argv = ["volume", "--graph", graph, "--netflow", netflow]
        for method in methods:
            argv += ["--method", method]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"method {methods[-1]!r} does not apply to this input" in err
