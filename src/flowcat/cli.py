"""usage: flowcat {volume,points,vertices,fvector,ct,verify} [flags]

`flowcat <subcommand> --help` lists the flags of one; a flag's value follows it
after a space or `=`, as in `--netflow -1,0,1` or `--netflow=-1,0,1`.  Graphs are
`complete:<n+1>`, `morris:<n+1>,<a>,<b>,<m>`, `tesler:<n+1>,<a>,<b>` or
`file:<path>` (JSON per the core interchange format).  `volume` offers the
`ct` and `closed` methods on complete with netflow (1,1,0,...,0,-2), n >= 2, or
(1,0,...,0,-1), n >= 3; on morris with (1,0,...,0,-1), n >= 2 and a, b >= 1,
`closed` only for m >= 1; and on tesler with (1,...,1,-n), n >= 2 and b >= 1.
JSON output is deterministic: keys sorted, big integers as decimal strings.
Exit codes: 0 success, 1 invalid input or stdout closed early, 2 verification
or agreement failure.
"""

from __future__ import annotations

import os
import sys
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Sequence

# Lazily registered by the package: a module runs only when a route uses it.
# `csv` and `json` are imported where a query reads or writes them.
from . import closedform, core, ctengine, faces, lidskii, verify


class CLIError(Exception):
    """Invalid input; reported on stderr with exit status 1."""


def _load_json(fh) -> object:
    """json.load, rejecting true and false, which are read as the ints 1 and 0."""
    import json
    nodes = [json.load(fh)]
    for x in nodes:  # the list grows as it is read, so this visits every value
        if isinstance(x, bool):
            raise ValueError(f"{str(x).lower()} is not a JSON integer")
        nodes.extend(x.values() if isinstance(x, dict) else x if isinstance(x, list) else ())
    return nodes[0]


def _parse_ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise CLIError(f"not a comma separated integer list: {raw!r}")


def _parse_input(spec: str, raw_netflow: str
                 ) -> tuple[core.Multigraph, tuple[int, ...], dict[str, Callable[[], int]]]:
    """(graph, netflow, routes) of --graph and --netflow.  `routes` holds the
    "ct" and "closed" volume routes of a pair that the module docstring names,
    else nothing; each route runs only when its method is asked for."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise CLIError(f"graph spec needs a kind prefix: {spec!r}")
    if kind == "file":
        try:
            with open(rest) as fh:
                G = core.Multigraph.from_json_dict(_load_json(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CLIError(f"cannot read graph file {rest!r}: {exc}")
        params = ()
    else:
        params = _parse_ints(rest)
        build = {("complete", 1): core.complete_graph, ("morris", 4): core.morris_graph,
                 ("tesler", 3): core.tesler_graph}.get((kind, len(params)))
        if build is None:
            raise CLIError(f"unrecognized graph spec: {spec!r}")
        G = build(*params)
    netflow = _parse_ints(raw_netflow)
    if len(netflow) != G.vertex_count:
        raise CLIError(f"netflow length {len(netflow)} does not match vertex count "
                       f"{G.vertex_count}")
    n = len(netflow) - 1
    cry = netflow == (1,) + (0,) * (n - 1) + (-1,)
    if kind == "complete" and n >= 2 and netflow == (1, 1) + (0,) * (n - 2) + (-2,):
        return G, netflow, {"ct": lambda: ctengine.catalan_polytope_ct(n),
                            "closed": lambda: closedform.catalan_polytope_volume(n)}
    if kind == "complete" and n >= 3 and cry:
        return G, netflow, {"ct": lambda: ctengine.morris_ct(n - 2, 0, 2, 1),
                            "closed": lambda: closedform.cry_product(n)}
    if kind == "morris" and n >= 2 and cry and min(params[1:3]) >= 1:
        _, a, b, m = params  # with no edge out of 1 or into n+1 the polytope is empty
        args = (n - 1, a - 1, b, m)  # the Morris identity's parameters
        routes = {"ct": lambda: ctengine.morris_ct(*args)}
        if m >= 1:  # at m = 0 its Gamma product has G(m/2) = G(0)
            routes["closed"] = lambda: closedform.morris_closed(*args)
        return G, netflow, routes
    if kind == "tesler" and n >= 2 and params[2] >= 1 and netflow == (1,) * n + (-n,):
        _, a, b = params  # with no edge into n+1 the polytope is empty
        return G, netflow, {"ct": lambda: ctengine.tesler_ct(n, a, b),
                            "closed": lambda: closedform.tesler_family_volume(n, a, b)}
    return G, netflow, {}


def _emit(payload: dict[str, object], fmt: str, out) -> None:
    """Print the payload as one JSON object, a CSV header and row, or one
    `key: value` line per key.  In CSV and text a dict or list value is
    written as JSON."""
    import json
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True), file=out)
        return
    keys = sorted(payload)
    fields = [json.dumps(payload[k], sort_keys=True)
              if isinstance(payload[k], (dict, list)) else payload[k] for k in keys]
    if fmt == "csv":
        import csv
        csv.writer(out, lineterminator="\n").writerows([keys, fields])
    else:
        for k, v in zip(keys, fields):
            print(f"{k}: {v}", file=out)


def _run_methods(args, compute: dict[str, Callable[[], int]], result_key: str, out) -> int:
    """Evaluate each requested method, report agreement, emit the payload."""
    values: dict[str, int] = {}
    for method in args.method or ["lidskii"]:
        fn = compute.get(method)
        if fn is None:
            raise CLIError(f"method {method!r} does not apply to this input")
        values[method] = fn()
    agreement = len(set(values.values())) == 1
    _emit({result_key: str(next(iter(values.values()))), "agreement": agreement,
           "methods": {k: str(v) for k, v in sorted(values.items())}}, args.format, out)
    return 0 if agreement else 2


def _cmd_volume(args, out) -> int:
    G, netflow, routes = _parse_input(args.graph, args.netflow)
    return _run_methods(args, {
        "lidskii": lambda: lidskii.lidskii_volume(G, netflow),
        "ehrhart": lambda: lidskii.ehrhart_polynomial(G, netflow).normalized_volume,
        **routes}, "volume", out)


def _cmd_points(args, out) -> int:
    G, netflow, _ = _parse_input(args.graph, args.netflow)
    return _run_methods(args, {
        "lidskii": lambda: lidskii.lidskii_points(G, netflow),
        "ehrhart": lambda: lidskii.ehrhart_polynomial(G, netflow)(1),
        "kostant": lambda: core.kostant(G, netflow)}, "points", out)


def _cmd_vertices(args, out) -> int:
    if args.count_only and args.enumerate:
        raise CLIError("argument --enumerate: not allowed with argument --count-only")
    a = _parse_ints(args.netflow)
    if args.enumerate:
        tableaux = faces.vertex_tableaux(a)
        _emit({"count": str(len(tableaux)),
               "tableaux": [[list(row) for row in rows] for rows in tableaux],
               "forests": [faces.tableau_to_forest(rows) for rows in tableaux]}, args.format, out)
    elif args.count_only and args.format == "text":  # counts the stream, builds no list
        print(faces.count_vertex_tableaux(a), file=out)
    else:
        _emit({"count": str(faces.count_vertex_tableaux(a))}, args.format, out)
    return 0


def _cmd_fvector(args, out) -> int:
    fv = faces.f_vector(_parse_ints(args.netflow))
    if args.format == "json":
        _emit({"f_vector": [str(v) for v in fv]}, "json", out)
    elif args.format == "csv":
        print(",".join(f"dim{d}" for d in range(len(fv))), file=out)
        print(",".join(str(v) for v in fv), file=out)
    else:
        print(" ".join(str(v) for v in fv), file=out)
    return 0


def _cmd_ct(args, out) -> int:
    try:
        if args.file == "-":
            data = _load_json(sys.stdin)
        else:
            with open(args.file) as fh:
                data = _load_json(fh)
        f = ctengine.CTIntegrand.from_json_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CLIError(f"cannot read integrand: {exc}")
    value = ctengine.constant_term(f)
    if args.format == "json":
        _emit({"constant_term": str(value)}, "json", out)
    else:
        print(value, file=out)
    return 0


def _cmd_verify(args, out) -> int:
    size = () if args.max_n is None else (args.max_n,)
    # every suite checks its bounds and makes its first check before any output
    started = []
    for name in verify.SUITES if args.suite == "all" else [args.suite]:
        checks = verify.SUITES[name](*size)
        first = next(checks, None)
        if first is None:
            raise CLIError(f"suite {name} makes no checks at --max-n {args.max_n}")
        started.append((name, chain((first,), checks)))
    write = None
    if args.format == "csv":
        import csv
        write = csv.writer(out, lineterminator="\n").writerow
    failed = 0
    for name, checks in started:
        # one pass that holds a count and the failures, never every check
        bad = []
        for count, r in enumerate(checks, 1):
            ok = r.ok
            if not ok:
                bad.append(r)
            if write:
                write([name, r.label, ok, r.expected, r.actual])
        failed += len(bad)
        if args.format != "csv":
            print(f"{name}: {count - len(bad)}/{count} checks passed", file=out)
            for r in bad:
                print(f"  FAIL {r.label}: expected {r.expected}, got {r.actual}",
                      file=out)
    return 2 if failed else 0


# The command line, read by parse_args and --help: subcommand -> (handler, help,
# flags), flag -> (kind, default, help).  A kind is str, int, bool (a switch), a
# tuple of choices, or a list of choices for a flag that repeats; default ... marks
# a required flag.  --suite and --max-n copy verify.SUITES, so parsing runs no engine.
_FORMATS = ("json", "text", "csv")
_GRAPH_FLAGS = {"--graph": (str, ..., None),
                "--netflow": (str, ..., "comma separated integers, one per vertex"),
                "--format": (_FORMATS, "json", None)}
_COMMANDS = {
    "volume": (_cmd_volume, "normalized volume of a flow polytope", {
        **_GRAPH_FLAGS, "--method": (["lidskii", "ehrhart", "ct", "closed"], None, None)}),
    "points": (_cmd_points, "lattice point count of a flow polytope", {
        **_GRAPH_FLAGS, "--method": (["lidskii", "ehrhart", "kostant"], None, (
            "ehrhart is decoded from lidskii sums; kostant does not use them"))}),
    "vertices": (_cmd_vertices, "vertices of the complete graph flow polytope", {
        "--netflow": (str, ..., "nonnegative prefix a_1,...,a_n of the netflow"),
        "--count-only": (bool, False, "not with --enumerate"),
        "--enumerate": (bool, False, None), "--format": (_FORMATS, "text", None)}),
    "fvector": (_cmd_fvector, "face counts by dimension for the complete graph", {
        "--netflow": (str, ..., None), "--format": (_FORMATS, "text", None)}),
    "ct": (_cmd_ct, "constant term of an integrand JSON file", {
        "--file": (str, ..., "- is stdin"), "--format": (_FORMATS[:2], "text", None)}),
    "verify": (_cmd_verify, "run cross-verification suites", {
        "--suite": (("thm1", "cry", "thm2", "thm3", "morris", "lemma-gen", "lemma-expand",
                     "faces", "lidskii-vs-ehrhart", "all"), "all", None),
        "--max-n": (int, None, "the largest n of every check: K_{n+1}, or n variables. "
                    "Default [bound]: thm1 5, cry 7, thm2 4, thm3 3, morris 4, lemma-gen "
                    "5 [5], lemma-expand 3 [3], faces 6 [8], lidskii-vs-ehrhart 4"),
        "--format": (_FORMATS[1:], "text", None)}),
}


def _help(name: str) -> str:
    """The usage of subcommand `name`, read from _COMMANDS."""
    _, text, flags = _COMMANDS[name]
    lines = [f"usage: flowcat {name} [flags]\n\n{text}\n"]
    for flag, (kind, default, note) in flags.items():
        arg = (f" {{{','.join(kind)}}}" if not isinstance(kind, type)
               else "" if kind is bool else " " + flag[2:].upper())
        when = ("required" if default is ... else "repeats" if isinstance(kind, list)
                else f"default {default}" if default else "")
        lines.append(f"  {flag}{arg}  {when}".rstrip() + (f"\n      {note}" if note else ""))
    return "\n".join(lines)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The handler's namespace of argv: fn, one attribute per flag; -h prints usage."""
    name, *tokens = argv or [""]
    if {"-h", "--help"} & {*argv}:
        print(_help(name) if name in _COMMANDS else __doc__)
        raise SystemExit(0)
    if name not in _COMMANDS:
        raise CLIError(f"invalid subcommand {name!r}; choose from {', '.join(_COMMANDS)}")
    fn, _, flags = _COMMANDS[name]
    values = {flag: default for flag, (_, default, _) in flags.items()}
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        kind = flags.get(flag, (None,))[0]
        if kind is None or kind is bool and eq:
            raise CLIError(f"unrecognized arguments: {token}")
        if kind is not bool and not eq:  # the next token is the value, unless a flag
            value = next(tokens, "--")
            if value.startswith("--"):
                raise CLIError(f"argument {flag}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise CLIError(f"argument {flag}: invalid int value: {value!r}")
        elif isinstance(kind, (tuple, list)) and value not in kind:
            raise CLIError(f"argument {flag}: invalid choice: {value!r} "
                           f"(choose from {', '.join(kind)})")
        values[flag] = (values[flag] or []) + [value] if isinstance(kind, list) else (
            True if kind is bool else value)
    if missing := [flag for flag, value in values.items() if value is ...]:
        raise CLIError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(fn=fn, **{f[2:].replace("-", "_"): v for f, v in values.items()})


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
            return args.fn(args, sys.stdout)
        finally:
            sys.stdout.flush()  # so that a closed pipe raises in the try
    except (CLIError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # as the `signal` docs advise: devnull takes the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
