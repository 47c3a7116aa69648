"""Command line interface.

Subcommands: volume, points, vertices, fvector, ct, verify.  Graphs are
given as `complete:<n+1>`, `morris:<n+1>,<a>,<b>,<m>`, `tesler:<n+1>,<a>,<b>`
or `file:<path>` (JSON per the core interchange format).  `volume` offers the
`ct` and `closed` methods on complete with netflow (1,1,0,...,0,-2), n >= 2, or
(1,0,...,0,-1), n >= 3; on morris with (1,0,...,0,-1), n >= 2 and a, b >= 1,
`closed` only for m >= 1; and on tesler with (1,...,1,-n), n >= 2 and b >= 1.
JSON output is deterministic: keys sorted, big integers as decimal strings.
Exit codes: 0 success, 1 invalid input, 2 verification or agreement failure.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from typing import Callable, Sequence

# Lazily registered by the package: a module runs only when a route uses it.
# `csv` and `json` are imported where a query reads or writes them.
from . import closedform, core, ctengine, faces, lidskii, verify

# The keys of verify.SUITES and, in the help of --max-n, their defaults and
# bounds, written out so that building the parser runs no engine; tests pin both.
_SUITE_NAMES = ("thm1", "cry", "thm2", "thm3", "morris", "lemma-gen", "lemma-expand",
                "faces", "lidskii-vs-ehrhart")


class CLIError(Exception):
    """Invalid input; reported on stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CLIError(message)


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


def _parse_input(
    spec: str, raw_netflow: str
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
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        writer.writerow(fields)
    else:
        for k, v in zip(keys, fields):
            print(f"{k}: {v}", file=out)


def _run_methods(
    args, compute: dict[str, Callable[[], int]], result_key: str, out
) -> int:
    """Evaluate each requested method, report agreement, emit the payload."""
    values: dict[str, int] = {}
    for method in args.method or ["lidskii"]:
        fn = compute.get(method)
        if fn is None:
            raise CLIError(f"method {method!r} does not apply to this input")
        values[method] = fn()
    agreement = len(set(values.values())) == 1
    payload: dict[str, object] = {
        result_key: str(next(iter(values.values()))),
        "agreement": agreement,
        "methods": {k: str(v) for k, v in sorted(values.items())},
    }
    _emit(payload, args.format, out)
    return 0 if agreement else 2


def _cmd_volume(args, out) -> int:
    G, netflow, routes = _parse_input(args.graph, args.netflow)
    compute: dict[str, Callable[[], int]] = {
        "lidskii": lambda: lidskii.lidskii_volume(G, netflow),
        "ehrhart": lambda: lidskii.ehrhart_polynomial(G, netflow).normalized_volume,
        **routes,
    }
    return _run_methods(args, compute, "volume", out)


def _cmd_points(args, out) -> int:
    G, netflow, _ = _parse_input(args.graph, args.netflow)
    compute = {
        "lidskii": lambda: lidskii.lidskii_points(G, netflow),
        "ehrhart": lambda: lidskii.ehrhart_polynomial(G, netflow)(1),
        "kostant": lambda: core.kostant(G, netflow),
    }
    return _run_methods(args, compute, "points", out)


def _cmd_vertices(args, out) -> int:
    a = _parse_ints(args.netflow)
    tableaux = faces.vertex_tableaux(a)
    if args.count_only and args.format != "json":
        print(len(tableaux), file=out)
        return 0
    payload: dict[str, object] = {"count": str(len(tableaux))}
    if args.enumerate:
        payload["tableaux"] = [[list(row) for row in rows] for rows in tableaux]
        payload["forests"] = [faces.tableau_to_forest(rows) for rows in tableaux]
    _emit(payload, args.format, out)
    return 0


def _cmd_fvector(args, out) -> int:
    a = _parse_ints(args.netflow)
    fv = faces.f_vector(a)
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
        count, bad = 0, []
        for r in checks:
            count += 1
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


def build_parser() -> _Parser:
    parser = _Parser(prog="flowcat", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_graph_flags(p: _Parser) -> None:
        p.add_argument("--graph", required=True)
        p.add_argument("--netflow", required=True,
                       help="comma separated integers, one per vertex; write "
                            "--netflow=-1,0,1 when the first one is negative")
        p.add_argument("--format", choices=("json", "text", "csv"), default="json")

    p = sub.add_parser("volume", help="normalized volume of a flow polytope")
    add_graph_flags(p)
    p.add_argument("--method", action="append",
                   choices=("lidskii", "ehrhart", "ct", "closed"))
    p.set_defaults(fn=_cmd_volume)

    p = sub.add_parser("points", help="lattice point count of a flow polytope")
    add_graph_flags(p)
    p.add_argument("--method", action="append",
                   choices=("lidskii", "ehrhart", "kostant"),
                   help="ehrhart is decoded from lidskii sums; kostant is the "
                        "route that does not use the Lidskii engine")
    p.set_defaults(fn=_cmd_points)

    p = sub.add_parser("vertices",
                       help="vertices of the complete graph flow polytope")
    p.add_argument("--netflow", required=True,
                   help="nonnegative prefix a_1,...,a_n of the netflow")
    listing = p.add_mutually_exclusive_group()
    listing.add_argument("--count-only", action="store_true")
    listing.add_argument("--enumerate", action="store_true")
    p.add_argument("--format", choices=("json", "text", "csv"), default="text")
    p.set_defaults(fn=_cmd_vertices)

    p = sub.add_parser("fvector",
                       help="face counts by dimension for the complete graph")
    p.add_argument("--netflow", required=True)
    p.add_argument("--format", choices=("json", "text", "csv"), default="text")
    p.set_defaults(fn=_cmd_fvector)

    p = sub.add_parser("ct", help="constant term of an integrand JSON file")
    p.add_argument("--file", required=True, help="path or - for stdin")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=_cmd_ct)

    p = sub.add_parser("verify", help="run cross-verification suites")
    p.add_argument("--suite", choices=_SUITE_NAMES + ("all",), default="all")
    p.add_argument(
        "--max-n", type=int, default=None,
        help="the largest n of every check: K_{n+1}, or n variables. Default "
             "[bound]: thm1 5, cry 7, thm2 4, thm3 3, morris 4, lemma-gen 5 [5], "
             "lemma-expand 3 [3], faces 6 [8], lidskii-vs-ehrhart 4")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, sys.stdout)
    except (CLIError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
