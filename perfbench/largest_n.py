"""Reference figures: the largest n each route finishes within 60 s.

    python3 perfbench/largest_n.py

For each route, n grows by one until a query runs past LIMIT_S (or fails,
for example on the memory cap) or passes MAX_N; the last n that finished is
printed with its time.  These are reference figures for perfbench/README.md,
not benchmark metrics: one run takes tens of minutes.
"""

from __future__ import annotations

from runner import OUT, run_query
from workloads import family_args, morris_integrand, prefix_arg, two_ones

LIMIT_S = 60.0
MAX_N = 20


def _morris_file(n: int) -> list[str]:
    path = OUT / f"morris_{n}_1_2_2.json"
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(morris_integrand(n, 1, 2, 2))
    return ["ct", "--file", str(path)]


def _complete(n: int, kind: str) -> list[str]:
    return family_args(f"complete:{n + 1}", kind)


ROUTES = {
    "volume lidskii, Catalan netflow": (3, lambda n: ["volume", *_complete(n, "catalan"), "--method", "lidskii"]),
    "volume lidskii, CRY netflow": (3, lambda n: ["volume", *_complete(n, "cry"), "--method", "lidskii"]),
    "volume ehrhart, Catalan netflow": (3, lambda n: ["volume", *_complete(n, "catalan"), "--method", "ehrhart"]),
    "volume ct, Catalan netflow": (3, lambda n: ["volume", *_complete(n, "catalan"), "--method", "ct"]),
    "volume ct, CRY netflow": (3, lambda n: ["volume", *_complete(n, "cry"), "--method", "ct"]),
    "volume ct, tesler:n+1,1,1": (3, lambda n: ["volume", *family_args(f"tesler:{n + 1},1,1", "ones"), "--method", "ct"]),
    "ct --file, Morris n,1,2,2": (2, _morris_file),
    "points lidskii, Catalan netflow": (3, lambda n: ["points", *_complete(n, "catalan"), "--method", "lidskii"]),
    "points kostant, Catalan netflow": (3, lambda n: ["points", *_complete(n, "catalan"), "--method", "kostant"]),
    "fvector (1,1,0,...)": (3, lambda n: ["fvector", "--netflow", prefix_arg(two_ones(n))]),
    "vertices --count-only (1,1,0,...)": (3, lambda n: ["vertices", "--netflow", prefix_arg(two_ones(n)), "--count-only"]),
}


def main() -> None:
    for name, (start, make) in ROUTES.items():
        best, best_s, stop = None, 0.0, ""
        for n in range(start, MAX_N + 1):
            r = run_query(make(n), timeout_s=LIMIT_S)
            if r.timed_out or r.returncode != 0:
                stop = f"n={n} {'> %gs' % LIMIT_S if r.timed_out else 'exit %d' % r.returncode}"
                break
            best, best_s = n, r.wall_s
        print(f"{name}: largest n = {best} ({best_s:.2f} s); {stop or 'max n reached'}",
              flush=True)


if __name__ == "__main__":
    main()
