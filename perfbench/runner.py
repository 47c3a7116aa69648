"""Run one flowcat CLI query in a fresh interpreter and measure it.

Each query is its own process, so nothing cached in one query (for example
the lru_cache on the constant-term DP) carries into the next.  CPU time and
peak RSS come from os.wait4 on that process alone.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# Address-space cap per query process, so a query that explodes fails with
# MemoryError instead of exhausting a shared machine.
MEMORY_CAP_BYTES = 3 << 30


@dataclass(frozen=True)
class QueryResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    timed_out: bool


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def query_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_query(
    args: list[str], timeout_s: float, trace_path: Path | None = None
) -> QueryResult:
    """Run `flowcat <args>`; with trace_path, run it under the tracer, which
    writes its spans to that file."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "flowcat.cli", *args]
    else:
        cmd = [sys.executable, str(TRACER), str(trace_path), *args]
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"query-{os.getpid()}.stdout"
    err_path = OUT / f"query-{os.getpid()}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=query_env(), cwd=ROOT,
            preexec_fn=_cap_memory,
        )
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        # wait4 reaped the child; record it so Popen does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
    return QueryResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        timed_out=killed.is_set(),
    )
