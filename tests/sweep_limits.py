"""Every command at its limits, each call in a capped child process.

``ROWS`` is a fixed list of calls: CLI commands at their largest accepted
input or one past it, a usage error, and one library call that replays
``derive_from_diagram`` and then ``verify_proof`` on one params object.
Each call runs in its own interpreter with an address-space cap
(``RLIMIT_AS``, 1 GiB) and a CPU cap (``RLIMIT_CPU``, 90 s) set before it
starts; the caps act on that child alone.  Its CPU time (user plus system)
and peak RSS are read from ``os.wait4`` on that child: the
``RUSAGE_CHILDREN`` totals report the largest child so far, not each one.

A call holds when it exits with its row's code, which is 0, 1 or 2, and
writes exactly one line to stderr when that code is not 0.  A call that
breaks a cap or these rules stays in the table with its ``failure`` named.
The script prints one JSON table, a row per call in ``ROWS`` order, and
exits 1 if any call failed:

    PYTHONPATH=src python tests/sweep_limits.py [--fast]

``--fast`` runs only the rows marked fast, under 3 s in all; tier-1 runs
them (``test_cli.py``).  The ``h1`` rows read dense presentations that
``conftest.random_presentation`` writes with a fixed seed.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from conftest import random_presentation

#: address-space cap of each child, in bytes
MEMORY_CAP_BYTES = 1 << 30
#: CPU cap of each child, in seconds; past it the child gets ``SIGXCPU``
CPU_CAP_S = 90
#: the dense ``h1`` inputs: file name and the seed that is also both sizes
DENSE = {"dense-100.json": 100, "dense-140.json": 140}
SRC = Path(__file__).resolve().parents[1] / "src"

_REPLAY = (
    "from twistknot.twisted_torus import TwistParams, derive_from_diagram, verify_proof\n"
    "params = TwistParams(3000, 3000)\n"
    "derive_from_diagram(params)\n"
    "verify_proof(params)\n"
)


class Row(NamedTuple):
    name: str
    argv: tuple[str, ...]  # the child's arguments after the interpreter
    exit: int  # the code the call must end with
    fast: bool


def _cli(exit: int, *args, fast: bool = False) -> Row:
    args = tuple(map(str, args))
    return Row(" ".join(args), ("-m", "twistknot", *args), exit, fast)


ROWS = (
    _cli(0, "generate", "--mode", "derive", "--u", 3000, "--v", 3000, fast=True),
    _cli(0, "verify-proof", "--u", 3000, "--v", 3000, fast=True),
    Row("derive_from_diagram + verify_proof at (3000, 3000)", ("-c", _REPLAY), 0, True),
    _cli(1, "bound", "--u", 0, "--v", 139264, fast=True),
    _cli(2, "generate", "--u", 1, fast=True),
    _cli(1, "alexander", "--u", 499999, "--v", 0, fast=True),
    _cli(1, "generate", "--u", 0, "--v", 31250, fast=True),
    _cli(1, "check-slope", "--u", 50000, "--v", 0, "--p", 3, "--q", 1, fast=True),
    _cli(1, "enumerate", "--u", 1, "--v", 0, "--p", 3, "--q", 1, "--max-cosets", 10**7 + 1,
         fast=True),
    _cli(1, "check-slope", "--u", 10**19, "--v", 0, "--p", 3, "--q", 1, fast=True),
    _cli(1, "enumerate", "--u", 0, "--v", 0, "--p", 10**19, "--q", 1, fast=True),
    _cli(0, "generate", "--mode", "derive", "--u", 20000, "--v", 20000),
    _cli(0, "verify-proof", "--u", 20000, "--v", 20000),
    _cli(0, "generate", "--u", 0, "--v", 31249),
    _cli(1, "generate", "--mode", "derive", "--u", 50, "--v", 90000),
    _cli(1, "verify-proof", "--u", 99999, "--v", 99999),
    _cli(0, "alexander", "--u", 499998, "--v", 0),
    _cli(0, "bound", "--u", 0, "--v", 139263),
    _cli(0, "check-slope", "--u", 1000, "--v", 0, "--p", 3000, "--q", 1),
    _cli(0, "check-slope", "--u", 3000, "--v", 0, "--p", 9000, "--q", 1),
    _cli(0, "enumerate", "--u", 1, "--v", 0, "--p", 3, "--q", 1, "--max-cosets", 10**7),
    *(_cli(0, "h1", "--presentation", name) for name in DENSE),
)


def _capped() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_CAP_S, CPU_CAP_S))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))  # a child stopped by a cap leaves no core


def _failure(row: Row, code: int, stderr: list[str]) -> str | None:
    if code < 0:
        return f"stopped by signal {-code}"
    if code != row.exit:
        return f"exit {code}, expected {row.exit}"
    if code and len(stderr) != 1:
        return f"{len(stderr)} stderr lines, expected 1"
    return None


def run_row(row: Row, cwd: str) -> dict:
    """Run one call in a capped child: its exit, CPU, peak RSS and stderr line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile("w+") as err:
        child = subprocess.Popen([sys.executable, *row.argv], cwd=cwd, env=env,
                                 stdout=subprocess.DEVNULL, stderr=err, preexec_fn=_capped)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().splitlines()
    return {
        "call": row.name,
        "exit": code,
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "max_rss_mib": round(usage.ru_maxrss / 1024, 1),
        "stderr": stderr[-1] if code and stderr else None,
        "failure": _failure(row, code, stderr),
    }


def run(rows) -> list[dict]:
    """Run ``rows`` one after another, in a directory that holds the ``h1`` inputs."""
    with tempfile.TemporaryDirectory() as cwd:
        for name, seed in DENSE.items():
            _, data = random_presentation(random.Random(seed), seed, seed)
            Path(cwd, name).write_text(json.dumps(data))
        return [run_row(row, cwd) for row in rows]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--fast"]):
        print("usage: sweep_limits.py [--fast]", file=sys.stderr)
        return 2
    table = run([row for row in ROWS if row.fast or not argv])
    print(json.dumps(table, indent=1))
    failed = [row["call"] for row in table if row["failure"]]
    for call in failed:
        print(f"failed: {call}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
