"""One digest of the CLI's output over a fixed grid of calls.

A change meant to keep every output the same should leave this digest as it
was: run the script on the parent commit and on the change and compare.  Each
call runs ``cli.main`` in-process; the digest is the sha256 of
``repr((argv, exit code, stdout, stderr))`` for every call, in order.

The grid, for every member u in [-12, 30], v in [0, 4]: ``bound`` and
``check-slope`` at -3/1, 5/1, 7/2 and 100/1, each with both longitudes;
``generate`` in both modes; ``verify-proof``; ``alexander``; and
``h1 --p 3 --q 2``.  Then ``bound`` and ``check-slope`` as above for u in
{60, 120}, v in {0, 2}, where most cuts of the relator cannot beat the best
one.  Then ``enumerate`` on u in [-2, 1], v in [0, 1], p in
{1, 2, 3, 5, 7, 11}, q = 1, both longitudes, ``--max-cosets 3000``.  Last,
``generate --mode derive`` and ``verify-proof`` at (u, v) in ``DERIVE_MEMBERS``,
where the second change of generators does most of the derivation's work.

    PYTHONPATH=src python tests/digest_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from twistknot.cli import main as cli_main

LONGITUDES = ("paper", "corrected")
DERIVE_MEMBERS = ((60, 40), (-90, 25), (200, 50), (37, 120))


def criterion_calls(member: list[str]) -> list[list[str]]:
    calls = []
    for use in LONGITUDES:
        calls.append(["bound", *member, "--longitude", use])
        for p, q in ((-3, 1), (5, 1), (7, 2), (100, 1)):
            slope = [f"--p={p}", f"--q={q}"]
            calls.append(["check-slope", *member, *slope, "--longitude", use])
    return calls


def grid() -> list[list[str]]:
    calls = []
    for u in range(-12, 31):
        for v in range(5):
            member = ["--u", str(u), "--v", str(v)]
            calls += criterion_calls(member)
            for mode in ("closed", "derive"):
                calls.append(["generate", *member, "--mode", mode])
            calls.append(["verify-proof", *member])
            calls.append(["alexander", *member])
            calls.append(["h1", *member, "--p", "3", "--q", "2"])
    for u in (60, 120):
        for v in (0, 2):
            calls += criterion_calls(["--u", str(u), "--v", str(v)])
    for u in range(-2, 2):
        for v in range(2):
            for p in (1, 2, 3, 5, 7, 11):
                for use in LONGITUDES:
                    calls.append(["enumerate", "--u", str(u), "--v", str(v), f"--p={p}",
                                  "--q", "1", "--longitude", use, "--max-cosets", "3000"])
    for u, v in DERIVE_MEMBERS:
        member = ["--u", str(u), "--v", str(v)]
        calls += [["generate", *member, "--mode", "derive"], ["verify-proof", *member]]
    return calls


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    hasher = hashlib.sha256()
    calls = grid()
    for argv in calls:
        hasher.update(repr((argv, *run(argv))).encode())
    print(f"{len(calls)} calls, sha256 {hasher.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
