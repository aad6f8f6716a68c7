"""One digest of the CLI's output over a fixed grid of calls.

A change meant to keep every output the same should leave this digest as it
was: ``--check`` compares both digests with the ones recorded below, and a
change that alters output on purpose records the new ones.  Each call runs
``cli.main`` in-process; the digest is the sha256 of
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

A second digest covers the command line's other surfaces: ``--help`` for the
top level and every subcommand (with ``COLUMNS=80``, so the wrapping does not
follow the terminal), usage errors that exit 2, ``--format text``, and
library errors that exit 1.  The script refuses to print it when one of those
calls exits with another code.

    PYTHONPATH=src python tests/digest_cli.py [--check]

Without ``--check`` the script prints both digests.  With it, it exits 1 and
names each grid whose digest differs from the recorded one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys

from twistknot.cli import main as cli_main

LONGITUDES = ("paper", "corrected")
DERIVE_MEMBERS = ((60, 40), (-90, 25), (200, 50), (37, 120))
SUBCOMMANDS = ("wirtinger", "generate", "verify-proof", "check-slope", "bound", "h1",
               "alexander", "enumerate")
MEMBER = ["--u", "3", "--v", "2"]

#: command lines that exit 2: argparse's own errors, then ``_check_flags``' rules
USAGE_ERRORS = (
    [],
    ["frobnicate"],
    ["--format", "xml", "bound", *MEMBER],
    ["bound", "--u", "3"],
    ["bound", "--u", "x", "--v", "2"],
    ["bound", *MEMBER, "--longitude", "other"],
    ["bound", *MEMBER, "--extra"],
    ["check-slope", *MEMBER, "--p", "5"],
    ["wirtinger"],
    ["wirtinger", "--builtin", "--diagram", "d.json"],
    ["h1", "--u", "3"],
    ["h1", *MEMBER, "--q", "2"],
    ["h1", "--presentation", "p.json", "--u", "3"],
    ["verify-proof", "--sweep", "--u", "3"],
    ["verify-proof", "--umin", "0"],
    ["verify-proof", "--sweep", "--umin", "3", "--umax", "1"],
)

#: command lines that exit 1: the library refuses the values
LIBRARY_ERRORS = (
    ["check-slope", *MEMBER, "--p", "0", "--q", "0"],
    ["check-slope", *MEMBER, "--p", "4", "--q", "2"],
    ["generate", "--u", "3", "--v", "-1"],
    ["bound", "--u", "3", "--v", "-1"],
    ["h1", *MEMBER, "--p", "4", "--q", "2"],
    ["enumerate", *MEMBER, "--p", "0", "--q", "0"],
    ["enumerate", *MEMBER, "--p", "5", "--q", "1", "--max-cosets", "0"],
)

#: the digests of the current output: the first grid, then the second
RECORDED = {
    "calls": "c313c6327c70cfbb7ddc07af61b7c0c9768b57d60ef265928c2fbe0c78c3e108",
    "help, usage, text and error calls":
        "e269b97cb2b151aed43b278f2621253a49f751e6cb5603fd12091072bb50db69",
}

TEXT_CALLS = (
    ["--format", "text", "bound", *MEMBER],
    ["--format", "text", "check-slope", *MEMBER, "--p", "40", "--q", "1"],
    ["--format", "text", "check-slope", *MEMBER, "--p", "7", "--q", "2"],
    ["--format", "text", "h1", *MEMBER, "--p", "3", "--q", "2"],
)


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


def surface_grid() -> list[tuple[list[str], int]]:
    """The second grid's calls, each with the exit code it must give."""
    helps = [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS]
    return ([(argv, 0) for argv in helps] + [(argv, 2) for argv in USAGE_ERRORS]
            + [(argv, 0) for argv in TEXT_CALLS] + [(argv, 1) for argv in LIBRARY_ERRORS])


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # --help prints usage and exits
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(calls: list[list[str]]) -> str:
    """The sha256 of ``repr((argv, exit code, stdout, stderr))`` for each call, in order."""
    hasher = hashlib.sha256()
    for call in calls:
        hasher.update(repr((call, *run(call))).encode())
    return hasher.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Digest the CLI's output over fixed grids.")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless both digests equal the recorded ones")
    check = parser.parse_args(argv).check
    os.environ["COLUMNS"] = "80"
    calls = grid()
    digests = {"calls": digest(calls)}
    print(f"{len(calls)} calls, sha256 {digests['calls']}")
    hasher = hashlib.sha256()
    surface = surface_grid()
    for call, expected in surface:
        result = run(call)
        if result[0] != expected:
            print(f"{call} exited {result[0]}, not {expected}", file=sys.stderr)
            return 1
        hasher.update(repr((call, *result)).encode())
    name = "help, usage, text and error calls"
    digests[name] = hasher.hexdigest()
    print(f"{len(surface)} {name}, sha256 {digests[name]}")
    if not check:
        return 0
    differ = [name for name, digest in digests.items() if digest != RECORDED[name]]
    for name in differ:
        print(f"the digest of the {name} differs from the recorded {RECORDED[name]}",
              file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
