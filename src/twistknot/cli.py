"""Command-line surface: JSON I/O, sweeps, and an append-only results ledger.

Every command is a thin adapter over the library API; no computation lives
here.  Payloads are emitted with sorted keys and contain no timestamps, so
repeated runs with identical inputs are byte-identical.  Ledger records (one
JSON object per line, timestamped) are the only mutable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, NoReturn

from . import __version__
from .coset_enum import DEFAULT_MAX_COSETS, surgered_presentation, todd_coxeter
from .criterion import Slope, check_family_slope, minimal_integer_bound
from .presentations import Presentation, alexander_polynomial, homology
from .twisted_torus import TwistParams, closed_form, derive_from_diagram, verify_proof
from .wirtinger import builtin_link_L, diagram_from_json, wirtinger_presentation
from .words import Record, Word

#: ``verify-proof --sweep``'s parameter box flags and their defaults
_SWEEP_BOX = {"umin": -3, "umax": 3, "vmin": 0, "vmax": 4}
#: the most members a ``--sweep`` box may hold; the sweep keeps every report until it ends
MAX_SWEEP_MEMBERS = 10**4
#: the most runs a result's words may hold in all; JSON writes each run over four
#: lines, and a result at the cap peaks at about 430 MiB and prints 38 MB
MAX_PAYLOAD_RUNS = 10**6


class _UsageError(Exception):
    """A command line that cannot run as given; ``main`` prints it and returns 2."""


class _Parser(argparse.ArgumentParser):
    """Raise argparse's own usage errors instead of printing usage and exiting."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(f"{self.prog}: {message}")


def _params(args: argparse.Namespace) -> TwistParams:
    return TwistParams(args.u, args.v)


def _presentation_for(args: argparse.Namespace) -> Presentation:
    if getattr(args, "presentation", None) is not None:
        with open(args.presentation, "r", encoding="utf-8") as fh:
            return Presentation.from_json(json.load(fh))
    model = closed_form(_params(args))
    if getattr(args, "p", None) is not None:
        slope = Slope(args.p, args.q)
        return surgered_presentation(model, slope, args.longitude)
    return model.presentation


# -- command handlers ---------------------------------------------------------
# each returns a result object or an int for ``main`` to turn into JSON; a sweep
# returns its members' JSON, each turned as it is made so the sweep holds no reports


def _cmd_wirtinger(args):
    if args.diagram is not None:
        with open(args.diagram, "r", encoding="utf-8") as fh:
            diagram = diagram_from_json(json.load(fh))
    else:
        diagram = builtin_link_L()
    return wirtinger_presentation(diagram)


def _cmd_generate(args):
    params = _params(args)
    return derive_from_diagram(params) if args.mode == "derive" else closed_form(params)


def _cmd_verify_proof(args):
    if args.sweep:
        us, vs = range(args.umin, args.umax + 1), range(args.vmin, args.vmax + 1)
        return [_to_json(verify_proof(TwistParams(u, v))) for u in us for v in vs]
    return verify_proof(_params(args))


def _cmd_check_slope(args):
    return check_family_slope(_params(args), Slope(args.p, args.q), args.longitude)


def _cmd_bound(args) -> int:
    return minimal_integer_bound(_params(args), args.longitude)


def _cmd_h1(args):
    return homology(_presentation_for(args))


def _cmd_alexander(args):
    return alexander_polynomial(_presentation_for(args))


def _cmd_enumerate(args):
    return todd_coxeter(_presentation_for(args), args.max_cosets)


def _word_runs(result: Any) -> int:
    """Runs held by the words of a command's result, counted before it becomes JSON."""
    if isinstance(result, Word):
        return len(result.runs)
    if isinstance(result, Record):
        return sum(map(_word_runs, result._values()))
    if isinstance(result, tuple):
        return sum(map(_word_runs, result))
    if isinstance(result, dict):  # a proof check's ``details``
        return sum(map(_word_runs, result.values()))
    return 0


def _to_json(result: Any) -> Any:
    """JSON of one result, refused when its words hold more than ``MAX_PAYLOAD_RUNS`` runs."""
    runs = _word_runs(result)
    if runs > MAX_PAYLOAD_RUNS:
        raise ValueError(
            f"result too large: its words hold {runs} runs, over the cap of {MAX_PAYLOAD_RUNS}"
        )
    return result if isinstance(result, int) else result.to_json()


# -- parser -------------------------------------------------------------------


def _add_uv(sub, required: bool = True) -> None:
    sub.add_argument("--u", type=int, required=required, help="full twists on two strands")
    sub.add_argument("--v", type=int, required=required, help="torus parameter: type (3, 3v+2)")


def _add_slope(sub) -> None:
    sub.add_argument("--p", type=int, required=True, help="slope numerator")
    sub.add_argument("--q", type=int, required=True, help="slope denominator")


def _add_longitude(sub) -> None:
    sub.add_argument(
        "--longitude",
        choices=("paper", "corrected"),
        default="paper",
        help="which meridian correction to use for the longitude",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twistknot",
        description="Knot group presentations of twisted torus knots and the "
        "non-left-orderability slope criterion.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--ledger", metavar="FILE", help="append results to a JSONL ledger")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("wirtinger", help="Wirtinger presentation of a link diagram")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--diagram", metavar="FILE", help="diagram JSON file")
    group.add_argument("--builtin", action="store_true", help="use the built-in link")
    s.set_defaults(handler=_cmd_wirtinger)

    s = sub.add_parser("generate", help="two-generator knot group model")
    _add_uv(s)
    s.add_argument("--mode", choices=("closed", "derive"), default="closed")
    s.set_defaults(handler=_cmd_generate)

    s = sub.add_parser("verify-proof", help="replay the derivation's identities")
    _add_uv(s, required=False)
    s.add_argument("--sweep", action="store_true", help="sweep a parameter box, JSONL output")
    for flag in _SWEEP_BOX:
        s.add_argument(f"--{flag}", type=int)
    s.set_defaults(handler=_cmd_verify_proof)

    s = sub.add_parser("check-slope", help="criterion verdict for one slope")
    _add_uv(s)
    _add_slope(s)
    _add_longitude(s)
    s.set_defaults(handler=_cmd_check_slope)

    s = sub.add_parser("bound", help="smallest certified integer slope")
    _add_uv(s)
    _add_longitude(s)
    s.set_defaults(handler=_cmd_bound)

    s = sub.add_parser("h1", help="first homology via Smith normal form")
    _add_uv(s, required=False)
    s.add_argument("--presentation", metavar="FILE", help="presentation JSON file")
    s.add_argument("--p", type=int, help="optional surgery slope numerator")
    s.add_argument("--q", type=int, help="surgery slope denominator (default 1)")
    _add_longitude(s)
    s.set_defaults(handler=_cmd_h1, longitude=None)

    s = sub.add_parser("alexander", help="Alexander polynomial by Fox calculus")
    _add_uv(s, required=False)
    s.add_argument("--presentation", metavar="FILE", help="presentation JSON file")
    s.set_defaults(handler=_cmd_alexander)

    s = sub.add_parser("enumerate", help="Todd-Coxeter enumeration of a filling")
    _add_uv(s)
    _add_slope(s)
    _add_longitude(s)
    s.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    s.set_defaults(handler=_cmd_enumerate)

    return parser


def _emit(payload: Any, fmt: str) -> None:
    if isinstance(payload, list):
        for item in payload:
            print(json.dumps(item, sort_keys=True))
        return
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif isinstance(payload, dict):
        for key in sorted(payload):
            print(f"{key}: {json.dumps(payload[key], sort_keys=True)}")
    else:
        print(payload)


def _ledger_params(args: argparse.Namespace) -> dict:
    skip = {"handler", "command", "format", "ledger"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _append_ledger(path: str, command: str, params: dict, payload: Any) -> None:
    from datetime import datetime, timezone  # on first use: only a ledger needs it

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "params": params,
        "result": payload,
        "version": __version__,
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse a flag the command would ignore or a missing one it needs, then fill in the
    defaults held back so that a flag given without the one it qualifies is caught."""

    def given(*flags: str) -> str:
        return "/".join(f"--{flag}" for flag in flags if getattr(args, flag, None) is not None)

    def refuse(message: str) -> NoReturn:
        raise _UsageError(f"twistknot {args.command}: {message}")

    command, sweep = args.command, getattr(args, "sweep", False)
    if given("presentation") and given("u", "v", "p", "q", "longitude"):
        refuse("takes --presentation FILE or --u/--v/--p, not both")
    if command in ("verify-proof", "h1", "alexander") and not (sweep or given("presentation")):
        if args.u is None or args.v is None:
            either = "--sweep" if command == "verify-proof" else "--presentation FILE"
            refuse(f"requires --u and --v or {either}")
    if command == "verify-proof":
        ignored = given("u", "v") if sweep else given(*_SWEEP_BOX)
        if ignored:
            refuse(f"takes {ignored} only {'without' if sweep else 'with'} --sweep")
        for flag, default in _SWEEP_BOX.items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
        members = max(0, args.umax - args.umin + 1) * max(0, args.vmax - args.vmin + 1)
        if sweep and not members:
            refuse("--sweep box holds no members")
        if sweep and members > MAX_SWEEP_MEMBERS:
            refuse(f"--sweep box holds {members} members, over the cap of {MAX_SWEEP_MEMBERS}")
    if command == "h1":
        if args.p is None and given("q", "longitude"):
            refuse(f"takes {given('q', 'longitude')} only with --p")
        args.q = 1 if args.q is None else args.q
        args.longitude = args.longitude or "paper"


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        result = args.handler(args)
        payload = result if isinstance(result, list) else _to_json(result)
        if args.ledger is not None:
            records = payload if isinstance(payload, list) else [payload]
            for record in records:
                _append_ledger(args.ledger, args.command, _ledger_params(args), record)
        _emit(payload, args.format)
        sys.stdout.flush()
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        if isinstance(exc, BrokenPipeError):
            # stdout's reader has gone: what is still buffered goes nowhere, so the
            # flush at exit cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        module = type(exc).__module__
        qualifier = module.rsplit(".", 1)[-1] if module != "builtins" else "twistknot"
        print(f"{qualifier}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
