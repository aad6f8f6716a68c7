import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import digest_cli
import sweep_limits
from twistknot import cli, criterion, presentations
from twistknot.cli import build_parser, main
from twistknot.presentations import Presentation
from twistknot.wirtinger import (
    builtin_link_L,
    diagram_from_json,
    diagram_to_json,
    wirtinger_presentation,
)
from twistknot.words import Word, is_conjugate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_line_error(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    return err


def test_bound_command(capsys):
    code, out, _ = run(capsys, "bound", "--u", "-1", "--v", "0")
    assert code == 0
    assert out.strip() == "4"
    code, out, _ = run(capsys, "bound", "--u", "-1", "--v", "0", "--longitude", "corrected")
    assert out.strip() == "2"


def test_generate_closed(capsys):
    code, out, _ = run(capsys, "generate", "--u", "0", "--v", "0")
    assert code == 0
    data = json.loads(out)
    assert data["text"]["relator"] == "b a b^-2 a"
    assert data["s_paper"] == 7
    assert data["presentation"]["relators"] == [[["b", 1], ["a", 1], ["b", -2], ["a", 1]]]


def test_generate_derive_agrees(capsys):
    _, closed_out, _ = run(capsys, "generate", "--u", "1", "--v", "1")
    _, derived_out, _ = run(capsys, "generate", "--u", "1", "--v", "1", "--mode", "derive")
    closed = json.loads(closed_out)
    derived = json.loads(derived_out)
    assert derived["derived"] is True
    assert derived["longitude_paper"] == closed["longitude_paper"]
    assert derived["s_corrected"] == closed["s_corrected"]


def test_verify_proof_command(capsys):
    code, out, _ = run(capsys, "verify-proof", "--u", "-1", "--v", "1")
    assert code == 0
    data = json.loads(out)
    assert [c["passed"] for c in data["checks"][:8]] == [True] * 8
    assert data["checks"][8]["passed"] is False
    assert data["checks"][8]["details"]["measured_class"] == -2


def test_verify_proof_sweep_jsonl(capsys):
    code, out, _ = run(
        capsys, "verify-proof", "--sweep", "--umin", "-1", "--umax", "0", "--vmax", "1"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 4
    assert {(rec["u"], rec["v"]) for rec in lines} == {(-1, 0), (-1, 1), (0, 0), (0, 1)}


def test_check_slope_command(capsys):
    code, out, _ = run(capsys, "check-slope", "--u", "-1", "--v", "0", "--p", "4", "--q", "1")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["kind"] == "GuaranteedNonLO"
    assert data["bound_paper"] == 4


def test_h1_command(capsys):
    code, out, _ = run(capsys, "h1", "--u", "0", "--v", "0")
    assert json.loads(out) == {"torsion": [], "rank": 1}
    code, out, _ = run(
        capsys, "h1", "--u", "0", "--v", "0", "--p", "5", "--q", "1"
    )
    assert json.loads(out) == {"torsion": [5], "rank": 0}


def test_h1_from_presentation_file(tmp_path, capsys):
    path = tmp_path / "presentation.json"
    path.write_text(
        json.dumps({"generators": ["a"], "relators": [[["a", 6]]]}), encoding="utf-8"
    )
    code, out, _ = run(capsys, "h1", "--presentation", str(path))
    assert json.loads(out) == {"torsion": [6], "rank": 0}


def test_h1_of_a_ten_generator_presentation_answers(tmp_path):
    # its relator matrix is 10x10; a Smith form that refines one pivot in place
    # grows its entries past 300,000 bits, so a timeout fails instead of hanging
    rng = random.Random(1)
    gens = [f"x{i}" for i in range(10)]
    rels = [
        Word((rng.choice(gens), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(8))
        for _ in range(10)
    ]
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(Presentation(tuple(gens), tuple(rels)).to_json()), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "twistknot", "h1", "--presentation", str(path)],
        capture_output=True, env=env, text=True, timeout=20,
    )
    assert (done.returncode, json.loads(done.stdout)) == (0, {"rank": 0, "torsion": [86210]})


def test_alexander_command(capsys):
    code, out, _ = run(capsys, "alexander", "--u", "0", "--v", "0")
    data = json.loads(out)
    assert data["coefficients"] == [[0, 1], [1, -1], [2, 1]]


def test_alexander_from_presentation_file(tmp_path, capsys):
    path = tmp_path / "trefoil.json"
    path.write_text(
        json.dumps(
            {"generators": ["a", "b"], "relators": [[["b", 1], ["a", 1], ["b", -2], ["a", 1]]]}
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "alexander", "--presentation", str(path))
    assert code == 0
    assert json.loads(out)["text"] == "1 - t + t^2"


def test_enumerate_command(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--u", "0", "--v", "0", "--p", "5", "--q", "1",
        "--max-cosets", "100000",
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "finished"
    assert data["order"] == 5
    assert "cosets_defined" in data


def test_wirtinger_builtin(capsys):
    code, out, _ = run(capsys, "wirtinger", "--builtin")
    data = json.loads(out)
    assert len(data["generators"]) == 12
    assert len(data["relators"]) == 12


def test_wirtinger_from_file(tmp_path, capsys):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(diagram_to_json(builtin_link_L())), encoding="utf-8")
    code, out, _ = run(capsys, "wirtinger", "--diagram", str(path))
    assert code == 0
    _, builtin_out, _ = run(capsys, "wirtinger", "--builtin")
    assert out == builtin_out


def test_output_is_reproducible(capsys):
    _, first, _ = run(capsys, "check-slope", "--u", "2", "--v", "1", "--p", "31", "--q", "2")
    _, second, _ = run(capsys, "check-slope", "--u", "2", "--v", "1", "--p", "31", "--q", "2")
    assert first == second


def test_ledger_appends_records(tmp_path, capsys):
    ledger = tmp_path / "runs.jsonl"
    run(capsys, "--ledger", str(ledger), "bound", "--u", "-1", "--v", "0")
    run(capsys, "--ledger", str(ledger), "bound", "--u", "-1", "--v", "1")
    lines = ledger.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["command"] == "bound"
    assert first["params"]["u"] == -1
    assert first["result"] == 4
    assert "timestamp" in first
    assert json.loads(lines[1])["result"] == 13


def test_usage_error_exits_2(capsys):
    # argparse's own errors, like the flag rules, are one line and a return
    for argv in (["no-such-command"], ["generate", "--u", "0"], ["bound", "--u", "x", "--v", "0"],
                 ["h1"], ["h1", "--u", "1"], []):
        _one_line_error(capsys, argv, 2)


def test_enumerate_refuses_an_oversized_coset_budget(capsys):
    # refused before any coset is defined; an infinite filling such as 12/1 would
    # fill memory with this budget, so the finite 1/1 keeps a regression quick
    argv = ["enumerate", "--u", "0", "--v", "0", "--p", "1", "--q", "1"]
    assert "max_cosets" in _one_line_error(capsys, [*argv, "--max-cosets", str(10**10)], 1)


def test_computation_error_exits_1(capsys):
    code = main(["bound", "--u", "-2", "--v", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "not positive" in captured.err
    code = main(["generate", "--u", "0", "--v", "-1"])
    assert code == 1


def test_text_format(capsys):
    code, out, _ = run(capsys, "--format", "text", "h1", "--u", "0", "--v", "0")
    assert code == 0
    assert "rank: 1" in out
    code, out, _ = run(capsys, "--format", "text", "generate", "--u", "0", "--v", "0")
    assert code == 0
    assert '"relator": "b a b^-2 a"' in out


def test_verify_proof_usage_error_without_params(capsys):
    _one_line_error(capsys, ["verify-proof"], 2)


def test_wirtinger_minimal_schema_diagram(tmp_path, capsys):
    # spec-minimal diagram JSON: no component names, no relator forms
    diagram = {
        "arcs": ["x", "y", "z"],
        "components": [["x", "y", "z"]],
        "crossings": [
            {"id": "T1", "over": "z", "under_in": "x", "under_out": "y", "sign": 1},
            {"id": "T2", "over": "x", "under_in": "y", "under_out": "z", "sign": 1},
            {"id": "T3", "over": "y", "under_in": "z", "under_out": "x", "sign": 1},
        ],
    }
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(diagram), encoding="utf-8")
    code, out, _ = run(capsys, "wirtinger", "--diagram", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["x", "y", "z"]
    assert data["relators"][0] == [["x", 1], ["z", 1], ["y", -1], ["z", -1]]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--u", "100000000", "--v", "0", "--p", "1", "--q", "1"],
        ["enumerate", "--u", "0", "--v", "0", "--p", "100000000", "--q", "1"],
    ],
)
def test_enumerate_overlong_relators_exit_1(capsys, argv):
    # refused before any relator is expanded into letters
    _one_line_error(capsys, argv + ["--max-cosets", "10"], 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["h1", "--p", "5", "--q", "1"],
        ["h1", "--u", "3", "--v", "1"],
        ["h1", "--v", "1"],
        ["alexander", "--u", "3", "--v", "1"],
        ["alexander", "--u", "3"],
        ["h1", "--q", "3", "--longitude", "corrected"],
        ["h1", "--q", "1"],
        ["h1", "--longitude", "paper"],
    ],
)
def test_presentation_file_with_parameters_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps({"generators": ["a"], "relators": [[["a", 6]]]}), encoding="utf-8")
    assert "--presentation" in _one_line_error(capsys, [*argv, "--presentation", str(path)], 2)


@pytest.mark.parametrize(
    "options",
    [["--q", "3", "--longitude", "corrected"], ["--q", "1"], ["--longitude", "paper"]],
)
def test_h1_slope_options_without_p_are_usage_error(capsys, options):
    _one_line_error(capsys, ["h1", "--u", "0", "--v", "0", *options], 2)


@pytest.mark.parametrize(
    "data",
    [
        {"generators": ["a"], "relators": 5},
        {"generators": ["a"], "relators": [1, 2]},
        [1, 2],
        {"generators": [{"x": 1}, 5], "relators": [[[5, 2]]]},
        {"generators": ["a", ""], "relators": [[["a", 2]]]},
        {"generators": ["a", "b"], "relators": [[[None, 2]]]},
        {"generators": ["a", "b"], "relators": [[["a", True]]]},
    ],
)
def test_malformed_presentation_file_exits_1(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    _one_line_error(capsys, ["h1", "--presentation", str(path)], 1)


def test_malformed_diagram_file_exits_1(tmp_path, capsys):
    unsigned = dict(diagram_to_json(builtin_link_L())["crossings"][0])
    del unsigned["sign"]
    # each case replaces one field of a valid diagram, found by its key path
    for *path, key, value in [
        ("crossings", 0, unsigned),
        ("crossings", 0, 5),
        ("crossings", 5),
        ("arcs", 0, ["alpha"]),
        ("components", 0, 0, 7),
        ("component_names", 0, None),
        ("crossings", 0, "over", 3),
        ("crossings", 0, "sign", True),
        ("crossings", 0, "form", ["in_first"]),
    ]:
        data = diagram_to_json(builtin_link_L())
        target = data
        for step in path:
            target = target[step]
        target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        _one_line_error(capsys, ["wirtinger", "--diagram", str(bad)], 1)


# JSON values of every kind, weighted towards the keys and names of the
# presentation and diagram formats so that parsing gets past the first check
_NAMES = st.sampled_from(["a", "b", "x", "", "in_first", "out_first", "conj_first"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _NAMES | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["generators", "relators", "arcs", "components", "component_names", "crossings",
             "id", "over", "under_in", "under_out", "sign", "form"]
        ) | st.text(max_size=2),
        inner,
        max_size=6,
    ),
    max_leaves=30,
)
_RUN = st.tuples(_NAMES, st.integers()).map(list)
_CROSSING = st.fixed_dictionaries(
    {key: _NAMES for key in ("id", "over", "under_in", "under_out")}
    | {"sign": st.sampled_from([1, -1, 0, True])},
    optional={"form": _NAMES},
)
_HOSTILE = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {
            "generators": st.lists(_NAMES, max_size=3),
            "relators": st.lists(st.lists(_RUN | _JSON, max_size=3), max_size=3),
        }
    ),
    st.fixed_dictionaries(
        {
            "arcs": st.lists(_NAMES, max_size=3),
            "components": st.lists(st.lists(_NAMES, max_size=3), max_size=2),
            "crossings": st.lists(_CROSSING, max_size=3),
        },
        optional={"component_names": st.lists(_NAMES, max_size=2)},
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_HOSTILE)
def test_hostile_json_gives_a_value_or_a_value_error(data):
    # the two readers behind --presentation and --diagram: anything else that
    # escapes them would end the command in a traceback
    for read in (Presentation.from_json, lambda d: wirtinger_presentation(diagram_from_json(d))):
        try:
            read(data)
        except ValueError:
            pass


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-proof", "--sweep", "--u", "1"],
        ["verify-proof", "--sweep", "--umax", "0", "--v", "0"],
        ["verify-proof", "--u", "0", "--v", "0", "--umin", "-1"],
        ["verify-proof", "--u", "0", "--v", "0", "--vmax", "2"],
    ],
)
def test_verify_proof_ignored_flags_are_usage_error(capsys, argv):
    _one_line_error(capsys, argv, 2)


def test_verify_proof_refuses_an_oversized_sweep_box(capsys, monkeypatch):
    # refused before any member is computed: 1001 x 1001 members would need hours
    def unreachable(params):
        raise AssertionError("a member was computed")

    monkeypatch.setattr(cli, "verify_proof", unreachable)
    argv = ["verify-proof", "--sweep", "--umin", "-500", "--umax", "500", "--vmax", "1000"]
    assert "1002001 members" in _one_line_error(capsys, argv, 2)


def test_sweep_box_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_MEMBERS", 4)
    box = ["verify-proof", "--sweep", "--umin", "0", "--umax", "1", "--vmin", "0"]
    code, out, _ = run(capsys, *box, "--vmax", "1")
    assert code == 0 and len(out.splitlines()) == 4
    _one_line_error(capsys, [*box, "--vmax", "2"], 2)


@pytest.mark.parametrize("box", [("3", "1", "0", "5"), ("0", "1", "2", "1")])
def test_empty_sweep_box_is_a_usage_error(capsys, box):
    umin, umax, vmin, vmax = box
    argv = ["verify-proof", "--sweep", "--umin", umin, "--umax", umax, "--vmin", vmin]
    err = _one_line_error(capsys, [*argv, "--vmax", vmax], 2)
    assert "no members" in err


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["generate", "--u", "0", "--v", "1"], 47),
        (["generate", "--u", "0", "--v", "1", "--mode", "derive"], 48),
        (["check-slope", "--u", "0", "--v", "1", "--p", "5", "--q", "1"], 11),
        (["wirtinger", "--builtin"], 48),
        (["verify-proof", "--u", "0", "--v", "1"], 60),
    ],
)
def test_payload_run_cap_is_inclusive(capsys, monkeypatch, argv, runs):
    monkeypatch.setattr(cli, "MAX_PAYLOAD_RUNS", runs)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_PAYLOAD_RUNS", runs - 1)

    def unreachable(self):
        raise AssertionError("a refused result was turned into JSON")

    # refused before any word becomes JSON, where a large result ran out of memory
    monkeypatch.setattr(Word, "to_pairs", unreachable)
    assert f"hold {runs} runs" in _one_line_error(capsys, argv, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--mode", "derive", "--u", str(10**12), "--v", "1"],
        ["verify-proof", "--u", str(10**12), "--v", "1"],
        ["generate", "--u", "0", "--v", str(10**12)],
        ["check-slope", "--u", "0", "--v", str(10**12), "--p", "5", "--q", "1"],
    ],
)
def test_huge_powers_of_multi_run_words_exit_1(capsys, argv):
    # (a b)^(10^12) would hold 2 * 10^12 runs; it is refused before any is built
    start = time.perf_counter()
    assert "over the cap" in _one_line_error(capsys, argv, 1)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("u", [10**12, -(10**12)])
def test_huge_twists_at_v_0_are_derived(capsys, u):
    # at v = 0 each derived word holds a few runs whatever u is; only the
    # stored twist relator psi (alpha beta)^u would hold 2|u| runs, and the
    # derivation builds none
    start = time.perf_counter()
    code, out, _ = run(capsys, "generate", "--mode", "derive", "--u", str(u), "--v", "0")
    assert code == 0
    derived = json.loads(out)
    closed = json.loads(run(capsys, "generate", "--u", str(u), "--v", "0")[1])
    assert derived["derived"] and derived["longitude_paper"] == closed["longitude_paper"]
    rel_d, rel_c = (Word.parse(m["text"]["relator"]) for m in (derived, closed))
    assert is_conjugate(rel_d, rel_c) or is_conjugate(rel_d, rel_c.inverse())
    code, out, _ = run(capsys, "verify-proof", "--u", str(u), "--v", "0")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["passed"] for c in checks] == [True] * 8 + [False]
    assert checks[8]["details"]["measured_class"] == 2 * u
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "argv",
    [
        ["alexander", "--presentation", "huge.json"],
        ["alexander", "--u", str(10**12), "--v", "0"],
        ["alexander", "--u", "499999", "--v", "0"],
    ],
)
def test_alexander_refuses_huge_fox_expansion(tmp_path, capsys, monkeypatch, argv):
    # 10^12 Fox terms, or a height span of 2*10^12 or of 1,000,002: refused
    # before any loop, where the last would peak well above 400 MiB
    monkeypatch.chdir(tmp_path)
    relator = [["a", 10**12], ["b", -1]]
    (tmp_path / "huge.json").write_text(
        json.dumps({"generators": ["a", "b"], "relators": [relator]}), encoding="utf-8"
    )
    _one_line_error(capsys, argv, 1)


def test_alexander_term_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    # a^n b^-1 presents Z, so Delta = 1; n Fox terms over a height span n
    monkeypatch.setattr(presentations, "MAX_FOX_TERMS", 10)
    path = tmp_path / "p.json"
    outcomes = []
    for n in (10, 11):
        path.write_text(
            json.dumps({"generators": ["a", "b"], "relators": [[["a", n], ["b", -1]]]}),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "alexander", "--presentation", str(path))
        outcomes.append((code, json.loads(out)["text"] if code == 0 else out))
    assert outcomes == [(0, "1"), (1, "")]


def test_unwritable_ledger_exits_1(tmp_path, capsys):
    ledger = tmp_path / "missing" / "runs.jsonl"
    _one_line_error(capsys, ["--ledger", str(ledger), "bound", "--u", "-1", "--v", "0"], 1)


def test_verify_proof_displays_psi_rotated_equations(capsys):
    code, out, _ = run(capsys, "verify-proof", "--u", "2", "--v", "1")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks[2]["details"]["equation_1"] == "h^-3 g^2 h^-1 g h^-1 g^2 h^-2 g^-1 h g^-1 h"
    assert checks[3]["details"]["equation_2"] == "g^-2 h^2 g h^-1 g h^2 g^-2 h g^-1 h"


_PARSER = build_parser()
#: subcommand name -> its parser
_SUBPARSERS = next(a.choices for a in _PARSER._actions if isinstance(a.choices, dict))
# integers stay in [-8, 8] because check-slope's shape matching costs Theta(u^2)
_INT = st.integers(-8, 8).map(str)
_JUNK = st.sampled_from(["x", "", "1.5", "--"])
#: any single token: a subcommand, any parser's flag, an integer or junk
_ANY = _INT | _JUNK | st.sampled_from(
    sorted({*_SUBPARSERS} | {f for p in (_PARSER, *_SUBPARSERS.values())
                             for a in p._actions for f in a.option_strings})
)


def _one_in(n, rare, common):
    """``rare`` one time in ``n``, ``common`` the rest."""
    return st.integers(1, n).flatmap(lambda k: rare if k == n else common)


def _flags(parser):
    """``parser``'s flags but -h/--help, each given three times in four, with a
    value that is junk one time in eight: ``[[flag, value], [flag], ...]``."""
    chunks = []
    for action in parser._actions:
        if action.option_strings in ([], ["-h", "--help"]):
            continue
        if action.nargs == 0:
            value = st.just([])
        else:
            valid = (st.sampled_from(sorted(action.choices)) if action.choices
                     else _INT if action.type is int else st.just("x"))
            value = _one_in(8, _JUNK, valid).map(lambda v: [v])
        flag = action.option_strings[0]
        chunks.append(_one_in(4, st.just([]), value.map(lambda v, flag=flag: [[flag, *v]])))
    return st.tuples(*chunks).map(lambda parts: sum(parts, []))


def _argv(command):
    """``command`` with some of its flags and one time in four a stray token, in
    any order; ``enumerate`` gets 2000 cosets, which a later flag can only lower."""
    budget = ["--max-cosets", "2000"] if command == "enumerate" else []
    stray = _one_in(4, _ANY.map(lambda token: [[token]]), st.just([]))
    rest = st.tuples(_flags(_SUBPARSERS[command]), stray).flatmap(
        lambda p: st.permutations(p[0] + p[1])
    )
    return st.tuples(_flags(_PARSER), rest).map(
        lambda p: [*sum(p[0], []), command, *budget, *sum(p[1], [])]
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_SUBPARSERS)).flatmap(_argv))
def test_arbitrary_argv_ends_in_a_result_or_one_line_error(argv):
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # "x" names a readable presentation, so --presentation/--diagram/--ledger x get past open()
        with open(os.path.join(tmp, "x"), "w", encoding="utf-8") as fh:
            json.dump({"generators": ["a"], "relators": [[["a", 6]]]}, fh)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 0 and {"-h", "--help"} & set(argv), argv
        finally:
            os.chdir(cwd)
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert code in (1, 2) and out.getvalue() == "", argv
        assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue(), argv


# argv -> (exit code, first 16 hex digits of sha256(stdout)); an output that
# changes on purpose is updated here and named in CHANGES.md
GOLDEN = [
    ("generate --u -3 --v 0", 0, "e0518b7ebb9ecdce"),
    ("generate --u -3 --v 0 --mode derive", 0, "a299a8b218a719a3"),
    ("verify-proof --u -3 --v 0", 0, "ad9fd8a4fd624186"),
    ("bound --u -3 --v 0 --longitude corrected", 1, "e3b0c44298fc1c14"),
    ("check-slope --u -3 --v 0 --p 13 --q 1", 0, "9aa69483fad7633d"),
    ("h1 --u -3 --v 0", 0, "0d53f67a50c98e37"),
    ("h1 --u -3 --v 0 --p 5 --q 2", 0, "6ffcb262593c63c2"),
    ("alexander --u -3 --v 0", 0, "c61bf74b90098699"),
    ("generate --u -1 --v 1", 0, "c81a3ee8e618daae"),
    ("generate --u -1 --v 1 --mode derive", 0, "3acd25961f37bc3d"),
    ("verify-proof --u -1 --v 1", 0, "be83f98e86ac8c5b"),
    ("bound --u -1 --v 1 --longitude corrected", 0, "25d4f2a86deb5e25"),
    ("check-slope --u -1 --v 1 --p 13 --q 1", 0, "9989992b73353d7b"),
    ("h1 --u -1 --v 1", 0, "0d53f67a50c98e37"),
    ("h1 --u -1 --v 1 --p 5 --q 2", 0, "bd4b89787c2aaec5"),
    ("alexander --u -1 --v 1", 0, "d810eef8967be14e"),
    ("generate --u 0 --v 0", 0, "ff4574e3fece9995"),
    ("generate --u 0 --v 0 --mode derive", 0, "3325609eaf230fe1"),
    ("verify-proof --u 0 --v 0", 0, "5bdac270d984e5fe"),
    ("bound --u 0 --v 0 --longitude corrected", 0, "06e9d52c1720fca4"),
    ("check-slope --u 0 --v 0 --p 13 --q 1", 0, "21f7fd53418ea5ec"),
    ("h1 --u 0 --v 0", 0, "0d53f67a50c98e37"),
    ("h1 --u 0 --v 0 --p 5 --q 2", 0, "ca7078dde0807f2a"),
    ("alexander --u 0 --v 0", 0, "c61bf74b90098699"),
    ("generate --u 2 --v 1", 0, "05a7a4fe99706ff8"),
    ("generate --u 2 --v 1 --mode derive", 0, "e9f5c337810f6d16"),
    ("verify-proof --u 2 --v 1", 0, "97949d1ef7a12c99"),
    ("bound --u 2 --v 1 --longitude corrected", 0, "076320a2a08267b4"),
    ("check-slope --u 2 --v 1 --p 13 --q 1", 0, "9374535e036a48f2"),
    ("h1 --u 2 --v 1", 0, "0d53f67a50c98e37"),
    ("h1 --u 2 --v 1 --p 5 --q 2", 0, "f88c788a0b4d8ec6"),
    ("alexander --u 2 --v 1", 0, "f1e6914bfcbff780"),
    ("generate --u 5 --v 2", 0, "c264a8eacfd162a5"),
    ("generate --u 5 --v 2 --mode derive", 0, "bab0a8ec966d4d60"),
    ("verify-proof --u 5 --v 2", 0, "06137edd243f6afa"),
    ("bound --u 5 --v 2 --longitude corrected", 0, "b1ce0aa6fdf3cf34"),
    ("check-slope --u 5 --v 2 --p 13 --q 1", 0, "9dd666f5085b7c9b"),
    ("h1 --u 5 --v 2", 0, "0d53f67a50c98e37"),
    ("h1 --u 5 --v 2 --p 5 --q 2", 0, "3de3b5de52533862"),
    ("alexander --u 5 --v 2", 0, "15324d18b03f349c"),
    ("h1 --u 2 --v 1 --p 7", 0, "3161b697a64b2174"),
    ("h1 --u 2 --v 1 --p 5 --q 2 --longitude corrected", 0, "ca7078dde0807f2a"),
    ("check-slope --u 2 --v 1 --p 23 --q 1 --longitude corrected", 0, "4d8abf9989271341"),
    ("wirtinger --builtin", 0, "217a5eba8dbfb111"),
    ("enumerate --u 0 --v 0 --p 1 --q 1", 0, "efd331900741c876"),
    ("enumerate --u 0 --v 0 --p 3 --q 1", 0, "0923aa1ddac7e73d"),
    ("enumerate --u 0 --v 0 --p -1 --q 1 --longitude corrected --max-cosets 20000", 0, "73c4f851c080b8d9"),
]


def test_golden_outputs(capsys):
    for line, code, digest in GOLDEN:
        got, out, _ = run(capsys, *line.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest), line


def test_grid_output_matches_the_recorded_digest():
    # the byte-identity guard of tests/digest_cli.py: exit code, stdout and
    # stderr of 3,369 in-process calls; its help/usage digest stays a script
    # check, since argparse's help text changes between Python versions
    assert digest_cli.digest(digest_cli.grid()) == digest_cli.RECORDED["calls"]


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_ends_in_one_line(unbuffered):
    # the reading end is closed before the command starts, so its first write
    # fails; a buffered stdout must not fail again when it is flushed at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "twistknot", "alexander", "--u", "0", "--v", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "twistknot: [Errno 32] Broken pipe\n"


def test_inconsistent_diagram_file_exits_1(tmp_path, capsys):
    data = diagram_to_json(builtin_link_L())
    data["crossings"][0]["over"] = "nowhere"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    err = _one_line_error(capsys, ["wirtinger", "--diagram", str(path)], 1)
    assert err == "wirtinger: crossing P1: unknown arc 'nowhere'\n"


def test_repeated_component_names_exit_1(tmp_path, capsys):
    data = diagram_to_json(builtin_link_L())
    data["component_names"] = ["l0", "l0", "l2"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    err = _one_line_error(capsys, ["wirtinger", "--diagram", str(path)], 1)
    assert err == "wirtinger: component names must be distinct\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-slope", "--u", "0", "--v", "1", "--p", "5", "--q", "1"],
        ["bound", "--u", "0", "--v", "1"],
    ],
)
def test_shape_letter_cap_is_inclusive(capsys, monkeypatch, argv):
    # the (0, 1) relator is 13 letters long, cyclically reduced
    monkeypatch.setattr(criterion, "MAX_SHAPE_LETTERS", 13)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(criterion, "MAX_SHAPE_LETTERS", 12)
    if argv[0] == "bound":
        # bound checks the closed-form witness run by run and never reaches
        # the door
        def unreachable(self):
            raise AssertionError("bound expanded the relator into letters")

        monkeypatch.setattr(Word, "letters", unreachable)
        assert run(capsys, *argv) == (0, out, "")
    else:
        err = _one_line_error(capsys, argv, 1)
        assert err == "criterion: relator has 13 letters; shape matching takes at most 12\n"


def test_oversized_relator_is_refused_before_matching(capsys):
    # 960,005 letters: matching them ran 55 s and peaked at 1.4 GiB before the
    # payload cap refused the report
    start = time.perf_counter()
    argv = ["check-slope", "--u", "0", "--v", "120000", "--p", "5", "--q", "1"]
    err = _one_line_error(capsys, argv, 1)
    assert err == "criterion: relator has 960005 letters; shape matching takes at most 100000\n"
    assert time.perf_counter() - start < 5


def test_fast_limit_rows_end_in_their_exit_codes():
    # each call runs in a child capped at 1 GiB and 90 s of CPU; a row that
    # breaks a cap, exits with another code or writes a traceback is named
    table = sweep_limits.run([row for row in sweep_limits.ROWS if row.fast])
    assert {row["call"]: row["failure"] for row in table if row["failure"]} == {}
    assert {row["exit"] for row in table} == {0, 1, 2}
    assert all(row["cpu_s"] > 0 and row["max_rss_mib"] > 0 for row in table)
