import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from conftest import conjugate_relator, invert_relator, random_word
from sweep_lspace import check_member, sample
from twistknot import criterion, twisted_torus, words
from twistknot.cli import main
from twistknot.criterion import (
    CriterionError,
    ITShape,
    Slope,
    Verdict,
    check_family_slope,
    decide,
    match_it_shape,
    minimal_integer_bound,
)
from twistknot.presentations import Presentation
from twistknot.twisted_torus import KnotGroupModel, TwistParams, closed_form
from twistknot.words import Generator, Word, is_conjugate, word

A = Generator("a")
B = Generator("b")
BA = word(("b", 1), ("a", 1))


def test_slope_validation():
    with pytest.raises(CriterionError, match="lowest terms"):
        Slope(10, 5)
    with pytest.raises(CriterionError, match="not a slope"):
        Slope(0, 0)
    assert Slope(3, -2) == Slope(-3, 2)
    assert Slope(-1, 0) == Slope(1, 0)
    slope = Slope(7, 2)
    assert Fraction(slope.p, slope.q) == Fraction(7, 2)


def test_decide_compares_the_slope_to_the_bound_exactly():
    # decide compares p >= bound * q in integers; the exact rational comparison agrees
    shape = check_family_slope(TwistParams(3, 2), Slope(40, 1)).shape
    for p in range(-30, 31):
        for q in range(1, 8):
            if gcd(p, q) != 1:
                continue
            slope = Slope(p, q)
            for bound in range(-20, 21):
                certified = decide(shape, True, bound, slope).kind == "GuaranteedNonLO"
                assert certified == (Fraction(slope.p, slope.q) >= bound), (p, q, bound)


@pytest.mark.parametrize("p, q", [(True, 1), (3, True), (0.5, 1), (1, 2.0), ("1", 1), (None, 1)])
def test_slope_refuses_non_integers(p, q):
    with pytest.raises(CriterionError, match="p and q must be integers"):
        Slope(p, q)


def test_family_relator_contains_reference_shape():
    # the reference decomposition m = n = 1, r = u + 1, k = 1 must be found;
    # for u >= 0 the relator is cyclically reduced as written, so the
    # conjugators come out canonical (w1 determined up to a trailing power
    # of a, w2 exactly); for u = -1 cyclic reduction rebases them
    for u in (-1, 0, 1, 3):
        for v in (0, 1, 2):
            model = closed_form(TwistParams(u, v))
            shapes = match_it_shape(model.presentation)
            assert shapes, (u, v)
            hits = [
                s
                for s in shapes
                if s.a == A and (s.m, s.n, s.r, s.k) == (1, 1, u + 1, 1)
            ]
            assert hits, (u, v)
            if u >= 0:
                assert any(
                    s.w1 * word(("a", 1)) == BA ** (v + 1) and s.w2 == BA**v
                    for s in hits
                ), (u, v)
            relator = model.presentation.relators[0]
            for shape in hits:
                rebuilt = shape.reconstruct()
                assert is_conjugate(rebuilt, relator) or is_conjugate(
                    rebuilt, relator.inverse()
                )


def test_shapes_exist_below_positivity_range():
    for u, v in [(-2, 0), (-2, 1), (-3, 2)]:
        model = closed_form(TwistParams(u, v))
        shapes = match_it_shape(model.presentation)
        assert shapes, (u, v)
        relator = model.presentation.relators[0]
        rebuilt = shapes[0].reconstruct()
        assert is_conjugate(rebuilt, relator) or is_conjugate(rebuilt, relator.inverse())


def test_all_shapes_reconstruct_the_relator():
    model = closed_form(TwistParams(2, 1))
    relator = model.presentation.relators[0]
    shapes = match_it_shape(model.presentation)
    for s in shapes:
        rebuilt = s.reconstruct()
        assert is_conjugate(rebuilt, relator) or is_conjugate(rebuilt, relator.inverse())
        assert s.m >= 0 and s.n >= 0 and s.k >= 0
    sizes = [len(s.w1) + len(s.w2) for s in shapes]
    assert sizes == sorted(sizes)


def test_abab_yields_no_shapes():
    p = Presentation((A, B), (word(("a", 1), ("b", 1), ("a", 1), ("b", 1)),))
    assert match_it_shape(p) == []


def test_single_generator_relator_yields_no_shapes():
    p = Presentation((A, B), (word(("a", 3)),))
    assert match_it_shape(p) == []


def test_match_requires_two_generators_one_relator():
    with pytest.raises(CriterionError, match="2 generators"):
        match_it_shape(Presentation((A,), (word(("a", 3)),)))
    with pytest.raises(CriterionError, match="1 relator"):
        match_it_shape(Presentation((A, B), (word(("a", 1)), word(("b", 1)))))


def test_match_refuses_an_oversized_relator_before_expanding_it(monkeypatch):
    # the (0, 1) relator, b a b a b^-1 a^-1 b^-2 a^-1 b^-1 a b a, is cyclically
    # reduced to 13 letters
    p = closed_form(TwistParams(0, 1)).presentation
    monkeypatch.setattr(criterion, "MAX_SHAPE_LETTERS", 13)
    assert match_it_shape(p)
    monkeypatch.setattr(criterion, "MAX_SHAPE_LETTERS", 12)

    def unreachable(self):
        raise AssertionError("a refused relator was expanded into letters")

    monkeypatch.setattr(Word, "letters", unreachable)
    with pytest.raises(CriterionError, match="relator has 13 letters; shape matching takes at most 12"):
        match_it_shape(p)


def test_family_refuses_an_oversized_relator_before_expanding_it(monkeypatch):
    # check-slope passes the same door as match_it_shape; bound checks the
    # closed-form witness run by run and never reaches the door
    params = TwistParams(0, 1)
    monkeypatch.setattr(criterion, "MAX_SHAPE_LETTERS", 12)

    def unreachable(self):
        raise AssertionError("a refused relator was expanded into letters")

    monkeypatch.setattr(Word, "letters", unreachable)
    with pytest.raises(CriterionError, match="relator has 13 letters; shape matching takes at most 12"):
        check_family_slope(params, Slope(5, 1))
    assert minimal_integer_bound(params) == 15


def _pinned_cases():
    for u in range(-4, 6):
        for v in range(0, 3):
            yield closed_form(TwistParams(u, v)).presentation
    rng = random.Random(16180)
    for i in range(120):
        if i % 2:
            pairs = (((A, B)[j % 2], rng.choice((-1, 1)) * rng.randint(1, 3))
                     for j in range(rng.randint(1, 7)))
            relator = Word(pairs)
        else:
            relator = random_word(rng, (A, B), 14)
        if not relator.is_identity:
            yield Presentation((A, B) if i % 3 else (B, A), (relator,))


def test_match_output_is_pinned():
    # every shape, its order and its JSON: 920 shapes from 30 family members
    # and 116 random relators, digested from a matcher that built and sorted
    # every shape whole, so the streamed cuts must keep it
    digest = hashlib.sha256()
    for p in _pinned_cases():
        shapes = [s.to_json() for s in match_it_shape(p)]
        digest.update(json.dumps(shapes, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "ebe2d0c74c9604375fb9e9f82ada0584f17b524975e12f58aa48145eb1f9c5bc"


def test_family_shape_is_the_first_meridian_rooted_match():
    # the small box is where cuts most often tie on their integer key
    rng = random.Random(1729)
    members = [(u, v) for u in range(-4, 9) for v in range(4)]
    members += [(rng.randint(-30, 60), rng.randint(0, 10)) for _ in range(20)]
    for u, v in members:
        model = closed_form(TwistParams(u, v))
        relator = model.presentation.relators[0]
        (meridian, _), = model.meridian.runs
        first = next(s for s in match_it_shape(model.presentation) if s.a == meridian)
        shape = check_family_slope(TwistParams(u, v), Slope(1, 0)).shape
        assert shape.to_json() == first.to_json(), (u, v)
        rebuilt = shape.reconstruct()
        assert is_conjugate(rebuilt, relator) or is_conjugate(rebuilt, relator.inverse()), (u, v)


def test_family_check_memory_stays_flat_in_u():
    # the best cut is kept as the cuts stream by; holding all (u+2)(u+3)
    # shapes of the v = 0 member, as matching them all does, peaks at 1.7 MiB
    tracemalloc.start()
    try:
        check_family_slope(TwistParams(50, 0), Slope(5, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def _random_presentations(seed: int, count: int):
    """``<a, b | r>`` for up to ``count`` random nonidentity ``r`` of at most 10 letters."""
    rng = random.Random(seed)
    for _ in range(count):
        relator = random_word(rng, (A, B), 10)
        if not relator.is_identity:
            yield Presentation((A, B), (relator,))


def test_match_sound_and_deterministic_on_random_relators():
    for p in _random_presentations(271828, 60):
        relator = p.relators[0]
        shapes = match_it_shape(p)
        again = match_it_shape(p)
        assert shapes == again
        for s in shapes:
            assert s.m >= 0 and s.n >= 0 and s.k >= 0
            rebuilt = s.reconstruct()
            assert is_conjugate(rebuilt, relator) or is_conjugate(
                rebuilt, relator.inverse()
            )


def test_best_cut_is_the_first_match_with_its_a_role():
    # the family's search skips cuts by their integer key and keeps the least
    # full key, the first found on a tie, as the sorted listing does.  In the two
    # fixed relators two cuts tie on the integer key and the first one found is
    # not the text-least (w2 = b^-1 a^-3 before b a^3, and b^2 a before b^-2 a^-1),
    # so they pin the text tie-break
    tied = [Presentation((A, B), (Word.parse(text),))
            for text in ("a^3 b a^3 b^-1 a^-3 b^-1", "a^-2 b^2 a^-1 b^-2 a^-1 b^2 a^3")]
    for p in [*tied, *_random_presentations(271828, 600)]:
        core = criterion._shape_core(p)
        shapes = match_it_shape(p)
        for a, b in ((A, B), (B, A)):
            first = next((s for s in shapes if s.a == a), None)
            assert criterion._best_cut(core, a, b) == first, (p.relators[0].as_text(), a)


def test_family_cuts_at_the_least_integer_key_spell_the_same_words():
    # pinned, not proved: on the family the meridian-rooted cuts that reach the
    # least integer key (|w1| + |w2|, m, n, r, k) all have the same w1 and w2,
    # so the text compare in _best_cut never decides between different words
    for u in range(-6, 13):
        for v in range(5):
            p = closed_form(TwistParams(u, v)).presentation
            least = []

            def wanted(bound):
                return not least or bound <= least[0][:5]

            for key, _, _, _ in criterion._cuts(criterion._shape_core(p), *p.generators, wanted):
                if not least or key[:5] < least[0][:5]:
                    least = [key]
                elif key[:5] == least[0][:5]:
                    least.append(key)
            assert len({key[5:7] for key in least}) <= 1, (u, v, least)


def test_match_invariant_under_rotation_and_inversion():
    rng = random.Random(12)
    for u, v in [(0, 0), (-1, 1), (2, 2)]:
        base = closed_form(TwistParams(u, v)).presentation
        reference = {
            (s.a.name, s.m, s.n, s.r, s.k, s.w1.as_text(), s.w2.as_text())
            for s in match_it_shape(base)
        }
        for _ in range(3):
            variant = conjugate_relator(base, 0, random_word(rng, (A, B), 5))
            if rng.random() < 0.5:
                variant = invert_relator(variant, 0)
            got = {
                (s.a.name, s.m, s.n, s.r, s.k, s.w1.as_text(), s.w2.as_text())
                for s in match_it_shape(variant)
            }
            assert got == reference


def _power_of(letters, a):
    """``(m, c)`` when the letters spell ``c a^m c^-1`` with ``m >= 0``, else None."""
    core, c = Word(letters).cyclic_reduce()
    if core.generator_set() - {a} or len(core.runs) > 1 or core.exponent_sum(a) < 0:
        return None
    return core.exponent_sum(a), c


def _brute_force_keys(p):
    """Every cut of every rotation, judged by cyclic reduction alone."""
    keys = set()
    core, _ = p.relators[0].cyclic_reduce()
    for a, b in (p.generators, p.generators[::-1]):
        for variant in (core, core.inverse()):
            letters = variant.letters()
            size = len(letters)
            for shift in range(size):
                rot = letters[shift:] + letters[:shift]
                xs = [_power_of(rot[:p1], a) for p1 in range(size + 1)]
                for p3 in range(size, -1, -1):
                    if any(g != b for g, _ in rot[p3:]):
                        break
                    for p1 in range(p3 + 1):
                        if xs[p1] is None:
                            continue
                        m, w1 = xs[p1]
                        for p2 in range(p1, p3 + 1):
                            if any(g != b for g, _ in rot[p1:p2]):
                                break
                            y = _power_of(rot[p2:p3], a)
                            if y is None:
                                continue
                            n, w2_inv = y
                            r = -sum(e for _, e in rot[p1:p2])
                            k = r - sum(e for _, e in rot[p3:])
                            if k >= 0:
                                keys.add((a.name, m, n, r, k, w1.runs, w2_inv.inverse().runs))
    return keys


def test_match_finds_every_shape_a_brute_force_finds():
    cases = [
        closed_form(TwistParams(u, v)).presentation for u in range(-3, 5) for v in (0, 1)
    ]
    rng = random.Random(8128)
    while len(cases) < 16 + 150:
        runs = [
            ((A, B)[i % 2], rng.choice((-1, 1)) * rng.randint(1, 3))
            for i in range(rng.randint(2, 6))
        ]
        relator = Word(runs)
        # a core in one generator is a documented early return, not a match
        if len(relator.cyclic_reduce()[0].generator_set()) == 2:
            cases.append(Presentation((A, B), (relator,)))
    for p in cases:
        got = {
            (s.a.name, s.m, s.n, s.r, s.k, s.w1.runs, s.w2.runs) for s in match_it_shape(p)
        }
        assert got == _brute_force_keys(p), p.relators[0]


def test_decide_hypothesis_order():
    params = TwistParams(-1, 0)
    report = check_family_slope(params, Slope(4, 1))
    assert report.verdict.kind == "GuaranteedNonLO"
    assert report.bound_paper == 4
    assert report.bound_corrected == 2

    report = check_family_slope(params, Slope(3, 1))
    assert report.verdict.kind == "Unknown"

    report = check_family_slope(params, Slope(3, 1), use="corrected")
    assert report.verdict.kind == "GuaranteedNonLO"

    report = check_family_slope(TwistParams(-2, 0), Slope(100, 1))
    assert report.verdict.kind == "NotApplicable"
    assert report.verdict.reason == "w not positive"

    report = check_family_slope(params, Slope(1, 0))
    assert report.verdict.kind == "NotApplicable"
    assert report.verdict.reason == "q = 0"


def test_blocks_gate_overrides_reduced_positivity():
    # u = -2, v = 1: reduced w is positive but the block form is not;
    # the family gate follows the block form and stays NotApplicable
    report = check_family_slope(TwistParams(-2, 1), Slope(50, 1))
    assert report.verdict.kind == "NotApplicable"
    assert report.verdict.reason == "w not positive"
    assert report.w_positive_reduced
    assert not report.w_positive_blocks


def test_decide_no_shape():
    verdict = decide(None, True, 4, Slope(10, 1))
    assert verdict.kind == "NotApplicable"
    assert "shape" in verdict.reason


@pytest.mark.parametrize("m, k, reason", [(-1, 0, "m, n must be >= 0"), (1, -1, "k must be >= 0")])
def test_decide_checks_exponent_signs_before_positivity(m, k, reason):
    # match_it_shape never yields these shapes; decide refuses them first
    shape = ITShape(A, B, m, 1, 0, k, Word(), Word())
    assert decide(shape, False, 4, Slope(10, 1)) == Verdict("NotApplicable", reason)


def test_decide_monotone_in_slope():
    rng = random.Random(31)
    params = TwistParams(1, 1)
    model = closed_form(params)
    shape = match_it_shape(model.presentation)[0]
    bound = model.s_paper + model.t
    for _ in range(200):
        p = rng.randrange(-80, 80)
        q = rng.randrange(1, 9)
        from math import gcd

        g = gcd(abs(p), q)
        slope = Slope(p // g, q // g)
        verdict = decide(shape, model.w_blocks_positive, bound, slope)
        if Fraction(slope.p, slope.q) >= bound:
            assert verdict.kind == "GuaranteedNonLO"
        else:
            assert verdict.kind == "Unknown"


def test_minimal_integer_bound_formulas():
    for v in range(0, 11):
        assert minimal_integer_bound(TwistParams(-1, v)) == 3 * (3 * v + 2) - 2
    for s in (0, 1, 2, 3):
        for v in range(0, 5):
            assert minimal_integer_bound(TwistParams(s, v)) == 3 * (3 * v + 2) + 2 * s
    assert minimal_integer_bound(TwistParams(-1, 0), "corrected") == 2
    for u in (-1, 0, 2):
        for v in (0, 2):
            paper = minimal_integer_bound(TwistParams(u, v), "paper")
            corrected = minimal_integer_bound(TwistParams(u, v), "corrected")
            assert paper - corrected == -2 * u


def test_minimal_integer_bound_rejects_nonpositive_words():
    with pytest.raises(CriterionError, match="not positive"):
        minimal_integer_bound(TwistParams(-2, 0))
    with pytest.raises(CriterionError, match="not positive"):
        minimal_integer_bound(TwistParams(-3, 2))


def _formula_members():
    """The members of ``test_minimal_integer_bound_formulas``."""
    members = [(-1, v) for v in range(11)]
    members += [(u, v) for u in (0, 1, 2, 3) for v in range(5)]
    return members + [(2, 0), (2, 2)]


def _formula_bound(u: int, v: int, use: str) -> int:
    return (2 if use == "paper" else 4) * u + 3 * (3 * v + 2)


def test_family_witness_checks_out_on_the_box():
    # the closed form's shape rebuilds the relator on every member with u >= -1
    for u in range(-1, 301):
        for v in range(21):
            assert criterion._family_witness(closed_form(TwistParams(u, v))) is not None, (u, v)


def test_family_witness_refuses_a_shape_that_does_not_rebuild_the_relator(monkeypatch):
    # the witness is read from u and v; under another member's relator it
    # fails its check, and bound refuses rather than print a bound
    model = closed_form(TwistParams(3, 1))
    other = closed_form(TwistParams(4, 1)).presentation
    fields = {field: getattr(model, field) for field in model._fields}
    wrong = KnotGroupModel(**{**fields, "presentation": other})
    assert criterion._family_witness(wrong) is None
    monkeypatch.setattr(criterion, "closed_form", lambda params: wrong)
    with pytest.raises(CriterionError, match="no certified integer slope"):
        minimal_integer_bound(TwistParams(3, 1))


def test_family_witness_is_the_first_shape_but_at_one_member():
    # at (-1, 0) the first shape is m = 0, n = 2, r = 0, k = 1, w1 = w2 = 1;
    # the witness is valid there, just not first
    for u in range(-1, 21):
        for v in range(5):
            params = TwistParams(u, v)
            first = check_family_slope(params, Slope(0, 1)).shape
            same = criterion._family_witness(closed_form(params)) == first
            assert same != ((u, v) == (-1, 0)), (u, v)


def test_bound_enters_no_search(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("bound searched the cuts")

    monkeypatch.setattr(criterion, "_cuts", unreachable)
    monkeypatch.setattr(Word, "letters", unreachable)
    for u, v in _formula_members():
        for use in ("paper", "corrected"):
            assert minimal_integer_bound(TwistParams(u, v), use) == _formula_bound(u, v, use)


def test_bound_answers_a_huge_u_at_once(capsys):
    # b a b^-1000002 a b^1000000: 5 runs, 2,000,005 letters, 20 times the shape cap
    start = time.process_time()
    assert main(["bound", "--u", str(10**6), "--v", "0"]) == 0
    assert time.process_time() - start < 1
    assert capsys.readouterr() == (f"{_formula_bound(10**6, 0, 'paper')}\n", "")
    assert main(["bound", "--u", str(-10**6), "--v", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "not positive" in err


def _compared_runs(word: Word) -> int:
    """The length of the cyclic run list ``is_conjugate`` compares for ``word``."""
    return len(words._cyclic(word.cyclic_reduce()[0].runs))


def test_bound_counts_the_compared_runs_before_building(monkeypatch):
    # the relator's cyclic run list holds 8v + 4 runs, 8v + 2 at u = -1; bound
    # answers at a conjugacy limit of exactly that many and refuses one below
    for u in range(-1, 41):
        for v in range(31):
            params = TwistParams(u, v)
            model = closed_form(params)
            runs = _compared_runs(model.presentation.relators[0])
            assert runs == 8 * v + (2 if u == -1 else 4), (u, v)
            assert _compared_runs(criterion._family_witness(model).reconstruct()) == runs
            monkeypatch.setattr(criterion, "MAX_CONJUGATE_RUNS", runs)
            assert minimal_integer_bound(params) == _formula_bound(u, v, "paper")
            monkeypatch.setattr(criterion, "MAX_CONJUGATE_RUNS", runs - 1)
            with pytest.raises(CriterionError, match=f"v = {v} is too large"):
                minimal_integer_bound(params)


def test_bound_refuses_past_the_conjugacy_limit_before_building(monkeypatch, capsys):
    # 8 * 139264 + 2 > 1114111 = words.MAX_CONJUGATE_RUNS >= 8 * 139263 + 4
    def unreachable(params):
        raise AssertionError("bound built the closed form")

    monkeypatch.setattr(criterion, "closed_form", unreachable)
    monkeypatch.setattr(twisted_torus, "closed_form", unreachable)
    for u in (-1, 0, 7):
        assert main(["bound", "--u", str(u), "--v", "139264"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert "v = 139264 is too large" in err and "limit of 1114111" in err


def test_report_json_shape():
    report = check_family_slope(TwistParams(-1, 0), Slope(4, 1))
    data = report.to_json()
    assert data["bound_paper"] == 4
    assert data["bound_corrected"] == 2
    assert data["verdict"] == {"kind": "GuaranteedNonLO", "reason": None}
    assert data["shape"] is not None
    assert data["shape"]["m"] >= 0 and data["shape"]["k"] >= 0
    # the first shape in sort order is the one every report shows
    first = check_family_slope(TwistParams(2, 1), Slope(13, 1)).to_json()["shape"]
    assert (first["m"], first["n"], first["r"], first["k"]) == (1, 1, -3, 1)
    assert first["text"] == {"w1": "a^-1 b^-1", "w2": "b^-1 a^-1"}


def test_misspelled_longitude_selector_raises_everywhere():
    from twistknot.coset_enum import surgered_presentation

    params = TwistParams(1, 0)
    model = closed_form(params)
    for call in (
        lambda: model.longitude("Paper"),
        lambda: model.s_value("Paper"),
        lambda: check_family_slope(params, Slope(20, 1), "Paper"),
        lambda: minimal_integer_bound(params, "Paper"),
        lambda: surgered_presentation(model, Slope(20, 1), "Paper"),
    ):
        with pytest.raises(ValueError, match="longitude selector"):
            call()


def test_bounds_are_consistent_with_lspace_knots():
    # wherever an integer slope is certified, the member's Alexander
    # polynomial has the L-space pattern and the bound is at least deg Δ - 1
    # for both longitudes; tests/sweep_lspace.py run as a script checks the
    # whole box
    results = {m: check_member(*m) for m in sample(11, 40)}
    assert {m: failures for m, (failures, _) in results.items() if failures} == {}
    assert sum(margin is not None for _, margin in results.values()) >= 20
