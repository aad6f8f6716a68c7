import gc
import itertools
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from conftest import twisted_torus_braid
from sweep_derivation import check_member, sample
import twistknot
from twistknot import twisted_torus, words
from twistknot.cli import main
from twistknot.presentations import (
    Presentation,
    PresentationError,
    alexander_polynomial,
    class_in_h1,
    homology,
)
from twistknot.twisted_torus import (
    PipelineError,
    SubstitutionChain,
    TwistParams,
    _link_prefix,
    closed_form,
    derive_from_diagram,
    derive_intermediates,
    relator_template,
    s_paper_value,
    substitution_chain,
    verify_proof,
    w_template,
)
from twistknot.wirtinger import add_twist_relations
from twistknot.words import Word, is_conjugate, is_positive_excluding, word


def test_params_validation():
    TwistParams(-5, 0)
    with pytest.raises(ValueError, match="v must be"):
        TwistParams(0, -1)
    for u, v in ((0.5, 0), (0, 1.0), (True, 0), (0, "1")):
        with pytest.raises(ValueError, match="must be integers"):
            TwistParams(u, v)


def test_closed_form_trefoil():
    m = closed_form(TwistParams(0, 0))
    assert m.presentation.relators[0].as_text() == "b a b^-2 a"
    assert m.s_paper == 7
    assert m.s_corrected == 7
    assert m.longitude_paper.as_text() == "a^-7 b^3 a"
    assert m.w == word(("b", 3))
    assert m.meridian == word(("a", 1))
    assert m.t == -1


def test_closed_form_negative_twist():
    m = closed_form(TwistParams(-1, 0))
    assert m.presentation.relators[0].as_text() == "b a b^-1 a b^-1"
    assert m.s_paper == 5
    assert m.s_corrected == 3
    assert m.longitude_paper == word(("a", -5), ("b", 1), ("a", 1))
    assert class_in_h1(m.presentation, m.longitude_paper) == (-2,)


def test_closed_form_positive_twist():
    m = closed_form(TwistParams(1, 0))
    assert m.presentation.relators[0].as_text() == "b a b^-3 a b"
    assert m.s_paper == 9
    assert m.s_corrected == 11


def test_substitution_chain_inverts():
    for u, v in [(0, 0), (-1, 0), (2, 1), (-3, 4), (3, 2)]:
        substitution_chain(TwistParams(u, v)).validate()


def test_derive_matches_closed_form_spot_checks():
    for u, v in [(0, 0), (-1, 0), (2, 3)]:
        derived = derive_from_diagram(TwistParams(u, v))
        closed = closed_form(TwistParams(u, v))
        rel_d = derived.presentation.relators[0]
        rel_c = closed.presentation.relators[0]
        assert is_conjugate(rel_d, rel_c) or is_conjugate(rel_d, rel_c.inverse())
        assert derived.longitude_precorrection == closed.longitude_precorrection
        assert derived.longitude_paper == closed.longitude_paper
        assert derived.s_paper == closed.s_paper
        assert derived.s_corrected == closed.s_corrected


def test_wide_derivation_sample():
    # the four corners of u in [-200, 200] x v in [0, 150] plus 60 seeded
    # members; tests/sweep_derivation.py run as a script checks the whole box
    bad = {m: f for m in sample(6, 60) if (f := check_member(*m))}
    assert not bad


def test_derived_twist_residue():
    # the verbatim second twist relator maps to (h^-v g)^(2u), not the identity
    g = word(("g", 1))
    h = word(("h", 1))
    for u, v in [(0, 0), (1, 0), (2, 1), (-1, 2)]:
        derived = derive_from_diagram(TwistParams(u, v))
        expected = (h**-v * g) ** (2 * u)
        assert derived.twist_residue == expected


def test_verify_proof_all_checks_at_origin():
    report = verify_proof(TwistParams(0, 0))
    assert len(report.checks) == 9
    assert report.all_passed


@pytest.mark.parametrize("u,v,klass", [(-1, 2, -2), (3, 1, 6)])
def test_verify_proof_nullhomology_discrepancy(u, v, klass):
    report = verify_proof(TwistParams(u, v))
    for check in report.checks[:8]:
        assert check.passed, check.name
    last = report.check(9)
    assert not last.passed
    assert last.details["measured_class"] == klass


def test_longitude_class_is_twice_u():
    a = word(("a", 1))
    for u in range(-3, 4):
        for v in range(0, 3):
            m = closed_form(TwistParams(u, v))
            # each longitude reads a^-s w a^-t with the reported s, t and w
            for use in ("paper", "corrected"):
                assert m.longitude(use) == a ** -m.s_value(use) * m.w * a ** -m.t
            assert class_in_h1(m.presentation, m.longitude_paper) == (2 * u,)
            assert class_in_h1(m.presentation, m.longitude_corrected) == (0,)
            assert m.s_corrected - m.s_paper == 2 * u


def test_family_homology_is_infinite_cyclic():
    for u in (-2, 0, 3):
        for v in (0, 2):
            m = closed_form(TwistParams(u, v))
            summary = homology(m.presentation)
            assert summary.free_rank == 1
            assert summary.torsion_orders == ()
            assert class_in_h1(m.presentation, m.meridian) == (1,)


def test_s_paper_formula():
    for u in range(-3, 4):
        for v in range(0, 5):
            assert s_paper_value(TwistParams(u, v)) == 2 * u + 3 * (3 * v + 2) + 1


def test_block_positivity_vs_reduced_positivity():
    # the block form of w carries an inverse letter iff u <= -2; for u = -2 and
    # v >= 1 free reduction cancels it, so the reduced word alone is a weaker gate
    gens = {word(("a", 1)).runs[0][0], word(("b", 1)).runs[0][0]}
    m = closed_form(TwistParams(-2, 1))
    assert not m.w_blocks_positive
    assert is_positive_excluding(m.w, gens)
    assert m.w == word(("b", 1), ("a", 3), ("b", 1))
    m0 = closed_form(TwistParams(-2, 0))
    assert not m0.w_blocks_positive
    assert not is_positive_excluding(m0.w, gens)
    for u in (-1, 0, 2):
        mm = closed_form(TwistParams(u, 3))
        assert mm.w_blocks_positive
        assert is_positive_excluding(mm.w, gens)


def test_alexander_polynomial_is_symmetric_with_unit_value():
    # every knot's Delta satisfies Delta(t^-1) = Delta(t) up to a unit and
    # Delta(1) = +-1; neither fact depends on the paper's formulas
    for u in range(-12, 13):
        for v in range(0, 6):
            coeffs = alexander_polynomial(closed_form(TwistParams(u, v)).presentation).coeffs
            top = max(coeffs)
            assert coeffs == {top - e: c for e, c in coeffs.items()}, (u, v)
            assert abs(sum(coeffs.values())) == 1, (u, v)


def test_derived_alexander_polynomial_matches_closed_form():
    for u in range(-3, 4):
        for v in range(0, 5):
            params = TwistParams(u, v)
            derived = alexander_polynomial(derive_from_diagram(params).presentation)
            assert derived == alexander_polynomial(closed_form(params).presentation), (u, v)


def test_unknot_member():
    # b a b^-1 a b^-1 = b (a b^-1)^2, so with x = a b^-1 the group is free on x
    from twistknot.presentations import LaurentPolynomial, alexander_polynomial

    m = closed_form(TwistParams(-1, 0))
    assert alexander_polynomial(m.presentation) == LaurentPolynomial({0: 1})


def test_pipeline_error_carries_stage():
    from twistknot.twisted_torus import PipelineError

    err = PipelineError("eliminate-deltas", "details")
    assert err.stage == "eliminate-deltas"
    assert str(err) == "[eliminate-deltas] details"


def test_relator_and_w_templates_reduce():
    params = TwistParams(-1, 0)
    assert relator_template(params) == word(("b", 1), ("a", 1), ("b", -1), ("a", 1), ("b", -1))
    assert w_template(params) == word(("b", 1))
    assert w_template(TwistParams(-1, 1)) == word(("b", 1), ("a", 1)) ** 3 * word(("b", 1))


def test_link_prefix_is_not_computed_at_import():
    # the command line imports every module; none may start the derivation
    code = "import twistknot.cli, twistknot.twisted_torus as t; print(t._link_prefix.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(twistknot.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def test_link_prefix_is_computed_once():
    derive_from_diagram(TwistParams(0, 0))
    before = _link_prefix.cache_info()
    params = TwistParams(1, 2)
    derive_from_diagram(params)
    verify_proof(params)
    after = _link_prefix.cache_info()
    assert after.misses == before.misses
    # the params object keeps the shared derivation, so verify_proof reads it
    assert after.hits == before.hits + 1


def test_params_keep_the_shared_derivation_once(monkeypatch):
    # one params object: derive_from_diagram then verify_proof build the
    # shared part once; an equal but distinct object builds its own
    real = twisted_torus.substitution_chain
    built = []

    def counted(params):
        built.append(params)
        return real(params)

    monkeypatch.setattr(twisted_torus, "substitution_chain", counted)
    params, twin = TwistParams(3, 2), TwistParams(3, 2)
    derive_from_diagram(params)
    verify_proof(params)
    assert built == [params] and built[0] is params
    derive_from_diagram(twin)
    assert len(built) == 2 and built[1] is twin


def test_kept_derivation_is_no_field():
    params, fresh = TwistParams(-4, 3), TwistParams(-4, 3)
    before = (params == fresh, hash(params), repr(params), params.to_json())
    assert "_shared" not in vars(params)
    model = derive_from_diagram(params)
    assert "_shared" in vars(params)
    assert (params == fresh, hash(params), repr(params), params.to_json()) == before
    assert model == derive_from_diagram(fresh)
    assert model.to_json() == derive_from_diagram(TwistParams(-4, 3)).to_json()


def test_kept_maps_are_read_only():
    params = TwistParams(2, 1)
    d = derive_intermediates(params)
    _, chain, composite, *_ = params._shared
    assert chain is d.chain
    maps = [composite, *(getattr(chain, field) for field in chain._fields)]
    for mapping in maps:
        with pytest.raises(TypeError):
            mapping["alpha"] = word(("a", 1))
    expected = verify_proof(TwistParams(2, 1))
    assert verify_proof(params) == expected


def test_a_refused_member_keeps_nothing(monkeypatch):
    # a word-cap refusal raises again on the second call, and a stage that
    # fails once and then holds builds the derivation afresh
    monkeypatch.setattr(words, "MAX_WORD_RUNS", 60)
    params = TwistParams(0, 40)
    for _ in range(2):
        with pytest.raises(ValueError, match="word too long"):
            verify_proof(params)
        assert "_shared" not in vars(params)
    monkeypatch.undo()
    params = TwistParams(1, 1)
    _link_prefix.cache_clear()
    monkeypatch.setattr(twisted_torus, "tietze_eliminate", _refuse)
    try:
        for _ in range(2):
            with pytest.raises(PipelineError, match=r"^\[eliminate-deltas\] injected$"):
                derive_from_diagram(params)
            assert "_shared" not in vars(params)
    finally:
        _link_prefix.cache_clear()
    monkeypatch.undo()
    assert derive_from_diagram(params) == derive_from_diagram(TwistParams(1, 1))


def test_kept_derivation_goes_with_its_params():
    params = TwistParams(5, 3)
    derive_from_diagram(params)
    verify_proof(params)
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None


def test_model_and_proof_read_one_derivation():
    # the oracle is the stage-by-stage path: stage 2 applied run by run to
    # the stage-1 words; the derivation applies the two stages as one map
    _, l0 = _link_prefix()
    g, h = word(("g", 1)), word(("h", 1))
    for u, v in itertools.product((-40, -12, -2, 0, 3, 37), (0, 1, 2, 9, 30)):
        params = TwistParams(u, v)
        d = derive_intermediates(params)
        model = derive_from_diagram(params)
        report = verify_proof(params)
        phi1, phi2 = d.chain.stage1_backward, d.chain.stage2_backward
        composite = twisted_torus._stage1_backward(params, phi2["g"], phi2["h"])
        assert composite == {x: image.substitute(phi2) for x, image in phi1.items()}
        assert d.relator_ab == d.relator_gh.substitute(phi2)
        assert d.long_ab == l0.substitute(phi1).substitute(phi2)
        assert d.meridian_ab == phi1["alpha"].substitute(phi2)
        hvg = h ** (-v) * g
        second_form = h ** (v + 1) * g.inverse() * hvg ** (-u) * g ** (-2) * h ** (2 * v + 1) * hvg**u
        assert report.check(6).details["final"] == second_form.substitute(phi2)
        assert model.presentation.relators == (d.relator_ab,)
        assert model.longitude_precorrection == d.long_ab
        assert model.longitude_paper == d.longitude_paper
        assert model.twist_residue == d.images[6]
        assert report.check(7).details["longitude"] == d.long_ab
        assert report.check(8).details["replayed"] == d.longitude_paper
        assert report.check(9).details["measured_class"] == 2 * u


def test_derivation_cost_follows_its_output_runs():
    # stage 2 applied run by run to the g, h words costs about u * v: 34 s of
    # CPU at (3000, 3000) on a shared 2-vCPU host, for words of O(u + v) runs
    params = TwistParams(3000, 3000)
    start = time.process_time()
    derive_from_diagram(params)
    verify_proof(params)
    assert time.process_time() - start < 5


def test_twist_filling_images_equal_the_substituted_relators():
    # the reference is the stored relator substituted run by run
    prefix, _ = _link_prefix()
    members = list(itertools.product(range(-40, 41), range(13)))
    for u, v in members + [(20000, 0), (-20000, 0), (3, 5000)]:
        d = derive_intermediates(TwistParams(u, v))
        phi1 = d.chain.stage1_backward
        stored = add_twist_relations(prefix, u, v).relators[5:]
        assert d.images[5:] == tuple(rel.substitute(phi1) for rel in stored), (u, v)


def test_derivation_maps_a_twist_filling_through_its_base(monkeypatch):
    # at (10^5, 0) the stored lower twist relator psi (alpha beta)^u holds
    # 200,001 runs; the derivation substitutes no word of more than 8 runs
    _link_prefix()
    real = Word.substitute

    def short_only(self, mapping):
        if len(self.runs) > 8:
            raise AssertionError(f"substituted a word of {len(self.runs)} runs")
        return real(self, mapping)

    monkeypatch.setattr(Word, "substitute", short_only)
    params = TwistParams(10**5, 0)
    model = derive_from_diagram(params)
    assert all(check.passed for check in verify_proof(params).checks[:8])
    derived, stated = model.presentation.relators[0], closed_form(params).presentation.relators[0]
    assert is_conjugate(derived, stated) or is_conjugate(derived, stated.inverse())


def test_link_prefix_is_pinned():
    # the delta arcs are eliminated once, in the prefix; l0's over-arcs are
    # xi, gamma and psi, so its longitude reads the same before and after
    p, l0 = _link_prefix()
    assert p.generators == ("alpha", "beta", "gamma", "xi", "psi")
    assert [r.as_text() for r in p.relators] == [
        "alpha^-1 xi alpha beta gamma xi^-1 gamma^-1 beta^-1",
        "xi^-1 alpha xi gamma^-1",
        "psi alpha^-1 psi^-1 gamma xi^-1 beta xi gamma^-1",
        "psi beta^-1 psi^-1 gamma xi^-1 gamma xi gamma^-1",
        "psi alpha^-1 psi alpha beta psi^-1 beta^-1 psi^-1",
    ]
    assert l0.as_text() == "xi^2 gamma^-1 psi xi gamma^-1 psi"


def _refuse(*args):
    raise PresentationError("injected")


def _replace_link_relator(index, by):
    """A ``_link_prefix`` whose presentation has link relator ``index``
    replaced by ``by(relators)``."""
    real = twisted_torus._link_prefix

    def patched():
        prefix, l0 = real()
        relators = list(prefix.relators)
        relators[index] = by(prefix.relators)
        return Presentation(prefix.generators, tuple(relators)), l0

    return patched


def _chain_with_wrong_stage2_forward(params):
    chain = substitution_chain(params)
    wrong = {**chain.stage2_forward, "b": word(("g", 1))}
    return SubstitutionChain(chain.stage1_forward, chain.stage1_backward, wrong, chain.stage2_backward)


def _meridian_not_conjugate(x, y):
    return is_conjugate(x, y) and y != word(("a", 1))


@pytest.mark.parametrize(
    "name, replacement, stage, message",
    [
        ("tietze_eliminate", _refuse, "eliminate-deltas", "injected"),
        (
            "substitution_chain",
            _chain_with_wrong_stage2_forward,
            "change-generators",
            "stage 2 does not invert on b: b a b",
        ),
        (
            "_link_prefix",
            _replace_link_relator(0, lambda rels: word(("alpha", 1))),
            "change-generators",
            "relator 1 should map to the identity, got h^2 g^-1",
        ),
        (
            "_link_prefix",
            _replace_link_relator(3, lambda rels: rels[2]),
            "change-generators",
            "surviving relators are not inverse-equivalent",
        ),
        ("is_conjugate", _meridian_not_conjugate, "two-generator", "meridian image is not conjugate to a"),
        ("h1_classes", lambda p: lambda w: (1,), "longitude", "corrected longitude has class 1, not 0"),
    ],
)
def test_derivation_fails_at_the_named_stage(monkeypatch, capsys, name, replacement, stage, message):
    # the prefix is cached: clear it so the fault is met, and again so no
    # later test reads a prefix built while it was in place
    _link_prefix.cache_clear()
    monkeypatch.setattr(twisted_torus, name, replacement)
    try:
        with pytest.raises(PipelineError) as err:
            derive_from_diagram(TwistParams(1, 1))
        assert err.value.stage == stage
        assert str(err.value) == f"[{stage}] {message}"
        assert main(["generate", "--u", "1", "--v", "1", "--mode", "derive"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"twisted_torus: [{stage}] {message}\n")
    finally:
        _link_prefix.cache_clear()


def test_derivation_builds_no_twist_relator(monkeypatch):
    # the twist fillings come from twist_fillings, so add_twist_relations,
    # the reference of the filling images, may fail without effect
    # each pass builds its own params, so no derivation is kept across the patch
    def replayed():
        params = [TwistParams(u, v) for u, v in ((1, 1), (-3, 0), (0, 2))]
        return [(derive_from_diagram(p), verify_proof(p)) for p in params]

    expected = replayed()
    for module in (twisted_torus, twistknot.wirtinger, twistknot):
        monkeypatch.setattr(module, "add_twist_relations", _refuse, raising=False)
    assert replayed() == expected


def test_proof_builds_no_twist_image_and_no_ab_relator(monkeypatch):
    # no check reads the twist fillings' images or the a, b relator, so the
    # replay builds neither: twist_fillings may fail, and no link relator is
    # substituted into a, b words; each pass builds its own params, so no
    # derivation is kept across the patch
    members = ((1, 1), (-3, 0), (0, 2), (40, 7))
    expected = [verify_proof(TwistParams(u, v)) for u, v in members]
    prefix, _ = _link_prefix()
    real = Word.substitute
    into_ab = []

    def watched(self, mapping):
        image = real(self, mapping)
        if self in prefix.relators and {"a", "b"} & {g.name for g in image.generator_set()}:
            into_ab.append(self)
        return image

    monkeypatch.setattr(twisted_torus, "twist_fillings", _refuse)
    monkeypatch.setattr(Word, "substitute", watched)
    assert [verify_proof(TwistParams(u, v)) for u, v in members] == expected
    assert into_ab == []
    with pytest.raises(PresentationError, match="injected"):
        derive_from_diagram(TwistParams(1, 1))


# -- the braid closure: Alexander polynomial by reduced Burau ----------------
# polynomials in t are lists of integer coefficients, lowest power first


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_add(p: list[int], q: list[int]) -> list[int]:
    return [sum(c[i] for c in (p, q) if i < len(c)) for i in range(max(len(p), len(q)))]


# the reduced Burau matrices of s1 and s2 in B_3, and t times those of their inverses
_BURAU = {
    1: [[[0, -1], [1]], [[0], [1]]],
    2: [[[1], [0]], [[0, 1], [0, -1]]],
    -1: [[[-1], [1]], [[0], [0, 1]]],
    -2: [[[0, 1], [0]], [[0, 1], [-1]]],
}


def _burau_alexander(braid: list[int]) -> list[int]:
    """det(I - rho(braid)) (1 - t) / (1 - t^3), the Alexander polynomial of the
    closure of a 3-braid up to a unit, with its unit stripped."""
    # rho(braid) = t^-k m, where k counts the inverse letters
    m = [[[1], [0]], [[0], [1]]]
    for letter in braid:
        g = _BURAU[letter]
        m = [[_poly_add(_poly_mul(m[i][0], g[0][j]), _poly_mul(m[i][1], g[1][j]))
              for j in range(2)] for i in range(2)]
    shift = [0] * sum(letter < 0 for letter in braid) + [1]
    d = [[_poly_add(shift if i == j else [0], [-c for c in m[i][j]]) for j in range(2)]
         for i in range(2)]
    det = _poly_add(_poly_mul(d[0][0], d[1][1]), [-c for c in _poly_mul(d[0][1], d[1][0])])
    # divide by 1 + t + t^2 from the lowest power up
    quotient = []
    for i in range(len(det) - 2):
        quotient.append(det[i])
        det[i + 1] -= det[i]
        det[i + 2] -= det[i]
    assert not any(det[-2:]), braid
    return _unit_free(quotient)


def _unit_free(coeffs: list[int]) -> list[int]:
    """The coefficients between the lowest and the highest nonzero one, the
    lowest made positive."""
    nonzero = [i for i, c in enumerate(coeffs) if c]
    core = coeffs[nonzero[0] : nonzero[-1] + 1]
    return core if core[0] > 0 else [-c for c in core]


def test_alexander_matches_the_burau_closure_of_the_family_braid():
    # an oracle that shares nothing with the surgery description, the built-in
    # link or the closed form; the mirror twist s1^(-2u) is another knot unless
    # u = 0, so the oracle also tells the twist's handedness
    for u in range(-6, 7):
        for v in range(0, 4):
            ours = alexander_polynomial(closed_form(TwistParams(u, v)).presentation).coeffs
            dense = _unit_free([ours.get(e, 0) for e in range(min(ours), max(ours) + 1)])
            assert _burau_alexander(twisted_torus_braid(u, v)) == dense, (u, v)
            assert (_burau_alexander(twisted_torus_braid(-u, v)) == dense) == (u == 0), (u, v)
