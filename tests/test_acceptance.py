"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The parameter box is u in [-3, 3], v in [0, 4] (35 pairs) throughout.
"""

import random
import time

import pytest

from conftest import conjugate_relator, invert_relator, random_word
from twistknot.coset_enum import surgered_presentation, todd_coxeter
from twistknot.criterion import Slope, check_family_slope, match_it_shape, minimal_integer_bound
from twistknot.presentations import (
    Presentation,
    add_relators,
    alexander_polynomial,
    homology,
    tietze_eliminate,
)
from twistknot.twisted_torus import TwistParams, closed_form, derive_from_diagram, verify_proof
from twistknot.wirtinger import DELTA_ELIMINATIONS, builtin_link_L, wirtinger_presentation
from twistknot.words import Generator, Word, is_conjugate, word

SWEEP = [(u, v) for u in range(-3, 4) for v in range(0, 5)]


def _report(index: int, passed: bool, message: str) -> None:
    label = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {index} {label} - {message}")
    assert passed, message


def _w(text: str) -> Word:
    pairs = []
    for token in text.split():
        name, _, exp = token.partition("^")
        pairs.append((name, int(exp) if exp else 1))
    return word(*pairs)


@pytest.fixture(scope="module")
def sweep_models():
    return {(u, v): closed_form(TwistParams(u, v)) for u, v in SWEEP}


# -- criterion 1: fixture exactness -------------------------------------------


CROSSING_RELATORS = [
    _w("xi alpha delta1^-1 alpha^-1"),
    _w("delta1 beta delta2^-1 beta^-1"),
    _w("delta2 gamma xi^-1 gamma^-1"),
    _w("xi^-1 alpha xi gamma^-1"),
    _w("xi^-1 beta xi delta3^-1"),
    _w("xi^-1 gamma xi delta4^-1"),
    _w("delta5^-1 gamma delta3 gamma^-1"),
    _w("delta6^-1 gamma delta4 gamma^-1"),
    _w("psi delta5 delta7^-1 delta5^-1"),
    _w("delta7 delta6 psi^-1 delta6^-1"),
    _w("psi^-1 delta5 psi alpha^-1"),
    _w("psi^-1 delta6 psi beta^-1"),
]

SIMPLIFIED_RELATORS = [
    _w("xi^-1 gamma^-1 beta^-1 alpha^-1 xi alpha beta gamma"),
    _w("xi^-1 alpha xi gamma^-1"),
    _w("psi^-1 gamma xi^-1 beta xi gamma^-1 psi alpha^-1"),
    _w("psi^-1 gamma xi^-1 gamma xi gamma^-1 psi beta^-1"),
    _w("psi^-1 beta^-1 alpha^-1 psi alpha beta"),
]


def test_criterion_1_fixture_exactness():
    started = time.monotonic()
    p = wirtinger_presentation(builtin_link_L())
    verbatim = list(p.relators) == CROSSING_RELATORS
    for name, defining in DELTA_ELIMINATIONS:
        p = tietze_eliminate(p, Generator(name), defining)
    matched = set()
    for rel in p.relators:
        for i, target in enumerate(SIMPLIFIED_RELATORS):
            if i not in matched and (
                is_conjugate(rel, target) or is_conjugate(rel, target.inverse())
            ):
                matched.add(i)
                break
    elapsed = time.monotonic() - started
    ok = verbatim and len(p.relators) == 5 and matched == set(range(5)) and elapsed < 1.0
    _report(
        1,
        ok,
        "twelve crossing relators verbatim; five-relator reduction matches the "
        f"simplified link group list up to conjugacy/inversion ({elapsed:.2f}s)",
    )


# -- criterion 2: derivation pipeline equals the closed form -------------------


def test_criterion_2_pipeline_equivalence(sweep_models):
    started = time.monotonic()
    ok = True
    for (u, v), closed in sweep_models.items():
        derived = derive_from_diagram(TwistParams(u, v))
        rel_c = closed.presentation.relators[0]
        rel_d = derived.presentation.relators[0]
        if not (is_conjugate(rel_d, rel_c) or is_conjugate(rel_d, rel_c.inverse())):
            ok = False
        if derived.longitude_precorrection != closed.longitude_precorrection:
            ok = False
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    _report(
        2,
        ok,
        f"35 parameter pairs: derived relator conjugate (up to inversion) to the "
        f"closed form and pre-correction longitudes equal ({elapsed:.2f}s)",
    )


# -- criterion 3: proof-step verification --------------------------------------


def test_criterion_3_proof_steps():
    ok = True
    for u, v in SWEEP:
        report = verify_proof(TwistParams(u, v))
        if not all(c.passed for c in report.checks[:8]):
            ok = False
        last = report.check(9)
        if last.details["measured_class"] != 2 * u:
            ok = False
        if last.passed != (u == 0):
            ok = False
    _report(
        3,
        ok,
        "checks 1-8 pass on all 35 pairs; check 9 measures longitude class "
        "exactly 2u (0 at u=0, -2 at u=-1)",
    )


# -- criterion 4: homology ------------------------------------------------------


def test_criterion_4_homology(sweep_models):
    ok = True
    for (u, v), closed in sweep_models.items():
        summary = homology(closed.presentation)
        if summary.free_rank != 1 or summary.torsion_orders:
            ok = False
        for p in range(-7, 8):
            if p == 0:
                continue
            filled = surgered_presentation(closed, Slope(p, 1), "corrected")
            filled_summary = homology(filled)
            if filled_summary.free_rank != 0:
                ok = False
            if filled_summary.torsion_order_product != abs(p):
                ok = False
    _report(
        4,
        ok,
        "all 35 members have H1 = Z; corrected-longitude p/1 fillings have "
        "|H1| = |p| for p in -7..7",
    )


# -- criterion 5: bound reproduction --------------------------------------------


def test_criterion_5_bounds():
    ok = True
    for v in range(0, 11):
        if minimal_integer_bound(TwistParams(-1, v), "paper") != 3 * (3 * v + 2) - 2:
            ok = False
    for s in (0, 1, 2, 3):
        for v in range(0, 5):
            if minimal_integer_bound(TwistParams(s, v), "paper") != 3 * (3 * v + 2) + 2 * s:
                ok = False
    for u in range(-1, 4):
        for v in range(0, 5):
            paper = minimal_integer_bound(TwistParams(u, v), "paper")
            corrected = minimal_integer_bound(TwistParams(u, v), "corrected")
            if paper - corrected != -2 * u:
                ok = False
    _report(
        5,
        ok,
        "smallest certified slope: 3(3v+2)-2 at u=-1 (v=0..10), 3(3v+2)+2s at "
        "u=s in 0..3; corrected bound differs by exactly -2u",
    )


# -- criterion 6: positivity gate ------------------------------------------------


def test_criterion_6_positivity_gate():
    ok = True
    for u in (-3, -2):
        for v in range(0, 5):
            report = check_family_slope(TwistParams(u, v), Slope(1000, 1))
            if report.verdict.kind != "NotApplicable" or report.verdict.reason != "w not positive":
                ok = False
    for u in range(-1, 4):
        for v in range(0, 5):
            report = check_family_slope(TwistParams(u, v), Slope(1000, 1))
            if not report.w_positive_blocks:
                ok = False
            if report.verdict.kind != "GuaranteedNonLO":
                ok = False
    _report(
        6,
        ok,
        "u <= -2 gives NotApplicable('w not positive'); u >= -1 gives a positive "
        "w and certified large slopes",
    )


# -- criterion 7: coset-enumeration oracle ---------------------------------------


def test_criterion_7_oracle_finiteness():
    started = time.monotonic()
    model = closed_form(TwistParams(0, 0))
    budget = 10**6
    results = {
        p: todd_coxeter(surgered_presentation(model, Slope(p, 1), "paper"), budget)
        for p in (5, -5)
    }
    finished = [p for p, res in results.items() if res.finished]
    ok = len(finished) == 1 and results[finished[0]].order == 5
    lens_sign = finished[0] // 5 if finished else 0
    if ok:
        poincare = todd_coxeter(
            surgered_presentation(model, Slope(lens_sign, 1), "paper"), budget
        )
        ok = poincare.finished and poincare.order == 120
        opposite = results[-5 * lens_sign]
        ok = ok and opposite.outcome == "exceeded" and opposite.limit == budget
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    chirality = "positive" if lens_sign == 1 else "negative"
    _report(
        7,
        ok,
        f"(0,0) member: {lens_sign * 5}/1 fills to order 5, {lens_sign}/1 to order "
        f"120, {-lens_sign * 5}/1 exceeds 10^6; lens slopes on the {chirality} side "
        f"({elapsed:.1f}s)",
    )


# -- criterion 8: Alexander polynomial consistency --------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coeff = num[shift + len(den) - 1]
        assert coeff % den[-1] == 0
        q = coeff // den[-1]
        out[shift] = q
        for i, d in enumerate(den):
            num[shift + i] -= q * d
    assert all(c == 0 for c in num)
    return out


def _x_power_minus_one(n: int) -> list[int]:
    coeffs = [0] * (n + 1)
    coeffs[0] = -1
    coeffs[n] = 1
    return coeffs


def _torus_alexander(p: int, q: int) -> list[int]:
    num = _poly_mul(_x_power_minus_one(p * q), _x_power_minus_one(1))
    den = _poly_mul(_x_power_minus_one(p), _x_power_minus_one(q))
    return _poly_divexact(num, den)


def test_criterion_8_alexander():
    ok = True
    for v in range(0, 4):
        model = closed_form(TwistParams(0, v))
        computed = alexander_polynomial(model.presentation)
        expected = _torus_alexander(3, 3 * v + 2)
        dense = [computed.coeffs.get(e, 0) for e in range(len(expected))]
        if dense != expected or min(computed.coeffs) != 0:
            ok = False
    _report(
        8,
        ok,
        "u=0 members match the torus-knot Alexander polynomial for "
        "T(3, 3v+2), v=0..3, up to the unit normalization",
    )


# -- criterion 9: randomized property suites --------------------------------------


def _axiom_suite() -> bool:
    rng = random.Random(20240809)
    gens = (Generator("a"), Generator("b"), Generator("c"))
    targets = (Generator("x"), Generator("y"))
    for _ in range(10_000):
        x = random_word(rng, gens, 10)
        y = random_word(rng, gens, 10)
        if Word(x.runs) != x:
            return False
        if not (x * x.inverse()).is_identity:
            return False
        if x.inverse().inverse() != x:
            return False
        mapping = {g: random_word(rng, targets, 4) for g in gens}
        if (x * y).substitute(mapping) != x.substitute(mapping) * y.substitute(mapping):
            return False
        g = rng.choice(gens)
        if (x * y).exponent_sum(g) != x.exponent_sum(g) + y.exponent_sum(g):
            return False
    return True


def _tietze_suite() -> bool:
    rng = random.Random(1729)
    gens = (Generator("a"), Generator("b"), Generator("c"))
    for _ in range(1000):
        relators = tuple(random_word(rng, gens, 5) for _ in range(rng.randrange(1, 4)))
        p = Presentation(gens, relators)
        reference = homology(p)
        fresh_count = 0
        for _ in range(4):
            move = rng.randrange(4)
            if move == 0 and p.relators:
                p = conjugate_relator(p, rng.randrange(len(p.relators)), random_word(rng, p.generators, 3))
            elif move == 1 and p.relators:
                p = invert_relator(p, rng.randrange(len(p.relators)))
            elif move == 2 and p.relators:
                extra = rng.choice(p.relators).conjugate(random_word(rng, p.generators, 3))
                p = add_relators(p, [extra * rng.choice(p.relators)])
            else:
                fresh = Generator(f"t{fresh_count}")
                fresh_count += 1
                defining = random_word(rng, p.generators, 3)
                p = Presentation(
                    p.generators + (fresh,),
                    p.relators + (Word(((fresh, 1),)) * defining.inverse(),),
                )
            if homology(p) != reference:
                return False
    return True


def _shape_invariance_suite(sweep_models) -> bool:
    rng = random.Random(7)
    a, b = Generator("a"), Generator("b")
    for (u, v), closed in sweep_models.items():
        base = closed.presentation
        reference = {
            (s.a.name, s.m, s.n, s.r, s.k, s.w1.as_text(), s.w2.as_text())
            for s in match_it_shape(base)
        }
        variants = [
            conjugate_relator(base, 0, random_word(rng, (a, b), 4)),
            invert_relator(base, 0),
            invert_relator(conjugate_relator(base, 0, random_word(rng, (a, b), 4)), 0),
        ]
        for variant in variants:
            got = {
                (s.a.name, s.m, s.n, s.r, s.k, s.w1.as_text(), s.w2.as_text())
                for s in match_it_shape(variant)
            }
            if got != reference:
                return False
    return True


def test_criterion_9_property_suites(sweep_models):
    started = time.monotonic()
    axioms = _axiom_suite()
    tietze = _tietze_suite()
    shapes = _shape_invariance_suite(sweep_models)
    elapsed = time.monotonic() - started
    ok = axioms and tietze and shapes and elapsed < 30.0
    _report(
        9,
        ok,
        f"free-group axioms on 10^4 words, homology invariance on 10^3 move "
        f"sequences, shape-match invariance on all 35 relators ({elapsed:.1f}s)",
    )
