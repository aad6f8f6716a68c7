"""Cross-checks against an independent computer algebra system.

These tests compare word arithmetic, conjugacy, coset enumeration, Smith
normal forms and polynomial arithmetic against sympy, which implements all of
them separately.  The Alexander polynomial is also checked against the
reduced Burau representation of the family's braid closure, on plain integer
lists.
They are skipped when sympy is unavailable.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.fp_groups import FpGroup
from sympy.combinatorics.free_groups import free_group
from sympy.matrices.normalforms import invariant_factors

from conftest import random_nonempty_word, random_word, sparse_matrix
from twistknot.coset_enum import surgered_presentation, todd_coxeter
from twistknot.criterion import Slope
from twistknot.presentations import Presentation, alexander_polynomial, smith_normal_form
from twistknot.twisted_torus import TwistParams, closed_form
from twistknot.words import Generator, Word, is_conjugate, word

F, SA, SB = free_group("a b")
GENS = (Generator("a"), Generator("b"))
TO_SYMPY = {Generator("a"): SA, Generator("b"): SB}


def _to_sympy(w: Word):
    out = F.identity
    for gen, exp in w.runs:
        out = out * TO_SYMPY[gen] ** exp
    return out


def _from_sympy(element) -> Word:
    return Word((Generator(str(sym)), int(exp)) for sym, exp in element.array_form)


def test_reduction_matches_sympy():
    rng = random.Random(404)
    for _ in range(300):
        x = random_word(rng, GENS, 14)
        y = random_word(rng, GENS, 14)
        assert _from_sympy(_to_sympy(x) * _to_sympy(y)) == x * y
        assert _from_sympy(_to_sympy(x) ** -1) == x.inverse()
        assert _from_sympy(_to_sympy(x) ** 3) == x**3


def test_conjugacy_matches_sympy():
    # sympy's is_cyclic_conjugate length-checks before reducing, so feed it
    # the cyclic reductions; conjugacy is rotation equality of those
    rng = random.Random(405)
    for _ in range(200):
        x = random_word(rng, GENS, 8)
        if rng.random() < 0.5:
            y = x.conjugate(random_word(rng, GENS, 6))
        else:
            y = random_word(rng, GENS, 8)
        rx = _to_sympy(x).identity_cyclic_reduction()
        ry = _to_sympy(y).identity_cyclic_reduction()
        if rx.is_identity or ry.is_identity:
            theirs = rx == ry
        else:
            theirs = rx.is_cyclic_conjugate(ry)
        assert is_conjugate(x, y) == theirs


def _sympy_order(relators) -> int:
    return int(FpGroup(F, [_to_sympy(r) for r in relators]).order())


def test_enumeration_orders_match_sympy():
    a, b = GENS
    ab = word(("a", 1), ("b", 1))
    presentations = [
        Presentation((a,), (word(("a", 7)),)),
        Presentation((a, b), (word(("a", 2)), word(("b", 3)), ab**2)),
        Presentation(
            (a, b),
            (
                word(("a", 4)),
                word(("a", 2), ("b", -2)),
                word(("b", -1), ("a", 1), ("b", 1), ("a", 1)),
            ),
        ),
    ]
    for p in presentations:
        ours = todd_coxeter(p, 100_000)
        assert ours.finished
        if len(p.generators) == 1:
            theirs = int(FpGroup(free_group("a")[0], [free_group("a")[1] ** 7]).order())
        else:
            theirs = _sympy_order(p.relators)
        assert ours.order == theirs


def test_surgery_orders_match_sympy():
    model = closed_form(TwistParams(0, 0))
    for num, expected in ((5, 5), (1, 120)):
        p = surgered_presentation(model, Slope(num, 1), "paper")
        ours = todd_coxeter(p, 100_000)
        assert ours.finished and ours.order == expected
        assert _sympy_order(p.relators) == expected


# (k, l, m) with 1/k + 1/l + 1/m > 1, the degree, and permutations a, b with
# a^k = b^l = (ab)^m = 1 that generate a group as large as the triangle group
# <a, b | a^k, b^l, (ab)^m>, so by von Dyck they represent it faithfully
TRIANGLES = {
    (2, 2, 2): (4, [[0, 1], [2, 3]], [[0, 2], [1, 3]], 4),
    (2, 2, 3): (3, [[0, 1]], [[1, 2]], 6),
    (2, 2, 5): (5, [[1, 4], [2, 3]], [[0, 1], [2, 4]], 10),
    (2, 3, 3): (4, [[0, 1], [2, 3]], [[0, 1, 2]], 12),
    (2, 3, 4): (4, [[0, 1]], [[1, 2, 3]], 24),
    (2, 3, 5): (5, [[0, 1], [2, 3]], [[0, 2, 4]], 60),
    (3, 2, 4): (4, [[1, 2, 3]], [[0, 1]], 24),
    (5, 3, 2): (5, [[0, 1, 2, 3, 4]], [[0, 3, 1]], 60),
}


def test_random_finite_quotient_orders_match_sympy():
    # an extra relator folds the triangle group onto a quotient, which the
    # enumerator reaches through coincidences; sympy's order of the quotient
    # is |G| / |normal closure|, by Schreier-Sims rather than enumeration
    rng = random.Random(406)
    ab = word(("a", 1), ("b", 1))
    for (k, l, m), (degree, a, b, order) in TRIANGLES.items():
        perm = {GENS[0]: Permutation(a, size=degree), GENS[1]: Permutation(b, size=degree)}

        def image(w: Word):
            out = Permutation(degree - 1)
            for gen, exp in w.runs:
                out = out * perm[gen] ** exp
            return out

        relators = (word(("a", k)), word(("b", l)), ab**m)
        group = PermutationGroup(list(perm.values()))
        assert group.order() == order and all(image(r).is_Identity for r in relators)
        for _ in range(4):
            extra = random_nonempty_word(rng, GENS, 8)
            if rng.random() < 0.5:
                # a conjugated relator keeps the whole group
                extra = rng.choice(relators).conjugate(extra)
            ours = todd_coxeter(Presentation(GENS, relators + (extra,)), 10_000)
            assert ours.finished
            assert ours.order == order // group.normal_closure(image(extra)).order(), extra


def test_alexander_matches_sympy_rational_form():
    t = sympy.Symbol("t")
    for v in range(0, 3):
        q = 3 * v + 2
        formula = sympy.cancel(
            (t ** (3 * q) - 1) * (t - 1) / ((t**3 - 1) * (t**q - 1))
        )
        expected = sympy.Poly(sympy.expand(formula), t).all_coeffs()[::-1]
        computed = alexander_polynomial(closed_form(TwistParams(0, v)).presentation)
        dense = [computed.coeffs.get(e, 0) for e in range(len(expected))]
        assert dense == [int(c) for c in expected]


EXPONENTS = (-4, -3, -2, -1, 1, 2, 3, 4)


def _runs_word(rng: random.Random, max_runs: int) -> Word:
    return Word(
        (rng.choice(GENS), rng.choice(EXPONENTS)) for _ in range(rng.randint(1, max_runs))
    )


def _infinite_cyclic_relators(rng: random.Random):
    """Relators ``r`` for which ``<a, b | r>`` has H1 infinite cyclic."""
    a, b = GENS
    found = 0
    while found < 150:
        rel = _runs_word(rng, 10)
        if sympy.gcd(rel.exponent_sum(a), rel.exponent_sum(b)) == 1:
            found += 1
            yield rel
    # b maps to +-2, so the division is by t^2 - 1: conjugates and rotations
    base = word(("a", 2), ("b", -3))
    for _ in range(30):
        letters = base.conjugate(_runs_word(rng, 4)).letters()
        cut = rng.randrange(len(letters))
        yield Word(letters[cut:] + letters[:cut])
    # a maps to 0: a times a commutator [w, b^j]
    for _ in range(30):
        w, j = _runs_word(rng, 4), rng.choice(EXPONENTS)
        yield word(("a", 1)) * w * word(("b", j)) * w.inverse() * word(("b", -j))


def _sympy_alexander(rel: Word) -> list[int]:
    """Normalized coefficients, low to high, of the Fox derivative of ``rel``
    taken letter by letter, times (t - 1) over (t^phi(y) - 1), as sympy cancels it."""
    t = sympy.Symbol("t")
    a, b = GENS
    phi = {a: rel.exponent_sum(b), b: -rel.exponent_sum(a)}
    # a non-knot group's polynomial is not symmetric, so take the orientation
    # of the free coordinate class_in_h1 reports: first nonzero image positive
    if (phi[a] or phi[b]) < 0:
        phi = {gen: -image for gen, image in phi.items()}
    # differentiate by b whenever a's image allows it
    x, y = (b, a) if phi[a] else (a, b)
    fox, height = sympy.Integer(0), 0
    for gen, exp in rel.letters():
        if gen == x:
            fox += exp * t ** (height if exp > 0 else height - phi[x])
        height += exp * phi[gen]
    numer, denom = sympy.fraction(sympy.cancel(fox * (t - 1) / (t ** phi[y] - 1)))
    assert sympy.Poly(denom, t).is_monomial, rel
    coeffs = [int(c) for c in sympy.Poly(numer, t).all_coeffs()[::-1]]
    while not coeffs[0]:
        coeffs.pop(0)
    return coeffs if coeffs[-1] > 0 else [-c for c in coeffs]


def test_alexander_of_random_one_relator_presentations_matches_sympy():
    rng = random.Random(407)
    for rel in _infinite_cyclic_relators(rng):
        if rng.random() < 0.5:
            rel = rel.inverse()
        ours = alexander_polynomial(Presentation(GENS, (rel,))).coeffs
        assert [ours.get(e, 0) for e in range(max(ours) + 1)] == _sympy_alexander(rel), rel


def test_invariant_factors_match_sympy():
    def check(matrix):
        expected = [abs(int(d)) for d in invariant_factors(sympy.Matrix(matrix), domain=sympy.ZZ)]
        diag, _ = smith_normal_form(matrix)
        assert [d for d in diag if d] == [d for d in expected if d], (len(matrix), len(matrix[0]))

    rng = random.Random(408)
    for size in range(10, 31, 5):
        for m, n in ((size, size), (size, size + 3), (size + 3, size)):
            check(sparse_matrix(rng, m, n))
    # generators x relators, the layout Presentation._abelianization builds for a
    # presentation with more relators than generators
    rng = random.Random(409)
    for size in range(10, 31, 5):
        check(sparse_matrix(rng, size, 3 * size))
