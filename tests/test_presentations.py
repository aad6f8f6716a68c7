import random
from fractions import Fraction

import pytest

from conftest import (
    ABC,
    conjugate_relator,
    invert_relator,
    random_presentation,
    random_word,
    sparse_matrix,
)
from twistknot import presentations
from twistknot.presentations import (
    HomologySummary,
    LaurentPolynomial,
    Presentation,
    PresentationError,
    add_relators,
    alexander_polynomial,
    class_in_h1,
    h1_classes,
    homology,
    smith_normal_form,
    tietze_eliminate,
)
from twistknot.twisted_torus import TwistParams, closed_form, relator_template
from twistknot.words import Generator, Word, word

A, B, C = ABC

TREFOIL = Presentation((A, B), (word(("b", 1), ("a", 1), ("b", -2), ("a", 1)),))


def _det(matrix) -> Fraction:
    """Fraction Gaussian elimination, used only to check unimodularity."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            factor = rows[i][col] * inv
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return det


def _matmul(x, y):
    return [
        [sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


# -- Tietze moves ---------------------------------------------------------------


def test_eliminate_defined_generator():
    x, y = Generator("x"), Generator("y")
    p = Presentation((x, y), (word(("x", 1), ("y", -1)),))
    result = tietze_eliminate(p, x, word(("y", 1)))
    assert result.generators == (y,)
    assert result.relators == ()


def test_eliminate_errors():
    x, y = Generator("x"), Generator("y")
    p = Presentation((x, y), (word(("x", 1), ("y", -1)),))
    with pytest.raises(PresentationError, match="not present"):
        tietze_eliminate(p, Generator("z"), word(("y", 1)))
    with pytest.raises(PresentationError, match="mentions"):
        tietze_eliminate(p, x, word(("x", 1)))
    with pytest.raises(PresentationError, match="no relator"):
        tietze_eliminate(p, x, word(("y", 2)))


def test_add_relators_preserves_order():
    p = add_relators(TREFOIL, [word(("a", 5)), word(("b", 1))])
    assert p.relators[1] == word(("a", 5))
    assert p.relators[2] == word(("b", 1))
    assert add_relators(TREFOIL, []) == TREFOIL


def test_undeclared_generator_rejected():
    with pytest.raises(PresentationError, match="undeclared"):
        Presentation((A,), (word(("b", 1)),))
    with pytest.raises(PresentationError, match="undeclared"):
        add_relators(TREFOIL, [word(("z", 1))])


# -- homology -------------------------------------------------------------------


def test_homology_trefoil():
    # 1 x 2 exponent matrix [[2, -1]]: row-reduces to a single unit pivot
    assert homology(TREFOIL) == HomologySummary((), 1)


def test_homology_surgered_trefoil():
    surgery = word(("a", 5)) * word(("a", -7), ("b", 3), ("a", 1))
    p = add_relators(TREFOIL, [surgery])
    rows = [[rel.exponent_sum(g) for g in p.generators] for rel in p.relators]
    assert rows == [[2, -1], [-1, 3]]
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    assert abs(det) == 5
    assert homology(p) == HomologySummary((5,), 0)


def test_homology_free_rank():
    assert homology(Presentation((A,), ())) == HomologySummary((), 1)
    assert homology(Presentation((A, B), ())) == HomologySummary((), 2)


def test_class_in_h1_trefoil():
    longitude = word(("a", -7), ("b", 3), ("a", 1))
    # from the relator row (2, -1): b is 2a, so (-7 + 1) + 2 * 3 = 0
    assert class_in_h1(TREFOIL, longitude) == (0,)
    assert class_in_h1(TREFOIL, word(("a", 1))) == (1,)
    assert class_in_h1(TREFOIL, word(("b", 1))) == (2,)


def test_class_in_h1_uncorrected_longitude():
    p = Presentation((A, B), (word(("b", 1), ("a", 1), ("b", -1), ("a", 1), ("b", -1)),))
    # exponent sums (-4, 1) against b = 2a gives -4 + 2 = -2
    assert class_in_h1(p, word(("a", -5), ("b", 1), ("a", 1))) == (-2,)


def test_class_in_h1_rejects_unknown_generator():
    with pytest.raises(PresentationError, match="undeclared"):
        class_in_h1(TREFOIL, word(("z", 1)))


def test_class_in_h1_torsion_coordinates():
    p = Presentation((A,), (word(("a", 5)),))
    assert homology(p) == HomologySummary((5,), 0)
    assert class_in_h1(p, word(("a", 7))) == (2,)


def test_h1_classes_of_wide_presentations():
    # more relators than generators, so the relator matrix is wider than tall;
    # powers of gens - 1 random relators, and products of those powers, leave
    # torsion and a free part
    rng = random.Random(31)
    for gens in (2, 3, 4, 5, 6, 8):
        base, _ = random_presentation(rng, gens, gens - 1)
        powers = [r ** rng.randrange(1, 4) for r in base.relators]
        extra = [
            rng.choice(powers) * rng.choice(powers) ** rng.choice((-2, -1, 1))
            for _ in range(2 * gens)
        ]
        p = Presentation(base.generators, tuple(powers + extra))
        h1 = homology(p)
        orders = h1.torsion_orders
        classify = h1_classes(p)
        for rel in p.relators:
            assert classify(rel) == (0,) * (len(orders) + h1.free_rank)
        for _ in range(20):
            x = random_word(rng, p.generators, 10)
            y = random_word(rng, p.generators, 10)
            sums = [c + d for c, d in zip(classify(x), classify(y))]
            reduced = [c % d for c, d in zip(sums, orders)] + sums[len(orders):]
            assert classify(x * y) == tuple(reduced)


# -- Smith normal form -----------------------------------------------------------


def _snf_inputs():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        yield [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
    # square and rectangular shapes up to 12x12: a pivot refined in place
    # grows the entries of these exponentially
    rng = random.Random(12)
    for m in (6, 8, 10, 12):
        for n in (6, 8, 10, 12):
            yield sparse_matrix(rng, m, n)
            yield sparse_matrix(rng, m, n)


def test_snf_transforms_and_unimodularity():
    # a unimodular V with U M V = D exists iff U M = D W, where the rows of the
    # integral r x n matrix W (the first r rows of V^-1) complete to a
    # unimodular matrix, i.e. W's invariant factors are all 1
    for matrix in _snf_inputs():
        diag, u = smith_normal_form(matrix)
        assert abs(_det(u)) == 1
        r = sum(1 for d in diag if d)
        assert all(diag[:r]) and not any(diag[r:])
        rows = _matmul(u, matrix)
        assert not any(any(row) for row in rows[r:])
        w = []
        for d, row in zip(diag, rows[:r]):
            assert d > 0 and all(x % d == 0 for x in row)
            w.append([x // d for x in row])
        assert smith_normal_form(w)[0] == [1] * r
        for first, second in zip(diag[:r], diag[1:r]):
            assert second % first == 0


def test_snf_degenerate_shapes():
    assert smith_normal_form([]) == ([], [])
    assert smith_normal_form([[]]) == ([], [[1]])
    assert smith_normal_form([[], [], []]) == ([], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert homology(Presentation((), ())) == HomologySummary((), 0)
    assert homology(Presentation(ABC, ())) == HomologySummary((), 3)


def test_snf_invariant_factors_shuffle_independent():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        matrix = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        diag, _ = smith_normal_form(matrix)
        shuffled = [row[:] for row in matrix]
        rng.shuffle(shuffled)
        cols = list(range(n))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in shuffled]
        diag2, _ = smith_normal_form(shuffled)
        assert diag == diag2


# -- Tietze moves preserve homology ----------------------------------------------


def test_tietze_moves_preserve_homology_randomized():
    rng = random.Random(42)
    gens = ABC
    for _ in range(120):
        relators = [random_word(rng, gens, 6) for _ in range(rng.randrange(1, 4))]
        p = Presentation(gens, tuple(relators))
        reference = homology(p)
        extensions: list[Generator] = []
        for step in range(6):
            move = rng.randrange(4)
            if move == 0 and p.relators:
                p = conjugate_relator(p, rng.randrange(len(p.relators)), random_word(rng, p.generators, 4))
            elif move == 1 and p.relators:
                p = invert_relator(p, rng.randrange(len(p.relators)))
            elif move == 2 and p.relators:
                # add a consequence: a product of conjugated relators
                first = rng.choice(p.relators).conjugate(random_word(rng, p.generators, 3))
                second = rng.choice(p.relators).conjugate(random_word(rng, p.generators, 3))
                p = add_relators(p, [first * second])
            else:
                fresh = Generator(f"t{len(extensions)}_{step}")
                defining = random_word(rng, p.generators, 4)
                p = Presentation(
                    p.generators + (fresh,),
                    p.relators + (Word(((fresh, 1),)) * defining.inverse(),),
                )
                extensions.append((fresh, defining))
            assert homology(p) == reference
        while extensions:
            fresh, defining = extensions.pop()
            p = tietze_eliminate(p, fresh, defining)
            assert homology(p) == reference


# -- Laurent polynomials and Alexander -------------------------------------------


def test_laurent_normalization():
    p = LaurentPolynomial({-3: -1, -1: 1, 0: -2})
    normal = p.normalized()
    assert normal == LaurentPolynomial({0: 1, 2: -1, 3: 2})


def test_laurent_divexact_errors():
    num = LaurentPolynomial({0: 1, 1: 1})
    with pytest.raises(ValueError, match="inexact"):
        num.divexact(LaurentPolynomial({0: 2}))
    with pytest.raises(ValueError, match="inexact"):
        LaurentPolynomial({2: 1, 0: 1}).divexact(LaurentPolynomial({1: 1, 0: 1}))


def _random_laurent(rng: random.Random, span: int) -> LaurentPolynomial:
    low = rng.randint(-span, span)
    while True:
        poly = LaurentPolynomial(
            (low + rng.randint(0, span), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 6))
        )
        if not poly.is_zero():
            return poly


def test_laurent_divexact_round_trips_products():
    rng = random.Random(21)
    for _ in range(300):
        quotient, divisor = _random_laurent(rng, 12), _random_laurent(rng, 8)
        assert (quotient * divisor).divexact(divisor) == quotient
        # a nonzero remainder spanning less than the divisor cannot be divided off
        divisor_span = max(divisor.coeffs) - min(divisor.coeffs)
        if divisor_span:
            low = rng.randint(-20, 20)
            remainder = LaurentPolynomial({low: 1, low + rng.randrange(divisor_span): 1})
            perturbed = LaurentPolynomial([*(quotient * divisor).coeffs.items(),
                                           *remainder.coeffs.items()])
            with pytest.raises(ValueError, match="inexact"):
                perturbed.divexact(divisor)
    # the remainder is swept by degree, not by every exponent in between
    sparse = LaurentPolynomial({0: 1, 10**12: -2})
    divisor = LaurentPolynomial({0: -1, 5: 1})
    assert (sparse * divisor).divexact(divisor) == sparse


def test_alexander_of_a_large_member_has_the_family_degree():
    # (0, v) has a normalized Alexander polynomial of degree 6v + 2 with
    # 4v + 3 terms, from a Fox derivative over a height span of 6v + 4
    delta = alexander_polynomial(closed_form(TwistParams(0, 2000)).presentation)
    assert (max(delta.coeffs), len(delta.coeffs)) == (12_002, 8_003)


def test_alexander_trefoil():
    # Fox derivative of b a b^-2 a by a maps to t^2 + t^-1; times (t - 1),
    # divided by (t^2 - 1), this is t^2 - t + 1 after normalization.
    assert alexander_polynomial(TREFOIL) == LaurentPolynomial({0: 1, 1: -1, 2: 1})


def test_alexander_unknot():
    assert alexander_polynomial(Presentation((A,), ())) == LaurentPolynomial({0: 1})


def test_alexander_requires_infinite_cyclic_h1():
    p = Presentation((A, B), (word(("a", 1), ("b", 1)),))
    # H1 is infinite cyclic here, fine; now break it
    alexander_polynomial(p)
    with pytest.raises(PresentationError):
        alexander_polynomial(Presentation((A, B), (word(("a", 2)),)))
    with pytest.raises(PresentationError):
        alexander_polynomial(Presentation((A, B, C), (word(("a", 1)),)))


def test_alexander_pinned_without_an_oracle():
    # a^2 b^-3 is the trefoil group with phi(b) = +-2, so its conjugates and
    # rotations and inverses divide by t^2 - 1; the others have phi(a) = 0 and divide by t - 1
    cases = (
        (word(("b", 1), ("a", 2), ("b", -4)), {0: 1, 1: -1, 2: 1}),
        (word(("a", 1), ("b", -3), ("a", 1)), {0: 1, 1: -1, 2: 1}),
        (word(("a", -1), ("b", 3), ("a", -1)), {0: 1, 1: -1, 2: 1}),
        (word(("a", -1), ("b", 1), ("a", 2), ("b", -4), ("a", 1)), {0: 1, 1: -1, 2: 1}),
        (word(("a", 2), ("b", 1), ("a", -1), ("b", -1)), {0: -2, 1: 1}),
        (word(("a", 1), ("b", 2), ("a", -2), ("b", -1), ("a", 2), ("b", -1)), {0: -1, 1: -2, 2: 2}),
    )
    for rel, coeffs in cases:
        assert alexander_polynomial(Presentation((A, B), (rel,))).coeffs == coeffs, rel


def test_alexander_refuses_an_inexact_division(monkeypatch):
    # with the free coordinate doubled, the quotient would be Delta(t^2) / (t + 1),
    # which is no polynomial because Delta(1) = +-1
    snf = presentations.smith_normal_form

    def doubled(columns):
        diag, u = snf(columns)
        rank = sum(1 for d in diag if d)
        return diag, u[:rank] + [[2 * c for c in row] for row in u[rank:]]

    cases = (
        TREFOIL,
        Presentation((A, B), (word(("a", 1)),)),
        closed_form(TwistParams(-3, 2)).presentation,
    )
    monkeypatch.setattr(presentations, "smith_normal_form", doubled)
    for p in cases:
        # an equal presentation whose Smith form is not yet kept
        with pytest.raises(ValueError, match="inexact"):
            alexander_polynomial(Presentation(p.generators, p.relators))


def test_a_presentation_computes_its_smith_form_once(monkeypatch):
    calls = []
    snf = presentations.smith_normal_form

    def counted(columns):
        calls.append(columns)
        return snf(columns)

    relator = relator_template(TwistParams(-3, 2))
    monkeypatch.setattr(presentations, "smith_normal_form", counted)
    p, bare = (Presentation((A, B), (relator,)) for _ in range(2))
    h1_classes(p)(p.relators[0])
    homology(p)
    alexander_polynomial(p)
    assert len(calls) == 1
    # the kept Smith form is no field: p reads as the equal presentation that has none
    assert p == bare and hash(p) == hash(bare)
    assert (p.to_json(), repr(p)) == (bare.to_json(), repr(bare))
    for twin in (bare, Presentation((A, B), (relator,))):
        homology(twin)
        alexander_polynomial(twin)
    assert len(calls) == 3


def test_alexander_conjugation_invariant():
    rng = random.Random(17)
    reference = alexander_polynomial(TREFOIL)
    for _ in range(20):
        rotated = conjugate_relator(TREFOIL, 0, random_word(rng, (A, B), 5))
        assert alexander_polynomial(rotated) == reference
        assert alexander_polynomial(invert_relator(rotated, 0)) == reference


def test_presentation_json_roundtrip():
    data = TREFOIL.to_json()
    assert data == {
        "generators": ["a", "b"],
        "relators": [[["b", 1], ["a", 1], ["b", -2], ["a", 1]]],
    }
    assert Presentation.from_json(data) == TREFOIL


def test_presentation_takes_plain_names():
    p = Presentation(("a", "b"), (word(("b", 1), ("a", 1), ("b", -2), ("a", 1)),))
    assert p == TREFOIL and all(type(g) is Generator for g in p.generators)
    assert Presentation.from_json(p.to_json()) == p
    xy = Presentation(("x", "y"), (word(("x", 1), ("y", -1)),))
    assert tietze_eliminate(xy, "x", word(("y", 1))) == Presentation(("y",), ())
    with pytest.raises(PresentationError, match="duplicate"):
        Presentation(("a", Generator("a")), ())
    with pytest.raises(ValueError, match="generator name must be a nonempty string"):
        Presentation(("a", ""), ())
