import hashlib
import json
import random
import tracemalloc

import pytest

from conftest import conjugate_relator, invert_relator, random_word
from twistknot.coset_enum import MAX_COSET_BUDGET, surgered_presentation, todd_coxeter
from twistknot.criterion import CriterionError, Slope
from twistknot.presentations import Presentation, PresentationError, homology
from twistknot.twisted_torus import TwistParams, closed_form
from twistknot.words import Generator, Word, word

A = Generator("a")
B = Generator("b")


def test_cyclic_group():
    p = Presentation((A,), (word(("a", 5)),))
    result = todd_coxeter(p, 1000)
    assert result.finished
    assert result.order == 5
    assert result.cosets_defined >= 5


def test_trivial_presentations():
    assert todd_coxeter(Presentation((), ()), 10).order == 1
    p = Presentation((A, B), (word(("a", 1)), word(("b", 1))))
    assert todd_coxeter(p, 100).order == 1


def test_free_group_exceeds():
    result = todd_coxeter(Presentation((A,), ()), 50)
    assert result.outcome == "exceeded"
    assert result.order is None
    assert result.cosets_defined == 50


def test_surgered_presentation_relator():
    model = closed_form(TwistParams(0, 0))
    p = surgered_presentation(model, Slope(5, 1), "paper")
    assert p.relators[0] == model.presentation.relators[0]
    # a^5 (a^-7 b^3 a) reduces to a^-2 b^3 a
    assert p.relators[1] == word(("a", -2), ("b", 3), ("a", 1))
    meridian_only = surgered_presentation(model, Slope(1, 0), "paper")
    assert meridian_only.relators[1] == word(("a", 1))
    longitude_only = surgered_presentation(model, Slope(0, 1), "paper")
    assert longitude_only.relators[1] == model.longitude_paper


def test_meridian_filling_is_trivial_group():
    model = closed_form(TwistParams(0, 0))
    p = surgered_presentation(model, Slope(1, 0), "paper")
    assert todd_coxeter(p, 1000).order == 1


def test_classical_finite_groups():
    a, b = A, B
    ab = word(("a", 1), ("b", 1))
    cases = [
        # triangle group (2,3,2), i.e. S3
        (Presentation((a, b), (word(("a", 2)), word(("b", 3)), ab**2)), 6),
        # quaternion group
        (
            Presentation(
                (a, b),
                (
                    word(("a", 4)),
                    word(("a", 2), ("b", -2)),
                    word(("b", -1), ("a", 1), ("b", 1), ("a", 1)),
                ),
            ),
            8,
        ),
        # Z2 x Z3 with an explicit commutator
        (
            Presentation(
                (a, b),
                (word(("a", 2)), word(("b", 3)), word(("a", 1), ("b", 1), ("a", -1), ("b", -1))),
            ),
            6,
        ),
        # binary octahedral group <2,3,4>
        (
            Presentation(
                (a, b),
                (ab**2 * word(("a", -3)), word(("a", 3), ("b", -4))),
            ),
            48,
        ),
    ]
    for presentation, expected in cases:
        result = todd_coxeter(presentation, 100_000)
        assert result.finished
        assert result.order == expected


def test_trefoil_classical_surgery_orders():
    # the finite fillings of the torus knot member: binary tetrahedral at 3/1,
    # the order-12 prism group at 4/1, and the lens space of order 7 at 7/1
    model = closed_form(TwistParams(0, 0))
    for num, expected in ((3, 24), (4, 12), (7, 7)):
        p = surgered_presentation(model, Slope(num, 1), "paper")
        result = todd_coxeter(p, 200_000)
        assert result.finished
        assert result.order == expected
        assert result.order % homology(p).torsion_order_product == 0


def test_unknot_member_fillings_measure_framing_offset():
    # the (-1, 0) member is an unknot (its group rewrites to a free group on
    # a b^-1), so p/1 fillings along a true preferred longitude would be lens
    # spaces of order |p|; along the stated framing they come out as |p - 2|,
    # the homology class 2u of that longitude made concrete
    model = closed_form(TwistParams(-1, 0))
    for num, expected in ((4, 2), (3, 1), (-3, 5)):
        result = todd_coxeter(
            surgered_presentation(model, Slope(num, 1), "paper"), 100_000
        )
        assert result.finished
        assert result.order == expected
    for num in (4, 3, -3):
        result = todd_coxeter(
            surgered_presentation(model, Slope(num, 1), "corrected"), 100_000
        )
        assert result.finished
        assert result.order == abs(num)


def test_trefoil_finite_fillings():
    model = closed_form(TwistParams(0, 0))
    outcomes = {}
    for num in (5, -5):
        p = surgered_presentation(model, Slope(num, 1), "paper")
        outcomes[num] = todd_coxeter(p, 100_000)
    finished = [num for num, res in outcomes.items() if res.finished]
    assert len(finished) == 1
    lens_sign = 1 if finished == [5] else -1
    assert outcomes[5 * lens_sign].order == 5

    poincare = surgered_presentation(model, Slope(lens_sign, 1), "paper")
    result = todd_coxeter(poincare, 100_000)
    assert result.finished
    assert result.order == 120

    other = outcomes[-5 * lens_sign]
    assert other.outcome == "exceeded"


def test_finished_order_consistent_with_homology():
    model = closed_form(TwistParams(0, 0))
    for num in (3, 5, 7):
        p = surgered_presentation(model, Slope(num, 1), "corrected")
        summary = homology(p)
        assert summary.free_rank == 0
        assert summary.torsion_order_product == num
        result = todd_coxeter(p, 100_000)
        if result.finished:
            assert result.order % summary.torsion_order_product == 0


def test_random_presentations_agree_with_homology():
    # a finite group's order is a multiple of |H1|, and H1 of a finite group is
    # finite; short random relators make most closing runs fold cosets together
    rng = random.Random(9)
    gens = (A, B, Generator("c"))
    exponents = (-3, -2, -1, 1, 2, 3)
    finished = folded = 0
    for _ in range(150):
        used = gens[: rng.randint(1, 3)]
        relators = tuple(
            Word((rng.choice(used), rng.choice(exponents)) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3))
        )
        p = Presentation(used, relators)
        result = todd_coxeter(p, 500)
        assert todd_coxeter(p, 500) == result
        if result.finished:
            summary = homology(p)
            assert summary.free_rank == 0, p
            assert result.order % summary.torsion_order_product == 0, p
            finished += 1
            folded += result.cosets_defined > result.order
    assert finished >= 50 and folded >= finished // 2


@pytest.mark.parametrize(
    "names, relators, order, cosets_defined",
    [
        ("ab", ("b^-4 a^-2 b^-1 a^-5 b^4", "b^-7"), 49, 1104),
        ("ab", ("b^3 a^2 b a^3", "b^2 a^-3 b^-2"), 12, 36),
        ("ab", ("a^-7 b^-2", "a^7", "a b^-1 a b^-4 a"), 1, 17),
        ("abc", ("a^-2 b^-3 a^-1", "c^-1 a^-3 b", "b^-1 c^3"), 33, 186),
    ],
)
def test_coincidence_deduction_pins_cosets_defined(names, relators, order, cosets_defined):
    # while a dead coset's row is processed, an entry whose slot at the live
    # coset is empty but whose partner slot is taken is a deduction: the two
    # cosets it names merge.  Without it these runs still close with the same
    # order, but define up to 2.3 times as many cosets
    p = Presentation(tuple(Generator(n) for n in names), tuple(map(Word.parse, relators)))
    result = todd_coxeter(p, 3000)
    assert (result.outcome, result.order, result.cosets_defined) == (
        "finished", order, cosets_defined
    )


def test_determinism():
    model = closed_form(TwistParams(0, 0))
    p = surgered_presentation(model, Slope(5, 1), "paper")
    first = todd_coxeter(p, 100_000)
    second = todd_coxeter(p, 100_000)
    assert first == second
    assert first.trace_hash == second.trace_hash


def test_outcome_invariant_under_tietze_massage():
    rng = random.Random(8)
    base = Presentation((A,), (word(("a", 5)),))
    reference = todd_coxeter(base, 1000).order
    p = Presentation((A, B), (word(("a", 5)), word(("b", 1), ("a", -2))))
    for _ in range(5):
        p = conjugate_relator(p, rng.randrange(len(p.relators)), random_word(rng, p.generators, 4))
        if rng.random() < 0.5:
            p = invert_relator(p, rng.randrange(len(p.relators)))
    assert todd_coxeter(p, 1000).order == reference

    model = closed_form(TwistParams(0, 0))
    surgered = surgered_presentation(model, Slope(5, 1), "paper")
    massaged = surgered
    for _ in range(4):
        massaged = conjugate_relator(
            massaged, rng.randrange(len(massaged.relators)), random_word(rng, (A, B), 3)
        )
    first = todd_coxeter(surgered, 100_000)
    second = todd_coxeter(massaged, 100_000)
    if first.finished:
        assert second.finished
        assert first.order == second.order


def test_slope_must_be_reduced():
    with pytest.raises(CriterionError, match="lowest terms"):
        Slope(10, 4)


def test_max_cosets_guard():
    p = Presentation((A,), (word(("a", 2)),))
    for budget in (0, MAX_COSET_BUDGET + 1):
        with pytest.raises(PresentationError, match="max_cosets"):
            todd_coxeter(p, budget)
    # the ceiling bounds the budget, not the table, so a small group stays small
    assert todd_coxeter(p, MAX_COSET_BUDGET).order == 2


@pytest.mark.parametrize("budget", [True, 3.0, 2.5, "5"])
def test_max_cosets_must_be_an_integer(budget):
    # a bool or float used to pass the range check, and 2.5 and "5" failed
    # with a TypeError deep inside the enumeration
    with pytest.raises(PresentationError, match="max_cosets must be an integer"):
        todd_coxeter(Presentation((A,), (word(("a", 3)),)), budget)


def test_relator_letter_bound():
    # a^(10^7) would be expanded into ten million letters
    with pytest.raises(PresentationError, match="letters"):
        todd_coxeter(Presentation((A,), (word(("a", 10**7)),)), 10)


def test_result_json():
    p = Presentation((A,), (word(("a", 4)),))
    result = todd_coxeter(p, 100)
    data = result.to_json()
    assert data["outcome"] == "finished"
    assert data["order"] == 4
    assert data["strategy"].startswith("hlt")
    assert isinstance(data["trace_hash"], str)


#: T(2,3) fillings of the ``enumerate`` benchmark workload: lens spaces,
#: other spherical manifolds, and infinite fillings
CATALOG = (
    (11, 2), (13, 2), (17, 3), (19, 3), (23, 4), (25, 4), (29, 5), (31, 5),
    (7, 2), (9, 2), (15, 2), (16, 3), (20, 3),
    (12, 1), (13, 1), (-1, 1), (-2, 1), (-3, 1), (-4, 1), (-5, 1), (-6, 1),
)

#: the workload's other members: every finite p/1 filling of the torus knots
#: T(2,3), T(2,5), T(3,5) and T(3,8), and unknot fillings whose relator
#: carries one long power run (``a^-58 b^-1 a`` at -59/1)
WORKLOAD_FILLINGS = (
    ((0, 0), (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)),
    ((1, 0), (7, 8, 9, 11, 12, 13)),
    ((0, 1), (13, 14, 16, 17)),
    ((0, 2), (23, 25)),
    ((-2, 0), (-105, -104, -59, -1, 1, 2, 58, 59, 104, 105)),
)


def _pinned_cases():
    """The catalog at the workload's budget, then 96 seeded 2-generator
    presentations at budgets on either side of each power of two the table
    grows through; a third of them have one relator, so they are infinite.
    Then the workload's other fillings and 12 seeded 3-generator
    presentations with three or four relators."""
    model = closed_form(TwistParams(0, 0))
    for num, den in CATALOG:
        yield f"{num}/{den}", surgered_presentation(model, Slope(num, den), "corrected"), 20_000
    rng = random.Random(10)
    budgets = [2**k + d for k in (5, 8, 10, 12) for d in (-1, 0, 1)]
    for i in range(96):
        relators = tuple(
            Word((rng.choice((A, B)), rng.choice((-3, -2, -1, 1, 2, 3)))
                 for _ in range(rng.randint(2, 7)))
            for _ in range(1 if i // 12 % 3 == 0 else rng.randint(2, 3))
        )
        yield f"random {i}", Presentation((A, B), relators), budgets[i % 12]
    for (u, v), nums in WORKLOAD_FILLINGS:
        model = closed_form(TwistParams(u, v))
        for num in nums:
            filling = surgered_presentation(model, Slope(num, 1), "corrected")
            yield f"({u}, {v}) {num}/1", filling, 20_000
    rng = random.Random(11)
    C = Generator("c")
    for i in range(12):
        relators = tuple(
            Word((rng.choice((A, B, C)), rng.choice((-3, -2, -1, 1, 2, 3)))
                 for _ in range(rng.randint(2, 6)))
            for _ in range(rng.randint(3, 4))
        )
        budget = (500, 2**12 + 1, 20_000)[i % 3]
        yield f"random 3-generator {i}", Presentation((A, B, C), relators), budget


# the first 16 hex digits of sha256(json.dumps(to_json(), sort_keys=True)) for
# each case of _pinned_cases, in order; a change of strategy that moves them is
# named in CHANGES.md
PINNED_DIGESTS = """
0499702635ad6f35 6f2abe77b7266449 f1bc5d21f4edf46a ee0a0ec98740dbc2
971528bf0cc9b779 971528bf0cc9b779 971528bf0cc9b779 971528bf0cc9b779
c19bb3fcabf10aa2 02425cf8b93b6238 ce49fc7891a3a3e3 a9eed092ade9c115
2e7e0cc65af2d863 971528bf0cc9b779 971528bf0cc9b779 971528bf0cc9b779
971528bf0cc9b779 971528bf0cc9b779 971528bf0cc9b779 971528bf0cc9b779
971528bf0cc9b779 e90fd4c977c1b5c6 959f64bc450b25e9 fca4e4acd0d6a50d
193f1d8460555e1a 61ead956ee26457e f4a208baec4d763a e1a775adde7bf087
c69f5be3eb4b0773 ef9b4149a8244ed1 3adb8e495a3d8eed 33fe5036acaa7381
ee5a1a5217804f49 e90fd4c977c1b5c6 959f64bc450b25e9 fca4e4acd0d6a50d
017231628d4abadc 61ead956ee26457e f4a208baec4d763a 4080a30427b10ee2
c07e36def438e106 ef9b4149a8244ed1 b8f73f919bd5b4e2 975f0fc231174e35
ee5a1a5217804f49 671221684adb0060 d619475fcc232374 bc6ef4767b805f6e
7023532709451fe0 c60bcc9e2946c425 9c963c90613803bc 51e02caa0d899b0a
e7ab15482ab333de 5dfc0d573f3044fb a2e07f3b6db71cf3 9533defc5d3f4e6e
3b924500dcad348e e90fd4c977c1b5c6 959f64bc450b25e9 fca4e4acd0d6a50d
193f1d8460555e1a 61ead956ee26457e f4a208baec4d763a e1a775adde7bf087
c69f5be3eb4b0773 ef9b4149a8244ed1 3adb8e495a3d8eed 33fe5036acaa7381
ee5a1a5217804f49 1bab9bf47555ece8 c8cd3a9785d14220 721a20a75b10234a
3288c2e27413ecca 0d4d6e63c0332c81 c2bb9196f3551380 8abc2fa63776d3a1
70b556d795eb1375 1290ca885510e36a f41d574fdf42c2b1 c8b8c576e1639769
082a44cb5f0be097 e90fd4c977c1b5c6 8835c98578f27e28 136bca7fdaeda535
f6a6a8aae3020cc1 d613ca5fffe2f94d 04ca314fa080a67e 8ed08a0a5a49f4f7
c70b07c3b86ee508 1307b9bc8b8af8b1 98c28a5445a638f0 cb1bf34cd3ef582d
94dd24fa9631d520 e90fd4c977c1b5c6 959f64bc450b25e9 fca4e4acd0d6a50d
193f1d8460555e1a 61ead956ee26457e f4a208baec4d763a e1a775adde7bf087
c69f5be3eb4b0773 ef9b4149a8244ed1 3adb8e495a3d8eed 33fe5036acaa7381
ee5a1a5217804f49 86480fe085e0f2bc 7349baa876393771 fca4e4acd0d6a50d
a0cf455194b51de4 b0e187f6e20b7951 a132007e90d64174 1324fb0bb52b3ae6
9e4214c19868895d cba05dec5e59166e ee84d9481d1eee6f fdc0d121fe2da29d
b8cdb2598bc2f95e
a17e7752a67b88fa 42699a90009f708c ab97566a4eeb3968 191dd532baa78d9e
66cf3711f4115d29 bf084edb57264693 783ed7905b1e8bd1 782afd10966f9452
09476f17eef9ee13 dc49e86df8ee9835 db3cef76bdd286ed e9c00d33cc5f5650
bb4ac744764c58d2 c29d315db621a52f 7ccbd2386ac6fe7f d05079ffc66c3acc
1241e1143fcd737b fc0d61cbb7faa9f5 02acf3ea843a8f10 a461429e5e0e6027
2c454fe353f15bfa 8c82107bd2fc76fa 0f7cd3fc7268a668 7d9a523517c8bb15
334ce97d44883359 ade8213b0cec4279 0d770bcd16eb4d4e 6ab4a4d886a38544
227d88266d274a83 75beb5d95be0eb76 b40e3093bd3ef7db 1d2dde72e16dadb3
e6d1a34a01751e74 f59246614203be97 0f856a8d44b4b711 78742abe902b1274
91ef9ba0033a8939 e45240574d65264e 942788d6279209ac 59b5d1bb3c9ff895
b26fbb1a72994e2b 10d54692a97bccd0 c9280633c0f64423 971528bf0cc9b779
""".split()


def test_enumeration_results_are_pinned():
    cases = list(_pinned_cases())
    assert len(cases) == len(PINNED_DIGESTS)
    outcomes = set()
    for (label, presentation, budget), digest in zip(cases, PINNED_DIGESTS):
        result = todd_coxeter(presentation, budget)
        outcomes.add((label[0] == "r", result.outcome))
        text = json.dumps(result.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, label
    assert len(outcomes) == 4


def test_table_growth_holds_no_more_than_appending():
    # <a, b | > only defines cosets, so the table is the whole peak.  When every
    # define appended a row to each of the five arrays (four columns and the
    # union-find parents), the peak was 20.64-20.65 B per row at each of these
    # budgets; a doubling that ran past max_cosets + 1 rows would hold twice that
    free = Presentation((A, B), ())
    for budget in (2**16 - 1, 2**16, 2**16 + 1):
        tracemalloc.start()
        try:
            result = todd_coxeter(free, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.outcome, result.cosets_defined) == ("exceeded", budget)
        assert peak <= 20.65 * (budget + 1), (budget, peak)
