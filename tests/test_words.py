import ast
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import ABC, random_nonempty_word, random_word
from twistknot import words
from twistknot.words import (
    Generator,
    SubstitutionError,
    Word,
    is_conjugate,
    is_positive_excluding,
    word,
)

A, B, C = ABC
G = Generator("g")
H = Generator("h")


def test_reduce_cancellation():
    assert word(("a", 1), ("b", 1), ("b", -1), ("a", 1)) == word(("a", 2))


def test_reduce_empty_input_is_identity():
    assert Word([]).is_identity


def test_reduce_power_identity():
    # h^-2 h^-1 h^2 h, the v = 1 instance of h^(-v-1) h^-1 h^(v+1) h
    w = word(("h", -2), ("h", -1), ("h", 2), ("h", 1))
    assert w.is_identity


def test_multiply_inverse_cancels():
    ba = word(("b", 1), ("a", 1))
    assert (ba * word(("a", -1), ("b", -1))).is_identity


def test_conjugate():
    assert word(("a", 1)).conjugate(word(("b", 1), ("a", 1))) == word(
        ("b", 1), ("a", 1), ("b", -1)
    )


def test_invert():
    w = word(("a", -7), ("b", 3), ("a", 1))
    assert w.inverse() == word(("a", -1), ("b", -3), ("a", 7))
    assert w.inverse().inverse() == w


def test_pow():
    ba = word(("b", 1), ("a", 1))
    assert ba**0 == Word()
    assert ba**3 == word(("b", 1), ("a", 1), ("b", 1), ("a", 1), ("b", 1), ("a", 1))
    assert ba**-2 == (ba**2).inverse()
    for n in (0.5, 2.0, True, False, "2"):
        with pytest.raises(ValueError, match="integer exponent"):
            ba**n


def test_substitute_twist_relator_instance():
    # xi^-1 alpha xi gamma^-1 maps to the identity at v = 0
    w = word(("xi", -1), ("alpha", 1), ("xi", 1), ("gamma", -1))
    h = word(("h", 1))
    g = word(("g", 1))
    mapping = {
        Generator("xi"): h,
        Generator("alpha"): h * g.inverse(),
        Generator("gamma"): g.inverse() * h,
    }
    assert w.substitute(mapping).is_identity


def test_substitute_single_generators():
    assert word(("h", 1)).substitute({H: word(("b", 1), ("a", 1))}) == word(("b", 1), ("a", 1))
    ba = word(("b", 1), ("a", 1))
    image = word(("g", 1)).substitute({G: ba**2 * word(("b", 1))})
    assert image == word(("b", 1), ("a", 1), ("b", 1), ("a", 1), ("b", 1))


def test_substitute_missing_generator():
    with pytest.raises(SubstitutionError, match="alpha"):
        word(("alpha", 1)).substitute({G: word(("g", 1))})


def test_cyclic_reduce():
    w = word(("b", 1), ("a", 2), ("b", -1))
    core, conj = w.cyclic_reduce()
    assert core == word(("a", 2))
    assert conj == word(("b", 1))
    assert conj * core * conj.inverse() == w


def test_cyclic_reduce_invariant_randomized():
    rng = random.Random(55)
    for _ in range(400):
        w = random_word(rng, ABC, 14)
        core, conj = w.cyclic_reduce()
        assert conj * core * conj.inverse() == w
        letters = core.letters()
        if letters:
            first, last = letters[0], letters[-1]
            assert not (first[0] == last[0] and first[1] == -last[1])


def test_is_conjugate_definition():
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng, ABC)
        u = random_word(rng, ABC)
        assert is_conjugate(w, w.conjugate(u))


def test_is_conjugate_distinct_generators():
    assert not is_conjugate(word(("a", 1)), word(("b", 1)))


def _equation_words(u: int, v: int) -> tuple[Word, Word]:
    """The two surviving relator images, built block by block."""
    g = word(("g", 1))
    h = word(("h", 1))
    hvg = h**-v * g
    eq1 = (
        g.inverse() * (g * h ** (-2 * v - 1) * g) * g * hvg**u
        * (g * h ** (-v - 1)) * hvg**-u
    )
    eq2 = (
        g.inverse() * (g.inverse() * h ** (v + 1)) * g * hvg**u
        * (g.inverse() * h ** (2 * v + 1) * g.inverse()) * hvg**-u
    )
    return eq1, eq2


def test_equation_words_inverse_equivalent_at_1_1():
    # oracle: free reduction plus rotation scan over cyclically reduced cores
    eq1, eq2 = _equation_words(1, 1)
    assert is_conjugate(eq1, eq2.inverse())
    assert not is_conjugate(eq1, eq2)


def test_exponent_sum_family_relator():
    ba = word(("b", 1), ("a", 1))
    a = word(("a", 1))
    b = word(("b", 1))
    for u in (-3, -1, 0, 2):
        for v in (0, 1, 3):
            rel = (
                ba ** (v + 1) * a * ba ** (-(v + 1)) * b ** (-(u + 1))
                * ba**-v * a * ba**v * b**u
            )
            assert rel.exponent_sum(A) == 2
            assert rel.exponent_sum(B) == -1


def test_is_positive_excluding():
    assert is_positive_excluding(word(("b", 3)), {A, B})
    # w at u = -2, v = 0 collapses to b^-1
    w = word(("b", -1)) ** 2 * word(("b", 1))
    assert w == word(("b", -1))
    assert not is_positive_excluding(w, {A, B})


def test_text_rendering():
    assert word(("b", 1), ("a", 1), ("b", -2), ("a", 1)).as_text() == "b a b^-2 a"
    assert Word().as_text() == "1"


def test_pairs_roundtrip():
    w = word(("b", 1), ("a", 1), ("b", -2), ("a", 1))
    assert Word.from_pairs(w.to_pairs()) == w
    assert w.to_pairs() == [["b", 1], ["a", 1], ["b", -2], ["a", 1]]


def test_pairs_reject_malformed_input():
    for bad in (5, [1, 2], [["a"]], [["a", 1.5]], [["a", "2"]], [["a", True]]):
        with pytest.raises(ValueError, match="pairs"):
            Word.from_pairs(bad)


@pytest.mark.parametrize("bad", ["", 5, None])
def test_generator_rejects_non_names(bad):
    with pytest.raises(ValueError, match="nonempty string"):
        Generator(bad)


def test_generator_is_its_name():
    g = Generator("alpha")
    assert type(g.name) is str and g.name == "alpha"
    assert Generator("a") == "a" and hash(Generator("a")) == hash("a")
    assert str(g) == "alpha" and f"{g}^2" == "alpha^2"
    names = ["xi", "b", "alpha", "a", "psi", "gamma"]
    assert sorted(map(Generator, names)) == sorted(names)
    assert Word.parse("b a") == Word([("b", 1), ("a", 1)])


_RUNS = st.lists(
    st.tuples(st.sampled_from(("a", "b", "g", "alpha", "delta7")), st.integers(-10**12, 10**12)),
    max_size=8,
)


@given(_RUNS)
def test_parse_inverts_as_text(pairs):
    w = word(*pairs)
    assert Word.parse(w.as_text()) == w


@given(_RUNS)
def test_text_runs_counts_the_runs_as_text_writes(pairs):
    w = word(*pairs)
    assert words.text_runs(w.as_text()) == len(w.runs)


def test_parse_examples():
    assert Word.parse("b a b^-2 a") == word(("b", 1), ("a", 1), ("b", -2), ("a", 1))
    assert Word.parse("1").is_identity
    assert Word.parse("a a^-1").is_identity


@pytest.mark.parametrize(
    "text", ["", "a^", "a^x", "^2", "a  b", " a", "a^1_0", "a^+3", "a^\uff13", "a^\t3", "a^2^3"]
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError, match="malformed word text"):
        Word.parse(text)


# -- randomized axioms ---------------------------------------------------------


def test_free_group_axioms_randomized():
    rng = random.Random(2024)
    gens = ABC
    for _ in range(1000):
        x = random_word(rng, gens)
        y = random_word(rng, gens)
        assert Word(x.runs) == x  # construction is idempotent reduction
        assert (x * x.inverse()).is_identity
        assert (x * y).inverse() == y.inverse() * x.inverse()
        for g in gens:
            assert (x * y).exponent_sum(g) == x.exponent_sum(g) + y.exponent_sum(g)


def test_substitute_distributes_over_multiply():
    rng = random.Random(99)
    gens = ABC
    targets = (Generator("x"), Generator("y"))
    for _ in range(300):
        mapping = {g: random_word(rng, targets, 6) for g in gens}
        x = random_word(rng, gens, 8)
        y = random_word(rng, gens, 8)
        assert (x * y).substitute(mapping) == x.substitute(mapping) * y.substitute(mapping)


def test_is_conjugate_equivalence_relation():
    rng = random.Random(5)
    gens = ABC
    for _ in range(100):
        w = random_word(rng, gens, 8)
        x = w.conjugate(random_word(rng, gens, 6))
        y = x.conjugate(random_word(rng, gens, 6))
        assert is_conjugate(w, w)
        assert is_conjugate(w, x) and is_conjugate(x, w)
        assert is_conjugate(w, x) and is_conjugate(x, y) and is_conjugate(w, y)


# -- run-length operations against a letter-level reference ---------------------


def _letters(w: Word) -> list[tuple[Generator, int]]:
    return [(g, 1 if e > 0 else -1) for g, e in w.runs for _ in range(abs(e))]


def _ref_cyclic_reduce(w: Word) -> tuple[Word, Word]:
    letters = _letters(w)
    i, j = 0, len(letters) - 1
    while i < j and letters[i][0] == letters[j][0] and letters[i][1] == -letters[j][1]:
        i += 1
        j -= 1
    return Word(letters[i : j + 1]), Word(letters[:i])


def _ref_is_conjugate(x: Word, y: Word) -> bool:
    lx, ly = _letters(_ref_cyclic_reduce(x)[0]), _letters(_ref_cyclic_reduce(y)[0])
    n = len(lx)
    return n == len(ly) and (n == 0 or any((ly + ly)[k : k + n] == lx for k in range(n)))


def _ref_pow(w: Word, n: int) -> Word:
    return Word(_letters(w if n >= 0 else w.inverse()) * abs(n))


def _ref_substitute(w: Word, mapping) -> Word:
    out = []
    for g, e in _letters(w):
        image = _letters(mapping[g])
        out.extend(image if e > 0 else [(h, -s) for h, s in reversed(image)])
    return Word(out)


@st.composite
def _word_pairs(draw):
    names = ("a", "b", "c")[: draw(st.integers(1, 3))]
    runs = st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from((-3, -2, -1, 1, 2, 3))), max_size=7
    )
    x = word(*draw(runs))
    choice = draw(st.sampled_from(("conjugate", "rotate", "inverse", "free")))
    if choice == "conjugate":
        y = x.conjugate(word(*draw(runs)))
    elif choice == "rotate" and x.runs:
        cut = draw(st.integers(0, len(x.runs) - 1))
        y = Word(x.runs[cut:] + x.runs[:cut])
    elif choice == "inverse":
        y = x.inverse()
    else:
        y = word(*draw(runs))
    return x, y


@st.composite
def _mappings(draw):
    """Images of a, b and c: one multi-run, one conjugated, one the identity."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    multi = random_nonempty_word(rng, ABC, 8)
    conjugated = random_nonempty_word(rng, ABC, 4).conjugate(random_word(rng, ABC, 4))
    images = [multi, conjugated, Word()]
    rng.shuffle(images)
    return dict(zip(ABC, images))


@given(_word_pairs(), st.integers(-6, 6), _mappings())
def test_run_operations_match_letter_reference(pair, n, mapping):
    x, y = pair
    assert x.cyclic_reduce() == _ref_cyclic_reduce(x)
    assert is_conjugate(x, y) == _ref_is_conjugate(x, y)
    assert x**n == _ref_pow(x, n)
    assert x.substitute(mapping) == _ref_substitute(x, mapping)


def test_run_operations_never_expand_letters(monkeypatch):
    def refuse(self):
        raise AssertionError("letters() expanded a word")

    monkeypatch.setattr(Word, "letters", refuse)
    samples = [
        Word(),
        word(("a", 5)),
        word(("b", 2), ("a", -3), ("b", -1)),
        word(("a", 2), ("b", 1), ("a", -1)),
        word(("b", 1), ("a", 1), ("b", -2), ("a", 1)),
        word(("c", -1), ("a", 2), ("b", 3), ("a", 1), ("c", 1)),
    ]
    for x in samples:
        core, conj = x.cyclic_reduce()
        assert conj * core * conj.inverse() == x
        for y in samples:
            is_conjugate(x, y)
        for n in (-3, -1, 0, 1, 2):
            x**n
    mapping = {
        A: word(("b", 2), ("c", -1), ("a", 3)),
        B: word(("a", 4)).conjugate(word(("c", 1), ("b", -2))),
        C: Word(),
    }
    for x in samples:
        assert x.substitute(mapping) == _ref_substitute(x, mapping)


def test_common_cases_skip_the_seam_path(monkeypatch):
    # a product with no seam, a one-run power and images that never meet are
    # built in one step; only a seam that merges or cancels goes through _join
    def refuse(*args):
        raise AssertionError("the general path ran for a common case")

    ab, ca, a2 = word(("a", 1), ("b", 2)), word(("c", -1), ("a", 3)), word(("a", 2))
    apart = {A: word(("x", 1), ("y", 1)), B: word(("z", 2)), C: word(("y", -1), ("x", 1))}
    x = word(("a", 1), ("b", 1), ("c", 1), ("a", -1), ("b", 3))  # x y z^2 y^-1 x y^-1 x^-1 z^6
    cases = [
        (lambda: ab * ca, Word(_letters(ab) + _letters(ca))),
        (lambda: ab * Word(), ab),
        (lambda: Word() * ab, ab),
        (lambda: a2**0, Word()),
        (lambda: a2**2, word(("a", 4))),
        (lambda: a2**-2, word(("a", -4))),
        (lambda: a2 ** 10**30, word(("a", 2 * 10**30))),
        (lambda: x.substitute(apart), _ref_substitute(x, apart)),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(words, "_join", refuse)
        for operation, expected in cases:
            assert operation() == expected
    unit = word(("a", 1), ("b", -1), ("c", 1), ("a", -1), ("b", 1))
    expected = _ref_substitute(unit, _SEAM_MAPPING)
    with monkeypatch.context() as patch:
        patch.setattr(Word, "__pow__", refuse)
        assert unit.substitute(_SEAM_MAPPING) == expected
    for w in (Word(), a2, ab, word(("a", 2), ("b", 1), ("a", 1))):  # nothing peels
        assert w.cyclic_reduce()[0] is w


# -- operations reduce only where two reduced run lists meet ----------------------


def _is_reduced(w: Word) -> bool:
    runs = w.runs
    return (
        type(runs) is tuple
        and all(e != 0 for _, e in runs)
        and all(runs[k][0] != runs[k + 1][0] for k in range(len(runs) - 1))
    )


X, Y, Z = Generator("x"), Generator("y"), Generator("z")
_SEAM_SAMPLES = [
    Word(),
    word(("a", 5)),
    word(("x", 1), ("y", 1)),
    word(("y", -1), ("x", -1), ("z", 1)),
    word(("a", 1), ("b", 1), ("a", 1)),  # a core whose ends share a generator
    word(("a", 2), ("b", 1), ("a", -1)),  # conjugator a, core a b: they merge where they meet
    word(("b", 2), ("a", -3), ("b", -1)),
    word(("y", 2), ("x", 3), ("c", 4)),
    word(("c", -1), ("a", 2), ("b", 3), ("a", 1), ("c", 1)),
]
_SEAM_MAPPING = {
    A: word(("a", 1), ("b", 1)),
    B: word(("b", 2), ("c", -1), ("b", 1)),  # ends share a generator
    C: Word(),  # the identity image contributes nothing
    X: word(("c", 1), ("a", 1), ("b", 1), ("c", -1)),  # c (a b) c^-1
    Y: word(("c", 1), ("b", -1), ("a", -1), ("c", -1)),  # c (a b)^-1 c^-1
    Z: word(("a", 2), ("b", 1), ("a", -1)),
}


def _seam_cases():
    """``(operation, expected)``: the letter-reference results of every operation on
    the samples, and cases that cancel or merge across a seam, with hand results."""
    cases = []
    for x in _SEAM_SAMPLES:
        cases.append((x.inverse, Word([(g, -s) for g, s in reversed(_letters(x))])))
        cases.append((x.cyclic_reduce, _ref_cyclic_reduce(x)))
        cases.append((lambda x=x: x.substitute(_SEAM_MAPPING), _ref_substitute(x, _SEAM_MAPPING)))
        for n in range(-3, 4):
            cases.append((lambda x=x, n=n: x**n, _ref_pow(x, n)))
        for y in _SEAM_SAMPLES:
            cases.append((lambda x=x, y=y: x * y, Word(_letters(x) + _letters(y))))
            cases.append((lambda x=x, y=y: is_conjugate(x, y), _ref_is_conjugate(x, y)))
    xy, yxz, aba, yyxxxcccc = (_SEAM_SAMPLES[k] for k in (2, 3, 4, 7))
    yxx, ca, b = word(("y", 1), ("x", 2)), word(("c", 4), ("a", -1)), word(("b", 1))
    a2, a3, ab = word(("a", 2)), word(("a", 3)), word(("a", 1), ("b", 1))
    bc, four = Word.parse("b^-1 c"), Word.parse("a b^2 c^-1 a^3")
    return cases + [
        (lambda: xy * yxz, word(("z", 1))),  # cancels past the seam
        # the conjugator, then the core's first copy (first two copies) cancel wholly into y's image
        (lambda: yxx.substitute(_SEAM_MAPPING), Word.parse("c a b c^-1")),
        (lambda: yyxxxcccc.substitute(_SEAM_MAPPING), Word.parse("c a b c^-1")),
        (lambda: aba**3, Word.parse("a b a^2 b a^2 b a")),
        (lambda: aba**-2, Word.parse("a^-1 b^-1 a^-2 b^-1 a^-1")),
        (lambda: b.substitute(_SEAM_MAPPING) ** 2, Word.parse("b^2 c^-1 b^3 c^-1 b")),
        (lambda: aba**0, Word()),
        (lambda: ca.substitute(_SEAM_MAPPING), Word.parse("b^-1 a^-1")),
        # the edges of the fast paths: a seam that merges, one that cancels a run and
        # stops, one that cancels everything, and one-run powers at n = 0 and a huge n
        (lambda: a2 * a3, Word.parse("a^5")),
        (lambda: ab * bc, Word.parse("a c")),
        (lambda: four * four.inverse(), Word()),
        (lambda: a2 * a2.inverse(), Word()),
        (lambda: a3**0, Word()),
        (lambda: a3 ** 10**30, word(("a", 3 * 10**30))),
    ]


def test_operations_reduce_only_at_seams(monkeypatch):
    # every expected result is built first; after the patch, only operations on
    # words that are already reduced run, and none may reduce a whole run list again
    cases = _seam_cases()

    def refuse(pairs):
        raise AssertionError("an operation re-reduced runs that were already reduced")

    monkeypatch.setattr(words, "_reduce_runs", refuse)
    for operation, expected in cases:
        got = operation()
        assert got == expected
        for w in got if isinstance(got, tuple) else (got,):
            assert not isinstance(w, Word) or _is_reduced(w), w.runs


def test_only_the_public_constructor_reduces():
    callers = set()
    for path in Path(words.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_reduce_runs":
                        callers.add((path.stem, func.name))
    assert callers == {("words", "__init__")}


def test_only_words_calls_generator():
    # outside data becomes generators only through Word(pairs); Presentation
    # maps its names through the same class, and everything else passes names
    callers = set()
    for path in Path(words.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Generator":
                callers.add(path.stem)
    assert callers == {"words"}


def test_word_checks_outside_pairs():
    assert Word([("a", 1)]).as_text() == "a"
    assert all(type(g) is Generator for g, _ in word(("a", 2), (G, 1)).runs)
    assert Generator(G) is G
    for build in (lambda: word(("a", 0.5)), lambda: word(("a", True)), lambda: Word([("a", 0.0)])):
        with pytest.raises(ValueError, match="pairs"):
            build()
    for build in (lambda: Word([(5, 1)]), lambda: word(("", 0)), lambda: Word([(None, 2)])):
        with pytest.raises(ValueError, match="generator name must be a nonempty string"):
            build()


@given(_RUNS)
def test_word_and_from_pairs_agree(pairs):
    w = Word(pairs)
    assert w == Word.from_pairs(pairs) == Word.from_pairs([list(p) for p in pairs])
    assert w == word(*pairs)


def test_word_run_cap_is_exact(monkeypatch):
    monkeypatch.setattr(words, "MAX_WORD_RUNS", 10)
    ab, aba = word(("a", 1), ("b", 1)), word(("a", 1), ("b", 1), ("a", 1))
    assert (len((ab**5).runs), len((aba**-4).runs)) == (10, 9)  # a b a^2 b ... a: 2n + 1 runs
    assert len(word(("x", 5)).substitute({X: ab}).runs) == 10
    for build in (lambda: ab**6, lambda: aba**-5, lambda: word(("x", -6)).substitute({X: ab}),
                  lambda: word(("x", 3), ("y", 3)).substitute({X: ab, Y: aba})):
        with pytest.raises(ValueError, match="over the cap of 10"):
            build()
    assert word(("a", 10**18)) ** 3 == word(("a", 3 * 10**18))  # one run is no repetition


def test_is_conjugate_matches_rotation_oracle_on_periodic_words():
    # powers of short cores repeat the same few runs, so the one-character
    # spelling of runs meets many partial matches before the right rotation
    rng = random.Random(12)
    agreed = conjugate = 0
    for _ in range(400):
        core = random_nonempty_word(rng, ABC[:2], 4)
        x = core ** rng.randint(1, 8) * random_word(rng, ABC[:2], 3)
        choice = rng.randrange(4)
        if choice == 0 and x.runs:
            cut = rng.randrange(len(x.runs))
            y = Word(x.runs[cut:] + x.runs[:cut])
        elif choice == 1:
            y = x.conjugate(random_word(rng, ABC, 5))
        elif choice == 2:
            y = core ** rng.randint(1, 8) * random_word(rng, ABC[:2], 3)
        else:
            # x with one letter moved: the same letters, mostly in another cyclic order
            letters = _letters(x)
            if letters:
                moved = letters.pop(rng.randrange(len(letters)))
                letters.insert(rng.randrange(len(letters) + 1), moved)
            y = Word(letters)
        expected = _ref_is_conjugate(x, y)
        assert is_conjugate(x, y) == expected, (x, y)
        agreed += 1
        conjugate += expected
    assert 100 <= conjugate <= agreed - 100


def test_is_conjugate_is_linear_in_runs():
    # comparing each of n rotations took 7.5 s at 32,000 runs; the spelled
    # substring search takes milliseconds
    ab, a2b2 = word(("a", 1), ("b", 1)), word(("a", 2), ("b", 2))
    x = ab**16000 * a2b2**2
    rotated = a2b2 * ab**16000 * a2b2
    shuffled = ab**8000 * a2b2 * ab**8000 * a2b2  # the same runs, not a rotation
    start = time.process_time()
    assert is_conjugate(x, rotated)
    assert not is_conjugate(x, shuffled)
    assert not is_conjugate(ab**16000 * word(("a", 2)), ab**16000 * word(("b", 2)))
    assert time.process_time() - start < 1.0


def test_is_conjugate_run_cap_is_exact(monkeypatch):
    monkeypatch.setattr(words, "MAX_CONJUGATE_RUNS", 4)
    ab = word(("a", 1), ("b", 1))
    assert is_conjugate(ab**2, word(("b", 1)) * ab * word(("a", 1)))
    with pytest.raises(ValueError, match="at most 4 runs"):
        is_conjugate(ab**3, ab**3)
    # different run counts are told apart without spelling either word
    assert not is_conjugate(ab**3, ab**2)


N_HUGE = 10**18


def test_huge_exponent_conjugacy_and_cyclic_reduce():
    # each of these would list 10^18 letters if runs were expanded
    b = word(("b", 1))
    a_n = word(("a", N_HUGE))
    w = a_n.conjugate(b)
    assert is_conjugate(w, a_n)
    assert not is_conjugate(w, word(("a", N_HUGE - 1)))
    assert w.cyclic_reduce() == (a_n, b)
    peeled = word(("a", N_HUGE), ("b", 1), ("a", 1 - N_HUGE))
    assert peeled.cyclic_reduce() == (word(("a", 1), ("b", 1)), word(("a", N_HUGE - 1)))


def test_huge_exponent_powers():
    b = word(("b", 1))
    w = word(("a", N_HUGE)).conjugate(b)
    assert w**3 == word(("a", 3 * N_HUGE)).conjugate(b)
    assert w**-2 == word(("a", -2 * N_HUGE)).conjugate(b)
    ab = word(("a", N_HUGE), ("b", -N_HUGE))
    assert ab**2 == word(("a", N_HUGE), ("b", -N_HUGE), ("a", N_HUGE), ("b", -N_HUGE))
    c = word(("b", 1), ("c", -2))
    mapping = {Generator("x"): word(("a", 1)).conjugate(c)}
    assert word(("x", N_HUGE)).substitute(mapping) == word(("a", N_HUGE)).conjugate(c)
    mapping = {Generator("x"): word(("a", N_HUGE)).conjugate(c)}
    assert word(("x", -3)).substitute(mapping) == word(("a", -3 * N_HUGE)).conjugate(c)
