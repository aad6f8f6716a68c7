import random

from twistknot.presentations import Presentation
from twistknot.words import Generator, Word


def random_word(rng: random.Random, gens, max_len: int = 12) -> Word:
    length = rng.randrange(max_len + 1)
    return Word((rng.choice(gens), rng.choice((-1, 1))) for _ in range(length))


def random_nonempty_word(rng: random.Random, gens, max_len: int = 12) -> Word:
    while True:
        w = random_word(rng, gens, max_len)
        if not w.is_identity:
            return w


def sparse_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """An ``m x n`` integer matrix, entries in [-3, 3], about a third of them zero."""
    return [
        [0 if rng.random() < 1 / 3 else rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
        for _ in range(m)
    ]


def random_presentation(rng: random.Random, gens: int, rels: int) -> tuple[Presentation, dict]:
    """A presentation on ``x0 .. x(gens-1)`` whose relator ``i`` is the product of
    ``xj^e`` over row ``i`` of ``sparse_matrix(rng, rels, gens)``, so that row is
    its exponent sums; returned with its JSON for ``h1 --presentation``."""
    names = tuple(f"x{j}" for j in range(gens))
    rows = sparse_matrix(rng, rels, gens)
    data = {
        "generators": list(names),
        "relators": [[[g, e] for g, e in zip(names, row) if e] for row in rows],
    }
    return Presentation.from_json(data), data


def conjugate_relator(p: Presentation, index: int, by: Word) -> Presentation:
    """Tietze move: replace relator ``index`` by its conjugate ``by r by^-1``."""
    rels = list(p.relators)
    rels[index] = rels[index].conjugate(by)
    return Presentation(p.generators, tuple(rels))


def invert_relator(p: Presentation, index: int) -> Presentation:
    """Tietze move: replace relator ``index`` by its inverse."""
    rels = list(p.relators)
    rels[index] = rels[index].inverse()
    return Presentation(p.generators, tuple(rels))


def twisted_torus_braid(u: int, v: int) -> list[int]:
    """The 3-braid ``(s1 s2)^(3v+2) s1^(2u)``, whose closure is the family member
    T(3, 3v+2; 2, u) (Dean, AGT 3, 2003), as letters ``i`` for ``s_i`` and ``-i``
    for its inverse."""
    return [1, 2] * (3 * v + 2) + [1 if u > 0 else -1] * (2 * abs(u))


ABC = (Generator("a"), Generator("b"), Generator("c"))
