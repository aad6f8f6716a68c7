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


ABC = (Generator("a"), Generator("b"), Generator("c"))
