"""Exact free-group word algebra.

Words are stored in run-length encoded, freely reduced normal form and are
immutable, so every equality test is a normal-form comparison and values can
be shared freely between threads.  Exponents are plain Python integers and
therefore unbounded; nothing in this module can silently overflow.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


class SubstitutionError(ValueError):
    """A substitution map is missing a generator that occurs in the word."""


class Generator(str):
    """A named free-group generator.

    A generator is its name: a nonempty ``str`` that compares, hashes and
    sorts exactly as that name, so ``Generator("a") == "a"``.  Run merging,
    dict lookups and sorting therefore compare at C level.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Generator":
        if not is_name(name):
            raise ValueError("generator name must be a nonempty string")
        return super().__new__(cls, name)

    @property
    def name(self) -> str:
        return str(self)


def is_name(value) -> bool:
    """True for a nonempty string, the only JSON value that may name something."""
    return isinstance(value, str) and bool(value)


def is_integer(value) -> bool:
    """True for an ``int`` that is not a ``bool`` (JSON ``true`` is no integer)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reduce_runs(pairs: Iterable[tuple[Generator, int]]) -> tuple[tuple[Generator, int], ...]:
    """Merge adjacent runs of the same generator and drop zero exponents."""
    out: list[tuple[Generator, int]] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


class Word:
    """A freely reduced word, the identity when empty."""

    __slots__ = ("runs",)

    def __init__(self, pairs: Iterable[tuple[Generator, int]] = ()) -> None:
        object.__setattr__(self, "runs", _reduce_runs(pairs))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Word is immutable")

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.runs == other.runs

    def __hash__(self) -> int:
        # computed on demand: words are built far more often than hashed
        return hash(self.runs)

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.runs)

    def __bool__(self) -> bool:
        return bool(self.runs)

    @property
    def is_identity(self) -> bool:
        return not self.runs

    def __repr__(self) -> str:
        return f"Word({self.as_text()!r})"

    def as_text(self) -> str:
        """Plain-text form, e.g. ``b a b^-2 a``; ``1`` for the identity."""
        if not self.runs:
            return "1"
        parts = []
        for gen, exp in self.runs:
            parts.append(gen.name if exp == 1 else f"{gen.name}^{exp}")
        return " ".join(parts)

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.runs + other.runs)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.runs)))

    def __pow__(self, n: int) -> "Word":
        """``c core^n c^-1`` for ``self == c core c^-1``, in one reduction."""
        core, conj = self.cyclic_reduce()
        if len(core.runs) == 1:
            body = ((core.runs[0][0], core.runs[0][1] * n),)
        else:
            body = (core if n >= 0 else core.inverse()).runs * abs(n)
        return Word(conj.runs + body + conj.inverse().runs)

    def conjugate(self, by: "Word") -> "Word":
        """Return ``by * self * by^-1``."""
        return by * self * by.inverse()

    def substitute(self, mapping: Mapping[Generator, "Word"]) -> "Word":
        """Image under the homomorphism sending each generator to its value.

        Each image ``c core c^-1`` is cyclically reduced once per call; a run
        ``x^e`` then contributes ``c core^e c^-1`` to one list of runs, and the
        whole image is freely reduced in a single pass.
        """
        parts: dict[Generator, tuple] = {}
        out: list[tuple[Generator, int]] = []
        for gen, exp in self.runs:
            part = parts.get(gen)
            if part is None:
                if gen not in mapping:
                    raise SubstitutionError(f"no image given for generator {gen.name!r}")
                core, conj = mapping[gen].cyclic_reduce()
                part = parts[gen] = (
                    core.runs, core.inverse().runs, conj.runs, conj.inverse().runs
                )
            core_runs, core_inverse, conj_runs, conj_inverse = part
            out.extend(conj_runs)
            if len(core_runs) == 1:
                out.append((core_runs[0][0], core_runs[0][1] * exp))
            else:
                out.extend((core_runs if exp > 0 else core_inverse) * abs(exp))
            out.extend(conj_inverse)
        return Word(out)

    # -- structure ---------------------------------------------------------

    def letters(self) -> list[tuple[Generator, int]]:
        """Expand runs into single letters with exponent +1 or -1."""
        out: list[tuple[Generator, int]] = []
        for gen, exp in self.runs:
            step = 1 if exp > 0 else -1
            out.extend((gen, step) for _ in range(abs(exp)))
        return out

    def generator_set(self) -> set[Generator]:
        return {g for g, _ in self.runs}

    def exponent_sum(self, gen: Generator) -> int:
        return sum(e for g, e in self.runs if g == gen)

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return ``(core, conjugator)`` with ``self == conjugator * core * conjugator^-1``
        and ``core`` cyclically reduced."""
        runs = list(self.runs)
        i, j = 0, len(runs) - 1
        peeled: list[tuple[Generator, int]] = []
        while i < j and runs[i][0] == runs[j][0] and (runs[i][1] > 0) != (runs[j][1] > 0):
            # the end runs cancel; the shorter one goes whole, the longer one shrinks
            (gen, first), (_, last) = runs[i], runs[j]
            step = first if abs(first) <= abs(last) else -last
            peeled.append((gen, step))
            runs[i], runs[j] = (gen, first - step), (gen, last + step)
            i, j = i + (runs[i][1] == 0), j - (runs[j][1] == 0)
        return Word(runs[i : j + 1]), Word(peeled)

    def to_pairs(self) -> list[list]:
        """JSON form: list of ``[name, exponent]`` pairs."""
        return [[g.name, e] for g, e in self.runs]

    @staticmethod
    def from_pairs(pairs: Sequence[Sequence]) -> "Word":
        """Inverse of ``to_pairs``; ``ValueError`` on anything but ``[name, int]`` pairs."""
        if not isinstance(pairs, list | tuple) or not all(
            isinstance(p, list | tuple) and len(p) == 2 and is_name(p[0]) and is_integer(p[1])
            for p in pairs
        ):
            raise ValueError("a word must be a list of [generator name, integer exponent] pairs")
        return Word((Generator(name), exp) for name, exp in pairs)

    @staticmethod
    def parse(text: str) -> "Word":
        """Inverse of ``as_text``: ``"b a b^-2 a"`` -> Word, ``"1"`` -> identity."""
        if text == "1":
            return Word()
        pairs = []
        for token in text.split(" "):
            name, caret, exp = token.partition("^")
            try:
                pairs.append((Generator(name), int(exp) if caret else 1))
            except ValueError:
                raise ValueError(f"malformed word text {text!r}") from None
        return Word(pairs)


def word(*pairs: tuple[str | Generator, int]) -> Word:
    """Build a word from ``(generator, exponent)`` pairs; names are accepted."""
    return Word((g if isinstance(g, Generator) else Generator(g), e) for g, e in pairs)


def is_conjugate(x: Word, y: Word) -> bool:
    """Free-group conjugacy: equal cyclic run lists up to rotation.  Read around
    the circle, a core's last run merges into its first when they share a
    generator (and so, the core being cyclically reduced, a sign)."""
    cyclic = []
    for w in (x, y):
        runs = list(w.cyclic_reduce()[0].runs)
        if len(runs) > 1 and runs[0][0] == runs[-1][0]:
            runs[0] = (runs[0][0], runs[0][1] + runs.pop()[1])
        cyclic.append(runs)
    rx, ry = cyclic
    n = len(rx)
    return n == len(ry) and (n == 0 or any(ry[k:] + ry[:k] == rx for k in range(n)))


def is_positive_excluding(x: Word, forbidden_inverses: Iterable[Generator]) -> bool:
    """True iff no run of ``x`` carries a negative exponent on a forbidden generator."""
    banned = set(forbidden_inverses)
    return all(not (g in banned and e < 0) for g, e in x.runs)
