"""Exact free-group word algebra.

Words are stored in run-length encoded, freely reduced normal form and are
immutable, so every equality test is a normal-form comparison and values can
be shared freely between threads.  Exponents are plain Python integers and
therefore unbounded; nothing in this module can silently overflow.

Outside data enters through one door, ``Word(pairs)`` (``word``, ``from_pairs``
and ``parse`` all pass through it), which checks every name and exponent and
freely reduces the runs once.  Every operation here builds its result from
runs that are already reduced, so it cancels or merges only at the seam where
two reduced run lists meet: the product of two reduced words reduces there
and nowhere else (Lyndon-Schupp, *Combinatorial Group Theory*, I.1).

Each operation takes its common case in one step and leaves the rest to the
general seam and cyclic paths.  Two reduced run lists whose seam neither
merges nor cancels (the left list's last generator differs from the right
list's first, or one list is empty) concatenate to a reduced list, so such a
product is one tuple concatenation; a word of one run raised to ``n`` is the
one run ``(g, e*n)``; and ``substitute`` reads the image of ``x^1`` and
``x^-1`` from the map or its inverse.

``**`` and ``substitute`` repeat a multi-run core ``|n|`` times, so they
refuse, with a ``ValueError`` and before allocating, to build a word of more
than ``MAX_WORD_RUNS`` runs.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable, Mapping, Sequence

#: the most runs ``**`` or ``substitute`` builds; a word of 10^6 runs with
#: distinct exponents holds about 100 MiB
MAX_WORD_RUNS = 10**6

#: the most cyclic runs ``is_conjugate`` compares; it spells each distinct run
#: as one character, so a word must not need more than there are code points
MAX_CONJUGATE_RUNS = sys.maxunicode


class SubstitutionError(ValueError):
    """A substitution map is missing a generator that occurs in the word."""


class Record:
    """Base of the package's small frozen records, without ``dataclasses``.

    A subclass's annotated names are its fields, in order (``_fields``), and a
    class attribute is a field's default; defaults come last.  The fields go
    into the instance's ``__dict__`` in one update, then ``__post_init__``
    runs and may normalize them with ``object.__setattr__``.  Setting or
    deleting an attribute raises ``AttributeError``.  Records compare and hash
    by their field values, and records of different classes are never equal.
    ``to_json`` is the one rule that writes a record as JSON.
    """

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()  # the trailing fields' defaults, in order
    _field_set: frozenset = frozenset()
    #: a record of a class that sets this writes its fields into its parent's JSON
    #: object, in place of the field that holds it
    _inline = False

    def __init_subclass__(cls) -> None:
        fields = cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(fields)
        cls._defaults = tuple(vars(cls)[f] for f in fields if f in vars(cls))
        if not all(f in vars(cls) for f in fields[len(fields) - len(cls._defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with")

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if not kwargs and len(args) == len(fields):  # every field given by position
            self.__dict__.update(zip(fields, args))
        elif not args and kwargs.keys() == self._field_set:  # every field named
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(self._bind(args, kwargs))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict):
        """``(field, value)`` pairs from a call that leaves fields to their
        defaults or names some of them; ``TypeError`` on a field missing,
        unknown or given twice, or too many arguments."""
        fields, defaults = self._fields, self._defaults
        if not kwargs and 0 < len(fields) - len(args) <= len(defaults):
            return zip(fields, args + defaults[len(args) - len(fields):])
        values = dict(zip(fields[len(fields) - len(defaults):], defaults))
        values.update(zip(fields, args))
        values.update(kwargs)
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(fields)}); "
                            f"got {len(args)} positional argument(s) and keywords {sorted(kwargs)}")
        return values

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def to_json(self) -> dict:
        """JSON form: each field under its own name, a ``Word`` as its
        ``[name, exponent]`` pairs, a record as its ``to_json()`` and a tuple
        as a list."""
        out: dict = {}
        for field, value in zip(self._fields, self._values()):
            if isinstance(value, Record) and value._inline:
                out.update(value.to_json())
            else:
                out[field] = _json(value)
        return out

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Generator(str):
    """A named free-group generator.

    A generator is its name: a nonempty ``str`` that compares, hashes and
    sorts exactly as that name, so ``Generator("a") == "a"`` and a plain name
    may stand wherever a generator is looked up.  Run merging, dict lookups
    and sorting therefore compare at C level.  ``Generator(g)`` is ``g`` when
    ``g`` already is a generator.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Generator":
        if type(name) is Generator:
            return name
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


_PAIRS = "a word must be a list of [generator name, integer exponent] pairs"

#: the exponents ``as_text`` writes, the only ones ``parse`` reads
_EXPONENT = re.compile(r"-?[0-9]+")


def _reduce_runs(pairs: Iterable[tuple[str, int]]) -> tuple[tuple[Generator, int], ...]:
    """Check each name and exponent, then merge adjacent runs of the same
    generator and drop zero exponents."""
    out: list[tuple[Generator, int]] = []
    for gen, exp in pairs:
        if type(gen) is not Generator:
            gen = Generator(gen)
        if type(exp) is not int and not is_integer(exp):
            raise ValueError(_PAIRS)
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


def _join(out: list[tuple[Generator, int]], runs: Sequence[tuple[Generator, int]]) -> None:
    """Append the reduced ``runs`` to the reduced run list ``out``, cancelling or
    merging only where the two meet."""
    if not out or not runs or out[-1][0] != runs[0][0]:
        out.extend(runs)
        return
    i = 0
    while out and i < len(runs) and out[-1][0] == runs[i][0]:
        gen, merged = runs[i][0], out.pop()[1] + runs[i][1]
        i += 1
        if merged:
            out.append((gen, merged))
            break
    out.extend(runs[i:])


def _over_cap(runs: int) -> ValueError:
    return ValueError(f"word too long: up to {runs} runs, over the cap of {MAX_WORD_RUNS}")


def _inverse_runs(runs: Sequence[tuple[Generator, int]]) -> tuple[tuple[Generator, int], ...]:
    return tuple([(g, -e) for g, e in reversed(runs)])


def _cyclic(core: tuple[tuple[Generator, int], ...]) -> tuple[tuple[Generator, int], ...]:
    """A cyclically reduced core read around the circle from its last run, which
    merges into the first when they are two runs of one generator (and so, the
    core being cyclically reduced, of one sign)."""
    if len(core) < 2 or core[0][0] != core[-1][0]:
        return core[-1:] + core[:-1]
    return ((core[0][0], core[-1][1] + core[0][1]),) + core[1:-1]


class Word:
    """A freely reduced word, the identity when empty.

    ``Word(pairs)`` takes ``(name, exponent)`` pairs, names plain or already
    ``Generator``; ``ValueError`` on a name that is no nonempty string or an
    exponent that is no integer."""

    __slots__ = ("runs",)

    def __init__(self, pairs: Iterable[tuple[str, int]] = ()) -> None:
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
        return sum([abs(e) for _, e in self.runs])

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
        return " ".join([gen if exp == 1 else f"{gen}^{exp}" for gen, exp in self.runs])

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        left, right = self.runs, other.runs
        if not right:
            return self
        if not left:
            return other
        if left[-1][0] != right[0][0]:  # no seam: the concatenation is reduced
            return _reduced(left + right)
        out = list(left)
        _join(out, right)
        return _reduced(tuple(out))

    def inverse(self) -> "Word":
        return _reduced(_inverse_runs(self.runs))

    def __pow__(self, n: int) -> "Word":
        """``c core^n c^-1`` for ``self == c core c^-1``, joined at the seams.

        ``ValueError``, before anything is built, if ``n`` is not an integer
        (``bool`` included) or a core of two or more runs would be repeated
        into more than ``MAX_WORD_RUNS`` runs."""
        if type(n) is not int and not is_integer(n):
            raise ValueError(_PAIRS)
        if n == 1:
            return self
        if len(self.runs) == 1:
            gen, exp = self.runs[0]
            return _reduced(((gen, exp * n),) if n else ())
        if n == -1:
            return self.inverse()
        core, conj = self.cyclic_reduce()
        core = core.runs if n > 0 else _inverse_runs(core.runs)
        n = abs(n)
        if not n or not core:
            return _reduced(())
        if len(core) == 1:
            body = ((core[0][0], core[0][1] * n),)
        else:
            # each copy after the first adds the core read around the circle:
            # (x^p M x^q)^n = x^p M (x^(p+q) M)^(n-1) x^q
            cyclic = _cyclic(core)
            size = 2 * len(conj.runs) + len(core) + len(cyclic) * (n - 1)
            if size > MAX_WORD_RUNS:
                raise _over_cap(size)
            body = core[:-1] + cyclic * (n - 1) + core[-1:]
        if not conj.runs:
            return _reduced(body)
        out = list(conj.runs)
        _join(out, body)
        _join(out, _inverse_runs(conj.runs))
        return _reduced(tuple(out))

    def conjugate(self, by: "Word") -> "Word":
        """Return ``by * self * by^-1``."""
        return by * self * by.inverse()

    def substitute(self, mapping: Mapping[Generator, "Word"]) -> "Word":
        """Image under the homomorphism sending each generator to its value.

        Each distinct run ``x^e`` is raised to its image ``x_image ** e`` once per
        call (``x_image`` or its inverse for ``e = ±1``), and the images are
        joined onto one run list, which reduces only where they meet.
        ``ValueError`` if the image could hold more than ``MAX_WORD_RUNS`` runs.
        """
        images: dict[tuple[Generator, int], tuple] = {}
        out: list[tuple[Generator, int]] = []
        for run in self.runs:
            image = images.get(run)
            if image is None:
                gen, exp = run
                if gen not in mapping:
                    raise SubstitutionError(f"no image given for generator {gen.name!r}")
                if exp == 1:
                    image = mapping[gen].runs
                elif exp == -1:
                    image = _inverse_runs(mapping[gen].runs)
                else:
                    image = (mapping[gen] ** exp).runs
                images[run] = image
            if len(out) + len(image) > MAX_WORD_RUNS:
                raise _over_cap(len(out) + len(image))
            if out and image and out[-1][0] == image[0][0]:
                _join(out, image)
            else:
                out.extend(image)
        return _reduced(tuple(out))

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
        return sum([e for g, e in self.runs if g == gen])

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return ``(core, conjugator)`` with ``self == conjugator * core * conjugator^-1``
        and ``core`` cyclically reduced."""
        runs = self.runs
        if len(runs) < 2 or runs[0][0] != runs[-1][0] or (runs[0][1] > 0) == (runs[-1][1] > 0):
            return self, _reduced(())  # the end runs do not cancel
        runs = list(runs)
        i, j = 0, len(runs) - 1
        peeled: list[tuple[Generator, int]] = []
        while i < j and runs[i][0] == runs[j][0] and (runs[i][1] > 0) != (runs[j][1] > 0):
            # the end runs cancel; the shorter one goes whole, the longer one shrinks
            (gen, first), (_, last) = runs[i], runs[j]
            step = first if abs(first) <= abs(last) else -last
            peeled.append((gen, step))
            runs[i], runs[j] = (gen, first - step), (gen, last + step)
            i, j = i + (runs[i][1] == 0), j - (runs[j][1] == 0)
        # both are reduced by construction: a slice of reduced runs whose end runs only
        # shrank, and peeled runs that alternate generators
        return _reduced(tuple(runs[i : j + 1])), _reduced(tuple(peeled))

    def to_pairs(self) -> list[list]:
        """JSON form: list of ``[name, exponent]`` pairs."""
        return [[g.name, e] for g, e in self.runs]

    @staticmethod
    def from_pairs(pairs: Sequence[Sequence]) -> "Word":
        """Inverse of ``to_pairs``; ``ValueError`` on anything but ``[name, int]`` pairs."""
        if not isinstance(pairs, list | tuple) or not all(
            isinstance(p, list | tuple) and len(p) == 2 for p in pairs
        ):
            raise ValueError(_PAIRS)
        return Word(pairs)

    @staticmethod
    def parse(text: str) -> "Word":
        """Inverse of ``as_text``: ``"b a b^-2 a"`` -> Word, ``"1"`` -> identity.

        An exponent is ASCII ``-?[0-9]+``; ``ValueError`` on any other text."""
        if text == "1":
            return Word()
        tokens = [token.partition("^") for token in text.split(" ")]
        if all(_EXPONENT.fullmatch(exp) for _, caret, exp in tokens if caret):
            try:
                return Word((name, int(exp) if caret else 1) for name, caret, exp in tokens)
            except ValueError:  # an empty name, or more digits than int() reads
                pass
        raise ValueError(f"malformed word text {text!r}")


def _json(value):
    """A record field's JSON form, by ``Record.to_json``'s rule."""
    if isinstance(value, Word):
        return value.to_pairs()
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    return value


_set_runs = Word.runs.__set__  # the slot's own setter, past Word.__setattr__


def _reduced(runs: tuple[tuple[Generator, int], ...]) -> Word:
    """The word over ``runs``, which the caller guarantees are freely reduced."""
    w = object.__new__(Word)
    _set_runs(w, runs)
    return w


def word(*pairs: tuple[str, int]) -> Word:
    """``Word(pairs)``, the pairs given as arguments."""
    return Word(pairs)


def is_conjugate(x: Word, y: Word) -> bool:
    """Free-group conjugacy: equal cyclic run lists (see ``_cyclic``) up to
    rotation.

    Each distinct run of ``x`` is spelled as one character, so the rotation
    test is a linear-time substring search of ``x`` in ``y`` read twice.
    Cores of more than ``MAX_CONJUGATE_RUNS`` runs are refused with a
    ``ValueError``."""
    rx, ry = (_cyclic(w.cyclic_reduce()[0].runs) for w in (x, y))
    if len(rx) != len(ry):
        return False
    if len(rx) > MAX_CONJUGATE_RUNS:
        raise ValueError(f"is_conjugate takes words of at most {MAX_CONJUGATE_RUNS} runs")
    letter: dict[tuple[Generator, int], str] = {}
    for run in rx:
        letter.setdefault(run, chr(len(letter)))
    try:
        spell_y = "".join([letter[run] for run in ry])
    except KeyError:  # y has a run that x lacks
        return False
    return "".join([letter[run] for run in rx]) in spell_y + spell_y


def is_positive_excluding(x: Word, forbidden_inverses: Iterable[Generator]) -> bool:
    """True iff no run of ``x`` carries a negative exponent on a forbidden generator."""
    banned = set(forbidden_inverses)
    return all(not (g in banned and e < 0) for g, e in x.runs)
