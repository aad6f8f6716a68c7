"""Finite presentations: Tietze moves, integral homology, Alexander polynomials.

Homology is computed from the Smith normal form of the abelianized relator
matrix over exact integers.  Every round of the elimination re-picks its pivot
(smallest nonzero absolute value, ties broken row-major), which keeps the
entries small and the outputs identical across runs.

The Alexander polynomial of ``<x, y | r>`` with H1 infinite cyclic under
``phi`` is ``(dr/dx)^phi (t - 1) / (t^phi(y) - 1)`` up to a unit (Fox 1953;
Crowell-Fox, ch. VII), an exact division computed in one dense pass.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from math import prod
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .words import Generator, Record, Word, is_conjugate


class PresentationError(ValueError):
    pass


#: Most Fox terms, and widest height span, that ``alexander_polynomial`` expands;
#: it takes a step per Fox term and holds a list entry per height, and a span
#: of 10^6 already peaks near 360 MiB.
MAX_FOX_TERMS = 10**6


class Presentation(Record):
    """Generators plus relators; relators are stored freely reduced.  Generators
    may be given as plain names; they are stored as ``Generator``s.

    A presentation keeps the Smith form of its abelianized relator matrix once
    it is first read (``_abelianization``), so ``h1_classes``, ``homology``
    and ``alexander_polynomial`` on one presentation compute it once.  It is
    no field: equality, hashing, ``repr`` and JSON never see it, and it goes
    with the presentation.
    """

    generators: tuple[Generator, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(map(Generator, self.generators)))
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            raise PresentationError("duplicate generator")
        for rel in self.relators:
            undeclared = rel.generator_set() - declared
            if undeclared:
                names = ", ".join(sorted(g.name for g in undeclared))
                raise PresentationError(f"relator uses undeclared generator(s): {names}")

    @staticmethod
    def from_json(data: Mapping) -> "Presentation":
        if not isinstance(data, Mapping) or not all(
            isinstance(data.get(key), list) for key in ("generators", "relators")
        ):
            raise PresentationError('a presentation needs "generators" and "relators" lists')
        rels = tuple(Word.from_pairs(p) for p in data["relators"])
        return Presentation(tuple(data["generators"]), rels)

    @cached_property
    def _abelianization(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]:
        """``(diag, U, rank)``: the Smith form of the transposed relator matrix
        (columns index relators), read in one pass over each relator's runs,
        and the number of nonzero invariant factors."""
        row_of = {g: i for i, g in enumerate(self.generators)}
        columns = [[0] * len(self.relators) for _ in self.generators]
        for j, rel in enumerate(self.relators):
            for g, e in rel.runs:
                columns[row_of[g]][j] += e
        diag, u = smith_normal_form(columns)
        return tuple(diag), tuple(map(tuple, u)), sum(1 for d in diag if d)


def add_relators(p: Presentation, rs: Iterable[Word]) -> Presentation:
    """Append relators, preserving order."""
    return Presentation(p.generators, p.relators + tuple(rs))


def tietze_eliminate(p: Presentation, gen: str, defining: Word) -> Presentation:
    """Remove the generator named ``gen``, rewriting every relator with ``gen := defining``.

    Exactly one relator equivalent (up to conjugacy and inversion) to
    ``gen * defining^-1`` is consumed; when several qualify the first in
    stored order is taken.
    """
    if gen not in p.generators:
        raise PresentationError(f"generator {gen!r} not present")
    if gen in defining.generator_set():
        raise PresentationError(f"defining word for {gen!r} mentions it")
    target = Word(((gen, 1),)) * defining.inverse()
    consumed = None
    for i, rel in enumerate(p.relators):
        if is_conjugate(rel, target) or is_conjugate(rel, target.inverse()):
            consumed = i
            break
    if consumed is None:
        raise PresentationError(
            f"no relator expresses {gen!r} as the given defining word"
        )
    mapping = {g: Word(((g, 1),)) for g in p.generators if g != gen}
    mapping[gen] = defining
    new_gens = tuple(g for g in p.generators if g != gen)
    new_rels = tuple(
        rel.substitute(mapping) for i, rel in enumerate(p.relators) if i != consumed
    )
    return Presentation(new_gens, new_rels)


# -- Smith normal form -----------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[int], list[list[int]]]:
    """Return ``(diag, U)``, U unimodular, such that a unimodular V makes
    ``U * matrix * V`` diagonal with ``diag`` on its diagonal.

    ``diag`` lists the nonnegative invariant factors in divisibility order,
    padded with zeros up to ``min(m, n)``.  Only the row transform is kept:
    H1 reads its classes through U, and the column moves that V would record
    act on the pivot row alone.

    Each round moves the smallest nonzero entry of the block not yet diagonal
    to the block's corner and divides it into its column, and only then into
    its row.  A remainder goes round again with a strictly smaller pivot; an
    entry the pivot does not divide has its row added to the pivot row, which
    leaves one.  Refining one pivot in place instead lets the entries grow
    exponentially (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    """
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    a = [list(row) for row in matrix]
    u = _identity(m)
    t = 0
    while True:
        best = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                entry = abs(row[j])
                if entry and (entry < best or not best):
                    best, pi, pj = entry, i, j
        if not best:
            break
        a[t], a[pi] = a[pi], a[t]
        u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        top = a[t]
        p = top[t]
        for i in range(t + 1, m):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], top)]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        # a unit pivot leaves no remainder and divides every entry
        if best > 1 and any(row[t] for row in a[t + 1:]):
            continue
        # the rest of column t is zero, so a column move changes row t only:
        # column j less (top[j] // p) times column t leaves top[j] % p there
        top[t + 1:] = [x % p for x in top[t + 1:]]
        if any(top[t + 1:]):
            continue
        for i in range(t + 1, m):
            if best > 1 and any(x % p for x in a[i][t + 1:]):
                a[t] = [x + y for x, y in zip(top, a[i])]
                u[t] = [x + y for x, y in zip(u[t], u[i])]
                break
        else:
            if p < 0:
                a[t] = [-x for x in top]
                u[t] = [-x for x in u[t]]
            t += 1
    diag = [a[i][i] for i in range(min(m, n))]
    # canonical sign for the quotient's free coordinates
    for i in range(t, m):
        lead = next((x for x in u[i] if x), 0)
        if lead < 0:
            u[i] = [-x for x in u[i]]
    return diag, u


class HomologySummary(Record):
    """Invariant factors (> 1, in divisibility order) and free rank of H1."""

    torsion_orders: tuple[int, ...]
    free_rank: int

    @property
    def torsion_order_product(self) -> int:
        return prod(self.torsion_orders)

    def to_json(self) -> dict:
        return {"torsion": list(self.torsion_orders), "rank": self.free_rank}


def homology(p: Presentation) -> HomologySummary:
    """Abelianization of the presented group as an abstract abelian group."""
    diag, _, rank = p._abelianization
    torsion = tuple(d for d in diag if d > 1)
    return HomologySummary(torsion, len(p.generators) - rank)


def h1_classes(p: Presentation) -> Callable[[Word], tuple[int, ...]]:
    """The map sending a word to its class in H1, from one abelianization of ``p``.

    Classes are coordinates in the Smith normal form basis: torsion
    coordinates (reduced into ``[0, d)``) come first, matching
    ``HomologySummary.torsion_orders``; free coordinates follow.  A preferred
    longitude of a knot in the 3-sphere must map to all zeros.  A word's
    exponent sums are read in one pass over its runs.
    """
    diag, u, rank = p._abelianization

    def classify(x: Word) -> tuple[int, ...]:
        # keyed by generator in declared order, so its values line up with U's columns
        exps = dict.fromkeys(p.generators, 0)
        try:
            for g, e in x.runs:
                exps[g] += e
        except KeyError:
            names = ", ".join(sorted(g.name for g in x.generator_set() - exps.keys()))
            raise PresentationError(f"word uses undeclared generator(s): {names}") from None
        image = [sum(map(mul, row, exps.values())) for row in u]
        torsion_coords = [image[i] % diag[i] for i in range(rank) if diag[i] > 1]
        return tuple(torsion_coords + image[rank:])

    return classify


def class_in_h1(p: Presentation, x: Word) -> tuple[int, ...]:
    """Image of ``x`` in H1, as ``h1_classes`` gives it."""
    return h1_classes(p)(x)


# -- Laurent polynomials and the Alexander polynomial -----------------------


class LaurentPolynomial:
    """Integer Laurent polynomial in one variable ``t``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> None:
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if c:
                acc[exp] = acc.get(exp, 0) + c
                if not acc[exp]:
                    del acc[exp]
        object.__setattr__(self, "coeffs", dict(sorted(acc.items())))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("LaurentPolynomial is immutable")

    @staticmethod
    def one() -> "LaurentPolynomial":
        return LaurentPolynomial({0: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs.items()))

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(acc)

    def divexact(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division; raises ``ValueError`` on a nonzero remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial()
        shift_n = min(self.coeffs)
        shift_d = min(other.coeffs)
        rem = {e - shift_n: c for e, c in self.coeffs.items()}
        den = {e - shift_d: c for e, c in other.coeffs.items()}
        deg_d = max(den)
        lead_d = den[deg_d]
        quo: dict[int, int] = {}
        while rem:
            deg_r = max(rem)
            if deg_r < deg_d:
                break
            lead_r = rem[deg_r]
            if lead_r % lead_d:
                raise ValueError("inexact Laurent division")
            q = lead_r // lead_d
            quo[deg_r - deg_d] = q
            for e, c in den.items():
                k = e + deg_r - deg_d
                rem[k] = rem.get(k, 0) - q * c
                if not rem[k]:
                    del rem[k]
        if rem:
            raise ValueError("inexact Laurent division")
        return LaurentPolynomial({e + shift_n - shift_d: c for e, c in quo.items()})

    def normalized(self) -> "LaurentPolynomial":
        """Fix the unit: lowest exponent 0 and positive leading coefficient."""
        if self.is_zero():
            return self
        low = min(self.coeffs)
        shifted = {e - low: c for e, c in self.coeffs.items()}
        if shifted[max(shifted)] < 0:
            shifted = {e: -c for e, c in shifted.items()}
        return LaurentPolynomial(shifted)

    def as_text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.coeffs.items():
            if e == 0:
                term = str(abs(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                term = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"coefficients": [[e, c] for e, c in self.coeffs.items()], "text": self.as_text()}

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.as_text()!r})"


def alexander_polynomial(p: Presentation) -> LaurentPolynomial:
    """Alexander polynomial of a deficiency-one knot group presentation.

    Accepts one generator with no relators, or two generators with one
    relator and H1 infinite cyclic; normalized up to the unit ``+-t^k``
    (lowest exponent 0, positive leading coefficient).
    """
    if len(p.generators) == 1 and not p.relators:
        return LaurentPolynomial.one()
    if len(p.generators) != 2 or len(p.relators) != 1:
        raise PresentationError(
            "Alexander polynomial requires a 2-generator, 1-relator presentation"
        )
    diag, u, rank = p._abelianization
    if rank != 1 or diag[0] != 1:
        raise PresentationError("presentation does not have H1 infinite cyclic")
    # the free coordinate of each generator, as class_in_h1 gives it
    phi = dict(zip(p.generators, u[rank]))
    g0, g1 = p.generators
    x, y = (g0, g1) if phi[g1] else (g1, g0)
    rel = p.relators[0]
    terms = sum(abs(e) for g, e in rel.runs if g == x)
    heights = list(accumulate((e * phi[g] for g, e in rel.runs), initial=0))
    low = min(heights)
    span = max(heights) - low
    if max(terms, span) > MAX_FOX_TERMS:
        raise PresentationError(
            f"Alexander polynomial needs {terms} Fox terms over a height span of {span};"
            f" the limit is {MAX_FOX_TERMS}"
        )
    # fox[h]: coefficient of t^(low + h) in the abelianized d rel / dx.  The run
    # x^e at height h adds |e| terms phi(x) apart, from h for e > 0 and from
    # h + e*phi(x) for e < 0, so all lie within the span; the top entry stays 0
    step = phi[x]
    fox = [0] * (span + 2)
    for (g, e), h in zip(rel.runs, heights):
        if g == x:
            sign, start = (1, h - low) if e > 0 else (-1, h - low + e * step)
            for i in range(abs(e)):
                fox[start + i * step] += sign
    # fox * (t - 1) / (t^k - 1), where t^phi(y) - 1 is t^k - 1 times a unit:
    # q[j] = q[j - k] + fox[j] - fox[j - 1] is one running sum per residue
    # class mod k, and the division is exact iff its top k entries vanish
    k = abs(phi[y])
    q = [c - prev for prev, c in zip([0, *fox], fox)]
    for r in range(k):
        q[r::k] = accumulate(q[r::k])
    if any(q[-k:]):
        raise ValueError(f"inexact division by t^{k} - 1")
    # normalized as it is built: zeros trimmed at both ends, top coefficient positive
    low = next((i for i, c in enumerate(q) if c), 0)
    high = len(q) - next((i for i, c in enumerate(reversed(q)) if c), len(q))
    q = q[low:high]
    return LaurentPolynomial(enumerate(q if not q or q[-1] > 0 else [-c for c in q]))
