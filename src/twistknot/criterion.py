"""Slope criterion for non-left-orderable surgery fundamental groups.

A two-generator, one-relator presentation is pattern-matched against the
shape ``(w1 a^m w1^-1) b^-r (w2^-1 a^n w2) b^(r-k)`` with ``m, n, k >= 0``;
together with a longitude of the form ``a^-s w a^-t`` whose middle word ``w``
excludes ``a^-1`` and ``b^-1``, every surgery slope ``p/q`` with ``q != 0``
and ``p/q >= s + t`` is certified to yield a non-left-orderable fundamental
group.  Below the bound the criterion is silent (verdict ``Unknown``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .presentations import Presentation
from .twisted_torus import KnotGroupModel, TwistParams, closed_form
from .words import Generator, Word, is_positive_excluding


class CriterionError(ValueError):
    pass


@dataclass(frozen=True)
class ITShape:
    """One decomposition of a relator into the criterion shape."""

    a: Generator
    b: Generator
    m: int
    n: int
    r: int
    k: int
    w1: Word
    w2: Word

    def reconstruct(self) -> Word:
        a = Word(((self.a, 1),))
        b = Word(((self.b, 1),))
        return (
            self.w1 * a**self.m * self.w1.inverse()
            * b ** (-self.r)
            * self.w2.inverse() * a**self.n * self.w2
            * b ** (self.r - self.k)
        )

    def to_json(self) -> dict:
        return {
            "a": self.a.name,
            "b": self.b.name,
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "w1": self.w1.to_pairs(),
            "w2": self.w2.to_pairs(),
            "text": {"w1": self.w1.as_text(), "w2": self.w2.as_text()},
        }


@dataclass(frozen=True)
class LongitudeForm:
    """Longitude split as ``a^-s w a^-t`` plus the positivity of ``w``."""

    s: int
    t: int
    w: Word
    w_positive: bool

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "w": self.w.to_pairs(),
            "w_text": self.w.as_text(),
            "w_positive": self.w_positive,
        }


@dataclass(frozen=True)
class Slope:
    """A surgery slope ``p/q`` in lowest terms; ``q`` is normalized >= 0."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p == 0 and self.q == 0:
            raise CriterionError("slope 0/0 is not a slope")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise CriterionError(f"slope {self.p}/{self.q} is not in lowest terms")
        if self.q < 0 or (self.q == 0 and self.p < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)

    def as_fraction(self) -> Fraction:
        if self.q == 0:
            raise CriterionError("1/0 filling has no rational value")
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


# -- shape matching ----------------------------------------------------------


def _conjugated_power_table(letters, gen):
    """Exponents m for substrings cyclically reducing to ``gen^m``.

    Keys are ``(i, j)`` index pairs into ``letters`` (half-open); absent keys
    mean the substring is not a conjugated power of ``gen``.  Empty substrings
    count with m = 0.
    """
    total = len(letters)
    table: dict[tuple[int, int], int] = {(i, i): 0 for i in range(total + 1)}
    for i in range(total):
        if letters[i][0] == gen:
            sign = letters[i][1]
            j = i + 1
            while j < total and letters[j][0] == gen:
                j += 1
            for stop in range(i + 1, j + 1):
                table[(i, stop)] = sign * (stop - i)
    for length in range(2, total + 1):
        for i in range(0, total - length + 1):
            j = i + length
            if (i, j) in table:
                continue
            gi, si = letters[i]
            gj, sj = letters[j - 1]
            if gi == gj and si == -sj and (i + 1, j - 1) in table:
                table[(i, j)] = table[(i + 1, j - 1)]
    return table


def _peel_conjugator(letters, i, j) -> Word:
    """Conjugator prefix of a substring known to be a conjugated power."""
    lo, hi = i, j - 1
    prefix = []
    while lo < hi and letters[lo][0] == letters[hi][0] and letters[lo][1] == -letters[hi][1]:
        prefix.append(letters[lo])
        lo += 1
        hi -= 1
    return Word(prefix)


def match_it_shape(p: Presentation) -> list[ITShape]:
    """All decompositions of the relator into the criterion shape.

    The cyclically reduced relator is scanned over every rotation, both
    inversions and both generator-role assignments; decompositions violating
    ``m, n, k >= 0`` are discarded.  Conjugators are canonical (cyclically
    reduced), so each is determined up to the stray powers of ``a`` that a
    conjugating word may absorb.  Sorted by ``|w1| + |w2|`` ascending.
    """
    if len(p.generators) != 2:
        raise CriterionError(
            f"shape matching requires exactly 2 generators, got {len(p.generators)}"
        )
    if len(p.relators) != 1:
        raise CriterionError(
            f"shape matching requires exactly 1 relator, got {len(p.relators)}"
        )
    core, _ = p.relators[0].cyclic_reduce()
    if len(core.generator_set()) < 2:
        return []
    g0, g1 = p.generators
    found: set[tuple] = set()
    shapes: list[ITShape] = []
    for a, b in ((g0, g1), (g1, g0)):
        for variant in (core, core.inverse()):
            letters = variant.letters()
            size = len(letters)
            doubled = letters + letters
            table = _conjugated_power_table(doubled, a)
            for start in range(size):
                stop = start + size
                # suffix candidates for the trailing pure-b block
                p3_list = [stop]
                while p3_list[-1] > start and doubled[p3_list[-1] - 1][0] == b:
                    p3_list.append(p3_list[-1] - 1)
                for p3 in p3_list:
                    signed_b2 = sum(s for _, s in doubled[p3:stop])
                    for p1 in range(start, p3 + 1):
                        m = table.get((start, p1))
                        if m is None or m < 0:
                            continue
                        p2 = p1
                        while True:
                            n = table.get((p2, p3))
                            if n is not None and n >= 0:
                                signed_b1 = sum(s for _, s in doubled[p1:p2])
                                r = -signed_b1
                                k = r - signed_b2
                                if k >= 0:
                                    w1 = _peel_conjugator(doubled, start, p1)
                                    w2 = _peel_conjugator(doubled, p2, p3).inverse()
                                    key = (a.name, m, n, r, k, w1.runs, w2.runs)
                                    if key not in found:
                                        found.add(key)
                                        shapes.append(ITShape(a, b, m, n, r, k, w1, w2))
                            if p2 < p3 and doubled[p2][0] == b:
                                p2 += 1
                            else:
                                break
    shapes.sort(
        key=lambda s: (
            len(s.w1) + len(s.w2),
            s.m,
            s.n,
            s.r,
            s.k,
            s.w1.as_text(),
            s.w2.as_text(),
            s.a.name,
        )
    )
    return shapes


# -- longitude form and the decision ------------------------------------------


def parse_longitude(x: Word, a: Generator = Generator("a")) -> LongitudeForm:
    """Split a reduced word as ``a^-s w a^-t`` with maximal outer a-runs."""
    runs = x.runs
    if len(runs) < 3 or runs[0][0] != a or runs[-1][0] != a:
        raise CriterionError(
            "word does not have the form a^-s w a^-t with a nonempty middle"
        )
    s = -runs[0][1]
    t = -runs[-1][1]
    w = Word(runs[1:-1])
    forbidden = w.generator_set() | {a}
    return LongitudeForm(s=s, t=t, w=w, w_positive=is_positive_excluding(w, forbidden))


@dataclass(frozen=True)
class Verdict:
    kind: str  # "GuaranteedNonLO" | "NotApplicable" | "Unknown"
    reason: Optional[str] = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "reason": self.reason}


def decide(shape: Optional[ITShape], form: LongitudeForm, slope: Slope) -> Verdict:
    """Evaluate the criterion's hypotheses in order for one slope.

    ``NotApplicable`` names the first failed hypothesis; ``Unknown`` means all
    hypotheses hold but the slope is below the bound, where the criterion says
    nothing.
    """
    if slope.q == 0:
        return Verdict("NotApplicable", "q = 0")
    if shape is None:
        return Verdict("NotApplicable", "no decomposition of the relator in the required shape")
    if shape.m < 0 or shape.n < 0:
        return Verdict("NotApplicable", "m, n must be >= 0")
    if shape.k < 0:
        return Verdict("NotApplicable", "k must be >= 0")
    if not form.w_positive:
        return Verdict("NotApplicable", "w not positive")
    if slope.as_fraction() >= form.s + form.t:
        return Verdict("GuaranteedNonLO")
    return Verdict("Unknown")


@dataclass(frozen=True)
class CriterionReport:
    """Full criterion evaluation for one family member and slope."""

    params: TwistParams
    slope: Slope
    shape: Optional[ITShape]
    s_paper: int
    s_corrected: int
    t: int
    bound_paper: int
    bound_corrected: int
    longitude_used: str
    w: Word
    w_positive_blocks: bool
    w_positive_reduced: bool
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "u": self.params.u,
            "v": self.params.v,
            "slope": {"p": self.slope.p, "q": self.slope.q},
            "shape": self.shape.to_json() if self.shape else None,
            "s_paper": self.s_paper,
            "s_corrected": self.s_corrected,
            "t": self.t,
            "bound_paper": self.bound_paper,
            "bound_corrected": self.bound_corrected,
            "longitude_used": self.longitude_used,
            "w": self.w.to_pairs(),
            "w_text": self.w.as_text(),
            "w_positive_blocks": self.w_positive_blocks,
            "w_positive_reduced": self.w_positive_reduced,
            "verdict": self.verdict.to_json(),
        }


def _family_setup(
    params: TwistParams, use: str
) -> tuple[KnotGroupModel, Optional[ITShape], LongitudeForm]:
    """Closed-form model, its first meridian-rooted shape, and its longitude form.

    Only decompositions whose a-role is the meridian generator qualify, since
    the criterion reads the longitude against that generator.  Positivity is
    judged on the block form of ``w`` (negative block exponent exactly when
    u <= -2); for v >= 1 and u = -2 free reduction happens to cancel the
    inverse letters, so the reduced word would be a weaker witness.
    """
    model = closed_form(params)
    form = LongitudeForm(
        s=model.s_value(use), t=model.t, w=model.w, w_positive=model.w_blocks_positive
    )
    (meridian_gen, _), = model.meridian.runs
    shapes = [s for s in match_it_shape(model.presentation) if s.a == meridian_gen]
    return model, (shapes[0] if shapes else None), form


def check_family_slope(
    params: TwistParams, slope: Slope, use: str = "paper"
) -> CriterionReport:
    """Match the family member's relator and decide one slope."""
    model, shape, form = _family_setup(params, use)
    a = model.presentation.generators[0]
    return CriterionReport(
        params=params,
        slope=slope,
        shape=shape,
        s_paper=model.s_paper,
        s_corrected=model.s_corrected,
        t=model.t,
        bound_paper=model.s_paper + model.t,
        bound_corrected=model.s_corrected + model.t,
        longitude_used=use,
        w=model.w,
        w_positive_blocks=model.w_blocks_positive,
        w_positive_reduced=is_positive_excluding(
            model.w, model.w.generator_set() | {a}
        ),
        verdict=decide(shape, form, slope),
    )


def minimal_integer_bound(params: TwistParams, use: str = "paper") -> int:
    """Smallest integer slope certified non-left-orderable for this member.

    The verdict is monotone in the slope, so the answer is the bound ``s + t``
    itself whenever the criterion applies at all.
    """
    if params.u <= -2:
        raise CriterionError(
            f"the longitude's block word is not positive for u = {params.u} <= -2"
        )
    _, shape, form = _family_setup(params, use)
    bound = form.s + form.t
    if decide(shape, form, Slope(bound, 1)).kind != "GuaranteedNonLO":
        raise CriterionError("no certified integer slope found near the bound")
    return bound
