"""Slope criterion for non-left-orderable surgery fundamental groups.

A two-generator, one-relator presentation is pattern-matched against the
shape ``(w1 a^m w1^-1) b^-r (w2^-1 a^n w2) b^(r-k)`` with ``m, n, k >= 0``;
together with a longitude of the form ``a^-s w a^-t`` whose middle word ``w``
excludes ``a^-1`` and ``b^-1``, every surgery slope ``p/q`` with ``q != 0``
and ``p/q >= s + t`` is certified to yield a non-left-orderable fundamental
group.  Below the bound the criterion is silent (verdict ``Unknown``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache
from math import gcd
from operator import itemgetter
from typing import Optional

from .presentations import Presentation
from .twisted_torus import KnotGroupModel, TwistParams, closed_form
from .words import (
    MAX_CONJUGATE_RUNS,
    Generator,
    Record,
    Word,
    is_conjugate,
    is_integer,
    is_positive_excluding,
)


#: shape matching expands the relator into single letters and indexes every
#: rotation; past this many letters it is refused (``check-slope`` at the cap,
#: u = 0: about 3.5 s and 160 MiB on a 2-vCPU host).  ``minimal_integer_bound``
#: never reaches it: it checks the closed-form witness, run by run, instead
MAX_SHAPE_LETTERS = 10**5


class CriterionError(ValueError):
    pass


class ITShape(Record):
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
        """The record rule's keys plus ``text``, ``w1`` and ``w2`` as text."""
        return {**super().to_json(), "text": {"w1": self.w1.as_text(), "w2": self.w2.as_text()}}


class Slope(Record):
    """A surgery slope ``p/q`` in lowest terms; ``q`` is normalized >= 0."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (is_integer(self.p) and is_integer(self.q)):
            raise CriterionError(f"p and q must be integers, got {self.p!r} and {self.q!r}")
        if self.p == 0 and self.q == 0:
            raise CriterionError("slope 0/0 is not a slope")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise CriterionError(f"slope {self.p}/{self.q} is not in lowest terms")
        if self.q < 0 or (self.q == 0 and self.p < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)


# -- shape matching ----------------------------------------------------------


def _power_index(letters, a, limit):
    """Where the substrings ``c a^m c^-1`` with ``m >= 0`` lie in ``letters``.

    Returns ``(run_end, mirrors, ending)``, built in one pass over the
    positive a-runs.  ``[i, j)`` with ``i <= j <= run_end[i]`` is a piece
    ``a^(j - i)`` of a run with an empty ``c`` (the empty piece included).
    Every other one extends a whole run ``[s, s + m)`` by ``s - i`` letters on
    each side, with ``c = letters[i:s]``; it is listed as ``(m, s)`` in
    ``mirrors[i][j]`` and as ``i`` in ``ending[j]``, kept sorted.  Lengths
    stop at ``limit``.  Negative powers are left out, since the shape needs
    ``m, n >= 0``.
    """
    total = len(letters)
    run_end = list(range(total + 1))
    mirrors: list[dict[int, tuple[int, int]]] = [{} for _ in range(total + 1)]
    ending: list[list[int]] = [[] for _ in range(total + 1)]
    for s in reversed(range(total)):
        if letters[s] != (a, 1):
            continue
        run_end[s] = run_end[s + 1]
        if s and letters[s - 1] == (a, 1):
            continue
        i, j = s - 1, run_end[s]
        while i >= 0 and j < min(total, i + limit) and letters[i] == (letters[j][0], -letters[j][1]):
            mirrors[i][j + 1] = (run_end[s] - s, s)
            ending[j + 1].append(i)
            i, j = i - 1, j + 1
    for starts in ending:
        starts.sort()
    return run_end, mirrors, ending


def _shape_core(p: Presentation) -> Word:
    """The relator of ``p``, cyclically reduced: the one door to shape matching.

    ``CriterionError`` unless ``p`` has two generators and one relator, and,
    before the relator is expanded into letters, when its core has more than
    ``MAX_SHAPE_LETTERS`` letters.
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
    letters = sum(abs(e) for _, e in core.runs)
    if letters > MAX_SHAPE_LETTERS:
        raise CriterionError(
            f"relator has {letters} letters; shape matching takes at most {MAX_SHAPE_LETTERS}"
        )
    return core


def _cuts(core: Word, a: Generator, b: Generator, wanted=None):
    """Every cut of ``core`` into the criterion shape with a-role ``a``.

    Each is yielded as ``(key, b, w1, w2)``, where ``key`` is the sort key
    ``(|w1| + |w2|, m, n, r, k, w1 text, w2 text, a)`` and holds the exponents;
    a shape may be yielded more than once.  Every rotation of the core and of
    its inverse is cut as ``X b^-r Y b^(r-k)``.  ``X`` and ``Y`` are conjugated
    powers ``c a^m c^-1`` with ``m >= 0``, read from one index of the letters;
    the b-blocks are stretches of ``b`` letters, so ``r`` and ``k`` are sign
    times length, and cuts with ``k < 0`` are dropped.  A core in one
    generator yields nothing.

    The integer part of the key is read from positions: a conjugator spans a
    window of at most one rotation of the cyclically reduced core, which is
    already freely reduced, so its length is the window's.  ``wanted``, when
    given, is asked with a lower bound of the keys it stands for, compared as
    tuples (a prefix sorts before the key): with ``(|w1|,)`` before the ``Y``
    candidates of an ``X`` are walked, and with the integer key
    ``(|w1| + |w2|, m, n, r, k)`` before a cut's conjugators are built.  What
    it refuses is skipped.  Each conjugator is built and spelled once per
    slice of the letters.
    """
    if len(core.generator_set()) < 2:
        return
    for variant in (core, core.inverse()):
        letters = variant.letters()
        size = len(letters)
        doubled = letters + letters
        run_end, mirrors, ending = _power_index(doubled, a, size)

        @cache
        def left(i, s):
            w = Word(doubled[i:s])
            return w, w.as_text()

        @cache
        def right(i, s):
            w = Word(doubled[i:s]).inverse()
            return w, w.as_text()

        b_end = list(range(2 * size + 1))  # end of the stretch of b letters from i
        for i in reversed(range(2 * size)):
            if doubled[i][0] == b:
                b_end[i] = b_end[i + 1]
        for start in range(size):
            stop = start + size
            xs = sorted(
                [(p1, p1 - start, start) for p1 in range(start, run_end[start] + 1)]
                + [(p1, m, s1) for p1, (m, s1) in mirrors[start].items()]
            )
            for p3 in range(stop, start - 1, -1):
                if b_end[p3] < stop:
                    break
                signed_b2 = (stop - p3) * doubled[p3][1]
                ends = ending[p3]
                for p1, m, s1 in xs:
                    if wanted is not None and not wanted((s1 - start,)):
                        continue
                    # X = [start, p1) never reaches the b letters [p3, stop): it
                    # would end in one, so begin with its inverse, next to the b
                    # letter at start - 1, which a cyclically reduced core rules out.
                    # Y = [p2, p3) follows the b letters [p1, p2): a piece of an
                    # a-run can start only at p1 or where they end, and every
                    # other power that ends at p3 is listed in ending[p3]
                    last = min(b_end[p1], p3)
                    inner = ends[bisect_right(ends, p1) : bisect_left(ends, last)]
                    for p2 in (p1, *inner, last) if p1 < last else (p1,):
                        y = (p3 - p2, p2) if p3 <= run_end[p2] else mirrors[p2].get(p3)
                        r = -(p2 - p1) * doubled[p1][1]
                        k = r - signed_b2
                        if y is None or k < 0:
                            continue
                        n, s2 = y
                        length = s1 - start + s2 - p2
                        if wanted is not None and not wanted((length, m, n, r, k)):
                            continue
                        w1, text1 = left(start, s1)
                        w2, text2 = right(p2, s2)
                        yield (length, m, n, r, k, text1, text2, a), b, w1, w2


def _shape(cut) -> ITShape:
    (_, m, n, r, k, _, _, a), b, w1, w2 = cut
    return ITShape(a, b, m, n, r, k, w1, w2)


def match_it_shape(p: Presentation) -> list[ITShape]:
    """All decompositions of the relator into the criterion shape.

    Every rotation of the cyclically reduced relator, both inversions and
    both generator roles are cut as ``X b^-r Y b^(r-k)`` (see ``_cuts``).  The
    cost grows with the number of shapes, quadratic in ``u`` for a family
    member.  Conjugators are canonical (cyclically reduced), so each is
    determined up to the stray powers of ``a`` that a conjugating word may
    absorb.  Sorted by ``|w1| + |w2|``, then ``m``, ``n``, ``r``, ``k``, the
    texts of ``w1`` and ``w2``, and the name of ``a``, each ascending.
    ``CriterionError`` on a cyclically reduced relator of more than
    ``MAX_SHAPE_LETTERS`` letters.
    """
    core = _shape_core(p)
    g0, g1 = p.generators
    # a word's text names it unless a generator name holds a space or a caret,
    # so the runs tell shapes apart; ties keep the order they were found in
    found: dict[tuple, tuple] = {}
    for a, b in ((g0, g1), (g1, g0)):
        for cut in _cuts(core, a, b):
            key, _, w1, w2 = cut
            found.setdefault((key, w1.runs, w2.runs), cut)
    return [_shape(cut) for cut in sorted(found.values(), key=itemgetter(0))]


def _best_cut(core: Word, a: Generator, b: Generator) -> Optional[ITShape]:
    """The first shape with a-role ``a`` that ``match_it_shape`` would list.

    The cuts stream by and only the one with the least key is kept, the first
    found on a full tie, as ``min`` would keep it.  A cut whose integer key
    exceeds the best key so far cannot win, so its conjugators are never
    built, and an ``X`` whose ``|w1|`` alone exceeds the best ``|w1| + |w2|``
    is skipped before its ``Y`` candidates are walked; texts are compared
    only between cuts whose integer keys tie.
    """
    best = None

    def wanted(bound):
        return best is None or bound <= best[0]

    for cut in _cuts(core, a, b, wanted):
        if best is None or cut[0] < best[0]:
            best = cut
    return _shape(best) if best else None


# -- the decision ------------------------------------------------------------


class Verdict(Record):
    kind: str  # "GuaranteedNonLO" | "NotApplicable" | "Unknown"
    reason: Optional[str] = None


def decide(shape: Optional[ITShape], w_positive: bool, bound: int, slope: Slope) -> Verdict:
    """Evaluate the criterion's hypotheses in order for one slope.

    ``w_positive`` is the positivity of ``w`` in the longitude ``a^-s w a^-t``
    and ``bound`` is ``s + t``.  ``NotApplicable`` names the first failed
    hypothesis; ``Unknown`` means all hypotheses hold but the slope is below
    the bound, where the criterion says nothing.
    """
    if slope.q == 0:
        return Verdict("NotApplicable", "q = 0")
    if shape is None:
        return Verdict("NotApplicable", "no decomposition of the relator in the required shape")
    if shape.m < 0 or shape.n < 0:
        return Verdict("NotApplicable", "m, n must be >= 0")
    if shape.k < 0:
        return Verdict("NotApplicable", "k must be >= 0")
    if not w_positive:
        return Verdict("NotApplicable", "w not positive")
    if slope.p >= bound * slope.q:  # p/q >= bound, as q > 0
        return Verdict("GuaranteedNonLO")
    return Verdict("Unknown")


class CriterionReport(Record):
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
        """The record rule's keys plus ``w_text``, ``w`` as text."""
        return {**super().to_json(), "w_text": self.w.as_text()}


def _family_setup(params: TwistParams, use: str) -> tuple[KnotGroupModel, int]:
    """Closed-form model and its bound ``s + t``; ``use`` is checked here."""
    model = closed_form(params)
    return model, model.s_value(use) + model.t


def _family_witness(model: KnotGroupModel) -> Optional[ITShape]:
    """The closed form's meridian-rooted shape, returned only if it checks out.

    The shape is ``m = n = k = 1``, ``r = -(u+1)``, ``w1 = (a^-1 b^-1)^v``,
    ``w2 = (b^-1 a^-1)^v``, so it rebuilds ``(ba)^-v a (ba)^v b^(u+1)
    (ab)^v a (ab)^-v b^-(u+2)``.  As ``(ba)^(v+1) = b (ab)^v a``, the relator
    ``(ba)^(v+1) a (ba)^-(v+1) b^-(u+1) (ba)^-v a (ba)^v b^u`` rotated to start
    at ``b^u`` is ``b^(u+1) (ab)^v a (ab)^-v b^-(u+2) (ba)^-v a (ba)^v``: a
    rotation of the rebuilt word, for every u and v.  The conjugacy check
    keeps that identity honest at run time; it walks runs, not letters, so it
    costs O(runs) whatever ``u`` is.  ``None`` when the check fails.
    """
    a, b = model.presentation.generators
    relator = model.presentation.relators[0]
    v = model.params.v
    shape = ITShape(
        a, b, 1, 1, -(model.params.u + 1), 1,
        Word(((a, -1), (b, -1))) ** v, Word(((b, -1), (a, -1))) ** v,
    )
    rebuilt = shape.reconstruct()
    if is_conjugate(rebuilt, relator) or is_conjugate(rebuilt, relator.inverse()):
        return shape
    return None


def check_family_slope(
    params: TwistParams, slope: Slope, use: str = "paper"
) -> CriterionReport:
    """Match the family member's relator and decide one slope.

    The report names the first meridian-rooted shape in ``match_it_shape``
    order.  Only decompositions whose a-role is the meridian generator
    qualify, since the criterion reads the longitude against that generator.
    ``_best_cut`` finds the first without listing the others: cuts are ranked
    by their integer key ``(|w1| + |w2|, m, n, r, k)``, read from positions,
    and conjugators are built only for a cut whose integer key is at most the
    best so far.
    """
    model, bound = _family_setup(params, use)
    # closed_form presents the group on (a, b) with meridian a
    p = model.presentation
    shape = _best_cut(_shape_core(p), *p.generators)
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
        w_positive_reduced=is_positive_excluding(model.w, model.presentation.generators),
        verdict=decide(shape, model.w_blocks_positive, bound, slope),
    )


def minimal_integer_bound(params: TwistParams, use: str = "paper") -> int:
    """Smallest integer slope certified non-left-orderable for this member.

    The verdict is monotone in the slope, so the answer is the bound ``s + t``
    itself whenever the criterion applies at all, and any one decomposition
    of the relator serves: the closed form's (``_family_witness``), checked in
    O(runs).  No cut is searched and the relator is never expanded into
    letters.  A witness that failed its check would end in "no certified
    integer slope", never in a wrong bound.

    Two refusals come before anything is built.  Positivity is judged on the
    block form of ``w``, whose block exponent is negative exactly when
    u <= -2 (``KnotGroupModel.w_blocks_positive``); for v >= 1 and u = -2
    free reduction happens to cancel the inverse letters, so the reduced word
    would be a weaker witness.  And the witness check compares the relator's
    cyclic run list, of ``8v + 4`` runs (``8v + 2`` at u = -1), which
    ``is_conjugate`` takes only up to ``MAX_CONJUGATE_RUNS``.
    """
    u, v = params.u, params.v
    if u <= -2:
        raise CriterionError(f"the longitude's block word is not positive for u = {u} <= -2")
    runs = 8 * v + (2 if u == -1 else 4)
    if runs > MAX_CONJUGATE_RUNS:
        raise CriterionError(
            f"v = {v} is too large: the relator's cyclic run list would hold {runs} runs,"
            f" over the conjugacy limit of {MAX_CONJUGATE_RUNS}"
        )
    model, bound = _family_setup(params, use)
    shape = _family_witness(model)
    if decide(shape, model.w_blocks_positive, bound, Slope(bound, 1)).kind != "GuaranteedNonLO":
        raise CriterionError("no certified integer slope found near the bound")
    return bound
