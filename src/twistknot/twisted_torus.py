"""The two-strand twisted torus knot family.

``closed_form`` builds the two-generator knot group model directly from the
parametric templates.  ``derive_from_diagram`` derives the same model from the
built-in link (Wirtinger presentation, arc elimination, the images of the two
twist-region fillings and two changes of generating set), raising at the
first stage that fails.  ``verify_proof`` checks the derivation's
intermediates against the paper's stated forms and reports which hold,
keeping the words it compares as ``Word``s until ``to_json`` writes them as
text.  Both read the part of the derivation that ``TwistParams`` keeps.

The lower twist filling reads ``psi (alpha beta)^u`` while the change of
generators substitutes ``psi -> (alpha beta)^u``, matching the surgery-slope
reading of the twist.  The substitution therefore does not kill that
filling: its image ``(h^-v g)^(2u)`` is kept as ``twist_residue`` on the
derived model rather than silently discarded.
"""

from __future__ import annotations

from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping

from .presentations import Presentation, PresentationError, h1_classes, tietze_eliminate
from .wirtinger import (
    ALPHA_BETA_GAMMA,
    DELTA_ELIMINATIONS,
    builtin_link_L,
    peripheral_system,
    twist_fillings,
    wirtinger_presentation,
)
from .words import Record, Word, is_conjugate, is_integer, word


class PipelineError(RuntimeError):
    """A derivation stage failed its precondition; carries the stage name."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


_A, _B, _G, _H = (word((name, 1)) for name in "abgh")
_BA = _B * _A
#: the stage-1 forward image of ``g``; that of ``h`` is ``ALPHA_BETA_GAMMA``
_XI_GAMMA = word(("xi", 1), ("gamma", -1))


class TwistParams(Record):
    """``u`` full twists on two strands of the (3, 3v+2) torus knot, ``v >= 0``.

    A params object keeps the part of its member's derivation that both
    ``derive_from_diagram`` and ``verify_proof`` check (``_shared``), once it
    is first read, so a caller that makes both calls on one object builds it
    once.  It is no field: equality, hashing, ``repr`` and JSON never see it,
    and it goes with the object.  A build that raises keeps nothing.
    """

    u: int
    v: int

    _inline = True  # a parent record's JSON holds ``u`` and ``v``, not ``params``

    def __post_init__(self) -> None:
        if not (is_integer(self.u) and is_integer(self.v)):
            raise ValueError(f"u and v must be integers, got {self.u!r} and {self.v!r}")
        if self.v < 0:
            raise ValueError(f"v must be >= 0, got {self.v}")

    @cached_property
    def _shared(
        self,
    ) -> tuple[Presentation, SubstitutionChain, Mapping[str, Word], tuple[Word, ...], Word, Word]:
        """What both ``derive_from_diagram`` and ``verify_proof`` check:
        ``(prefix, chain, composite, images, long_ab, longitude_paper)``.

        ``prefix`` is ``_link_prefix()``'s presentation, ``composite`` the
        read-only map from the link generators to ``a, b`` words (stage 2
        after stage 1), and ``images`` the stage-1 images of the five link
        relators, substituted run by run.  Through ``composite`` each ``a, b``
        word costs its own runs, ``O(u + v)``; rewriting a long ``g, h`` word
        run by run joins ``u`` images of ``O(v)`` runs that mostly cancel.
        """
        prefix, l0 = _link_prefix()
        chain = substitution_chain(self)
        phi1, phi2 = chain.stage1_backward, chain.stage2_backward
        composite = MappingProxyType(_stage1_backward(self, phi2["g"], phi2["h"]))
        images = tuple(rel.substitute(phi1) for rel in prefix.relators)
        long_ab = l0.substitute(composite)
        # rebase: move the leading (ba)^(v+1) block to the end, then add the
        # paper's two meridian corrections, a^-1 and a^(-3(3v+2)-2u), which
        # together are a^-s for the paper's s
        block = _BA ** (self.v + 1)
        longitude_paper = _A ** (-s_paper_value(self)) * (block.inverse() * long_ab * block)
        return prefix, chain, composite, images, long_ab, longitude_paper


def relator_template(params: TwistParams) -> Word:
    """``(ba)^(v+1) a (ba)^(-v-1) b^(-u-1) (ba)^(-v) a (ba)^v b^u``, reduced."""
    u, v = params.u, params.v
    return (
        _BA ** (v + 1) * _A * _BA ** (-(v + 1)) * _B ** (-(u + 1))
        * _BA ** (-v) * _A * _BA**v * _B**u
    )


def _block(params: TwistParams) -> Word:
    """``(ba)^v b^(u+1)``, the repeated block of ``w``."""
    return _BA**params.v * _B ** (params.u + 1)


def w_template(params: TwistParams) -> Word:
    """``((ba)^v b^(u+1))^2 (ba)^v b``, reduced."""
    block = _block(params)
    return block * block * _BA**params.v * _B


def _longitude(w: Word, s: int) -> Word:
    """``a^-s w a``, the longitude under the meridian correction ``s``."""
    return _A ** (-s) * w * _A


def s_paper_value(params: TwistParams) -> int:
    return 2 * params.u + 3 * (3 * params.v + 2) + 1


class SubstitutionChain(Record):
    """The two changes of generating set used by the derivation.

    Stage 1 passes from the five link-group generators to ``g = xi gamma^-1``,
    ``h = alpha beta gamma``; stage 2 passes to ``a = g^-1 h^(v+1)``,
    ``b = h a^-1``.  Maps send generators to words over the other side.

    The derivation applies stage 2 only to the images of ``g`` and ``h``:
    homomorphisms of free groups compose, and a reduced word is a normal
    form, so the composite map gives the words the stages give in turn.
    Each map is held read-only, as a copy of the mapping given.
    """

    stage1_forward: Mapping[str, Word]
    stage1_backward: Mapping[str, Word]
    stage2_forward: Mapping[str, Word]
    stage2_backward: Mapping[str, Word]

    def __post_init__(self) -> None:
        for field in self._fields:
            object.__setattr__(self, field, MappingProxyType(dict(getattr(self, field))))

    def validate(self) -> None:
        """Check the testable composite-identity directions by free reduction."""
        for label, there, back in (
            ("stage 1", self.stage1_forward, self.stage1_backward),
            ("stage 2", self.stage2_forward, self.stage2_backward),
            ("stage 2 reverse", self.stage2_backward, self.stage2_forward),
        ):
            for gen, image in there.items():
                got = image.substitute(back)
                if got.runs != ((gen, 1),):
                    raise ValueError(f"{label} does not invert on {gen}: {got.as_text()}")


def _stage1_backward(params: TwistParams, g: Word, h: Word) -> dict[str, Word]:
    """The stage-1 backward map, its images built by ``**`` and ``*`` from the
    words ``g`` and ``h``: on the letters ``g, h`` it is ``stage1_backward``,
    on their ``a, b`` words the composite of both stages."""
    u, v = params.u, params.v
    h_v1 = h ** (v + 1)
    return {
        "xi": h_v1,
        "gamma": g.inverse() * h_v1,
        "psi": (h ** (-v) * g) ** u,
        "alpha": h_v1 * g.inverse(),
        "beta": g * h ** (-2 * v - 1) * g,
    }


def substitution_chain(params: TwistParams) -> SubstitutionChain:
    v = params.v
    g, h = _G, _H
    stage1_forward = {"g": _XI_GAMMA, "h": ALPHA_BETA_GAMMA}
    stage2_forward = {
        "a": g.inverse() * h ** (v + 1),
        "b": h ** (-v) * g,
    }
    stage2_backward = {
        "h": _BA,
        "g": _BA**v * _B,
    }
    return SubstitutionChain(
        stage1_forward, _stage1_backward(params, g, h), stage2_forward, stage2_backward
    )


class KnotGroupModel(Record):
    """Two-generator knot group presentation with its peripheral words."""

    params: TwistParams
    presentation: Presentation
    meridian: Word
    longitude_paper: Word
    longitude_corrected: Word
    s_paper: int
    s_corrected: int
    t: int
    w: Word
    w_blocks_positive: bool
    longitude_precorrection: Word
    derived: bool
    twist_residue: Word

    def longitude(self, use: str) -> Word:
        return self.longitude_paper if _selects_paper(use) else self.longitude_corrected

    def s_value(self, use: str) -> int:
        return self.s_paper if _selects_paper(use) else self.s_corrected

    def to_json(self) -> dict:
        """The record rule's keys plus ``text``, the relator and the peripheral
        words as text."""
        return {
            **super().to_json(),
            "text": {
                "relator": self.presentation.relators[0].as_text(),
                "meridian": self.meridian.as_text(),
                "longitude_paper": self.longitude_paper.as_text(),
                "longitude_corrected": self.longitude_corrected.as_text(),
                "w": self.w.as_text(),
            },
        }


def _selects_paper(use: str) -> bool:
    """The one check of a longitude selector: ``"paper"`` or ``"corrected"``."""
    if use not in ("paper", "corrected"):
        raise ValueError(f"longitude selector must be 'paper' or 'corrected', got {use!r}")
    return use == "paper"


def _assemble_model(
    params: TwistParams,
    presentation: Presentation,
    w: Word,
    longitude_paper: Word,
    longitude_precorrection: Word,
    *,
    derived: bool,
    twist_residue: Word,
) -> KnotGroupModel:
    classify = h1_classes(presentation)
    s_p = s_paper_value(params)
    s_c = s_p + classify(longitude_paper)[0]
    longitude_corrected = _longitude(w, s_c)
    check = classify(longitude_corrected)[0]
    if check != 0:
        raise PipelineError("longitude", f"corrected longitude has class {check}, not 0")
    return KnotGroupModel(
        params=params,
        presentation=presentation,
        meridian=_A,
        longitude_paper=longitude_paper,
        longitude_corrected=longitude_corrected,
        s_paper=s_p,
        s_corrected=s_c,
        t=-1,
        w=w,
        w_blocks_positive=params.u >= -1,
        longitude_precorrection=longitude_precorrection,
        derived=derived,
        twist_residue=twist_residue,
    )


def closed_form(params: TwistParams) -> KnotGroupModel:
    """Knot group model built directly from the parametric templates."""
    presentation = Presentation(("a", "b"), (relator_template(params),))
    block = _block(params)
    precorrection = _BA ** (params.v + 1) * block * block
    w = w_template(params)
    longitude_paper = _longitude(w, s_paper_value(params))
    return _assemble_model(
        params, presentation, w, longitude_paper, precorrection,
        derived=False, twist_residue=Word(),
    )


@cache
def _link_prefix() -> tuple[Presentation, Word]:
    """The part of the derivation that does not depend on ``(u, v)``.

    Returns the built-in link's Wirtinger presentation with the seven delta
    arcs eliminated, and the diagram longitude of the strand component ``l0``
    rewritten through the same eliminations into the five remaining
    generators.  Computed on first use, then shared; both values are
    immutable.
    """
    diagram = builtin_link_L()
    p = wirtinger_presentation(diagram)
    try:
        for name, defining in DELTA_ELIMINATIONS:
            p = tietze_eliminate(p, name, defining)
    except PresentationError as exc:
        raise PipelineError("eliminate-deltas", str(exc)) from exc
    mapping = {g: word((g, 1)) for g in p.generators} | dict(DELTA_ELIMINATIONS)
    longitude, _ = peripheral_system(diagram, "l0").longitude.substitute(mapping).cyclic_reduce()
    return p, longitude


def derive_from_diagram(params: TwistParams) -> KnotGroupModel:
    """Derive the knot group model from the built-in link diagram.

    It raises at the first stage that fails.  To the part of the derivation
    that ``params`` keeps it adds what only the model reads: the images of
    the two twist fillings, the ``a, b`` relator and the meridian.
    The twist fillings are never built as relators: each filling
    ``head base^n`` is a power, and a homomorphism sends it to
    ``image(head) image(base)^n`` (the factored forms of ``twist_fillings``).
    Its image costs the runs of that power, where the stored relator alone
    holds ``|n|`` runs of ``base`` (at ``v = 0`` the lower filling maps to
    the one run ``g^(2u)``).  The upper filling's image must die; the lower
    one's is the model's ``twist_residue``.
    """
    prefix, chain, composite, images, long_ab, longitude_paper = params._shared
    phi1 = chain.stage1_backward
    upper, lower = (
        head.substitute(phi1) * base.substitute(phi1) ** n
        for head, base, n in twist_fillings(params.u, params.v)
    )
    relator_ab = prefix.relators[2].substitute(composite).inverse()
    try:
        chain.validate()
    except ValueError as exc:
        raise PipelineError("change-generators", str(exc)) from exc
    rel1, rel2, eq1, eq2, rel5 = images
    for number, image in ((1, rel1), (2, rel2), (5, rel5), (6, upper)):
        if not image.is_identity:
            raise PipelineError(
                "change-generators",
                f"relator {number} should map to the identity, got {image.as_text()}",
            )
    if not is_conjugate(eq1, eq2.inverse()):
        raise PipelineError(
            "change-generators", "surviving relators are not inverse-equivalent"
        )
    # the strand component's first arc alpha is its meridian
    if not is_conjugate(composite["alpha"], _A):
        raise PipelineError("two-generator", "meridian image is not conjugate to a")
    return _assemble_model(
        params,
        Presentation(("a", "b"), (relator_ab,)),
        w_template(params),
        longitude_paper,
        long_ab,
        derived=True,
        twist_residue=lower,
    )


# -- step-by-step proof replay ------------------------------------------------


class ProofCheck(Record):
    """One replayed step; ``details`` maps names to ``Word``s and integers."""

    index: int
    name: str
    passed: bool
    details: dict

    def to_json(self) -> dict:
        details = {k: v.as_text() if isinstance(v, Word) else v for k, v in self.details.items()}
        return {**super().to_json(), "details": details}


class ProofReport(Record):
    params: TwistParams
    checks: tuple[ProofCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, index: int) -> ProofCheck:
        return self.checks[index - 1]

    def to_json(self) -> dict:
        """The record rule's keys plus ``all_passed``."""
        return {**super().to_json(), "all_passed": self.all_passed}


def verify_proof(params: TwistParams) -> ProofReport:
    """Check the derivation's intermediates against the paper's stated forms.

    It reads ``TwistParams._shared`` and builds neither twist filling's
    image nor the ``a, b`` relator, which no check reads.  Checks 1-5
    concern the stage-1 images of the link relators, check 6 the
    two-generator relator, checks 7-8 the longitude before and after its
    rebase; the stated forms of checks 6-9 are those of ``closed_form``.
    Check 9 measures the abelianization class of the final longitude, which
    must be 0 for a preferred longitude but comes out as ``2u`` under the
    stated meridian correction.  Failures are data, not errors.
    """
    u, v = params.u, params.v
    _, chain, _, images, long_ab, longitude_paper = params._shared
    stated = closed_form(params)
    phi1, phi2 = chain.stage1_backward, chain.stage2_backward
    g, h = _G, _H
    hvg = h ** (-v) * g
    checks: list[ProofCheck] = []

    def add(name: str, passed: bool, **details) -> None:
        checks.append(ProofCheck(len(checks) + 1, name, bool(passed), details))

    psi = phi1["psi"]

    def psi_rotated(image: Word, letter: str) -> Word:
        # the paper displays link relators 3 and 4 rotated to start at psi^-1
        # and conjugated by psi; both are stored starting with psi letter^-1
        return image.conjugate(psi * phi1[letter] * psi.inverse())

    img1, img2, eq1, eq2, img5 = images
    add("relator-1-maps-to-identity", img1.is_identity, image=img1)
    add("relator-2-maps-to-identity", img2.is_identity, image=img2)

    stated_eq1 = (
        h ** (-v - 1) * g**2 * hvg ** (u - 1) * h ** (-v) * g**2
        * h ** (-v - 1) * hvg.inverse() ** (u - 1) * g.inverse()
    )
    add(
        "equation-1-matches-stated-rewrite",
        is_conjugate(eq1, stated_eq1),
        equation_1=psi_rotated(eq1, "alpha"),
        stated=stated_eq1,
    )
    add(
        "equation-1-inverse-equivalent-to-equation-2",
        is_conjugate(eq1, eq2.inverse()),
        equation_2=psi_rotated(eq2, "beta"),
    )
    add("relator-5-maps-to-identity", img5.is_identity, image=img5)

    def stated_second_form(g: Word, h: Word) -> Word:
        hvg = h ** (-v) * g
        return h ** (v + 1) * g.inverse() * hvg ** (-u) * g ** (-2) * h ** (2 * v + 1) * hvg**u

    # stage 2 applied to the form is the form written with g, h's images
    second_form = stated_second_form(g, h)
    final_ab = stated_second_form(phi2["g"], phi2["h"])
    template = stated.presentation.relators[0]
    add(
        "final-relator-equals-template",
        is_conjugate(second_form, eq1.inverse()) and final_ab == template,
        final=final_ab,
        template=template,
    )
    add(
        "longitude-word-matches",
        long_ab == stated.longitude_precorrection,
        longitude=long_ab,
        stated=stated.longitude_precorrection,
    )
    add(
        "meridian-correction-gives-stated-form",
        longitude_paper == stated.longitude_paper,
        replayed=longitude_paper,
        s_paper=stated.s_paper,
    )
    measured = stated.s_corrected - stated.s_paper
    add(
        "longitude-nullhomology",
        measured == 0,
        measured_class=measured,
        expected_for_preferred=0,
        predicted_discrepancy=2 * u,
    )
    return ProofReport(params, tuple(checks))
