"""Link diagrams, Wirtinger presentations, and peripheral systems.

The built-in three-component link encodes the surgery description of the
two-strand twisted torus knot family: an unknotted circle around three
parallel strands (twist region for the torus braiding) and a second unknotted
circle around two strands (twist region for the extra full twists).  Its
crossing list is the ground truth: signs, orientations and per-crossing
relator forms are stored so the twelve crossing relators come out exactly
in their intended display rotations.
"""

from __future__ import annotations

from typing import Mapping

from .presentations import Presentation, PresentationError, add_relators
from .words import Record, Word, is_integer, is_name, word


class DiagramError(ValueError):
    pass


_FORMS = ("in_first", "conj_first", "out_first")


class Crossing(Record):
    """One signed crossing: the under strand runs ``under_in -> under_out``.

    Sign +1 means the under strand passes right-to-left as seen along the
    over strand's orientation.  ``form`` selects which cyclic rotation of the
    crossing relator is emitted (the group relation is the same for all).
    """

    id: str
    over: str
    under_in: str
    under_out: str
    sign: int
    form: str = "in_first"

    def __post_init__(self) -> None:
        if not all(is_name(n) for n in (self.id, self.over, self.under_in, self.under_out)):
            raise DiagramError("crossing id and arc names must be nonempty strings")
        if not is_integer(self.sign) or self.sign not in (1, -1):
            raise DiagramError(f"crossing {self.id}: sign must be +1 or -1")
        if self.form not in _FORMS:
            raise DiagramError(f"crossing {self.id}: unknown relator form {self.form!r}")

    def relator(self) -> Word:
        """Crossing relator encoding ``out = over^-sign * in * over^sign``."""
        o = word((self.over, 1))
        i = word((self.under_in, 1))
        u = word((self.under_out, 1))
        e = self.sign
        if self.form == "in_first":
            return i * o**e * u.inverse() * o**-e
        if self.form == "conj_first":
            return o**-e * i * o**e * u.inverse()
        return u.inverse() * o**-e * i * o**e


class LinkDiagram(Record):
    """Arcs, their partition into oriented components, and signed crossings.

    Sequences are stored as tuples, and components given no names are named
    ``c0, c1, ...``."""

    arcs: tuple[str, ...]
    components: tuple[tuple[str, ...], ...]
    crossings: tuple[Crossing, ...]
    component_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        components = tuple(map(tuple, self.components))
        names = tuple(self.component_names) or tuple(f"c{i}" for i in range(len(components)))
        stored = {"arcs": tuple(self.arcs), "components": components,
                  "crossings": tuple(self.crossings), "component_names": names}
        for field, value in stored.items():
            object.__setattr__(self, field, value)
        flat = [a for comp in components for a in comp]
        if not all(is_name(n) for n in [*self.arcs, *flat, *names]):
            raise DiagramError("arc and component names must be nonempty strings")
        if len(self.component_names) != len(self.components):
            raise DiagramError("one name per component required")
        if len(set(self.component_names)) != len(self.component_names):
            raise DiagramError("component names must be distinct")
        if sorted(flat) != sorted(self.arcs) or len(set(self.arcs)) != len(self.arcs):
            raise DiagramError("components must partition the arcs")
        if len(self.crossings) != len(self.arcs):
            raise DiagramError("crossing count must equal arc count")
        if not all(isinstance(c, Crossing) for c in self.crossings):
            raise DiagramError("crossings must be Crossing values")
        seen_in: set[str] = set()
        seen_out: set[str] = set()
        arcset = set(self.arcs)
        for c in self.crossings:
            for arc in (c.over, c.under_in, c.under_out):
                if arc not in arcset:
                    raise DiagramError(f"crossing {c.id}: unknown arc {arc!r}")
            if c.under_in in seen_in:
                raise DiagramError(f"arc {c.under_in!r} enters two crossings")
            if c.under_out in seen_out:
                raise DiagramError(f"arc {c.under_out!r} leaves two crossings")
            seen_in.add(c.under_in)
            seen_out.add(c.under_out)
        # as many crossings as distinct arcs, each entering and leaving a different
        # one: every arc enters exactly one crossing and leaves exactly one
        nxt = {c.under_in: c.under_out for c in self.crossings}
        for comp in self.components:
            for i, arc in enumerate(comp):
                if nxt[arc] != comp[(i + 1) % len(comp)]:
                    raise DiagramError(
                        f"component order inconsistent at arc {arc!r}"
                    )

    def component_index(self, name: str) -> int:
        try:
            return self.component_names.index(name)
        except ValueError:
            raise DiagramError(f"no component named {name!r}") from None


def wirtinger_presentation(d: LinkDiagram) -> Presentation:
    """One generator per arc, one crossing relator per crossing."""
    return Presentation(d.arcs, tuple(c.relator() for c in d.crossings))


class PeripheralSystem(Record):
    component: str
    meridian: Word
    longitude: Word
    framing_class: int


def peripheral_system(d: LinkDiagram, component: str) -> PeripheralSystem:
    """Meridian and diagram longitude of one component.

    The meridian is the component's first arc generator.  The longitude is the
    product of the over-arc generators (raised to the crossing signs) met when
    traversing the component from that arc, in the diagram's own arc
    generators and cyclically reduced to its core.  ``framing_class`` is
    the longitude's total exponent sum on the component's own arcs, i.e. its
    class against the component's meridian in the homology of the link
    complement; it vanishes exactly for a preferred longitude.
    """
    idx = d.component_index(component)
    comp = d.components[idx]
    entering = {c.under_in: c for c in d.crossings}
    pairs: list[tuple[str, int]] = []
    for arc in comp:
        c = entering[arc]
        pairs.append((c.over, c.sign))
    longitude, _ = Word(pairs).cyclic_reduce()
    framing = sum(longitude.exponent_sum(a) for a in comp)
    return PeripheralSystem(
        component=d.component_names[idx],
        meridian=word((comp[0], 1)),
        longitude=longitude,
        framing_class=framing,
    )


# -- the built-in link -------------------------------------------------------


#: Ordered defining words consumed when erasing the redundant arc generators
#: delta1..delta7 from the built-in link's Wirtinger presentation; each is a
#: word in the five arcs that remain.
DELTA_ELIMINATIONS: tuple[tuple[str, Word], ...] = (
    ("delta1", Word.parse("alpha^-1 xi alpha")),
    ("delta2", Word.parse("gamma xi gamma^-1")),
    ("delta3", Word.parse("xi^-1 beta xi")),
    ("delta4", Word.parse("xi^-1 gamma xi")),
    ("delta5", Word.parse("psi alpha psi^-1")),
    ("delta6", Word.parse("psi beta psi^-1")),
    ("delta7", Word.parse("psi alpha^-1 psi alpha psi^-1")),
)


def builtin_link_L() -> LinkDiagram:
    """The three-component surgery-description link.

    Components: ``l0`` (the strands, seven arcs), ``l1`` (upper circle, three
    arcs) and ``l2`` (lower circle, two arcs).  The twelve crossings carry
    fixed orientations, signs and relator display forms; the whole point of
    this encoding is that ``wirtinger_presentation`` emits a known list of
    twelve relators letter for letter, which the test fixtures pin down.
    """
    crossings = (
        Crossing("P1", "alpha", "xi", "delta1", 1, "in_first"),
        Crossing("P2", "beta", "delta1", "delta2", 1, "in_first"),
        Crossing("P3", "gamma", "delta2", "xi", 1, "in_first"),
        Crossing("P4", "xi", "alpha", "gamma", 1, "conj_first"),
        Crossing("P5", "xi", "beta", "delta3", 1, "conj_first"),
        Crossing("P6", "xi", "gamma", "delta4", 1, "conj_first"),
        Crossing("P7", "gamma", "delta3", "delta5", -1, "out_first"),
        Crossing("P8", "gamma", "delta4", "delta6", -1, "out_first"),
        Crossing("P9", "delta5", "psi", "delta7", 1, "in_first"),
        Crossing("P10", "delta6", "delta7", "psi", 1, "in_first"),
        Crossing("P11", "psi", "delta5", "alpha", 1, "conj_first"),
        Crossing("P12", "psi", "delta6", "beta", 1, "conj_first"),
    )
    return LinkDiagram(
        arcs=(
            "alpha", "beta", "gamma", "xi", "psi",
            "delta1", "delta2", "delta3", "delta4", "delta5", "delta6", "delta7",
        ),
        components=(
            ("alpha", "gamma", "delta4", "delta6", "beta", "delta3", "delta5"),
            ("xi", "delta1", "delta2"),
            ("psi", "delta7"),
        ),
        crossings=crossings,
        component_names=("l0", "l1", "l2"),
    )


_XI, _PSI = word(("xi", 1)), word(("psi", 1))
_ALPHA_BETA = word(("alpha", 1), ("beta", 1))
ALPHA_BETA_GAMMA = _ALPHA_BETA * word(("gamma", 1))


def twist_fillings(u: int, v: int) -> tuple[tuple[Word, Word, int], ...]:
    """The two twist-region surgery relators, each as ``(head, base, n)`` for
    the relator ``head base^n``.

    Filling the upper circle gives ``xi (alpha beta gamma)^(-v-1)``; filling
    the lower circle gives ``psi (alpha beta)^u``.  A homomorphism sends each
    to ``image(head) image(base)^n``, so its image costs the runs of that
    power, not one step per run of the relator.
    """
    return (_XI, ALPHA_BETA_GAMMA, -v - 1), (_PSI, _ALPHA_BETA, u)


def add_twist_relations(p: Presentation, u: int, v: int) -> Presentation:
    """Append the two twist-region surgery relators of ``twist_fillings``.

    ``PresentationError`` unless ``v >= 0`` and ``p`` declares every
    generator the two relators use.
    """
    if v < 0:
        raise PresentationError(f"twist parameter v must be >= 0, got {v}")
    return add_relators(p, [head * base**n for head, base, n in twist_fillings(u, v)])


# -- serialization -----------------------------------------------------------


_NAME_KEYS = ("id", "over", "under_in", "under_out")
_CROSSING_KEYS = {*_NAME_KEYS, "sign"}


def diagram_to_json(d: LinkDiagram) -> dict:
    return d.to_json()


def diagram_from_json(data: Mapping) -> LinkDiagram:
    """Inverse of ``diagram_to_json``; ``DiagramError`` on a malformed object."""
    if not isinstance(data, Mapping):
        raise DiagramError("diagram JSON must be an object")
    arcs, components, crossings = (data.get(k) for k in ("arcs", "components", "crossings"))
    names = data.get("component_names", [])
    if not all(isinstance(x, list) for x in (arcs, components, crossings, names)) or not all(
        isinstance(comp, list) for comp in components
    ):
        raise DiagramError("diagram JSON needs lists 'arcs', 'components' of lists and 'crossings'")
    if not all(isinstance(c, Mapping) and _CROSSING_KEYS <= c.keys() for c in crossings):
        raise DiagramError("each crossing needs an id, over, under_in, under_out and sign")
    return LinkDiagram(
        arcs,
        components,
        [Crossing(*(c[key] for key in _NAME_KEYS), c["sign"], c.get("form", "in_first"))
         for c in crossings],
        names,
    )
