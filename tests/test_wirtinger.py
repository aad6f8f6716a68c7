import pytest

from twistknot.presentations import PresentationError, homology, alexander_polynomial
from twistknot.presentations import LaurentPolynomial, Presentation, tietze_eliminate
from twistknot.wirtinger import (
    Crossing,
    DELTA_ELIMINATIONS,
    DiagramError,
    LinkDiagram,
    add_twist_relations,
    builtin_link_L,
    diagram_from_json,
    diagram_to_json,
    peripheral_system,
    wirtinger_presentation,
)
from twistknot.words import Generator, Word, is_conjugate, word


def _w(text: str) -> Word:
    pairs = []
    for token in text.split():
        name, _, exp = token.partition("^")
        pairs.append((name, int(exp) if exp else 1))
    return word(*pairs)


CROSSING_RELATORS = [
    _w("xi alpha delta1^-1 alpha^-1"),
    _w("delta1 beta delta2^-1 beta^-1"),
    _w("delta2 gamma xi^-1 gamma^-1"),
    _w("xi^-1 alpha xi gamma^-1"),
    _w("xi^-1 beta xi delta3^-1"),
    _w("xi^-1 gamma xi delta4^-1"),
    _w("delta5^-1 gamma delta3 gamma^-1"),
    _w("delta6^-1 gamma delta4 gamma^-1"),
    _w("psi delta5 delta7^-1 delta5^-1"),
    _w("delta7 delta6 psi^-1 delta6^-1"),
    _w("psi^-1 delta5 psi alpha^-1"),
    _w("psi^-1 delta6 psi beta^-1"),
]

SIMPLIFIED_RELATORS = [
    _w("xi^-1 gamma^-1 beta^-1 alpha^-1 xi alpha beta gamma"),
    _w("xi^-1 alpha xi gamma^-1"),
    _w("psi^-1 gamma xi^-1 beta xi gamma^-1 psi alpha^-1"),
    _w("psi^-1 gamma xi^-1 gamma xi gamma^-1 psi beta^-1"),
    _w("psi^-1 beta^-1 alpha^-1 psi alpha beta"),
]


def test_builtin_crossing_relators_verbatim():
    p = wirtinger_presentation(builtin_link_L())
    assert list(p.relators) == CROSSING_RELATORS


def test_builtin_counts():
    d = builtin_link_L()
    assert len(d.crossings) == 12
    assert len(d.arcs) == 12
    p = wirtinger_presentation(d)
    assert len(p.generators) == 12
    assert len(p.relators) == 12


def _simplified_builtin() -> Presentation:
    p = wirtinger_presentation(builtin_link_L())
    for name, defining in DELTA_ELIMINATIONS:
        p = tietze_eliminate(p, Generator(name), defining)
    return p


def test_delta_elimination_reaches_simplified_presentation():
    p = _simplified_builtin()
    assert [g.name for g in p.generators] == ["alpha", "beta", "gamma", "xi", "psi"]
    assert len(p.relators) == 5
    matched = set()
    for rel in p.relators:
        for i, target in enumerate(SIMPLIFIED_RELATORS):
            if i not in matched and (
                is_conjugate(rel, target) or is_conjugate(rel, target.inverse())
            ):
                matched.add(i)
                break
    assert matched == {0, 1, 2, 3, 4}


def test_single_delta_elimination_counts():
    p = wirtinger_presentation(builtin_link_L())
    name, defining = DELTA_ELIMINATIONS[0]
    out = tietze_eliminate(p, Generator(name), defining)
    assert len(out.generators) == 11
    assert len(out.relators) == 11


def test_peripheral_systems_of_builtin():
    d = builtin_link_L()
    upper = peripheral_system(d, "l1")
    assert upper.meridian == word(("xi", 1))
    assert upper.longitude == _w("alpha beta gamma")
    assert upper.framing_class == 0

    lower = peripheral_system(d, "l2")
    assert lower.meridian == word(("psi", 1))
    assert lower.longitude == _w("delta5 delta6")
    assert lower.framing_class == 0
    # through the arc eliminations it is alpha beta, up to conjugacy
    eliminate = {a: word((a, 1)) for a in d.arcs} | dict(DELTA_ELIMINATIONS)
    assert lower.longitude.substitute(eliminate).cyclic_reduce()[0] == _w("alpha beta")

    strands = peripheral_system(d, "l0")
    assert strands.meridian == word(("alpha", 1))
    assert strands.longitude == _w("xi xi gamma^-1 psi xi gamma^-1 psi")
    assert strands.framing_class == -2


def test_linking_numbers_read_off_longitudes():
    d = builtin_link_L()
    strand_arcs = [Generator(a) for a in d.components[0]]
    upper = peripheral_system(d, "l1").longitude
    lower = peripheral_system(d, "l2").longitude
    assert sum(upper.exponent_sum(g) for g in strand_arcs) == 3
    assert sum(lower.exponent_sum(g) for g in strand_arcs) == 2


def test_add_twist_relations():
    p = _simplified_builtin()
    p00 = add_twist_relations(p, 0, 0)
    assert p00.relators[5] == _w("xi gamma^-1 beta^-1 alpha^-1")
    assert p00.relators[6] == _w("psi")
    pm10 = add_twist_relations(p, -1, 0)
    assert pm10.relators[6] == _w("psi b^0") * _w("beta^-1 alpha^-1")
    assert pm10.relators[6] == word(("psi", 1), ("beta", -1), ("alpha", -1))
    p21 = add_twist_relations(p, 2, 1)
    abc = _w("alpha beta gamma")
    ab = _w("alpha beta")
    assert p21.relators[5] == word(("xi", 1)) * abc**-2
    assert p21.relators[6] == word(("psi", 1)) * ab**2


def test_add_twist_relations_rejects_negative_v():
    with pytest.raises(PresentationError, match="v must be"):
        add_twist_relations(_simplified_builtin(), 0, -1)


def _matrix_rank(p: Presentation) -> int:
    from twistknot.presentations import smith_normal_form

    rows = [[rel.exponent_sum(g) for g in p.generators] for rel in p.relators]
    diag, _ = smith_normal_form(rows)
    return sum(1 for x in diag if x)


def test_wirtinger_rank_bound():
    # one crossing relator is always redundant per component closure
    diagrams = [
        builtin_link_L(),
        _trefoil_diagram(),
        diagram_from_json(FIGURE_EIGHT),
    ]
    for d in diagrams:
        p = wirtinger_presentation(d)
        assert _matrix_rank(p) <= len(d.arcs) - len(d.components)


def test_framing_class_is_homological():
    # in the link group's homology every arc is homologous to its component's
    # meridian, so the strand longitude must equal the meridian word with
    # exponents (framing, linking numbers)
    d = builtin_link_L()
    p = wirtinger_presentation(d)
    strands = peripheral_system(d, "l0")
    comparison = (
        word(("alpha", 1)) ** strands.framing_class
        * word(("xi", 1)) ** 3
        * word(("psi", 1)) ** 2
    )
    from twistknot.presentations import class_in_h1

    assert class_in_h1(p, strands.longitude) == class_in_h1(p, comparison)


def _kink_diagram() -> LinkDiagram:
    return LinkDiagram(
        arcs=("a",),
        components=(("a",),),
        crossings=(Crossing("K1", "a", "a", "a", 1),),
    )


def test_kink_diagram_is_unknot():
    p = wirtinger_presentation(_kink_diagram())
    assert p.relators[0].is_identity
    assert homology(p).free_rank == 1
    assert homology(p).torsion_orders == ()


def _trefoil_diagram() -> LinkDiagram:
    return LinkDiagram(
        arcs=("x", "y", "z"),
        components=(("x", "y", "z"),),
        crossings=(
            Crossing("T1", "z", "x", "y", 1),
            Crossing("T2", "x", "y", "z", 1),
            Crossing("T3", "y", "z", "x", 1),
        ),
    )


def test_three_crossing_trefoil_diagram():
    p = wirtinger_presentation(_trefoil_diagram())
    assert homology(p).free_rank == 1
    assert homology(p).torsion_orders == ()
    x, y, z = (Generator(n) for n in ("x", "y", "z"))
    # drop one arc via its crossing relation, then a redundant relator remains
    q = tietze_eliminate(p, y, word(("z", -1), ("x", 1), ("z", 1)))
    rels = [r for r in q.relators if not r.is_identity]
    keep = Presentation(q.generators, (rels[0],))
    assert alexander_polynomial(keep) == LaurentPolynomial({0: 1, 1: -1, 2: 1})


def test_diagram_validation_errors():
    with pytest.raises(DiagramError, match="partition"):
        LinkDiagram(arcs=("a", "b"), components=(("a",),), crossings=())
    with pytest.raises(DiagramError, match="crossing count"):
        LinkDiagram(arcs=("a",), components=(("a",),), crossings=())
    # diagram_from_json refuses a JSON ``true`` sign, so the JSON round trip
    # stays the identity only if a Crossing refuses it too
    for sign in (2, True, False, 1.0):
        with pytest.raises(DiagramError, match="sign"):
            Crossing("X", "a", "a", "a", sign)
    # the same holds for names: a crossing and a diagram check their own
    for names in ((5, "a", "a", "a"), ("X", "a", None, "a"), ("X", "", "a", "a")):
        with pytest.raises(DiagramError, match="names must be nonempty strings"):
            Crossing(*names, 1)
    kink = Crossing("K1", "a", "a", "a", 1)
    for arcs, names in (((1,), ()), (("a", 1), ()), (("a",), (None,)), (("a",), ([],))):
        with pytest.raises(DiagramError, match="names must be nonempty strings"):
            LinkDiagram(arcs=arcs, components=(arcs,), crossings=(kink,), component_names=names)
    with pytest.raises(DiagramError, match="Crossing values"):
        LinkDiagram(("a",), (("a",),), ("x",))


def test_diagram_json_roundtrip():
    d = builtin_link_L()
    data = diagram_to_json(d)
    rebuilt = diagram_from_json(data)
    assert rebuilt.arcs == d.arcs
    assert rebuilt.components == d.components
    assert rebuilt.crossings == d.crossings
    assert wirtinger_presentation(rebuilt).relators == wirtinger_presentation(d).relators
    # lists are stored as tuples, so the diagram hashes and equals its round trip
    listed = LinkDiagram(["a"], [["a"]], [Crossing("K1", "a", "a", "a", 1)], ["k"])
    assert listed.components == (("a",),)
    assert hash(diagram_from_json(diagram_to_json(listed))) == hash(listed)
    for d in (builtin_link_L(), _trefoil_diagram(), _kink_diagram(), listed):
        assert diagram_from_json(diagram_to_json(d)) == d


def test_diagram_json_writes_every_field():
    # a field the JSON leaves out would make the round trip lossy
    data = diagram_to_json(builtin_link_L())
    assert data.keys() == set(LinkDiagram._fields)
    for crossing in data["crossings"]:
        assert list(crossing) == list(Crossing._fields)


def _eliminate_to_two_generators(d: LinkDiagram, p: Presentation) -> Presentation:
    """Erase all but two arc generators through their crossing relations."""
    relator_map = {c.under_out: c for c in d.crossings}
    identity_map = {g: Word(((g, 1),)) for g in p.generators}
    eliminated: dict = {}
    q = p
    for arc in list(p.generators)[2:]:
        c = relator_map[arc.name]
        raw = word((c.over, -c.sign)) * word((c.under_in, 1)) * word((c.over, c.sign))
        defining = raw.substitute({**identity_map, **eliminated})
        q = tietze_eliminate(q, arc, defining)
        rewrite = {**identity_map, arc: defining}
        eliminated = {k: w.substitute(rewrite) for k, w in eliminated.items()}
        eliminated[arc] = defining
    return q


def _crossings(*rows) -> list[dict]:
    keys = ("id", "over", "under_in", "under_out", "sign")
    return [dict(zip(keys, row)) for row in rows]


# diagram JSON (the format ``wirtinger --diagram`` reads) of the knots with PD
# codes [(1,4,2,5), (3,6,4,1), (5,2,6,3)] and
# [(4,2,5,1), (8,6,1,5), (6,3,7,4), (2,7,3,8)]; arc aN is named after its
# lowest-numbered PD edge
TREFOIL = {
    "arcs": ["a1", "a2", "a4"],
    "components": [["a1", "a2", "a4"]],
    "crossings": _crossings(
        ("X1", "a4", "a1", "a2", 1), ("X2", "a1", "a2", "a4", 1), ("X3", "a2", "a4", "a1", 1)
    ),
}
FIGURE_EIGHT = {
    "arcs": ["a1", "a3", "a5", "a7"],
    "components": [["a1", "a3", "a5", "a7"]],
    "crossings": _crossings(
        ("X1", "a1", "a3", "a5", -1),
        ("X2", "a5", "a7", "a1", -1),
        ("X3", "a3", "a5", "a7", 1),
        ("X4", "a7", "a1", "a3", 1),
    ),
}


def test_pd_code_trefoil():
    d = diagram_from_json(TREFOIL)
    assert len(d.components) == 1
    p = wirtinger_presentation(d)
    assert homology(p).free_rank == 1
    q = _eliminate_to_two_generators(d, p)
    rels = [r for r in q.relators if not r.is_identity]
    keep = Presentation(q.generators, (rels[0],))
    assert alexander_polynomial(keep) == LaurentPolynomial({0: 1, 1: -1, 2: 1})


def test_pd_code_figure_eight():
    d = diagram_from_json(FIGURE_EIGHT)
    p = wirtinger_presentation(d)
    assert homology(p).free_rank == 1
    q = _eliminate_to_two_generators(d, p)
    rels = [r for r in q.relators if not r.is_identity]
    keep = Presentation(q.generators, (rels[0],))
    assert alexander_polynomial(keep) == LaurentPolynomial({0: 1, 1: -3, 2: 1})


def test_add_twist_relations_needs_the_twist_generators():
    p = Presentation(("alpha", "beta", "gamma", "xi"), ())
    with pytest.raises(PresentationError, match="undeclared generator.*psi"):
        add_twist_relations(p, 0, 0)


def _trefoil_json(path, value) -> dict:
    """The three-crossing trefoil as diagram JSON, with the field at the key
    ``path`` set to ``value``."""
    data = diagram_to_json(_trefoil_diagram())
    *steps, key = path
    target = data
    for step in steps:
        target = target[step]
    target[key] = value
    return data


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("component_names",), ["k0", "k1"], "one name per component required"),
        (("crossings", 0, "over"), "w", "crossing T1: unknown arc 'w'"),
        (("crossings", 1, "under_in"), "x", "arc 'x' enters two crossings"),
        (("crossings", 1, "under_out"), "y", "arc 'y' leaves two crossings"),
        (("components", 0), ["x", "z", "y"], "component order inconsistent at arc 'x'"),
    ],
)
def test_diagram_from_json_refuses_an_inconsistent_diagram(path, value, message):
    with pytest.raises(DiagramError) as err:
        diagram_from_json(_trefoil_json(path, value))
    assert str(err.value) == message


def test_diagram_refuses_an_empty_component():
    # a component with no arcs has no meridian for peripheral_system to read;
    # every other check passes on this diagram
    with pytest.raises(DiagramError, match="^every component needs at least one arc$"):
        diagram_from_json({"arcs": [], "components": [[]], "crossings": []})


def test_diagram_refuses_repeated_component_names():
    data = diagram_to_json(builtin_link_L())
    data["component_names"] = ["l0", "l0", "l2"]
    with pytest.raises(DiagramError) as err:
        diagram_from_json(data)
    assert str(err.value) == "component names must be distinct"


def test_peripheral_system_refuses_an_unknown_component():
    d = diagram_from_json(_trefoil_json(("component_names",), ["k0"]))
    assert peripheral_system(d, "k0").meridian == word(("x", 1))
    with pytest.raises(DiagramError, match="no component named 'c0'"):
        peripheral_system(d, "c0")
