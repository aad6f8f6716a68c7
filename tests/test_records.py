"""The contract every frozen record of the package keeps (``words.Record``):
frozen, compared and hashed by its field values, a ``Name(field=value, ...)``
repr, the constructor rules of a plain function, and one JSON rule."""

import json
import re

import pytest

from twistknot.coset_enum import surgered_presentation, todd_coxeter
from twistknot.criterion import Slope, Verdict, check_family_slope
from twistknot.presentations import homology
from twistknot.twisted_torus import (
    TwistParams,
    closed_form,
    substitution_chain,
    verify_proof,
)
from twistknot.wirtinger import Crossing, builtin_link_L, peripheral_system
from twistknot.words import Record, Word


def _samples() -> list:
    """One record of every ``Record`` subclass, each built by the library."""
    params = TwistParams(3, 2)
    model = closed_form(params)
    report = check_family_slope(params, Slope(40, 1))
    proof = verify_proof(TwistParams(1, 1))
    link = builtin_link_L()
    return [
        params, Slope(5, 1), model, model.presentation, homology(model.presentation),
        link, link.crossings[0], peripheral_system(link, link.component_names[0]),
        substitution_chain(params), proof, proof.checks[0],
        report, report.shape, report.verdict,
        todd_coxeter(surgered_presentation(closed_form(TwistParams(0, 0)), Slope(5, 1)), 3000),
    ]


SAMPLES = _samples()
IDS = [type(record).__name__ for record in SAMPLES]


def test_every_record_class_has_a_sample():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("twistknot.")}
    assert {type(record) for record in SAMPLES} == package
    assert len(SAMPLES) == 15


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_record_is_frozen(record):
    for field in record._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_record_equality_and_hash_go_by_field_values(record):
    values = tuple(getattr(record, field) for field in record._fields)
    rebuilt = type(record)(*values)
    assert rebuilt == record and not rebuilt != record
    assert record != values
    try:
        digest = hash(values)
    except TypeError:  # a field holds a dict, so neither hashes
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(rebuilt) == digest
    for other in SAMPLES:
        if type(other) is not type(record):
            assert record != other


def test_records_differ_by_value_and_by_class():
    assert TwistParams(3, 2) != TwistParams(3, 3)
    assert TwistParams(5, 1) != Slope(5, 1)  # equal field values, different classes
    assert Verdict("Unknown") != Verdict("Unknown", "below the bound")
    assert len({TwistParams(3, 2), TwistParams(3, 2), TwistParams(2, 3)}) == 2


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_record_repr_names_every_field(record):
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_record_repr_literal():
    assert repr(Slope(5, 1)) == "Slope(p=5, q=1)"
    assert repr(Verdict("Unknown")) == "Verdict(kind='Unknown', reason=None)"


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_record_builds_from_positional_and_keyword_arguments(record):
    cls, fields = type(record), record._fields
    values = [getattr(record, field) for field in fields]
    assert cls(**dict(zip(fields, values))) == record
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == record
    refused = re.escape(f"{cls.__name__}() takes the fields ({', '.join(fields)})")
    with pytest.raises(TypeError, match=refused):  # missing
        cls()
    with pytest.raises(TypeError, match=refused):  # unknown
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=refused):  # given twice
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match=refused):  # extra
        cls(*values, None)


def test_record_defaults_fill_the_trailing_fields():
    assert Verdict("Unknown") == Verdict("Unknown", None) == Verdict(kind="Unknown")
    assert Verdict("Unknown").reason is None
    crossing = Crossing("K", "a", "b", "c", 1)
    assert crossing.form == "in_first"
    assert crossing == Crossing("K", "a", "b", "c", 1, "in_first")
    with pytest.raises(TypeError, match=re.escape("got 4 positional argument(s) and keywords []")):
        Crossing("K", "a", "b", "c")


def test_post_init_normalizes_the_fields():
    assert Slope(-5, -1) == Slope(5, 1)
    assert (Slope(-5, -1).p, Slope(-5, -1).q) == (5, 1)


def test_a_field_without_default_may_not_follow_one_with():
    with pytest.raises(TypeError, match="follows one with"):

        class Bad(Record):
            first: int = 0
            second: int


#: records that reach no JSON output: the CLI and ``diagram_to_json`` write none of them
UNWRITTEN = {"SubstitutionChain", "PeripheralSystem"}
WRITTEN = [record for record in SAMPLES if type(record).__name__ not in UNWRITTEN]
#: the keys a record's JSON holds beside the record rule's, as README documents them
EXTRAS = {"ITShape": {"text"}, "KnotGroupModel": {"text"}, "CriterionReport": {"w_text"},
          "ProofReport": {"all_passed"}}


def _rule(value):
    """A field's JSON by the record rule, spelled out."""
    if isinstance(value, Word):
        return [[gen, exp] for gen, exp in value.runs]
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, tuple):
        return [_rule(item) for item in value]
    return value


@pytest.mark.parametrize("record", WRITTEN, ids=[type(record).__name__ for record in WRITTEN])
def test_record_json_holds_its_fields_and_only_its_documented_extras(record):
    data = record.to_json()
    json.dumps(data)
    name = type(record).__name__
    if name == "HomologySummary":  # it renames its two fields
        assert data == {"torsion": list(record.torsion_orders), "rank": record.free_rank}
        return
    expected = {}
    for field in record._fields:
        value = getattr(record, field)
        if isinstance(value, TwistParams):
            expected.update(u=value.u, v=value.v)
        elif name == "ProofCheck" and field == "details":  # it writes the words as text
            expected[field] = {k: w.as_text() if isinstance(w, Word) else w
                               for k, w in value.items()}
        else:
            expected[field] = _rule(value)
    assert data.keys() == expected.keys() | EXTRAS.get(name, set())
    assert {key: data[key] for key in expected} == expected

