"""Canonical JSON document interchange."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import documents
from tmkit import (
    JsonFormatError,
    document_from_json,
    document_to_json,
    model_isomorphic,
    parse_or_raise,
)
from tmkit.cli import run
from tmkit.corpus import corpus_dir, mentcare_path
from tmkit.jsonio import _canonical_json


def dumps_canonical(value) -> str:
    """The reference the canonical writer must reproduce byte for byte."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_keys_are_alphabetical():
    result = parse_or_raise(
        "machine A { create; process; }\nflow f1: A.create -> A.process;\n"
        'event E1 { time "t"; region { A.create } }\nbehavior { }\n'
    )
    text = document_to_json(result.model, result.events, result.behavior)
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    machine = doc["machines"][0]
    assert list(machine) == sorted(machine)


def test_document_round_trip_preserves_everything():
    result = parse_or_raise(
        "machine A constraint : \"the a\" { create store; process; }\n"
        "machine B { process; }\n"
        "flow f1: A.create -> A.process;\n"
        'trigger t1: A.process => B.process if "ready";\n'
        'event E1 : "first" { time "t1"; region { A.create A.process edge f1 } intensity "hi"; }\n'
        'event E2 { time "t2"; region { B.process } }\n'
        'behavior { E1 -> E2 excl "g"; }\n'
    )
    text = document_to_json(result.model, result.events, result.behavior)
    model, events, behavior = document_from_json(text)
    assert model_isomorphic(model, result.model)
    assert events == result.events
    assert behavior == result.behavior
    assert document_to_json(model, events, behavior) == text


def test_rejects_non_json():
    with pytest.raises(JsonFormatError):
        document_from_json("machine A { }")


def test_rejects_malformed_document():
    with pytest.raises(JsonFormatError):
        document_from_json('{"machines": [{"name": "missing id"}]}')


def test_rejects_invariant_violations():
    bad = {
        "machines": [
            {
                "id": "A",
                "name": "A",
                "is_constraint": False,
                "parent": None,
                "stages": [
                    {"id": "A.create", "kind": "create", "has_storage": False, "label": None, "owner": "A"}
                ],
                "submachines": [],
            }
        ],
        "flows": [{"id": "f1", "source": "A.create", "target": "nowhere"}],
        "triggers": [],
        "events": [],
        "behavior": {"event_ids": [], "edges": []},
    }
    with pytest.raises(JsonFormatError, match="unknown stage"):
        document_from_json(json.dumps(bad))


@settings(max_examples=80, deadline=None)
@given(documents())
def test_json_round_trip_property(doc):
    model, events, behavior = doc
    text = document_to_json(model, events, behavior)
    model2, events2, behavior2 = document_from_json(text)
    assert model_isomorphic(model2, model)
    assert set(events2) == set(events)
    assert behavior2 == behavior
    assert document_to_json(model2, events2, behavior2) == text


# any character, with control, non-ASCII, line-separator, astral and lone
# surrogate code points drawn often
_json_strings = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "\u00e9", "\u2028", "\U0001f600", "\ud800"]),
    max_size=12,
)
_json_values = st.recursive(
    st.none() | st.booleans() | _json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(_json_values)
def test_canonical_writer_matches_json_dumps(value):
    assert _canonical_json(value) == dumps_canonical(value)


@pytest.mark.parametrize("value", [1, 1.5, (), {"a": [0]}, {1: "a"}, {None: "a"}, b"x"])
def test_canonical_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _canonical_json(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["fmt", "--json", str(mentcare_path())],
        ["simplify", "--json", str(mentcare_path())],
        ["export-uml", str(mentcare_path())],
        ["import-uml", "--json", str(corpus_dir() / "mentcare.act.json")],
    ],
)
def test_cli_json_output_is_the_json_dumps_bytes(argv, capsys):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out == dumps_canonical(json.loads(out))
