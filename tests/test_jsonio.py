"""Canonical JSON document interchange."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import activity_graphs, documents, tied_documents
from test_model import _mutations
from tmkit import (
    ActivityEdge,
    ActivityGraph,
    ActivityNode,
    JsonFormatError,
    TmError,
    activity_from_json,
    activity_to_json,
    document_from_json,
    document_to_json,
    import_activity,
    model_isomorphic,
    parse_or_raise,
)
from tmkit.cli import run
from tmkit.corpus import corpus_dir, mentcare_path
from tmkit.model import StaticModel, build_trees, natural_key, submachines_of
from tmkit.uml import ActivityError


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


@pytest.mark.parametrize("doc, key", [
    ({"machines": [], "flow": []}, "flow"),  # a misspelt key was read as no flows
    ({"nodes": [], "edges": []}, "edges"),  # an activity graph was read as an empty model
    ({"machines": [], "flows": [], "triggers": [], "events": [], "behavior": {}, "z": None}, "z"),
])
def test_rejects_a_top_level_key_the_writer_does_not_write(doc, key):
    error = (f"unknown document key {key!r}: a document holds only"
             " behavior, events, flows, machines, triggers")
    with pytest.raises(JsonFormatError) as caught:
        document_from_json(json.dumps(doc))
    assert str(caught.value) == error


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


@st.composite
def _labelled_graphs(draw) -> ActivityGraph:
    """`activity_graphs` with labels and guards drawn from any text."""
    graph = draw(activity_graphs())
    return ActivityGraph(
        tuple(n.replace(label=draw(_json_strings)) for n in graph.nodes),
        tuple(e.replace(guard=draw(st.none() | _json_strings)) for e in graph.edges),
    )


@settings(max_examples=100, deadline=None)
@given(_labelled_graphs())
def test_canonical_writer_matches_json_dumps(graph):
    """The `.act.json` writer against `json.dumps` of the graph as a dict."""
    doc = {
        "nodes": [{"id": n.id, "kind": n.kind, "label": n.label}
                  for n in sorted(graph.nodes, key=lambda n: natural_key(n.id))],
        "edges": [{"from": e.source, "to": e.target, "guard": e.guard}
                  for e in sorted(graph.edges, key=lambda e: (natural_key(e.source),
                                                              natural_key(e.target)))],
    }
    assert activity_to_json(graph) == dumps_canonical(doc)


def _by_key(items) -> list:
    return sorted(items, key=lambda item: natural_key(item.id))


def _document_dict(model, events, behavior) -> dict:
    """The document as a plain dict, machines nested through "submachines"."""
    def machine(m) -> dict:
        return {
            "id": m.id, "name": m.name, "is_constraint": m.is_constraint, "parent": m.parent,
            "stages": [
                {"id": s.id, "kind": s.kind.value, "has_storage": s.has_storage,
                 "label": s.label, "owner": s.owner}
                for s in _by_key(m.stages)
            ],
            "submachines": [machine(sub) for sub in _by_key(m.submachines)],
        }

    return {
        "machines": [machine(m) for m in _by_key(model.machines)],
        "flows": [
            {"id": f.id, "source": f.source, "target": f.target} for f in _by_key(model.flows)
        ],
        "triggers": [
            {"id": t.id, "source": t.source, "target": t.target, "guard": t.guard}
            for t in _by_key(model.triggers)
        ],
        "events": [
            {
                "id": e.id, "name": e.name, "time": e.time, "intensity": e.intensity,
                "region": {"stage_ids": sorted(e.region.stage_ids, key=natural_key),
                           "edge_ids": sorted(e.region.edge_ids, key=natural_key)},
            }
            for e in _by_key(events)
        ],
        "behavior": {
            "event_ids": sorted(behavior.event_ids, key=natural_key),
            "edges": [{"from": e.source, "to": e.target, "exclusive_group": e.exclusive_group}
                      for e in behavior.edges],
        },
    }


@st.composite
def _written_documents(draw):
    """Documents as `document_to_json` meets them: valid ones, raw breaks of
    one invariant, ids whose natural keys tie, and free text (names, labels,
    guards, times) with escapes, control characters and non-ASCII."""
    model, events, behavior = draw(documents() | tied_documents())
    if draw(st.booleans()) and (breaks := _mutations(model)):
        model = draw(st.sampled_from(breaks))(model)
    if draw(st.booleans()):
        text, maybe = (lambda: draw(_json_strings)), (lambda: draw(st.none() | _json_strings))
        model = StaticModel(
            build_trees(model.machines, submachines_of, lambda m, _parent, subs: m.replace(
                name=text(), stages=tuple(s.replace(label=maybe()) for s in m.stages),
                submachines=subs)),
            model.flows,
            tuple(t.replace(guard=maybe()) for t in model.triggers),
        )
        events = tuple(e.replace(name=text(), time=text(), intensity=maybe()) for e in events)
        behavior = behavior.replace(
            edges=tuple(e.replace(exclusive_group=maybe()) for e in behavior.edges))
    return model, events, behavior


@settings(max_examples=300, deadline=None)
@given(_written_documents())
def test_document_writer_matches_json_dumps(doc):
    assert document_to_json(*doc) == dumps_canonical(_document_dict(*doc))


@pytest.mark.parametrize("value", [1, 1.5, (), {"a": [0]}, {1: "a"}, {None: "a"}, b"x"])
def test_canonical_writer_rejects_other_types(value):
    node = ActivityNode("a", "Action")
    for graph in (ActivityGraph((node.replace(label=value),)),
                  ActivityGraph((node,), (ActivityEdge("a", "a", value),))):
        with pytest.raises(TypeError):
            activity_to_json(graph)


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


# -- totality over decoded JSON of any shape ----------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        '{"machines": [1]}',
        '{"machines": "ab"}',
        '{"machines": {"id": "A"}}',
        '{"machines": [{"id": "A", "stages": "ab"}]}',
        '{"machines": [{"id": "A", "stages": [null]}]}',
        '{"machines": [{"id": "A", "submachines": [2]}]}',
        '{"flows": {"id": "f1"}}',
        '{"triggers": [[]]}',
        '{"events": [{"id": "E", "time": "t", "region": {"stage_ids": "ab"}}]}',
        '{"events": [{"id": "E", "time": "t", "region": {"stage_ids": [], "edge_ids": "f"}}]}',
        '{"events": [{"id": "E", "time": "t", "region": []}]}',
        '{"events": "E"}',
        '{"behavior": []}',
        '{"behavior": {"event_ids": "E1"}}',
        '{"behavior": {"edges": [[]]}}',
        pytest.param('{"machines": ' + "[" * 3000 + "]" * 3000 + "}", id="nested-past-the-decoder"),
        pytest.param("1" * 5000, id="more-digits-than-int-converts"),
    ],
)
def test_malformed_shapes_are_format_errors(text, tmp_path, capsys):
    with pytest.raises(JsonFormatError):
        document_from_json(text)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert run(["check", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"nodes": [], "edges": "x"}',
        '{"nodes": [], "edges": [null]}',
        '{"nodes": "ab", "edges": []}',
        '{"nodes": [1], "edges": []}',
        '{"nodes": {}, "edges": []}',
        pytest.param('{"nodes": ' + "[" * 3000 + "]" * 3000 + ', "edges": []}',
                     id="nested-past-the-decoder"),
    ],
)
def test_malformed_activity_shapes_are_activity_errors(text, tmp_path, capsys):
    with pytest.raises(ActivityError):
        activity_from_json(text)
    path = tmp_path / "graph.act.json"
    path.write_text(text, encoding="utf-8")
    assert run(["import-uml", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def _one_machine_json(**fields) -> dict:
    """A valid document of one machine with one stage and one event; each
    keyword replaces a field: ``time`` the event's, ``has_storage`` the
    stage's, anything else the machine's."""
    stage = {"id": "A.create", "kind": "create", "owner": "A", "has_storage": False}
    event = {"id": "E", "time": "t", "region": {"stage_ids": ["A.create"]}}
    machine = {"id": "A", "is_constraint": False, "stages": [stage]}
    for key, value in fields.items():
        {"time": event, "has_storage": stage}.get(key, machine)[key] = value
    return {"machines": [machine], "events": [event]}


@pytest.mark.parametrize(
    "fields, message",
    [
        # null used to read as the time "None", which check passed and fmt printed
        ({"time": None}, "event time must be a string, got null"),
        ({"time": 3}, "event time must be a string, got a number"),
        # any non-empty string used to read as true
        ({"is_constraint": "false"}, "machine is_constraint must be true or false, got a string"),
        ({"has_storage": "no"}, "stage has_storage must be true or false, got a string"),
        ({"has_storage": 0}, "stage has_storage must be true or false, got a number"),
        ({"id": 7}, "machine id must be a string, got a number"),
        ({"name": None}, "machine name must be a string, got null"),
    ],
)
def test_a_field_of_the_wrong_type_is_a_format_error(fields, message, tmp_path, capsys):
    text = json.dumps(_one_machine_json(**fields))
    with pytest.raises(JsonFormatError, match=f"^{message}$"):
        document_from_json(text)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    for command in ("check", "fmt"):
        assert run([command, str(path)]) == 1
        assert capsys.readouterr().err == f"{path}: {message}\n"
    # the same document with well-typed fields reads
    document_from_json(json.dumps(_one_machine_json()))


@pytest.mark.parametrize(
    "label, message",
    [
        # null and 3 used to read as the labels "None" and "3"
        (None, "node label must be a string, got null"),
        (3, "node label must be a string, got a number"),
    ],
)
def test_an_activity_label_is_a_string_or_absent(label, message, tmp_path, capsys):
    doc = json.loads((corpus_dir() / "mentcare.act.json").read_text(encoding="utf-8"))
    doc["nodes"][0]["label"] = label
    text = json.dumps(doc)
    with pytest.raises(ActivityError, match=f"^{message}$"):
        activity_from_json(text)
    path = tmp_path / "graph.act.json"
    path.write_text(text, encoding="utf-8")
    assert run(["import-uml", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}: {message}\n"
    del doc["nodes"][0]["label"]  # an absent label reads as the empty one
    assert activity_from_json(json.dumps(doc)).nodes[0].label == ""


def test_stage_ids_must_be_an_array_not_a_string():
    # a string used to be read as the set of its characters
    text = (
        '{"machines": [{"id": "a", "stages": [{"id": "a.create", "kind": "create", "owner": "a"}]}],'
        ' "events": [{"id": "E", "time": "t", "region": {"stage_ids": "a"}}]}'
    )
    with pytest.raises(JsonFormatError, match="stage_ids must be an array"):
        document_from_json(text)
    model, events, _ = document_from_json(text.replace('"stage_ids": "a"', '"stage_ids": ["a.create"]'))
    assert events[0].region.stage_ids == {"a.create"}


_ids = st.sampled_from(["A", "B", "A.create", "A.process", "B.process", "E1", "E2", "f1", "²", ""])
_any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | _ids,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def _shaped(fields: dict) -> st.SearchStrategy:
    """Objects carrying any subset of ``fields``, each value either well-typed
    or any JSON value, so decoding gets past the first check often."""
    return st.fixed_dictionaries({}, optional={k: v | _any_json for k, v in fields.items()})


_stage = _shaped({
    "id": _ids, "owner": _ids, "kind": st.sampled_from(["create", "process", "release", "bogus"]),
    "has_storage": st.booleans(), "label": st.none() | st.text(max_size=3),
})
_machine = st.recursive(
    _shaped({"id": _ids, "name": _ids, "stages": st.lists(_stage, max_size=2), "parent": _ids}),
    lambda inner: _shaped({"id": _ids, "stages": st.lists(_stage, max_size=2),
                           "submachines": st.lists(inner, max_size=2)}),
    max_leaves=4,
)
_edge = _shaped({"id": _ids, "source": _ids, "target": _ids, "guard": st.none() | _ids})
_document = _shaped({
    "machines": st.lists(_machine, max_size=3),
    "flows": st.lists(_edge, max_size=2),
    "triggers": st.lists(_edge, max_size=2),
    "events": st.lists(_shaped({
        "id": _ids, "name": _ids, "time": _ids, "intensity": st.none() | _ids,
        "region": _shaped({"stage_ids": st.lists(_ids, max_size=2),
                           "edge_ids": st.lists(_ids, max_size=2)}),
    }), max_size=2),
    "behavior": _shaped({
        "event_ids": st.lists(_ids, max_size=3),
        "edges": st.lists(_shaped({"from": _ids, "to": _ids, "exclusive_group": st.none() | _ids}),
                          max_size=2),
    }),
})
_node_ids = st.sampled_from(["i", "a", "b", "d", "m", "f"])
_graph = _shaped({
    "nodes": st.lists(_shaped({
        "id": _node_ids, "label": st.text(max_size=3),
        "kind": st.sampled_from(["Initial", "Final", "Action", "Decision", "Merge", "Fork"]),
    }), max_size=6),
    "edges": st.lists(_shaped({"from": _node_ids, "to": _node_ids, "guard": st.none() | _ids}),
                      max_size=6),
})


@settings(max_examples=400, deadline=None)
@given(value=_document | _graph | _any_json)
def test_any_json_value_is_read_or_rejected_with_a_toolkit_error(tmp_path_factory, value):
    text = json.dumps(value)
    for read in (document_from_json, lambda t: import_activity(activity_from_json(t))):
        try:
            read(text)
        except TmError:
            pass
    path = tmp_path_factory.getbasetemp() / "any.json"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in ("check", "import-uml"):
            assert run([command, str(path)]) in (0, 1, 2)


@pytest.mark.parametrize("depth", [300, 1200])
def test_deep_documents_round_trip_or_are_refused_as_too_deep(tmp_path, capsys, depth):
    from test_cli import _nest_text

    nest, doc = tmp_path / "nest.tm", tmp_path / "nest.json"
    nest.write_text(_nest_text(depth), encoding="utf-8")
    assert run(["fmt", "--json", str(nest), "-o", str(doc)]) == 0
    status = run(["check", str(doc)])
    err = capsys.readouterr().err
    assert "not valid JSON" not in err
    # how deep the decoder reads depends on the Python version and the stack
    if status == 0 or depth == 300:
        assert status == 0
        text = doc.read_text(encoding="utf-8")
        assert document_to_json(*document_from_json(text)) == text
    else:
        assert status == 1
        assert err == (f"{doc}: the document nests deeper than this Python's JSON decoder"
                       " reads (model text has no such limit)\n")
