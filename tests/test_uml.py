"""Activity-diagram import/export."""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import activity_graphs, label_text
from tmkit import (
    ActionKind,
    ActivityEdge,
    ActivityGraph,
    ActivityNode,
    AmbiguousInitial,
    MalformedDecision,
    UnsupportedConstruct,
    activity_from_json,
    activity_isomorphic,
    activity_to_json,
    export_activity,
    has_errors,
    import_activity,
    model_isomorphic,
    parse_or_raise,
    validate_static,
)
from tmkit.cli import run
from tmkit import activity
from tmkit.uml import ActivityError

C, P = ActionKind.CREATE, ActionKind.PROCESS


def linear(*labels: str) -> ActivityGraph:
    nodes = [ActivityNode("i", "Initial")]
    edges = []
    prev = "i"
    for k, label in enumerate(labels):
        nodes.append(ActivityNode(f"a{k}", "Action", label))
        edges.append(ActivityEdge(prev, f"a{k}"))
        prev = f"a{k}"
    nodes.append(ActivityNode("f", "Final"))
    edges.append(ActivityEdge(prev, "f"))
    return ActivityGraph.build(nodes, edges)


def test_single_action_import():
    model = import_activity(linear("Record detention decision"))
    expected = parse_or_raise(
        'machine RecordDetentionDecision : "Record detention decision" { create; process; }\n'
        "flow RecordDetentionDecision.create -> RecordDetentionDecision.process;"
    ).model
    assert model_isomorphic(model, expected)
    machine = next(iter(model.all_machines()))
    assert machine.name == "Record detention decision"


def test_import_output_is_simplified_and_clean():
    model = import_activity(linear("one", "two", "three"))
    assert not has_errors(validate_static(model, mode="simplified"))
    assert all(s.kind in (C, P) for s in model.all_stages())


def test_decision_guards_become_triggers_verbatim():
    g = ActivityGraph.build(
        nodes=[
            ActivityNode("i", "Initial"),
            ActivityNode("a", "Action", "triage"),
            ActivityNode("d", "Decision"),
            ActivityNode("b", "Action", "hold"),
            ActivityNode("c", "Action", "admit"),
            ActivityNode("f", "Final"),
        ],
        edges=[
            ActivityEdge("i", "a"),
            ActivityEdge("a", "d"),
            ActivityEdge("d", "b", "dangerous"),
            ActivityEdge("d", "c", "not dangerous"),
            ActivityEdge("b", "f"),
            ActivityEdge("c", "f"),
        ],
    )
    model = import_activity(g)
    guards = sorted(t.guard for t in model.triggers)
    assert guards == ["dangerous", "not dangerous"]
    assert all(t.source.endswith(".process") for t in model.triggers)


def test_fork_raises_unsupported_construct():
    text = (
        '{"nodes": [{"id": "i", "kind": "Initial", "label": ""},'
        ' {"id": "x", "kind": "Fork", "label": ""},'
        ' {"id": "f", "kind": "Final", "label": ""}],'
        ' "edges": []}'
    )
    with pytest.raises(UnsupportedConstruct, match="x"):
        activity_from_json(text)


def test_unguarded_decision_edge_raises():
    with pytest.raises(MalformedDecision):
        ActivityGraph.build(
            nodes=[
                ActivityNode("i", "Initial"),
                ActivityNode("a", "Action", "a"),
                ActivityNode("d", "Decision"),
                ActivityNode("b", "Action", "b"),
                ActivityNode("c", "Action", "c"),
                ActivityNode("f", "Final"),
            ],
            edges=[
                ActivityEdge("i", "a"),
                ActivityEdge("a", "d"),
                ActivityEdge("d", "b"),
                ActivityEdge("d", "c", "guarded"),
                ActivityEdge("b", "f"),
                ActivityEdge("c", "f"),
            ],
        )



_I, _A, _F = (ActivityNode("i", "Initial"), ActivityNode("a", "Action", "a"),
              ActivityNode("f", "Final"))


@pytest.mark.parametrize("nodes, edges", [
    ((_I, _A, _F, ActivityNode("d", "Decision")),
     (ActivityEdge("i", "a"), ActivityEdge("a", "d"), ActivityEdge("d", "f"),
      ActivityEdge("d", "a", "again"))),
    ((_I, _A, _F, _A), (ActivityEdge("i", "a"), ActivityEdge("a", "f"))),
    ((_I, _A, _F), (ActivityEdge("i", "a"), ActivityEdge("a", "nowhere"))),
    ((_A, _F), (ActivityEdge("a", "f"),)),
    ((_I, _A, _F, ActivityNode("m", "Merge")),
     (ActivityEdge("i", "a"), ActivityEdge("a", "m"), ActivityEdge("m", "f"))),
    ((_I, ActivityNode("x", "Fork"), _F), ()),
    # `activity_to_json` wrote a null label, which `activity_from_json` refused
    ((ActivityNode("i", "Initial", None), _A, _F),
     (ActivityEdge("i", "a"), ActivityEdge("a", "f"))),
    ((_I, ActivityNode(1, "Action"), _F), ()),
    ((_I, _A, _F), (ActivityEdge("i", "a"), ActivityEdge("a", "f", 0))),
], ids=["unguarded", "duplicate", "endpoint", "no-initial", "merge", "kind", "label", "id",
        "guard"])
def test_import_checks_a_graph_made_without_build(nodes, edges):
    with pytest.raises(ActivityError) as built:
        ActivityGraph.build(nodes, edges)
    with pytest.raises(built.type, match=re.escape(str(built.value))):
        import_activity(ActivityGraph(nodes, edges))


def test_import_does_not_check_a_built_graph_again(monkeypatch):
    graph = linear("one", "two")
    raw = ActivityGraph(graph.nodes, graph.edges)
    assert import_activity(raw) == import_activity(graph)
    monkeypatch.setattr(activity, "NODE_KINDS", ())  # any check from here on fails
    assert import_activity(graph) == import_activity(raw)
    with pytest.raises(UnsupportedConstruct):
        import_activity(ActivityGraph(graph.nodes, graph.edges))


def test_smallest_model_exports_to_initial_action_final():
    model = parse_or_raise(
        "machine A { create; process; }\nflow A.create -> A.process;"
    ).model
    g = export_activity(model)
    kinds = sorted(n.kind for n in g.nodes)
    assert kinds == ["Action", "Final", "Initial"]
    assert {(e.source, e.target) for e in g.edges} == {("initial", "a_A"), ("a_A", "final")}


def test_export_requires_simplified_form():
    from test_model import two_machine_chain
    from tmkit import NotSimplified

    with pytest.raises(NotSimplified):
        export_activity(two_machine_chain())


def test_export_refuses_a_machine_with_two_process_stages_as_ill_formed():
    from tmkit import ModelError
    from tmkit.model import Machine, Stage, StaticModel

    process = ActionKind.PROCESS
    machine = Machine("A", "A", stages=(Stage("A.process", process, "A"),
                                        Stage("A.process2", process, "A")))
    with pytest.raises(ModelError, match="^V5 A: machine 'A' has more than one process stage$"):
        export_activity(StaticModel((machine,)))


def test_export_with_no_initial_candidate_raises():
    text = (
        "machine A { create; process; }\nmachine B { process; }\n"
        "flow A.create -> A.process;\ntrigger B.process => A.create;\n"
    )
    model = parse_or_raise(text).model
    with pytest.raises(AmbiguousInitial) as exc:
        export_activity(model)
    assert exc.value.candidates == ()


def test_export_with_two_initial_candidates_names_them():
    text = "machine A { create; }\nmachine B { create; }\n"
    model = parse_or_raise(text).model
    with pytest.raises(AmbiguousInitial) as exc:
        export_activity(model)
    assert exc.value.candidates == ("A", "B")


def test_activity_json_round_trip():
    g = linear("alpha", "beta")
    text = activity_to_json(g)
    again = activity_from_json(text)
    assert activity_isomorphic(g, again)
    assert activity_to_json(again) == text


def test_activity_isomorphism_checks_labels_and_guards():
    a = linear("one")
    b = linear("two")
    assert not activity_isomorphic(a, b)


@settings(max_examples=100, deadline=None)
@given(activity_graphs())
def test_import_export_round_trip(g):
    model = import_activity(g)
    assert not has_errors(validate_static(model, mode="simplified"))
    back = export_activity(model)
    assert activity_isomorphic(g, back)


@settings(max_examples=60, deadline=None)
@given(activity_graphs())
def test_guards_survive_byte_identically(g):
    model = import_activity(g)
    original = sorted(e.guard for e in g.edges if e.guard is not None)
    imported = sorted(t.guard for t in model.triggers if t.guard is not None)
    assert imported == original
    back = export_activity(model)
    exported = sorted(e.guard for e in back.edges if e.guard is not None)
    assert exported == original


@settings(max_examples=60, deadline=None)
@given(activity_graphs())
def test_import_is_deterministic(g):
    assert model_isomorphic(import_activity(g), import_activity(g))


def test_activity_isomorphism_on_a_long_chain_does_not_recurse():
    g = linear(*["step"] * 3000)
    reordered = ActivityGraph.build(g.nodes[::-1], g.edges[::-1])
    assert activity_isomorphic(g, reordered)
    assert not activity_isomorphic(g, linear(*["step"] * 2999, "last"))


def test_activity_isomorphism_counts_parallel_edges():
    nodes = [ActivityNode("i", "Initial"), ActivityNode("a", "Action", "x"), ActivityNode("f", "Final")]
    twice_in = ActivityGraph.build(
        nodes, [ActivityEdge("i", "a"), ActivityEdge("i", "a"), ActivityEdge("a", "f")]
    )
    twice_out = ActivityGraph.build(
        nodes, [ActivityEdge("i", "a"), ActivityEdge("a", "f"), ActivityEdge("a", "f")]
    )
    assert not activity_isomorphic(twice_in, twice_out)
    assert activity_isomorphic(twice_in, ActivityGraph.build(nodes, twice_in.edges[::-1]))


def activity_multigraph(graph: ActivityGraph):
    nx = pytest.importorskip("networkx")
    g = nx.MultiDiGraph()
    for n in graph.nodes:
        g.add_node(n.id, label=(n.kind, n.label))
    for e in graph.edges:
        g.add_edge(e.source, e.target, label=e.guard or "")
    return g


@settings(max_examples=150, deadline=None)
@given(activity_graphs(max_actions=5), activity_graphs(max_actions=5))
def test_activity_isomorphism_agrees_with_networkx(a, b):
    from test_model import networkx_isomorphic

    back = export_activity(import_activity(a))
    assert activity_isomorphic(a, back) and networkx_isomorphic(
        activity_multigraph(a), activity_multigraph(back)
    )
    # without labels and with one guard text, distinct graphs often share a shape
    for x, y in ((a, b), (blank(a), blank(b))):
        expected = networkx_isomorphic(activity_multigraph(x), activity_multigraph(y))
        assert activity_isomorphic(x, y) == expected


def blank(graph: ActivityGraph) -> ActivityGraph:
    return ActivityGraph.build(
        [ActivityNode(n.id, n.kind) for n in graph.nodes],
        [ActivityEdge(e.source, e.target, None if e.guard is None else "g") for e in graph.edges],
    )


def test_a_20000_action_chain_round_trips():
    # indexed lookups and numbering keep import linear; a scan per lookup, and
    # a search from "Step2" on for every repeat of a label, made it quadratic
    graph = linear(*["step"] * 20000)
    model = import_activity(graph)
    assert len(model.flows) == 20000
    assert activity_isomorphic(export_activity(model), graph)


def test_repeated_labels_number_their_machines_in_order():
    model = import_activity(linear("Check", "Check", "Check2", "Check"))
    assert sorted((m.id, m.name) for m in model.all_machines()) == [
        ("Check", "Check"), ("Check2", "Check"), ("Check22", "Check2"), ("Check3", "Check")
    ]


def test_too_deep_activity_json_is_one_line_activity_error(tmp_path, capsys):
    message = "the activity graph nests deeper than this Python's JSON decoder reads"
    with pytest.raises(ActivityError) as info:
        activity_from_json("[" * 100000)
    assert str(info.value) == message
    act = tmp_path / "deep.act.json"
    act.write_text("[" * 100000, encoding="utf-8")
    assert run(["import-uml", str(act)]) == 1
    assert capsys.readouterr() == ("", f"{act}: {message}\n")


def test_activity_json_refuses_a_top_level_key_the_writer_does_not_write(tmp_path, capsys):
    """A model document's key used to pass unread, and the graph was then
    refused for having no initial node."""
    text = '{"nodes": [], "edges": [], "machines": []}'
    message = "unknown activity graph key 'machines': an activity graph holds only edges, nodes"
    with pytest.raises(ActivityError, match=f"^{message}$"):
        activity_from_json(text)
    act = tmp_path / "model.act.json"
    act.write_text(text, encoding="utf-8")
    assert run(["import-uml", str(act)]) == 1
    assert capsys.readouterr() == ("", f"{act}: {message}\n")


@pytest.mark.parametrize("node, edge, message", [
    # a misspelt label was read as absent, and the node got the label ""
    ({"id": "a", "kind": "Action", "lable": "Assess"}, {"from": "a", "to": "end"},
     "unknown node key 'lable': a node holds only id, kind, label"),
    # a misspelt guard was read as absent, and the edge got no guard
    ({"id": "a", "kind": "Action"}, {"from": "a", "to": "end", "gaurd": "x"},
     "unknown edge key 'gaurd': an edge holds only from, guard, to"),
])
def test_activity_json_refuses_an_entry_key_the_writer_does_not_write(tmp_path, capsys, node, edge,
                                                                       message):
    graph = {"nodes": [{"id": "start", "kind": "Initial"}, node, {"id": "end", "kind": "Final"}],
             "edges": [{"from": "start", "to": "a"}, edge]}
    text = json.dumps(graph)
    with pytest.raises(ActivityError, match=f"^{message}$"):
        activity_from_json(text)
    act = tmp_path / "graph.act.json"
    act.write_text(text, encoding="utf-8")
    assert run(["import-uml", str(act)]) == 1
    assert capsys.readouterr() == ("", f"{act}: {message}\n")
    key = message.split("'")[1]  # the same graph without the key is read
    activity_from_json(json.dumps({part: [{k: v for k, v in entry.items() if k != key}
                                          for entry in entries]
                                   for part, entries in graph.items()}))


_ANY_VALUE = st.none() | st.booleans() | st.integers() | st.binary(max_size=2) | label_text


@st.composite
def _retyped_graphs(draw) -> tuple[list, list]:
    """The nodes and edges of an `activity_graphs` draw, with at most one
    node id or label, or edge guard, replaced by any value."""
    graph = draw(activity_graphs())
    nodes, edges = list(graph.nodes), list(graph.edges)
    field = draw(st.sampled_from(["none", "id", "label", "guard"]))
    if field == "guard":
        k = draw(st.integers(0, len(edges) - 1))
        edges[k] = edges[k].replace(guard=draw(_ANY_VALUE))
    elif field != "none":
        k = draw(st.integers(0, len(nodes) - 1))
        nodes[k] = nodes[k].replace(**{field: draw(_ANY_VALUE)})
    return nodes, edges


@settings(max_examples=200, deadline=None)
@given(_retyped_graphs())
def test_every_graph_build_accepts_reads_back_from_its_json(drawn):
    try:
        graph = ActivityGraph.build(*drawn)
    except ActivityError:
        return
    text = activity_to_json(graph)
    back = activity_from_json(text)
    assert Counter(back.nodes) == Counter(graph.nodes)
    assert Counter(back.edges) == Counter(graph.edges)
    assert activity_to_json(back) == text
