"""Structural rules V1-V9."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import simplified_models
from tmkit import (
    ActionKind,
    BehavioralModel,
    BehaviorEdge,
    Event,
    Flow,
    Machine,
    Region,
    Severity,
    Stage,
    StaticModel,
    Trigger,
    has_errors,
    parse_or_raise,
    validate_behavior,
    validate_events,
    validate_static,
)

C, P, R, T, V = ActionKind

# Frozen copy of the declared adjacency table; the exhaustive test below
# checks the validator classifies all 25 ordered pairs exactly like this.
EXPECTED_LEGAL_STEPS = {
    (T, V),
    (V, P),
    (V, R),
    (P, R),
    (P, C),
    (C, P),
    (C, R),
    (R, T),
}


def model_with_intra_flow(a: ActionKind, b: ActionKind) -> StaticModel:
    """Raw model with one machine and one a->b flow; bypasses the checked
    constructor so same-kind pairs are representable."""
    if a is b:
        stages = (Stage("M.s1", a, "M"), Stage("M.s2", b, "M"))
    else:
        stages = (Stage(f"M.{a.value}", a, "M"), Stage(f"M.{b.value}", b, "M"))
    machine = Machine(id="M", name="M", stages=stages)
    flow = Flow("f1", stages[0].id, stages[1].id)
    return StaticModel(machines=(machine,), flows=(flow,))


def test_v2_table_is_total_over_all_25_pairs():
    for a, b in itertools.product(ActionKind, repeat=2):
        diags = validate_static(model_with_intra_flow(a, b))
        v2 = [d for d in diags if d.rule == "V2"]
        if (a, b) in EXPECTED_LEGAL_STEPS:
            assert not v2, f"{a.value}->{b.value} wrongly flagged"
        else:
            assert v2, f"{a.value}->{b.value} wrongly allowed"
            assert v2[0].subject == "f1"


def test_v2_table_is_configurable():
    model = model_with_intra_flow(C, V)
    assert any(d.rule == "V2" for d in validate_static(model))
    custom = frozenset({(C, V)})
    assert not any(d.rule == "V2" for d in validate_static(model, intra_steps=custom))


def test_empty_model_is_legal():
    assert validate_static(StaticModel()) == []


def inter_flow_model(src_kind: ActionKind, dst_kind: ActionKind) -> StaticModel:
    a = Machine(id="A", name="A", stages=(Stage(f"A.{src_kind.value}", src_kind, "A"),))
    b = Machine(id="B", name="B", stages=(Stage(f"B.{dst_kind.value}", dst_kind, "B"),))
    flow = Flow("f1", f"A.{src_kind.value}", f"B.{dst_kind.value}")
    return StaticModel.build((a, b), flows=(flow,))


def test_v3_inter_machine_transfer_to_transfer_is_legal():
    diags = validate_static(inter_flow_model(T, T))
    assert not any(d.rule == "V3" for d in diags)


def test_v3_flags_other_inter_machine_flows():
    diags = validate_static(inter_flow_model(R, V))
    assert any(d.rule == "V3" and d.subject == "f1" for d in diags)


def test_v2_flags_intra_create_to_receive():
    diags = validate_static(model_with_intra_flow(C, V))
    assert any(d.rule == "V2" and d.severity is Severity.ERROR for d in diags)


def test_v4_trigger_from_process_to_create_is_legal():
    text = (
        "machine A { process; }\n"
        "machine B { create; }\n"
        'trigger A.process => B.create if "cold air needed";\n'
    )
    model = parse_or_raise(text).model
    assert not any(d.rule == "V4" for d in validate_static(model))


@pytest.mark.parametrize("kind", [R, T])
def test_v4_flags_triggers_from_gate_outputs(kind):
    a = Machine(id="A", name="A", stages=(Stage(f"A.{kind.value}", kind, "A"),))
    b = Machine(id="B", name="B", stages=(Stage("B.create", C, "B"),))
    model = StaticModel.build((a, b), triggers=(Trigger("t1", f"A.{kind.value}", "B.create"),))
    diags = validate_static(model)
    assert any(d.rule == "V4" and d.subject == "t1" for d in diags)


def test_v5_duplicate_kind_on_raw_model():
    model = model_with_intra_flow(P, P)
    diags = validate_static(model)
    assert any(d.rule == "V5" and d.subject == "M" for d in diags)


def test_v1_duplicate_id_on_raw_model():
    a = Machine(id="A", name="A", stages=(Stage("dup", C, "A"),))
    b = Machine(id="B", name="B", stages=(Stage("dup", P, "B"),))
    diags = validate_static(StaticModel(machines=(a, b)))
    assert any(d.rule == "V1" and d.subject == "dup" for d in diags)


def _raw(stages=(), flows=(), triggers=(), constraint=False) -> StaticModel:
    return StaticModel(
        machines=(Machine(id="M", name="M", is_constraint=constraint, stages=tuple(stages)),),
        flows=tuple(flows),
        triggers=tuple(triggers),
    )


_CREATE = Stage("M.create", C, "M")


@pytest.mark.parametrize(
    "model, rule, subject",
    [
        (_raw([_CREATE], flows=[Flow("f1", "M.create", "nowhere")]), "V1", "f1"),
        (_raw([_CREATE], triggers=[Trigger("t1", "nowhere", "M.create")]), "V1", "t1"),
        (_raw([_CREATE.replace(owner="N")]), "V5", "M.create"),
        (_raw([_CREATE], constraint=True), "V7", "M"),
        (_raw([_CREATE], flows=[Flow("f1", "M.create", "M.create")]), "V2", "f1"),
        (_raw([_CREATE], triggers=[Trigger("t1", "M.create", "M.create")]), "V4", "t1"),
    ],
    ids=["flow-end", "trigger-end", "owner", "no-process", "flow-loop", "trigger-loop"],
)
def test_raw_model_invariant_breaks_are_errors_under_their_rule(model, rule, subject):
    diags = validate_static(model)
    assert any(
        d.severity is Severity.ERROR and (d.rule, d.subject) == (rule, subject) for d in diags
    )


def test_v6_orphan_stage_is_a_warning():
    model = parse_or_raise("machine A { create; process; }").model
    diags = validate_static(model)
    assert {d.subject for d in diags if d.rule == "V6"} == {"A.create", "A.process"}
    assert all(d.severity is Severity.WARNING for d in diags)


def test_v6_storage_counts_as_anchored():
    model = parse_or_raise("machine A { create store; }").model
    assert validate_static(model) == []


def test_v7_requires_guarded_trigger():
    text = "machine A constraint { process; }\nmachine B { create; }\ntrigger A.process => B.create;\n"
    model = parse_or_raise(text).model
    diags = validate_static(model)
    assert any(d.rule == "V7" and d.subject == "A" for d in diags)


def test_v7_satisfied_by_guarded_trigger():
    text = (
        "machine A constraint { process; }\n"
        "machine B { create; }\n"
        'trigger A.process => B.create if "the record is absent";\n'
    )
    model = parse_or_raise(text).model
    assert not any(d.rule == "V7" for d in validate_static(model))


def test_simplified_mode_relaxes_v2_v3():
    text = "machine A { create; }\nmachine B { process; }\nflow A.create -> B.process;\n"
    model = parse_or_raise(text).model
    assert any(d.rule == "V3" for d in validate_static(model))
    assert not has_errors(validate_static(model, mode="simplified"))


def test_simplified_mode_rejects_gate_endpoints():
    model = inter_flow_model(T, T)
    diags = validate_static(model, mode="simplified")
    assert any(d.rule == "V3" and d.severity is Severity.ERROR for d in diags)


def test_unknown_mode_raises():
    with pytest.raises(ValueError):
        validate_static(StaticModel(), mode="weird")


# -- events (V8) --------------------------------------------------------------


def simple_event_model() -> StaticModel:
    return parse_or_raise(
        "machine A { create; process; }\nflow f1: A.create -> A.process;"
    ).model


def test_event_over_existing_stage_is_clean():
    model = simple_event_model()
    event = Event("E1", "E1", "t1", Region(frozenset({"A.create"})))
    assert validate_events(model, [event]) == []


def test_event_with_unknown_stage_is_v8():
    model = simple_event_model()
    event = Event("E1", "E1", "t1", Region(frozenset({"ghost"})))
    diags = validate_events(model, [event])
    assert [d.rule for d in diags] == ["V8"]
    assert diags[0].subject == "E1"


def test_event_edge_leaving_region_is_v8():
    model = simple_event_model()
    event = Event("E1", "E1", "t1", Region(frozenset({"A.create"}), frozenset({"f1"})))
    diags = validate_events(model, [event])
    assert any("outside the region" in d.message for d in diags)


def test_event_without_time_is_v8():
    model = simple_event_model()
    event = Event("E1", "E1", "  ", Region(frozenset({"A.create"})))
    assert any("time" in d.message for d in validate_events(model, [event]))


def test_event_empty_region_is_v8():
    model = simple_event_model()
    event = Event("E1", "E1", "t1", Region(frozenset()))
    assert any("empty" in d.message for d in validate_events(model, [event]))


# -- behavior (V9) ------------------------------------------------------------


def make_events(*ids: str) -> list[Event]:
    return [Event(i, i, "t", Region(frozenset({"A.create"}))) for i in ids]


def test_chain_behavior_is_clean():
    model = simple_event_model()
    events = make_events("E1", "E2", "E3")
    behavior = BehavioralModel.build(
        ["E1", "E2", "E3"], [BehaviorEdge("E1", "E2"), BehaviorEdge("E2", "E3")]
    )
    assert validate_behavior(model, events, behavior) == []


def test_undeclared_event_reference_is_v9_error():
    model = simple_event_model()
    events = make_events("E1")
    behavior = BehavioralModel(event_ids=frozenset({"E1", "E99"}), edges=())
    diags = validate_behavior(model, events, behavior)
    assert any(d.rule == "V9" and d.subject == "E99" and d.severity is Severity.ERROR for d in diags)


def test_repeated_looping_or_dangling_edge_on_raw_behavior_is_v9_error():
    model = simple_event_model()
    events = make_events("E1", "E2")
    edges = (
        BehaviorEdge("E1", "E2"),
        BehaviorEdge("E1", "E2"),
        BehaviorEdge("E2", "E2"),
        BehaviorEdge("E2", "E9"),
    )
    behavior = BehavioralModel(event_ids=frozenset({"E1", "E2"}), edges=edges)
    errors = [
        (d.rule, d.subject, d.message)
        for d in validate_behavior(model, events, behavior)
        if d.severity is Severity.ERROR
    ]
    assert errors == [
        ("V9", "E1", "duplicate edge 'E1' -> 'E2'"),
        ("V9", "E2", "self-edge on event 'E2'"),
        ("V9", "E9", "edge references undeclared event 'E9'"),
    ]


def test_cycle_is_a_warning():
    model = simple_event_model()
    events = make_events("E1", "E2")
    behavior = BehavioralModel.build(
        ["E1", "E2"], [BehaviorEdge("E1", "E2"), BehaviorEdge("E2", "E1")]
    )
    diags = validate_behavior(model, events, behavior)
    assert diags and all(d.severity is Severity.WARNING for d in diags)
    assert any("cycle" in d.message for d in diags)


def test_every_event_on_a_cycle_is_warned():
    # E1 closes the cycle that a depth-first search enters from E0
    model = simple_event_model()
    events = make_events("E0", "E1", "E2", "E3")
    behavior = BehavioralModel.build(
        ["E0", "E1", "E2", "E3"],
        [BehaviorEdge("E0", "E1"), BehaviorEdge("E1", "E2"), BehaviorEdge("E2", "E3"),
         BehaviorEdge("E3", "E1")],
    )
    assert [str(d) for d in validate_behavior(model, events, behavior)] == [
        "WARNING V9 E1: event lies on a cycle",
        "WARNING V9 E2: event lies on a cycle",
        "WARNING V9 E3: event lies on a cycle",
    ]


def test_unreachable_event_is_a_warning():
    model = simple_event_model()
    events = make_events("E1", "E2", "E3")
    # E2 and E3 form a cycle with no way in from the source E1
    behavior = BehavioralModel.build(
        ["E1", "E2", "E3"], [BehaviorEdge("E2", "E3"), BehaviorEdge("E3", "E2")]
    )
    diags = validate_behavior(model, events, behavior)
    assert any("unreachable" in d.message and d.subject == "E2" for d in diags)
    assert any("unreachable" in d.message and d.subject == "E3" for d in diags)


def test_diagnostics_are_sorted_and_stable():
    model = StaticModel(
        machines=(
            Machine(
                id="M",
                name="M",
                stages=(Stage("M.s1", P, "M"), Stage("M.s2", P, "M")),
            ),
        ),
        flows=(Flow("f1", "M.s1", "M.s2"), Flow("f0", "M.s2", "M.s1")),
    )
    once = validate_static(model)
    twice = validate_static(model)
    assert once == twice
    subjects = [d.subject for d in once]
    assert subjects == sorted(subjects, key=lambda s: (s[0], s))


@settings(max_examples=80, deadline=None)
@given(simplified_models())
def test_generated_simplified_models_are_clean(model):
    assert not has_errors(validate_static(model, mode="simplified"))


@st.composite
def raw_behaviors(draw) -> BehavioralModel:
    """Behavior graphs the constructor would reject as well as accept: any
    edges among a few events, self-edges and undeclared targets included."""
    declared = [f"E{i}" for i in range(draw(st.integers(1, 7)))]
    ends = st.sampled_from(declared + ["X1", "X2"])
    edges = draw(st.lists(st.tuples(st.sampled_from(declared), ends), max_size=14))
    edges += draw(st.lists(st.tuples(st.sampled_from(["X1", "X2"]), ends), max_size=3))
    return BehavioralModel(frozenset(declared), tuple(BehaviorEdge(a, b) for a, b in edges))


def networkx_v9_warnings(behavior: BehavioralModel) -> set[tuple[str, str]]:
    """V9's cycle and unreachable warnings, read off networkx: every node on
    a cycle that an event leads to, and every event no source leads to."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(behavior.event_ids)
    g.add_edges_from((e.source, e.target) for e in behavior.edges)
    seen = set(behavior.event_ids).union(*(nx.descendants(g, e) for e in behavior.event_ids))
    looped = {u for u, _ in nx.selfloop_edges(g)}
    warnings = {
        ("event lies on a cycle", node)
        for component in nx.strongly_connected_components(g)
        if len(component) > 1 or component & looped
        for node in component & seen
    }
    sources = behavior.sources()
    reached = set(sources).union(*(nx.descendants(g, e) for e in sources))
    warnings |= {("event is unreachable from any source event", e)
                 for e in behavior.event_ids - reached}
    return warnings


@settings(max_examples=300, deadline=None)
@given(raw_behaviors())
def test_cycle_and_unreachable_warnings_agree_with_networkx(behavior):
    expected = networkx_v9_warnings(behavior)
    events = make_events(*behavior.event_ids)
    warnings = [(d.message, d.subject) for d in validate_behavior(simple_event_model(), events,
                                                                  behavior)
                if d.severity is Severity.WARNING]
    assert len(warnings) == len(set(warnings))
    assert set(warnings) == expected
