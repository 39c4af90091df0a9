"""Events, coverage, and trace conformance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import canonical_models, count_natural_keys
from tmkit import (
    BehavioralModel,
    BehaviorEdge,
    EmptyRegion,
    Event,
    MissingTime,
    Region,
    UnknownEvent,
    UnknownStage,
    conform,
    coverage,
    eventize,
    parse_or_raise,
)


@pytest.fixture()
def police_model():
    text = (
        "machine Assessment { process; release; transfer; }\n"
        "machine Police { transfer; receive; process; }\n"
        "machine Intake { create; }\n"
        "flow f1: Intake.create -> Assessment.process;\n"
        "flow f2: Assessment.process -> Assessment.release;\n"
        "flow f3: Assessment.release -> Assessment.transfer;\n"
        "flow f4: Assessment.transfer -> Police.transfer;\n"
        "flow f5: Police.transfer -> Police.receive;\n"
        "flow f6: Police.receive -> Police.process;\n"
    )
    return parse_or_raise(text).model


def test_eventize_closes_region_over_edges(police_model):
    region = Region(
        frozenset(
            {
                "Assessment.release",
                "Assessment.transfer",
                "Police.transfer",
                "Police.receive",
                "Police.process",
            }
        )
    )
    event = Event("E5", "sent to the police station", "1/1/2021", region)
    closed = eventize(police_model, event)
    assert closed.region.edge_ids == {"f3", "f4", "f5", "f6"}
    assert closed.time == "1/1/2021"


def test_eventize_whole_model(police_model):
    all_ids = frozenset(s.id for s in police_model.all_stages())
    event = Event("E0", "everything", "t0", Region(all_ids))
    closed = eventize(police_model, event)
    assert closed.region.stage_ids == all_ids
    assert len(closed.region.edge_ids) == len(police_model.flows)


def test_eventize_rejects_missing_time(police_model):
    event = Event("E1", "E1", "   ", Region(frozenset({"Intake.create"})))
    with pytest.raises(MissingTime):
        eventize(police_model, event)


def test_eventize_rejects_empty_region(police_model):
    event = Event("E1", "E1", "t1", Region(frozenset()))
    with pytest.raises(EmptyRegion):
        eventize(police_model, event)


def test_eventize_rejects_unknown_stage(police_model):
    event = Event("E1", "E1", "t1", Region(frozenset({"ghost"})))
    with pytest.raises(UnknownStage):
        eventize(police_model, event)


def test_eventize_is_idempotent(police_model):
    event = Event("E1", "E1", "t1", Region(frozenset({"Assessment.release", "Assessment.transfer"})))
    once = eventize(police_model, event)
    assert eventize(police_model, once) == once


def test_coverage_partition_is_empty(police_model):
    stages = sorted(s.id for s in police_model.all_stages())
    half, rest = stages[:3], stages[3:]
    events = [
        Event("E1", "E1", "t1", Region(frozenset(half))),
        Event("E2", "E2", "t2", Region(frozenset(rest))),
    ]
    assert coverage(police_model, events) == ()


def test_coverage_is_the_set_difference(police_model):
    stages = sorted(s.id for s in police_model.all_stages())
    half = stages[: len(stages) // 2]
    events = [Event("E1", "E1", "t1", Region(frozenset(half)))]
    expected = tuple(sorted(set(stages) - set(half)))
    got = coverage(police_model, events)
    assert set(got) == set(expected)
    assert coverage(police_model, events) == got  # deterministic order


def test_coverage_sorts_only_the_uncovered_ids(monkeypatch):
    model = parse_or_raise(
        "machine M1 { create; process; }\nmachine M01 { create; }\nmachine M2 { create; }\n"
    ).model
    events = [Event("E", "E", "t", Region(frozenset({"M2.create"})))]
    keyed = count_natural_keys(monkeypatch)
    # M1.create and M01.create tie in natural order and keep the model's order
    assert coverage(model, events) == ("M1.create", "M01.create", "M1.process")
    # each uncovered id is keyed once, and no other id
    assert keyed == dict.fromkeys(["M1.create", "M01.create", "M1.process"], 1)
    assert coverage(model, events) == tuple(model.in_natural_order(
        ["M1.create", "M1.process", "M01.create"]))


@settings(max_examples=50, deadline=None)
@given(canonical_models(max_machines=4), st.data())
def test_coverage_complements_the_union_of_regions(model, data):
    stage_ids = sorted(s.id for s in model.all_stages())
    if not stage_ids:
        return
    chosen = data.draw(
        st.lists(
            st.lists(st.sampled_from(stage_ids), min_size=1, max_size=4, unique=True),
            max_size=3,
        )
    )
    events = [
        Event(f"E{i}", f"E{i}", "t", Region(frozenset(sub))) for i, sub in enumerate(chosen)
    ]
    uncovered = set(coverage(model, events))
    union = set().union(*(e.region.stage_ids for e in events)) if events else set()
    assert uncovered | union == set(stage_ids)
    assert uncovered & union == set()


# -- conform ------------------------------------------------------------------


def branchy_behavior() -> BehavioralModel:
    return BehavioralModel.build(
        ["E1", "E2", "E3", "E4", "E5"],
        [
            BehaviorEdge("E1", "E2"),
            BehaviorEdge("E2", "E3", "branch"),
            BehaviorEdge("E2", "E4", "branch"),
            BehaviorEdge("E3", "E5"),
            BehaviorEdge("E4", "E5"),
        ],
    )


def test_conform_follows_direct_edges():
    verdict = conform(["E1", "E2", "E3", "E5"], branchy_behavior())
    assert verdict.conforms
    assert verdict.violation_index is None


def test_conform_fails_on_missing_edge_with_group_note():
    verdict = conform(["E1", "E2", "E3", "E4"], branchy_behavior())
    assert not verdict.conforms
    assert verdict.violation_index == 3
    assert "no edge E3 -> E4" in verdict.reason
    assert "branch" in verdict.reason


def test_conform_requires_source_start():
    verdict = conform(["E2", "E3"], branchy_behavior())
    assert not verdict.conforms
    assert verdict.violation_index == 0


def test_single_event_trace_on_source_conforms():
    verdict = conform(["E1"], branchy_behavior())
    assert verdict.conforms


def test_conform_unknown_event():
    with pytest.raises(UnknownEvent):
        conform(["E1", "Nope"], branchy_behavior())


def test_conform_rejects_empty_trace():
    with pytest.raises(ValueError):
        conform([], branchy_behavior())


@st.composite
def behavior_and_trace(draw):
    n = draw(st.integers(2, 6))
    ids = [f"E{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.booleans()) and draw(st.booleans()):
                group = draw(st.one_of(st.none(), st.sampled_from(["g1", "g2"])))
                edges.append(BehaviorEdge(ids[i], ids[j], group))
    behavior = BehavioralModel.build(ids, edges)
    trace = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6))
    return behavior, trace


@settings(max_examples=150, deadline=None)
@given(behavior_and_trace())
def test_conform_is_prefix_monotone(data):
    behavior, trace = data
    verdict = conform(trace, behavior)
    if verdict.conforms:
        return
    k = verdict.violation_index
    for cut in range(k + 1, len(trace) + 1):
        sub = conform(trace[:cut], behavior)
        assert not sub.conforms
        assert sub.violation_index <= k


@settings(max_examples=80, deadline=None)
@given(behavior_and_trace())
def test_length_one_traces(data):
    behavior, trace = data
    verdict = conform(trace[:1], behavior)
    is_source = trace[0] in behavior.sources()
    assert verdict.conforms == is_source
    if not is_source:
        assert verdict.violation_index == 0
