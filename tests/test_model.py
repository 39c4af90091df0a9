"""Core type invariants and graph queries."""

from __future__ import annotations

import contextlib
import copy
import inspect
import pickle
import re
import unicodedata
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tmkit.model
from strategies import (
    canonical_models,
    count_natural_keys,
    documents,
    simplified_models,
    tied,
    tied_documents,
)
from tmkit import (
    ActionKind,
    BehavioralModel,
    EmptyRegion,
    Flow,
    Machine,
    ModelError,
    Severity,
    Stage,
    StaticModel,
    TmError,
    Trigger,
    UnknownMachine,
    UnknownStage,
    document_to_json,
    expand,
    find_stage,
    induced_region,
    model_isomorphic,
    parse_or_raise,
    print_model,
    render_static,
    simplify,
    validate_static,
)
from tmkit.behavior import Verdict
from tmkit.dsl import CommentMap, ParseDiagnostic, ParseResult, SourceSpan
from tmkit.model import (
    BehaviorEdge,
    Event,
    Problem,
    Record,
    Region,
    check_events,
    check_model,
    natural_key,
    nest,
    strong_components,
)
from tmkit.uml import ActivityEdge, ActivityGraph, ActivityNode
from tmkit.validate import Diagnostic

C, P, R, T, V = ActionKind


def two_machine_chain() -> StaticModel:
    a = Machine(
        id="A",
        name="A",
        stages=(
            Stage("A.create", C, "A"),
            Stage("A.release", R, "A"),
            Stage("A.transfer", T, "A"),
        ),
    )
    b = Machine(
        id="B",
        name="B",
        stages=(
            Stage("B.transfer", T, "B"),
            Stage("B.receive", V, "B"),
            Stage("B.process", P, "B"),
        ),
    )
    flows = (
        Flow("f1", "A.release", "A.transfer"),
        Flow("f2", "A.transfer", "B.transfer"),
        Flow("f3", "B.transfer", "B.receive"),
        Flow("f4", "B.receive", "B.process"),
    )
    return StaticModel.build((a, b), flows)


# -- natural ordering ---------------------------------------------------------


def test_natural_key_orders_numbers_numerically():
    items = ["f10", "f2", "f1", "t3", "E19", "E2"]
    assert sorted(items, key=natural_key) == ["E2", "E19", "f1", "f2", "f10", "t3"]


def test_natural_key_orders_digit_runs_past_the_int_conversion_limit():
    long_ones, shorter_nines = "a" + "1" * 5000, "a" + "9" * 4999
    assert sorted([long_ones, shorter_nines], key=natural_key) == [shorter_nines, long_ones]
    assert natural_key("a" + "0" * 5000 + "7") == natural_key("a7")


# decimal digits of several scripts: ASCII, Arabic-Indic, Devanagari,
# fullwidth, mathematical bold; a run may mix them, as \d does
_DIGITS = (
    "0123456789" "\u0660\u0661\u0662\u0663\u0669" "\u0966\u0967\u096f" "\uff10\uff11\uff19"
    "\U0001d7ce\U0001d7cf\U0001d7d7"
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from(_DIGITS), min_size=1, max_size=6), max_size=12))
def test_natural_key_orders_digit_runs_as_int_does(runs):
    assert sorted(runs, key=natural_key) == sorted(runs, key=int)
    named = ["f" + run for run in runs]
    assert sorted(named, key=natural_key) == sorted(named, key=lambda s: int(s[1:]))


def tuple_natural_key(text: str) -> tuple:
    """The oracle: natural order as a tuple of text parts ``(0, part)`` and
    digit runs ``(1, n, digits)``, the run in ASCII digits without its
    leading zeros, ``n`` of them."""
    return tuple([
        (1, len(digits := "".join(str(unicodedata.decimal(c)) for c in part).lstrip("0")), digits)
        if part.isdecimal() else (0, part)
        for part in re.split(r"(\d+)", text)
        if part
    ])


# digits of three scripts, runs of zeros, separators, the characters the
# string key writes between parts, and an astral character
_KEY_PIECES = ("0", "00", "000", "1", "7", "9", "10", "\u0663", "\u07c7", ".", "_", "a", "f",
               "\x00", "\x01", "\x02", "\x7f", "\U0001f600")
_key_texts = st.lists(st.sampled_from(_KEY_PIECES), max_size=8).map("".join)


@settings(max_examples=1000, deadline=None)
@given(st.tuples(_key_texts, _key_texts) | st.tuples(st.text(), st.text()))
def test_natural_key_compares_as_the_tuple_key(pair):
    a, b = pair
    key_a, key_b = natural_key(a), natural_key(b)
    oracle_a, oracle_b = tuple_natural_key(a), tuple_natural_key(b)
    assert (key_a < key_b) == (oracle_a < oracle_b)
    assert (key_b < key_a) == (oracle_b < oracle_a)
    assert (key_a == key_b) == (oracle_a == oracle_b)


def test_natural_key_writes_the_documented_string():
    assert natural_key("") == ""
    assert natural_key("f010") == "\x01f\x00\x01" "2" "10"
    assert natural_key("7a\x00") == "\x02\x00\x01" "1" "7" "a\x00\x7f"
    assert natural_key("x000") == "\x01x\x00\x01" "0"
    assert natural_key("1" * 12) == "\x02\x00\x02" "12" + "1" * 12


# -- constructors -------------------------------------------------------------


def test_build_rejects_duplicate_stage_kind():
    m = Machine(
        id="A",
        name="A",
        stages=(Stage("A.create", C, "A"), Stage("A.x", C, "A")),
    )
    with pytest.raises(ModelError, match="V5 A: machine 'A' has more than one create stage"):
        StaticModel.build((m,))


def test_build_rejects_dangling_flow():
    m = Machine(id="A", name="A", stages=(Stage("A.create", C, "A"),))
    with pytest.raises(ModelError, match="V1 f1: flow 'f1' references unknown stage 'nowhere'"):
        StaticModel.build((m,), flows=(Flow("f1", "A.create", "nowhere"),))


def test_build_rejects_self_loop():
    m = Machine(id="A", name="A", stages=(Stage("A.create", C, "A"),))
    with pytest.raises(ModelError, match="V2 f1: flow 'f1' is a self-loop"):
        StaticModel.build((m,), flows=(Flow("f1", "A.create", "A.create"),))


def test_build_rejects_constraint_without_process():
    m = Machine(id="A", name="A", is_constraint=True, stages=(Stage("A.create", C, "A"),))
    with pytest.raises(ModelError, match="V7 A: constraint machine 'A' has no process stage"):
        StaticModel.build((m,))


def test_build_normalizes_parent_links():
    child = Machine(id="A.B", name="B")
    root = Machine(id="A", name="A", submachines=(child,))
    model = StaticModel.build((root,))
    assert model.machines[0].submachines[0].parent == "A"


def test_build_keeps_machines_whose_links_already_hold():
    linked = Machine(id="A.B", name="B", parent="A")
    stale = Machine(id="A.C", name="C", submachines=(Machine(id="A.C.D", name="D", parent="A.C"),))
    root = Machine(id="A", name="A", submachines=(linked, stale))
    model = StaticModel.build((root,))
    new_root = model.machines[0]
    assert new_root is not root
    assert new_root.submachines[0] is linked
    assert new_root.submachines[1] is not stale and new_root.submachines[1].parent == "A"
    assert new_root.submachines[1].submachines[0] is stale.submachines[0]
    assert StaticModel.build(model.machines).machines[0] is new_root


def nested(depth: int) -> Machine:
    """A chain of machines nested `depth` levels below a root, ending in a process."""
    leaf_id = f"n{depth}"
    machine = Machine(id=leaf_id, name="n", stages=(Stage(f"{leaf_id}.process", P, leaf_id),))
    for level in range(depth - 1, -1, -1):
        machine = Machine(id=f"n{level}", name="n", submachines=(machine,))
    return machine


def test_deep_nesting_builds_walks_and_compares_without_recursion():
    model = StaticModel.build((nested(5000),))
    machines = list(model.all_machines())
    assert len(machines) == 5001
    assert [m.id for m in machines[:3]] == ["n0", "n1", "n2"]
    assert all(m.parent == f"n{i}" for i, m in enumerate(machines[1:]))
    assert model_isomorphic(model, model)


def _mutations(model: StaticModel):
    """Single-invariant breakers, applied through the raw constructor."""
    muts = []
    stages = list(model.all_stages())
    machines = list(model.all_machines())
    if stages:
        victim = stages[0]

        def patch_victim(extra: tuple[Stage, ...], owner: str):
            """Replace the victim stage's owner and append `extra` stages to its machine."""
            def patch(machine: Machine) -> Machine:
                subs = tuple(patch(s) for s in machine.submachines)
                if machine.id == victim.owner:
                    own = tuple(
                        s.replace(owner=owner) if s is victim else s for s in machine.stages
                    )
                    return machine.replace(stages=own + extra, submachines=subs)
                return machine.replace(submachines=subs)

            return lambda m: StaticModel(tuple(patch(r) for r in m.machines), m.flows, m.triggers)

        muts.append(patch_victim((victim.replace(id=victim.id + "_dup"),), victim.owner))
        muts.append(patch_victim((), victim.owner + "_elsewhere"))
        muts.append(
            lambda m: StaticModel(
                m.machines, m.flows + (Flow("bad", stages[0].id, "missing"),), m.triggers
            )
        )
        muts.append(
            lambda m: StaticModel(
                m.machines, m.flows + (Flow("bad", stages[0].id, stages[0].id),), m.triggers
            )
        )
        muts.append(
            lambda m: StaticModel(
                m.machines, m.flows, m.triggers + (Trigger("bad", stages[0].id, "missing"),)
            )
        )
        muts.append(
            lambda m: StaticModel(
                m.machines, m.flows, m.triggers + (Trigger("bad", stages[0].id, stages[0].id),)
            )
        )
    if machines:
        muts.append(
            lambda m: StaticModel(
                m.machines + (machines[0].replace(submachines=(), stages=()),),
                m.flows,
                m.triggers,
            )
        )
    return muts


@settings(max_examples=60, deadline=None)
@given(simplified_models(), st.data())
def test_every_single_invariant_break_is_rejected(model, data):
    muts = _mutations(model)
    broken = data.draw(st.sampled_from(muts))(model)
    problems = check_model(broken)
    assert problems
    with pytest.raises(ModelError):
        StaticModel.build(broken.machines, broken.flows, broken.triggers)
    errors = {(d.rule, d.subject) for d in validate_static(broken) if d.severity is Severity.ERROR}
    assert {(p.rule, p.subject) for p in problems} <= errors



def _model_takers(model: StaticModel) -> dict:
    """A call on ``model`` of each public function that takes a StaticModel."""
    stage = next(model.all_stages(), None)
    event = Event("E1", "E1", "t", Region(frozenset({"x" if stage is None else stage.id})))
    path = [model.machines[0].name] if model.machines else ["x"]
    return {
        "coverage": lambda: tmkit.coverage(model, (event,)),
        "document_to_json": lambda: tmkit.document_to_json(model, (event,)),
        "eventize": lambda: tmkit.eventize(model, event),
        "expand": lambda: tmkit.expand(model),
        "export_activity": lambda: tmkit.export_activity(model),
        "find_stage": lambda: find_stage(model, path, ActionKind.PROCESS),
        "induced_region": lambda: induced_region(model, event.region.stage_ids),
        "model_isomorphic": lambda: model_isomorphic(model, model),
        "print_model": lambda: tmkit.print_model(model, (event,)),
        "render_static": lambda: tmkit.render_static(model, event.region),
        "simplify": lambda: tmkit.simplify(model),
        "validate_behavior": lambda: tmkit.validate_behavior(model, (event,), BehavioralModel()),
        "validate_document": lambda: tmkit.validate_document(model, (event,)),
        "validate_events": lambda: tmkit.validate_events(model, (event,)),
        "validate_static": lambda: validate_static(model),
    }


def test_the_raw_break_table_calls_every_public_function_taking_a_model():
    takers = {
        name for name in tmkit.__all__
        if inspect.isfunction(function := getattr(tmkit, name))
        and any("StaticModel" in str(p.annotation)
                for p in inspect.signature(function).parameters.values())
    }
    assert takers == set(_model_takers(StaticModel()))


@settings(max_examples=60, deadline=None)
@given(simplified_models() | canonical_models(), st.data())
def test_every_public_function_returns_or_raises_a_tmerror_on_raw_breaks(model, data):
    broken = data.draw(st.sampled_from(_mutations(model)))(model)
    for name, call in _model_takers(broken).items():
        try:
            call()
        except TmError:
            pass
    with pytest.raises(ModelError):
        model_isomorphic(model, broken)


# -- one walk and one check per model ------------------------------------------


def _assert_index_is_the_generator_preorder(model: StaticModel) -> None:
    """`all_machines` and `all_stages` give the very objects, in the very
    order, that `Machine.walk` from each root and then each machine's stages
    give."""
    machines = [m for root in model.machines for m in root.walk()]
    stages = [s for m in machines for s in m.stages]
    got_machines, got_stages = list(model.all_machines()), list(model.all_stages())
    assert len(got_machines) == len(machines) and len(got_stages) == len(stages)
    assert all(a is b for a, b in zip(got_machines, machines))
    assert all(a is b for a, b in zip(got_stages, stages))


@settings(max_examples=100, deadline=None)
@given(documents())
def test_index_is_the_generator_preorder_on_documents(doc):
    _assert_index_is_the_generator_preorder(doc[0])


@settings(max_examples=60, deadline=None)
@given(simplified_models(max_machines=8), st.data())
def test_index_is_the_generator_preorder_on_raw_breaks(model, data):
    broken = data.draw(st.sampled_from(_mutations(model)))(model)
    _assert_index_is_the_generator_preorder(broken)


def test_index_walks_a_5000_deep_nest_without_recursion():
    model = StaticModel(machines=(nested(5000), nested(2)))
    _assert_index_is_the_generator_preorder(model)
    assert [m.id for m in model.all_machines()][4999:] == ["n4999", "n5000", "n0", "n1", "n2"]
    assert [s.id for s in model.all_stages()] == ["n5000.process", "n2.process"]


# -- one key per id -------------------------------------------------------------


def _assert_memo_sorts_as_natural_key(model: StaticModel, events=()) -> None:
    """Sorting through the model's natural-key memo gives, element for
    element, the order ``sorted(..., key=natural_key)`` gives."""
    def same(ranked: list, items) -> None:
        expected = sorted(items, key=lambda item: natural_key(item.id))
        assert len(ranked) == len(expected) and all(a is b for a, b in zip(ranked, expected))

    same(model.by_id(model.machines), model.machines)
    for machine in model.all_machines():
        same(model.by_id(machine.stages), machine.stages)
        same(model.by_id(machine.submachines), machine.submachines)
    same(model.by_id(model.flows), model.flows)
    same(model.by_id(model.triggers), model.triggers)
    covered = set().union(*[e.region.stage_ids for e in events])
    uncovered = [s.id for s in model.all_stages() if s.id not in covered]
    assert list(tmkit.coverage(model, events)) == sorted(uncovered, key=natural_key)
    for event in events:  # region ids may name ids outside the model
        for ids in (event.region.stage_ids, event.region.edge_ids):
            assert model.in_natural_order(ids) == sorted(ids, key=natural_key)


@settings(max_examples=100, deadline=None)
@given(documents() | tied_documents())
def test_memo_sorts_as_natural_key_on_documents(doc):
    _assert_memo_sorts_as_natural_key(doc[0], doc[1])


@settings(max_examples=60, deadline=None)
@given(simplified_models() | canonical_models(), st.data())
def test_memo_sorts_as_natural_key_on_raw_breaks(model, data):
    broken = data.draw(st.sampled_from(_mutations(model)))(model)
    _assert_memo_sorts_as_natural_key(broken)


def test_memo_ties_ids_whose_natural_keys_are_equal():
    long_a7 = "a" + "0" * 5000 + "7"
    a7, a07, a8 = (Machine(i, "n", stages=(Stage(f"{i}.create", C, i),))
                   for i in ("a7", tied("a7"), "a8"))
    subs = (Machine(long_a7, "n"), Machine("a10", "n"), Machine("a7", "n"))
    flows = tuple(Flow(i, "a7.create", "a8.create") for i in ("f10", "f01", "f2", "f1", "f001"))
    # a repeated id too: the machine a7 is a root and a submachine
    model = StaticModel((a8.replace(submachines=subs), a07, a7), flows)
    keys = model.natural_keys()
    assert keys["a7"] == keys["a07"] == keys[long_a7] < keys["a8"] < keys["a10"]
    assert [f.id for f in model.by_id(flows)] == ["f01", "f1", "f001", "f2", "f10"]
    assert [m.id for m in model.by_id(subs)] == [long_a7, "a7", "a10"]
    event = Event("E", "E", "t", Region(frozenset({"a07.create"})))
    _assert_memo_sorts_as_natural_key(model, (event,))
    assert model.natural_keys() is keys
    # derived state: not a field, and not carried by equality, copies or replace
    assert model == StaticModel(model.machines, flows) and "_keys" not in model.replace().__dict__
    assert "_keys" not in pickle.loads(pickle.dumps(model)).__dict__


# machines, flows and events whose ids tie in natural order (M1 and M01, f1
# and f01), gate chains for simplify, and a trigger on a gate stage
_TIED_DOCUMENT = """\
machine M1 {
  create;
  process;
  release;
  transfer;
  machine S1 {
    create;
  }
  machine S01 {
    create;
  }
}

machine M01 {
  process store;
  transfer;
  receive;
}

machine M2 {
  create;
  process;
  transfer;
  receive;
}

flow f1: M1.create -> M1.process;

flow f01: M1.process -> M1.release;

flow f2: M1.release -> M1.transfer;

flow f3: M01.transfer -> M01.receive;

flow f4: M01.receive -> M01.process;

flow f5: M1.transfer -> M2.transfer;

flow f6: M2.transfer -> M2.receive;

flow f7: M2.receive -> M2.process;

flow f8: M1.S1.create -> M1.S01.create;

flow f10: M1.transfer -> M01.transfer;

trigger t1: M1.transfer => M01.process if "sent";

trigger t01: M01.process => M2.create;

event E1 {
  time "t1";
  region {
    M1.create
    M1.process
    edge f1
  }
}

event E01 {
  time "t01";
  region {
    M01.process
  }
}

behavior {
  E1 -> E01;
}
"""


def test_each_string_reaches_natural_key_once_across_the_writers_and_transforms(monkeypatch):
    doc = parse_or_raise(_TIED_DOCUMENT)
    model, events, behavior = doc.model, doc.events, doc.behavior
    keyed = count_natural_keys(monkeypatch)
    simple = simplify(model)
    expanded = expand(simple)
    coverage = tmkit.coverage(model, events)
    assert print_model(model, events, behavior) == _TIED_DOCUMENT
    document_to_json(model, events, behavior)
    render_static(model)
    print_model(simple)
    document_to_json(expanded)
    render_static(expanded, doc.events[0].region)
    covered = set().union(*[e.region.stage_ids for e in events])
    assert coverage == tuple(sorted([s.id for s in model.all_stages() if s.id not in covered],
                                    key=tuple_natural_key))
    ids = {x.id for m in (model, simple, expanded)
           for x in (*m.all_machines(), *m.all_stages(), *m.flows, *m.triggers)}
    assert ids <= keyed.keys() and max(keyed.values()) == 1
    assert simple.natural_keys() is expanded.natural_keys() is model.natural_keys()
def test_a_built_model_is_checked_once_and_a_raw_one_on_first_use(monkeypatch):
    checked = []

    def counting_check(model):
        checked.append(model)
        return check_model(model)

    monkeypatch.setattr(tmkit.model, "check_model", counting_check)
    built = two_machine_chain()
    assert len(checked) == 1 and checked[0] is built
    for mode in ("full", "simplified"):
        validate_static(built, mode=mode)
    assert len(checked) == 1

    raw = StaticModel(built.machines, built.flows + (Flow("bad", "A.create", "A.create"),))
    assert len(checked) == 1
    first = validate_static(raw)
    assert validate_static(raw) == first
    assert len(checked) == 2 and checked[1] is raw
    assert raw.problems() == tuple(check_model(raw)) != ()
    assert [(d.rule, d.subject) for d in first if d.severity is Severity.ERROR] == [("V2", "bad")]


def test_check_events_reports_each_repeated_event_id():
    region = Region(frozenset({"A.create"}))
    events = [Event(eid, eid, "t", region) for eid in ("E1", "E2", "E1", "E1")]
    assert check_events(StaticModel(), events) == [
        Problem("V8", "E1", "event id declared more than once")
    ] * 2
    assert check_events(StaticModel(), events[:2]) == []


def test_check_events_reports_an_event_id_that_names_a_model_element():
    model = two_machine_chain()
    region = Region(frozenset({"A.create"}))
    events = [Event(eid, eid, "t", region) for eid in ("A", "A.create", "f1", "E1")]
    assert check_events(model, events) == [
        Problem("V8", "A", "duplicate id 'A' (machine vs event)"),
        Problem("V8", "A.create", "duplicate id 'A.create' (stage vs event)"),
        Problem("V8", "f1", "duplicate id 'f1' (flow vs event)"),
    ]


# -- find_stage ---------------------------------------------------------------


def test_find_stage_on_nested_machines():
    inner = Machine(id="A.B", name="B", stages=(Stage("A.B.process", P, "A.B"),))
    root = Machine(id="A", name="A", submachines=(inner,))
    model = StaticModel.build((root,))
    stage = find_stage(model, ["A", "B"], P)
    assert stage is not None and stage.id == "A.B.process"


def test_find_stage_unknown_machine():
    with pytest.raises(UnknownMachine):
        find_stage(StaticModel(), ["X"], P)


def test_find_stage_empty_path():
    with pytest.raises(UnknownMachine):
        find_stage(two_machine_chain(), [], P)


def test_find_stage_absent_kind():
    m = Machine(id="A", name="A", stages=(Stage("A.process", P, "A"),))
    model = StaticModel.build((m,))
    assert find_stage(model, ["A"], R) is None


# -- induced_region -----------------------------------------------------------


def test_induced_region_closes_over_internal_edges():
    model = two_machine_chain()
    region = induced_region(model, {"A.release", "A.transfer"})
    assert region.stage_ids == {"A.release", "A.transfer"}
    assert region.edge_ids == {"f1"}


def test_induced_region_single_stage():
    model = two_machine_chain()
    region = induced_region(model, {"A.create"})
    assert region.edge_ids == frozenset()


def test_induced_region_unknown_stage():
    with pytest.raises(UnknownStage):
        induced_region(two_machine_chain(), {"A.create", "ghost"})


def test_induced_region_empty_input():
    with pytest.raises(EmptyRegion):
        induced_region(two_machine_chain(), set())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_induced_region_matches_the_full_edge_scan(data):
    model = data.draw(st.one_of(simplified_models(5), canonical_models(5)))
    stage_ids = sorted(s.id for s in model.all_stages())
    assume(stage_ids)
    chosen = set(data.draw(st.lists(st.sampled_from(stage_ids), min_size=1, unique=True)))
    ghosts = data.draw(st.lists(st.sampled_from(["ghost", "f10", "f9", "~"]), unique=True))
    if ghosts:
        first = sorted(ghosts, key=natural_key)[0]
        with pytest.raises(UnknownStage, match=f"unknown stage {first!r}"):
            induced_region(model, chosen | set(ghosts))
        return
    inside = frozenset(
        e.id for e in (*model.flows, *model.triggers) if e.source in chosen and e.target in chosen
    )
    assert induced_region(model, chosen) == Region(frozenset(chosen), inside)


@settings(max_examples=50, deadline=None)
@given(canonical_models(max_machines=4), st.data())
def test_induced_region_is_monotone(model, data):
    stage_ids = sorted(s.id for s in model.all_stages())
    if not stage_ids:
        return
    small = data.draw(
        st.lists(st.sampled_from(stage_ids), min_size=1, max_size=3, unique=True)
    )
    extra = data.draw(st.lists(st.sampled_from(stage_ids), max_size=3, unique=True))
    r_small = induced_region(model, small)
    r_big = induced_region(model, set(small) | set(extra))
    assert r_small.edge_ids <= r_big.edge_ids


# -- isomorphism --------------------------------------------------------------


def brute_isomorphic(a: StaticModel, b: StaticModel) -> bool:
    """Exhaustive bijection search; independent of the library's matcher."""
    a_machines = list(a.all_machines())
    b_machines = list(b.all_machines())
    if len(a_machines) != len(b_machines):
        return False

    def stage_map(mapping):
        smap = {}
        for am in a_machines:
            bm = b.machines_by_id[mapping[am.id]]
            a_kinds = {s.kind: s for s in am.stages}
            b_kinds = {s.kind: s for s in bm.stages}
            if set(a_kinds) != set(b_kinds):
                return None
            for kind, stage in a_kinds.items():
                if stage.has_storage != b_kinds[kind].has_storage:
                    return None
                smap[stage.id] = b_kinds[kind].id
        return smap

    for perm in permutations(b_machines):
        mapping = {am.id: bm.id for am, bm in zip(a_machines, perm)}
        ok = True
        for am, bm in zip(a_machines, perm):
            if am.is_constraint != bm.is_constraint:
                ok = False
                break
            a_parent = mapping.get(am.parent) if am.parent else None
            if a_parent != bm.parent:
                ok = False
                break
        if not ok:
            continue
        smap = stage_map(mapping)
        if smap is None:
            continue
        if {(smap[f.source], smap[f.target]) for f in a.flows} != {
            (f.source, f.target) for f in b.flows
        }:
            continue
        if sorted((smap[t.source], smap[t.target], t.guard or "") for t in a.triggers) != sorted(
            (t.source, t.target, t.guard or "") for t in b.triggers
        ):
            continue
        return True
    return False


def rename_everything(model: StaticModel) -> StaticModel:
    """Fresh ids everywhere, same structure."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"x{counter[0]}"

    stage_names: dict[str, str] = {}

    def rebuild(machine: Machine) -> Machine:
        new_id = fresh()
        stages = []
        for s in machine.stages:
            sid = f"{new_id}.{s.kind.value}"
            stage_names[s.id] = sid
            stages.append(s.replace(id=sid, owner=new_id))
        subs = tuple(rebuild(sub) for sub in machine.submachines)
        return Machine(
            id=new_id,
            name=machine.name,
            is_constraint=machine.is_constraint,
            stages=tuple(stages),
            submachines=subs,
        )

    machines = tuple(rebuild(r) for r in model.machines)
    flows = tuple(
        Flow(fresh(), stage_names[f.source], stage_names[f.target]) for f in model.flows
    )
    triggers = tuple(
        Trigger(fresh(), stage_names[t.source], stage_names[t.target], t.guard)
        for t in model.triggers
    )
    return StaticModel.build(machines, flows, triggers)


def test_isomorphic_to_itself():
    model = two_machine_chain()
    assert model_isomorphic(model, model)


def test_isomorphic_ignores_ids():
    model = two_machine_chain()
    assert model_isomorphic(model, rename_everything(model))


def chain_of_machines(n: int) -> StaticModel:
    machines = []
    flows = []
    for i in range(n):
        mid = f"c{i}"
        machines.append(
            Machine(
                id=mid,
                name=mid,
                stages=(Stage(f"{mid}.create", C, mid), Stage(f"{mid}.process", P, mid)),
            )
        )
        flows.append(Flow(f"f{i}", f"{mid}.create", f"{mid}.process"))
    return StaticModel.build(tuple(machines), tuple(flows))


def test_chain_length_is_distinguished():
    a, b = chain_of_machines(3), chain_of_machines(2)
    assert not model_isomorphic(a, b)
    assert not brute_isomorphic(a, b)


@settings(max_examples=60, deadline=None)
@given(simplified_models(max_machines=4))
def test_isomorphism_matches_brute_force_oracle(model):
    renamed = rename_everything(model)
    assert model_isomorphic(model, renamed) == brute_isomorphic(model, renamed) is True


@settings(max_examples=40, deadline=None)
@given(simplified_models(max_machines=4), simplified_models(max_machines=4))
def test_isomorphism_agrees_with_oracle_on_pairs(a, b):
    assert model_isomorphic(a, b) == brute_isomorphic(a, b)


@settings(max_examples=30, deadline=None)
@given(
    simplified_models(max_machines=3),
    simplified_models(max_machines=3),
    simplified_models(max_machines=3),
)
def test_isomorphism_is_an_equivalence(a, b, c):
    assert model_isomorphic(a, a)
    assert model_isomorphic(a, b) == model_isomorphic(b, a)
    if model_isomorphic(a, b) and model_isomorphic(b, c):
        assert model_isomorphic(a, c)


def process_machines(names, flows) -> StaticModel:
    machines = [Machine(id=n, name=n, stages=(Stage(f"{n}.process", P, n),)) for n in names]
    links = [Flow(f"f{i}", f"{s}.process", f"{t}.process") for i, (s, t) in enumerate(flows)]
    return StaticModel.build(machines, links)


def test_isomorphism_has_no_false_negative_on_crossed_flows():
    a = process_machines(["M1", "M2", "M3", "M4"], [("M1", "M2"), ("M3", "M4")])
    b = process_machines(["N1", "N2", "N3", "N4"], [("N1", "N4"), ("N2", "N3")])
    assert brute_isomorphic(a, b)
    assert model_isomorphic(a, b)


def cycles(*lengths: int) -> StaticModel:
    names, flows = [], []
    for k, n in enumerate(lengths):
        ring = [f"c{k}_{i}" for i in range(n)]
        names += ring
        flows += zip(ring, ring[1:] + ring[:1])
    return process_machines(names, flows)


def test_isomorphism_backtracks_when_colours_cannot_split_cycles():
    # every machine has one flow in and one out, so the first pairing tried
    # puts a 3-cycle machine onto the 6-cycle and must be undone
    assert model_isomorphic(cycles(3, 6), cycles(6, 3))
    assert not model_isomorphic(cycles(3, 6), cycles(9))
    assert not model_isomorphic(cycles(3, 3), cycles(6))


_BASE = """\
machine A { create; process; }
machine B constraint { process; machine S { create; } }
flow A.create -> A.process;
flow A.process -> B.process;
trigger B.process => A.create if "go";
"""


@pytest.mark.parametrize(
    "old, new",
    [
        ("machine A { create; process; }", "machine A { create; process store; }"),
        ("machine B constraint {", "machine B {"),
        ('if "go"', 'if "stop"'),
        ('if "go"', ""),
        ("machine S { create; }", "machine S { process; }"),
        ("process; machine S { create; } }", "process; }\nmachine S { create; }"),
        ("flow A.process -> B.process;", "flow B.process -> A.process;"),
    ],
)
def test_isomorphism_notices_each_compared_part(old, new):
    base = parse_or_raise(_BASE).model
    assert model_isomorphic(base, rename_everything(base))
    variant = parse_or_raise(_BASE.replace(old, new)).model
    assert not model_isomorphic(base, variant)
    assert not brute_isomorphic(base, variant)


def test_isomorphism_counts_parallel_links_and_equates_empty_guards():
    doubled = _BASE + "flow f9: A.process -> B.process;\n"
    other = _BASE + "flow f9: A.create -> A.process;\n"
    assert not model_isomorphic(parse_or_raise(doubled).model, parse_or_raise(other).model)
    unguarded = parse_or_raise(_BASE.replace('if "go"', "")).model
    empty = parse_or_raise(_BASE.replace('if "go"', 'if ""')).model
    assert model_isomorphic(unguarded, empty)


def test_isomorphism_on_many_roots_and_long_chains_does_not_recurse():
    names = [f"m{i}" for i in range(5000)]
    roots = process_machines(names, [])
    assert model_isomorphic(roots, rename_everything(roots))
    chain = process_machines(names, list(zip(names, names[1:])))
    renamed = rename_everything(chain)
    backwards = StaticModel.build(renamed.machines[::-1], renamed.flows[::-1])
    assert model_isomorphic(chain, backwards)
    assert not model_isomorphic(chain, roots)


def test_strong_components_on_long_chains_and_cycles_do_not_recurse():
    n = 100_000
    chain = strong_components([0], lambda i: [i + 1] if i + 1 < n else [])
    assert chain == [[i] for i in reversed(range(n))]
    cycle = strong_components([0], lambda i: [(i + 1) % n])
    assert len(cycle) == 1 and sorted(cycle[0]) == list(range(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
)))
def test_strong_components_agree_with_networkx(graph):
    nx = pytest.importorskip("networkx")
    edges, roots = graph
    g = nx.DiGraph(edges)
    g.add_nodes_from(roots)
    reachable = set(roots).union(*(nx.descendants(g, r) for r in roots))
    calls = []

    def successors(node):
        calls.append(node)
        return sorted(g.successors(node))

    components = strong_components(roots, successors)
    assert sorted(calls) == sorted(reachable)  # once per node
    assert sorted(map(frozenset, components), key=sorted) == sorted(
        (frozenset(c) for c in nx.strongly_connected_components(g.subgraph(reachable))),
        key=sorted,
    )
    # each component comes after every component it leads to
    position = {node: k for k, members in enumerate(components) for node in members}
    assert all(position[u] >= position[v] for u, v in g.subgraph(reachable).edges)


@st.composite
def _forests(draw) -> tuple[list[int], dict[int, list[int]]]:
    """Roots and each node's children, as numbered nodes: each node after
    the first is a root or a child of a node numbered below it."""
    children: dict[int, list[int]] = {}
    roots: list[int] = []
    for node in range(draw(st.integers(0, 40))):
        parent = draw(st.none() | st.integers(0, node - 1)) if node else None
        (roots if parent is None else children[parent]).append(node)
        children[node] = []
    return roots, children


def _nest_reference(roots, children, depth=0) -> list[tuple[int, int, bool]]:
    """What `nest` yields, by recursion."""
    out = []
    for node in roots:
        out.append((node, depth, True))
        out += _nest_reference(children[node], children, depth + 1)
        out.append((node, depth, False))
    return out


def _nest_counting_calls(roots, children) -> tuple[list, list]:
    calls = []

    def kids(node):
        calls.append(node)
        return children[node]

    return list(nest(roots, kids)), calls


@settings(max_examples=300, deadline=None)
@given(_forests())
def test_nest_opens_in_preorder_and_closes_in_postorder(forest):
    roots, children = forest
    steps, calls = _nest_counting_calls(roots, children)
    expected = _nest_reference(roots, children)
    # the opens in preorder with their depths, the closes in postorder
    assert [step for step in steps if step[2]] == [step for step in expected if step[2]]
    assert [step for step in steps if not step[2]] == [step for step in expected if not step[2]]
    assert steps == expected  # each node closes after everything under it
    assert sorted(calls) == sorted(children)  # once per node


def test_nest_walks_a_5000_deep_chain_without_recursion():
    n = 5000
    children = {i: [i + 1] if i + 1 < n else [] for i in range(n)}
    steps, calls = _nest_counting_calls([0], children)
    assert steps == [(i, i, True) for i in range(n)] + [(i, i, False) for i in reversed(range(n))]
    assert calls == list(range(n))


def stage_multigraph(model: StaticModel):
    """The model as a networkx multigraph over machines and stages, encoded
    without the library's machine-level digraph."""
    nx = pytest.importorskip("networkx")
    g = nx.MultiDiGraph()
    for m in model.all_machines():
        g.add_node(m.id, label=("machine", m.is_constraint))
        for sub in m.submachines:
            g.add_edge(m.id, sub.id, label="sub")
        for s in m.stages:
            g.add_node(s.id, label=("stage", s.kind.value, s.has_storage))
            g.add_edge(m.id, s.id, label="owns")
    for f in model.flows:
        g.add_edge(f.source, f.target, label="flow")
    for t in model.triggers:
        g.add_edge(t.source, t.target, label=("trigger", t.guard or ""))
    return g


def networkx_isomorphic(a, b) -> bool:
    from networkx.algorithms import isomorphism as iso

    return iso.MultiDiGraphMatcher(
        a,
        b,
        node_match=iso.categorical_node_match("label", None),
        edge_match=iso.categorical_multiedge_match("label", None),
    ).is_isomorphic()


@settings(max_examples=150, deadline=None)
@given(simplified_models(max_machines=4), simplified_models(max_machines=4), st.booleans())
def test_isomorphism_agrees_with_networkx(a, b, renamed):
    if renamed:
        b = rename_everything(a)
        b = StaticModel.build(b.machines[::-1], b.flows[::-1], b.triggers[::-1])
    expected = networkx_isomorphic(stage_multigraph(a), stage_multigraph(b))
    assert model_isomorphic(a, b) == expected
    assert expected or not renamed



# -- the record contract -----------------------------------------------------------

_STAGE = ("A.create", ActionKind.CREATE, "A", True, "make")
_STAGE_REPR = ("Stage(id='A.create', kind=<ActionKind.CREATE: 'create'>, owner='A',"
               " has_storage=True, label='make')")
_REGION_REPR = "Region(stage_ids=frozenset({'A.create'}), edge_ids=frozenset())"

# each public record type: its fields and values in order, its repr as the
# dataclass it replaced printed it, and the defaults of its trailing fields
RECORDS = [
    (Stage, ("id", "kind", "owner", "has_storage", "label"), _STAGE, _STAGE_REPR,
     {"has_storage": False, "label": None}),
    (Machine, ("id", "name", "is_constraint", "stages", "submachines", "parent"),
     ("A", "A", True, (Stage(*_STAGE),), (), "P"),
     f"Machine(id='A', name='A', is_constraint=True, stages=({_STAGE_REPR},), submachines=(),"
     " parent='P')", {"is_constraint": False, "stages": (), "submachines": (), "parent": None}),
    (Flow, ("id", "source", "target"), ("f1", "A.create", "B.process"),
     "Flow(id='f1', source='A.create', target='B.process')", {}),
    (Trigger, ("id", "source", "target", "guard"), ("t1", "A.create", "B.process", "go"),
     "Trigger(id='t1', source='A.create', target='B.process', guard='go')", {"guard": None}),
    (StaticModel, ("machines", "flows", "triggers"), ((), (Flow("f1", "a", "b"),), ()),
     "StaticModel(machines=(), flows=(Flow(id='f1', source='a', target='b'),), triggers=())",
     {"machines": (), "flows": (), "triggers": ()}),
    (Problem, ("rule", "subject", "message"),
     ("V1", "f1", "flow 'f1' references unknown stage 'x'"),
     "Problem(rule='V1', subject='f1', message=\"flow 'f1' references unknown stage 'x'\")", {}),
    (Region, ("stage_ids", "edge_ids"), (frozenset({"A.create"}), frozenset()), _REGION_REPR,
     {"edge_ids": frozenset()}),
    (Event, ("id", "name", "time", "region", "intensity"),
     ("E1", "Start", "t1", Region(frozenset({"A.create"})), "high"),
     f"Event(id='E1', name='Start', time='t1', region={_REGION_REPR}, intensity='high')",
     {"intensity": None}),
    (BehaviorEdge, ("source", "target", "exclusive_group"), ("E1", "E2", "g"),
     "BehaviorEdge(source='E1', target='E2', exclusive_group='g')", {"exclusive_group": None}),
    (BehavioralModel, ("event_ids", "edges"), (frozenset({"E1"}), ()),
     "BehavioralModel(event_ids=frozenset({'E1'}), edges=())",
     {"event_ids": frozenset(), "edges": ()}),
    (SourceSpan, ("line", "column", "length"), (3, 7, 2), "SourceSpan(line=3, column=7, length=2)",
     {"length": 1}),
    (ParseDiagnostic, ("span", "code", "message"), (SourceSpan(1, 1), "syntax", "unexpected"),
     "ParseDiagnostic(span=SourceSpan(line=1, column=1, length=1), code='syntax',"
     " message='unexpected')", {}),
    (CommentMap, ("header", "items"), (("head",), {"A": ("note",)}),
     "CommentMap(header=('head',), items={'A': ('note',)})", {"header": (), "items": {}}),
    (ParseResult, ("model", "events", "behavior", "comments", "diagnostics"),
     (None, (), None, CommentMap(), ()),
     "ParseResult(model=None, events=(), behavior=None, comments=CommentMap(header=(), items={}),"
     " diagnostics=())", {}),
    (Diagnostic, ("severity", "rule", "subject", "message"), (Severity.ERROR, "V1", "f1", "bad"),
     "Diagnostic(severity=<Severity.ERROR: 'error'>, rule='V1', subject='f1', message='bad')", {}),
    (Verdict, ("conforms", "violation_index", "reason"), (False, 2, "no edge"),
     "Verdict(conforms=False, violation_index=2, reason='no edge')", {}),
    (ActivityNode, ("id", "kind", "label"), ("a", "Action", "Do it"),
     "ActivityNode(id='a', kind='Action', label='Do it')", {"label": ""}),
    (ActivityEdge, ("source", "target", "guard"), ("d", "a", "yes"),
     "ActivityEdge(source='d', target='a', guard='yes')", {"guard": None}),
    (ActivityGraph, ("nodes", "edges"),
     ((ActivityNode("i", "Initial"),), (ActivityEdge("i", "a"),)),
     "ActivityGraph(nodes=(ActivityNode(id='i', kind='Initial', label=''),),"
     " edges=(ActivityEdge(source='i', target='a', guard=None),))", {"nodes": (), "edges": ()}),
]


def test_the_contract_table_covers_every_record_type():
    assert {cls for cls, *_ in RECORDS} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls, names, values, text, defaults", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_records_keep_the_dataclass_contract(cls, names, values, text, defaults):
    record = cls(*values)
    assert repr(record) == text
    assert tuple(getattr(record, name) for name in names) == values
    assert cls.__match_args__ == names

    # equal fields give equal records, by keyword or with the defaults too
    twin = cls(**dict(zip(names, values)))
    assert twin == record and not twin != record and twin is not record
    required = len(names) - len(defaults)
    assert cls(*values[:required]) == cls(*values[:required], *defaults.values())
    assert {name: getattr(cls(*values[:required]), name) for name in defaults} == defaults
    if cls is CommentMap:
        assert cls().items is not cls().items

    # a tuple or a record of another type with the same fields is not equal
    assert record != values and values != record
    for other, *_ in RECORDS:
        if other is not cls:
            with contextlib.suppress(TypeError, ValueError):
                assert record != other(*values) and other(*values) != record

    if cls in (CommentMap, ParseResult):  # the mutable records
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(twin, names[-1], "changed")
        assert twin != record
    else:
        assert hash(twin) == hash(record) == hash(values)
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, "changed")
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    # replace changes one field and leaves the record as it was
    assert record.replace(**{names[-1]: "changed"}) == cls(*values[:-1], "changed")
    assert record.replace() == record and repr(record) == text
    with pytest.raises(TypeError):
        record.replace(other="changed")

    # copies and pickles are equal records of the same type
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is cls and copied == record


def test_a_verdict_has_a_violation_index_exactly_when_it_does_not_conform():
    assert Verdict(True, None, "ok").conforms and Verdict(False, 0, "no").violation_index == 0
    for conforms, index in ((True, 0), (False, None)):
        with pytest.raises(ValueError, match="violation_index"):
            Verdict(conforms, index, "")
    with pytest.raises(ValueError, match="violation_index"):
        Verdict(False, 2, "no edge").replace(conforms=True)
