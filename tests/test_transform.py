"""Gate elimination and its inverse."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import canonical_models, simplified_models
from test_model import two_machine_chain
from tmkit import (
    ActionKind,
    DanglingChain,
    Flow,
    Machine,
    NotSimplified,
    Stage,
    StaticModel,
    Trigger,
    expand,
    format_text,
    model_isomorphic,
    parse_or_raise,
    simplify,
    validate_static,
)
from tmkit.model import CORE_KINDS, GATE_KINDS, build_trees, natural_key, submachines_of
from tmkit.transform import _chain_map

C, P, R, T, V = ActionKind


def gate_free(model: StaticModel) -> bool:
    return all(s.kind in CORE_KINDS for s in model.all_stages())


def reachable_pairs(model: StaticModel) -> set[tuple[str, str]]:
    """Transitive closure over flows, restricted to create/process stages.
    Plain graph search; independent of the transform implementation."""
    succ: dict[str, list[str]] = {}
    for flow in model.flows:
        succ.setdefault(flow.source, []).append(flow.target)
    core = [s.id for s in model.all_stages() if s.kind in CORE_KINDS]
    pairs = set()
    for start in core:
        seen = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        for sid in seen:
            if sid in model.stages_by_id and model.stages_by_id[sid].kind in CORE_KINDS:
                pairs.add((start, sid))
    return pairs


# -- simplify -----------------------------------------------------------------


def test_canonical_chain_contracts_to_one_flow():
    # hand-derived expectation: the six-stage chain collapses to
    # create -> process with both machines intact
    model = two_machine_chain()
    simplified = simplify(model)
    expected = StaticModel.build(
        (
            Machine(id="A", name="A", stages=(Stage("A.create", C, "A"),)),
            Machine(id="B", name="B", stages=(Stage("B.process", P, "B"),)),
        ),
        flows=(Flow("f1", "A.create", "B.process"),),
    )
    assert model_isomorphic(simplified, expected)


def test_gate_free_model_is_a_fixed_point():
    text = "machine A { create; process; }\nflow A.create -> A.process;"
    model = parse_or_raise(text).model
    assert model_isomorphic(simplify(model), model)


def test_simplify_keeps_stageless_machines():
    text = (
        "machine Relay { release; transfer; receive; }\n"
        "machine A { create; release; transfer; }\n"
        "machine B { transfer; receive; process; }\n"
        "flow A.create -> A.release;\n"
        "flow A.release -> A.transfer;\n"
        "flow A.transfer -> Relay.transfer;\n"
        "flow Relay.transfer -> Relay.receive;\n"
        "flow Relay.receive -> Relay.release;\n"
        "flow Relay.release -> Relay.transfer;\n"
        "flow Relay.transfer -> B.transfer;\n"
        "flow B.transfer -> B.receive;\n"
        "flow B.receive -> B.process;\n"
    )
    model = parse_or_raise(text).model
    simplified = simplify(model)
    # the relay drops out of the path but its machine box stays
    assert "Relay" in simplified.machines_by_id
    assert not simplified.machines_by_id["Relay"].stages
    pairs = {(f.source, f.target) for f in simplified.flows}
    assert pairs == {("A.create", "B.process")}


def test_shared_transfer_gate_does_not_leak_connections():
    # C sends into A while A sends into B through the same A.transfer gate;
    # contraction must not invent a C -> B connection
    text = (
        "machine A { create; process; release; transfer; receive; }\n"
        "machine B { transfer; receive; process; }\n"
        "machine CSide { create; release; transfer; }\n"
        "flow A.process -> A.release;\n"
        "flow A.release -> A.transfer;\n"
        "flow A.transfer -> B.transfer;\n"
        "flow B.transfer -> B.receive;\n"
        "flow B.receive -> B.process;\n"
        "flow CSide.create -> CSide.release;\n"
        "flow CSide.release -> CSide.transfer;\n"
        "flow CSide.transfer -> A.transfer;\n"
        "flow A.transfer -> A.receive;\n"
        "flow A.receive -> A.process;\n"
    )
    model = parse_or_raise(text).model
    pairs = {(f.source, f.target) for f in simplify(model).flows}
    assert pairs == {
        ("A.process", "B.process"),
        ("CSide.create", "A.process"),
    }


def test_dangling_chain_reports_stage_ids():
    text = (
        "machine A { release; transfer; }\n"
        "machine B { transfer; receive; process; }\n"
        "flow A.release -> A.transfer;\n"
        "flow A.transfer -> B.transfer;\n"
        "flow B.transfer -> B.receive;\n"
        "flow B.receive -> B.process;\n"
    )
    model = parse_or_raise(text).model
    with pytest.raises(DanglingChain) as exc:
        simplify(model)
    assert "A.release" in exc.value.stage_ids


def test_storage_on_gate_migrates_upstream():
    text = (
        "machine A { create; release store; transfer; }\n"
        "machine B { transfer; receive; process; }\n"
        "flow A.create -> A.release;\n"
        "flow A.release -> A.transfer;\n"
        "flow A.transfer -> B.transfer;\n"
        "flow B.transfer -> B.receive;\n"
        "flow B.receive -> B.process;\n"
    )
    model = parse_or_raise(text).model
    simplified = simplify(model)
    assert simplified.stages_by_id["A.create"].has_storage


def test_triggers_reanchor_to_nearest_surviving_stages():
    text = (
        "machine A { create; release; transfer; }\n"
        "machine B { transfer; receive; process; }\n"
        "machine X { create; }\n"
        "flow A.create -> A.release;\n"
        "flow A.release -> A.transfer;\n"
        "flow A.transfer -> B.transfer;\n"
        "flow B.transfer -> B.receive;\n"
        "flow B.receive -> B.process;\n"
        'trigger X.create => B.transfer if "go";\n'
        "trigger A.release => X.create;\n"
    )
    model = parse_or_raise(text).model
    simplified = simplify(model)
    trigs = {(t.source, t.target, t.guard) for t in simplified.triggers}
    assert trigs == {
        ("X.create", "B.process", "go"),  # target walked downstream
        ("A.create", "X.create", None),  # source walked upstream
    }


@settings(max_examples=150, deadline=None)
@given(canonical_models())
def test_simplify_removes_all_gates(model):
    assert gate_free(simplify(model))


@settings(max_examples=150, deadline=None)
@given(canonical_models())
def test_simplify_is_idempotent(model):
    once = simplify(model)
    assert model_isomorphic(simplify(once), once)


@settings(max_examples=100, deadline=None)
@given(simplified_models())
def test_reachability_between_core_stages_is_preserved(simple):
    # oracle: closure on the simplified model equals closure after the
    # expand/simplify round trip (stage ids survive, so compare directly)
    full = expand(simple)
    assert reachable_pairs(simplify(full)) == reachable_pairs(simple)


@settings(max_examples=100, deadline=None)
@given(canonical_models())
def test_simplify_preserves_machines_core_stages_and_guards(model):
    simplified = simplify(model)
    assert set(simplified.machines_by_id) == set(model.machines_by_id)
    core = {s.id for s in model.all_stages() if s.kind in CORE_KINDS}
    assert {s.id for s in simplified.all_stages()} == core
    assert sorted(t.guard or "" for t in simplified.triggers) == sorted(
        t.guard or "" for t in model.triggers
    )
    for machine in model.all_machines():
        assert simplified.machines_by_id[machine.id].is_constraint == machine.is_constraint


# -- gate contraction against the simple-path walker ----------------------------


def _walker_gate_mode(at, came_from):
    if at.kind is not T:
        return ""
    outbound = came_from is not None and came_from.owner == at.owner and came_from.kind is R
    return "out" if outbound else "in"


def _walker_routed_next(model, at, mode):
    outs = [model.stages_by_id[f.target] for f in model.flows_from.get(at.id, ())]
    if at.kind is R:
        return [s for s in outs if s.kind is T and s.owner == at.owner]
    if at.kind is T:
        if mode == "out":
            return [s for s in outs if s.kind is T and s.owner != at.owner]
        return [s for s in outs if s.kind is V and s.owner == at.owner]
    if at.kind is V:
        return [s for s in outs if s.owner == at.owner and s.kind in (P, R)]
    return []


def simple_path_chain_map(model):
    """Reference contraction: enumerate every simple path of (gate stage,
    routing mode) states from each entry, as simplify once did.  Exponential
    in the worst case, so only for small models.  Returns the delivered
    map, the gate stages on no completing simple path, and whether any walk
    ran into a cycle of states."""
    delivered: dict[str, set[str]] = {}
    covered: set[str] = set()
    saw_cycle = False

    def walk(anchor, entry):
        nonlocal saw_cycle
        targets: set[str] = set()

        def step(at, came_from, path):
            nonlocal saw_cycle
            key = (at.id, _walker_gate_mode(at, came_from))
            if key in path:
                saw_cycle = True
                return False
            reached = False
            for nxt in _walker_routed_next(model, at, key[1]):
                if nxt.kind in CORE_KINDS:
                    targets.add(nxt.id)
                    reached = True
                elif step(nxt, at, path + (key,)):
                    reached = True
            if reached:
                covered.add(at.id)
            return reached

        step(entry, anchor, ())
        if targets:
            delivered.setdefault(anchor.id, set()).update(targets)

    for stage in model.all_stages():
        if stage.kind not in CORE_KINDS:
            continue
        for flow in model.flows_from.get(stage.id, ()):
            nxt = model.stages_by_id[flow.target]
            if nxt.kind in GATE_KINDS:
                walk(stage, nxt)
    for stage in model.all_stages():
        if stage.kind is R and not model.flows_into.get(stage.id):
            machine = model.machines_by_id[stage.owner]
            anchor = machine.stage_of(P) or machine.stage_of(C)
            if anchor is not None:
                walk(anchor, stage)
    gate_ids = {s.id for s in model.all_stages() if s.kind in GATE_KINDS}
    return delivered, gate_ids - covered, saw_cycle


# the intra-machine steps routing follows, plus ones it ignores
_INTRA_STEPS = {(C, R), (P, R), (R, T), (T, V), (V, P), (V, R), (C, P), (V, T)}


@st.composite
def gate_rich_models(draw, max_machines: int = 4) -> StaticModel:
    """Small models dense in gate chains: relay machines (transfer, receive
    and release in a loop) and machines with any stage kinds, joined by a
    random subset of intra-machine steps, transfer-to-transfer hops and
    entries from surviving stages into gates."""
    n = draw(st.integers(min_value=1, max_value=max_machines))
    machines = []
    stages: list[Stage] = []
    pairs: set[tuple[str, str]] = set()
    for i in range(n):
        mid = f"m{i}"
        relay = draw(st.booleans())
        kinds = [k for k in ActionKind if (relay and k in GATE_KINDS) or draw(st.booleans())]
        own = {k: Stage(f"{mid}.{k.value}", k, mid) for k in kinds}
        if relay:
            pairs |= {(own[T].id, own[V].id), (own[V].id, own[R].id), (own[R].id, own[T].id)}
        machines.append(Machine(id=mid, name=mid, stages=tuple(own.values())))
        stages += own.values()
    for a in stages:
        for b in stages:
            same = a.owner == b.owner
            if (
                (same and (a.kind, b.kind) in _INTRA_STEPS)
                or (not same and b.kind is T and (a.kind is T or a.kind in CORE_KINDS))
            ) and draw(st.booleans()):
                pairs.add((a.id, b.id))
    flows = [Flow(f"f{k}", a, b) for k, (a, b) in enumerate(sorted(pairs), 1)]
    return StaticModel.build(machines, flows)


@settings(max_examples=400, deadline=None)
@given(gate_rich_models())
def test_contraction_matches_the_simple_path_walker(model):
    expected, uncovered, cyclic = simple_path_chain_map(model)
    delivered, covered = _chain_map(model)
    assert delivered == expected
    try:
        simplify(model)
    except DanglingChain as exc:
        raised = set(exc.stage_ids)
    else:
        raised = set()
    if cyclic:
        # a walk may close a cycle that no simple path can complete
        assert raised <= uncovered
    else:
        assert raised == uncovered


def test_gate_cycle_contracts_like_a_walk():
    # A and B relay into each other: A.release -> A.transfer -> B.transfer
    # -> B.receive -> B.release -> B.transfer -> A.transfer -> A.receive
    # -> A.process revisits A.transfer inbound, so no simple path of
    # states completes it, yet the walk does.
    text = (
        "machine Z { create; release; transfer; }\n"
        "machine A { process; release; transfer; receive; }\n"
        "machine B { release; transfer; receive; }\n"
        "flow Z.create -> Z.release;\n"
        "flow Z.release -> Z.transfer;\n"
        "flow Z.transfer -> A.transfer;\n"
        "flow A.transfer -> A.receive;\n"
        "flow A.receive -> A.process;\n"
        "flow A.receive -> A.release;\n"
        "flow A.release -> A.transfer;\n"
        "flow A.transfer -> B.transfer;\n"
        "flow B.transfer -> B.receive;\n"
        "flow B.receive -> B.release;\n"
        "flow B.release -> B.transfer;\n"
        "flow B.transfer -> A.transfer;\n"
    )
    model = parse_or_raise(text).model
    assert validate_static(model) == []
    _, uncovered, cyclic = simple_path_chain_map(model)
    assert cyclic
    assert sorted(uncovered, key=natural_key) == [
        "A.release", "B.receive", "B.release", "B.transfer"
    ]
    simplified = simplify(model)
    assert gate_free(simplified)
    assert [(f.source, f.target) for f in simplified.flows] == [("Z.create", "A.process")]


def relay_text(width: int, layers: int, fanout: int) -> str:
    """A source, `layers` layers of `width` relay machines each feeding
    every relay of the next layer, and `fanout` destinations: width**layers
    * fanout gate paths over O(width * layers) stages."""
    lines = ["machine Src { create; release; transfer; }"]
    flows = ["Src.create -> Src.release", "Src.release -> Src.transfer"]
    previous = ["Src.transfer"]
    for k in range(layers):
        layer = []
        for w in range(width):
            m = f"L{k}_{w}"
            lines.append(f"machine {m} {{ release; transfer; receive; }}")
            flows += [f"{p} -> {m}.transfer" for p in previous]
            flows += [f"{m}.transfer -> {m}.receive", f"{m}.receive -> {m}.release",
                      f"{m}.release -> {m}.transfer"]
            layer.append(f"{m}.transfer")
        previous = layer
    for d in range(fanout):
        m = f"Dst{d}"
        lines.append(f"machine {m} {{ process; transfer; receive; }}")
        flows += [f"{p} -> {m}.transfer" for p in previous]
        flows += [f"{m}.transfer -> {m}.receive", f"{m}.receive -> {m}.process"]
    return "\n".join(lines + [f"flow {f};" for f in flows]) + "\n"


def test_relay_contraction_is_linear_in_model_size():
    # 3**30 * 3 simple gate paths: only a pass that visits each
    # (stage, routing mode) state once finishes this
    model = parse_or_raise(relay_text(3, 30, 3)).model
    simplified = simplify(model)
    assert gate_free(simplified)
    assert sorted((f.source, f.target) for f in simplified.flows) == [
        ("Src.create", f"Dst{d}.process") for d in range(3)
    ]


# -- expand -------------------------------------------------------------------


def test_expand_builds_the_canonical_chain():
    text = "machine A { create; }\nmachine B { process; }\nflow A.create -> B.process;"
    model = parse_or_raise(text).model
    expanded = expand(model)
    assert model_isomorphic(
        expanded,
        parse_or_raise(
            "machine A { create; release; transfer; }\n"
            "machine B { transfer; receive; process; }\n"
            "flow A.create -> A.release;\n"
            "flow A.release -> A.transfer;\n"
            "flow A.transfer -> B.transfer;\n"
            "flow B.transfer -> B.receive;\n"
            "flow B.receive -> B.process;\n"
        ).model,
    )


def test_expand_leaves_flow_free_models_alone():
    model = parse_or_raise("machine A { create; process; }").model
    assert model_isomorphic(expand(model), model)


def test_expand_leaves_intra_machine_flows_direct():
    text = "machine A { create; process; }\nflow A.create -> A.process;"
    model = parse_or_raise(text).model
    expanded = expand(model)
    assert model_isomorphic(expanded, model)


def test_expand_rejects_models_with_gates():
    with pytest.raises(NotSimplified):
        expand(two_machine_chain())


def test_expand_shares_gates_per_machine():
    text = (
        "machine A { create; }\nmachine B { process; }\nmachine D { process; }\n"
        "flow A.create -> B.process;\nflow A.create -> D.process;"
    )
    model = parse_or_raise(text).model
    expanded = expand(model)
    a = expanded.machines_by_id["A"]
    assert sum(1 for s in a.stages if s.kind is R) == 1
    assert sum(1 for s in a.stages if s.kind is T) == 1


@settings(max_examples=150, deadline=None)
@given(canonical_models())
def test_expand_of_simplify_restores_canonical_models(model):
    assert model_isomorphic(expand(simplify(model)), model)


@settings(max_examples=150, deadline=None)
@given(simplified_models())
def test_simplify_of_expand_restores_simplified_models(model):
    assert model_isomorphic(simplify(expand(model)), model)


@settings(max_examples=60, deadline=None)
@given(canonical_models())
def test_expanded_models_pass_the_full_validator(model):
    from tmkit import has_errors, validate_static

    assert not has_errors(validate_static(model))


def test_a_5000_deep_nest_parses_formats_simplifies_and_expands():
    depth = 5000  # machines nested in one another, far past Python's recursion limit
    leaf = ".".join(["a"] * depth)
    text = (
        "machine a {\n  process;\n  transfer;\n  receive;\n"
        + "machine a {\n" * (depth - 1)
        + "create;\nrelease;\ntransfer;\n"
        + "}\n" * depth
        + f"flow f1: {leaf}.create -> {leaf}.release;\n"
        + f"flow f2: {leaf}.release -> {leaf}.transfer;\n"
        + f"flow f3: {leaf}.transfer -> a.transfer;\n"
        + "flow f4: a.transfer -> a.receive;\n"
        + "flow f5: a.receive -> a.process;\n"
    )
    model = parse_or_raise(text).model
    assert len(list(model.all_machines())) == depth
    assert model.stages_by_id[f"{leaf}.create"].owner == leaf
    formatted = format_text(text)
    del text
    assert format_text(formatted) == formatted
    del formatted
    simple = simplify(model)
    assert [(f.source, f.target) for f in simple.flows] == [(f"{leaf}.create", "a.process")]
    assert len(list(simple.all_machines())) == depth
    assert model_isomorphic(expand(simple), model)


# -- fresh flow ids -----------------------------------------------------------

# a root machine whose id is the first fresh flow id either transform makes
MACHINE_NAMED_F1 = (
    "machine f1 {\n  create;\n  release;\n  transfer;\n}\n"
    "machine B {\n  process;\n  transfer;\n  receive;\n}\n"
    "flow x1: f1.create -> f1.release;\n"
    "flow x2: f1.release -> f1.transfer;\n"
    "flow x3: f1.transfer -> B.transfer;\n"
    "flow x4: B.transfer -> B.receive;\n"
    "flow x5: B.receive -> B.process;\n"
)
SIMPLE_MACHINE_NAMED_F1 = (
    "machine f1 {\n  create;\n}\nmachine B {\n  process;\n}\nflow x1: f1.create -> B.process;\n"
)


def test_simplify_gives_no_flow_an_id_a_machine_holds():
    simple = simplify(parse_or_raise(MACHINE_NAMED_F1).model)
    assert [(f.id, f.source, f.target) for f in simple.flows] == [("f2", "f1.create", "B.process")]


def test_expand_gives_no_flow_an_id_a_machine_holds():
    model = parse_or_raise(SIMPLE_MACHINE_NAMED_F1).model
    full = expand(model)
    assert [f.id for f in full.flows] == ["f2", "f3", "f4", "f5", "f6"]
    assert model_isomorphic(simplify(full), model)


def test_fresh_flow_ids_skip_stage_ids_of_raw_models():
    a = Machine("A", "A", stages=(Stage("f1", C, "A"),))
    b = Machine("B", "B", stages=(Stage("f2", P, "B"),))
    full = expand(StaticModel.build((a, b), (Flow("x", "f1", "f2"),)))
    assert [f.id for f in full.flows] == ["f3", "f4", "f5", "f6", "f7"]
    assert [f.id for f in simplify(full).flows] == ["f8"]


# -- rebuilt parts equal what Record.replace gives --------------------------------


@st.composite
def gate_anchored_models(draw) -> StaticModel:
    """Canonical models with storage moved onto some gate stages and
    triggers added at gate stages, so that `simplify` migrates storage and
    re-anchors triggers as well as dropping gates."""
    model = draw(canonical_models())
    gates = sorted((s.id for s in model.all_stages() if s.kind in GATE_KINDS), key=natural_key)
    if not gates:
        return model
    stored = set(draw(st.lists(st.sampled_from(gates), max_size=2)))
    ends = [s.id for s in model.all_stages()]
    triggers = list(model.triggers)
    for k in range(draw(st.integers(0, 3))):
        gate, other = draw(st.sampled_from(gates)), draw(st.sampled_from(ends))
        pair = (gate, other) if draw(st.booleans()) else (other, gate)
        if pair[0] != pair[1]:
            triggers.append(Trigger(f"g{k}", *pair, draw(st.sampled_from([None, "go"]))))

    def store(machine, _parent, subs):
        stages = tuple(s.replace(has_storage=s.has_storage or s.id in stored)
                       for s in machine.stages)
        return machine.replace(stages=stages, submachines=subs)

    machines = build_trees(model.machines, submachines_of, store)
    return StaticModel.build(machines, model.flows, triggers)


@settings(max_examples=150, deadline=None)
@given(gate_anchored_models())
def test_transforms_rebuild_parts_equal_to_what_replace_gives(model):
    simple = simplify(model)
    kept = simple.stages_by_id

    def simplified(machine, _parent, subs):
        stages = tuple(s.replace(has_storage=kept[s.id].has_storage)
                       for s in machine.stages if s.kind in CORE_KINDS)
        return machine.replace(stages=stages, submachines=subs)

    assert simple.machines == build_trees(model.machines, submachines_of, simplified)
    old = model.triggers_by_id
    assert list(simple.triggers) == [
        old[t.id].replace(source=t.source, target=t.target) for t in simple.triggers
    ]

    full = expand(simple)
    added = {m.id: tuple(s for s in m.stages if s.kind in GATE_KINDS) for m in full.all_machines()}

    def expanded(machine, _parent, subs):
        return machine.replace(stages=machine.stages + added[machine.id], submachines=subs)

    assert full.machines == build_trees(simple.machines, submachines_of, expanded)


@settings(max_examples=100, deadline=None)
@given(canonical_models())
def test_build_relinks_machines_equal_to_what_replace_gives(model):
    unlinked = build_trees(model.machines, submachines_of,
                           lambda m, _p, subs: m.replace(parent=None, submachines=subs))

    def relinked(machine, parent, subs):
        return machine.replace(parent=None if parent is None else parent.id, submachines=subs)

    expected = build_trees(unlinked, submachines_of, relinked)
    assert StaticModel.build(unlinked, model.flows, model.triggers).machines == expected == model.machines
