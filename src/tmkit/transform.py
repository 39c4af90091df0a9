"""Gate elimination and reconstruction.

`simplify` removes every release/transfer/receive stage and replaces each
maximal gate chain between surviving create/process stages with one direct
flow; the arrow direction alone then carries the routing.  `expand` is the
inverse: it reintroduces the canonical gate chain
``source -> release -> transfer -> transfer -> receive -> target`` for every
inter-machine flow, sharing the single gate stage of each kind a machine may
own.

Chain walking is routed: a transfer reached from the machine's own release
continues outward to other machines' transfers, while a transfer reached from
outside delivers inward to the machine's receive.  Without this rule a
machine that both sends and receives would leak phantom connections through
its shared transfer gate.  A receive may hand over to the machine's release
(a relay machine the thing merely passes through).

A release with no incoming flow is anchored at its machine's surviving stage
(process preferred over create): the five-stage layout feeds release from
inside the machine even when the feeding arrow is left undrawn.

A chain is any walk over (gate stage, routing mode) states, so it may pass
a state more than once: in a gate cycle such as two relay machines feeding
each other, every gate that some walk from a surviving stage carries on to
a surviving stage is covered, and `DanglingChain` names only gates on no
such walk.  On an acyclic state graph this is the same as asking for a
simple path.  Contraction visits each state and routed flow once, in the
strongly connected components that `model.strong_components` (the pass
behind V9's cycle warnings too) finds, and merges target sets as it goes, so
its cost is linear in the gate stages and flows times at most the number of
targets a chain delivers to, however many distinct paths the gates form.
"""

from __future__ import annotations

from typing import Optional

from .model import (
    ActionKind,
    CORE_KINDS,
    Flow,
    GATE_KINDS,
    Machine,
    Stage,
    StaticModel,
    TmError,
    Trigger,
    _require_well_formed,
    natural_key,
    build_trees,
    strong_components,
    submachines_of,
)

C, P, R, T, V = (
    ActionKind.CREATE,
    ActionKind.PROCESS,
    ActionKind.RELEASE,
    ActionKind.TRANSFER,
    ActionKind.RECEIVE,
)


class DanglingChain(TmError):
    """A gate chain misses a surviving endpoint on one side."""

    def __init__(self, stage_ids):
        self.stage_ids = tuple(sorted(stage_ids, key=natural_key))
        super().__init__(
            "gate stages on no complete chain between surviving stages: "
            + ", ".join(self.stage_ids)
        )


class NotSimplified(TmError):
    """Expansion requires a model without gate stages."""


def _require_simplified(model: StaticModel) -> None:
    """Raise ModelError if the model is not well-formed, and NotSimplified,
    naming them, if it has gate stages."""
    _require_well_formed(model)
    gates = sorted((s.id for s in model.all_stages() if s.kind in GATE_KINDS), key=natural_key)
    if gates:
        raise NotSimplified("model still contains gate stages: " + ", ".join(gates))


def _implicit_anchor(model: StaticModel, release: Stage) -> Optional[Stage]:
    machine = model.machines_by_id[release.owner]
    return machine.stage_of(P) or machine.stage_of(C)


State = tuple[str, str]  # (gate stage id, routing mode: "out", "in" or "")
_NOTHING: frozenset[str] = frozenset()


def _entry_state(gate: Stage) -> State:
    """State of a gate entered from a surviving stage: a transfer fed from
    anything but its own machine's release is delivering inward."""
    return (gate.id, "in" if gate.kind is T else "")


def _routed_step(model: StaticModel, state: State) -> tuple[list[str], list[State]]:
    """Surviving stages and gate states one step on from a gate state.

    A release hands over to its own machine's transfer, which is then on
    its way out ("out") and continues to other machines' transfers; those
    are delivering inward ("in") and hand over to their own receive, which
    delivers to its machine's process or passes on to its release."""
    sid, mode = state
    at = model.stages_by_id[sid]
    kind = at.kind
    targets: list[str] = []
    onward: list[State] = []
    for flow in model.flows_from.get(sid, ()):
        nxt = model.stages_by_id[flow.target]
        own = nxt.owner == at.owner
        if kind is R:
            if own and nxt.kind is T:
                onward.append((nxt.id, "out"))
        elif kind is T:
            if mode == "out":
                if not own and nxt.kind is T:
                    onward.append((nxt.id, "in"))
            elif own and nxt.kind is V:
                onward.append((nxt.id, ""))
        elif own and nxt.kind is P:
            targets.append(nxt.id)
        elif own and nxt.kind is R:
            onward.append((nxt.id, ""))
    return targets, onward


def _chain_map(model: StaticModel) -> tuple[dict[str, set[str]], set[str]]:
    """Map each surviving source stage to the surviving stages its gate chains
    deliver to, and return the gate stages on some walk from a surviving
    stage to a surviving stage.

    Walks the graph of (gate stage, routing mode) states once:
    `strong_components` closes each strongly connected component after every
    component it leads to, so the targets reachable from a state are its
    component's direct targets plus the sets already found for the
    components one step on.  A relay machine passes its shared transfer gate
    once inbound and once outbound, which is why states key on the routing
    mode as well as the stage."""
    entries: list[tuple[Stage, State]] = []
    for stage in model.all_stages():
        if stage.kind is R:
            # a release fed by nothing anchors at its machine's surviving stage
            anchor = None if model.flows_into.get(stage.id) else _implicit_anchor(model, stage)
            if anchor is not None:
                entries.append((anchor, _entry_state(stage)))
        elif stage.kind in CORE_KINDS:
            for flow in model.flows_from.get(stage.id, ()):
                nxt = model.stages_by_id[flow.target]
                if nxt.kind in GATE_KINDS:
                    entries.append((stage, _entry_state(nxt)))

    # Per state: its direct targets and successor states, and, once its
    # component closes, every target reachable from it.
    steps: dict[State, tuple[list[str], list[State]]] = {}
    reach: dict[State, frozenset[str]] = {}

    def successors(state: State) -> list[State]:
        step = steps[state] = _routed_step(model, state)
        return step[1]

    for members in strong_components([root for _, root in entries], successors):
        found = _NOTHING
        for m in members:
            targets, nexts = steps[m]
            if targets:
                found = found.union(targets)
            for nxt in nexts:
                more = reach.get(nxt)  # None within the component
                if more and not more <= found:
                    found = found | more if found else more
        for m in members:
            reach[m] = found

    delivered: dict[str, set[str]] = {}
    for anchor, root in entries:
        found = reach[root]
        if found:
            delivered.setdefault(anchor.id, set()).update(found)
    covered = {state[0] for state, found in reach.items() if found}
    return delivered, covered


def _nearest_surviving(
    model: StaticModel, start: str, *, downstream: bool
) -> Optional[str]:
    """BFS through gate stages to the closest create/process stage.  Ties
    break on natural id order.  Walking upstream follows flows backwards and
    falls through an unfed release to its machine's surviving stage."""
    frontier = [start]
    seen = {start}
    while frontier:
        found: list[str] = []
        nxt: list[str] = []
        for sid in frontier:
            stage = model.stages_by_id[sid]
            if downstream:
                neighbors = [f.target for f in model.flows_from.get(sid, ())]
            else:
                neighbors = [f.source for f in model.flows_into.get(sid, ())]
                if stage.kind is R and not neighbors:
                    anchor = _implicit_anchor(model, stage)
                    if anchor is not None:
                        neighbors = [anchor.id]
            for n in neighbors:
                if n in seen:
                    continue
                seen.add(n)
                if model.stages_by_id[n].kind in CORE_KINDS:
                    found.append(n)
                else:
                    nxt.append(n)
        if found:
            return min(found, key=model.natural_keys().__getitem__)
        frontier = nxt
    return None


def _fresh_edge_ids(model: StaticModel, prefix: str):
    """A maker of ids `prefix` + number that no element of the model holds."""
    used = {x.id for part in (model.all_machines(), model.all_stages(), model.flows,
                              model.triggers) for x in part}
    counter = 1

    def make() -> str:
        nonlocal counter
        while f"{prefix}{counter}" in used:
            counter += 1
        used.add(f"{prefix}{counter}")
        return f"{prefix}{counter}"

    return make


def _rebuild_machines(
    model: StaticModel, keep_storage_for: dict[str, bool]
) -> tuple[Machine, ...]:
    """Drop gate stages; flip has_storage on for stages marked in the map."""

    def rebuild(machine: Machine, _parent: Optional[Machine], subs: tuple[Machine, ...]) -> Machine:
        stages = tuple([
            Stage(s.id, s.kind, s.owner, True, s.label)
            if keep_storage_for.get(s.id) and not s.has_storage
            else s
            for s in machine.stages
            if s.kind in CORE_KINDS
        ])
        return Machine(machine.id, machine.name, machine.is_constraint, stages, subs,
                       machine.parent)

    return build_trees(model.machines, submachines_of, rebuild)


def simplify(model: StaticModel) -> StaticModel:
    """Remove all gate stages, contracting each chain to a direct flow.

    Triggers anchored on removed stages re-anchor to the nearest surviving
    stage (upstream for sources, downstream for targets); storage markers on
    removed stages migrate to the nearest surviving upstream stage.
    """
    _require_well_formed(model)
    delivered, covered = _chain_map(model)
    gate_ids = {s.id for s in model.all_stages() if s.kind in GATE_KINDS}
    uncovered = gate_ids - covered
    if uncovered:
        raise DanglingChain(uncovered)

    direct_pairs = set()
    flows: list[Flow] = []
    for flow in model.flows:
        src = model.stages_by_id[flow.source]
        dst = model.stages_by_id[flow.target]
        if src.kind in CORE_KINDS and dst.kind in CORE_KINDS:
            flows.append(flow)
            direct_pairs.add((flow.source, flow.target))

    fresh = _fresh_edge_ids(model, "f")
    key = model.natural_keys().__getitem__
    for source_id in sorted(delivered, key=key):
        for target_id in sorted(delivered[source_id], key=key):
            if (source_id, target_id) in direct_pairs or source_id == target_id:
                continue
            direct_pairs.add((source_id, target_id))
            flows.append(Flow(fresh(), source_id, target_id))

    triggers: list[Trigger] = []
    for trig in model.triggers:
        source, target = trig.source, trig.target
        if source in gate_ids:
            source = _nearest_surviving(model, source, downstream=False)
        if target in gate_ids:
            target = _nearest_surviving(model, target, downstream=True)
        if source is None or target is None:
            raise DanglingChain([trig.source if source is None else trig.target])
        if source == target:
            continue  # the chain collapsed under the trigger; nothing to say
        if source != trig.source or target != trig.target:
            trig = Trigger(trig.id, source, target, trig.guard)
        triggers.append(trig)

    storage_moves: dict[str, bool] = {}
    for stage in model.all_stages():
        if stage.kind in GATE_KINDS and stage.has_storage:
            home = _nearest_surviving(model, stage.id, downstream=False)
            if home is None:
                raise DanglingChain([stage.id])
            storage_moves[home] = True

    machines = _rebuild_machines(model, storage_moves)
    return StaticModel.build(machines, flows, triggers).keyed_like(model)


def expand(model: StaticModel) -> StaticModel:
    """Reintroduce canonical gate chains for every inter-machine flow."""
    _require_simplified(model)
    inter = []
    intra_flows = []
    for flow in model.flows:
        src = model.stages_by_id[flow.source]
        dst = model.stages_by_id[flow.target]
        if src.owner == dst.owner:
            intra_flows.append(flow)
        else:
            inter.append((src, dst))

    needed: dict[str, set[ActionKind]] = {}
    for src, dst in inter:
        needed.setdefault(src.owner, set()).update({R, T})
        needed.setdefault(dst.owner, set()).update({T, V})

    gates: dict[str, tuple[Stage, ...]] = {}
    for machine in model.all_machines():
        kinds = needed.get(machine.id, ())
        extra = []
        for kind in (R, T, V):
            if kind in kinds:
                sid = f"{machine.id}.{kind.value}"
                if sid in model.stages_by_id:
                    raise TmError(f"stage id {sid!r} already taken; cannot expand")
                extra.append(Stage(sid, kind, machine.id))
        gates[machine.id] = tuple(extra)

    def rebuild(machine: Machine, _parent: Optional[Machine], subs: tuple[Machine, ...]) -> Machine:
        return Machine(machine.id, machine.name, machine.is_constraint,
                       machine.stages + gates[machine.id], subs, machine.parent)

    machines = build_trees(model.machines, submachines_of, rebuild)

    fresh = _fresh_edge_ids(model, "f")
    flows = list(intra_flows)
    pairs: set[tuple[str, str]] = set()

    def connect(source_id: str, target_id: str) -> None:
        if (source_id, target_id) in pairs:
            return
        pairs.add((source_id, target_id))
        flows.append(Flow(fresh(), source_id, target_id))

    keys = model.natural_keys()
    order = sorted(inter, key=lambda st: (keys[st[0].id], keys[st[1].id]))
    for src, dst in order:
        src_rel = f"{src.owner}.release"
        src_tra = f"{src.owner}.transfer"
        dst_tra = f"{dst.owner}.transfer"
        dst_rec = f"{dst.owner}.receive"
        connect(src.id, src_rel)
        connect(src_rel, src_tra)
        connect(src_tra, dst_tra)
        connect(dst_tra, dst_rec)
        connect(dst_rec, dst.id)

    return StaticModel.build(machines, flows, model.triggers).keyed_like(model)
