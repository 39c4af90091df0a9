"""Bridge between a UML activity-diagram subset and machine models.

Supported node kinds: Initial, Final, Action, Decision, Merge.  Import turns
each action into a machine with a process stage, the initial node into a
create stage inside its successor's machine, control edges into direct
process-to-process flows (simplified form), decisions into guarded triggers,
and erases merge/final nodes.  Export reverses the construction; merge and
final nodes are synthesized back at fan-ins and chain ends.

Round-trips are exact on the strict subset the import targets: one initial
feeding one action, one final whose incoming edges are their actions' only
out-edges, every fan-in routed through a merge, at most one decision hanging
off an action, decision successors are actions or merges.  Export also
accepts looser models (machines holding only a create stage become actions;
unguarded triggers export as control edges); those rules go beyond the
round-trip contract and are interpretation.

The activity graphs themselves, their ``.act.json`` form and their
isomorphism are defined in `tmkit.activity` and read from here as well.
"""

from __future__ import annotations

import re
from typing import Iterable

from .activity import (
    NODE_KINDS,
    ActivityEdge,
    ActivityError,
    ActivityGraph,
    ActivityNode,
    MalformedDecision,
    UnsupportedConstruct,
    activity_from_json,
    activity_isomorphic,
    activity_to_json,
)
from .model import (
    ActionKind,
    Flow,
    Machine,
    RESERVED,
    Stage,
    StaticModel,
    Trigger,
    natural_key,
)
from .transform import _require_simplified


class AmbiguousInitial(ActivityError):
    """Zero or several machines qualify as the initial node."""

    def __init__(self, candidates: Iterable[str]):
        self.candidates = tuple(sorted(candidates, key=natural_key))
        listing = ", ".join(self.candidates) or "<none>"
        super().__init__(f"initial machine candidates: {listing}")


# -- import --------------------------------------------------------------------

_CAMEL_STRIP = re.compile(r"[^A-Za-z0-9]+")


def _machine_token(label: str, taken: set[str], next_suffix: dict[str, int]) -> str:
    """A fresh identifier from the label: the label's words in camel case,
    numbered from 2 on when taken.  ``next_suffix`` remembers per base where
    the numbering search stopped; since ``taken`` only grows, every number
    below that is still taken."""
    words = [w for w in _CAMEL_STRIP.split(label) if w]
    base = "".join(w[:1].upper() + w[1:] for w in words) or "Step"
    if not base[0].isalpha():
        base = "M" + base
    if base in RESERVED:
        base += "Machine"
    token = base
    suffix = next_suffix.get(base, 2)
    if token in taken:
        while (token := f"{base}{suffix}") in taken:
            suffix += 1
        next_suffix[base] = suffix + 1
    taken.add(token)
    return token


def import_activity(graph: ActivityGraph) -> StaticModel:
    """Deterministic mapping into a simplified-form model.

    Apply `transform.expand` afterwards for the full five-stage form.
    """
    graph._checked()

    # merges vanish: route their in-edges straight to the merge's successor
    resolved: dict[str, str] = {}

    def resolve(node_id: str) -> str:
        """The first node that is not a merge on the way on from ``node_id``."""
        trail: dict[str, None] = {}  # the merges passed, in order
        while node_id not in resolved and graph.node(node_id).kind == "Merge":
            if node_id in trail:
                raise UnsupportedConstruct(f"merge {node_id!r} feeds itself")
            outs = graph.out_edges(node_id)
            if len(outs) != 1:
                raise UnsupportedConstruct(f"merge {node_id!r} needs exactly one successor")
            trail[node_id] = None
            node_id = outs[0].target
        node_id = resolved.get(node_id, node_id)
        resolved.update(dict.fromkeys(trail, node_id))
        return node_id

    actions = [n for n in graph.nodes if n.kind == "Action"]
    taken: set[str] = set()
    next_suffix: dict[str, int] = {}
    tokens = {n.id: _machine_token(n.label, taken, next_suffix) for n in actions}

    initial = next(n for n in graph.nodes if n.kind == "Initial")
    initial_outs = graph.out_edges(initial.id)
    if len(initial_outs) != 1 or initial_outs[0].guard is not None:
        raise UnsupportedConstruct(f"initial {initial.id!r} needs one unguarded out-edge")
    entry_id = resolve(initial_outs[0].target)
    if graph.node(entry_id).kind != "Action":
        raise UnsupportedConstruct(f"initial {initial.id!r} must lead to an action")

    machines = []
    for node in actions:
        token = tokens[node.id]
        stages = [Stage(f"{token}.process", ActionKind.PROCESS, token)]
        if node.id == entry_id:
            stages.insert(0, Stage(f"{token}.create", ActionKind.CREATE, token))
        machines.append(Machine(id=token, name=node.label, stages=tuple(stages)))
    machines.sort(key=lambda m: natural_key(m.id))

    flows: list[Flow] = []
    triggers: list[Trigger] = []
    flow_n = 0
    trig_n = 0

    emitted: set[tuple[str, str]] = set()

    def add_flow(src: str, dst: str) -> None:
        nonlocal flow_n
        if (src, dst) in emitted:
            return
        emitted.add((src, dst))
        flow_n += 1
        flows.append(Flow(f"f{flow_n}", src, dst))

    token = tokens[entry_id]
    add_flow(f"{token}.create", f"{token}.process")

    ordered_nodes = sorted(graph.nodes, key=lambda n: natural_key(n.id))
    for node in ordered_nodes:
        if node.kind == "Action":
            src = f"{tokens[node.id]}.process"
            for edge in graph.out_edges(node.id):
                succ = graph.node(resolve(edge.target))
                if succ.kind == "Final":
                    continue
                if succ.kind == "Decision":
                    if edge.guard is not None:
                        raise UnsupportedConstruct(
                            f"edge from {node.id!r} into decision {succ.id!r} carries a guard"
                        )
                    continue  # handled by the decision itself
                if succ.kind != "Action":
                    raise UnsupportedConstruct(
                        f"edge from {node.id!r} reaches unsupported {succ.kind} node {succ.id!r}"
                    )
                dst = f"{tokens[succ.id]}.process"
                if edge.guard is not None:
                    trig_n += 1
                    triggers.append(Trigger(f"t{trig_n}", src, dst, edge.guard))
                else:
                    add_flow(src, dst)
        elif node.kind == "Decision":
            ins = graph.in_edges(node.id)
            if len(ins) != 1 or graph.node(ins[0].source).kind != "Action":
                raise UnsupportedConstruct(
                    f"decision {node.id!r} needs exactly one incoming edge from an action"
                )
            src = f"{tokens[ins[0].source]}.process"
            for edge in sorted(
                graph.out_edges(node.id), key=lambda e: (e.guard or "", natural_key(e.target))
            ):
                succ = graph.node(resolve(edge.target))
                if succ.kind != "Action":
                    raise UnsupportedConstruct(
                        f"decision {node.id!r} targets unsupported {succ.kind} node {succ.id!r}"
                    )
                trig_n += 1
                triggers.append(Trigger(f"t{trig_n}", src, f"{tokens[succ.id]}.process", edge.guard))

    return StaticModel.build(machines, flows, triggers)


# -- export --------------------------------------------------------------------


def export_activity(model: StaticModel) -> ActivityGraph:
    """Rebuild an activity graph from a simplified model."""
    _require_simplified(model)  # and well-formed: no machine has two process stages

    acting = [m for m in model.all_machines() if m.stages]
    acting.sort(key=lambda m: natural_key(m.id))
    action_ids = {m.id: f"a_{m.id}" for m in acting}
    stage_machine = {s.id: m.id for m in acting for s in m.stages}

    candidates = [
        m.id
        for m in acting
        if (create := m.stage_of(ActionKind.CREATE)) is not None
        and not model.flows_into.get(create.id)
        and not model.triggers_into.get(create.id)
    ]
    if len(candidates) != 1:
        raise AmbiguousInitial(candidates)
    initial_machine = candidates[0]

    nodes = [ActivityNode("initial", "Initial")]
    for m in acting:
        nodes.append(ActivityNode(action_ids[m.id], "Action", m.name))
    edges: list[ActivityEdge] = [ActivityEdge("initial", action_ids[initial_machine])]

    decision_n = 0
    for machine in acting:
        src_action = action_ids[machine.id]
        out_flows = [
            f
            for s in machine.stages
            for f in model.flows_from.get(s.id, ())
            if stage_machine[f.target] != machine.id
        ]
        out_flows.sort(key=lambda f: natural_key(f.id))
        for flow in out_flows:
            edges.append(ActivityEdge(src_action, action_ids[stage_machine[flow.target]]))
        plain = []
        guarded = []
        for stage in machine.stages:
            for trig in model.triggers_from.get(stage.id, ()):
                (guarded if trig.guard is not None else plain).append(trig)
        plain.sort(key=lambda t: natural_key(t.id))
        guarded.sort(key=lambda t: natural_key(t.id))
        for trig in plain:
            edges.append(ActivityEdge(src_action, action_ids[stage_machine[trig.target]]))
        if len(guarded) == 1:
            trig = guarded[0]
            edges.append(
                ActivityEdge(src_action, action_ids[stage_machine[trig.target]], trig.guard)
            )
        elif len(guarded) > 1:
            decision_n += 1
            decision_id = f"d{decision_n}"
            nodes.append(ActivityNode(decision_id, "Decision"))
            edges.append(ActivityEdge(src_action, decision_id))
            for trig in guarded:
                edges.append(
                    ActivityEdge(decision_id, action_ids[stage_machine[trig.target]], trig.guard)
                )

    # synthesize merges at fan-ins (the initial edge stands for the internal
    # create->process flow and stays direct)
    merge_n = 0
    final_edges: list[ActivityEdge] = []
    rebuilt: list[ActivityEdge] = []
    by_target: dict[str, list[ActivityEdge]] = {}
    for edge in edges:
        if edge.source == "initial":
            rebuilt.append(edge)
        else:
            by_target.setdefault(edge.target, []).append(edge)
    merge_nodes: list[ActivityNode] = []
    for target in sorted(by_target, key=natural_key):
        incoming = by_target[target]
        if len(incoming) >= 2:
            merge_n += 1
            merge_id = f"m{merge_n}"
            merge_nodes.append(ActivityNode(merge_id, "Merge"))
            rebuilt.extend(ActivityEdge(e.source, merge_id, e.guard) for e in incoming)
            rebuilt.append(ActivityEdge(merge_id, target))
        else:
            rebuilt.extend(incoming)
    nodes.extend(merge_nodes)

    # terminal actions close on one synthesized final node
    has_out = {e.source for e in rebuilt}
    terminals = [
        action_ids[m.id] for m in acting if action_ids[m.id] not in has_out
    ]
    if terminals:
        nodes.append(ActivityNode("final", "Final"))
        final_edges = [ActivityEdge(t, "final") for t in sorted(terminals, key=natural_key)]
    return ActivityGraph.build(tuple(nodes), tuple(rebuilt + final_edges))
