"""Hypothesis strategies shared across the suite.

`simplified_models` generates validator-clean models without gate stages,
constrained to at most one stage per machine originating inter-machine flows
(the shape gate chains can represent losslessly); `canonical_models` are their
expansions to full five-stage form.  `activity_graphs` generates the strict
activity subset the importer round-trips: single initial and final, fan-ins
through merges, decisions with two or more guarded action successors.
`mutated_texts` prints a document and breaks the shape of its statements.
`tied_documents` adds copies whose ids tie their originals in natural order.
`event_mutations` breaks one event or behavior rule of a document.
`count_natural_keys` counts the strings tmkit keys for natural order.
"""

from __future__ import annotations

import re
import sys
from collections import Counter

from hypothesis import strategies as st

from tmkit import (
    ActionKind,
    ActivityEdge,
    ActivityGraph,
    ActivityNode,
    BehavioralModel,
    BehaviorEdge,
    Event,
    Flow,
    Machine,
    Region,
    Stage,
    StaticModel,
    Trigger,
    expand,
    induced_region,
    print_model,
)
import tmkit.model
from tmkit.model import build_trees, submachines_of

C, P = ActionKind.CREATE, ActionKind.PROCESS

plain_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)
# skewed toward characters the escaper must handle
tricky_text = st.text(alphabet='ab "\\\n\t', max_size=8)
label_text = st.one_of(plain_text, tricky_text)
# an event's time is not blank (V8)
time_text = label_text.filter(lambda s: s.strip() != "")


@st.composite
def _forest_plan(draw, max_machines: int):
    n = draw(st.integers(min_value=1, max_value=max_machines))
    parents = [None] + [draw(st.one_of(st.none(), st.integers(0, i - 1))) for i in range(1, n)]
    stages = []
    for _ in range(n):
        stages.append(
            {
                C: draw(st.booleans()),
                P: draw(st.booleans()),
            }
        )
    storage = [draw(st.booleans()) and draw(st.booleans()) for _ in range(n)]
    return n, parents, stages, storage


@st.composite
def simplified_models(draw, max_machines: int = 5) -> StaticModel:
    n, parents, stage_plan, storage = draw(_forest_plan(max_machines))
    ids = []
    for i in range(n):
        token = f"m{i}"
        ids.append(token if parents[i] is None else f"{ids[parents[i]]}.{token}")

    stage_ids: dict[tuple[int, ActionKind], str] = {}
    stage_objs: dict[int, list[Stage]] = {i: [] for i in range(n)}
    for i in range(n):
        for kind in (C, P):
            if not stage_plan[i][kind]:
                continue
            sid = f"{ids[i]}.{kind.value}"
            stage_ids[(i, kind)] = sid
            label = draw(st.one_of(st.none(), label_text))
            has_storage = storage[i] and kind is P
            stage_objs[i].append(Stage(sid, kind, ids[i], has_storage, label))

    flows: list[Flow] = []
    flow_n = 0

    def add_flow(src: str, dst: str) -> None:
        nonlocal flow_n
        if src == dst or any(f.source == src and f.target == dst for f in flows):
            return
        flow_n += 1
        flows.append(Flow(f"f{flow_n}", src, dst))

    for i in range(n):
        if (i, C) in stage_ids and (i, P) in stage_ids:
            if draw(st.booleans()):
                add_flow(stage_ids[(i, C)], stage_ids[(i, P)])
            if draw(st.booleans()) and draw(st.booleans()):
                add_flow(stage_ids[(i, P)], stage_ids[(i, C)])

    # one designated inter-machine source stage per machine keeps the gate
    # chains lossless under expand/simplify
    inter_source: dict[int, str] = {}
    for i in range(n):
        options = [stage_ids[k] for k in ((i, C), (i, P)) if k in stage_ids]
        if options:
            choice = draw(st.sampled_from(options + [""]))
            if choice:
                inter_source[i] = choice
    targets = [i for i in range(n) if (i, P) in stage_ids]
    pairs = [(i, j) for i in inter_source for j in targets if i != j]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
        for i, j in chosen:
            add_flow(inter_source[i], stage_ids[(j, P)])

    all_stage_ids = sorted(stage_ids.values())
    triggers: list[Trigger] = []
    if len(all_stage_ids) >= 2:
        count = draw(st.integers(0, 3))
        for k in range(count):
            src = draw(st.sampled_from(all_stage_ids))
            dst = draw(st.sampled_from(all_stage_ids))
            if src == dst or any(t.source == src and t.target == dst for t in triggers):
                continue
            guard = draw(st.one_of(st.none(), label_text))
            triggers.append(Trigger(f"t{k + 1}", src, dst, guard))

    constraint: set[int] = set()
    for i in range(n):
        if (i, P) not in stage_ids:
            continue
        own = {s.id for s in stage_objs[i]}
        if any(t.source in own and t.guard is not None for t in triggers) and draw(st.booleans()):
            constraint.add(i)

    def build(i: int) -> Machine:
        children = tuple(build(j) for j in range(n) if parents[j] == i)
        name = ids[i].split(".")[-1]
        if draw(st.booleans()) and draw(st.booleans()):
            name = draw(label_text)
        return Machine(
            id=ids[i],
            name=name,
            is_constraint=i in constraint,
            stages=tuple(stage_objs[i]),
            submachines=children,
        )

    roots = tuple(build(i) for i in range(n) if parents[i] is None)
    return StaticModel.build(roots, flows, triggers)


def canonical_models(max_machines: int = 5):
    """Full-form models that are exact expansions of simplified ones."""
    return simplified_models(max_machines).map(expand)


@st.composite
def documents(draw, max_machines: int = 4):
    """(model, events, behavior) triples for parse/print round-trips."""
    model = draw(st.one_of(simplified_models(max_machines), canonical_models(max_machines)))
    stage_ids = sorted(s.id for s in model.all_stages())
    events: list[Event] = []
    if stage_ids:
        for k in range(draw(st.integers(0, 3))):
            chosen = draw(
                st.lists(st.sampled_from(stage_ids), min_size=1, max_size=4, unique=True)
            )
            full = induced_region(model, chosen)
            edge_ids = draw(
                st.lists(st.sampled_from(sorted(full.edge_ids)), unique=True)
                if full.edge_ids
                else st.just([])
            )
            eid = f"E{k + 1}"
            name = eid if draw(st.booleans()) else draw(label_text)
            events.append(
                Event(
                    id=eid,
                    name=name,
                    time=draw(time_text),
                    region=Region(frozenset(chosen), frozenset(edge_ids)),
                    intensity=draw(st.one_of(st.none(), label_text)),
                )
            )
    event_ids = [e.id for e in events]
    edges: list[BehaviorEdge] = []
    if len(event_ids) >= 2:
        for _ in range(draw(st.integers(0, 3))):
            src = draw(st.sampled_from(event_ids))
            dst = draw(st.sampled_from(event_ids))
            if src == dst or any(e.source == src and e.target == dst for e in edges):
                continue
            group = draw(st.one_of(st.none(), label_text))
            edges.append(BehaviorEdge(src, dst, group))
    behavior = BehavioralModel.build(event_ids, edges)
    return model, tuple(events), behavior


def event_mutations(model: StaticModel, events: tuple[Event, ...]) -> list:
    """Single breaks of one event or behavior rule of a document, each a
    function of its (events, behavior) to the broken pair: a behavior that
    names an undeclared event and, on the first event, a blank time, an
    empty region, an unknown region stage or edge, and a region edge with an
    end outside the region."""
    muts = [lambda es, b: (es, b.replace(event_ids=b.event_ids | {"X9"}))]
    if not events:
        return muts

    def first(change):
        return lambda es, b: ((change(es[0]), *es[1:]), b)

    stage_ids, edge_ids = events[0].region.stage_ids, events[0].region.edge_ids
    muts += [
        first(lambda e: e.replace(time=" ")),
        first(lambda e: e.replace(region=Region(frozenset()))),
        first(lambda e: e.replace(region=Region(stage_ids | {"Z.process"}, edge_ids))),
        first(lambda e: e.replace(region=Region(stage_ids, edge_ids | {"zz"}))),
    ]
    edges = (*model.flows, *model.triggers)
    if edges:  # its source in the region, its target out
        edge = edges[0]
        muts.append(first(lambda e: e.replace(region=Region(
            stage_ids - {edge.target} | {edge.source}, edge_ids | {edge.id}))))
    return muts


def tied(ident: str) -> str:
    """``ident`` with a zero before its first digit run (f01 for f1): a
    different id with the same natural key.  An id without digits stays."""
    return re.sub(r"\d+", r"0\g<0>", ident, count=1)


def count_natural_keys(monkeypatch) -> Counter:
    """How many times each string reaches `natural_key` from here on,
    through every tmkit module that holds it, until ``monkeypatch`` undoes
    the wrapping."""
    keyed: Counter = Counter()
    natural_key = tmkit.model.natural_key

    def counted(text: str) -> str:
        keyed[text] += 1
        return natural_key(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("tmkit.") and getattr(module, "natural_key", None) is natural_key:
            monkeypatch.setattr(module, "natural_key", counted)
    return keyed


@st.composite
def tied_documents(draw, max_machines: int = 4):
    """`documents` with copies of some machines, stages, flows and triggers,
    and extra region ids, each tied to an original (f01 beside f1), so
    sorting meets equal natural keys.  The copies repeat stage ids and
    references, so the model is raw: it breaks V1 and is not built."""
    model, events, behavior = draw(documents(max_machines))
    chosen = draw(st.sets(st.sampled_from([m.id for m in model.all_machines()])))

    def copy_some(machine: Machine, _parent, subs: tuple) -> Machine:
        if machine.id not in chosen:
            return machine.replace(submachines=subs)
        return machine.replace(
            stages=machine.stages + tuple(s.replace(id=tied(s.id)) for s in machine.stages[:1]),
            submachines=subs + tuple(m.replace(id=tied(m.id)) for m in subs[:1]),
        )

    roots = build_trees(model.machines, submachines_of, copy_some)
    roots += tuple(m.replace(id=tied(m.id)) for m in roots[: draw(st.integers(0, 1))])
    flows, triggers = model.flows, model.triggers
    if flows:
        copies = draw(st.lists(st.sampled_from(flows), max_size=3))
        flows += tuple(f.replace(id=tied(f.id)) for f in copies)
    if triggers:
        copies = draw(st.lists(st.sampled_from(triggers), max_size=3))
        triggers += tuple(t.replace(id=tied(t.id)) for t in copies)
    events = tuple(
        e.replace(region=Region(
            e.region.stage_ids | {tied(s) for s in e.region.stage_ids if draw(st.booleans())},
            e.region.edge_ids | {tied(x) for x in e.region.edge_ids if draw(st.booleans())},
        ))
        for e in events
    )
    return StaticModel(roots, flows, triggers), events, behavior


def _at_random(pattern: str, replacement):
    """A mutation replacing one match of `pattern`, picked by the given
    random source, by `replacement`: a template or a function of the match."""
    regex = re.compile(pattern, re.M)

    def mutate(text: str, rng) -> str:
        matches = list(regex.finditer(text))
        if not matches:
            return text
        m = rng.choice(matches)
        new = replacement(m) if callable(replacement) else m.expand(replacement)
        return text[: m.start()] + new + text[m.end() :]

    return mutate


# Each breaks the shape the lexer reads as one statement token, or moves a
# statement where it does not belong.
STATEMENT_MUTATIONS = {
    "comment inside": _at_random(r" (?=\S)", " # note\n"),
    "line break inside": _at_random(r" (?=\S)", "\n"),
    "spaced reference": _at_random(r"(?<=\w)\.(?=\w)", " . "),
    "reserved label": _at_random(r"(?<=^flow )\w+(?=:)|(?<=^trigger )\w+(?=:)", "create"),
    "reserved machine name": _at_random(r"(?<=machine )\w+", "flow"),
    "non-kind last segment": _at_random(r"(?<=\.)(?:create|process|release|transfer|receive)\b",
                                        "bogus"),
    "swapped arrow": _at_random(r"[-=]>", lambda m: "=>" if m.group() == "->" else "->"),
    "guard on a flow": _at_random(r"^(flow [^;\n]*);", r'\1 if "g";'),
    "escape in a string": _at_random(r'"(?=[^"\n]*";)', lambda m: '"\\t'),
    "missing semicolon": _at_random(r";", ""),
    "stage at top level": _at_random(r"^(?=machine |flow |event )", "process;\n"),
    "flow in a machine": _at_random(r"(?<=\{)\n(?=  )", "\nflow g: a.create -> b.process;\n"),
    "machine head in an event": _at_random(r"(?<=region \{)", " machine Z { "),
}


@st.composite
def mutated_texts(draw, max_machines: int = 4) -> str:
    """The canonical text of a `documents` draw after up to three
    `STATEMENT_MUTATIONS`."""
    model, events, behavior = draw(documents(max_machines))
    return mutate_statements(draw, print_model(model, events, behavior))


def mutate_statements(draw, text: str) -> str:
    """`text` after up to three `STATEMENT_MUTATIONS`, chosen by `draw`."""
    rng = draw(st.randoms(use_true_random=False))
    for name in draw(st.lists(st.sampled_from(sorted(STATEMENT_MUTATIONS)), max_size=3)):
        text = STATEMENT_MUTATIONS[name](text, rng)
    return text


@st.composite
def activity_graphs(draw, max_actions: int = 8) -> ActivityGraph:
    n = draw(st.integers(min_value=1, max_value=max_actions))
    action_ids = [f"a{i}" for i in range(n)]
    nodes = [ActivityNode("start", "Initial")]
    for i, aid in enumerate(action_ids):
        nodes.append(ActivityNode(aid, "Action", draw(label_text)))

    plain_in: dict[str, list[tuple[str, str | None]]] = {aid: [] for aid in action_ids}
    # forward edges keep the plain control flow acyclic
    for j in range(1, n):
        sources = draw(
            st.lists(st.sampled_from(action_ids[:j]), max_size=2, unique=True)
        )
        for src in sources:
            plain_in[action_ids[j]].append((src, None))

    # decisions: guarded fan-outs, at most one per action, targets anywhere
    decision_owner: dict[str, list[tuple[str, str]]] = {}
    if n >= 3:
        owners = draw(st.lists(st.sampled_from(action_ids), max_size=2, unique=True))
        for owner in owners:
            other = [aid for aid in action_ids if aid != owner]
            picks = draw(
                st.lists(
                    st.sampled_from(other), min_size=2, max_size=min(3, len(other)), unique=True
                )
            )
            if len(picks) < 2:
                continue
            branches = []
            for target in picks:
                guard = draw(label_text.filter(lambda s: s.strip() != ""))
                branches.append((target, guard))
            decision_owner[owner] = branches
            for target, guard in branches:
                plain_in[target].append((f"d_{owner}", guard))

    edges: list[ActivityEdge] = [ActivityEdge("start", "a0")]
    for owner in decision_owner:
        nodes.append(ActivityNode(f"d_{owner}", "Decision"))
        edges.append(ActivityEdge(owner, f"d_{owner}"))

    merge_n = 0
    for aid in action_ids:
        incoming = plain_in[aid]
        if len(incoming) >= 2:
            merge_n += 1
            merge_id = f"m{merge_n}"
            nodes.append(ActivityNode(merge_id, "Merge"))
            for src, guard in incoming:
                edges.append(ActivityEdge(src, merge_id, guard))
            edges.append(ActivityEdge(merge_id, aid))
        else:
            for src, guard in incoming:
                edges.append(ActivityEdge(src, aid, guard))

    has_out = {e.source for e in edges}
    terminals = [aid for aid in action_ids if aid not in has_out and aid not in decision_owner]
    nodes.append(ActivityNode("finish", "Final"))
    if not terminals:
        # guarantee at least one path into the final node
        extra = ActivityNode(f"a{n}", "Action", draw(label_text))
        nodes.append(extra)
        edges.append(ActivityEdge(action_ids[-1], extra.id))
        terminals = [extra.id]
    for aid in terminals:
        edges.append(ActivityEdge(aid, "finish"))
    return ActivityGraph.build(nodes, edges)
