"""Seeded input generators for the tmkit benchmark.

Every generator is a pure function of its seed.  It uses only the standard
library (neither tmkit nor hypothesis) and returns the document text together
with the facts that hold for it by construction: element counts, the flow
pairs `simplify` must produce, event closures, uncovered stages and trace
verdicts.  The benchmark checks tmkit's outputs against these facts, so the
oracle never comes from the code under test.

Documents are emitted in canonical form (machines sorted by natural token
order, stages in kind order, edges sorted by id), so re-printing a parsed
document must reproduce its text byte for byte.

The seed changes names, labels, guards and wiring, never the size of a
large-doc or gate-relay document; small-docs draws thousands of shapes from
the same distribution for every seed.  So every seed asks for the same work.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass, field
from typing import Optional

KIND_ORDER = ("create", "process", "release", "transfer", "receive")
CORE = frozenset({"create", "process"})

_NAT_SPLIT = re.compile(r"(\d+)")


def natural_key(text: str) -> tuple:
    """Order embedded integers numerically (f2 before f10)."""
    return tuple(
        (1, int(part)) if part.isdigit() else (0, part) for part in _NAT_SPLIT.split(text) if part
    )


def escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def _token(rng: random.Random, index: int) -> str:
    """A fixed-length identifier: one capital, five lower-case letters, an index."""
    head = rng.choice(string.ascii_uppercase)
    return head + "".join(rng.choices(string.ascii_lowercase, k=5)) + str(index)


def _phrase(rng: random.Random, words: int) -> str:
    return " ".join("".join(rng.choices(string.ascii_lowercase, k=5)) for _ in range(words))


@dataclass
class _Machine:
    token: str
    parent: Optional[str]
    name: str
    constraint: bool = False
    stages: dict = field(default_factory=dict)  # kind -> (store, label)
    subs: list = field(default_factory=list)


@dataclass
class Plan:
    """A document under construction; `text()` prints it canonically."""

    machines: dict = field(default_factory=dict)  # id -> _Machine
    roots: list = field(default_factory=list)
    flows: list = field(default_factory=list)  # (source, target); id f<n> by position
    triggers: list = field(default_factory=list)  # (source, target, guard); id t<n>
    events: list = field(default_factory=list)  # (id, name, time, stages, edges, intensity)
    behavior: list = field(default_factory=list)  # (source, target, group)
    _flow_set: set = field(default_factory=set)

    def machine(self, token: str, parent: Optional[str] = None, name: Optional[str] = None,
                constraint: bool = False) -> str:
        mid = token if parent is None else f"{parent}.{token}"
        self.machines[mid] = _Machine(token, parent, token if name is None else name, constraint)
        (self.roots if parent is None else self.machines[parent].subs).append(mid)
        return mid

    def stage(self, mid: str, kind: str, store: bool = False, label: Optional[str] = None) -> str:
        self.machines[mid].stages.setdefault(kind, (store, label))
        return f"{mid}.{kind}"

    def flow(self, source: str, target: str) -> None:
        if (source, target) not in self._flow_set:
            self._flow_set.add((source, target))
            self.flows.append((source, target))

    def trigger(self, source: str, target: str, guard: Optional[str] = None) -> None:
        self.triggers.append((source, target, guard))

    def chain(self, source: str, target: str) -> None:
        """The canonical gate chain source -> release -> transfer ->
        transfer -> receive -> target between two machines' core stages."""
        src_m, dst_m = source.rsplit(".", 1)[0], target.rsplit(".", 1)[0]
        rel, s_tra = self.stage(src_m, "release"), self.stage(src_m, "transfer")
        d_tra, rec = self.stage(dst_m, "transfer"), self.stage(dst_m, "receive")
        for a, b in ((source, rel), (rel, s_tra), (s_tra, d_tra), (d_tra, rec), (rec, target)):
            self.flow(a, b)

    # -- derived facts ---------------------------------------------------------

    def stage_ids(self) -> list[str]:
        return [f"{mid}.{kind}" for mid, m in self.machines.items() for kind in m.stages]

    def edges(self) -> dict[str, tuple[str, str]]:
        out = {f"f{i}": pair for i, pair in enumerate(self.flows, 1)}
        out.update({f"t{i}": (s, d) for i, (s, d, _) in enumerate(self.triggers, 1)})
        return out

    def closures(self) -> dict[str, list[str]]:
        """Event id -> every edge id lying inside its region (natural order)."""
        edges = self.edges()
        return {
            eid: sorted((k for k, (s, d) in edges.items() if s in stages and d in stages),
                        key=natural_key)
            for eid, _, _, stages, _, _ in self.events
        }

    def uncovered(self) -> list[str]:
        covered = set().union(*(stages for _, _, _, stages, _, _ in self.events))
        return sorted((s for s in self.stage_ids() if s not in covered), key=natural_key)

    def counts(self) -> dict[str, int]:
        return {
            "machines": len(self.machines),
            "stages": len(self.stage_ids()),
            "flows": len(self.flows),
            "triggers": len(self.triggers),
            "events": len(self.events),
            "behavior_edges": len(self.behavior),
        }

    # -- canonical text --------------------------------------------------------

    def _machine_lines(self, mid: str, indent: str) -> list[str]:
        m = self.machines[mid]
        head = f"{indent}machine {m.token}"
        if m.constraint:
            head += " constraint"
        if m.name != m.token:
            head += f" : {escape(m.name)}"
        lines = [head + " {"]
        for kind in KIND_ORDER:
            if kind not in m.stages:
                continue
            store, label = m.stages[kind]
            decl = f"{indent}  {kind}" + (" store" if store else "")
            if label is not None:
                decl += f" : {escape(label)}"
            lines.append(decl + ";")
        for sub in sorted(m.subs, key=lambda s: natural_key(self.machines[s].token)):
            lines.extend(self._machine_lines(sub, indent + "  "))
        lines.append(indent + "}")
        return lines

    def text(self) -> str:
        chunks = [
            "\n".join(self._machine_lines(mid, ""))
            for mid in sorted(self.roots, key=lambda r: natural_key(self.machines[r].token))
        ]
        chunks += [f"flow f{i}: {s} -> {d};" for i, (s, d) in enumerate(self.flows, 1)]
        for i, (s, d, guard) in enumerate(self.triggers, 1):
            chunks.append(f"trigger t{i}: {s} => {d}" + (f" if {escape(guard)}" if guard is not None else "") + ";")
        for eid, name, time, stages, edges, intensity in sorted(self.events, key=lambda e: natural_key(e[0])):
            lines = [f"event {eid}" + (f" : {escape(name)}" if name != eid else "") + " {",
                     f"  time {escape(time)};", "  region {"]
            lines += [f"    {sid}" for sid in sorted(stages, key=natural_key)]
            lines += [f"    edge {e}" for e in sorted(edges, key=natural_key)]
            lines.append("  }")
            if intensity is not None:
                lines.append(f"  intensity {escape(intensity)};")
            chunks.append("\n".join(lines + ["}"]))
        if self.behavior:
            lines = ["behavior {"]
            for s, d, group in sorted(self.behavior, key=lambda e: (natural_key(e[0]), natural_key(e[1]))):
                lines.append(f"  {s} -> {d}" + (f" excl {escape(group)}" if group is not None else "") + ";")
            chunks.append("\n".join(lines + ["}"]))
        return "\n\n".join(chunks) + "\n"


# -- large-doc -------------------------------------------------------------------


@dataclass
class LargeDoc:
    text: str
    counts: dict
    closures: dict
    uncovered: list
    traces: list  # (trace, conforms, violation_index)
    simplified_flows: frozenset  # (source, target) pairs after simplify
    simplified_stages: int
    render_static_edges: int


def _derangement(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        if perm[i] == i:
            j = (i + 1) % n
            perm[i], perm[j] = perm[j], perm[i]
    return perm


def large_doc(seed: int, groups: int) -> LargeDoc:
    """`groups` root machines with three submachines each (the corpus's
    nesting depth), every machine sending one gate chain to another and
    receiving one, with guarded triggers, constraint machines, events over
    pairs of machines and a long behavior chain with exclusive branches."""
    rng = random.Random(f"large-doc/{seed}/{groups}")
    plan = Plan()
    ids: list[str] = []
    for g in range(groups):
        root = _token(rng, g)
        ids.append(plan.machine(root, name=_phrase(rng, 3) if g % 3 == 0 else None))
        for s in range(3):
            i = len(ids)
            ids.append(plan.machine(_token(rng, s), ids[g * 4], constraint=i % 10 == 5,
                                    name=_phrase(rng, 2) if i % 3 == 0 else None))
    n = len(ids)
    sources = []
    for i, mid in enumerate(ids):
        process = plan.stage(mid, "process", store=i % 7 == 0,
                             label=_phrase(rng, 2) if i % 4 == 1 else None)
        if i % 2 == 0:
            create = plan.stage(mid, "create", label=_phrase(rng, 2) if i % 8 == 0 else None)
            plan.flow(create, process)
            if i % 6 == 0:
                plan.flow(process, create)
            sources.append(rng.choice((create, process)))
        else:
            sources.append(process)
    core_flows = set(plan.flows)
    targets = _derangement(rng, n)
    for i in range(n):
        dst = f"{ids[targets[i]]}.process"
        plan.chain(sources[i], dst)
        core_flows.add((sources[i], dst))
    for i in range(0, n, 5):
        src = f"{ids[i]}.create" if i % 10 == 0 else f"{ids[i]}.process"
        j = rng.choice([k for k in range(n) if k != i])
        plan.trigger(src, f"{ids[j]}.process", _phrase(rng, 4) if i % 10 == 5 else None)

    n_events = max(3, groups // 2)
    edges = plan.edges()
    for e in range(n_events):
        a = rng.randrange(n)
        stages = frozenset(
            f"{m}.{k}" for m in (ids[a], ids[targets[a]]) for k in plan.machines[m].stages
        )
        inside = sorted(k for k, (s, d) in edges.items() if s in stages and d in stages)
        listed = rng.sample(inside, len(inside) // 2)
        plan.events.append((f"E{e + 1}", _phrase(rng, 4), _phrase(rng, 2), stages, listed,
                            _phrase(rng, 1) if e % 3 == 0 else None))
    for e in range(1, n_events):
        group = f"g{e}" if e % 3 == 1 and e + 2 <= n_events else None
        plan.behavior.append((f"E{e}", f"E{e + 1}", group))
        if group is not None:
            plan.behavior.append((f"E{e}", f"E{e + 2}", group))

    return LargeDoc(
        text=plan.text(),
        counts=plan.counts(),
        closures=plan.closures(),
        uncovered=plan.uncovered(),
        traces=_traces(rng, plan.behavior),
        simplified_flows=frozenset(core_flows),
        simplified_stages=sum(1 for s in plan.stage_ids() if s.rsplit(".", 1)[1] in CORE),
        render_static_edges=len(plan.flows) + len(plan.triggers),
    )


def _traces(rng: random.Random, behavior: list) -> list:
    """Walks from the single source event E1, with their verdicts: four
    conforming walks, two that repeat a step (no self edges exist, so the
    repeat is the first violation) and one that starts at a non-source."""
    succ: dict[str, list[str]] = {}
    for s, d, _ in behavior:
        succ.setdefault(s, []).append(d)

    def walk() -> list[str]:
        out = ["E1"]
        while out[-1] in succ:
            out.append(rng.choice(succ[out[-1]]))
        return out

    traces = [(walk(), True, None) for _ in range(4)]
    for _ in range(2):
        steps = walk()
        k = rng.randrange(1, len(steps))
        traces.append((steps[:k] + [steps[k - 1]] + steps[k:], False, k))
    traces.append((walk()[1:], False, 0))
    return traces


# -- gate-relay ------------------------------------------------------------------


@dataclass
class RelayDoc:
    text: str
    counts: dict
    simplified_flows: frozenset
    simplified_stages: int
    expanded_stages: int
    expanded_flows: int
    activity_nodes: dict  # kind -> count
    activity_edges: int


def gate_relay(seed: int, index: int, width: int, layers: int, fanout: int) -> RelayDoc:
    """relay(width, layers) plus fan-out: a source machine feeds `layers`
    layers of `width` gate-only relay machines, every relay feeding every
    relay of the next layer, and the last layer feeds `fanout` destinations.
    Simplify must contract the width**layers * fanout gate paths into one
    flow per destination."""
    if fanout < 2:
        raise ValueError("the trigger between destinations needs a fan-out of two or more")
    rng = random.Random(f"gate-relay/{seed}/{index}/{width}/{layers}/{fanout}")
    plan = Plan()
    src_m = plan.machine(_token(rng, 0), name=_phrase(rng, 2))
    create = plan.stage(src_m, "create", label=_phrase(rng, 2))
    rel, tra = plan.stage(src_m, "release"), plan.stage(src_m, "transfer")
    plan.flow(create, rel)
    plan.flow(rel, tra)
    previous = [tra]
    for k in range(layers):
        layer = []
        for w in range(width):
            mid = plan.machine(_token(rng, 1 + k * width + w))
            m_tra, m_rec, m_rel = (plan.stage(mid, kind) for kind in ("transfer", "receive", "release"))
            for p in previous:
                plan.flow(p, m_tra)
            plan.flow(m_tra, m_rec)
            plan.flow(m_rec, m_rel)
            plan.flow(m_rel, m_tra)
            layer.append(m_tra)
        previous = layer
    dsts = []
    for f in range(fanout):
        mid = plan.machine(_token(rng, 1 + layers * width + f), name=_phrase(rng, 2))
        d_tra, d_rec = plan.stage(mid, "transfer"), plan.stage(mid, "receive")
        process = plan.stage(mid, "process", store=f == 0)
        for p in previous:
            plan.flow(p, d_tra)
        plan.flow(d_tra, d_rec)
        plan.flow(d_rec, process)
        dsts.append(process)
    plan.trigger(dsts[0], dsts[1], _phrase(rng, 3))
    return RelayDoc(
        text=plan.text(),
        counts=plan.counts(),
        simplified_flows=frozenset((create, d) for d in dsts),
        simplified_stages=1 + fanout,
        # expand: create/release/transfer at the source, transfer/receive/process per destination
        expanded_stages=3 + 3 * fanout,
        expanded_flows=2 + 3 * fanout,
        # initial, source and destination actions, a merge where the trigger
        # joins the source's flow, and one final for the terminal destinations
        activity_nodes={"Initial": 1, "Action": 1 + fanout, "Merge": 1, "Final": 1},
        activity_edges=2 * fanout + 2,
    )


# -- small-docs ------------------------------------------------------------------


def _label(rng: random.Random) -> str:
    """Short label; one in three is drawn from characters the escaper handles."""
    if rng.random() < 1 / 3:
        return "".join(rng.choices('ab "\\\n\t', k=rng.randrange(0, 9)))
    return "".join(chr(rng.randrange(32, 127)) for _ in range(rng.randrange(0, 13)))


@dataclass
class SmallDoc:
    text: str
    mode: str  # validation mode: "full" or "simplified"
    counts: dict


def small_doc(rng: random.Random, machines: int) -> SmallDoc:
    """A document shaped like tests/strategies.py `documents`: a forest of up
    to `machines` machines with create/process stages, one designated
    inter-machine source per machine, triggers, events and behavior edges,
    either in simplified form or expanded to full form."""
    n = machines
    parents = [None] + [rng.choice([None] + list(range(i))) for i in range(1, n)]
    plan = Plan()
    ids: list[str] = []
    for i in range(n):
        token = f"m{i}"
        name = _label(rng) if rng.random() < 0.25 else None
        ids.append(plan.machine(token, None if parents[i] is None else ids[parents[i]], name))
    storage = [rng.random() < 0.25 for _ in range(n)]
    has: dict[tuple[int, str], str] = {}
    for i in range(n):
        for kind in ("create", "process"):
            if rng.random() < 0.5:
                label = _label(rng) if rng.random() < 0.5 else None
                has[(i, kind)] = plan.stage(ids[i], kind, store=storage[i] and kind == "process",
                                            label=label)
    intra, inter = [], []
    for i in range(n):
        if (i, "create") in has and (i, "process") in has:
            if rng.random() < 0.5:
                intra.append((has[(i, "create")], has[(i, "process")]))
            if rng.random() < 0.25:
                intra.append((has[(i, "process")], has[(i, "create")]))
    inter_source = {}
    for i in range(n):
        options = [has[k] for k in ((i, "create"), (i, "process")) if k in has]
        if options:
            choice = rng.choice(options + [""])
            if choice:
                inter_source[i] = choice
    targets = [i for i in range(n) if (i, "process") in has]
    pairs = [(i, j) for i in inter_source for j in targets if i != j]
    for i, j in rng.sample(pairs, min(len(pairs), rng.randrange(0, 5))):
        inter.append((inter_source[i], has[(j, "process")]))
    full = rng.random() < 0.5
    for pair in intra:
        plan.flow(*pair)
    for src, dst in sorted(inter, key=lambda p: (natural_key(p[0]), natural_key(p[1]))):
        if full:
            plan.chain(src, dst)
        else:
            plan.flow(src, dst)

    core = sorted(has.values())
    pairs_seen = set()
    if len(core) >= 2:
        for _ in range(rng.randrange(0, 4)):
            src, dst = rng.choice(core), rng.choice(core)
            if src == dst or (src, dst) in pairs_seen:
                continue
            pairs_seen.add((src, dst))
            plan.trigger(src, dst, _label(rng) if rng.random() < 0.5 else None)
    for i in range(n):
        own = {s for (k, _), s in has.items() if k == i}
        if (i, "process") in has and any(s in own and g is not None for s, _, g in plan.triggers):
            plan.machines[ids[i]].constraint = rng.random() < 0.5

    stage_ids = plan.stage_ids()
    edges = plan.edges()
    if stage_ids:
        for k in range(rng.randrange(0, 4)):
            chosen = frozenset(rng.sample(stage_ids, min(len(stage_ids), rng.randrange(1, 5))))
            inside = sorted(e for e, (s, d) in edges.items() if s in chosen and d in chosen)
            listed = rng.sample(inside, rng.randrange(0, len(inside) + 1))
            eid = f"E{k + 1}"
            time = ""
            while not time.strip():  # a blank time is a V8 error
                time = _label(rng)
            plan.events.append((eid, eid if rng.random() < 0.5 else _label(rng), time,
                                chosen, listed, _label(rng) if rng.random() < 0.5 else None))
    event_ids = [e[0] for e in plan.events]
    if len(event_ids) >= 2:
        seen = set()
        for _ in range(rng.randrange(0, 4)):
            s, d = rng.choice(event_ids), rng.choice(event_ids)
            if s != d and (s, d) not in seen:
                seen.add((s, d))
                plan.behavior.append((s, d, _label(rng) if rng.random() < 0.5 else None))
    return SmallDoc(plan.text(), "full" if full else "simplified", plan.counts())


@dataclass
class SmallGraph:
    text: str  # .act.json
    nodes: int
    edges: int
    machines: int  # after import: one per action
    flows: int  # the entry's create->process plus one per unguarded action edge
    triggers: int  # one per guarded decision branch


def small_graph(rng: random.Random, actions: int) -> SmallGraph:
    """An activity graph shaped like tests/strategies.py `activity_graphs`:
    one initial and final, forward control edges, guarded decisions, and a
    merge at every fan-in."""
    n = actions
    action_ids = [f"a{i}" for i in range(n)]
    nodes = [("start", "Initial", "")] + [(a, "Action", _label(rng)) for a in action_ids]
    plain_in: dict[str, list] = {a: [] for a in action_ids}
    forward = 0
    for j in range(1, n):
        for src in rng.sample(action_ids[:j], min(j, rng.randrange(0, 3))):
            plain_in[action_ids[j]].append((src, None))
            forward += 1
    decisions: dict[str, list] = {}
    if n >= 3:
        for owner in rng.sample(action_ids, rng.randrange(0, 3)):
            other = [a for a in action_ids if a != owner]
            picks = rng.sample(other, rng.randrange(2, min(3, len(other)) + 1))
            branches = []
            for target in picks:
                guard = ""
                while not guard.strip():
                    guard = _label(rng)
                branches.append((target, guard))
                plain_in[target].append((f"d_{owner}", guard))
            decisions[owner] = branches
    edges = [("start", "a0", None)]
    for owner in decisions:
        nodes.append((f"d_{owner}", "Decision", ""))
        edges.append((owner, f"d_{owner}", None))
    merges = 0
    for aid in action_ids:
        incoming = plain_in[aid]
        if len(incoming) >= 2:
            merges += 1
            nodes.append((f"m{merges}", "Merge", ""))
            edges += [(src, f"m{merges}", guard) for src, guard in incoming]
            edges.append((f"m{merges}", aid, None))
        else:
            edges += [(src, aid, guard) for src, guard in incoming]
    has_out = {e[0] for e in edges}
    terminals = [a for a in action_ids if a not in has_out and a not in decisions]
    nodes.append(("finish", "Final", ""))
    machines = n
    if not terminals:
        extra = f"a{n}"
        nodes.append((extra, "Action", _label(rng)))
        edges.append((action_ids[-1], extra, None))
        terminals = [extra]
        machines += 1
        forward += 1
    edges += [(a, "finish", None) for a in terminals]
    doc = {
        "nodes": [{"id": i, "kind": k, "label": label} for i, k, label in nodes],
        "edges": [{"from": s, "to": d, "guard": g} for s, d, g in edges],
    }
    return SmallGraph(
        text=json.dumps(doc),
        nodes=len(nodes),
        edges=len(edges),
        machines=machines,
        flows=1 + forward,
        triggers=sum(len(b) for b in decisions.values()),
    )
