"""Core domain types for five-action machine models and elementary graph queries.

A model is a tree (or forest) of machines.  Every machine owns at most one
stage per action kind; solid flows and dashed (optionally guarded) triggers
connect stages across the whole model.  All types are immutable; operations
are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterator, Optional, Sequence


class TmError(Exception):
    """Base class for toolkit errors."""


class ModelError(TmError):
    """A model or one of its parts violates a structural invariant."""


class UnknownMachine(TmError):
    pass


class UnknownStage(TmError):
    pass


class EmptyRegion(TmError):
    pass


class ActionKind(Enum):
    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"

    # Members are singletons compared by identity, so the identity hash agrees
    # with equality and skips Enum.__hash__, a Python-level call per set test.
    __hash__ = object.__hash__


#: Canonical ordering used by the printer and renderer.
KIND_ORDER = (
    ActionKind.CREATE,
    ActionKind.PROCESS,
    ActionKind.RELEASE,
    ActionKind.TRANSFER,
    ActionKind.RECEIVE,
)

#: Stages removed by simplification; things pass through these gates.
GATE_KINDS = frozenset({ActionKind.RELEASE, ActionKind.TRANSFER, ActionKind.RECEIVE})

#: Stages that survive simplification.
CORE_KINDS = frozenset({ActionKind.CREATE, ActionKind.PROCESS})

_NAT_SPLIT = re.compile(r"(\d+)")


def natural_key(text: str) -> tuple:
    """Sort key that orders embedded integers numerically (f2 before f10)."""
    return tuple(
        (1, int(part)) if part.isdigit() else (0, part)
        for part in _NAT_SPLIT.split(text)
        if part
    )


@dataclass(frozen=True)
class Stage:
    id: str
    kind: ActionKind
    owner: str
    has_storage: bool = False
    label: Optional[str] = None


@dataclass(frozen=True)
class Machine:
    id: str
    name: str
    is_constraint: bool = False
    stages: tuple[Stage, ...] = ()
    submachines: tuple["Machine", ...] = ()
    parent: Optional[str] = None

    def stage_of(self, kind: ActionKind) -> Optional[Stage]:
        for stage in self.stages:
            if stage.kind is kind:
                return stage
        return None

    def walk(self) -> Iterator["Machine"]:
        yield self
        for sub in self.submachines:
            yield from sub.walk()


@dataclass(frozen=True)
class Flow:
    id: str
    source: str
    target: str


@dataclass(frozen=True)
class Trigger:
    id: str
    source: str
    target: str
    guard: Optional[str] = None


@dataclass(frozen=True)
class StaticModel:
    machines: tuple[Machine, ...] = ()
    flows: tuple[Flow, ...] = ()
    triggers: tuple[Trigger, ...] = ()

    @classmethod
    def build(
        cls,
        machines: Sequence[Machine] = (),
        flows: Sequence[Flow] = (),
        triggers: Sequence[Trigger] = (),
    ) -> "StaticModel":
        """Normalize parent links and reject any invariant violation."""
        normalized = tuple(_with_parents(m, None) for m in machines)
        model = cls(machines=normalized, flows=tuple(flows), triggers=tuple(triggers))
        problems = check_model(model)
        if problems:
            raise ModelError("; ".join(problems))
        return model

    # -- derived lookups (model is immutable, so caching is safe) --

    @cached_property
    def machines_by_id(self) -> dict[str, Machine]:
        return {m.id: m for m in self.all_machines()}

    @cached_property
    def stages_by_id(self) -> dict[str, Stage]:
        return {s.id: s for s in self.all_stages()}

    @cached_property
    def flows_by_id(self) -> dict[str, Flow]:
        return {f.id: f for f in self.flows}

    @cached_property
    def triggers_by_id(self) -> dict[str, Trigger]:
        return {t.id: t for t in self.triggers}

    @cached_property
    def flows_from(self) -> dict[str, tuple[Flow, ...]]:
        return _group(self.flows, lambda f: f.source)

    @cached_property
    def flows_into(self) -> dict[str, tuple[Flow, ...]]:
        return _group(self.flows, lambda f: f.target)

    @cached_property
    def triggers_from(self) -> dict[str, tuple[Trigger, ...]]:
        return _group(self.triggers, lambda t: t.source)

    @cached_property
    def triggers_into(self) -> dict[str, tuple[Trigger, ...]]:
        return _group(self.triggers, lambda t: t.target)

    def all_machines(self) -> Iterator[Machine]:
        for root in self.machines:
            yield from root.walk()

    def all_stages(self) -> Iterator[Stage]:
        for machine in self.all_machines():
            yield from machine.stages


def _group(items, key) -> dict:
    out: dict = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return {k: tuple(v) for k, v in out.items()}


def _with_parents(machine: Machine, parent_id: Optional[str]) -> Machine:
    subs = tuple(_with_parents(sub, machine.id) for sub in machine.submachines)
    if machine.parent == parent_id and subs == machine.submachines:
        return machine
    return replace(machine, parent=parent_id, submachines=subs)


def check_model(model: StaticModel) -> list[str]:
    """Return human-readable invariant violations; empty means well-formed."""
    problems: list[str] = []
    seen: dict[str, str] = {}

    def claim(id_: str, what: str) -> None:
        if id_ in seen:
            problems.append(f"duplicate id {id_!r} ({seen[id_]} vs {what})")
        else:
            seen[id_] = what

    # Machine nesting is a tree by construction (tuples cannot cycle), but a
    # machine object reused in two places would fake a DAG; catch by id reuse.
    for machine in model.all_machines():
        claim(machine.id, "machine")
        kinds_seen = set()
        for stage in machine.stages:
            claim(stage.id, "stage")
            if stage.owner != machine.id:
                problems.append(f"stage {stage.id!r} owner {stage.owner!r} is not {machine.id!r}")
            if stage.kind in kinds_seen:
                problems.append(f"machine {machine.id!r} has more than one {stage.kind.value} stage")
            kinds_seen.add(stage.kind)
        for sub in machine.submachines:
            if sub.parent != machine.id:
                problems.append(f"machine {sub.id!r} parent {sub.parent!r} is not {machine.id!r}")
        if machine.is_constraint and machine.stage_of(ActionKind.PROCESS) is None:
            problems.append(f"constraint machine {machine.id!r} has no process stage")
    for root in model.machines:
        if root.parent is not None:
            problems.append(f"root machine {root.id!r} has parent {root.parent!r}")

    stage_ids = {s.id for s in model.all_stages()}
    for edge in (*model.flows, *model.triggers):
        what = "flow" if isinstance(edge, Flow) else "trigger"
        claim(edge.id, what)
        for end in (edge.source, edge.target):
            if end not in stage_ids:
                problems.append(f"{what} {edge.id!r} references unknown stage {end!r}")
        if edge.source == edge.target:
            problems.append(f"{what} {edge.id!r} is a self-loop on {edge.source!r}")
    return problems


@dataclass(frozen=True)
class Region:
    stage_ids: frozenset[str]
    edge_ids: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Event:
    id: str
    name: str
    time: str
    region: Region
    intensity: Optional[str] = None


@dataclass(frozen=True)
class BehaviorEdge:
    source: str
    target: str
    exclusive_group: Optional[str] = None


@dataclass(frozen=True)
class BehavioralModel:
    event_ids: frozenset[str] = frozenset()
    edges: tuple[BehaviorEdge, ...] = ()

    @classmethod
    def build(
        cls, event_ids: Sequence[str] = (), edges: Sequence[BehaviorEdge] = ()
    ) -> "BehavioralModel":
        ids = frozenset(event_ids)
        ordered = tuple(
            sorted(edges, key=lambda e: (natural_key(e.source), natural_key(e.target)))
        )
        problems = []
        pairs = set()
        for edge in ordered:
            if edge.source == edge.target:
                problems.append(f"self-edge on event {edge.source!r}")
            for end in (edge.source, edge.target):
                if end not in ids:
                    problems.append(f"edge references undeclared event {end!r}")
            if (edge.source, edge.target) in pairs:
                problems.append(f"duplicate edge {edge.source!r} -> {edge.target!r}")
            pairs.add((edge.source, edge.target))
        if problems:
            raise ModelError("; ".join(problems))
        return cls(event_ids=ids, edges=ordered)

    def sources(self) -> frozenset[str]:
        """Events with no incoming edge."""
        targets = {e.target for e in self.edges}
        return frozenset(self.event_ids - targets)


def find_stage(
    model: StaticModel, machine_path: Sequence[str], kind: ActionKind
) -> Optional[Stage]:
    """Look up the stage of the given kind in the machine named by the path.

    The path is a sequence of machine names starting at a root machine.
    Raises UnknownMachine when the path resolves to no machine (or to more
    than one, which name-based lookup cannot disambiguate).
    """
    if not machine_path:
        raise UnknownMachine("empty machine path")
    candidates: list[Machine] = list(model.machines)
    for depth, name in enumerate(machine_path):
        matches = [m for m in candidates if m.name == name]
        if not matches:
            raise UnknownMachine(
                "no machine named %r under %r" % (name, ".".join(machine_path[:depth]) or "<root>")
            )
        if len(matches) > 1:
            raise UnknownMachine("machine name %r is ambiguous at %r" % (name, ".".join(machine_path)))
        if depth == len(machine_path) - 1:
            return matches[0].stage_of(kind)
        candidates = list(matches[0].submachines)
    return None


def induced_region(model: StaticModel, stage_ids: Sequence[str] | frozenset[str]) -> Region:
    """Close a stage set over every flow/trigger lying entirely inside it."""
    ids = frozenset(stage_ids)
    if not ids:
        raise EmptyRegion("a region needs at least one stage")
    for sid in sorted(ids, key=natural_key):
        if sid not in model.stages_by_id:
            raise UnknownStage(f"unknown stage {sid!r}")
    edges = frozenset(
        e.id for e in (*model.flows, *model.triggers) if e.source in ids and e.target in ids
    )
    return Region(stage_ids=ids, edge_ids=edges)


# -- structural equivalence -------------------------------------------------


def model_isomorphic(a: StaticModel, b: StaticModel) -> bool:
    """True iff a bijection on machines exists preserving nesting, stage kinds,
    storage, constraint flags, flows, triggers, and guards.  Names, ids, and
    stage labels are ignored.

    The one-stage-per-kind invariant makes the stage bijection a consequence
    of the machine bijection, so the search runs over machine siblings only,
    pruned by a structural signature.
    """
    if len(a.flows) != len(b.flows) or len(a.triggers) != len(b.triggers):
        return False
    sig_a = {m.id: _machine_signature(a, m) for m in a.all_machines()}
    sig_b = {m.id: _machine_signature(b, m) for m in b.all_machines()}

    a_flows = {(f.source, f.target) for f in a.flows}
    if len(a_flows) != len({(f.source, f.target) for f in b.flows}):
        return False

    mapping: dict[str, str] = {}

    def stages_map() -> Optional[dict[str, str]]:
        smap: dict[str, str] = {}
        for am_id, bm_id in mapping.items():
            am = a.machines_by_id[am_id]
            bm = b.machines_by_id[bm_id]
            for stage in am.stages:
                other = bm.stage_of(stage.kind)
                if other is None:
                    return None
                smap[stage.id] = other.id
        return smap

    def match_siblings(a_sibs: Sequence[Machine], b_sibs: Sequence[Machine]) -> bool:
        if len(a_sibs) != len(b_sibs):
            return False
        if not a_sibs:
            return True
        first, *rest = a_sibs
        for i, cand in enumerate(b_sibs):
            if sig_a[first.id] != sig_b[cand.id]:
                continue
            mapping[first.id] = cand.id
            remaining = list(b_sibs[:i]) + list(b_sibs[i + 1 :])
            if match_siblings(first.submachines, cand.submachines) and match_siblings(
                rest, remaining
            ):
                return True
            # undo this subtree's tentative assignments
            for m in first.walk():
                mapping.pop(m.id, None)
        return False

    if not match_siblings(a.machines, b.machines):
        return False
    smap = stages_map()
    if smap is None:
        return False
    mapped_flows = {(smap[f.source], smap[f.target]) for f in a.flows}
    if mapped_flows != {(f.source, f.target) for f in b.flows}:
        return False
    mapped_trigs = sorted((smap[t.source], smap[t.target], t.guard or "") for t in a.triggers)
    real_trigs = sorted((t.source, t.target, t.guard or "") for t in b.triggers)
    return mapped_trigs == real_trigs


def _machine_signature(model: StaticModel, machine: Machine) -> tuple:
    """Iso-invariant fingerprint: local stage/edge structure plus child multiset."""
    stage_part = []
    for kind in KIND_ORDER:
        stage = machine.stage_of(kind)
        if stage is None:
            stage_part.append(())  # absent stage; empty tuple keeps signatures sortable
            continue
        out_guards = tuple(sorted(t.guard or "" for t in model.triggers_from.get(stage.id, ())))
        stage_part.append(
            (
                stage.has_storage,
                len(model.flows_from.get(stage.id, ())),
                len(model.flows_into.get(stage.id, ())),
                len(model.triggers_from.get(stage.id, ())),
                len(model.triggers_into.get(stage.id, ())),
                out_guards,
            )
        )
    children = tuple(sorted(_machine_signature(model, sub) for sub in machine.submachines))
    return (machine.is_constraint, tuple(stage_part), children)
