"""Core domain types for five-action machine models and elementary graph queries.

A model is a tree (or forest) of machines.  Every machine owns at most one
stage per action kind; solid flows and dashed (optionally guarded) triggers
connect stages across the whole model.  All types are immutable; operations
are pure functions.  The names this module builds on (the errors, the action
kinds, `natural_key`, `Record`, the tree and graph walks and the region
queries) are defined in `tmkit.core` and read from here as well.

Because a model never changes, it walks its machine trees once: the first
query builds a preorder index of its machines and their stages, which
`all_machines`, `all_stages`, the id lookups and `check_model` all read.  It
keys each id once too: `StaticModel.natural_keys` keeps the `natural_key` of
every string a sort of the model has asked for, and the printer, the JSON
writer, `render`, `coverage` and the transforms sort by it.  It is checked
once too: `StaticModel.problems` keeps what `check_model` found,
`StaticModel.build` raises from it and `validate_static` reports it, so a
built model is not checked again.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

# the leaf names this module builds on, read from here by the other modules
from .core import (
    CORE_KINDS,
    GATE_KINDS,
    IDENT,
    KIND_ORDER,
    KIND_WORDS,
    RESERVED,
    ActionKind,
    EmptyRegion,
    ModelError,
    Record,
    Region,
    T,
    TmError,
    UnknownMachine,
    UnknownStage,
    _NaturalKeys,
    build_trees,
    find_stage,
    induced_region,
    natural_key,
    nest,
    strong_components,
)


class Stage(Record):
    __slots__ = ("id", "kind", "owner", "has_storage", "label")

    def __init__(self, id: str, kind: ActionKind, owner: str, has_storage: bool = False,
                 label: Optional[str] = None) -> None:
        set_id, set_kind, set_owner, set_storage, set_label = self._setters
        set_id(self, id)
        set_kind(self, kind)
        set_owner(self, owner)
        set_storage(self, has_storage)
        set_label(self, label)


class Machine(Record):
    __slots__ = ("id", "name", "is_constraint", "stages", "submachines", "parent")

    def __init__(self, id: str, name: str, is_constraint: bool = False,
                 stages: tuple[Stage, ...] = (), submachines: tuple[Machine, ...] = (),
                 parent: Optional[str] = None) -> None:
        set_id, set_name, set_constraint, set_stages, set_subs, set_parent = self._setters
        set_id(self, id)
        set_name(self, name)
        set_constraint(self, is_constraint)
        set_stages(self, stages)
        set_subs(self, submachines)
        set_parent(self, parent)

    def stage_of(self, kind: ActionKind) -> Optional[Stage]:
        for stage in self.stages:
            if stage.kind is kind:
                return stage
        return None

    def walk(self) -> Iterator["Machine"]:
        """This machine and all machines nested in it, in preorder."""
        stack = [self]
        while stack:
            machine = stack.pop()
            yield machine
            stack += machine.submachines[::-1]


class Flow(Record):
    __slots__ = ("id", "source", "target")

    def __init__(self, id: str, source: str, target: str) -> None:
        set_id, set_source, set_target = self._setters
        set_id(self, id)
        set_source(self, source)
        set_target(self, target)


class Trigger(Record):
    __slots__ = ("id", "source", "target", "guard")

    def __init__(self, id: str, source: str, target: str, guard: Optional[str] = None) -> None:
        set_id, set_source, set_target, set_guard = self._setters
        set_id(self, id)
        set_source(self, source)
        set_target(self, target)
        set_guard(self, guard)


class StaticModel(Record):
    __slots__ = ("machines", "flows", "triggers", "__dict__")

    def __init__(self, machines: tuple[Machine, ...] = (), flows: tuple[Flow, ...] = (),
                 triggers: tuple[Trigger, ...] = ()) -> None:
        set_machines, set_flows, set_triggers = self._setters
        set_machines(self, machines)
        set_flows(self, flows)
        set_triggers(self, triggers)

    @classmethod
    def build(
        cls,
        machines: Sequence[Machine] = (),
        flows: Sequence[Flow] = (),
        triggers: Sequence[Trigger] = (),
    ) -> "StaticModel":
        """Normalize parent links and reject any invariant violation."""
        normalized = build_trees(machines, submachines_of, _relink)
        model = cls(machines=normalized, flows=tuple(flows), triggers=tuple(triggers))
        _raise_problems(model.problems())
        return model

    # -- derived state (model is immutable, so caching is safe); the index, the
    # natural keys and the problems sit in the instance dict, read directly, which is cheaper
    # than a cached_property on the small models most calls see

    def _index(self) -> tuple[tuple[Machine, ...], tuple[Stage, ...]]:
        """Every machine in preorder, as `Machine.walk` gives it from each
        root in turn, and every stage in that order; walked on first use."""
        index = self.__dict__.get("_preorder")
        if index is None:
            machines = tuple([machine for root in self.machines for machine in root.walk()])
            stages = tuple([stage for machine in machines for stage in machine.stages])
            index = self.__dict__["_preorder"] = (machines, stages)
        return index

    def natural_keys(self) -> dict[str, str]:
        """`natural_key` of each string this model's sorts have asked for,
        kept for the model's life: ``model.natural_keys()[text]`` computes
        the key on first use only.  A key depends on its string alone, so
        the memo serves any string, in or out of the model."""
        keys = self.__dict__.get("_keys")
        if keys is None:
            keys = self.__dict__["_keys"] = _NaturalKeys()
        return keys

    def keyed_like(self, other: StaticModel) -> StaticModel:
        """This model, sharing ``other``'s `natural_keys` from now on; a
        transform hands its input's keys on to the model it returns."""
        self.__dict__["_keys"] = other.natural_keys()
        return self

    def by_id(self, items: Iterable[T]) -> list[T]:
        """Machines, stages, flows or triggers sorted by id in natural order,
        those whose ids tie there (f1, f01) in the order they came in."""
        keys = self.natural_keys()
        return sorted(items, key=lambda item: keys[item.id])

    def in_natural_order(self, ids: Iterable[str]) -> list[str]:
        """``sorted(ids, key=natural_key)``, keyed through `natural_keys`."""
        return sorted(ids, key=self.natural_keys().__getitem__)

    def problems(self) -> tuple[Problem, ...]:
        """What `check_model` finds wrong with this model, checked on first
        use; empty means well-formed."""
        problems = self.__dict__.get("_problems")
        if problems is None:
            problems = self.__dict__["_problems"] = tuple(check_model(self))
        return problems

    @cached_property
    def machines_by_id(self) -> dict[str, Machine]:
        return {m.id: m for m in self._index()[0]}

    @cached_property
    def stages_by_id(self) -> dict[str, Stage]:
        return {s.id: s for s in self._index()[1]}

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
        return iter(self._index()[0])

    def all_stages(self) -> Iterator[Stage]:
        return iter(self._index()[1])


def _group(items, key) -> dict:
    out: dict = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return {k: tuple(v) for k, v in out.items()}


submachines_of = attrgetter("submachines")


def _relink(machine: Machine, parent: Optional[Machine], kids: tuple[Machine, ...]) -> Machine:
    """Set the parent link and the rebuilt children; a machine whose links
    already hold stays the same object."""
    parent_id = None if parent is None else parent.id
    subs = machine.submachines
    if machine.parent != parent_id or subs and any(n is not o for n, o in zip(kids, subs)):
        return Machine(machine.id, machine.name, machine.is_constraint, machine.stages,
                       kids, parent_id)
    return machine


class Problem(Record):
    """One broken model invariant: ``rule`` is the validator's public rule
    code, ``subject`` the id the problem is reported on."""

    __slots__ = ("rule", "subject", "message")

    def __init__(self, rule: str, subject: str, message: str) -> None:
        set_rule, set_subject, set_message = self._setters
        set_rule(self, rule)
        set_subject(self, subject)
        set_message(self, message)


def check_model(model: StaticModel) -> list[Problem]:
    """Return the model's invariant violations; empty means well-formed.
    `StaticModel.problems` keeps this list, which `StaticModel.build` raises
    from and `validate_static` reports."""
    problems: list[Problem] = []
    seen: dict[str, str] = {}  # each id to the kind of element that claimed it first
    machines, stages = model._index()

    # Machine nesting is a tree by construction (tuples cannot cycle), but a
    # machine object reused in two places would fake a DAG; catch by id reuse.
    for machine in machines:
        mid = machine.id
        if mid in seen:
            problems.append(Problem("V1", mid, f"duplicate id {mid!r} ({seen[mid]} vs machine)"))
        else:
            seen[mid] = "machine"
        kinds_seen = set()
        for stage in machine.stages:
            sid = stage.id
            if sid in seen:
                problems.append(Problem("V1", sid, f"duplicate id {sid!r} ({seen[sid]} vs stage)"))
            else:
                seen[sid] = "stage"
            if stage.owner != mid:
                problems.append(Problem(
                    "V5", sid, f"stage {sid!r} owner {stage.owner!r} is not {mid!r}"))
            if stage.kind in kinds_seen:
                problems.append(Problem(
                    "V5", mid, f"machine {mid!r} has more than one {stage.kind.value} stage"))
            kinds_seen.add(stage.kind)
        if machine.is_constraint and ActionKind.PROCESS not in kinds_seen:
            problems.append(Problem(
                "V7", mid, f"constraint machine {mid!r} has no process stage"))

    stage_ids = {s.id for s in stages}
    for edge in (*model.flows, *model.triggers):
        what, loop_rule = ("flow", "V2") if isinstance(edge, Flow) else ("trigger", "V4")
        eid = edge.id
        if eid in seen:
            problems.append(Problem("V1", eid, f"duplicate id {eid!r} ({seen[eid]} vs {what})"))
        else:
            seen[eid] = what
        for end in (edge.source, edge.target):
            if end not in stage_ids:
                problems.append(Problem(
                    "V1", eid, f"{what} {eid!r} references unknown stage {end!r}"))
        if edge.source == edge.target:
            problems.append(Problem(
                loop_rule, eid, f"{what} {eid!r} is a self-loop on {edge.source!r}"))
    return problems


def _raise_problems(problems: Sequence[Problem]) -> None:
    """Raise ModelError naming each problem as the validator does, by its
    rule and subject: ``V8 E: event region is empty``."""
    if problems:
        raise ModelError("; ".join(f"{p.rule} {p.subject}: {p.message}" for p in problems))


def _require_well_formed(model: StaticModel) -> None:
    """Raise ModelError if the model breaks an invariant: the guard of the
    functions that would otherwise fail on an unknown id in a model made
    without `StaticModel.build`.  A built model's problems are known, so
    this costs it nothing."""
    _raise_problems(model.problems())


class Event(Record):
    __slots__ = ("id", "name", "time", "region", "intensity")

    def __init__(self, id: str, name: str, time: str, region: Region,
                 intensity: Optional[str] = None) -> None:
        set_id, set_name, set_time, set_region, set_intensity = self._setters
        set_id(self, id)
        set_name(self, name)
        set_time(self, time)
        set_region(self, region)
        set_intensity(self, intensity)


class BehaviorEdge(Record):
    __slots__ = ("source", "target", "exclusive_group")

    def __init__(self, source: str, target: str, exclusive_group: Optional[str] = None) -> None:
        set_source, set_target, set_group = self._setters
        set_source(self, source)
        set_target(self, target)
        set_group(self, exclusive_group)


class BehavioralModel(Record):
    __slots__ = ("event_ids", "edges")

    def __init__(self, event_ids: frozenset[str] = frozenset(),
                 edges: tuple[BehaviorEdge, ...] = ()) -> None:
        set_event_ids, set_edges = self._setters
        set_event_ids(self, event_ids)
        set_edges(self, edges)

    @classmethod
    def build(
        cls, event_ids: Sequence[str] = (), edges: Sequence[BehaviorEdge] = ()
    ) -> "BehavioralModel":
        ids = frozenset(event_ids)
        ordered = tuple(sorted(edges, key=_edge_order))
        _raise_problems(check_behavior(ids, ordered))
        return cls(event_ids=ids, edges=ordered)

    def sources(self) -> frozenset[str]:
        """Events with no incoming edge."""
        targets = {e.target for e in self.edges}
        return frozenset(self.event_ids - targets)


def _edge_order(edge) -> tuple:
    """Sort key of an edge: its source, then its target, in natural order."""
    return natural_key(edge.source), natural_key(edge.target)


def _total_order(ids: Iterable[str]) -> list[str]:
    """``ids`` in natural order, those that tie there (f1, f01) by their
    text, so the order never depends on the order they came in."""
    return sorted(ids, key=lambda i: (natural_key(i), i))


def check_behavior(event_ids: frozenset[str], edges: Sequence[BehaviorEdge]) -> list[Problem]:
    """Return the behavior graph's invariant violations, all rule V9: each
    edge joins two distinct declared events, and no edge repeats."""
    problems: list[Problem] = []
    pairs = set()
    for edge in edges:
        if edge.source == edge.target:
            problems.append(Problem("V9", edge.source, f"self-edge on event {edge.source!r}"))
        for end in (edge.source, edge.target):
            if end not in event_ids:
                problems.append(Problem("V9", end, f"edge references undeclared event {end!r}"))
        if (edge.source, edge.target) in pairs:
            message = f"duplicate edge {edge.source!r} -> {edge.target!r}"
            problems.append(Problem("V9", edge.source, message))
        pairs.add((edge.source, edge.target))
    return problems


def check_declared(behavior: BehavioralModel, events: Sequence[Event]) -> list[Problem]:
    """Return a V9 problem for each event the behavior names that no event
    declares."""
    declared = {event.id for event in events}
    return [Problem("V9", eid, "behavior names an undeclared event")
            for eid in _total_order(behavior.event_ids - declared)]


def check_events(model: StaticModel, events: Sequence[Event]) -> list[Problem]:
    """Return the events' invariant violations, rule V8.  Event ids join the
    model's id namespace: no event id is declared more than once, and none
    is the id of a machine, stage, flow or trigger."""
    problems: list[Problem] = []
    seen: set[str] = set()
    for event in events:
        eid = event.id
        if eid in seen:
            problems.append(Problem("V8", eid, "event id declared more than once"))
        seen.add(eid)
        for what, ids in (("machine", model.machines_by_id), ("stage", model.stages_by_id),
                          ("flow", model.flows_by_id), ("trigger", model.triggers_by_id)):
            if eid in ids:
                problems.append(Problem("V8", eid, f"duplicate id {eid!r} ({what} vs event)"))
                break
    return problems


def check_regions(model: StaticModel, events: Sequence[Event]) -> list[Problem]:
    """Return the events' time and region violations, rule V8: each event
    has a time and a region of at least one stage, every stage and edge of
    the region is the model's, and every edge of it has both ends in it."""
    problems: list[Problem] = []
    stages, flows, triggers = model.stages_by_id, model.flows_by_id, model.triggers_by_id
    for event in events:
        eid, stage_ids = event.id, event.region.stage_ids
        if not event.time.strip():
            problems.append(Problem("V8", eid, "event has no time annotation"))
        if not stage_ids:
            problems.append(Problem("V8", eid, "event region is empty"))
        for sid in _total_order([sid for sid in stage_ids if sid not in stages]):
            problems.append(Problem("V8", eid, f"region references unknown stage {sid!r}"))
        unknown, outside = [], []
        for xid in event.region.edge_ids:
            edge = flows.get(xid) or triggers.get(xid)
            if edge is None:
                unknown.append(xid)
            elif edge.source not in stage_ids or edge.target not in stage_ids:
                outside.append(xid)
        for xid in _total_order(unknown):
            problems.append(Problem("V8", eid, f"region references unknown edge {xid!r}"))
        for xid in _total_order(outside):
            problems.append(Problem(
                "V8", eid, f"region edge {xid!r} has an endpoint outside the region"))
    return problems


# -- structural equivalence -------------------------------------------------


def model_isomorphic(a: StaticModel, b: StaticModel) -> bool:
    """True iff a bijection on machines exists preserving nesting, stage kinds,
    storage, constraint flags, flows, triggers, and guards.  Names, ids, and
    stage labels are ignored; parallel flows or triggers count by multiplicity,
    and a guard of ``None`` equals ``""``.

    The matcher refines colours one round only, since rounds to stability
    cost quadratic time on long chains and nests, where its search is linear
    anyway; it backtracks exponentially only on highly symmetric inputs.
    """
    _require_well_formed(a)
    _require_well_formed(b)
    from .iso import digraph_isomorphic, machine_digraph

    return digraph_isomorphic(machine_digraph(a), machine_digraph(b))
