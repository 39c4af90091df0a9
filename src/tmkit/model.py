"""Core domain types for five-action machine models and elementary graph queries.

A model is a tree (or forest) of machines.  Every machine owns at most one
stage per action kind; solid flows and dashed (optionally guarded) triggers
connect stages across the whole model.  All types are immutable; operations
are pure functions.

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

import re
import sys
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar


T = TypeVar("T")
R = TypeVar("R")


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

#: The model language's stage kind words, and every word it reserves: no
#: machine, edge or event may be named by one.
KIND_WORDS = {k.value: k for k in ActionKind}

RESERVED = frozenset(KIND_WORDS) | {
    "machine",
    "constraint",
    "store",
    "flow",
    "trigger",
    "if",
    "event",
    "time",
    "region",
    "edge",
    "intensity",
    "behavior",
    "excl",
}

#: An identifier of the model language; a dotted path joins several.
IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

_NAT_SPLIT = re.compile(r"(\d+)")


def natural_key(text: str) -> str:
    """Sort key that orders embedded integers numerically (f2 before f10).

    The key is a string, built from the text's parts in turn:
    - a text part stays as it is, with NUL escaped as ``"\\x00\\x7f"``;
    - a digit run, in ASCII digits from any script and without its leading
      zeros, is written as ``"\\x00" + chr(len(str(n))) + str(n) + digits``
      for its ``n`` digits left;
    - the key starts with ``"\\x01"`` when the text starts with a non-digit
      and ``"\\x02"`` when it starts with a digit; the key of ``""`` is ``""``.

    Two keys compare, by ``<`` and by ``==``, as the tuples of text parts
    ``(0, part)`` and digit runs ``(1, n, digits)`` do: a digit run orders as
    int() does, with no limit on its number of digits, and f1 and f01 have
    equal keys."""
    # a NUL is no digit, so the whole text is escaped before it is split; the
    # escape's "\x7f" sorts above every run's chr(len(str(n))), which stays
    # below 127 for any run that fits in memory
    parts = _NAT_SPLIT.split(text.replace("\x00", "\x00\x7f"))
    for i in range(1, len(parts), 2):
        run = parts[i]
        digits = (run if run.isascii() else _ascii_digits(run)).lstrip("0")
        size = str(len(digits))
        parts[i] = f"\x00{chr(len(size))}{size}{digits}"
    if parts[0]:
        return "\x01" + "".join(parts)
    return "\x02" + "".join(parts) if text else ""


def _ascii_digits(digits: str) -> str:
    """The ASCII spelling of a run of decimal digits from any script, all of
    which the pattern's \\d matches."""
    import unicodedata  # an extension module, loaded only for such a digit run

    return "".join([str(unicodedata.decimal(c)) for c in digits])


class _NaturalKeys(dict):
    """A memo of `natural_key`: a missing string is keyed, stored and
    returned."""

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        key = self[text] = natural_key(text)
        return key


class Record:
    """Base of tmkit's record types: a fixed tuple of fields, named by the
    class's ``__slots__``, with equality, hashing, ``repr`` and ``replace``
    read from it.  Records compare equal only to records of the same class
    with equal fields, hash as the tuple of their fields and cannot be
    changed: assigning or deleting an attribute raises ``AttributeError``.
    A class made with ``frozen=False`` can be changed and is not hashable.

    Each record class writes its own ``__init__``, which stores its arguments
    through ``_setters``, the slots' own setters in field order; a class
    whose slots include ``__dict__`` also has a dict for cached derived
    state.  Every record has two fields or more, so ``_values`` gives a tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True) -> None:
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._values = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def replace(self, **changes):
        """A record of the same class with the named fields changed; an
        unknown name is a ``TypeError``."""
        return self.__class__(**dict(zip(self._fields, self._values(self)), **changes))


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


def build_trees(
    roots: Sequence[T],
    children: Callable[[T], Sequence[T]],
    build: Callable[[T, Optional[T], tuple], R],
) -> tuple[R, ...]:
    """Build trees children first from an explicit stack, so their depth is
    not bounded by Python's recursion limit.  ``build`` gets each node, its
    parent node (None for a root) and what it returned for the children."""
    todo: list = [(root, None, None) for root in reversed(roots)]
    done: list[R] = []
    while todo:
        node, parent, subs = todo.pop()
        if subs is None:
            subs = children(node)
            if subs:  # come back to the node once its children are built
                todo.append((node, parent, subs))
                todo += [(sub, node, None) for sub in reversed(subs)]
                continue
        cut = len(done) - len(subs)
        kids = tuple(done[cut:])
        del done[cut:]
        done.append(build(node, parent, kids))
    return tuple(done)


def nest(roots: Sequence[T], children: Callable[[T], Sequence[T]]) -> Iterator[tuple[T, int, bool]]:
    """Walk trees depth first: yield ``(node, depth, True)`` as a node opens,
    in preorder, and ``(node, depth, False)`` as it closes, after every node
    under it.  ``children`` is called once per node, after its opening is
    yielded.  The stack is a list, so depth is not bounded by Python's
    recursion limit."""
    todo = [(root, 0, True) for root in reversed(roots)]
    while todo:
        node, depth, opening = entry = todo.pop()
        yield entry
        if opening:
            todo.append((node, depth, False))
            todo += [(child, depth + 1, True) for child in reversed(children(node))]


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


_CLOSED = sys.maxsize  # the number of a node whose component is already out


def strong_components(roots: Iterable[T], successors: Callable[[T], Iterable[T]]) -> list[list[T]]:
    """Every strongly connected component reachable from ``roots``, each one
    listed after every component it leads to.  ``successors`` is called once
    per node.  Tarjan's pass (SIAM J. Comput., 1972) from an explicit stack,
    so neither path length nor component size is bounded by the recursion
    limit."""
    number: dict = {}  # node -> discovery number, or _CLOSED
    low: list[int] = []  # per discovery number: the least open number it reaches
    seat: list[int] = []  # per discovery number: its place on the open stack
    open_nodes: list = []
    components: list[list[T]] = []

    def enter(node: T) -> tuple[int, Iterator[T]]:
        i = number[node] = len(low)
        low.append(i)
        seat.append(len(open_nodes))
        open_nodes.append(node)
        return i, iter(successors(node))

    for root in roots:
        if root in number:
            continue
        work = [enter(root)]
        while work:
            i, pending = work[-1]
            for nxt in pending:
                j = number.get(nxt)
                if j is None:
                    work.append(enter(nxt))
                    break
                if j < low[i]:  # an open node: the same component
                    low[i] = j
            else:
                work.pop()
                if low[i] == i:
                    members = open_nodes[seat[i]:]
                    del open_nodes[seat[i]:]
                    for node in members:
                        number[node] = _CLOSED
                    components.append(members)
                elif low[i] < low[work[-1][0]]:
                    low[work[-1][0]] = low[i]
    return components


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


class Region(Record):
    __slots__ = ("stage_ids", "edge_ids")

    def __init__(self, stage_ids: frozenset[str], edge_ids: frozenset[str] = frozenset()) -> None:
        set_stage_ids, set_edge_ids = self._setters
        set_stage_ids(self, stage_ids)
        set_edge_ids(self, edge_ids)


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
    """Close a stage set over every flow/trigger lying entirely inside it.

    Only the edges leaving the region's stages are visited, so the cost
    follows the region, not the model."""
    ids = frozenset(stage_ids)
    if not ids:
        raise EmptyRegion("a region needs at least one stage")
    stages = model.stages_by_id
    if not ids <= stages.keys():
        first = min((sid for sid in ids if sid not in stages), key=natural_key)
        raise UnknownStage(f"unknown stage {first!r}")
    flows_from, triggers_from = model.flows_from, model.triggers_from
    edges = frozenset(
        e.id
        for sid in ids
        for e in (*flows_from.get(sid, ()), *triggers_from.get(sid, ()))
        if e.target in ids
    )
    return Region(stage_ids=ids, edge_ids=edges)


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
