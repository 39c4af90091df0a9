"""Structural legality rules for machine models, events, and behavior graphs.

Rule codes are stable public identifiers:

    V1  global id uniqueness; flow and trigger ends resolve
    V2  intra-machine flow steps restricted to the legal adjacency table
    V3  inter-machine flows connect transfer stages only
    V4  trigger sources are create, process, or receive stages; no self-loops
    V5  each machine owns its stages, at most one of each kind
    V6  orphan stage (warning): no incident edge and no storage
    V7  constraint machines carry a process stage and a guarded out-trigger
    V8  event ids are unique among all ids; events carry a time; regions
        are not empty, resolve and stay closed
    V9  behavior graphs reference declared events; every event on a cycle
        and every unreachable event is a warning

The model invariants (V1, V5, self-loops, V7's process stage, all of V8,
V9's edges and declared events) come from `check_model`, `check_events`,
`check_regions`, `check_behavior` and `check_declared`; the parser reports
their problems for text input too, and the printer refuses a document that
breaks one.  A model keeps what `check_model` found (`StaticModel.problems`),
so `validate_static` reports a built or parsed model's problems without
checking it again.

V9's cycle and reachability warnings read the strongly connected components
that `model.strong_components` finds, the pass `transform.simplify` contracts
gate chains with.

The intra-machine adjacency table is a reading of the five-stage diagram, not
a set the source material enumerates, so `validate_static` accepts a custom
table.  In simplified mode (gate stages eliminated) V2/V3 relax to flows
between create/process stages.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .model import (
    ActionKind,
    BehavioralModel,
    CORE_KINDS,
    Event,
    Problem,
    Record,
    StaticModel,
    check_behavior,
    check_declared,
    check_events,
    check_regions,
    natural_key,
    strong_components,
)

C, P, R, T, V = (
    ActionKind.CREATE,
    ActionKind.PROCESS,
    ActionKind.RELEASE,
    ActionKind.TRANSFER,
    ActionKind.RECEIVE,
)

#: Legal intra-machine flow steps: things enter through transfer/receive,
#: leave through release/transfer; create and process interchange freely.
LEGAL_INTRA_STEPS: frozenset[tuple[ActionKind, ActionKind]] = frozenset(
    {
        (T, V),
        (V, P),
        (V, R),
        (P, R),
        (P, C),
        (C, P),
        (C, R),
        (R, T),
    }
)

#: Allowed trigger origins.
TRIGGER_SOURCES = frozenset({C, P, V})


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(Record):
    __slots__ = ("severity", "rule", "subject", "message")

    def __init__(self, severity: Severity, rule: str, subject: str, message: str) -> None:
        set_severity, set_rule, set_subject, set_message = self._setters
        set_severity(self, severity)
        set_rule(self, rule)
        set_subject(self, subject)
        set_message(self, message)

    def __str__(self) -> str:
        return f"{self.severity.value.upper()} {self.rule} {self.subject}: {self.message}"


def _sorted(diags: list[Diagnostic]) -> list[Diagnostic]:
    """By subject in natural order, subjects that tie there (E1, E01) by
    their text, then by rule and message."""
    return sorted(diags, key=lambda d: (natural_key(d.subject), d.subject, d.rule, d.message))


def _errors(problems: Sequence[Problem]) -> list[Diagnostic]:
    return [Diagnostic(Severity.ERROR, p.rule, p.subject, p.message) for p in problems]


def has_errors(diags: Sequence[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


def validate_static(
    model: StaticModel,
    *,
    mode: str = "full",
    intra_steps: Optional[frozenset[tuple[ActionKind, ActionKind]]] = None,
) -> list[Diagnostic]:
    """Check rules V1-V7.  `mode` is "full" or "simplified"."""
    if mode not in ("full", "simplified"):
        raise ValueError(f"unknown mode {mode!r}")
    steps = LEGAL_INTRA_STEPS if intra_steps is None else intra_steps
    problems = model.problems()
    diags = _errors(problems)
    reported = {problem.subject for problem in problems}  # V2-V4 skip these edges
    stages = model.stages_by_id

    def err(rule: str, subject: str, message: str) -> None:
        diags.append(Diagnostic(Severity.ERROR, rule, subject, message))

    # V2 / V3
    for flow in model.flows:
        if flow.id in reported:
            continue
        src, dst = stages[flow.source].kind, stages[flow.target].kind
        intra = stages[flow.source].owner == stages[flow.target].owner
        if mode == "simplified":
            if src not in CORE_KINDS or dst not in CORE_KINDS:
                err("V2" if intra else "V3", flow.id,
                    f"{src.value} -> {dst.value} is not between create/process stages")
        elif intra:
            if (src, dst) not in steps:
                err("V2", flow.id, f"illegal intra-machine step {src.value} -> {dst.value}")
        elif not (src is T and dst is T):
            err("V3", flow.id,
                f"inter-machine flow must be transfer -> transfer, got {src.value} -> {dst.value}")

    # V4
    for trig in model.triggers:
        if trig.id in reported:
            continue
        kind = stages[trig.source].kind
        if kind not in TRIGGER_SOURCES:
            err("V4", trig.id, f"trigger cannot originate at a {kind.value} stage")

    # V6
    touched = set()
    for edge in (*model.flows, *model.triggers):
        touched.add(edge.source)
        touched.add(edge.target)
    for stage in model.all_stages():
        if stage.id not in touched and not stage.has_storage:
            message = "stage has no incident flow, trigger, or storage"
            diags.append(Diagnostic(Severity.WARNING, "V6", stage.id, message))

    # V7 (a missing process stage is a model problem, reported above)
    for machine in model.all_machines():
        if machine.is_constraint and not any(
            t.guard is not None for s in machine.stages for t in model.triggers_from.get(s.id, ())
        ):
            err("V7", machine.id, "constraint machine has no outgoing guarded trigger")

    return _sorted(diags)


def validate_events(model: StaticModel, events: Sequence[Event]) -> list[Diagnostic]:
    """Check V8: `check_events`' id rules and `check_regions`' time and region rules."""
    return _sorted(_errors([*check_events(model, events), *check_regions(model, events)]))


def validate_behavior(
    model: StaticModel, events: Sequence[Event], behavior: BehavioralModel
) -> list[Diagnostic]:
    """Check V9: `check_behavior`'s edge rules, and every event the behavior
    names is declared; warn on every event on a cycle and on events
    unreachable from every source."""
    diags = _errors([*check_behavior(behavior.event_ids, behavior.edges),
                     *check_declared(behavior, events)])
    adjacency: dict[str, list[str]] = {}
    for edge in behavior.edges:
        adjacency.setdefault(edge.source, []).append(edge.target)

    def successors(eid: str) -> list[str]:
        return adjacency.get(eid, [])

    # a cycle is a component of two or more events, or one with a self-edge
    for members in strong_components(behavior.event_ids, successors):
        if len(members) > 1 or members[0] in successors(members[0]):
            for eid in members:
                diags.append(Diagnostic(Severity.WARNING, "V9", eid, "event lies on a cycle"))

    # an event is reached iff it is in a component found from the sources
    reached = {eid for members in strong_components(behavior.sources(), successors)
               for eid in members}
    for eid in behavior.event_ids - reached:
        diags.append(
            Diagnostic(Severity.WARNING, "V9", eid, "event is unreachable from any source event")
        )
    return _sorted(diags)


def validate_document(
    model: StaticModel,
    events: Sequence[Event] = (),
    behavior: Optional[BehavioralModel] = None,
    *,
    mode: str = "full",
) -> list[Diagnostic]:
    """Run the full rule set over a parsed document."""
    diags = validate_static(model, mode=mode)
    diags.extend(validate_events(model, events))
    if behavior is not None:
        diags.extend(validate_behavior(model, events, behavior))
    return diags
