"""Event construction over static models and trace conformance checking.

An event is a region of the static model plus a time annotation; applying the
time to the region is what turns a mere sub-diagram into an event.  A trace
is one walk through the behavioral graph: it must start at a source event and
follow direct edges.  Mutually exclusive branches share an exclusive group on
their incoming edges; two events of the same group may appear in one trace
only when the trace itself connects them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .model import (
    BehavioralModel,
    EmptyRegion,
    Event,
    Record,
    StaticModel,
    TmError,
    UnknownStage,
    induced_region,
    natural_key,
)

Trace = Sequence[str]


class MissingTime(TmError):
    pass


class UnknownEvent(TmError):
    pass


class Verdict(Record):
    __slots__ = ("conforms", "violation_index", "reason")

    def __init__(self, conforms: bool, violation_index: Optional[int], reason: str) -> None:
        if conforms == (violation_index is not None):
            raise ValueError("violation_index must be present exactly when not conforming")
        set_conforms, set_violation_index, set_reason = self._setters
        set_conforms(self, conforms)
        set_violation_index(self, violation_index)
        set_reason(self, reason)


def eventize(model: StaticModel, event: Event) -> Event:
    """Close the event's region over its internal edges and reject anything
    that is a region but not an event (no time, nothing in it)."""
    if not event.time.strip():
        raise MissingTime(f"event {event.id!r} has no time annotation")
    if not event.region.stage_ids:
        raise EmptyRegion(f"event {event.id!r} has an empty region")
    region = induced_region(model, event.region.stage_ids)
    missing = event.region.edge_ids - region.edge_ids
    if missing:
        raise UnknownStage(
            f"event {event.id!r} lists edges outside the model or region: "
            + ", ".join(sorted(missing, key=natural_key))
        )
    return event.replace(region=region)


def coverage(model: StaticModel, events: Sequence[Event]) -> tuple[str, ...]:
    """Stage ids belonging to no event's region, in natural order.  Only
    these are keyed, through the model's `natural_keys`."""
    covered: set[str] = set()
    for event in events:
        covered |= event.region.stage_ids
    return tuple(sorted([s.id for s in model.all_stages() if s.id not in covered],
                        key=model.natural_keys().__getitem__))


def conform(trace: Trace, behavior: BehavioralModel) -> Verdict:
    """Check a trace against the behavioral graph.

    The verdict fails at the first offending position: index 0 when the trace
    does not begin at a source event, otherwise the first step without a
    direct edge.  Exclusive-group conflicts surface in the reason alongside
    the broken step.
    """
    steps = list(trace)
    if not steps:
        raise ValueError("a conformance trace must be non-empty")
    for eid in steps:
        if eid not in behavior.event_ids:
            raise UnknownEvent(f"trace references undeclared event {eid!r}")

    groups: dict[str, set[str]] = {}
    edge_pairs = set()
    for edge in behavior.edges:
        edge_pairs.add((edge.source, edge.target))
        if edge.exclusive_group is not None:
            groups.setdefault(edge.target, set()).add(edge.exclusive_group)

    if steps[0] not in behavior.sources():
        return Verdict(
            conforms=False,
            violation_index=0,
            reason=f"{steps[0]} is not a source event (it has incoming edges)",
        )

    for i in range(1, len(steps)):
        prev, here = steps[i - 1], steps[i]
        if (prev, here) in edge_pairs:
            continue
        reason = f"no edge {prev} -> {here}"
        conflicts = [
            (other, sorted(groups.get(other, set()) & groups.get(here, set())))
            for other in steps[:i]
            if groups.get(other, set()) & groups.get(here, set()) and other != here
        ]
        if conflicts:
            other, shared = conflicts[0]
            reason += (
                f", and {other}/{here} share the exclusive group "
                + ", ".join(repr(g) for g in shared)
            )
        return Verdict(conforms=False, violation_index=i, reason=reason)

    return Verdict(conforms=True, violation_index=None, reason="trace follows the behavior graph")
