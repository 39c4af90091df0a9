"""The canonical printer of the model language that `tmkit.dsl` parses.

The printed text is deterministic: everything sorted by id in natural order,
explicit edge ids, and comments of a `dsl.CommentMap` re-attached above
their elements, so a parse and a print round-trip preserve identity.  A
document whose text the parser would reject is refused with a `PrintError`
or the model check's own error.  This module does not import the parser:
only the command lines that print text load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .model import (
    BehavioralModel,
    Event,
    IDENT,
    KIND_ORDER,
    Machine,
    RESERVED,
    StaticModel,
    TmError,
    _raise_problems,
    _require_well_formed,
    check_behavior,
    check_declared,
    check_events,
    check_regions,
    nest,
)

if TYPE_CHECKING:
    from .dsl import CommentMap


class PrintError(TmError):
    pass


def _escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def _check_ident(word: str, what: str) -> str:
    if not IDENT.fullmatch(word) or word in RESERVED:
        raise PrintError(f"{what} {word!r} is not a printable identifier")
    return word


def print_model(
    model: Optional[StaticModel],
    events: Sequence[Event] = (),
    behavior: Optional[BehavioralModel] = None,
    comments: Optional[CommentMap] = None,
) -> str:
    """Render the canonical text form: deterministic, sorted by id."""
    model = model or StaticModel()
    # refuse a document whose text parse would reject
    _require_well_formed(model)
    _raise_problems([*check_events(model, events), *check_regions(model, events)])
    if behavior is not None:
        _raise_problems([*check_behavior(frozenset([e.id for e in events]), behavior.edges),
                         *check_declared(behavior, events)])
    header, notes = ((), {}) if comments is None else (comments.header, comments.items)
    keys = model.natural_keys()
    chunks: list[str] = []

    if header:
        chunks.append("\n".join(f"# {line}".rstrip() for line in header))

    def annotate(key: str, body: list[str], indent: str = "") -> list[str]:
        lines = [f"{indent}# {c}".rstrip() for c in notes.get(key, ())]
        return lines + body

    tokens: dict[str, str] = {}  # machine id -> its printed name, the id's last segment
    refs: dict[str, str] = {}  # stage id -> its printed dotted reference

    def named(machines: Sequence[Machine], parent: Optional[Machine]) -> list[Machine]:
        """Sibling machines in printed order, once their names are distinct."""
        seen = set()
        for machine in machines:
            token = tokens[machine.id] = machine.id.rpartition(".")[2]
            if token in seen:
                where = "at the top level" if parent is None else f"under {parent.id!r}"
                raise PrintError(f"machines {where} share the segment {token!r}")
            seen.add(token)
        return sorted(machines, key=lambda m: keys[tokens[m.id]])

    lines: list[str] = []
    paths: list[str] = []  # the printed paths of the open machines
    for machine, depth, opening in nest(named(model.machines, None),
                                        lambda m: named(m.submachines, m)):
        indent = "  " * depth
        if not opening:
            lines.append(indent + "}")
            paths.pop()
            if not depth:  # a root and the machines in it are one chunk
                chunks.append("\n".join(lines))
                lines = []
            continue
        token = _check_ident(tokens[machine.id], "machine id segment")
        path = f"{paths[-1]}.{token}" if depth else token
        paths.append(path)
        head = f"{indent}machine {token}"
        if machine.is_constraint:
            head += " constraint"
        if machine.name != token:
            head += f" : {_escape(machine.name)}"
        lines.extend(annotate(machine.id, [head + " {"], indent))
        inner = indent + "  "
        for kind in KIND_ORDER:
            stage = machine.stage_of(kind)
            if stage is None:
                continue
            refs[stage.id] = f"{path}.{kind.value}"
            decl = f"{inner}{kind.value}"
            if stage.has_storage:
                decl += " store"
            if stage.label is not None:
                decl += f" : {_escape(stage.label)}"
            lines.extend(annotate(stage.id, [decl + ";"], inner))

    for flow in model.by_id(model.flows):
        _check_ident(flow.id, "flow id")
        line = f"flow {flow.id}: {refs[flow.source]} -> {refs[flow.target]};"
        chunks.append("\n".join(annotate(flow.id, [line])))

    for trig in model.by_id(model.triggers):
        _check_ident(trig.id, "trigger id")
        line = f"trigger {trig.id}: {refs[trig.source]} => {refs[trig.target]}"
        if trig.guard is not None:
            line += f" if {_escape(trig.guard)}"
        chunks.append("\n".join(annotate(trig.id, [line + ";"])))

    for event in sorted(events, key=lambda e: keys[e.id]):
        _check_ident(event.id, "event id")
        head = f"event {event.id}"
        if event.name != event.id:
            head += f" : {_escape(event.name)}"
        lines = [head + " {", f"  time {_escape(event.time)};", "  region {"]
        for sid in sorted(event.region.stage_ids, key=lambda s: keys[refs[s]]):
            lines.append(f"    {refs[sid]}")
        for eid in model.in_natural_order(event.region.edge_ids):
            lines.append(f"    edge {eid}")
        lines.append("  }")
        if event.intensity is not None:
            lines.append(f"  intensity {_escape(event.intensity)};")
        lines.append("}")
        chunks.append("\n".join(annotate(event.id, lines)))

    if behavior is not None and behavior.edges:
        lines = annotate("behavior", ["behavior {"])
        for edge in behavior.edges:
            stmt = f"  {edge.source} -> {edge.target}"
            if edge.exclusive_group is not None:
                stmt += f" excl {_escape(edge.exclusive_group)}"
            lines.extend(annotate(f"{edge.source}->{edge.target}", [stmt + ";"], "  "))
        lines.append("}")
        chunks.append("\n".join(lines))

    if not chunks:
        return ""
    chunks[-1] += "\n"  # the final line break, before the join copies every chunk once
    return "\n\n".join(chunks)
