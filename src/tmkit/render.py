"""Deterministic DOT output for static and behavioral models.

Machines draw as nested clusters, stages as boxes labeled with their kind
(cylinders when the stage carries storage), flows as solid edges, triggers as
dashed edges labeled with their guard.  A highlighted region fills its stages
and thickens its edges.  Output is byte-deterministic: everything is sorted
by id in natural order, keyed through the model's `natural_keys`, and no
timestamps or environment data leak in.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .model import (
    BehavioralModel,
    Event,
    Region,
    StaticModel,
    UnknownStage,
    natural_key,
    nest,
)

_GROUP_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def render_static(model: StaticModel, highlight: Optional[Region] = None) -> str:
    """Emit the model as a DOT digraph, optionally highlighting a region."""
    hi_stages: frozenset[str] = frozenset()
    hi_edges: frozenset[str] = frozenset()
    if highlight is not None:
        for sid in model.in_natural_order(highlight.stage_ids):
            if sid not in model.stages_by_id:
                raise UnknownStage(f"highlight references unknown stage {sid!r}")
        for eid in model.in_natural_order(highlight.edge_ids):
            if eid not in model.flows_by_id and eid not in model.triggers_by_id:
                raise UnknownStage(f"highlight references unknown edge {eid!r}")
        hi_stages = highlight.stage_ids
        hi_edges = highlight.edge_ids

    lines = [
        "digraph static {",
        "  compound=true;",
        '  node [shape=box, fontname="Helvetica", fontsize=10];',
        '  edge [fontname="Helvetica", fontsize=9];',
    ]

    # clusters nested as `model.nest` walks the machines, to any depth
    by_id = model.by_id
    for machine, depth, opening in nest(by_id(model.machines), lambda m: by_id(m.submachines)):
        indent = "  " * (depth + 1)
        if not opening:
            lines.append(f"{indent}}}")
            continue
        lines.append(f"{indent}subgraph {_quote('cluster_' + machine.id)} {{")
        title = machine.name + (" «constraint»" if machine.is_constraint else "")
        lines.append(f"{indent}  label={_quote(title)};")
        if machine.is_constraint:
            lines.append(f"{indent}  style=dashed;")
        for stage in by_id(machine.stages):
            label = stage.kind.value
            if stage.label is not None:
                label += "\n" + stage.label
            attrs = [f"label={_quote(label)}"]
            if stage.has_storage:
                attrs.append("shape=cylinder")
            if stage.id in hi_stages:
                attrs.append("style=filled")
                attrs.append('fillcolor="#ffe873"')
            lines.append(f"{indent}  {_quote(stage.id)} [{', '.join(attrs)}];")

    for flow in by_id(model.flows):
        attrs = []
        if flow.id in hi_edges:
            attrs.append("penwidth=2.5")
            attrs.append('color="#b8860b"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(flow.source)} -> {_quote(flow.target)}{suffix};")

    for trig in by_id(model.triggers):
        attrs = ["style=dashed"]
        if trig.guard is not None:
            attrs.append(f"label={_quote(trig.guard)}")
        if trig.id in hi_edges:
            attrs.append("penwidth=2.5")
            attrs.append('color="#b8860b"')
        lines.append(f"  {_quote(trig.source)} -> {_quote(trig.target)} [{', '.join(attrs)}];")

    lines.append("}")
    return "\n".join(lines) + "\n"


def render_behavior(behavior: BehavioralModel, events: Sequence[Event] = ()) -> str:
    """Emit the behavioral graph; exclusive groups share an edge color."""
    names = {e.id: e.name for e in events}
    lines = [
        "digraph behavior {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="Helvetica", fontsize=10];',
        '  edge [fontname="Helvetica", fontsize=9];',
    ]
    for eid in sorted(behavior.event_ids, key=natural_key):
        label = eid if names.get(eid, eid) == eid else f"{eid}: {names[eid]}"
        lines.append(f"  {_quote(eid)} [label={_quote(label)}];")

    group_names = sorted(
        {e.exclusive_group for e in behavior.edges if e.exclusive_group is not None}
    )
    color_of = {g: _GROUP_COLORS[i % len(_GROUP_COLORS)] for i, g in enumerate(group_names)}
    for edge in behavior.edges:
        attrs = []
        if edge.exclusive_group is not None:
            attrs.append(f"label={_quote(edge.exclusive_group)}")
            attrs.append(f'color="{color_of[edge.exclusive_group]}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(edge.source)} -> {_quote(edge.target)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
