"""Canonical JSON interchange for model documents.

The document object carries ``machines`` (nested), ``flows``, ``triggers``,
``events``, and ``behavior`` with the same field names as the domain types.
Keys serialize alphabetically and lists sort by id in natural order, so byte
output is stable: it is ``json.dumps(document, indent=2, sort_keys=True)``
plus a newline, byte for byte.  The fixed-shape records (stage, flow, trigger,
event and behavior edge) are written from per-shape templates through the C
string escaper, machine nesting from an explicit stack, and the model's rank
table gives the order of its ids.  `uml.activity_to_json` writes the
activity documents (``.act.json``) the same way.

Writing has no depth limit, but reading does: the standard library's JSON
decoder recurses once per nested array or object, two per machine level,
and (before Python 3.12) against the interpreter's recursion limit, so
Python 3.11 reads machines nested up to roughly 490 deep.  A deeper document
is rejected with a JsonFormatError that says so; the model text (``.tm``)
form has no such limit.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .model import (
    ActionKind,
    BehavioralModel,
    BehaviorEdge,
    Event,
    Flow,
    Machine,
    Region,
    Stage,
    StaticModel,
    TmError,
    Trigger,
    build_trees,
    natural_key,
)


class JsonFormatError(TmError):
    pass


_esc = encode_basestring_ascii  # raises TypeError unless given a str

# Each fixed-shape record as ``json.dumps(..., indent=2, sort_keys=True)``
# writes it: its keys in order, its opening brace where a list item starts.
# The top-level lists' items sit at four spaces, their fields at six.
_DOCUMENT = (
    '{\n  "behavior": {\n    "edges": %s,\n    "event_ids": %s\n  },\n'
    '  "events": %s,\n  "flows": %s,\n  "machines": %s,\n  "triggers": %s\n}\n'
)
_FLOW = '{\n      "id": %s,\n      "source": %s,\n      "target": %s\n    }'
_TRIGGER = '{\n      "guard": %s,\n      "id": %s,\n      "source": %s,\n      "target": %s\n    }'
_EVENT = (
    '{\n      "id": %s,\n      "intensity": %s,\n      "name": %s,\n      "region": {\n'
    '        "edge_ids": %s,\n        "stage_ids": %s\n      },\n      "time": %s\n    }'
)
_BEHAVIOR_EDGE = '{\n        "exclusive_group": %s,\n        "from": %s,\n        "to": %s\n      }'
# a machine and a stage at no indent; `_machines_json` shifts them to their depth
_MACHINE = (
    '{\n  "id": %s,\n  "is_constraint": %s,\n  "name": %s,\n  "parent": %s,\n'
    '  "stages": %s,\n  "submachines": '
)
_STAGE = '{\n  "has_storage": %s,\n  "id": %s,\n  "kind": %s,\n  "label": %s,\n  "owner": %s\n}'


def _opt(value: Optional[str]) -> str:
    return "null" if value is None else _esc(value)


def _array(items: list[str], indent: str) -> str:
    """A JSON array of already written ``items`` whose key sits at ``indent``."""
    if not items:
        return "[]"
    sep = ",\n  " + indent
    return "[" + sep[1:] + sep.join(items) + "\n" + indent + "]"


def _machines_json(model: StaticModel) -> str:
    """The nested machine array, written from an explicit stack so nesting
    depth is not bounded by Python's recursion limit."""
    by_id = model.by_id
    roots = by_id(model.machines)
    if not roots:
        return "[]"
    shifted: dict[str, tuple[str, str]] = {}  # indent -> (machine, stage) template
    out: list[str] = []
    # open machine arrays, innermost last: (iterator over (text before, machine)
    # pairs, the machines' indent, text after the last one)
    frames: list = [(iter(_items(roots, "    ")), "    ", "\n  ]")]
    while frames:
        pairs, indent, closing = frames[-1]
        for text, machine in pairs:
            out.append(text)
            templates = shifted.get(indent)
            if templates is None:
                templates = shifted[indent] = (
                    _MACHINE.replace("\n", "\n" + indent),
                    _STAGE.replace("\n", "\n" + indent + "    "),
                )
            machine_t, stage_t = templates
            stages = _array([
                stage_t % ("true" if s.has_storage else "false", _esc(s.id),
                           _esc(s.kind.value), _opt(s.label), _esc(s.owner))
                for s in by_id(machine.stages)
            ], indent + "  ")
            out.append(machine_t % (_esc(machine.id), "true" if machine.is_constraint else "false",
                                    _esc(machine.name), _opt(machine.parent), stages))
            if machine.submachines:
                inner = indent + "    "
                subs = _items(by_id(machine.submachines), inner)
                frames.append((iter(subs), inner, "\n" + indent + "  ]\n" + indent + "}"))
                break
            out.append("[]\n" + indent + "}")
        else:
            frames.pop()
            out.append(closing)
    return "".join(out)


def _items(machines: list[Machine], indent: str) -> list[tuple[str, Machine]]:
    """Each machine of a non-empty array with the text written before it."""
    sep = ",\n" + indent
    items = [(sep, m) for m in machines]
    items[0] = ("[\n" + indent, machines[0])  # opens, not after a comma
    return items


def document_to_json(
    model: Optional[StaticModel],
    events: Sequence[Event] = (),
    behavior: Optional[BehavioralModel] = None,
) -> str:
    model = model or StaticModel()
    behavior = behavior or BehavioralModel()
    by_id, in_order = model.by_id, model.in_natural_order
    return _DOCUMENT % (
        _array([
            _BEHAVIOR_EDGE % (_opt(e.exclusive_group), _esc(e.source), _esc(e.target))
            for e in behavior.edges
        ], "    "),
        _array(list(map(_esc, sorted(behavior.event_ids, key=natural_key))), "    "),
        _array([
            _EVENT % (
                _esc(e.id), _opt(e.intensity), _esc(e.name),
                _array(list(map(_esc, in_order(e.region.edge_ids))), "        "),
                _array(list(map(_esc, in_order(e.region.stage_ids))), "        "),
                _esc(e.time),
            )
            for e in sorted(events, key=lambda e: natural_key(e.id))
        ], "  "),
        _array([_FLOW % (_esc(f.id), _esc(f.source), _esc(f.target)) for f in by_id(model.flows)],
               "  "),
        _machines_json(model),
        _array([
            _TRIGGER % (_opt(t.guard), _esc(t.id), _esc(t.source), _esc(t.target))
            for t in by_id(model.triggers)
        ], "  "),
    )


def _opt_str(value, what: str) -> Optional[str]:
    if value is None:
        return None
    if not isinstance(value, str):
        raise JsonFormatError(f"{what} must be a string or null, got {value!r}")
    return value


def _decode(text: str, error: type[TmError], too_deep: str):
    """``json.loads``, raising ``error`` on text it cannot read: ``too_deep``
    for nesting past the decoder's recursion limit."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise error(too_deep) from exc
    except ValueError as exc:  # covers JSONDecodeError
        raise error(f"not valid JSON: {exc}") from exc


_JSON_NAMES = {dict: "an object", list: "an array"}


def _shaped(value, shape: type, what: str, entries: Optional[type] = None,
            error: type[TmError] = JsonFormatError):
    """Return the decoded JSON ``value`` if it is a ``shape`` (``dict`` or
    ``list``) and, when ``entries`` is given, every entry of it is one too;
    raise ``error`` otherwise."""
    if not isinstance(value, shape):
        raise error(f"{what} must be {_JSON_NAMES[shape]}, got {type(value).__name__}")
    if entries is not None:
        for entry in value:
            if not isinstance(entry, entries):
                raise error(
                    f"each entry of {what} must be {_JSON_NAMES[entries]}, "
                    f"got {type(entry).__name__}"
                )
    return value


def _submachine_entries(raw: dict) -> list:
    return _shaped(raw.get("submachines", []), list, "submachines", dict)


def _machine_from(raw: dict, _parent: Optional[dict], submachines: tuple[Machine, ...]) -> Machine:
    try:
        stages = tuple([
            Stage(
                id=str(s["id"]),
                kind=ActionKind(str(s["kind"])),
                owner=str(s["owner"]),
                has_storage=bool(s.get("has_storage", False)),
                label=_opt_str(s.get("label"), "stage label"),
            )
            for s in _shaped(raw.get("stages", []), list, "stages", dict)
        ])
        return Machine(
            id=str(raw["id"]),
            name=str(raw.get("name", raw["id"])),
            is_constraint=bool(raw.get("is_constraint", False)),
            stages=stages,
            submachines=submachines,
            parent=_opt_str(raw.get("parent"), "parent"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise JsonFormatError(f"bad machine entry: {exc}") from exc


def document_from_json(
    text: str,
) -> tuple[StaticModel, tuple[Event, ...], BehavioralModel]:
    doc = _decode(text, JsonFormatError, "the document nests deeper than this Python's JSON"
                  " decoder reads (model text has no such limit)")
    if not isinstance(doc, dict):
        raise JsonFormatError("expected a JSON object")
    try:
        machines = build_trees(
            _shaped(doc.get("machines", []), list, "machines", dict),
            _submachine_entries,
            _machine_from,
        )
        flows = [
            Flow(str(f["id"]), str(f["source"]), str(f["target"]))
            for f in _shaped(doc.get("flows", []), list, "flows", dict)
        ]
        triggers = [
            Trigger(
                str(t["id"]),
                str(t["source"]),
                str(t["target"]),
                _opt_str(t.get("guard"), "guard"),
            )
            for t in _shaped(doc.get("triggers", []), list, "triggers", dict)
        ]
        events = []
        for e in _shaped(doc.get("events", []), list, "events", dict):
            region = _shaped(e["region"], dict, "an event region")
            events.append(
                Event(
                    id=str(e["id"]),
                    name=str(e.get("name", e["id"])),
                    time=str(e["time"]),
                    region=Region(
                        frozenset(map(str, _shaped(region["stage_ids"], list, "stage_ids"))),
                        frozenset(map(str, _shaped(region.get("edge_ids", []), list, "edge_ids"))),
                    ),
                    intensity=_opt_str(e.get("intensity"), "intensity"),
                )
            )
        raw_behavior = _shaped(doc.get("behavior", {}), dict, "behavior")
        behavior = BehavioralModel.build(
            [str(x) for x in _shaped(raw_behavior.get("event_ids", []), list, "event_ids")],
            [
                BehaviorEdge(
                    str(e["from"]),
                    str(e["to"]),
                    _opt_str(e.get("exclusive_group"), "exclusive_group"),
                )
                for e in _shaped(raw_behavior.get("edges", []), list, "behavior edges", dict)
            ],
        )
    except (KeyError, TypeError) as exc:
        raise JsonFormatError(f"malformed document: {exc}") from exc
    try:
        model = StaticModel.build(machines, flows, triggers)
    except TmError as exc:
        raise JsonFormatError(str(exc)) from exc
    events = tuple(sorted(events, key=lambda e: natural_key(e.id)))
    return model, events, behavior
