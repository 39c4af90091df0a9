"""Canonical JSON interchange for model documents.

The document object carries ``machines`` (nested), ``flows``, ``triggers``,
``events``, and ``behavior`` with the same field names as the domain types.
Keys serialize alphabetically and lists sort by id in natural order, so byte
output is stable: it is ``json.dumps(document, indent=2, sort_keys=True)``
plus a newline, byte for byte.  The fixed-shape records (stage, flow, trigger,
event and behavior edge) are written from per-shape templates through the C
string escaper, the machine nesting as `model.nest` walks it, and the
ids are sorted by the model's `natural_keys`.  `uml.activity_to_json`
writes the activity documents (``.act.json``) the same way.

Reading coerces nothing: a field of another JSON type than the writer
writes there, such as a ``null`` time or a ``"false"`` flag, is a
JsonFormatError.  So is a key the writer does not write, at the top level
(such as an activity graph's ``nodes``) or in any entry (a misspelt
``"lable"``), and a machine's ``"parent"`` other than the id of the machine
it is nested in (null at the root).  A field left out takes its default,
such as the id for a name and the nesting for a parent.  Each entry's shape
and fields are checked in the loop that builds its record.

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
from typing import Iterable, Optional, Sequence

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
    nest,
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
    """The nested machine array, written as `model.nest` walks the machines."""
    by_id = model.by_id
    roots = by_id(model.machines)
    if not roots:
        return "[]"
    shifted: list[tuple[str, str]] = []  # per depth: the (machine, stage) template
    out: list[str] = []
    after_open = True  # nothing written since an opening: a next machine starts an array
    for machine, depth, opening in nest(roots, lambda m: by_id(m.submachines)):
        indent = "    " * (depth + 1)
        if not opening:
            out.append(("[]\n" if after_open else "\n" + indent + "  ]\n") + indent + "}")
            after_open = False
            continue
        if depth == len(shifted):  # the first machine this deep
            shifted.append((_MACHINE.replace("\n", "\n" + indent),
                            _STAGE.replace("\n", "\n" + indent + "    ")))
        machine_t, stage_t = shifted[depth]
        stages = _array([
            stage_t % ("true" if s.has_storage else "false", _esc(s.id),
                       _esc(s.kind.value), _opt(s.label), _esc(s.owner))
            for s in by_id(machine.stages)
        ], indent + "  ")
        out.append(("[\n" if after_open else ",\n") + indent)
        out.append(machine_t % (_esc(machine.id), "true" if machine.is_constraint else "false",
                                _esc(machine.name), _opt(machine.parent), stages))
        after_open = True
    out.append("\n  ]")
    return "".join(out)


def document_to_json(
    model: Optional[StaticModel],
    events: Sequence[Event] = (),
    behavior: Optional[BehavioralModel] = None,
) -> str:
    model = model or StaticModel()
    behavior = behavior or BehavioralModel()
    by_id, in_order, keys = model.by_id, model.in_natural_order, model.natural_keys()
    return _DOCUMENT % (
        _array([
            _BEHAVIOR_EDGE % (_opt(e.exclusive_group), _esc(e.source), _esc(e.target))
            for e in behavior.edges
        ], "    "),
        _array(list(map(_esc, in_order(behavior.event_ids))), "    "),
        _array([
            _EVENT % (
                _esc(e.id), _opt(e.intensity), _esc(e.name),
                _array(list(map(_esc, in_order(e.region.edge_ids))), "        "),
                _array(list(map(_esc, in_order(e.region.stage_ids))), "        "),
                _esc(e.time),
            )
            for e in sorted(events, key=lambda e: keys[e.id])
        ], "  "),
        _array([_FLOW % (_esc(f.id), _esc(f.source), _esc(f.target)) for f in by_id(model.flows)],
               "  "),
        _machines_json(model),
        _array([
            _TRIGGER % (_opt(t.guard), _esc(t.id), _esc(t.source), _esc(t.target))
            for t in by_id(model.triggers)
        ], "  "),
    )


def _decode(text: str, error: type[TmError], too_deep: str):
    """``json.loads``, raising ``error`` on text it cannot read: ``too_deep``
    for nesting past the decoder's recursion limit."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise error(too_deep) from exc
    except ValueError as exc:  # covers JSONDecodeError
        raise error(f"not valid JSON: {exc}") from exc


_NULL = type(None)
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "true or false",
               int: "a number", float: "a number", _NULL: "null"}
# the types a field may have: each reader checks its fields inline and
# names these only to report the first that fails
_TEXT, _FLAG, _TEXT_OR_NULL = (str,), (bool,), (str, _NULL)
_SHAPE_NAMES = {_TEXT: "a string", _FLAG: "true or false", _TEXT_OR_NULL: "a string or null"}


def _wrong(value, shape: type, what: str, error: type[TmError] = JsonFormatError) -> TmError:
    return error(f"{what} must be {_JSON_NAMES[shape]}, got {_JSON_NAMES[type(value)]}")


def _shaped(value, shape: type, what: str, error: type[TmError] = JsonFormatError):
    """Return the decoded JSON ``value`` if it is a ``shape`` (``dict`` or
    ``list``); raise ``error`` otherwise."""
    if type(value) is not shape:
        raise _wrong(value, shape, what, error)
    return value


def _refused(what: str, fields: tuple, error: type[TmError] = JsonFormatError) -> TmError:
    """The error on the first of a ``what``'s ``fields``, (key, value, types)
    triples, whose value has none of its types."""
    key, value, shape = next(field for field in fields if type(field[1]) not in field[2])
    return error(f"{what} {key} must be {_SHAPE_NAMES[shape]}, got {_JSON_NAMES[type(value)]}")


def _unknown_key(raw: dict, entry: str, fields: Iterable[str],
                 error: type[TmError] = JsonFormatError) -> TmError:
    """The error for an entry (``"a node"``, ``"an event region"``) holding a
    key besides ``fields``."""
    key = min(raw.keys() - set(fields))
    return error(f"unknown {entry.split(' ', 1)[1]} key {key!r}: {entry} holds only"
                 f" {', '.join(sorted(fields))}")


def _strings(value, what: str) -> list[str]:
    """The decoded JSON ``value`` if it is an array of strings."""
    for item in _shaped(value, list, what):
        if type(item) is not str:
            raise _wrong(item, str, f"each entry of {what}")
    return value


def _submachine_entries(raw) -> list:
    return _shaped(_shaped(raw, dict, "each machine").get("submachines", []), list,
                   "submachines")


# the keys the writer writes in each kind of entry: a reader refuses any other
_STAGE_KEYS = frozenset({"has_storage", "id", "kind", "label", "owner"})
_MACHINE_KEYS = frozenset({"id", "is_constraint", "name", "parent", "stages", "submachines"})
_FLOW_KEYS = frozenset({"id", "source", "target"})
_TRIGGER_KEYS = frozenset({"guard", "id", "source", "target"})
_EVENT_KEYS = frozenset({"id", "intensity", "name", "region", "time"})
_REGION_KEYS = frozenset({"edge_ids", "stage_ids"})
_BEHAVIOR_KEYS = frozenset({"edges", "event_ids"})
_BEHAVIOR_EDGE_KEYS = frozenset({"exclusive_group", "from", "to"})
_DOCUMENT_KEYS = frozenset({"machines", "flows", "triggers", "events", "behavior"})


def _stage_from(s) -> Stage:
    sid, owner = _shaped(s, dict, "each stage")["id"], s["owner"]
    storage, label = s.get("has_storage", False), s.get("label")
    if not s.keys() <= _STAGE_KEYS:
        raise _unknown_key(s, "a stage", _STAGE_KEYS)
    if not (type(sid) is type(owner) is str and type(storage) is bool
            and (label is None or type(label) is str)):
        raise _refused("stage", (("id", sid, _TEXT), ("owner", owner, _TEXT),
                                 ("has_storage", storage, _FLAG), ("label", label, _TEXT_OR_NULL)))
    return Stage(sid, ActionKind(s["kind"]), owner, storage, label)


def _machine_from(raw: dict, enclosing: Optional[dict],
                  submachines: tuple[Machine, ...]) -> Machine:
    """The machine of entry ``raw``, nested in the entry ``enclosing`` (None
    at the root).  A ``"parent"`` it holds must be the enclosing machine's
    id, or null at the root; a missing one is set from the nesting when the
    model is built."""
    try:
        stages = tuple([_stage_from(s) for s in _shaped(raw.get("stages", []), list, "stages")])
        mid = raw["id"]
    except (KeyError, ValueError) as exc:
        raise JsonFormatError(f"bad machine entry: {exc}") from exc
    name, constraint, parent = raw.get("name", mid), raw.get("is_constraint", False), raw.get("parent")
    if not raw.keys() <= _MACHINE_KEYS:
        raise _unknown_key(raw, "a machine", _MACHINE_KEYS)
    if not (type(mid) is type(name) is str and type(constraint) is bool
            and (parent is None or type(parent) is str)):
        raise _refused("machine", (("id", mid, _TEXT), ("name", name, _TEXT),
                                   ("is_constraint", constraint, _FLAG),
                                   ("parent", parent, _TEXT_OR_NULL)))
    if "parent" in raw:
        nested_in = None if enclosing is None else enclosing.get("id")
        if parent != nested_in:
            given = "null" if parent is None else repr(parent)
            where = "a root, whose parent is null" if nested_in is None else f"nested in {nested_in!r}"
            raise JsonFormatError(f"machine {mid!r} has parent {given}, but is {where}")
    return Machine(mid, name, constraint, stages, submachines, parent)


def document_from_json(
    text: str,
) -> tuple[StaticModel, tuple[Event, ...], BehavioralModel]:
    doc = _decode(text, JsonFormatError, "the document nests deeper than this Python's JSON"
                  " decoder reads (model text has no such limit)")
    if not isinstance(doc, dict):
        raise JsonFormatError("expected a JSON object")
    if not doc.keys() <= _DOCUMENT_KEYS:
        raise _unknown_key(doc, "a document", _DOCUMENT_KEYS)
    try:
        machines = build_trees(
            _shaped(doc.get("machines", []), list, "machines"),
            _submachine_entries,
            _machine_from,
        )
        flows = []
        for f in _shaped(doc.get("flows", []), list, "flows"):
            fid, source, target = _shaped(f, dict, "each flow")["id"], f["source"], f["target"]
            if not f.keys() <= _FLOW_KEYS:
                raise _unknown_key(f, "a flow", _FLOW_KEYS)
            if not type(fid) is type(source) is type(target) is str:
                raise _refused("flow", (("id", fid, _TEXT), ("source", source, _TEXT),
                                        ("target", target, _TEXT)))
            flows.append(Flow(fid, source, target))
        triggers = []
        for t in _shaped(doc.get("triggers", []), list, "triggers"):
            tid, source, target = _shaped(t, dict, "each trigger")["id"], t["source"], t["target"]
            guard = t.get("guard")
            if not t.keys() <= _TRIGGER_KEYS:
                raise _unknown_key(t, "a trigger", _TRIGGER_KEYS)
            if not (type(tid) is type(source) is type(target) is str
                    and (guard is None or type(guard) is str)):
                raise _refused("trigger", (("id", tid, _TEXT), ("source", source, _TEXT),
                                           ("target", target, _TEXT), ("guard", guard, _TEXT_OR_NULL)))
            triggers.append(Trigger(tid, source, target, guard))
        events = []
        for e in _shaped(doc.get("events", []), list, "events"):
            eid, time = _shaped(e, dict, "each event")["id"], e["time"]
            name, intensity = e.get("name", eid), e.get("intensity")
            if not e.keys() <= _EVENT_KEYS:
                raise _unknown_key(e, "an event", _EVENT_KEYS)
            if not (type(eid) is type(time) is type(name) is str
                    and (intensity is None or type(intensity) is str)):
                raise _refused("event", (("id", eid, _TEXT), ("time", time, _TEXT),
                                         ("name", name, _TEXT), ("intensity", intensity, _TEXT_OR_NULL)))
            region = _shaped(e["region"], dict, "an event region")
            if not region.keys() <= _REGION_KEYS:
                raise _unknown_key(region, "an event region", _REGION_KEYS)
            events.append(Event(eid, name, time, Region(
                frozenset(_strings(region["stage_ids"], "stage_ids")),
                frozenset(_strings(region.get("edge_ids", []), "edge_ids")),
            ), intensity))
        raw_behavior = _shaped(doc.get("behavior", {}), dict, "behavior")
        if not raw_behavior.keys() <= _BEHAVIOR_KEYS:
            raise _unknown_key(raw_behavior, "the behavior object", _BEHAVIOR_KEYS)
        edges = []
        for e in _shaped(raw_behavior.get("edges", []), list, "behavior edges"):
            source, target = _shaped(e, dict, "each behavior edge")["from"], e["to"]
            group = e.get("exclusive_group")
            if not e.keys() <= _BEHAVIOR_EDGE_KEYS:
                raise _unknown_key(e, "a behavior edge", _BEHAVIOR_EDGE_KEYS)
            if not (type(source) is type(target) is str and (group is None or type(group) is str)):
                raise _refused("behavior edge", (("from", source, _TEXT), ("to", target, _TEXT),
                                                 ("exclusive_group", group, _TEXT_OR_NULL)))
            edges.append(BehaviorEdge(source, target, group))
        behavior = BehavioralModel.build(_strings(raw_behavior.get("event_ids", []), "event_ids"),
                                         edges)
    except KeyError as exc:
        raise JsonFormatError(f"malformed document: missing {exc}") from exc
    try:
        model = StaticModel.build(machines, flows, triggers)
    except TmError as exc:
        raise JsonFormatError(str(exc)) from exc
    events = tuple(sorted(events, key=lambda e: natural_key(e.id)))
    return model, events, behavior
