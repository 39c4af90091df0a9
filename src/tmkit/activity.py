"""UML activity graphs: their records, the ``.act.json`` interchange and
their isomorphism.

Supported node kinds: Initial, Final, Action, Decision, Merge.  A graph
built with `ActivityGraph.build` (as every graph `activity_from_json` reads
is) has been checked against the shape rules of that subset.  `tmkit.uml`
maps these graphs to and from machine models and re-exports every name
here.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .jsonio import (
    _TEXT,
    _TEXT_OR_NULL,
    _array,
    _decode,
    _esc,
    _opt,
    _refused,
    _shaped,
    _unknown_key,
)
from .model import Record, TmError, _edge_order, natural_key

NODE_KINDS = ("Initial", "Final", "Action", "Decision", "Merge")


class ActivityError(TmError):
    pass


class UnsupportedConstruct(ActivityError):
    """A node kind or shape outside the supported subset."""


class MalformedDecision(ActivityError):
    """A decision out-edge is missing its guard."""


class ActivityNode(Record):
    __slots__ = ("id", "kind", "label")

    def __init__(self, id: str, kind: str, label: str = "") -> None:
        set_id, set_kind, set_label = self._setters
        set_id(self, id)
        set_kind(self, kind)
        set_label(self, label)


class ActivityEdge(Record):
    __slots__ = ("source", "target", "guard")

    def __init__(self, source: str, target: str, guard: Optional[str] = None) -> None:
        set_source, set_target, set_guard = self._setters
        set_source(self, source)
        set_target(self, target)
        set_guard(self, guard)


class ActivityGraph(Record):
    __slots__ = ("nodes", "edges", "__dict__")

    def __init__(self, nodes: tuple[ActivityNode, ...] = (),
                 edges: tuple[ActivityEdge, ...] = ()) -> None:
        set_nodes, set_edges = self._setters
        set_nodes(self, nodes)
        set_edges(self, edges)

    @classmethod
    def build(
        cls, nodes: Sequence[ActivityNode], edges: Sequence[ActivityEdge]
    ) -> "ActivityGraph":
        return cls(nodes=tuple(nodes), edges=tuple(edges))._checked()

    def _checked(self) -> "ActivityGraph":
        """This graph, once its invariants hold; raises the first that does
        not.  A graph is checked once: `build` checks it, and `import_activity`
        checks only a graph made without `build`."""
        if "_ok" in self.__dict__:
            return self
        nodes, edges = self.nodes, self.edges
        by_id: dict[str, ActivityNode] = {}
        for node in nodes:
            if type(node.id) is not str:
                raise ActivityError(f"node id must be a string, got {node.id!r}")
            if type(node.label) is not str:
                raise ActivityError(f"node {node.id!r} label must be a string, got {node.label!r}")
            if node.kind not in NODE_KINDS:
                raise UnsupportedConstruct(f"node {node.id!r} has kind {node.kind!r}")
            if node.id in by_id:
                raise ActivityError(f"duplicate node id {node.id!r}")
            by_id[node.id] = node
        out_deg: dict[str, int] = {}
        in_deg: dict[str, int] = {}
        for edge in edges:
            for end in (edge.source, edge.target):
                if end not in by_id:
                    raise ActivityError(f"edge endpoint {end!r} does not resolve")
            if edge.guard is not None and type(edge.guard) is not str:
                raise ActivityError(f"edge {edge.source!r} -> {edge.target!r} guard must be"
                                    f" a string or None, got {edge.guard!r}")
            out_deg[edge.source] = out_deg.get(edge.source, 0) + 1
            in_deg[edge.target] = in_deg.get(edge.target, 0) + 1
            if by_id[edge.source].kind == "Decision" and edge.guard is None:
                raise MalformedDecision(
                    f"decision {edge.source!r} has an unguarded edge to {edge.target!r}"
                )
        initials = [n for n in nodes if n.kind == "Initial"]
        if len(initials) != 1:
            raise ActivityError(f"exactly one initial node required, found {len(initials)}")
        if not any(n.kind == "Final" for n in nodes):
            raise ActivityError("at least one final node required")
        for node in nodes:
            if node.kind == "Decision" and out_deg.get(node.id, 0) < 2:
                raise ActivityError(f"decision {node.id!r} needs at least two outgoing edges")
            if node.kind == "Merge" and in_deg.get(node.id, 0) < 2:
                raise ActivityError(f"merge {node.id!r} needs at least two incoming edges")
        self.__dict__["_ok"] = True
        return self

    # lookups indexed once per graph (the graph is immutable, so caching is safe)

    @cached_property
    def _nodes_by_id(self) -> dict[str, ActivityNode]:
        return {n.id: n for n in reversed(self.nodes)}  # the first of a repeated id wins

    @cached_property
    def _edges_by_end(self) -> tuple[dict[str, list[ActivityEdge]], dict[str, list[ActivityEdge]]]:
        outs: dict[str, list[ActivityEdge]] = {}
        ins: dict[str, list[ActivityEdge]] = {}
        for e in self.edges:
            outs.setdefault(e.source, []).append(e)
            ins.setdefault(e.target, []).append(e)
        return outs, ins

    def node(self, node_id: str) -> ActivityNode:
        node = self._nodes_by_id.get(node_id)
        if node is None:
            raise ActivityError(f"no node {node_id!r}")
        return node

    def out_edges(self, node_id: str) -> list[ActivityEdge]:
        return list(self._edges_by_end[0].get(node_id, ()))

    def in_edges(self, node_id: str) -> list[ActivityEdge]:
        return list(self._edges_by_end[1].get(node_id, ()))


# -- JSON interchange (.act.json) ----------------------------------------------


# a node and an edge as ``json.dumps(..., indent=2, sort_keys=True)`` writes
# them as items of the document's two lists, fields at six spaces
_ACTIVITY = '{\n  "edges": %s,\n  "nodes": %s\n}\n'
_NODE = '{\n      "id": %s,\n      "kind": %s,\n      "label": %s\n    }'
_EDGE = '{\n      "from": %s,\n      "guard": %s,\n      "to": %s\n    }'


def activity_to_json(graph: ActivityGraph) -> str:
    """The canonical ``.act.json`` text: ``json.dumps`` of the document with
    an indent of 2 and sorted keys, plus a newline, byte for byte."""
    return _ACTIVITY % (
        _array([_EDGE % (_esc(e.source), _opt(e.guard), _esc(e.target))
                for e in sorted(graph.edges, key=_edge_order)], "  "),
        _array([_NODE % (_esc(n.id), _esc(n.kind), _opt(n.label))
                for n in sorted(graph.nodes, key=lambda n: natural_key(n.id))], "  "),
    )



def activity_from_json(text: str) -> ActivityGraph:
    doc = _decode(text, ActivityError,
                  "the activity graph nests deeper than this Python's JSON decoder reads")
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise ActivityError("expected an object with 'nodes' and 'edges'")
    if len(doc) != 2:
        raise _unknown_key(doc, "an activity graph", ("edges", "nodes"), ActivityError)
    try:
        nodes = []
        for raw in _shaped(doc["nodes"], list, "nodes", ActivityError):
            nid, kind = _shaped(raw, dict, "each node", ActivityError)["id"], raw["kind"]
            label = raw.get("label", "")
            if len(raw) != 2 + ("label" in raw):
                raise _unknown_key(raw, "a node", ("id", "kind", "label"), ActivityError)
            if not type(nid) is type(kind) is type(label) is str:
                raise _refused("node", (("id", nid, _TEXT), ("kind", kind, _TEXT),
                                        ("label", label, _TEXT)), ActivityError)
            nodes.append(ActivityNode(nid, kind, label))
        edges = []
        for raw in _shaped(doc["edges"], list, "edges", ActivityError):
            source, target = _shaped(raw, dict, "each edge", ActivityError)["from"], raw["to"]
            guard = raw.get("guard")
            if len(raw) != 2 + ("guard" in raw):
                raise _unknown_key(raw, "an edge", ("from", "guard", "to"), ActivityError)
            if not (type(source) is type(target) is str and (guard is None or type(guard) is str)):
                raise _refused("edge", (("from", source, _TEXT), ("to", target, _TEXT),
                                        ("guard", guard, _TEXT_OR_NULL)), ActivityError)
            edges.append(ActivityEdge(source, target, guard))
    except KeyError as exc:
        raise ActivityError(f"a node or edge has no {exc.args[0]!r} field") from exc
    return ActivityGraph.build(nodes, edges)


# -- structural comparison -------------------------------------------------------


def activity_isomorphic(a: ActivityGraph, b: ActivityGraph) -> bool:
    """True iff a node bijection preserves kinds, labels, edges (parallel ones
    by multiplicity), and guards, where a guard of ``None`` equals ``""``."""

    def digraph(graph: ActivityGraph) -> tuple[dict, dict]:
        edges: dict[tuple[str, str], list] = {}
        for e in graph.edges:
            edges.setdefault((e.source, e.target), []).append(e.guard or "")
        return {n.id: (n.kind, n.label) for n in graph.nodes}, edges

    from .iso import digraph_isomorphic

    return digraph_isomorphic(digraph(a), digraph(b))
