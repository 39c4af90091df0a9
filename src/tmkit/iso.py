"""Graph isomorphism, solved once for `model.model_isomorphic` and
`uml.activity_isomorphic`.  Each encodes its graphs as labelled digraphs and
imports this module where it runs, so no command line compiles it.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .model import StaticModel


def machine_digraph(model: StaticModel) -> tuple[dict, dict]:
    # One stage per kind makes the stage bijection follow from the machine
    # bijection, so a link is an edge between machines (a self-loop within one)
    # labelled with its kind, its end stages' kinds and its guard.
    labels, place = {}, {}  # machine id -> label, stage id -> (machine id, kind)
    edges: dict[tuple[str, str], list] = {}
    for m in model.all_machines():
        labels[m.id] = (m.is_constraint, frozenset((s.kind, s.has_storage) for s in m.stages))
        place.update((s.id, (m.id, s.kind.value)) for s in m.stages)
        for sub in m.submachines:
            edges.setdefault((m.id, sub.id), []).append(("sub", "", "", ""))
    links = [("flow", f.source, f.target, "") for f in model.flows]
    links += [("trigger", t.source, t.target, t.guard or "") for t in model.triggers]
    for kind, source, target, guard in links:
        (src, src_kind), (dst, dst_kind) = place[source], place[target]
        edges.setdefault((src, dst), []).append((kind, src_kind, dst_kind, guard))
    return labels, edges


def digraph_isomorphic(a: tuple[dict, dict], b: tuple[dict, dict]) -> bool:
    """Decide isomorphism of digraphs ``(labels, edges)``: ``labels`` maps each
    node to a hashable label, ``edges`` a (source, target) pair to the labels
    of its parallel edges, compared as a sorted multiset.  Nodes are coloured
    by label, then once by their neighbours' colours and edge labels.  Each
    weakly connected component of ``a`` is placed from its rarest colour along
    edges, so a node's candidates are neighbours of a placed node's image
    (VF2-style; Cordella et al., TPAMI 2004).
    """
    if len(a[0]) != len(b[0]) or len(a[1]) != len(b[1]):
        return False
    edge_colour: dict = {}
    adj = []  # per graph, node -> ({out-neighbour: edge colour}, {in-neighbour: edge colour})
    for labels, edges in (a, b):
        adj.append({n: ({}, {}) for n in labels})
        for (u, v), labs in edges.items():
            e = edge_colour.setdefault(tuple(sorted(labs)), len(edge_colour))
            adj[-1][u][0][v] = adj[-1][v][1][u] = e
    a_adj, b_adj = adj

    keys = (a[0], b[0])
    for refined in (False, True):
        palette: dict = {}
        ca, cb = ({n: palette.setdefault(k, len(palette)) for n, k in ks.items()} for ks in keys)
        if sorted(ca.values()) != sorted(cb.values()):
            return False
        if refined or len(palette) == len(ca):
            break
        keys = tuple(
            {n: (c, *[tuple(sorted([(e, col[m]) for m, e in side.items()])) for side in g[n]])
             for n, c in col.items()}
            for col, g in ((ca, a_adj), (cb, b_adj))
        )

    b_class: dict = {}
    for n, c in cb.items():
        b_class.setdefault(c, []).append(n)
    order = []  # (node, placed neighbour or None, 0 if node is its out-, 1 if in-neighbour)
    placed: set = set()
    for first in sorted(ca, key=lambda n: len(b_class[ca[n]])):
        todo = [(first, None, 0)]
        while todo:
            node, anchor, side = todo.pop()
            if node not in placed:
                placed.add(node)
                order.append((node, anchor, side))
                todo += [(m, node, s) for s, near in enumerate(a_adj[node]) for m in near]

    mapping, inverse = {}, {}  # node of a -> node of b, and back

    def fits(node, image) -> bool:
        for mine, theirs in zip(a_adj[node], b_adj[image]):
            for other, e in mine.items():
                if other in mapping and theirs.get(mapping[other]) != e:
                    return False
            for other, e in theirs.items():
                if other in inverse and mine.get(inverse[other]) != e:
                    return False
        return True

    stack: list[Iterator] = []  # candidate iterators; order[:len(mapping)] is placed
    while len(mapping) < len(order):
        depth = len(mapping)
        node, anchor, side = order[depth]
        if len(stack) == depth:
            pool = b_class[ca[node]] if anchor is None else b_adj[mapping[anchor]][side]
            stack.append(filterfalse(inverse.__contains__, pool))
        for image in stack[depth]:
            if cb[image] == ca[node]:
                mapping[node], inverse[image] = image, node
                if fits(node, image):
                    break
                del mapping[node], inverse[image]
        else:
            stack.pop()
            if not stack:
                return False
            del inverse[mapping.pop(order[depth - 1][0])]
    return True
