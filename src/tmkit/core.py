"""The leaf of the model layer: what the model records and every reader and
writer build on, importing nothing else from tmkit.

It holds the error classes, the action kinds and the words the model
language reserves, the natural order of ids (`natural_key`), the `Record`
base of every record type, the tree and graph walks (`build_trees`, `nest`,
`strong_components`) and the region queries.  `tmkit.model` defines the
model records on top of it and re-exports every public name here; the
other modules read them from there, except the lexer and the parser, which
need no model record.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

if TYPE_CHECKING:
    from .model import Machine, Stage, StaticModel


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


class Region(Record):
    __slots__ = ("stage_ids", "edge_ids")

    def __init__(self, stage_ids: frozenset[str], edge_ids: frozenset[str] = frozenset()) -> None:
        set_stage_ids, set_edge_ids = self._setters
        set_stage_ids(self, stage_ids)
        set_edge_ids(self, edge_ids)


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
