"""Textual surface language for machine models, events, and behavior graphs.

Grammar (comments run from ``#`` to end of line)::

    model     := item*
    item      := machine | flow | trigger | event | behavior
    machine   := "machine" ID "constraint"? (":" STRING)? "{" (stagedecl | machine)* "}"
    stagedecl := KIND ("store")? (":" STRING)? ";"
    KIND      := "create" | "process" | "release" | "transfer" | "receive"
    flow      := "flow" (ID ":")? REF "->" REF ";"
    trigger   := "trigger" (ID ":")? REF "=>" REF ("if" STRING)? ";"
    REF       := ID ("." ID)* "." KIND
    event     := "event" ID (":" STRING)? "{" "time" STRING ";"
                 "region" "{" (REF | "edge" ID)* "}" ("intensity" STRING ";")? "}"
    behavior  := "behavior" "{" (ID "->" ID ("excl" STRING)? ";")* "}"

``->`` draws solid flows, ``=>`` dashed triggers.  Machine identifiers are
dotted paths from the root; a stage is addressed as ``path.kind``.  Unlabeled
flows and triggers receive ids ``f1, f2, ...`` / ``t1, t2, ...`` in declaration
order.  The canonical printer is `tmkit.printer` (``dsl.print_model`` still
reads it): it is deterministic (everything sorted by id) and always emits
explicit edge ids, so parse/print round-trips preserve identity.

A text is read in three steps.  `tmkit.lexer` reads its tokens and whole
statements, `tmkit.grammar` parses them into a raw tree of names and
offsets, and the resolver here turns that into the model.  `SourceSpan` and
`ParseDiagnostic` are defined in `tmkit.lexer` and read from here as well.

The resolver resolves names only.  The model rules are checked by the
checks of `tmkit.model` that JSON input and the validator use, and each
problem they find is a diagnostic coded by its rule (``V1`` to ``V9``).  It
is reported on the word that declares its subject: the resolver maps each
declared id to that word's offset, and reads the word's length back from
the text only for a problem it reports.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .grammar import _Parser, _RawEvent
from .lexer import ParseDiagnostic, SourceSpan
from .model import (
    BehavioralModel,
    BehaviorEdge,
    Event,
    Flow,
    IDENT,
    KIND_WORDS,
    Machine,
    Problem,
    Record,
    Region,
    Stage,
    StaticModel,
    TmError,
    Trigger,
    _edge_order,
    check_behavior,
    check_events,
    check_regions,
    natural_key,
    nest,
)


class CommentMap(Record, frozen=False):
    """Comment text attached to elements, keyed by element id."""

    __slots__ = ("header", "items")

    def __init__(self, header: tuple[str, ...] = (),
                 items: Optional[dict[str, tuple[str, ...]]] = None) -> None:
        self.header = header
        self.items = {} if items is None else items


class ParseResult(Record, frozen=False):
    __slots__ = ("model", "events", "behavior", "comments", "diagnostics")

    def __init__(self, model: Optional[StaticModel], events: tuple[Event, ...],
                 behavior: Optional[BehavioralModel], comments: CommentMap,
                 diagnostics: tuple[ParseDiagnostic, ...]) -> None:
        self.model = model
        self.events = events
        self.behavior = behavior
        self.comments = comments
        self.diagnostics = diagnostics

    @property
    def ok(self) -> bool:
        return not self.diagnostics


class ParseError(TmError):
    def __init__(self, diagnostics: Sequence[ParseDiagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = tuple(diagnostics)


# Parsing a small model should not wake the garbage collector, which runs a
# gen-0 collection whenever 700 more tracked objects (2000 from Python 3.13
# on) are alive than after the last one.  So from the text to the model
# records, a well-formed flow, trigger or stage declaration lives as one
# tracked object, a tuple of strings and offsets.  A gate-relay document of 240
# statements lived as some 2100 objects when each statement held a tuple of
# tokens and the parser made raw edges and references of them: 1.8
# collections per parse.  The bound on the collections that 200 parses of
# relay_text(3, 7, 3) start at a gen-0 threshold of 700, asserted in
# tests/test_dsl.py:
_GEN0_COLLECTIONS_PER_200_PARSES = 20


# -- resolution ---------------------------------------------------------------


class _Resolver:
    """Builds the model a text spells, repeated elements included, and
    reports what `StaticModel.problems`, `check_events`, `check_regions` and
    `check_behavior` find at the declaration of each problem's subject: the
    last one of an id declared more than once, the first mention of an
    undeclared event."""

    def __init__(self, parser: _Parser):
        self.p = parser
        self.lines = parser.lines
        self.raw_comments = parser.comments
        self.diagnostics = [*parser.lex_diagnostics, *parser.diagnostics]
        # each machine, stage, flow and trigger id to the offset of the word
        # that declares it: a name, a label, a stage kind or an unlabeled
        # edge's keyword
        self.decls: dict[str, int] = {}
        # each stage id to itself: the string its Stage holds, for flows to share
        self.stage_ids: dict[str, str] = {}
        # (offset of a declaration's first word, element id) in declaration
        # order, read as line numbers to attach comments; None when the text
        # has no comments
        self.keys: Optional[list[tuple[int, str]]] = [] if parser.comments else None
        # ids of edges left out because an end did not resolve, which was
        # reported: a region naming one is not reported again
        self.dropped: set[str] = set()

    def error(self, offset: int, code: str, message: str) -> None:
        """Report on the name that starts at ``offset``."""
        length = IDENT.match(self.lines.text, offset).end() - offset  # type: ignore[union-attr]
        self.diagnostics.append(ParseDiagnostic(self.lines.span(offset, length), code, message))

    def report(self, problems: Sequence[Problem], decls: dict[str, int]) -> None:
        for problem in problems:
            self.error(decls[problem.subject], problem.rule, problem.message)

    def resolve(self) -> ParseResult:
        machines = self.build_machines()
        machines_only = StaticModel(machines=machines)  # for resolve_ref's messages
        decls, keys = self.decls, self.keys

        flows: list[Flow] = []
        triggers: list[Trigger] = []
        auto = {"f": 1, "t": 1}  # the next number to try for an unlabeled edge
        for raw in self.p.edges:
            src = self.resolve_ref(machines_only, raw.source, raw.source_at, raw.source_end)
            dst = self.resolve_ref(machines_only, raw.target, raw.target_at, raw.target_end)
            dashed = raw.value == "trigger"
            edge_id = raw.label
            if edge_id is None:
                prefix = "t" if dashed else "f"
                while f"{prefix}{auto[prefix]}" in decls:
                    auto[prefix] += 1
                edge_id = f"{prefix}{auto[prefix]}"
                auto[prefix] += 1
                decls[edge_id] = raw.offset
            else:
                decls[edge_id] = raw.label_at
            if src is None or dst is None:
                self.dropped.add(edge_id)
                continue
            if keys is not None:
                keys.append((raw.offset, edge_id))
            if dashed:
                triggers.append(Trigger(edge_id, src, dst, raw.guard))
            else:
                flows.append(Flow(edge_id, src, dst))
        model = StaticModel(machines, tuple(flows), tuple(triggers))

        built = [self.build_event(model, raw) for raw in self.p.events]
        events = [event for event, _ in built]
        event_decls = {raw.id_tok.value: raw.id_tok.offset for raw in self.p.events}
        behavior_edges: list[BehaviorEdge] = []
        for raw_edge in self.p.behavior_edges:
            source, target = raw_edge.from_tok.value, raw_edge.to_tok.value
            event_decls.setdefault(source, raw_edge.from_tok.offset)  # a first mention
            event_decls.setdefault(target, raw_edge.to_tok.offset)
            behavior_edges.append(BehaviorEdge(source, target, raw_edge.group))
            if keys is not None:
                keys.append((raw_edge.from_tok.offset, f"{source}->{target}"))
        if keys is not None:
            keys += [(tok.offset, "behavior") for tok in self.p.behavior_toks]
        declared = frozenset([event.id for event in events])

        self.report(model.problems(), decls)
        self.report(check_events(model, events), event_decls)
        # an event whose region names what did not resolve was reported there
        self.report(check_regions(model, [e for e, resolved in built if resolved]), event_decls)
        self.report(check_behavior(declared, behavior_edges), event_decls)
        if self.diagnostics:
            return ParseResult(None, (), None, CommentMap(), tuple(self.diagnostics))
        events.sort(key=lambda e: natural_key(e.id))
        behavior = BehavioralModel(declared, tuple(sorted(behavior_edges, key=_edge_order)))
        return ParseResult(model, tuple(events), behavior, self.attach_comments(), ())

    def build_machines(self) -> tuple[Machine, ...]:
        """Name each machine and its stages as `model.nest` opens it, in
        declaration preorder, and build it as the walk closes it."""
        decls, stage_ids, keys = self.decls, self.stage_ids, self.keys
        # per open machine: its id, its stages and the machines built under
        # it; the first frame collects the roots
        frames: list[tuple[str, tuple[Stage, ...], list[Machine]]] = [("", (), [])]
        for raw, depth, opening in nest(self.p.machines, lambda raw: raw.children):
            if not opening:
                mid, stages, subs = frames.pop()
                parent_id, _, siblings = frames[-1]
                siblings.append(Machine(mid, raw.display if raw.display is not None else raw.name,
                                        raw.constraint, stages, tuple(subs),
                                        parent_id if depth else None))
                continue
            mid = f"{frames[-1][0]}.{raw.name}" if depth else raw.name
            decls[mid] = raw.name_at
            if keys is not None:
                keys.append((raw.name_at, mid))
            stages = []
            for raw_stage in raw.stages:
                word = raw_stage.value  # the stage's kind word
                sid = f"{mid}.{word}"
                decls[sid] = raw_stage.offset
                stage_ids[sid] = sid
                if keys is not None:
                    keys.append((raw_stage.offset, sid))
                stages.append(Stage(sid, KIND_WORDS[word], mid, raw_stage.store is not None,
                                    raw_stage.label))
            frames.append((mid, tuple(stages), []))
        return tuple(frames[0][2])

    def resolve_ref(self, model: StaticModel, text: str, at: int, end: int) -> Optional[str]:
        """The stage id the reference ``text`` names; ``at`` and ``end`` are
        the offsets of its first character and past its last."""
        sid = self.stage_ids.get(text)
        if sid is not None:
            return sid
        mid, _, kind = text.rpartition(".")
        if mid in model.machines_by_id:
            message = f"machine {mid!r} has no {kind} stage"
        else:
            message = f"unknown machine {mid!r}"
        self.diagnostics.append(ParseDiagnostic(self.ref_span(at, end), "unresolved-ref", message))
        return None

    def ref_span(self, at: int, end: int) -> SourceSpan:
        """From offset ``at`` to ``end``, the length counted in columns as if
        the reference sat on one line."""
        line, column = self.lines.position(at)
        _, end_column = self.lines.position(end)
        return SourceSpan(line, column, end_column - column)

    def build_event(self, model: StaticModel, raw: _RawEvent) -> tuple[Event, bool]:
        """The event, and whether every reference of its region resolved."""
        if self.keys is not None:
            self.keys.append((raw.id_tok.offset, raw.id_tok.value))
        stage_ids = {self.resolve_ref(model, *ref) for ref in raw.stage_refs}
        resolved = None not in stage_ids
        stage_ids.discard(None)
        for tok in raw.edge_refs:
            if tok.value not in model.flows_by_id and tok.value not in model.triggers_by_id:
                resolved = False
                if tok.value not in self.dropped:
                    self.error(tok.offset, "unresolved-ref", f"unknown edge {tok.value!r}")
        event = Event(
            id=raw.id_tok.value,
            name=raw.display if raw.display is not None else raw.id_tok.value,
            time=raw.time,
            region=Region(frozenset(stage_ids), frozenset([tok.value for tok in raw.edge_refs])),
            intensity=raw.intensity,
        )
        return event, resolved

    def attach_comments(self) -> CommentMap:
        """Attach each block of comments on consecutive lines to the element
        declared on the line right after it; the rest form the header."""
        if not self.raw_comments:
            return CommentMap()
        position = self.lines.position
        blocks: list[tuple[int, list[str]]] = []
        for offset, text in self.raw_comments:
            line, _ = position(offset)
            if blocks and blocks[-1][0] + len(blocks[-1][1]) == line:
                blocks[-1][1].append(text)
            else:
                blocks.append((line, [text]))
        line_keys = {position(offset)[0]: key for offset, key in self.keys or ()}
        header: list[str] = []
        items: dict[str, tuple[str, ...]] = {}
        for start, lines in blocks:
            key = line_keys.get(start + len(lines))
            if key is None:
                header.extend(lines)
            else:
                items[key] = items.get(key, ()) + tuple(lines)
        return CommentMap(header=tuple(header), items=items)


def parse(text: str) -> ParseResult:
    """Parse a model document.  Diagnostics non-empty means failure."""
    parser = _Parser(text)
    parser.parse_model()
    return _Resolver(parser).resolve()


def parse_or_raise(text: str) -> ParseResult:
    result = parse(text)
    if not result.ok:
        raise ParseError(result.diagnostics)
    return result


def format_text(text: str) -> str:
    """Reprint a document in canonical form, preserving attached comments."""
    from .printer import print_model

    result = parse_or_raise(text)
    return print_model(result.model, result.events, result.behavior, result.comments)


def __getattr__(name: str):
    """`print_model` and `PrintError`, which live in `tmkit.printer` and are
    still read from here: imported on first use and cached."""
    if name not in ("print_model", "PrintError"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import printer

    value = globals()[name] = getattr(printer, name)
    return value
