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

The parser reads the text one token at a time, as its grammar asks for
them.  A token is one match of a regular expression with a named group per
token class, from the end of the previous token; a newline is a blank like
any other.  An identifier followed without blanks by ``.identifier`` parts is
one REF token (``A.B.process``); if a further '.' follows (``A.B.``), the run
is split back into ID and DOT tokens, which is also what a reference written
with blanks (``A . process``) reads as, and the parser accepts any mix of the
two.  Where a REF stands in place of a single name, a diagnostic reports its
first name; a bad kind word is reported on the reference's last name.  Only a
string literal that holds a backslash or is never closed leaves the pattern
for a character loop, which reports bad escapes and unterminated strings.

Most of a model is flows and stage declarations.  Where the grammar takes a
flow, trigger or machine head (at the top level) or a stage declaration or
machine head (in a machine), it first tries a second pattern that reads the
whole statement, and keeps a well-formed one as one flat tuple of its first
word, its offsets and the text and offset of each ID, REF and STRING part:
one object for the garbage collector to track (see
_GEN0_COLLECTIONS_PER_200_PARSES).  After a statement the pattern is tried
before the next token is read, so a run of well-formed statements is read
one match each.  The pattern reads only the shape; Python checks the words
(keyword and arrow, a guard only on a trigger, references ending in a stage
kind, no reserved label or machine name).  Any other
statement text, and everything outside those places, is read token by
token, and a flow, trigger or stage read so is built into the same tuple.

Each token carries its offset in the text, not a line and column.  Those are
looked up, by bisection in an index of line starts built on first use, only
for positions that are reported: diagnostics and, when the text has
comments, the lines that attach comments to elements.  An escaped newline
stays in the string's value and still starts a new source line.

The resolver resolves names only.  The model rules are checked by the
checks of `tmkit.model` that JSON input and the validator use, and each
problem they find is a diagnostic coded by its rule (``V1`` to ``V9``).  It
is reported on the word that declares its subject: the resolver maps each
declared id to that word's offset, and reads the word's length back from
the text only for a problem it reports.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from typing import Optional, Sequence

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
    RESERVED,
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


class SourceSpan(Record):
    __slots__ = ("line", "column", "length")

    def __init__(self, line: int, column: int, length: int = 1) -> None:
        set_line, set_column, set_length = self._setters
        set_line(self, line)
        set_column(self, column)
        set_length(self, length)


class ParseDiagnostic(Record):
    __slots__ = ("span", "code", "message")

    def __init__(self, span: SourceSpan, code: str, message: str) -> None:
        set_span, set_code, set_message = self._setters
        set_span(self, span)
        set_code(self, code)  # "syntax" | "unresolved-ref" | a rule code "V1".."V9"
        set_message(self, message)

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.code}: {self.message}"


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


# -- lexer --------------------------------------------------------------------


class _Lines:
    """Line and column of text offsets.  The index of line starts is built on
    the first lookup, so a text whose positions are never reported never
    pays for it."""

    __slots__ = ("text", "starts")

    def __init__(self, text: str):
        self.text = text
        self.starts: Optional[list[int]] = None

    def position(self, offset: int) -> tuple[int, int]:
        starts = self.starts
        if starts is None:
            starts = self.starts = [0]
            starts += (m.end() for m in _NEWLINE.finditer(self.text))
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    def span(self, offset: int, length: int) -> SourceSpan:
        return SourceSpan(*self.position(offset), length)

    def token_span(self, tok: "_Token") -> SourceSpan:
        return self.span(tok.offset, max(1, len(tok.value)))


_NEWLINE = re.compile("\n")


# The parser's records are named tuples made by `namedtuple`: a
# `typing.NamedTuple` class would compile each field's annotation into a
# forward reference each time the module loads.
#
# A token: its kind (ID REF STRING LBRACE RBRACE SEMI COLON DOT ARROW DARROW
# EOF), its text (a REF's is its dotted text, e.g. "A.B.process") and offset.
_Token = namedtuple("_Token", "kind value offset")

# A flow or trigger statement, one flat tuple: the parser reads a well-formed
# one whole, and builds one from the tokens of any other.  Its kind is
# "EDGE", its value and offset are those of its first word ("flow" or
# "trigger"), and ``end`` is the offset past its ';'.  Each part is its text
# and offset, None and -1 where absent, and a reference (dotted, ending in a
# stage kind, e.g. "A.B.process") also has the offset past its last name.
# The guard is the STRING after 'if', which has no part.
_Edge = namedtuple("_Edge", "kind value offset end label label_at source source_at source_end"
                            " target target_at target_end guard guard_at")

# A stage declaration, laid out as an `_Edge`: kind "STAGE", the stage kind
# word, and the parts "store" and the STRING after ':'.
_StageDecl = namedtuple("_StageDecl", "kind value offset end store store_at label label_at")

# A well-formed machine head ``machine ID constraint? (: STRING)? {``, laid
# out as an `_Edge`: kind "HEAD", value "machine", and ``end`` the offset
# past its '{'.
_Head = namedtuple("_Head", "kind value offset end name name_at constraint constraint_at"
                            " display display_at")


_EDGE_SHAPES = {("flow", "->", None), ("trigger", "=>", None), ("trigger", "=>", "if")}
_KIND_ENDS = tuple(f".{kind}" for kind in KIND_WORDS)  # the ends of a reference

_PUNCT = {
    "->": "ARROW",
    "=>": "DARROW",
    "{": "LBRACE",
    "}": "RBRACE",
    ";": "SEMI",
    ":": "COLON",
    ".": "DOT",
}

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


# One token, tried at the end of the previous one after skipping blanks: one
# alternative per token class.  An identifier followed by unspaced
# ".identifier" parts ends in the REF group.  A string with no backslash that
# closes on its own line is read whole here; any other '"' is read by
# _lex_string.
_B, _N, _Q = r"[ \t\r\n]", r"[A-Za-z][A-Za-z0-9_]*", r'[^"\\\n]*'
_TOKEN = re.compile(
    rf"{_B}*(?:(?P<ID>{_N})(?P<REF>(?:\.{_N})+)?"
    r"|(?P<PUNCT>->|=>|[{};:.])"
    rf'|"(?P<STRING>{_Q})"'
    r"|#(?P<COMMENT>[^\n]*)"
    r'|(?P<QUOTE>")'
    r"|(?P<OTHER>[^ \t\r\n])"  # not a blank, or trailing blanks would backtrack into it
    r")"
).match

# The shape of a whole flow or trigger, stage declaration or machine head,
# ending in the EDGE, STAGE or HEAD group, tried after blanks where one may
# start, with any words in place of the keywords: _statement checks them.
_STATEMENT = re.compile(
    rf"{_B}*(?P<W>{_N})(?:"
    rf"{_B}+(?:(?P<L>{_N}){_B}*:{_B}*)?(?P<S>{_N}(?:\.{_N})+){_B}*(?P<A>[-=]>){_B}*"
    rf'(?P<T>{_N}(?:\.{_N})+)(?:{_B}+(?P<I>{_N}){_B}*"(?P<G>{_Q})")?{_B}*(?P<EDGE>;)'
    rf'|(?:{_B}+(?P<X>{_N}))?(?:{_B}+(?P<Y>{_N}))?(?:{_B}*:{_B}*"(?P<D>{_Q})")?{_B}*(?:(?P<STAGE>;)|(?P<HEAD>\{{)))'
).match
_IN_MODEL = ("EDGE", "HEAD")  # the statements each part of the grammar takes
_IN_MACHINE = ("STAGE", "HEAD")


def _lex_string(
    text: str, start: int, lines: _Lines, diagnostics: list[ParseDiagnostic]
) -> tuple[str, int]:
    """Read the string literal whose opening quote is at offset ``start``.

    Reports unknown escapes and a missing closing quote.  Returns the value and
    the offset just past the literal; an escaped newline is kept in the value.
    """
    n = len(text)
    out = []
    closed = False
    i = start + 1
    while i < n:
        c = text[i]
        if c == '"':
            i += 1
            closed = True
            break
        if c == "\n":
            break
        if c == "\\":
            esc = text[i + 1 : i + 2]
            if esc not in _ESCAPES:
                diagnostics.append(
                    ParseDiagnostic(
                        lines.span(i, 2),
                        "syntax",
                        f"unknown escape \\{esc}"
                        if esc.isprintable()
                        else f"unknown escape \\ followed by {esc!r}",
                    )
                )
                out.append(esc)
            else:
                out.append(_ESCAPES[esc])
            i = min(i + 2, n)
            continue
        out.append(c)
        i += 1
    if not closed:
        diagnostics.append(
            ParseDiagnostic(
                lines.span(start, max(1, i - start)), "syntax", "unterminated string literal"
            )
        )
    return "".join(out), i


_new = tuple.__new__  # makes a NamedTuple without NamedTuple.__new__'s Python frame


def _statement(m: re.Match) -> Optional[tuple]:
    """The statement for a match of _STATEMENT, or None unless its words
    make a well-formed statement: the keyword fits the arrow or the closing
    mark, only a trigger has a guard, references end in a stage kind, and no
    label or machine name is a reserved word.  The statement is one tuple,
    with no tuple of its own in it."""
    word, start = m["W"], m.start
    if m.lastgroup == "EDGE":
        label, source, arrow, target, if_, guard = m.group("L", "S", "A", "T", "I", "G")
        if (word, arrow, if_) not in _EDGE_SHAPES or label in RESERVED or not (
            source.endswith(_KIND_ENDS) and target.endswith(_KIND_ENDS)
        ):
            return None
        at, to = start("S"), start("T")
        return _new(_Edge, (
            "EDGE", word, start("W"), m.end(), label, start("L"), source, at, at + len(source),
            target, to, to + len(target), guard, -1 if guard is None else start("G") - 1,
        ))
    x, y, display = m.group("X", "Y", "D")
    display_at = -1 if display is None else start("D") - 1
    if m.lastgroup == "STAGE":  # KIND ("store")? (":" STRING)? ";"
        if word in KIND_WORDS and x in (None, "store") and y is None:
            return _new(_StageDecl, ("STAGE", word, start("W"), m.end(), x, start("X"),
                                     display, display_at))
    # "machine" ID ("constraint")? (":" STRING)? "{"
    elif word == "machine" and x and x not in RESERVED and y in (None, "constraint"):
        return _new(_Head, ("HEAD", word, start("W"), m.end(), x, start("X"), y, start("Y"),
                            display, display_at))
    return None


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


# -- raw syntax tree ----------------------------------------------------------


# a machine: its name, display name, constraint flag, stage declarations
# and submachines (lists of `_StageDecl` and `_RawMachine`)
_RawMachine = namedtuple("_RawMachine", "name name_at display constraint stages children")


_Ref = tuple[str, int, int]  # a reference's dotted text, its offset and the offset past it


def _part(tok: Optional[_Token]) -> tuple[Optional[str], int]:
    """A statement part read from a token: its text and offset, or None and -1."""
    return (None, -1) if tok is None else (tok.value, tok.offset)


# an event: the token of its id, its texts, its region's stage references
# (`_Ref`s) and edge tokens
_RawEvent = namedtuple("_RawEvent", "id_tok display time stage_refs edge_refs intensity")
_RawBehaviorEdge = namedtuple("_RawBehaviorEdge", "from_tok to_tok group")


class _Skip(Exception):
    """The statement being read cannot go on: it has been reported, and the
    parser skips to its end."""


class _Parser:
    """Reads the text one token at a time, as the grammar pulls them: ``cur``
    is the current token, and ``end`` the offset the next one is read from.
    Where a flow, trigger, stage declaration or machine head may start, the
    grammar first asks for the whole statement (see ``statement``); just
    past a statement or a machine's '}', ``cur`` is None until it does."""

    def __init__(self, text: str):
        self.text = text
        self.lines = _Lines(text)
        self.end = 0
        self.ahead: list[_Token] = []  # tokens read after ``cur``, the next one last
        self.comments: list[tuple[int, str]] = []  # (offset of '#', text)
        # unexpected characters and bad strings, reported before the rest
        self.lex_diagnostics: list[ParseDiagnostic] = []
        self.diagnostics: list[ParseDiagnostic] = []
        self.machines: list[_RawMachine] = []
        self.edges: list[_Edge] = []
        self.events: list[_RawEvent] = []
        self.behavior_edges: list[_RawBehaviorEdge] = []
        self.behavior_toks: list[_Token] = []
        self.cur: Optional[_Token] = None

    # tokens

    def read(self) -> _Token:
        """The next token of the text, read on its own: a statement's first
        word is an ID token.  An unspaced dotted reference such as
        ``A.B.process`` is one REF token; one followed by a further '.' is
        split back into ID and DOT tokens, as a reference written with
        blanks reads, and all but the first go to ``ahead``.  Comments and
        the diagnostics of characters and strings are kept aside."""
        text = self.text
        while (m := _TOKEN(text, self.end)) is not None:
            group = m.lastgroup
            start, end = m.span(group)
            self.end = end
            if group == "ID":
                return _new(_Token, ("ID", text[start:end], start))
            if group == "REF":
                start = m.start("ID")
                if not text.startswith(".", end):
                    return _new(_Token, ("REF", text[start:end], start))
                for name in reversed(text[start:end].split(".")[1:]):  # "A.B." reads as A . B .
                    end -= len(name)
                    self.ahead += (_new(_Token, ("ID", name, end)),
                                   _new(_Token, ("DOT", ".", end - 1)))
                    end -= 1
                return _new(_Token, ("ID", text[start:end], start))
            if group == "PUNCT":
                value = text[start:end]
                return _new(_Token, (_PUNCT[value], value, start))
            if group == "STRING":
                self.end = end + 1
                return _new(_Token, ("STRING", text[start:end], start - 1))
            if group == "QUOTE":
                value, self.end = _lex_string(text, start, self.lines, self.lex_diagnostics)
                return _new(_Token, ("STRING", value, start))
            if group == "COMMENT":
                body = text[start:end]
                self.comments.append((start - 1, body[1:] if body.startswith(" ") else body))
            else:
                self.lex_diagnostics.append(ParseDiagnostic(
                    self.lines.span(start, 1), "syntax", f"unexpected character {text[start]!r}"
                ))
        return _Token("EOF", "", len(text))

    def advance(self) -> _Token:
        tok = self.cur
        self.cur = self.ahead.pop() if self.ahead else self.read()
        return tok

    def peek(self) -> _Token:
        """The token after ``cur``."""
        if not self.ahead:
            self.ahead.append(self.read())
        return self.ahead[-1]

    def statement(self, kinds: tuple[str, ...]) -> Optional[tuple]:
        """The well-formed statement of one of ``kinds`` (EDGE, STAGE, HEAD)
        that starts here, read whole, after which ``cur`` is None; or None,
        with ``cur`` read.  The grammar asks only for the statements it
        takes where it asks, so none is read whole to be read again; any
        other statement text is read token by token into the same tuple."""
        if self.cur is None:
            m = _STATEMENT(self.text, self.end)
            statement = self.take(m, kinds)
            if statement:
                return statement
            self.cur = self.read()
            if m:  # a refused match starts at ``cur`` and is refused there too
                return None
        if self.cur.kind == "ID":  # after a comment, say, or just past a token
            return self.take(_STATEMENT(self.text, self.cur.offset), kinds)
        return None

    def take(self, m: Optional[re.Match], kinds: tuple[str, ...]) -> Optional[tuple]:
        statement = m and m.lastgroup in kinds and _statement(m)
        if statement:  # ``ahead`` is empty: nothing reads past a statement's first word
            self.end = m.end()
            self.cur = None
            return statement
        return None

    def error(self, message: str, tok: _Token) -> None:
        self.diagnostics.append(ParseDiagnostic(self.lines.token_span(tok), "syntax", message))

    def unexpected(self, what: str, tok: _Token) -> None:
        if tok.kind == "REF":  # a dotted name where one name belongs: report its first name
            tok = tok._replace(kind="ID", value=tok.value[: tok.value.index(".")])
        self.error(f"expected {what}, found {tok.value or tok.kind!r}", tok)

    def expect(self, kind: str, what: str) -> Optional[_Token]:
        tok = self.cur
        if tok.kind == kind:
            self.advance()
            return tok
        self.unexpected(what, tok)
        return None

    def need(self, kind: str, what: str) -> _Token:
        """``expect``, ending the statement if the token is not there."""
        tok = self.expect(kind, what)
        if tok is None:
            raise _Skip
        return tok

    def need_word(self, word: str) -> None:
        if not self.at_word(word):
            self.unexpected(repr(word), self.cur)
            raise _Skip
        self.advance()

    def at_word(self, word: str) -> bool:
        return self.cur.kind == "ID" and self.cur.value == word

    def option(self, mark: str, what: str) -> Optional[_Token]:
        """The STRING token after ``mark`` (':' or a word) if the cursor is at
        the mark; None if it is not, or (reported) if no STRING follows."""
        if self.cur.value != mark or self.cur.kind == "STRING":
            return None
        self.advance()
        return self.expect("STRING", what)

    def sync_statement(self) -> None:
        # one diagnostic per statement: skip to the next ';' or block edge
        while self.cur.kind not in ("EOF", "SEMI", "RBRACE"):
            self.advance()
        if self.cur.kind == "SEMI":
            self.advance()

    # grammar

    def parse_model(self) -> None:
        while True:
            statement = self.statement(_IN_MODEL)
            if statement:
                if statement.kind == "EDGE":
                    self.edges.append(statement)
                else:
                    self.parse_machine(statement)
                continue
            tok = self.cur
            if tok.kind == "EOF":
                return
            word = tok.value if tok.kind == "ID" else ""
            try:
                if word == "machine":
                    self.parse_machine(None)
                elif word == "flow" or word == "trigger":
                    self.edges.append(self.parse_edge())
                elif word == "event":
                    self.parse_event()
                elif word == "behavior":
                    self.parse_behavior()
                else:
                    self.unexpected("a declaration", tok)
                    self.advance()
                    raise _Skip
            except _Skip:
                self.sync_statement()

    def parse_name(self, what: str) -> _Token:
        tok = self.need("ID", f"{what} name")
        if tok.value in RESERVED:
            self.error(f"{tok.value!r} is a reserved word", tok)
            raise _Skip
        return tok

    def parse_machine(self, head: Optional[_Head]) -> None:
        """Parse a machine, whose ``head`` is given if it was read whole, and
        the machines nested in it.  The machines whose closing brace is
        still to come are kept on an explicit stack, so the nesting depth is
        not bounded by Python's recursion limit."""
        open_machines: list[_RawMachine] = []
        opening = True  # a machine head comes next: ``head``, or the tokens at ``cur``
        while True:
            try:
                if opening:
                    open_machines.append(self.parse_machine_head(head))
                    opening = False
                statement = self.statement(_IN_MACHINE)
                if statement:
                    if statement.kind == "HEAD":
                        opening, head = True, statement
                    else:
                        open_machines[-1].stages.append(statement)
                    continue
                tok = self.cur
                word = tok.value if tok.kind == "ID" else ""
                if word == "machine":
                    opening, head = True, None
                    continue
                inner = open_machines[-1]
                if tok.kind in ("RBRACE", "EOF"):
                    if tok.kind == "RBRACE":
                        self.cur = None  # passed over: a statement may start next
                    else:
                        self.unexpected("'}'", tok)
                    open_machines.pop()
                    if not open_machines:
                        self.machines.append(inner)
                        return
                    open_machines[-1].children.append(inner)
                elif word in KIND_WORDS:
                    inner.stages.append(self.parse_stage())
                else:
                    self.unexpected("a stage or submachine", tok)
                    self.advance()
                    raise _Skip
            except _Skip:
                self.sync_statement()
                if not open_machines:
                    return
                opening = False

    def parse_machine_head(self, head: Optional[_Head]) -> _RawMachine:
        """The machine ``head`` opens, or parse ``machine ID constraint? (:
        STRING)? {`` token by token."""
        if head:
            return _RawMachine(head.name, head.name_at, head.display,
                               head.constraint is not None, [], [])
        self.advance()  # 'machine'
        name_tok = self.parse_name("machine")
        constraint = self.at_word("constraint")
        if constraint:
            self.advance()
        display = self.option(":", "machine display name")
        self.need("LBRACE", "'{'")
        return _RawMachine(name_tok.value, name_tok.offset, display and display.value,
                           constraint, [], [])

    def parse_stage(self) -> _StageDecl:
        tok = self.advance()  # a stage kind word
        store = self.cur if self.at_word("store") else None
        if store:
            self.advance()
        label = self.option(":", "stage label")
        end = self.need("SEMI", "';'").offset + 1
        return _new(_StageDecl, ("STAGE", tok.value, tok.offset, end, *_part(store), *_part(label)))

    def parse_ref(self) -> _Ref:
        """Parse ``machine.path.kind``: usually one REF token, but any mix of
        ID and REF tokens joined by DOT tokens spells the same reference."""
        first = last = self.cur
        if first.kind != "REF" and first.kind != "ID":
            self.unexpected("stage reference", first)
            raise _Skip
        dotted = first.value
        self.advance()
        while self.cur.kind == "DOT":
            self.advance()
            last = self.cur
            if last.kind != "ID" and last.kind != "REF":
                self.unexpected("name or stage kind", last)
                raise _Skip
            dotted += "." + last.value
            self.advance()
        path, _, word = dotted.rpartition(".")
        if not path or word not in KIND_WORDS:
            # reported on the word itself, the last name of the last token
            offset = last.offset + len(last.value) - len(word)
            self.error("a stage reference ends in a stage kind (machine.kind)",
                       _Token("ID", word, offset))
            raise _Skip
        return dotted, first.offset, last.offset + len(last.value)

    def parse_edge(self) -> _Edge:
        head = self.advance()  # 'flow' | 'trigger'
        dashed = head.value == "trigger"
        label = None
        if self.cur.kind == "ID" and self.peek().kind == "COLON":
            label = self.parse_name("trigger" if dashed else "flow")
            self.advance()  # ':'
        source = self.parse_ref()
        self.need("DARROW" if dashed else "ARROW", "'=>'" if dashed else "'->'")
        target = self.parse_ref()
        guard = self.option("if", "guard text") if dashed else None
        end = self.need("SEMI", "';'").offset + 1
        return _new(_Edge, (
            "EDGE", head.value, head.offset, end, *_part(label), *source, *target, *_part(guard),
        ))

    def parse_event(self) -> None:
        self.advance()  # 'event'
        id_tok = self.parse_name("event")
        display = self.option(":", "event name")
        self.need("LBRACE", "'{'")
        self.need_word("time")
        time = self.need("STRING", "time annotation").value
        self.need("SEMI", "';'")
        self.need_word("region")
        self.need("LBRACE", "'{'")
        stage_refs: list[_Ref] = []
        edge_refs: list[_Token] = []
        try:
            while self.cur.kind not in ("RBRACE", "EOF"):
                if self.at_word("edge"):
                    self.advance()
                    tok = self.expect("ID", "edge id")
                    if tok:
                        edge_refs.append(tok)
                else:
                    stage_refs.append(self.parse_ref())
        except _Skip:
            pass
        self.need("RBRACE", "'}'")
        intensity = None
        if self.at_word("intensity"):
            intensity = self.option("intensity", "intensity text")
            self.expect("SEMI", "';'")
        self.need("RBRACE", "'}'")
        self.events.append(_RawEvent(id_tok, display and display.value, time, stage_refs,
                                     edge_refs, intensity and intensity.value))

    def parse_behavior(self) -> None:
        self.behavior_toks.append(self.advance())  # 'behavior'
        self.need("LBRACE", "'{'")
        while self.cur.kind not in ("RBRACE", "EOF"):
            try:
                from_tok = self.need("ID", "event id")
                self.need("ARROW", "'->'")
                to_tok = self.need("ID", "event id")
                group = self.option("excl", "exclusion group")
                self.need("SEMI", "';'")
            except _Skip:
                self.sync_statement()
                continue
            self.behavior_edges.append(_RawBehaviorEdge(from_tok, to_tok, group and group.value))
        self.expect("RBRACE", "'}'")


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
