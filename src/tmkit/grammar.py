"""The parser of the model language that `tmkit.dsl` resolves: it reads the
text one token at a time, as its grammar asks for them, into a raw syntax
tree of names and offsets.

Most of a model is flows and stage declarations.  Where the grammar takes a
flow, trigger or machine head (at the top level) or a stage declaration or
machine head (in a machine), it first asks `tmkit.lexer` for the whole
statement, and keeps a well-formed one as one flat tuple: one object for the
garbage collector to track (see `tmkit.dsl._GEN0_COLLECTIONS_PER_200_PARSES`).
After a statement the pattern is tried before the next token is read, so a
run of well-formed statements is read one match each.  Any other statement
text, and everything outside those places, is read token by token, and a
flow, trigger or stage read so is built into the same tuple.  Where a REF
stands in place of a single name, a diagnostic reports its first name; a bad
kind word is reported on the reference's last name.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Optional

from .core import KIND_WORDS, RESERVED
from .lexer import (
    _IN_MACHINE,
    _IN_MODEL,
    _PUNCT,
    _STATEMENT,
    _TOKEN,
    ParseDiagnostic,
    _Edge,
    _Head,
    _Lines,
    _StageDecl,
    _Token,
    _lex_string,
    _new,
    _statement,
)


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
