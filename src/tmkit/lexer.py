"""Tokens and whole statements of the model language that `tmkit.dsl` parses.

A token is one match of a regular expression with a named group per token
class, tried from the end of the previous token; a newline is a blank like
any other.  An identifier followed without blanks by ``.identifier`` parts is
one REF token (``A.B.process``); if a further '.' follows (``A.B.``), the run
is split back into ID and DOT tokens, which is also what a reference written
with blanks (``A . process``) reads as, and the parser accepts any mix of the
two.  Only a string literal that holds a backslash or is never closed leaves
the pattern for a character loop, `_lex_string`, which reports bad escapes
and unterminated strings.

A second pattern, `_STATEMENT`, reads the shape of a whole flow, trigger,
stage declaration or machine head, with any words in place of the keywords;
`_statement` checks the words (keyword and arrow, a guard only on a trigger,
references ending in a stage kind, no reserved label or machine name) and
keeps a well-formed statement as one flat tuple of its first word, its
offsets and the text and offset of each ID, REF and STRING part.

Each token carries its offset in the text, not a line and column.  Those are
looked up, by bisection in an index of line starts built on first use
(`_Lines`), only for positions that are reported: diagnostics and, when the
text has comments, the lines that attach comments to elements.  An escaped
newline stays in the string's value and still starts a new source line.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from typing import Optional

from .core import KIND_WORDS, RESERVED, Record


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
