"""Parser, printer, and diagnostics."""

from __future__ import annotations

import ast
import bisect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import documents, event_mutations, mutated_texts
from test_model import two_machine_chain
from test_transform import relay_text
from tmkit import (
    ActionKind,
    BehavioralModel,
    BehaviorEdge,
    Event,
    Flow,
    Machine,
    ModelError,
    Region,
    Stage,
    TmError,
    Trigger,
    document_to_json,
    dsl,
    has_errors,
    model_isomorphic,
    parse,
    parse_or_raise,
    print_model,
    validate_document,
)
from tmkit.model import natural_key


def test_empty_text_parses_to_empty_document():
    result = parse("")
    assert result.ok
    assert result.model == dsl.StaticModel()
    assert result.events == ()
    assert result.behavior == BehavioralModel()


def test_empty_document_prints_to_empty_text():
    assert print_model(dsl.StaticModel()) == ""


def test_two_machine_chain_example():
    text = """
    machine A { create; release; transfer; }
    machine B { transfer; receive; process; }
    flow A.release -> A.transfer;
    flow A.transfer -> B.transfer;
    flow B.transfer -> B.receive;
    flow B.receive -> B.process;
    """
    result = parse_or_raise(text)
    model = result.model
    assert len(list(model.all_machines())) == 2
    assert len(list(model.all_stages())) == 6
    assert len(model.flows) == 4
    assert model_isomorphic(model, two_machine_chain())
    # auto-assigned edge ids in declaration order
    assert [f.id for f in model.flows] == ["f1", "f2", "f3", "f4"]
    # print of parse is a fixpoint
    out = print_model(result.model, result.events, result.behavior)
    again = parse_or_raise(out)
    assert print_model(again.model, again.events, again.behavior) == out


def test_unresolved_flow_reference_has_span():
    result = parse("flow X.release -> Y.receive;\n")
    assert not result.ok
    codes = {d.code for d in result.diagnostics}
    assert codes == {"unresolved-ref"}
    first = result.diagnostics[0]
    assert first.span.line == 1
    assert first.span.column == 6  # inside "X.release"
    assert first.span.length >= len("X.release")


def test_a_region_naming_an_edge_dropped_for_its_ends_adds_no_error():
    text = (
        "machine A { create; }\nflow f: A.create -> A.process;\n"
        'event E { time "t"; region { A.create edge f } }\n'
    )
    assert [str(d) for d in parse(text).diagnostics] == [
        "2:21: unresolved-ref: machine 'A' has no process stage"]
    # a name that is no edge at all, a machine's or a stage's, is still unknown
    text = (
        "machine A { create; }\nflow f: A.create -> A.process;\n"
        'event E { time "t"; region { A.create edge A } }\n'
    )
    assert [str(d) for d in parse(text).diagnostics] == [
        "2:21: unresolved-ref: machine 'A' has no process stage",
        "3:44: unresolved-ref: unknown edge 'A'",
    ]


def test_syntax_error_is_reported_once_per_statement():
    result = parse("machine A { create broken; process; }")
    assert not result.ok
    assert sum(1 for d in result.diagnostics if d.code == "syntax") == 1


def test_duplicate_machine_id():
    result = parse("machine A { create; }\nmachine A { process; }")
    assert [d.code for d in result.diagnostics] == ["V1"]
    assert result.diagnostics[0].span.line == 2


def test_duplicate_stage_kind_diagnostic():
    # the repeated stage id, at the repeat, and the machine's repeated kind
    result = parse("machine A { create; create; }")
    assert [str(d) for d in result.diagnostics] == [
        "1:21: V1: duplicate id 'A.create' (stage vs stage)",
        "1:9: V5: machine 'A' has more than one create stage",
    ]


def test_reserved_word_rejected_as_name():
    result = parse("machine flow { create; }")
    assert not result.ok
    assert result.diagnostics[0].code == "syntax"


def test_unterminated_string():
    result = parse('machine A { create : "oops; }')
    assert any(d.code == "syntax" and "unterminated" in d.message for d in result.diagnostics)


def test_event_and_behavior_round_trip():
    text = (
        "machine A { create; process; }\n"
        "flow f1: A.create -> A.process;\n"
        'event E1 : "first" { time "t1"; region { A.create A.process edge f1 } }\n'
        'event E2 { time "t2"; region { A.process } intensity "low"; }\n'
        "behavior { E1 -> E2 excl \"g\"; }\n"
    )
    result = parse_or_raise(text)
    assert {e.id for e in result.events} == {"E1", "E2"}
    e1 = result.events[0]
    assert e1.name == "first"
    assert e1.region.stage_ids == {"A.create", "A.process"}
    assert e1.region.edge_ids == {"f1"}
    assert result.events[1].intensity == "low"
    assert result.behavior.edges[0].exclusive_group == "g"
    out = print_model(result.model, result.events, result.behavior)
    again = parse_or_raise(out)
    assert again.events == result.events
    assert again.behavior == result.behavior


def test_multiple_behavior_blocks_merge():
    text = (
        "machine A { create; }\n"
        'event E1 { time "t1"; region { A.create } }\n'
        'event E2 { time "t2"; region { A.create } }\n'
        'event E3 { time "t3"; region { A.create } }\n'
        "behavior { E1 -> E2; }\n"
        "behavior { E2 -> E3; }\n"
    )
    result = parse_or_raise(text)
    assert {(e.source, e.target) for e in result.behavior.edges} == {("E1", "E2"), ("E2", "E3")}


def test_region_edge_with_endpoint_outside_is_invalid():
    text = (
        "machine A { create; process; release; }\n"
        "flow f1: A.create -> A.process;\n"
        'event E1 { time "t"; region { A.release edge f1 } }\n'
    )
    assert [str(d) for d in parse(text).diagnostics] == [
        "3:7: V8: region edge 'f1' has an endpoint outside the region"]


@pytest.mark.parametrize("text, messages", [
    # a broken rule gives no other errors: the repeated machine is still
    # built, so a stage under it resolves and the first machine's lack of a
    # process stage is no error; and a self-loop is still a flow a region
    # can name
    ("machine A { create; }\nmachine A { process; machine B { create; } }\n"
     "flow A.B.create -> A.process;\n", ["2:9: V1: duplicate id 'A' (machine vs machine)"]),
    ('machine A { create; process; }\nflow A.create -> A.create;\n'
     'event E { time "t"; region { A.create edge f1 } }\n',
     ["2:1: V2: flow 'f1' is a self-loop on 'A.create'"]),
    ("machine A { create; process; }\ntrigger A.create => A.create;",
     ["2:1: V4: trigger 't1' is a self-loop on 'A.create'"]),
    ("machine A { create; process; }\nflow A: A.create -> A.process;",
     ["2:6: V1: duplicate id 'A' (machine vs flow)"]),
    ("machine A constraint { create; }", ["1:9: V7: constraint machine 'A' has no process stage"]),
    ('machine A { create; }\nevent A { time "t"; region { A.create } }',
     ["2:7: V8: duplicate id 'A' (machine vs event)"]),
    ('machine A { create; }\nflow f1: A.create -> A.create;\nevent f1 { time "t"; region { A.create } }',
     ["2:6: V2: flow 'f1' is a self-loop on 'A.create'",
      "3:7: V8: duplicate id 'f1' (flow vs event)"]),
    ('machine A { create; }\nevent E { time "t"; region { A.create } }\n'
     'event E { time "u"; region { A.create } }',
     ["3:7: V8: event id declared more than once"]),
    ('machine A { create; }\nevent E { time " "; region { } }',
     ["2:7: V8: event has no time annotation", "2:7: V8: event region is empty"]),
    # a region that names what does not resolve is reported there only
    ('machine A { create; }\nevent E { time "t"; region { Z.create } }',
     ["2:30: unresolved-ref: unknown machine 'Z'"]),
    ('machine A { create; }\nflow f1: A.create -> Z.create;\n'
     'event E { time "t"; region { edge f1 } }',
     ["2:22: unresolved-ref: unknown machine 'Z'"]),
    # a behavior problem is reported at the declaration of its event
    ('machine A { create; }\nevent E { time "t"; region { A.create } }\n'
     'event F { time "u"; region { A.create } }\nbehavior { E -> F; F -> F; E -> F; }',
     ["3:7: V9: self-edge on event 'F'", "2:7: V9: duplicate edge 'E' -> 'F'"]),
])
def test_text_input_breaks_the_model_rules_under_their_codes(text, messages):
    assert [str(d) for d in parse(text).diagnostics] == messages


def test_a_valid_text_is_checked_once():
    result = parse_or_raise("machine A { create; process; }\nflow A.create -> A.process;\n")
    # the model the resolver checked, its problems kept
    assert result.model.__dict__["_problems"] == ()


def test_behavior_edge_to_undeclared_event():
    text = 'machine A { create; }\nevent E1 { time "t"; region { A.create } }\nbehavior { E1 -> E99; }'
    result = parse(text)
    assert [str(d) for d in result.diagnostics] == [
        "3:18: V9: edge references undeclared event 'E99'"]


def test_comments_attach_and_survive_fmt():
    text = (
        "# top of file\n"
        "\n"
        "# about A\n"
        "machine A {\n"
        "  # about the create stage\n"
        "  create;\n"
        "}\n"
        "\n"
        "# about the flow\n"
        "flow f1: A.create -> A.create;\n"
    )
    # self-loop is invalid; fix target
    text = text.replace("A.create -> A.create", "A.create -> B.process")
    text += "machine B { process; }\n"
    result = parse(text)
    assert result.ok
    assert result.comments.header == ("top of file",)
    assert result.comments.items["A"] == ("about A",)
    assert result.comments.items["A.create"] == ("about the create stage",)
    assert result.comments.items["f1"] == ("about the flow",)
    out = print_model(result.model, result.events, result.behavior, result.comments)
    assert "# top of file" in out
    again = parse_or_raise(out)
    assert print_model(again.model, again.events, again.behavior, again.comments) == out


@pytest.mark.parametrize(
    "text",
    [
        "machine A { create",  # unterminated block
        "machine A { creat; }",  # misspelled kind
        "flow ;",  # missing refs
        "machine A { create; }\nflow A.create -> ;",
        'event E1 { time "t"; region { } }',  # empty region
        "behavior { E1 -> ; }",
        "machine 9bad { }",  # identifier cannot start with a digit
        "machine A { create; } trigger A.create -> A.create;",  # wrong arrow
        "machine A {",  # EOF right after a one-character punctuation mark
        'machine A { create : "ab\\',  # backslash at the end of the text
        'machine A { create : "ab\\\ncd"; }',  # escaped newline inside a string
    ],
)
def test_diagnostic_spans_stay_inside_the_text(text):
    result = parse(text)
    assert not result.ok
    lines = text.split("\n")
    for diag in result.diagnostics:
        assert 1 <= diag.span.line <= len(lines)
        line = lines[diag.span.line - 1]
        assert 1 <= diag.span.column <= len(line) + 1
        assert diag.span.length >= 1
        assert diag.message
        assert "\n" not in diag.message


def test_print_rejects_sibling_token_collisions():
    from tmkit import Machine, StaticModel

    # two submachines whose ids share the final segment cannot be printed
    root = Machine(
        id="A",
        name="A",
        submachines=(Machine(id="A.x", name="x"), Machine(id="B.x", name="x")),
    )
    model = StaticModel.build((root,))
    with pytest.raises(dsl.PrintError, match="share the segment"):
        print_model(model)


def test_print_rejects_root_token_collisions():
    from tmkit import Machine, Stage, StaticModel
    from tmkit.model import ActionKind

    # two roots whose ids share the final segment would both print as `machine a`
    model = StaticModel.build(tuple(
        Machine(id=f"{p}.a", name="a", stages=(Stage(f"{p}.a.create", ActionKind.CREATE, f"{p}.a"),))
        for p in ("X", "Y")
    ))
    with pytest.raises(dsl.PrintError, match="^machines at the top level share the segment 'a'$"):
        print_model(model)


def test_print_is_deterministic():
    result = parse_or_raise("machine A { create; process; }\nflow A.process -> A.create;")
    one = print_model(result.model, result.events, result.behavior)
    two = print_model(result.model, result.events, result.behavior)
    assert one == two


def test_print_rejects_unprintable_ids():
    from tmkit import Machine, Stage, StaticModel
    from tmkit.model import ActionKind

    model = StaticModel.build(
        (Machine(id="bad name", name="x", stages=(Stage("bad name.create", ActionKind.CREATE, "bad name"),)),)
    )
    try:
        print_model(model)
    except dsl.PrintError:
        pass
    else:
        raise AssertionError("expected PrintError")


def test_format_text_is_idempotent():
    from tmkit import format_text

    messy = "machine  B{process;}\nmachine A { create; }\nflow A.create->B.process;"
    once = format_text(messy)
    assert format_text(once) == once
    assert once.index("machine A") < once.index("machine B")


def test_string_escapes_round_trip():
    text = 'machine A { create : "a\\"b\\\\c\\nd"; }'
    result = parse_or_raise(text)
    stage = next(iter(result.model.all_stages()))
    assert stage.label == 'a"b\\c\nd'
    out = print_model(result.model)
    again = parse_or_raise(out)
    assert next(iter(again.model.all_stages())).label == stage.label


@settings(max_examples=120, deadline=None)
@given(documents())
def test_parse_print_round_trip(doc):
    model, events, behavior = doc
    out = print_model(model, events, behavior)
    result = parse_or_raise(out)
    assert model_isomorphic(result.model, model)
    assert result.events == tuple(sorted(events, key=lambda e: dsl.natural_key(e.id)))
    assert result.behavior == behavior
    # printing the reparse reproduces the bytes
    assert print_model(result.model, result.events, result.behavior) == out


# -- lexer ----------------------------------------------------------------------


_STATEMENT_KINDS = ("EDGE", "STAGE", "HEAD")


def read_tokens(text, statements=False):
    """Every token of `text` as the parser's reader reads it, the final EOF
    included, and its comments and character and string diagnostics.  With
    ``statements``, a whole statement is asked for at each token, so a
    well-formed flow, trigger, stage declaration or machine head is one
    token."""
    reader = dsl._Parser(text)
    kinds = _STATEMENT_KINDS if statements else ()
    tokens = []
    while not tokens or tokens[-1].kind != "EOF":
        tokens.append(reader.statement(kinds) or reader.advance())
    return tokens, reader.comments, reader.lex_diagnostics


def test_eof_after_trailing_punctuation_sits_one_past_the_line():
    result = parse("machine A {")
    assert [str(d) for d in result.diagnostics] == ["1:12: syntax: expected '}', found 'EOF'"]


def test_escaped_newline_in_a_string_starts_a_new_line():
    text = 'machine A {\n  create : "ab\\\ncd";\n  process;\n}\n$'
    tokens, _, diagnostics = read_tokens(text)
    assert [str(d) for d in diagnostics] == [
        "2:15: syntax: unknown escape \\ followed by '\\n'",
        "6:1: syntax: unexpected character '$'",
    ]
    position = dsl._Lines(text).position
    semi = next(t for t in tokens if t.kind == "SEMI")
    assert position(semi.offset) == (3, 4)
    process = next(t for t in tokens if t.value == "process")
    assert position(process.offset) == (4, 3)
    assert next(t for t in tokens if t.kind == "STRING").value == "ab\ncd"


def test_backslash_at_end_of_text_stays_inside_the_text():
    text = 'machine A { create : "ab\\'
    tokens, _, diagnostics = read_tokens(text)
    assert [str(d) for d in diagnostics] == [
        "1:25: syntax: unknown escape \\",
        "1:22: syntax: unterminated string literal",
    ]
    assert diagnostics[1].span.length == 4  # '"ab\' and no further
    assert dsl._Lines(text).position(tokens[-1].offset) == (1, 26)


_OLD_PUNCT = {"->": "ARROW", "=>": "DARROW", "{": "LBRACE", "}": "RBRACE", ";": "SEMI",
              ":": "COLON", ".": "DOT"}
_OLD_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_OLD_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def char_lex(text):
    """The character-at-a-time lexer the master pattern replaced, kept as the
    reference.  Tokens are (kind, value, line, column) tuples and diagnostics
    (line, column, length, code, message) tuples."""
    tokens, comments, diagnostics = [], [], []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            j = text.find("\n", i)
            j = n if j < 0 else j
            body = text[i + 1 : j]
            comments.append((line, body[1:] if body.startswith(" ") else body))
            col += j - i
            i = j
            continue
        if text[i : i + 2] in _OLD_PUNCT:
            tokens.append((_OLD_PUNCT[text[i : i + 2]], text[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in _OLD_PUNCT:
            tokens.append((_OLD_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            out = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    closed = True
                    break
                if c == "\n":
                    break
                if c == "\\":
                    esc = text[i + 1 : i + 2]
                    if esc not in _OLD_ESCAPES:
                        diagnostics.append((line, col, 2, "syntax", f"unknown escape \\{esc}"))
                        out.append(esc)
                    else:
                        out.append(_OLD_ESCAPES[esc])
                    i += 2
                    col += 2
                    continue
                out.append(c)
                i += 1
                col += 1
            if not closed:
                diagnostics.append(
                    (start_line, start_col, max(1, col - start_col), "syntax",
                     "unterminated string literal")
                )
            tokens.append(("STRING", "".join(out), start_line, start_col))
            continue
        m = _OLD_IDENT.match(text, i)
        if m:
            word = m.group(0)
            tokens.append(("ID", word, line, col))
            i = m.end()
            col += len(word)
            continue
        diagnostics.append((line, col, 1, "syntax", f"unexpected character {ch!r}"))
        i += 1
        col += 1
    tokens.append(("EOF", "", line, col))
    return tokens, comments, diagnostics


def lex_as_char_lex_did(text):
    """Read `text` with the parser's reader, no statement whole, and restate
    its output the way `char_lex` reported it.

    The reader gives each token its offset, where `char_lex` gave a line and
    column, and makes one REF token of an unspaced dotted reference, where
    `char_lex` made ID and DOT tokens.  Both are restated here.
    The character lexer had three position faults.  It counted an escaped
    newline inside a string as two columns instead of a line break; it moved
    the EOF token two columns on from a final one-character punctuation mark,
    as if it were '->'; and after a backslash at the very end of the text it
    stepped one column past the end, lengthening the unterminated-string
    diagnostic by one.  Each fault is applied here to the true positions,
    so every other difference between the two lexers still fails the test.
    It also wrote an unknown non-printable escape raw into its message, which
    the reader now quotes to keep each diagnostic on one line; that is restated
    back too.
    """
    tokens, comments, diagnostics = read_tokens(text)
    line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    escaped = sorted(
        line_starts[d.span.line - 1] + d.span.column  # the newline after the backslash
        for d in diagnostics
        if d.message == "unknown escape \\ followed by '\\n'"
    )
    plain_starts = [s for s in line_starts if s - 1 not in escaped]

    def old_pos(offset):
        start = plain_starts[bisect.bisect_right(plain_starts, offset) - 1]
        return bisect.bisect_right(plain_starts, offset), offset - start + 1

    old_tokens = []
    for t in tokens:
        if t.kind == "REF":
            offset = t.offset
            for i, name in enumerate(t.value.split(".")):
                if i:
                    old_tokens.append(("DOT", ".", *old_pos(offset - 1)))
                old_tokens.append(("ID", name, *old_pos(offset)))
                offset += len(name) + 1
        else:
            old_tokens.append((t.kind, t.value, *old_pos(t.offset)))
    old_comments = [(old_pos(offset)[0], body) for offset, body in comments]
    quoted = "unknown escape \\ followed by "

    def old_message(message):
        if message.startswith(quoted):
            return "unknown escape \\" + ast.literal_eval(message[len(quoted):])
        return message

    old_diags = [
        (*old_pos(line_starts[d.span.line - 1] + d.span.column - 1), d.span.length, d.code,
         old_message(d.message))
        for d in diagnostics
    ]
    overshoot = 0
    if len(tokens) > 1:
        last = tokens[-2]
        if last.kind in ("LBRACE", "RBRACE", "SEMI", "COLON", "DOT") and last.offset == len(text) - 1:
            overshoot = 1
    if any(d.message == "unknown escape \\" for d in diagnostics):
        overshoot = 1
        line, column, length, code, message = old_diags[-1]
        assert message == "unterminated string literal"
        old_diags[-1] = (line, column, length + 1, code, message)
    kind, value, line, column = old_tokens[-1]
    old_tokens[-1] = (kind, value, line, column + overshoot)
    return old_tokens, old_comments, old_diags


# every character that starts a token or a string escape, the blanks and line
# breaks, the halves of '->' and '=>', a vertical tab, a non-ASCII letter, '$'
_LEX_ALPHABET = 'aZ9_{};:.->="\\ntr#\r\t\n \x0bé$'


# whole tokens and string pieces, so that escapes, escaped newlines and the
# lines after them turn up often enough
_LEX_PIECES = ("machine", "A.b", " ", "\n", "{", "}", ";", "->", '"', '"x y"', "\\", "\\\n",
               '\\"', "\\q", "# c\n", "\r\n", "$")


@settings(max_examples=1500, deadline=None)
@given(
    st.text(alphabet=_LEX_ALPHABET, max_size=40)
    | st.lists(st.sampled_from(_LEX_PIECES), max_size=30).map("".join)
)
def test_master_pattern_lexer_matches_the_character_lexer(text):
    assert lex_as_char_lex_did(text) == char_lex(text)


def _large_document(machines: int) -> str:
    """A valid document of about 110 KiB for 400 machines, with escaped
    labels, comments, CRLF line ends and every statement form."""
    parts = ["# generated document\r\n"]
    for i in range(machines):
        parts.append(
            f"# machine {i}\nmachine M{i} constraint : \"m\\\"{i}\\\\ \\t\" {{\n"
            f"  create store : \"made {i}\";\r\n  process;\n  release;\n  transfer;\n"
            f"  receive;\n  machine S{i} {{ process : \"plain {i}\"; }}\n}}\n"
        )
    for i in range(machines - 1):
        parts.append(
            f"flow f{i}: M{i}.release -> M{i + 1}.receive;\n"
            f"trigger t{i}: M{i}.S{i}.process => M{i + 1}.process if \"x\\n{i}\";  # t{i}\n"
        )
    parts.append(
        'event E1 : "e" { time "t"; region { M0.release M1.receive edge f0 } intensity "i"; }\n'
        'event E2 { time "u"; region { M1.process } }\n'
        'behavior { E1 -> E2 excl "g"; }\n'
    )
    return "".join(parts)


def test_lexers_agree_on_the_corpus_and_a_large_document():
    from tmkit.corpus import mentcare_path

    for text in (mentcare_path().read_text(encoding="utf-8"), _large_document(400)):
        assert lex_as_char_lex_did(text) == char_lex(text)


# -- references as one token, positions as offsets --------------------------------


_STRING_OR_REF = re.compile(r'"(?:[^"\\]|\\.)*"|([A-Za-z][A-Za-z0-9_]*(?:\.[A-Za-z][A-Za-z0-9_]*)+)')


@settings(max_examples=150, deadline=None)
@given(documents(), st.randoms(use_true_random=False))
def test_references_with_blanks_parse_like_unspaced_ones(doc, rng):
    model, events, behavior = doc
    text = print_model(model, events, behavior)

    def respace(m):
        if m.group(1) is None:  # a string literal stays as it is
            return m.group(0)
        names = m.group(1).split(".")
        out = names[0]
        for name in names[1:]:
            out += rng.choice([" . ", " .", ". ", "\n.\n", "."]) + name
        return out

    spaced = _STRING_OR_REF.sub(respace, text)
    assert parse_or_raise(spaced) == parse_or_raise(text)
    assert dsl.format_text(spaced) == text


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("A.b", [("REF", "A.b")]),
        ("A.B.process;", [("REF", "A.B.process"), ("SEMI", ";")]),
        ("A . b", [("ID", "A"), ("DOT", "."), ("ID", "b")]),
        ("A.b.", [("ID", "A"), ("DOT", "."), ("ID", "b"), ("DOT", ".")]),
        ("A.9", [("ID", "A"), ("DOT", ".")]),  # and '9' is an unexpected character
        ("A.b->C.d", [("REF", "A.b"), ("ARROW", "->"), ("REF", "C.d")]),
    ],
)
def test_an_unspaced_dotted_name_is_one_token(text, tokens):
    lexed, _, _ = read_tokens(text)
    assert [(t.kind, t.value) for t in lexed[:-1]] == tokens


@pytest.mark.parametrize(
    "text, message",
    [
        # a dotted name where one name belongs is reported by its first name
        ("machine A.b { }", "1:9: syntax: expected machine name, found 'A'"),
        ("flow A.create B.process;", "1:15: syntax: expected '->', found 'B'"),
        # a bad kind word is reported on itself, the reference's last name
        ("machine A { create; }\nflow A.create -> A.B.bogus;", "2:22: syntax: a stage reference "
         "ends in a stage kind (machine.kind)"),
        ("machine A { create; }\nflow A.create -> A .\nbogus;", "3:1: syntax: a stage reference "
         "ends in a stage kind (machine.kind)"),
        ("machine A { create; }\nflow create -> A.create;", "2:6: syntax: a stage reference "
         "ends in a stage kind (machine.kind)"),
    ],
)
def test_diagnostics_at_reference_tokens(text, message):
    assert str(parse(text).diagnostics[0]) == message


def test_an_unresolved_reference_spans_its_text():
    result = parse("machine A { create; }\nflow A.create -> B.C . process;")
    [diag] = result.diagnostics
    assert str(diag) == "2:18: unresolved-ref: unknown machine 'B.C'"
    assert diag.span.length == len("B.C . process")


def test_position_lookups_do_not_scan_the_text_per_diagnostic():
    # 100,000 diagnostics on one line: a scan back to the line start for each
    # one would not finish
    diagnostics = parse("$" * 100_000).diagnostics
    assert len(diagnostics) == 100_000
    assert str(diagnostics[-1]) == "1:100000: syntax: unexpected character '$'"


def test_a_comment_goes_to_the_last_element_declared_on_the_next_line():
    # machines are declared before flows, and a machine before its stages
    text = "# about A\nmachine A { create; }\n# about f\nflow A.create -> B.process; machine B { process; }\n"
    assert parse(text).comments.items == {"A.create": ("about A",), "f1": ("about f",)}


# -- statements as one token ------------------------------------------------------


# the parts of each kind of statement token in field order, with the kind of
# token each part is read as one by one
_PART_KINDS = {
    "EDGE": (("label", "ID"), ("source", "REF"), ("target", "REF"), ("guard", "STRING")),
    "STAGE": (("store", "ID"), ("label", "STRING")),
    "HEAD": (("name", "ID"), ("constraint", "ID"), ("display", "STRING")),
}


def statement_parts(tok):
    """The parts of a statement token as the tokens they stand for, None for
    an absent part, whose offset must be -1."""
    parts = []
    for name, kind in _PART_KINDS[tok.kind]:
        value, offset = getattr(tok, name), getattr(tok, f"{name}_at")
        assert (value is None) == (offset == -1)
        parts.append(None if value is None else dsl._Token(kind, value, offset))
    return parts


def test_well_formed_statements_are_one_token_each():
    text = (
        'machine A constraint : "a" {\n  create store : "made";\n  process;\n'
        "  machine B { receive; }\n}\n"
        "flow A.create -> A.process;\nflow f: A.process->A.B.receive;\n"
        'trigger t1: A.B.receive => A.process if "ok";\ntrigger A.process => A.create;\n'
    )
    tokens = read_tokens(text, statements=True)[0]
    assert [t.kind for t in tokens] == ["HEAD", "STAGE", "STAGE", "HEAD", "STAGE", "RBRACE",
                                        "RBRACE", "EDGE", "EDGE", "EDGE", "EDGE", "EOF"]
    head, stage = tokens[:2]
    assert (head.value, head.offset, head.end) == ("machine", 0, text.index("{") + 1)
    assert [p and (p.kind, p.value) for p in statement_parts(head)] == [
        ("ID", "A"), ("ID", "constraint"), ("STRING", "a")]
    assert [p and (p.kind, p.value) for p in statement_parts(stage)] == [
        ("ID", "store"), ("STRING", "made")]
    # the statement is one flat tuple: no token and no tuple inside it
    assert not any(isinstance(field, tuple) for tok in tokens for field in tok)
    assert parse_or_raise(text).model.triggers[0].guard == "ok"


def test_parsing_a_relay_document_leaves_the_collector_asleep():
    """Count the collections 200 parses start in a fresh interpreter, through
    `gc.callbacks`; each one is started by the gen-0 count outgrowing its
    threshold.  The thresholds are pinned to Python 3.10-3.12's defaults:
    3.13's gen-0 default of 2000 would let a parser keeping three times as
    many objects alive pass too.  No clock is read."""
    script = (
        "import gc, sys\n"
        "from tmkit import dsl\n"
        "text = sys.stdin.read()\n"
        "gc.set_threshold(700, 10, 10)\n"
        "started = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and started.append(info))\n"
        "for _ in range(200):\n"
        "    dsl.parse(text)\n"
        "print(gc.isenabled(), len(started))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path_var = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "PYTHONPATH": path_var}
    out = subprocess.run([sys.executable, "-c", script], input=relay_text(3, 7, 3),
                         capture_output=True, text=True, env=env, check=True).stdout
    enabled, collections = out.split()
    assert enabled == "True"
    assert int(collections) <= dsl._GEN0_COLLECTIONS_PER_200_PARSES


def test_a_statement_is_read_whole_only_where_the_parser_keeps_it(monkeypatch):
    made = []
    statement = dsl._statement
    monkeypatch.setattr(dsl, "_statement", lambda m: made.append(statement(m)) or made[-1])
    text = (
        "create store;\nmachine A { create; flow A.create -> A.create; machine B { process; } }\n"
        'flow A.create -> A.B.process;\nevent E { time "t"; region { machine C { A.create } } }\n'
    )
    parser = dsl._Parser(text)
    parser.parse_model()
    # not the stage at the top level, the flow in a machine or the head in a region
    assert [s.kind for s in made if s] == ["HEAD", "STAGE", "HEAD", "STAGE", "EDGE"]
    assert parser.edges == [s for s in made if s][-1:]


@pytest.mark.parametrize(
    "text",
    [
        "flow A.create # note\n -> B.process;",  # a comment inside
        "flow A . create -> B.process;",  # a spaced reference
        "flow A.create -> B.process",  # no ';'
        "flow create: A.create -> B.process;",  # a reserved label
        "flow A.create -> B.bogus;",  # a last part that is no stage kind
        "flow A.bogus -> B.process;",
        "flow A.create => B.process;",  # the trigger's arrow on a flow
        "trigger A.create -> B.process;",  # and the flow's on a trigger
        'flow A.create -> B.process if "g";',  # a guard on a flow
        'trigger A.create => B.process iff "g";',
        'trigger A.create => B.process if "a\\tb";',  # an escape in the guard
        "flows A.create -> B.process;",
        "machine flow {",  # a reserved machine name
        "machine A constraints {",
        "machine A.b {",
        "machine {",
        'machine A : "unterminated {',
        "create stored;",
        "create store store;",
        "creates;",
        'create : "a\\"b";',  # an escape in the label
        "create {",
    ],
)
def test_other_statement_texts_are_read_token_by_token(text):
    tokens = read_tokens(text, statements=True)[0]
    assert not any(t.kind in _STATEMENT_KINDS for t in tokens)
    assert lex_as_char_lex_did(text) == char_lex(text)


_STATEMENT_PIECES = _LEX_PIECES + (
    "flow", "trigger", "machine", "create", "process", "store", "constraint", "if", "=>", ":",
    "A.b.create", "B.process", "A.bogus", "f1", " x ", '"g"', "flow f: A.create -> B.process;",
    "trigger A.process => B.create if \"g\";", "create store;", 'process : "p";', "machine M {",
)
_TEXTS = (
    mutated_texts()
    | st.lists(st.sampled_from(_STATEMENT_PIECES), max_size=30).map("".join)
    | st.text(alphabet=_LEX_ALPHABET, max_size=40)
)


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
@example('machine m0 {\n  process : "if";\n}\n')  # a label that reads like the guard keyword
def test_statement_tokens_carry_the_tokens_of_their_text(text):
    tokens = read_tokens(text)[0]
    for tok in read_tokens(text, statements=True)[0]:
        if tok.kind not in _STATEMENT_KINDS:
            continue
        plain = [t for t in tokens if tok.offset <= t.offset < tok.end]
        assert (plain[0].kind, plain[0].value, plain[0].offset) == ("ID", tok.value, tok.offset)
        assert plain[-1].offset + 1 == tok.end and plain[-1].kind in ("SEMI", "LBRACE")
        # the guard keyword is the one ID dropped; a label "if" is a part
        words = [t for t in plain[1:]
                 if t.kind in ("ID", "REF", "STRING") and (t.kind, t.value) != ("ID", "if")]
        assert [p for p in statement_parts(tok) if p is not None] == words
        if tok.kind == "EDGE":  # and a reference ends where its token does
            assert [tok.source_end, tok.target_end] == [
                t.offset + len(t.value) for t in words if t.kind == "REF"]


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
def test_parse_reads_statement_tokens_as_their_tokens(text):
    class TokenByToken(dsl._Parser):
        def statement(self, kinds):  # never reads a statement whole
            return super().statement(())

    parser = TokenByToken(text)
    parser.parse_model()
    # model, events, behavior, comments and every diagnostic's code, message
    # and span
    assert parse(text) == dsl._Resolver(parser).resolve()


@pytest.mark.parametrize(
    "text, messages",
    [
        # a statement token where its statement does not belong is reported
        # and skipped as its tokens are
        ("create;\nmachine A { create; }", ["1:1: syntax: expected a declaration, found 'create'"]),
        ("machine A { create; flow A.create -> A.process; process; }",
         ["1:21: syntax: expected a stage or submachine, found 'flow'"]),
        ('machine A { create; }\nevent E { time "t"; region { machine B { A.create } } }',
         ["2:30: syntax: a stage reference ends in a stage kind (machine.kind)",
          "2:38: syntax: expected '}', found 'B'",
          "2:51: syntax: expected a declaration, found '}'",
          "2:53: syntax: expected a declaration, found '}'",
          "2:55: syntax: expected a declaration, found '}'"]),
        ('machine A { create; }\nflow create : "x";', ["2:6: syntax: 'create' is a reserved word"]),
        ('machine A { create; }\nflow # c\ncreate : "x";', ["3:1: syntax: 'create' is a reserved word"]),
        ("machine A { create; }\nflow A.bogus -> A.create;",
         ["2:8: syntax: a stage reference ends in a stage kind (machine.kind)"]),
        ("machine A { create; process; }\nflow A. process;", ["2:16: syntax: expected '->', found ';'"]),
        ('machine A { create; }\nevent E { time "t"; region { A.create } }\nbehavior { E -> process; }',
         ["3:17: V9: edge references undeclared event 'process'"]),
        ("machine A.b { create; }", ["1:9: syntax: expected machine name, found 'A'",
                                      "1:23: syntax: expected a declaration, found '}'"]),
        ("machine A { machine B {\ntrigger A.create => A.B.process;",
         ["2:1: syntax: expected a stage or submachine, found 'trigger'",
          "2:33: syntax: expected '}', found 'EOF'", "2:33: syntax: expected '}', found 'EOF'"]),
    ],
)
def test_misplaced_statements_are_reported_as_their_tokens(text, messages):
    assert [str(d) for d in parse(text).diagnostics] == messages


@pytest.mark.parametrize(
    "text, messages",
    [
        # a string that reads like ':' or a keyword is no mark
        ('machine A ":" { create; }', ["1:11: syntax: expected '{', found ':'",
                                      "1:25: syntax: expected a declaration, found '}'"]),
        ('machine A { create ":" "x"; }', ["1:20: syntax: expected ';', found ':'"]),
        ('machine A { create; process; }\ntrigger A.create => A.process "if" "g";',
         ["2:31: syntax: expected ';', found 'if'"]),
        ('machine A { create; }\nevent E1 { time "t"; region { A.create } }\n'
         'event E2 { time "t"; region { A.create } }\nbehavior { E1 -> E2 "excl" "g"; }',
         ["4:21: syntax: expected ';', found 'excl'"]),
    ],
)
def test_a_string_is_never_a_mark(text, messages):
    assert [str(d) for d in parse(text).diagnostics] == messages


def test_a_reference_that_names_no_stage_is_reported_on_its_text():
    text = "machine A { create; machine B { process; } }\nflow A.create -> A.B.receive;\n" \
           "flow A.create -> A.C.process;\nflow f: A.create->A.B.process;\n"
    assert [str(d) for d in parse(text).diagnostics] == [
        "2:18: unresolved-ref: machine 'A.B' has no receive stage",
        "3:18: unresolved-ref: unknown machine 'A.C'",
    ]


# -- the printer refuses what the parser rejects ------------------------------


def _one_event(eid: str) -> Event:
    return Event(eid, eid, "t", Region(frozenset({"A.create"})))


_ONE_MACHINE = dsl.StaticModel((Machine("A", "A", stages=(Stage("A.create", ActionKind.CREATE, "A"),)),))


@pytest.mark.parametrize("events, behavior, message", [
    ([_one_event("A")], None, "V8 A: duplicate id 'A' (machine vs event)"),
    ([_one_event("E"), _one_event("E")], None, "V8 E: event id declared more than once"),
    ([_one_event("E")], BehavioralModel(frozenset({"E"}), (BehaviorEdge("E", "E"),)),
     "V9 E: self-edge on event 'E'"),
    ([_one_event("E")], BehavioralModel(frozenset({"E", "F"}), (BehaviorEdge("E", "F"),)),
     "V9 F: edge references undeclared event 'F'; V9 F: behavior names an undeclared event"),
])
def test_print_refuses_events_and_behavior_that_parse_would_reject(events, behavior, message):
    # each problem is named as the validator names it, by its rule and subject
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        print_model(_ONE_MACHINE, events, behavior)


@settings(max_examples=150, deadline=None)
@given(documents(), st.data())
def test_print_refuses_a_broken_event_or_prints_what_parses_back_to_it(doc, data):
    model, events, behavior = doc
    events, behavior = data.draw(st.sampled_from(event_mutations(model, events)))(events, behavior)
    try:
        text = print_model(model, events, behavior)
    except TmError:
        return
    result = parse_or_raise(text)
    assert result.events == tuple(sorted(events, key=lambda e: natural_key(e.id)))
    assert result.behavior == behavior


_POOL = ("A", "B", "f1", "t1", "E1")  # machine, edge and event ids share it


@st.composite
def _pooled_documents(draw):
    """A raw document whose ids all come from one small pool, so machines,
    edges and events often share an id.  Edges stay inside one machine and
    regions are closed over their edges, so most documents validate."""
    machines, stage_groups = [], []
    for root in draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=2)):
        subs = []
        for mid, parent in [(root, None)] + [
            (f"{root}.{name}", root) for name in draw(st.lists(st.sampled_from(_POOL), max_size=1))
        ]:
            kinds = draw(st.sampled_from([[ActionKind.CREATE], [ActionKind.PROCESS],
                                          [ActionKind.CREATE, ActionKind.PROCESS]]))
            stages = tuple(Stage(f"{mid}.{k.value}", k, mid) for k in kinds)
            stage_groups.append([stage.id for stage in stages])
            subs.append(Machine(mid, mid.rpartition(".")[2], stages=stages, parent=parent))
        machines.append(subs[0].replace(submachines=tuple(subs[1:])))

    def ends():  # two stages of one machine, the same one now and then
        group = draw(st.sampled_from(stage_groups))
        return draw(st.sampled_from(group)), draw(st.sampled_from(group))

    flows = [Flow(eid, *ends()) for eid in draw(st.lists(st.sampled_from(_POOL), max_size=2))]
    triggers = [Trigger(eid, *ends(), "g")
                for eid in draw(st.lists(st.sampled_from(_POOL), max_size=2))]
    model = dsl.StaticModel(tuple(machines), tuple(flows), tuple(triggers))
    events = []
    for eid in draw(st.lists(st.sampled_from(_POOL), max_size=3)):
        edges = draw(st.lists(st.sampled_from((*flows, *triggers)), max_size=2)) if (
            flows or triggers) else []
        stage_ids = {end for edge in edges for end in (edge.source, edge.target)}
        stage_ids.add(draw(st.sampled_from(draw(st.sampled_from(stage_groups)))))
        events.append(Event(eid, eid, "t", Region(frozenset(stage_ids),
                                                  frozenset(edge.id for edge in edges))))
    event_ids = [event.id for event in events]
    pairs = draw(st.lists(st.tuples(st.sampled_from(event_ids), st.sampled_from(event_ids)),
                          max_size=3)) if events else []
    behavior = BehavioralModel(frozenset(event_ids), tuple(
        sorted({BehaviorEdge(*pair) for pair in pairs},
               key=lambda e: (natural_key(e.source), natural_key(e.target)))))
    return model, events, behavior


@settings(max_examples=300, deadline=None)
@given(_pooled_documents())
def test_a_document_without_errors_prints_to_text_that_parses_back_to_it(document):
    if has_errors(validate_document(*document)):
        return
    try:
        text = print_model(*document)
    except dsl.PrintError:
        return
    result = parse_or_raise(text)
    assert document_to_json(result.model, result.events, result.behavior) == document_to_json(
        *document)
