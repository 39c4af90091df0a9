"""`cli._plain_args` against `argparse`: where the plain reader reads a
command line, it reads what `argparse` reads, and it reads none that
`argparse` refuses."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit.cli import _COMMANDS, _FLAGS, _OPTIONS, _build_parser, _plain_args

PARSER = _build_parser()


def _argparse(argv: list[str]):
    """`vars()` of what the argparse parser makes of ``argv``, or None where
    it exits (help, or a usage error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def _own(command: str) -> tuple[dict, dict]:
    _, flags, options = _COMMANDS[command]
    return {**_FLAGS, **flags}, {**_OPTIONS, **options}


# every option string of every command, so options also go to the wrong one
OPTION_STRINGS = sorted({name for command in _COMMANDS for table in _own(command)
                         for names in table for name in names})
# files and option values, plain or not: empty, or starting with '-' or '@'
WORDS = ["m.tm", "doc.json", "", " ", "@t.json", "@", "-", "-x", "-1", "--", "x y", "check",
         "E1,E2", "--json", "-o", "-h"]
ODD = ["-h", "--help", "--", "--js", "--out", "--output=o.tm", "-oo.tm", "--simpl", "--bogus",
       "-x", "--trace=E1", "--highlight=E5"]

# a value of a plain command line: anything that does not start with '-'
values = st.sampled_from(["m.tm", "", " ", "@t.json", "@", "x y", "E1,E2", "check", "o=1"]) | st.text(
    max_size=4).filter(lambda text: not text.startswith("-"))


@st.composite
def plain_command_lines(draw) -> list[str]:
    """A known command, one file and some of its flags and options (each
    option maybe more than once) in any order."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags, options = _own(command)
    parts = [[draw(values)]]
    for names in flags:
        parts += [[draw(st.sampled_from(names))]] * draw(st.integers(0, 2))
    for names, (_, _, required) in options.items():
        for _ in range(draw(st.integers(1 if required else 0, 2))):
            parts.append([draw(st.sampled_from(names)), draw(values)])
    order = draw(st.permutations(parts))
    return [command, *(item for part in order for item in part)]


tokens = st.sampled_from(OPTION_STRINGS) | st.sampled_from(WORDS) | st.sampled_from(ODD) | st.text(
    max_size=3)


@st.composite
def command_lines(draw) -> list[str]:
    """A plain command line or any list of tokens, with up to two tokens
    inserted, deleted or replaced."""
    if draw(st.booleans()):
        argv = draw(plain_command_lines())
    else:
        command = draw(st.sampled_from(sorted(_COMMANDS)) | st.sampled_from(["frobnicate", "", "-h"]))
        argv = [command, *draw(st.lists(tokens, max_size=7))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit != "insert":
            del argv[at:at + 1]
        if edit != "delete":
            argv.insert(at, draw(tokens))
    return argv


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_the_plain_reader_reads_what_argparse_reads_or_leaves_it_to_argparse(argv):
    plain, parsed = _plain_args(argv), _argparse(argv)
    if parsed is None:
        assert plain is None
    elif plain is not None:
        assert vars(plain) == parsed


@settings(max_examples=300, deadline=None)
@given(plain_command_lines())
def test_every_plain_command_line_is_read_without_argparse(argv):
    plain = _plain_args(argv)
    assert plain is not None
    assert vars(plain) == _argparse(argv)


def test_a_repeated_option_keeps_its_last_value():
    argv = ["fmt", "m.tm", "-o", "a.tm", "--output", "b.tm", "-o", "c.tm"]
    assert vars(_plain_args(argv))["output"] == "c.tm" == _argparse(argv)["output"]


def test_what_the_plain_reader_leaves_to_argparse():
    for argv in (["check"], ["check", "m.tm", "extra"], ["trace", "m.tm"],
                 ["fmt", "m.tm", "--simplified"], ["check", "m.tm", "-o"],
                 ["check", "m.tm", "-o", "-x"], ["check", "--", "m.tm"], ["check", "-"],
                 ["check", "m.tm", "--js"], ["check", "m.tm", "--output=o.tm"], ["--help"],
                 ["render", "m.tm", "-h"], []):
        assert _plain_args(argv) is None, argv
