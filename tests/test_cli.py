"""Command-line behavior: exit codes, stream separation, determinism."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import mutate_statements, mutated_texts
from test_transform import MACHINE_NAMED_F1, SIMPLE_MACHINE_NAMED_F1

from tmkit import (
    ActionKind,
    StaticModel,
    activity_from_json,
    activity_isomorphic,
    activity_to_json,
    conform,
    coverage,
    document_from_json,
    document_to_json,
    eventize,
    expand,
    export_activity,
    find_stage,
    format_text,
    import_activity,
    induced_region,
    model_isomorphic,
    parse,
    parse_or_raise,
    print_model,
    render_behavior,
    render_static,
    simplify,
    validate_document,
)
from tmkit.cli import run
from tmkit.corpus import corpus_dir, mentcare_path

SIMPLE = (
    "machine A { create; process; }\n"
    "flow f1: A.create -> A.process;\n"
    'event E1 { time "t1"; region { A.create A.process } }\n'
    'event E2 { time "t2"; region { A.process } }\n'
    "behavior { E1 -> E2; }\n"
)


@pytest.fixture()
def simple_file(tmp_path: Path) -> Path:
    path = tmp_path / "simple.tm"
    path.write_text(SIMPLE, encoding="utf-8")
    return path


def test_check_clean_corpus_exits_zero(capsys):
    status = run(["check", str(mentcare_path())])
    out = capsys.readouterr().out
    assert status == 0
    assert "0 errors, 0 warnings" in out


def test_check_reports_errors_on_stdout(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("machine A { create; receive; }\nflow A.create -> A.receive;\n")
    status = run(["check", str(bad)])
    out = capsys.readouterr().out
    assert status == 1
    assert "ERROR V2 f1" in out


def test_check_missing_file_argument_is_usage_error(capsys):
    assert run(["check"]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate", "x.tm"]) == 2


def test_unreadable_file_is_status_two(capsys):
    status = run(["check", "no/such/file.tm"])
    assert status == 2
    assert "cannot read" in capsys.readouterr().err


# a model file, an activity graph and a trace file: every path `cli._read` serves
_READ_PATHS = {"model": ["check", "{f}"], "activity": ["import-uml", "{f}"],
               "trace": ["trace", str(mentcare_path()), "--trace", "@{f}"]}


@pytest.mark.parametrize("argv", _READ_PATHS.values(), ids=_READ_PATHS)
@pytest.mark.parametrize("data, reason, offset", [
    (b"\xff", "invalid start byte", 0),
    (b'machine A "\xed\xa0\x80" { create; }\n', "invalid continuation byte", 11),  # a surrogate
    (b'["E1", "\xc3', "unexpected end of data", 8),
], ids=["0xff", "surrogate", "cut-off"])
def test_input_that_is_not_utf8_is_an_io_error(tmp_path, capsys, argv, data, reason, offset):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert run([a.format(f=path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"cannot read {path}: not UTF-8: {reason} at offset {offset}\n")


@pytest.mark.parametrize("argv, content, status, message", [
    (_READ_PATHS["model"], "machine A { create; process; }\n", 1,
     "{f}:1:1: syntax: unexpected character '\\ufeff'"),
    (_READ_PATHS["activity"], '{"nodes": [], "edges": []}', 1,
     "{f}: not valid JSON: Unexpected UTF-8 BOM"),
    (_READ_PATHS["trace"], '["E1"]', 2, "trace file is not valid JSON: Unexpected UTF-8 BOM"),
    # a JSON document is still sniffed as JSON, and the decoder reports the mark
    (_READ_PATHS["model"], '{"machines": []}', 1, "{f}: not valid JSON: Unexpected UTF-8 BOM"),
], ids=[*_READ_PATHS, "document"])
def test_a_byte_order_mark_is_not_skipped(tmp_path, capsys, argv, content, status, message):
    """Input is read as UTF-8 without a byte order mark: a leading U+FEFF is
    reported as what it is, in one line."""
    path = tmp_path / "input"
    path.write_bytes(b"\xef\xbb\xbf" + content.encode())
    assert run([a.format(f=path) for a in argv]) == status
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith(message.format(f=path))


def _json_with_events(*event_ids: str, time: str = "t", region: tuple = (["A.create"], []),
                      behavior_ids: tuple = ()) -> str:
    doc = json.loads(document_to_json(parse_or_raise(
        "machine A { create store; process; }\nflow f1: A.create -> A.process;\n").model))
    stage_ids, edge_ids = region
    doc["events"] = [{"id": eid, "name": eid, "time": time, "intensity": None,
                      "region": {"stage_ids": stage_ids, "edge_ids": edge_ids}}
                     for eid in event_ids]
    doc["behavior"]["event_ids"] = sorted({*event_ids, *behavior_ids})
    return json.dumps(doc)


def _fails_check_and_fmt(path: Path, capsys, error: str) -> None:
    assert run(["check", str(path)]) == 1
    assert error in capsys.readouterr().out.splitlines()
    # fmt refuses to write text that would not parse back, in one line
    # naming the rule and the subject as check does
    assert run(["fmt", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == error.removeprefix("ERROR ") + "\n"


@pytest.mark.parametrize("event_ids, error", [
    (["A"], "ERROR V8 A: duplicate id 'A' (machine vs event)"),
    (["E", "E"], "ERROR V8 E: event id declared more than once"),
])
def test_json_that_text_would_reject_fails_check_and_fmt(tmp_path, capsys, event_ids, error):
    path = tmp_path / "doc.json"
    path.write_text(_json_with_events(*event_ids), encoding="utf-8")
    _fails_check_and_fmt(path, capsys, error)


@pytest.mark.parametrize("change, error", [
    ({"time": " "}, "ERROR V8 E: event has no time annotation"),
    ({"region": ([], [])}, "ERROR V8 E: event region is empty"),
    ({"region": (["Z.process"], [])}, "ERROR V8 E: region references unknown stage 'Z.process'"),
    ({"region": (["A.create"], ["f9"])}, "ERROR V8 E: region references unknown edge 'f9'"),
    ({"region": (["A.create"], ["f1"])},
     "ERROR V8 E: region edge 'f1' has an endpoint outside the region"),
    ({"behavior_ids": ["X"]}, "ERROR V9 X: behavior names an undeclared event"),
])
def test_json_with_a_broken_event_or_behavior_fails_check_and_fmt(tmp_path, capsys, change,
                                                                 error):
    path = tmp_path / "doc.json"
    path.write_text(_json_with_events("E", **change), encoding="utf-8")
    _fails_check_and_fmt(path, capsys, error)


def test_fmt_of_a_json_document_with_an_empty_region_names_rule_and_event(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_json_with_events("E", region=([], [])), encoding="utf-8")
    assert run(["fmt", str(path)]) == 1
    assert capsys.readouterr().err == "V8 E: event region is empty\n"


# E1 and E01 tie in natural order, and both warn twice
TIED_EVENTS = (
    "machine A { create; process; }\nflow f1: A.create -> A.process;\n"
    + "".join(f'event {eid} {{ time "t"; region {{ A.create }} }}\n' for eid in ("S", "E1", "E01"))
    + "behavior { E1 -> E01; E01 -> E1; }\n"
)


def test_check_output_does_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "tied.tm"
    path.write_text(TIED_EVENTS, encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    path_var = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "PYTHONPATH": path_var}
    outputs = {
        subprocess.run([sys.executable, "-m", "tmkit.cli", "check", str(path)], capture_output=True,
                       text=True, env={**env, "PYTHONHASHSEED": str(seed)}).stdout
        for seed in range(8)
    }
    assert len(outputs) == 1
    assert outputs.pop().splitlines()[-1] == "0 errors, 4 warnings"


def test_parse_failure_is_status_one(tmp_path, capsys):
    bad = tmp_path / "broken.tm"
    bad.write_text("machine {", encoding="utf-8")
    status = run(["check", str(bad)])
    err = capsys.readouterr().err
    assert status == 1
    assert "syntax" in err


def test_fmt_is_idempotent_via_cli(simple_file, tmp_path, capsys):
    out1 = tmp_path / "once.tm"
    assert run(["fmt", str(simple_file), "-o", str(out1)]) == 0
    out2 = tmp_path / "twice.tm"
    assert run(["fmt", str(out1), "-o", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_fmt_corpus_is_byte_stable(capsys):
    assert run(["fmt", str(mentcare_path())]) == 0
    out = capsys.readouterr().out
    assert out == mentcare_path().read_text(encoding="utf-8")


def test_trace_conforming(capsys):
    status = run(["trace", str(mentcare_path()), "--trace", "E1,E2,E3,E4,E5,E8"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.startswith("conforms")


def test_trace_violation_names_index(capsys):
    status = run(["trace", str(mentcare_path()), "--trace", "E1,E2,E3,E4,E7"])
    out = capsys.readouterr().out
    assert status == 1
    assert "violation at index 4" in out


def test_trace_accepts_json_file(capsys):
    trace_file = corpus_dir() / "traces" / "ok_not_dangerous.json"
    status = run(["trace", str(mentcare_path()), "--trace", f"@{trace_file}"])
    assert status == 0


def test_trace_file_nested_past_the_decoder_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert run(["trace", str(mentcare_path()), "--trace", f"@{path}"]) == 2
    assert capsys.readouterr().err == "trace file nests deeper than this Python's JSON decoder reads\n"


def test_empty_trace_is_usage_error(capsys):
    status = run(["trace", str(mentcare_path()), "--trace", ""])
    assert status == 2
    assert "at least one event id" in capsys.readouterr().err


def test_trace_with_unknown_event_is_diagnostic_error(capsys):
    status = run(["trace", str(mentcare_path()), "--trace", "E1,Nope"])
    assert status == 1
    assert "Nope" in capsys.readouterr().err


def test_events_prints_uncovered(capsys):
    status = run(["events", str(mentcare_path())])
    out = capsys.readouterr().out
    assert status == 0
    assert out.splitlines() == [
        "InfoSystem.PatientFile.release",
        "InfoSystem.PatientFile.transfer",
    ]


def test_simplify_expand_round_trip_via_files(simple_file, tmp_path, capsys):
    simplified = tmp_path / "s.tm"
    assert run(["simplify", str(simple_file), "-o", str(simplified)]) == 0
    expanded = tmp_path / "e.tm"
    assert run(["expand", str(simplified), "-o", str(expanded)]) == 0
    text = expanded.read_text()
    assert "release" not in text  # intra-machine flow needs no gates
    assert "create" in text


def test_render_static_and_behavior(simple_file, capsys):
    assert run(["render", str(simple_file)]) == 0
    static_out = capsys.readouterr().out
    assert static_out.startswith("digraph static {")
    assert run(["render", str(simple_file), "--behavior"]) == 0
    behavior_out = capsys.readouterr().out
    assert '"E1" -> "E2";' in behavior_out


def test_render_highlight_event(simple_file, capsys):
    assert run(["render", str(simple_file), "--highlight", "E1"]) == 0
    out = capsys.readouterr().out
    assert "style=filled" in out


def test_render_highlight_unknown_event(simple_file, capsys):
    assert run(["render", str(simple_file), "--highlight", "E99"]) == 2


def test_json_mode_round_trip(simple_file, tmp_path, capsys):
    as_json = tmp_path / "doc.json"
    assert run(["fmt", str(simple_file), "--json", "-o", str(as_json)]) == 0
    doc = json.loads(as_json.read_text())
    assert set(doc) == {"machines", "flows", "triggers", "events", "behavior"}
    back = tmp_path / "back.tm"
    # JSON in, text out: load document, then reprint canonically
    assert run(["check", str(as_json), "--json"]) == 0
    capsys.readouterr()
    assert run(["render", str(as_json), "--json"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_import_export_uml_via_files(tmp_path, capsys):
    act = corpus_dir() / "mentcare.act.json"
    model_file = tmp_path / "imported.tm"
    assert run(["import-uml", str(act), "-o", str(model_file)]) == 0
    assert run(["check", str(model_file), "--simplified"]) == 0
    capsys.readouterr()
    exported = tmp_path / "round.act.json"
    assert run(["export-uml", str(model_file), "-o", str(exported)]) == 0
    from tmkit import activity_from_json, activity_isomorphic

    original = activity_from_json(act.read_text())
    back = activity_from_json(exported.read_text())
    assert activity_isomorphic(original, back)


def test_import_uml_full_form(tmp_path, capsys):
    act = corpus_dir() / "mentcare.act.json"
    assert run(["import-uml", str(act), "--full"]) == 0
    out = capsys.readouterr().out
    assert "release" in out and "transfer" in out
    full = tmp_path / "full.tm"
    full.write_text(out, encoding="utf-8")
    assert run(["check", str(full)]) == 0


def test_fmt_refuses_roots_whose_names_clash(tmp_path, capsys):
    path = tmp_path / "roots.json"
    path.write_text(json.dumps({"machines": [
        {"id": f"{p}.a", "name": "a",
         "stages": [{"id": f"{p}.a.create", "kind": "create", "owner": f"{p}.a"}]}
        for p in ("X", "Y")
    ]}), encoding="utf-8")
    assert run(["fmt", str(path)]) == 1
    assert capsys.readouterr() == ("", "machines at the top level share the segment 'a'\n")


@pytest.mark.parametrize("command", ["check", "fmt", "export-uml"])
def test_an_activity_graph_is_no_model_document(capsys, command):
    """`check` used to pass an activity graph as an empty model, and
    `export-uml` to fail on it with "initial machine candidates: <none>"."""
    act = corpus_dir() / "mentcare.act.json"
    assert run([command, str(act)]) == 1
    assert capsys.readouterr() == ("", f"{act}: unknown document key 'edges': a document holds"
                                       " only behavior, events, flows, machines, triggers\n")


def test_import_uml_names_the_file_in_reading_errors(tmp_path, capsys):
    path = tmp_path / "bad.act.json"
    path.write_text('{"nodes": [{"id": "n", "kind": "initial", "label": null}], "edges": []}',
                    encoding="utf-8")
    assert run(["import-uml", str(path)]) == 1
    assert capsys.readouterr() == ("", f"{path}: node label must be a string, got null\n")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tmkit.cli", "check", str(mentcare_path())],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0 errors" in proc.stdout


@pytest.mark.parametrize("command", [["check"], ["fmt"], ["fmt", "--json"], ["render"]])
def test_ids_with_more_digits_than_int_converts(tmp_path, capsys, command):
    path = tmp_path / "digits.tm"
    machine = "a" + "1" * 5000
    path.write_text(f"machine {machine} {{ create; }}\n", encoding="utf-8")
    assert run([command[0], str(path), *command[1:]]) == 0
    out = capsys.readouterr().out
    assert machine in out
    if command == ["check"]:
        assert out.endswith("0 errors, 1 warnings\n")


@pytest.mark.parametrize("command, text, check", [
    ("simplify", MACHINE_NAMED_F1, []),
    ("expand", SIMPLE_MACHINE_NAMED_F1, ["--simplified"]),
])
def test_transforms_run_on_a_machine_named_like_a_fresh_flow(tmp_path, capsys, command, text,
                                                             check):
    path = tmp_path / "f1.tm"
    path.write_text(text, encoding="utf-8")
    assert run(["check", str(path), *check]) == 0
    assert capsys.readouterr().out.endswith("0 errors, 0 warnings\n")
    assert run([command, str(path)]) == 0
    out = capsys.readouterr().out
    assert "flow f2: " in out and "flow f1: " not in out


# -- depth --------------------------------------------------------------------

NEST_DEPTH = 400  # more nesting levels than the headroom below allows frames


def _nest_text(depth: int) -> str:
    """Machines nested `depth` deep, a gate chain from the innermost to the
    outermost, an event at each end and a behavior edge between them."""
    leaf = ".".join(["a"] * depth)
    return (
        "machine a {\n  process;\n  transfer;\n  receive;\n"
        + "machine a {\n" * (depth - 1)
        + "create;\nrelease;\ntransfer;\n"
        + "}\n" * depth
        + f"flow f1: {leaf}.create -> {leaf}.release;\n"
        + f"flow f2: {leaf}.release -> {leaf}.transfer;\n"
        + f"flow f3: {leaf}.transfer -> a.transfer;\n"
        + "flow f4: a.transfer -> a.receive;\n"
        + "flow f5: a.receive -> a.process;\n"
        + f'event E1 {{ time "t1"; region {{ {leaf}.create {leaf}.release }} }}\n'
        + 'event E2 { time "t2"; region { a.receive a.process } }\n'
        + "behavior { E1 -> E2; }\n"
    )


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@contextmanager
def _recursion_headroom(frames: int = 150):
    """Lower the recursion limit to the current frame depth plus `frames`, so
    that code recursing once per nesting level fails on a few hundred levels."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_no_subcommand_recurses_once_per_nesting_level(tmp_path, capsys):
    nest, simple, act = tmp_path / "nest.tm", tmp_path / "simple.tm", tmp_path / "nest.act.json"
    nest.write_text(_nest_text(NEST_DEPTH), encoding="utf-8")
    commands = [["check"], ["check", "--simplified"], ["fmt"], ["simplify"], ["expand"],
                ["export-uml"], ["events"], ["trace", "--trace", "E1,E2"], ["render"],
                ["render", "--behavior"], ["render", "--highlight", "E1"]]
    statuses = {}
    with _recursion_headroom():
        assert run(["simplify", str(nest), "-o", str(simple)]) == 0
        assert run(["export-uml", str(nest), "-o", str(act)]) == 0
        for json_flag in ([], ["--json"]):
            for path in (nest, simple):
                for command in commands:
                    argv = [command[0], str(path), *command[1:], *json_flag]
                    statuses[" ".join(argv[:1] + argv[2:]), path.name] = run(argv)
            for command in (["import-uml"], ["import-uml", "--full"]):
                argv = [command[0], str(act), *command[1:], *json_flag]
                statuses[" ".join(command + json_flag), act.name] = run(argv)
    assert "recursion" not in capsys.readouterr().err
    # the full form is no input to expand or a simplified check, the
    # simplified form none to a full check or simplify, and it has no events
    refused = {
        ("check --simplified", "nest.tm"): 1,
        ("expand", "nest.tm"): 1,
        ("check", "simple.tm"): 1,
        ("simplify", "simple.tm"): 1,
        ("trace --trace E1,E2", "simple.tm"): 1,
        ("render --highlight E1", "simple.tm"): 2,
    }
    assert {key: status for key, status in statuses.items() if status} == {
        (command + flag, name): status
        for (command, name), status in refused.items()
        for flag in ("", " --json")
    }


def test_no_public_function_recurses_once_per_nesting_level():
    text = _nest_text(NEST_DEPTH)
    leaf = ["a"] * NEST_DEPTH
    with _recursion_headroom():
        assert not parse(text[:-10]).ok
        result = parse_or_raise(text)
        model, events, behavior = result.model, result.events, result.behavior
        printed = print_model(model, events, behavior, result.comments)
        assert format_text(printed) == printed
        built = StaticModel.build(model.machines, model.flows, model.triggers)
        assert len(list(built.all_machines())) == NEST_DEPTH
        assert not validate_document(model, events, behavior)
        simple = simplify(model)
        assert not validate_document(simple, mode="simplified")
        assert model_isomorphic(expand(simple), model)
        graph = export_activity(simple)
        assert activity_isomorphic(activity_from_json(activity_to_json(graph)), graph)
        assert model_isomorphic(simplify(expand(import_activity(graph))), import_activity(graph))
        closed = [eventize(model, event) for event in events]
        assert list(coverage(model, closed)) == [".".join(leaf) + ".transfer", "a.transfer"]
        assert conform(["E1", "E2"], behavior).conforms
        assert render_static(model, closed[0].region).count("subgraph") == NEST_DEPTH
        assert render_behavior(behavior, events).startswith("digraph")
        assert find_stage(model, leaf, ActionKind.CREATE).id == ".".join(leaf) + ".create"
        assert induced_region(model, {"a.receive", "a.process"}).edge_ids == {"f5"}
        document = document_to_json(model, events, behavior)
    # The JSON decoder recurses once per array or object, two per machine
    # level, and before Python 3.12 counts against the same limit, so the
    # document is read back under the usual one.
    assert document_to_json(*document_from_json(document)) == document


# -- grammar-aware fuzzing -------------------------------------------------------

FUZZ_COMMANDS = [["check"], ["check", "--simplified"], ["fmt"], ["simplify"], ["expand"],
                 ["export-uml"], ["events"], ["trace", "--trace", "E1,E2"], ["render"],
                 ["render", "--behavior"], ["render", "--highlight", "E1"], ["import-uml"],
                 ["import-uml", "--full"]]


# whole tokens, statement heads and statements, joined in any order
_SOUP = ("machine", "flow", "trigger", "event", "behavior", "constraint", "create", "process",
         "release", "transfer", "receive", "store", "time", "region", "edge", "intensity", "excl",
         "if", "a", "b", "E1", "E2", "f1", "a.create", "a.b.process", "b.transfer", "{", "}",
         ";", ":", ".", "->", "=>", '"s"', "# c\n", " ", "\n", "machine a {", "machine b {",
         "flow a.create -> b.process;", "trigger a.process => a.create if \"g\";",
         'event E1 { time "t"; region { a.create } }', "behavior { E1 -> E2; }")

# what a declared name may be renamed to, everywhere it occurs: a digit run
# past int()'s limit, and letters and decimal digits from other scripts
_RENAMES = (lambda name: name + "7" * 5000, lambda name: name + "0" * 4400 + "1",
            lambda name: "\u00e9" + name, lambda name: name + "\u540d",
            lambda name: name + "\u0663\u0664", lambda name: name + "\uff11")
_DECLARED = re.compile(r"(?<=machine )\w+|(?<=flow )\w+(?=:)|(?<=trigger )\w+(?=:)"
                       r"|(?<=event )\w+")


@st.composite
def _renamed_texts(draw) -> str:
    """A `mutated_texts` draw with one declared name renamed everywhere."""
    text = draw(mutated_texts())
    names = sorted(set(_DECLARED.findall(text)))
    if names:
        old = draw(st.sampled_from(names))
        new = draw(st.sampled_from(_RENAMES))(old)
        text = re.sub(rf"(?<!\w){re.escape(old)}\b", lambda m: new, text)
    return text


@st.composite
def _deep_nests(draw) -> str:
    """A nest of up to `NEST_DEPTH` machines, maybe mutated."""
    return mutate_statements(draw, _nest_text(draw(st.integers(1, NEST_DEPTH))))


FUZZ_TEXTS = (
    mutated_texts()
    | st.lists(st.sampled_from(_SOUP), max_size=40).map("".join)
    | _renamed_texts()
    | _deep_nests()
)


@st.composite
def _spliced_bytes(draw) -> bytes:
    """A fuzz text as UTF-8 with bytes spliced in: a byte order mark, bytes
    that are not UTF-8 (a byte no sequence starts with, a cut-off sequence,
    an encoded surrogate), or any bytes at all."""
    data = draw(FUZZ_TEXTS).encode()
    at = draw(st.integers(0, len(data)))
    junk = draw(st.sampled_from([b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xed\xa0\x80"])
                | st.binary(min_size=1, max_size=8))
    return data[:at] + junk + data[at:]


FUZZ_INPUTS = FUZZ_TEXTS.map(str.encode) | _spliced_bytes()


@settings(max_examples=160, deadline=None)
@given(FUZZ_INPUTS)
def test_every_subcommand_is_total_on_statements_of_any_shape(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.tm"
    path.write_bytes(data)
    # stderr holds diagnostics, one a line, or one line of another message
    diagnostic = re.compile(
        rf"{re.escape(str(path))}:\d+:\d+: (syntax|unresolved-ref|V\d): \S"
        r"|(ERROR|WARNING) V\d \S"
    )
    for json_flag in ([], ["--json"]):
        for command in FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = run([command[0], str(path), *command[1:], *json_flag])
            assert status in (0, 1, 2)
            lines = err.getvalue().splitlines()
            assert len(lines) <= 1 or all(diagnostic.match(line) for line in lines), (command, lines)
