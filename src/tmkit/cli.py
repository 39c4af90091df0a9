"""Command-line front door.

Exit status: 0 clean, 1 diagnostic errors (parse, validation, failed
conformance), 2 usage or I/O failure.  Machine-readable output goes to
stdout, failure explanations to stderr.  Inputs may be model text or the
canonical JSON document (sniffed by content); `--json` switches the output
serialization to canonical JSON.

A `tmkit` run (`main`) freezes the cycle collector once its command is done:
every object alive at exit, most of them left by the interpreter's own
start-up, is then out of reach of the collections CPython's shutdown runs,
which would otherwise take several milliseconds of a run that spends tens.
The command's output and files are already written and closed by then.
`run`, which callers use in-process, leaves the collector as it is.
"""

from __future__ import annotations

import atexit
import gc
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Sequence

# Each command imports the modules it runs where it runs them: `dsl` only to
# read model text, `printer` only to write it, `validate` only in the
# commands that validate, and `argparse` only for a command line that
# `_plain_args` leaves to it.  So a `tmkit` run loads and compiles only those.
from .model import BehavioralModel, GATE_KINDS, StaticModel, TmError

if TYPE_CHECKING:
    import argparse


class _Failure(Exception):
    def __init__(self, status: int, message: str = ""):
        super().__init__(message)
        self.status = status
        self.message = message


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(2, f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        message = f"cannot read {path}: not UTF-8: {exc.reason} at offset {exc.start}"
        raise _Failure(2, message) from exc


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _Failure(2, f"cannot write {out}: {exc.strerror or exc}") from exc


def _load(path: str):
    """Returns (model, events, behavior, comments).  The input format is
    sniffed: a JSON document starts with '{', after a byte order mark if any
    (the JSON decoder reports it), and anything else is model text."""
    text = _read(path)
    if text.removeprefix("\ufeff").lstrip().startswith("{"):
        from . import jsonio

        try:
            model, events, behav = jsonio.document_from_json(text)
        except TmError as exc:
            raise _Failure(1, f"{path}: {exc}") from exc
        return model, events, behav, None
    from . import dsl

    result = dsl.parse(text)
    if not result.ok:
        lines = [f"{path}:{d}" for d in result.diagnostics]
        raise _Failure(1, "\n".join(lines))
    return result.model, result.events, result.behavior, result.comments


def _dump(model, events, behav, comments, json_mode: bool) -> str:
    if json_mode:
        from . import jsonio

        return jsonio.document_to_json(model, events, behav)
    from .printer import print_model

    return print_model(model, events, behav, comments)


def _parse_trace(spec: str) -> list[str]:
    if spec.startswith("@"):
        import json

        raw = _read(spec[1:])
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _Failure(2, f"trace file is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise _Failure(2, "trace file nests deeper than this Python's JSON decoder reads") from exc
        if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
            raise _Failure(2, "trace file must hold a JSON array of event ids")
        return data
    return [part.strip() for part in spec.split(",") if part.strip()]


# Every command's help, its flags ({option strings: help}) and its options
# that take a value ({option strings: (help, metavar, required)}): the one
# declaration that `_build_parser` and `_plain_args` both read.  Every
# command takes the input file, then these flags and options, then its own.
_FLAGS = {("--json",): "emit canonical JSON output"}
_OPTIONS = {("-o", "--output"): ("write output to a file", None, False)}
_COMMANDS = {
    "check": ("parse and validate, printing diagnostics",
              {("--simplified",): "validate in simplified mode"}, {}),
    "fmt": ("reprint in canonical form", {}, {}),
    "simplify": ("eliminate release/transfer/receive stages", {}, {}),
    "expand": ("reintroduce canonical gate chains", {}, {}),
    "import-uml": ("convert an activity graph (.act.json) to a model",
                   {("--full",): "expand to full five-stage form"}, {}),
    "export-uml": ("convert a model to an activity graph (.act.json)", {}, {}),
    "events": ("validate events and print uncovered stage ids", {}, {}),
    "trace": ("check a trace against the behavioral model", {}, {
        ("--trace",): ("comma-separated event ids, or @file.json holding a JSON array", None, True),
    }),
    "render": ("emit DOT", {("--behavior",): "render the behavioral graph"},
               {("--highlight",): ("highlight an event region", "EVENT", False)}),
}


def _dest(names: tuple[str, ...]) -> str:
    """The attribute an option sets, named as `argparse` names it."""
    return names[-1].lstrip("-").replace("-", "_")


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="tmkit",
        description="Model toolkit: check, transform, bridge, and render machine models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, own_flags, own_options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("file", help="input file (model text or canonical JSON, sniffed)")
        for flags, options in ((_FLAGS, _OPTIONS), (own_flags, own_options)):
            for names, flag_help in flags.items():
                p.add_argument(*names, action="store_true", help=flag_help)
            for names, (option_help, metavar, required) in options.items():
                p.add_argument(*names, metavar=metavar, required=required, help=option_help)
    return parser


def _plain_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """What `argparse` makes of a plain command line, read without it: a
    known command, then one file and that command's flags and options in any
    order, each option followed by its value.  Anything else gives None:
    help, a missing or unknown argument, an abbreviation, ``--opt=value``,
    ``--``, or a file or value that starts with '-'.  `argparse` then reads
    the command line, or reports what is wrong with it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, own_flags, own_options = _COMMANDS[argv[0]]
    # option string -> the attribute it sets
    flags = {name: _dest(names) for names in (*_FLAGS, *own_flags) for name in names}
    options = {name: _dest(names) for names in (*_OPTIONS, *own_options) for name in names}
    required = [_dest(names) for names, (_, _, needed) in (*_OPTIONS.items(), *own_options.items())
                if needed]
    values = {"command": argv[0], "file": None, **dict.fromkeys(flags.values(), False),
              **dict.fromkeys(options.values(), None)}
    items = iter(argv[1:])
    for item in items:
        if item in flags:
            values[flags[item]] = True
        elif item in options:
            value = values[options[item]] = next(items, "-")
            if value.startswith("-"):
                return None
        elif item.startswith("-") or values["file"] is not None:
            return None
        else:
            values["file"] = item
    if values["file"] is None or any(values[dest] is None for dest in required):
        return None
    return SimpleNamespace(**values)


def run(argv: Sequence[str]) -> int:
    try:
        args = _plain_args(argv)
        if args is None:
            try:
                args = _build_parser().parse_args(list(argv))
            except SystemExit as exc:
                return 0 if exc.code in (0, None) else 2
        return _dispatch(args)
    except _Failure as failure:
        if failure.message:
            print(failure.message, file=sys.stderr)
        return failure.status
    except TmError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _require_clean(model: StaticModel, *, mode: str) -> None:
    from . import validate

    diags = validate.validate_static(model, mode=mode)
    if validate.has_errors(diags):
        raise _Failure(1, "\n".join(str(d) for d in diags if d.severity is validate.Severity.ERROR))


def _dispatch(args: argparse.Namespace | SimpleNamespace) -> int:
    command = args.command

    if command == "import-uml":
        from . import transform, uml

        try:
            graph = uml.activity_from_json(_read(args.file))
        except uml.ActivityError as exc:
            raise _Failure(1, f"{args.file}: {exc}") from exc
        model = uml.import_activity(graph)
        if args.full:
            model = transform.expand(model)
        _write_out(_dump(model, (), None, None, args.json), args.output)
        return 0

    model, events, behav, comments = _load(args.file)

    if command == "check":
        from . import validate

        mode = "simplified" if args.simplified else "full"
        diags = validate.validate_document(model, events, behav, mode=mode)
        lines = [str(d) for d in diags]
        errors = sum(1 for d in diags if d.severity is validate.Severity.ERROR)
        warnings = len(diags) - errors
        lines.append(f"{errors} errors, {warnings} warnings")
        _write_out("\n".join(lines) + "\n", args.output)
        return 1 if errors else 0

    if command == "fmt":
        _write_out(_dump(model, events, behav, comments, args.json), args.output)
        return 0

    if command == "simplify":
        from . import transform

        _require_clean(model, mode="full")
        simplified = transform.simplify(model)
        _write_out(_dump(simplified, (), None, None, args.json), args.output)
        return 0

    if command == "expand":
        from . import transform

        _require_clean(model, mode="simplified")
        expanded = transform.expand(model)
        _write_out(_dump(expanded, (), None, None, args.json), args.output)
        return 0

    if command == "export-uml":
        from . import transform, uml

        if any(s.kind in GATE_KINDS for s in model.all_stages()):
            _require_clean(model, mode="full")
            model = transform.simplify(model)
        graph = uml.export_activity(model)
        _write_out(uml.activity_to_json(graph), args.output)
        return 0

    if command == "events":
        from . import behavior as behavior_ops, validate

        diags = validate.validate_events(model, events)
        for diag in diags:
            print(str(diag), file=sys.stderr)
        if validate.has_errors(diags):
            return 1
        closed = [behavior_ops.eventize(model, e) for e in events]
        uncovered = behavior_ops.coverage(model, closed)
        _write_out("".join(f"{sid}\n" for sid in uncovered), args.output)
        return 0

    if command == "trace":
        from . import behavior as behavior_ops, validate

        trace = _parse_trace(args.trace)
        if not trace:
            raise _Failure(2, "the trace must contain at least one event id")
        if behav is None:
            behav = BehavioralModel()
        diags = validate.validate_behavior(model, events, behav)
        if validate.has_errors(diags):
            for diag in diags:
                print(str(diag), file=sys.stderr)
            return 1
        verdict = behavior_ops.conform(trace, behav)
        if verdict.conforms:
            _write_out(f"conforms: {verdict.reason}\n", args.output)
            return 0
        _write_out(
            f"violation at index {verdict.violation_index}: {verdict.reason}\n", args.output
        )
        return 1

    if command == "render":
        from . import render

        if args.behavior:
            _write_out(render.render_behavior(behav or BehavioralModel(), events), args.output)
            return 0
        highlight = None
        if args.highlight is not None:
            from . import behavior as behavior_ops

            chosen = next((e for e in events if e.id == args.highlight), None)
            if chosen is None:
                raise _Failure(2, f"no event named {args.highlight!r} in {args.file}")
            highlight = behavior_ops.eventize(model, chosen).region
        _write_out(render.render_static(model, highlight), args.output)
        return 0

    raise _Failure(2, f"unknown command {command!r}")


def main() -> None:
    # an atexit handler runs after the command and before the shutdown's
    # collections; a caller that catches SystemExit freezes only at its exit
    atexit.register(gc.freeze)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
