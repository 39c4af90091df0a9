"""Command-line front door.

Exit status: 0 clean, 1 diagnostic errors (parse, validation, failed
conformance), 2 usage or I/O failure.  Machine-readable output goes to
stdout, failure explanations to stderr.  Inputs may be model text or the
canonical JSON document (sniffed by content); `--json` switches the output
serialization to canonical JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

# Each command imports the other modules it runs where it runs them, so a
# `tmkit` run loads and compiles only those.
from . import dsl, validate
from .model import BehavioralModel, GATE_KINDS, StaticModel, TmError


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
    result = dsl.parse(text)
    if not result.ok:
        lines = [f"{path}:{d}" for d in result.diagnostics]
        raise _Failure(1, "\n".join(lines))
    return result.model, result.events, result.behavior, result.comments


def _dump(model, events, behav, comments, json_mode: bool) -> str:
    if json_mode:
        from . import jsonio

        return jsonio.document_to_json(model, events, behav)
    return dsl.print_model(model, events, behav, comments)


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmkit",
        description="Model toolkit: check, transform, bridge, and render machine models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, **kwargs)
        p.add_argument("file", help="input file (model text or canonical JSON, sniffed)")
        p.add_argument("--json", action="store_true", help="emit canonical JSON output")
        p.add_argument("-o", "--output", default=None, help="write output to a file")
        return p

    p = add("check", "parse and validate, printing diagnostics")
    p.add_argument("--simplified", action="store_true", help="validate in simplified mode")
    add("fmt", "reprint in canonical form")
    add("simplify", "eliminate release/transfer/receive stages")
    add("expand", "reintroduce canonical gate chains")
    p = add("import-uml", "convert an activity graph (.act.json) to a model")
    p.add_argument("--full", action="store_true", help="expand to full five-stage form")
    add("export-uml", "convert a model to an activity graph (.act.json)")
    add("events", "validate events and print uncovered stage ids")
    p = add("trace", "check a trace against the behavioral model")
    p.add_argument(
        "--trace",
        required=True,
        help="comma-separated event ids, or @file.json holding a JSON array",
    )
    p = add("render", "emit DOT")
    p.add_argument("--behavior", action="store_true", help="render the behavioral graph")
    p.add_argument("--highlight", default=None, metavar="EVENT", help="highlight an event region")
    return parser


def run(argv: Sequence[str]) -> int:
    try:
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
    diags = validate.validate_static(model, mode=mode)
    if validate.has_errors(diags):
        raise _Failure(1, "\n".join(str(d) for d in diags if d.severity is validate.Severity.ERROR))


def _dispatch(args: argparse.Namespace) -> int:
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
        from . import behavior as behavior_ops

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
        from . import behavior as behavior_ops

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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
