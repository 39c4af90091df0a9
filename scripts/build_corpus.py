#!/usr/bin/env python3
"""Regenerate the derived corpus files from the committed sources.

`corpus/mentcare.tm`, `corpus/mentcare.act.json` and `corpus/traces/*.json`
are the sources and are only read: the model must be a byte-exact fixpoint of
`tmkit fmt` and validate cleanly, and the activity graph must be in canonical
JSON.  The recorded trace verdicts (`traces/expected.json`) and the golden
DOT/coverage files are derived from them.  Run from the repository root:

    python3 scripts/build_corpus.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tmkit import (  # noqa: E402
    activity_from_json,
    activity_to_json,
    conform,
    coverage,
    dsl,
    eventize,
    has_errors,
    render_behavior,
    render_static,
    validate_document,
)


def main() -> int:
    corpus = ROOT / "corpus"
    (corpus / "golden").mkdir(parents=True, exist_ok=True)

    source = (corpus / "mentcare.tm").read_text(encoding="utf-8")
    result = dsl.parse(source)
    if not result.ok:
        for diag in result.diagnostics:
            print(f"corpus/mentcare.tm: {diag}", file=sys.stderr)
        return 1
    if dsl.print_model(result.model, result.events, result.behavior, result.comments) != source:
        print("corpus/mentcare.tm is not a fixpoint of `tmkit fmt`", file=sys.stderr)
        return 1

    model, events, behavior = result.model, result.events, result.behavior
    diags = validate_document(model, events, behavior)
    if diags:
        for diag in diags:
            print(f"mentcare validation: {diag}", file=sys.stderr)
        if has_errors(diags):
            return 1

    activity = (corpus / "mentcare.act.json").read_text(encoding="utf-8")
    if activity_to_json(activity_from_json(activity)) != activity:
        print("corpus/mentcare.act.json is not in canonical JSON", file=sys.stderr)
        return 1

    expected = {}
    for path in sorted((corpus / "traces").glob("*.json")):
        if path.name == "expected.json":
            continue
        verdict = conform(json.loads(path.read_text(encoding="utf-8")), behavior)
        expected[path.name] = {
            "conforms": verdict.conforms,
            "violation_index": verdict.violation_index,
        }
    (corpus / "traces" / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )

    closed = [eventize(model, e) for e in events]
    e5 = next(e for e in closed if e.id == "E5")
    (corpus / "golden" / "static.dot").write_text(
        render_static(model), encoding="utf-8", newline="\n"
    )
    (corpus / "golden" / "highlight_e5.dot").write_text(
        render_static(model, e5.region), encoding="utf-8", newline="\n"
    )
    (corpus / "golden" / "behavior.dot").write_text(
        render_behavior(behavior, events), encoding="utf-8", newline="\n"
    )
    uncovered = coverage(model, closed)
    (corpus / "golden" / "uncovered.txt").write_text(
        "".join(f"{sid}\n" for sid in uncovered), encoding="utf-8", newline="\n"
    )

    print("verdicts:", json.dumps(expected))
    print("uncovered:", list(uncovered))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
