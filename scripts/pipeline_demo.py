#!/usr/bin/env python3
"""Walk the whole toolkit over the bundled case study.

Parses the corpus, validates it, simplifies and re-expands the static model,
exports the activity view, replays the fixture traces, and reports region
coverage.  Run from the repository root:

    python3 scripts/pipeline_demo.py

Exits 1, after printing what failed, if validation reports an error, if
expanding the simplified model does not give back the full form, or if a
trace's verdict differs from the one recorded in corpus/traces/expected.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tmkit import (  # noqa: E402
    conform,
    coverage,
    eventize,
    expand,
    export_activity,
    has_errors,
    model_isomorphic,
    simplify,
    validate_document,
)
from tmkit.corpus import corpus_dir, load_mentcare  # noqa: E402
from tmkit.model import CORE_KINDS  # noqa: E402


def main() -> int:
    result = load_mentcare()
    model, events, behavior = result.model, result.events, result.behavior
    failures: list[str] = []

    machines = list(model.all_machines())
    stages = list(model.all_stages())
    print(f"static model: {len(machines)} machines, {len(stages)} stages, "
          f"{len(model.flows)} flows, {len(model.triggers)} triggers")
    diags = validate_document(model, events, behavior)
    print(f"validation: {len(diags)} diagnostics")
    if has_errors(diags):
        failures.append("validation reports errors")

    simplified = simplify(model)
    core = sum(1 for s in stages if s.kind in CORE_KINDS)
    print(f"simplified: {len(list(simplified.all_stages()))} stages "
          f"(create/process stages in the full form: {core})")
    restored = model_isomorphic(expand(simplified), model)
    print(f"expand restores the full form: {restored}")
    if not restored:
        failures.append("expand does not restore the full form")

    graph = export_activity(simplified)
    kinds: dict[str, int] = {}
    for node in graph.nodes:
        kinds[node.kind] = kinds.get(node.kind, 0) + 1
    print(f"activity view: {kinds}")

    closed = [eventize(model, e) for e in events]
    uncovered = coverage(model, closed)
    print(f"events: {len(events)}; stages in no event region: {list(uncovered)}")

    traces_dir = corpus_dir() / "traces"
    expected = json.loads((traces_dir / "expected.json").read_text())
    for path in sorted(traces_dir.glob("*.json")):
        if path.name == "expected.json":
            continue
        trace = json.loads(path.read_text())
        verdict = conform(trace, behavior)
        state = "conforms" if verdict.conforms else f"fails at {verdict.violation_index}"
        print(f"trace {path.name}: {state} ({verdict.reason})")
        record = expected.get(path.name)
        if record is None:
            failures.append(f"trace {path.name} has no recorded verdict")
        elif (verdict.conforms, verdict.violation_index) != (
            record["conforms"], record["violation_index"]
        ):
            failures.append(f"trace {path.name}: expected conforms={record['conforms']}, "
                            f"violation_index={record['violation_index']}")

    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
