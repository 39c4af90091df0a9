#!/usr/bin/env python3
"""Differential of the text parser and the writers against another revision.

Parses the same seeded texts with this tree's `tmkit.dsl` and with the one
of revision REV, and prints one JSON line that counts each text under one
class:

    same          equal parse results (for an accepted text, also the same
                  output from each writer: `print_model`,
                  `document_to_json`, `render_static` and `render_behavior`;
                  the same document read back by `document_from_json` from
                  that JSON; the same `coverage` of the eventized events; and
                  the same `print_model` of `simplify` and of `expand` after
                  it, and `activity_to_json` of `export_activity` after
                  `simplify`, or the same `TmError` class and message where
                  one of these refuses the model)
    only_order    the same diagnostics in another order
    span          the same codes and messages, some at other positions
    code_message  as many diagnostics, some with another code or message
    count         another number of diagnostics
    ok_flipped    one side accepts the text and the other rejects it
    valid_differs both accept the text but disagree on the parse result or
                  on a writer's output

It exits 1 if any text is counted as `ok_flipped` or `valid_differs`.  The
texts are small documents whose names come from small pools, so machines,
stages, edge labels and events repeat and share ids; edge labels tie in
natural order (f1 and f01); a machine holds zero to two submachines, down to
three levels below its root, so the writers order siblings at every depth;
edges loop and dangle, constraint machines lack a process stage, event
regions are empty, name only what does not resolve or hold an edge with an
end outside them, behavior edges repeat, loop and name undeclared events.  Some texts hold a well-formed statement
where the grammar takes none, which the parser must read token by token: a
flow or trigger in a machine body, a stage declaration at the top level or
in an event region, a ``machine ... {`` head in a region.  Some get a syntax
error spliced in: a character dropped, or a piece of syntax, a '$' or an
'é' put in.  No time is blank, not even after a splice drops a character of it:
the parser rejects a blank time, which older revisions accepted, so such a
text would flip by design.  A quarter of the texts are relay documents,
which `simplify` accepts: machines with names that tie in natural order (A1
and A01) send to each other through complete gate chains, so the transforms
order many sources and targets.  Run from a git checkout; REV's sources are
read with `git show`:

    python3 scripts/parse_diff.py --against HEAD~1 [--count 20000]
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import random
import subprocess
import sys
import tempfile
from collections import Counter
from enum import Enum
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("create", "process", "release", "transfer", "receive")
NAMES = ("A", "B", "C")
LABELS = ("f1", "f01", "f2", "t1", "A", "E1", "x")
EVENTS = ("E1", "E2", "E3", "A", "f1", "t1")
# well-formed statements for places where the grammar takes none
IN_MACHINE = ("flow A.create -> A.process;", 'trigger t1: A.process => B.create if "g";')
AT_TOP = ("create;", 'process store : "p";')
IN_REGION = ("receive;", "create store;", "machine M {", 'machine B : "b" {')
# machine names of relay documents, tied in natural order (A1 and A01)
RELAYS = ("A1", "A01", "A2", "B", "B10", "B010")


def write_revision(rev: str, package: Path) -> None:
    """Write revision ``rev``'s ``src/tmkit/*.py`` into a new directory ``package``."""
    package.mkdir(parents=True)
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-tree", "--name-only", f"{rev}:src/tmkit"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    for name in names:
        if name.endswith(".py"):
            source = subprocess.run(
                ["git", "-C", str(ROOT), "show", f"{rev}:src/tmkit/{name}"],
                check=True, capture_output=True,
            ).stdout
            (package / name).write_bytes(source)


def load_revision(rev: str, into: Path):
    """The ``tmkit`` package of ``rev``, imported as ``tmkit_against``."""
    write_revision(rev, into / "tmkit_against")
    sys.path.insert(0, str(into))
    return importlib.import_module("tmkit_against")


def plain(value):
    """A record tree as tuples, the same for both revisions' classes."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (frozenset, set)):
        return tuple(sorted(map(plain, value), key=repr))
    if isinstance(value, dict):
        return tuple(sorted((key, plain(item)) for key, item in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(map(plain, value))
    if dataclasses.is_dataclass(value):
        fields = [f.name for f in dataclasses.fields(value)]
    else:
        fields = getattr(type(value), "_fields", None)
        if fields is None:
            return value
    return (type(value).__name__, *(plain(getattr(value, name)) for name in fields))


def diagnostics(result) -> list[tuple]:
    return [(d.span.line, d.span.column, d.span.length, d.code, d.message)
            for d in result.diagnostics]


def classify(new, old, write_new, write_old) -> str:
    if new.ok != old.ok:
        return "ok_flipped"
    if new.ok:
        same = plain(new) == plain(old) and write_new(new) == write_old(old)
        return "same" if same else "valid_differs"
    a, b = diagnostics(new), diagnostics(old)
    if a == b:
        return "same"
    if sorted(a) == sorted(b):
        return "only_order"
    if len(a) != len(b):
        return "count"
    if sorted(d[3:] for d in a) == sorted(d[3:] for d in b):
        return "span"
    return "code_message"


# -- texts ---------------------------------------------------------------------


def document(rng: random.Random) -> str:
    """One document text.  A clean one keeps names apart and references
    right; a noisy one draws every name from the shared pools."""
    clean = rng.random() < 0.4

    def pick(pool, taken):
        free = [name for name in pool if not clean or name not in taken]
        return rng.choice(free) if free else None

    statements, refs, ids = [], [], set()

    def machine(path: str, depth: int) -> list[str]:
        name = pick(NAMES, {mid.rpartition(".")[2] for mid in ids if mid.rpartition(".")[0] == path})
        if name is None:
            return []
        mid = f"{path}.{name}" if path else name
        ids.add(mid)
        if clean:
            kinds = rng.sample(KINDS, rng.randint(1, 3))
        else:
            kinds = [rng.choice(KINDS) for _ in range(rng.randint(1, 3))]
        constraint = rng.random() < 0.15 and (not clean or "process" in kinds)
        head = f"machine {name}{' constraint' if constraint else ''}"
        if rng.random() < 0.2:
            head += ' : "shown"'
        lines = [head + " {"]
        for kind in kinds:
            refs.append(f"{mid}.{kind}")
            lines.append(f"  {kind}{' store' if rng.random() < 0.2 else ''};")
        for _ in range(rng.choice((0, 0, 1, 2)) if depth < 3 else 0):
            lines += ["  " + line for line in machine(mid, depth + 1)]
        if rng.random() < 0.05:
            lines.append("  " + rng.choice(IN_MACHINE))
        return lines + ["}"]

    for _ in range(rng.randint(1, 3)):
        body = machine("", 0)
        if body:
            statements.append("\n".join(body))

    def ref() -> str:
        if not clean and rng.random() < 0.1:  # a reference that names nothing
            return rng.choice(("Z.create", "A.receive", "A.B.process", "C.D.transfer"))
        return rng.choice(refs)

    labeled = []  # (label, source, target)
    for _ in range(rng.randint(0, 4)):
        dashed = rng.random() < 0.3
        source, target = ref(), ref()
        if clean and source == target:
            continue
        label = None
        if rng.random() < 0.5:
            label = pick(LABELS, ids | {edge[0] for edge in labeled})
        if label is not None:
            labeled.append((label, source, target))
        keyword, arrow = ("trigger", "=>") if dashed else ("flow", "->")
        guard = ' if "g"' if dashed and rng.random() < 0.5 else ""
        statements.append(f"{keyword} {label + ': ' if label else ''}{source} {arrow} {target}{guard};")
    edge_ids = {edge[0] for edge in labeled} | {"f1", "f2", "f3", "t1", "t2"}  # and auto ids
    if rng.random() < 0.05:
        statements.append(rng.choice(AT_TOP))

    declared = []
    for _ in range(rng.randint(0, 3)):
        eid = pick(EVENTS, ids | edge_ids | set(declared))
        if eid is None:
            continue
        declared.append(eid)
        shape = rng.random()
        if not clean and shape < 0.1:  # an empty region
            region = []
        elif not clean and shape < 0.2:  # a region whose only references name nothing
            region = rng.sample(("Z.create", "C.D.transfer", "edge g9"), rng.randint(1, 2))
        else:
            region = [rng.choice(refs) for _ in range(rng.randint(1, 3))]
        if labeled and rng.random() < 0.3:
            label, source, target = rng.choice(labeled)
            region += [source, target, f"edge {label}"]
        if not clean and rng.random() < 0.3:
            region.append(f"edge {rng.choice(sorted(edge_ids))}")
        if rng.random() < 0.05:
            region.insert(rng.randint(0, len(region)), rng.choice(IN_REGION))
        intensity = ' intensity "low";' if rng.random() < 0.2 else ""
        statements.append(f'event {eid} {{ time "t1"; region {{ {" ".join(region)} }}{intensity} }}')

    pool = declared if clean else declared + ["E9"]  # E9 is never declared
    pairs = []
    for _ in range(rng.randint(0, 4) if len(pool) > 1 else 0):
        pair = rng.choice(pool), rng.choice(pool)
        if not clean or (pair[0] != pair[1] and pair not in pairs):
            pairs.append(pair)
    if pairs:
        group = ' excl "g"'
        edges = [f"{s} -> {t}{group if rng.random() < 0.2 else ''};" for s, t in pairs]
        if rng.random() < 0.5:  # one edge a line, each of which a comment may precede
            statements.append("behavior {\n  " + "\n  ".join(edges) + "\n}")
        else:
            statements.append(f"behavior {{ {' '.join(edges)} }}")

    if rng.random() < 0.3:
        rng.shuffle(statements)
    text = "\n".join(statements) + "\n"
    if rng.random() < 0.15:
        text = splice(rng, text)
    if rng.random() < 0.3:
        lines = text.split("\n")
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randrange(len(lines)), "# a comment")
        text = "\n".join(lines)
    return text


def relay_document(rng: random.Random) -> str:
    """A document `simplify` accepts: machines with tied names whose
    create or process stages send to others' process stages through complete
    gate chains, some gates fed or feeding a trigger, and events over the
    stages."""
    names = rng.sample(RELAYS, rng.randint(2, 5))
    sends = [(src, dst) for src in names for dst in names if src != dst and rng.random() < 0.4]
    cores = {name: rng.sample(("create", "process"), rng.randint(1, 2)) for name in names}
    for _, dst in sends:
        cores[dst] = ["process"] + [kind for kind in cores[dst] if kind != "process"]
    gates = {name: set() for name in names}
    for src, dst in sends:
        gates[src] |= {"release", "transfer"}
        gates[dst] |= {"transfer", "receive"}
    statements = []
    for name in names:
        kinds = [kind for kind in KINDS if kind in cores[name] or kind in gates[name]]
        statements.append("\n".join([f"machine {name} {{", *(f"  {kind};" for kind in kinds), "}"]))
    edges, stages = [], [f"{name}.{kind}" for name in names for kind in cores[name]]
    for src, dst in sends:
        chain = (f"{src}.{rng.choice(cores[src])}", f"{src}.release", f"{src}.transfer",
                 f"{dst}.transfer", f"{dst}.receive", f"{dst}.process")
        edges += [pair for pair in zip(chain, chain[1:]) if pair not in edges]
    labels = iter(rng.sample(("f01", "f02", "f010", "f001", "g1", "g01"), 6))
    for source, target in edges:
        label = next(labels, None) if rng.random() < 0.3 else None
        statements.append(f"flow {label + ': ' if label else ''}{source} -> {target};")
    gated = [f"{name}.{gate}" for name in names for gate in sorted(gates[name])]
    for _ in range(rng.randint(0, 2) if gated else 0):
        ends = [rng.choice(gated), rng.choice(stages)]
        rng.shuffle(ends)
        statements.append(f"trigger {ends[0]} => {ends[1]};")
    for eid in rng.sample(EVENTS[:3], rng.randint(0, 3)):
        region = " ".join(rng.sample(stages + gated, min(3, rng.randint(1, len(stages)))))
        statements.append(f'event {eid} {{ time "t1"; region {{ {region} }} }}')
    return "\n".join(statements) + "\n"


def splice(rng: random.Random, text: str) -> str:
    """The text with a syntax error: a character dropped or a piece put in."""
    at = rng.randrange(len(text))
    if rng.random() < 0.5:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice((";", "{", "}", " machine ", " -> ", '"', " flow ", ".", "$", "é")) + text[at:]


def main(argv=None) -> int:
    args = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    args.add_argument("--against", required=True, metavar="REV", help="the git revision to compare with")
    args.add_argument("--count", type=int, default=20000, help="the number of texts (20000)")
    opts = args.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import tmkit

    with tempfile.TemporaryDirectory() as tmp:
        old_tmkit = load_revision(opts.against, Path(tmp))
        rng = random.Random(0)  # the first n texts are the same for every count n
        writers = _writers(tmkit), _writers(old_tmkit)
        counts: Counter = Counter()
        valid = 0
        for _ in range(opts.count):
            text = relay_document(rng) if rng.random() < 0.25 else document(rng)
            new, old = tmkit.dsl.parse(text), old_tmkit.dsl.parse(text)
            counts[classify(new, old, *writers)] += 1
            valid += new.ok and old.ok
    classes = ("same", "only_order", "span", "code_message", "count", "ok_flipped", "valid_differs")
    print(json.dumps({"against": opts.against, "texts": opts.count, "valid": valid,
                      **{name: counts[name] for name in classes}}))
    return 1 if counts["ok_flipped"] or counts["valid_differs"] else 0


def _writers(package):
    """What each writer of ``package`` makes of an accepted parse result,
    what its JSON reader makes of the JSON written, and what `coverage` and
    the transforms make of the model."""
    behavior, dsl, jsonio, model, render, transform, uml = (
        importlib.import_module(f"{package.__name__}.{name}")
        for name in ("behavior", "dsl", "jsonio", "model", "render", "transform", "uml"))

    def attempt(make):
        """make(), or the class name and message of the `TmError` it raises."""
        try:
            return make()
        except model.TmError as exc:
            return type(exc).__name__, str(exc)

    def transformed(m) -> tuple:
        simple = transform.simplify(m)
        return (
            dsl.print_model(simple),
            attempt(lambda: uml.activity_to_json(uml.export_activity(simple))),
            attempt(lambda: dsl.print_model(transform.expand(simple))),
        )

    def write(r) -> tuple:
        document = jsonio.document_to_json(r.model, r.events, r.behavior)
        return (
            dsl.print_model(r.model, r.events, r.behavior, r.comments),
            document,
            render.render_static(r.model),
            render.render_behavior(r.behavior, r.events),
            plain(jsonio.document_from_json(document)),
            attempt(lambda: behavior.coverage(
                r.model, [behavior.eventize(r.model, e) for e in r.events])),
            attempt(lambda: transformed(r.model)),
        )

    return write


if __name__ == "__main__":
    sys.exit(main())
