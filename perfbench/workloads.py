"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs one operation at a time
(`op`, the timed part, which returns the input size and the raw outputs) and
checks the outputs against facts that hold by construction or against the
corpus's golden files (`check`, untimed, which raises `Mismatch` and returns
the sizes of the intermediate results).  Every call into tmkit goes through
the `call` argument, so a traced run can wrap it in a span.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import gen
from tmkit import behavior, cli, dsl, jsonio, model, render, transform, uml, validate


class Mismatch(Exception):
    """An output disagrees with the oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


class Workload:
    """Defaults for a workload that runs tmkit in this process."""

    def probe(self):
        """A larger input for the growth probe, with labels for both sizes;
        None when the workload has no probe."""
        return None

    def key(self, i: int) -> int:
        """The class of operation `i`'s input.  Inputs of one class ask for
        the same work, so the fastest operation of each class measures it."""
        return 0

    @staticmethod
    def peak_rss_mib() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _model_counts(m, events, behav) -> dict:
    return {
        "machines": sum(1 for _ in m.all_machines()),
        "stages": sum(1 for _ in m.all_stages()),
        "flows": len(m.flows),
        "triggers": len(m.triggers),
        "events": len(events),
        "behavior_edges": len(behav.edges),
    }


def _json_counts(doc: dict) -> dict:
    machines, stages, todo = 0, 0, list(doc["machines"])
    while todo:
        m = todo.pop()
        machines += 1
        stages += len(m["stages"])
        todo.extend(m["submachines"])
    return {
        "machines": machines,
        "stages": stages,
        "flows": len(doc["flows"]),
        "triggers": len(doc["triggers"]),
        "events": len(doc["events"]),
        "behavior_edges": len(doc["behavior"]["edges"]),
    }


def _dot_edges(dot: str) -> int:
    return sum(1 for line in dot.splitlines() if '" -> "' in line)


# -- large-doc -------------------------------------------------------------------


class LargeDoc(Workload):
    """One ~80 KiB full-form document through the whole library pipeline."""

    GROUPS = 40  # 160 machines; the growth probe uses 4x as many

    def __init__(self, root: Path, seed: int, scale: int = 1) -> None:
        self.root, self.seed = root, seed
        self.doc = gen.large_doc(seed, scale * self.GROUPS)
        self.nbytes = len(self.doc.text.encode())

    def op(self, i: int, call) -> tuple[int, dict]:
        doc = self.doc
        r = call("dsl.parse", dsl.parse, doc.text)
        m, events, behav = r.model, r.events, r.behavior
        out = {"parsed": r}
        out["diags"] = call("validate.validate_document", validate.validate_document, m, events, behav)
        out["closed"] = [call("behavior.eventize", behavior.eventize, m, e) for e in events]
        out["uncovered"] = call("behavior.coverage", behavior.coverage, m, out["closed"])
        out["verdicts"] = [call("behavior.conform", behavior.conform, t, behav) for t, _, _ in doc.traces]
        out["simplified"] = call("transform.simplify", transform.simplify, m)
        out["expanded"] = call("transform.expand", transform.expand, out["simplified"])
        out["printed"] = call("dsl.print_model", dsl.print_model, m, events, behav)
        out["json"] = call("jsonio.document_to_json", jsonio.document_to_json, m, events, behav)
        out["from_json"] = call("jsonio.document_from_json", jsonio.document_from_json, out["json"])
        out["dot"] = call("render.render_static", render.render_static, m)
        out["dot_behavior"] = call("render.render_behavior", render.render_behavior, behav, events)
        return self.nbytes, out

    def check(self, i: int, out: dict) -> dict:
        doc = self.doc
        r = out["parsed"]
        expect(r.ok, "parse reported diagnostics")
        expect(_model_counts(r.model, r.events, r.behavior) == doc.counts, "parsed counts")
        expect(out["diags"] == [], "validate_document found diagnostics")
        closures = {e.id: sorted(e.region.edge_ids, key=gen.natural_key) for e in out["closed"]}
        expect(closures == doc.closures, "eventize closures")
        expect(list(out["uncovered"]) == doc.uncovered, "coverage")
        verdicts = [(v.conforms, v.violation_index) for v in out["verdicts"]]
        expect(verdicts == [(c, k) for _, c, k in doc.traces], "conform verdicts")
        s = out["simplified"]
        expect({(f.source, f.target) for f in s.flows} == doc.simplified_flows, "simplified flows")
        expect(sum(1 for _ in s.all_stages()) == doc.simplified_stages, "simplified stages")
        x = out["expanded"]
        expect(sum(1 for _ in x.all_stages()) == doc.counts["stages"], "expanded stages")
        expect(len(x.flows) == doc.counts["flows"], "expanded flows")
        expect(out["printed"] == doc.text, "print_model is not the canonical input text")
        expect(_json_counts(json.loads(out["json"])) == doc.counts, "document_to_json counts")
        expect(_model_counts(*out["from_json"]) == doc.counts, "document_from_json counts")
        expect(_dot_edges(out["dot"]) == doc.render_static_edges, "render_static edges")
        expect(out["dot"].count("subgraph ") == doc.counts["machines"], "render_static clusters")
        expect(_dot_edges(out["dot_behavior"]) == doc.counts["behavior_edges"], "render_behavior edges")
        return {
            "dsl.parse.bytes_in": self.nbytes,
            "dsl.parse.stages_out": doc.counts["stages"],
            "transform.simplify.flows_out": len(s.flows),
            "transform.expand.stages_out": sum(1 for _ in x.all_stages()),
            "dsl.print_model.bytes_out": len(out["printed"].encode()),
            "jsonio.document_to_json.bytes_out": len(out["json"].encode()),
            "render.render_static.bytes_out": len(out["dot"].encode()),
        }

    def probe(self):
        """The growth probe's input: one document 4x as large."""
        return LargeDoc(self.root, self.seed, scale=4), (
            f"{self.GROUPS * 4} machines", f"{self.GROUPS * 16} machines")


# -- gate-relay ------------------------------------------------------------------


class GateRelay(Workload):
    """Small documents whose cost is gate-chain contraction in `simplify`."""

    # width, layers, fan-out: 3**7 * 3 gate paths per document.  Deeper
    # relays make operations longer than the host's fast stretches, and then
    # even the fastest operation follows the host's load.  The pool's
    # documents share this shape, so they form one class (`key`).
    SHAPE = (3, 7, 3)
    POOL = 8

    def __init__(self, root: Path, seed: int, extra_layers: int = 0, pool: int = POOL) -> None:
        self.root, self.seed = root, seed
        width, layers, fanout = self.SHAPE
        self.docs = [gen.gate_relay(seed, k, width, layers + extra_layers, fanout) for k in range(pool)]

    def op(self, i: int, call) -> tuple[int, dict]:
        doc = self.docs[i % len(self.docs)]
        r = call("dsl.parse", dsl.parse, doc.text)
        out = {"parsed": r}
        out["diags"] = call("validate.validate_static", validate.validate_static, r.model)
        out["simplified"] = call("transform.simplify", transform.simplify, r.model)
        out["expanded"] = call("transform.expand", transform.expand, out["simplified"])
        out["activity"] = call("uml.export_activity", uml.export_activity, out["simplified"])
        return len(doc.text.encode()), out

    def check(self, i: int, out: dict) -> dict:
        doc, r = self.docs[i % len(self.docs)], out["parsed"]
        expect(r.ok, "parse reported diagnostics")
        expect(_model_counts(r.model, r.events, r.behavior) == doc.counts, "parsed counts")
        expect(out["diags"] == [], "validate_static found diagnostics")
        s, x, a = out["simplified"], out["expanded"], out["activity"]
        expect({(f.source, f.target) for f in s.flows} == doc.simplified_flows, "simplified flows")
        expect(sum(1 for _ in s.all_stages()) == doc.simplified_stages, "simplified stages")
        expect(sum(1 for _ in x.all_stages()) == doc.expanded_stages, "expanded stages")
        expect(len(x.flows) == doc.expanded_flows, "expanded flows")
        kinds: dict = {}
        for node in a.nodes:
            kinds[node.kind] = kinds.get(node.kind, 0) + 1
        expect(kinds == doc.activity_nodes and len(a.edges) == doc.activity_edges, "activity graph")
        return {
            "dsl.parse.bytes_in": len(doc.text.encode()),
            "dsl.parse.stages_out": doc.counts["stages"],
            "transform.simplify.flows_out": len(s.flows),
            "transform.expand.stages_out": doc.expanded_stages,
        }

    def probe(self):
        """The growth probe's input: relay(W, K + 2) with the same fan-out."""
        layers = self.SHAPE[1]
        return GateRelay(self.root, self.seed, extra_layers=2, pool=1), (f"K={layers}", f"K={layers + 2}")


# -- small-docs ------------------------------------------------------------------


class SmallDocs(Workload):
    """Thousands of 1-8-machine documents, each paired with an activity graph
    of as many actions: one operation takes one pair through the text, JSON,
    isomorphism and UML paths, where per-call costs dominate."""

    POOL = 2000
    MAX_MACHINES = 8

    def __init__(self, root: Path, seed: int) -> None:
        rng = random.Random(f"small-docs/{seed}")
        sizes = [k % self.MAX_MACHINES + 1 for k in range(self.POOL)]
        self.pairs = [(gen.small_doc(rng, n), gen.small_graph(rng, n)) for n in sizes]

    def key(self, i: int) -> int:
        """Pairs of one size, 1 to 8 machines and actions, form a class."""
        return i % len(self.pairs) % self.MAX_MACHINES

    def op(self, i: int, call) -> tuple[int, dict]:
        doc, graph = self.pairs[i % len(self.pairs)]
        r = call("dsl.parse", dsl.parse, doc.text)
        m, events, behav = r.model, r.events, r.behavior
        out = {"parsed": r}
        out["diags"] = call("validate.validate_document", validate.validate_document, m, events,
                            behav, mode=doc.mode)
        out["printed"] = call("dsl.print_model", dsl.print_model, m, events, behav)
        out["json"] = call("jsonio.document_to_json", jsonio.document_to_json, m, events, behav)
        out["from_json"] = call("jsonio.document_from_json", jsonio.document_from_json, out["json"])
        out["iso"] = call("model.model_isomorphic", model.model_isomorphic, m, out["from_json"][0])
        g = call("uml.activity_from_json", uml.activity_from_json, graph.text)
        out["imported"] = call("uml.import_activity", uml.import_activity, g)
        exported = call("uml.export_activity", uml.export_activity, out["imported"])
        out["activity_iso"] = call("uml.activity_isomorphic", uml.activity_isomorphic, g, exported)
        out["activity_json"] = call("uml.activity_to_json", uml.activity_to_json, exported)
        return len(doc.text.encode()) + len(graph.text.encode()), out

    def check(self, i: int, out: dict) -> dict:
        doc, graph = self.pairs[i % len(self.pairs)]
        r = out["parsed"]
        expect(r.ok, "parse reported diagnostics")
        expect(_model_counts(r.model, r.events, r.behavior) == doc.counts, "parsed counts")
        expect(not validate.has_errors(out["diags"]), "validate_document found errors")
        expect(out["printed"] == doc.text, "print_model is not the canonical input text")
        expect(_json_counts(json.loads(out["json"])) == doc.counts, "document_to_json counts")
        expect(_model_counts(*out["from_json"]) == doc.counts, "document_from_json counts")
        expect(out["iso"] is True, "model_isomorphic denies a model equals its JSON round trip")
        m = out["imported"]
        got = (sum(1 for _ in m.all_machines()), len(m.flows), len(m.triggers))
        expect(got == (graph.machines, graph.flows, graph.triggers), "import_activity counts")
        expect(out["activity_iso"] is True, "activity round trip is not isomorphic")
        a = json.loads(out["activity_json"])
        expect((len(a["nodes"]), len(a["edges"])) == (graph.nodes, graph.edges), "activity_to_json counts")
        return {
            "dsl.parse.bytes_in": len(doc.text.encode()),
            "dsl.parse.stages_out": doc.counts["stages"],
            "dsl.print_model.bytes_out": len(out["printed"].encode()),
            "jsonio.document_to_json.bytes_out": len(out["json"].encode()),
        }


# -- corpus-cli ------------------------------------------------------------------


class CorpusCli(Workload):
    """A fixed mix of `tmkit` command lines over the bundled corpus, each a
    fresh interpreter, in a seeded order: what a user waits for on every save."""

    MIX_CYCLES = 200

    def __init__(self, root: Path, seed: int) -> None:
        corpus = root / "corpus"
        tm, act = corpus / "mentcare.tm", corpus / "mentcare.act.json"
        self.tm_text = tm.read_text(encoding="utf-8")
        self.tm_outline = outline(self.tm_text)
        self.act = json.loads(act.read_text(encoding="utf-8"))
        golden = corpus / "golden"
        expected = json.loads((corpus / "traces" / "expected.json").read_text(encoding="utf-8"))
        calls = [
            ("check", [tm], ["check", str(tm)]),
            ("fmt", [tm], ["fmt", str(tm)]),
            ("simplify", [tm], ["simplify", str(tm)]),
            ("export-uml", [tm], ["export-uml", str(tm)]),
            ("import-uml", [act], ["import-uml", str(act), "--full"]),
            ("events", [tm], ["events", str(tm)]),
            ("render", [tm], ["render", str(tm)]),
            ("render-highlight", [tm], ["render", str(tm), "--highlight", "E5"]),
            ("render-behavior", [tm], ["render", str(tm), "--behavior"]),
        ]
        for name in sorted(expected):
            trace = corpus / "traces" / name
            calls.append((f"trace:{name}", [tm, trace], ["trace", str(tm), "--trace", f"@{trace}"]))
        self.golden = {
            "fmt": self.tm_text,
            "events": (golden / "uncovered.txt").read_text(encoding="utf-8"),
            "render": (golden / "static.dot").read_text(encoding="utf-8"),
            "render-highlight": (golden / "highlight_e5.dot").read_text(encoding="utf-8"),
            "render-behavior": (golden / "behavior.dot").read_text(encoding="utf-8"),
        }
        self.expected_traces = expected
        self.calls = [(name, sum(p.stat().st_size for p in files), argv) for name, files, argv in calls]
        rng = random.Random(f"corpus-cli/{seed}")
        self.order: list[int] = []
        for _ in range(self.MIX_CYCLES):
            cycle = list(range(len(self.calls)))
            rng.shuffle(cycle)
            self.order += cycle
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        signal.signal(signal.SIGALRM, _on_alarm)

    def key(self, i: int) -> int:
        """Each of the command lines is a class."""
        return self.order[i % len(self.order)]

    def op(self, i: int, call) -> tuple[int, dict]:
        name, nbytes, argv = self.calls[self.order[i % len(self.order)]]
        proc = self._run(CLI_PREFIX + argv, capture=True)
        return nbytes, {"name": name, "status": proc.returncode, "stdout": proc.stdout}

    def beside(self, i: int, call) -> tuple[dict, dict]:
        """The same command line through `cli.run` in this process, for
        `cli.run.ms`, and the interpreter probes: a bare interpreter, and
        one that imports `tmkit.cli` (its excess is `cli.import_ms`)."""
        name, _, argv = self.calls[self.order[i % len(self.order)]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = call("cli.run", cli.run, argv)
        bare = self._wall_ms([CLI_PREFIX[0], "-B", "-c", "pass"])
        imported = self._wall_ms([CLI_PREFIX[0], "-B", "-c", "import tmkit.cli"])
        probes = {"cli.interpreter_ms": bare, "cli.import_ms": imported - bare}
        return {"name": name, "status": status, "stdout": out.getvalue()}, probes

    def _wall_ms(self, argv: list[str]) -> float:
        start = time.perf_counter()
        self._run(argv, capture=False).check_returncode()
        return (time.perf_counter() - start) * 1000

    def _run(self, argv: list[str], capture: bool) -> subprocess.CompletedProcess:
        """`subprocess.run` without a timeout: with one, its wait polls with
        sleeps of up to 50 ms, which would land in the measured time.  An
        alarm bounds the child instead; `subprocess.run` kills and reaps it
        when the alarm's exception interrupts the wait."""
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            return subprocess.run(argv, env=self.env, cwd=self.root, capture_output=capture, text=True)
        finally:
            signal.alarm(0)

    def check(self, i: int, out: dict) -> dict:
        name, status, stdout = out["name"], out["status"], out["stdout"]
        if name.startswith("trace:"):
            want = self.expected_traces[name.split(":", 1)[1]]
            expect(status == (0 if want["conforms"] else 1), f"{name}: exit status {status}")
            head = "conforms:" if want["conforms"] else f"violation at index {want['violation_index']}:"
            expect(stdout.startswith(head), f"{name}: verdict {stdout.strip()!r}")
            return {}
        expect(status == 0, f"{name}: exit status {status}")
        if name in self.golden:
            expect(stdout == self.golden[name], f"{name}: output differs from the golden file")
        elif name == "check":
            expect(stdout == "0 errors, 0 warnings\n", f"check: {stdout.strip()!r}")
        elif name == "simplify":
            source, simplified = self.tm_outline, outline(stdout)
            expect(len(simplified) == len(source), "simplify: machine count")
            expect(all(k in gen.CORE for kinds in simplified for k in kinds), "simplify: gate stage left")
            core = sum(1 for kinds in source for k in kinds if k in gen.CORE)
            expect(sum(map(len, simplified)) == core, "simplify: create/process stage count")
        elif name == "export-uml":
            graph = json.loads(stdout)
            kinds = [n["kind"] for n in graph["nodes"]]
            acting = sum(1 for kinds_ in self.tm_outline if set(kinds_) & gen.CORE)
            expect(kinds.count("Initial") == 1 and kinds.count("Final") == 1, "export-uml: initial/final")
            expect(kinds.count("Action") == acting, "export-uml: one action per acting machine")
            ids = {n["id"] for n in graph["nodes"]}
            expect(all(e["from"] in ids and e["to"] in ids for e in graph["edges"]), "export-uml: edges")
        elif name == "import-uml":
            machines = outline(stdout)
            actions = sum(1 for n in self.act["nodes"] if n["kind"] == "Action")
            expect(len(machines) == actions, "import-uml: one machine per action")
            expect(sum(k.count("process") for k in machines) == actions, "import-uml: process stages")
            expect(sum(k.count("create") for k in machines) == 1, "import-uml: one create stage")
        return {}

    def peak_rss_mib(self) -> float:
        """The largest tmkit child, with each command line run once more
        from a small launcher process.  A child's peak counts the memory of
        the process that started it, which the child shares until it execs,
        so children of the benchmark process would report that process's
        size wherever it is the larger."""
        argvs = [CLI_PREFIX + argv for _, _, argv in self.calls]
        proc = self._run([sys.executable, "-B", "-c", LAUNCHER, json.dumps(argvs)], capture=True)
        proc.check_returncode()
        return int(proc.stdout) / 1024


CHILD_TIMEOUT_S = 60

# Runs each command line of argv[1] (a JSON list) and prints the largest
# child's peak resident memory in KiB.
LAUNCHER = """
import json, resource, subprocess, sys
for argv in json.loads(sys.argv[1]):
    subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _on_alarm(signum, frame):
    raise TimeoutError(f"a tmkit child ran for over {CHILD_TIMEOUT_S} s")


# The command line a user types as `tmkit`: a fresh interpreter that writes no
# bytecode, so each call pays compilation whether or not a __pycache__ exists.
CLI_PREFIX = [sys.executable, "-B", "-m", "tmkit.cli"]


def outline(text: str) -> list[list[str]]:
    """Stage kinds per machine block of canonical model text, read line by
    line without tmkit."""
    machines, stack = [], []
    for line in text.splitlines():
        word = line.strip().split(" ", 1)[0].rstrip(";")
        if word == "machine":
            machines.append([])
            stack.append(machines[-1])
        elif word == "}" and stack:
            stack.pop()
        elif stack and word in gen.KIND_ORDER and line.rstrip().endswith(";"):
            stack[-1].append(word)
    return machines


WORKLOADS = {
    "corpus-cli": CorpusCli,
    "large-doc": LargeDoc,
    "gate-relay": GateRelay,
    "small-docs": SmallDocs,
}
