#!/usr/bin/env python3
"""Start-up cost of `tmkit` command lines, with and without bytecode.

Runs each command line of the benchmark's corpus-cli workload (nine fixed
ones and one `trace` per trace file of the corpus) as a fresh
``python -B -m tmkit.cli``, from a copy of ``src/`` in two bytecode states:

    cold       the copy holds no ``__pycache__``, so every run compiles each
               tmkit module it imports (``-B`` keeps it from writing one)
    installed  a second copy after ``compileall``, as `pip install` leaves
               it, so runs read bytecode

It also runs a bare ``python -B -c pass`` and ``python -B -c "import os;
os._exit(0)"``, which leaves before the interpreter's teardown, so the
difference between the two is what the teardown costs.  The states are
pinned by the directories, not by ``PYTHONPYCACHEPREFIX``, which would move
the standard library's bytecode too and make the bare interpreter compile
it; that variable is removed from the children's environment.  Each round
runs every command line once per state (and per revision, with
``--against``), one after another, so slow spells of the host fall on all of
them alike.  It prints one JSON line: per revision, state and command line,
the minimum and median wall time in ms and the largest peak resident size of
the child in MiB, its exit status, and the same for the bare interpreter
with and without its teardown.  Under ``modules`` it gives, for each module
of this checkout's ``src/tmkit``, its code tokens (`code_tokens`, the count
tests/test_imports.py caps) and the peak `tracemalloc` reading in MiB while
``compile()`` runs on it, all measured in one child: in a cold run the
largest module a command line loads sets the run's peak.  Run from a git
checkout:

    python3 scripts/coldstart.py [--rounds 15] [--against REV]

``--against REV`` also times revision REV's ``src/tmkit``, read with
`git show` as `parse_diff.py` reads it, over this checkout's corpus.  It
exits 1 if a command line's exit status changes between runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

from parse_diff import write_revision

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
STATES = ("cold", "installed")


def command_lines() -> dict[str, list[str]]:
    """corpus-cli's command lines, by its names for them."""
    tm, act = str(CORPUS / "mentcare.tm"), str(CORPUS / "mentcare.act.json")
    lines = {
        "check": ["check", tm],
        "fmt": ["fmt", tm],
        "simplify": ["simplify", tm],
        "export-uml": ["export-uml", tm],
        "import-uml": ["import-uml", act, "--full"],
        "events": ["events", tm],
        "render": ["render", tm],
        "render-highlight": ["render", tm, "--highlight", "E5"],
        "render-behavior": ["render", tm, "--behavior"],
    }
    traces = CORPUS / "traces"
    for name in sorted(json.loads((traces / "expected.json").read_text(encoding="utf-8"))):
        lines[f"trace:{name}"] = ["trace", tm, "--trace", f"@{traces / name}"]
    return lines


def both_states(tree: Path, into: Path) -> dict[str, Path]:
    """Copies of ``tree`` without bytecode and with all of it compiled."""
    cold, installed = into / "cold", into / "installed"
    for copy in (cold, installed):
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(installed)], check=True,
                   stdout=subprocess.DEVNULL)
    return {"cold": cold, "installed": installed}


# Runs the children of a plan read from stdin, [argvs, envs, [[argv index,
# env index], ...]], one after another with their output to /dev/null, and
# prints [wall ms, exit status, peak resident size] of each.  A small process
# of its own, since a child's peak counts the memory of the process that
# starts it (KiB on Linux, bytes on macOS).
LAUNCHER = """
import json, os, sys, time
argvs, envs, order = json.load(sys.stdin)
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
out = []
for i, j in order:
    start = time.perf_counter()
    pid = os.posix_spawn(argvs[i][0], argvs[i], envs[j], file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    out.append(((time.perf_counter() - start) * 1000, os.waitstatus_to_exitcode(status),
                usage.ru_maxrss))
json.dump(out, sys.stdout)
"""


def code_tokens(source: str) -> int:
    """The code tokens of Python ``source``: every `tokenize` token but
    COMMENT and NL.  From Python 3.12 on, `tokenize` splits an f-string into
    parts; each run from FSTRING_START to its FSTRING_END counts as the one
    STRING token earlier versions give, so the count is the same on every
    version."""
    start, end = getattr(tokenize, "FSTRING_START", None), getattr(tokenize, "FSTRING_END", None)
    count = depth = 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == start:
            count += depth == 0
            depth += 1
        elif tok.type == end:
            depth -= 1
        elif depth == 0 and tok.type not in (tokenize.COMMENT, tokenize.NL):
            count += 1
    return count


# Compiles each module of the directory argv[1] as an import compiles it,
# and prints, per module, the peak traced memory in MiB above what was traced
# before the compile began.
COMPILE_PEAKS = """
import json, sys, tracemalloc
from pathlib import Path
sources = {path.stem: (str(path), path.read_text(encoding="utf-8"))
           for path in sorted(Path(sys.argv[1]).glob("*.py"))}
peaks = {}
tracemalloc.start()
for name, (path, source) in sources.items():
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    code = compile(source, path, "exec", dont_inherit=True)
    peaks[name] = round((tracemalloc.get_traced_memory()[1] - before) / 2**20, 2)
    del code
json.dump(peaks, sys.stdout)
"""


def module_costs(package: Path) -> dict[str, dict]:
    """Code tokens and compile peak (MiB) of each module of ``package``."""
    peaks = json.loads(subprocess.run([sys.executable, "-B", "-c", COMPILE_PEAKS, str(package)],
                                      check=True, capture_output=True, text=True).stdout)
    return {name: {"code_tokens": code_tokens((package / f"{name}.py").read_text(encoding="utf-8")),
                   "compile_peak_mib": peak}
            for name, peak in peaks.items()}


def summary(runs: list[tuple[float, int, int]]) -> dict:
    times = sorted(ms for ms, _, _ in runs)
    mid = len(times) // 2
    median = times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2
    peak = max(rss for _, _, rss in runs) / (1024 * 1024 if sys.platform == "darwin" else 1024)
    return {"min_ms": round(times[0], 2), "median_ms": round(median, 2),
            "maxrss_mib": round(peak, 2), "status": runs[0][1]}


def main(argv=None) -> int:
    args = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    args.add_argument("--rounds", type=int, default=15, help="runs of each command line (15)")
    args.add_argument("--against", metavar="REV", help="also time this git revision's tmkit")
    opts = args.parse_args(argv)

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    lines = command_lines()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"this": both_states(ROOT / "src", Path(tmp) / "this")}
        if opts.against:
            source = Path(tmp) / "against-source"
            write_revision(opts.against, source / "tmkit")
            trees[opts.against] = both_states(source, Path(tmp) / "against")
        envs = [{**env, "PYTHONPATH": str(states[state])}
                for states in trees.values() for state in STATES]
        keys = [(tree, state) for tree in trees for state in STATES]
        argvs = [[sys.executable, "-B", "-c", "pass"],
                 [sys.executable, "-B", "-c", "import os; os._exit(0)"]]
        bare = len(argvs)
        argvs += [[sys.executable, "-B", "-m", "tmkit.cli", *line] for line in lines.values()]
        order = []  # (argv, env) per child: each round the bare interpreters, then each line
        for _ in range(opts.rounds):
            order += [(i, 0) for i in range(bare)]
            order += [(i, j) for i in range(bare, len(argvs)) for j in range(len(envs))]
        plan = json.dumps([argvs, envs, order])
        done = subprocess.run([sys.executable, "-B", "-c", LAUNCHER], input=plan, check=True,
                              capture_output=True, text=True).stdout
    names = list(lines)
    runs: dict = {}  # (tree, state, command line name) -> its results
    interpreter: dict = {}  # bare argv index -> its results
    for (i, j), result in zip(order, json.loads(done)):
        if i < bare:
            interpreter.setdefault(i, []).append(result)
        else:
            runs.setdefault((*keys[j], names[i - bare]), []).append(result)
    changed = sorted({name for (_, _, name), got in runs.items() if len({s for _, s, _ in got}) > 1})
    print(json.dumps({
        "python": sys.version.split()[0],
        "rounds": opts.rounds,
        "interpreter": summary(interpreter[0]),
        "interpreter_without_teardown": summary(interpreter[1]),
        "trees": {tree: {state: {name: summary(runs[tree, state, name]) for name in lines}
                         for state in STATES}
                  for tree in trees},
        "unstable_status": changed,
        "modules": module_costs(ROOT / "src" / "tmkit"),
    }))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
