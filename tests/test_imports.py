"""What `import tmkit` and each `tmkit` command line load, how much each
module costs to compile, and the package's public surface under lazy
loading."""

from __future__ import annotations

import ast
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tmkit
from tmkit.cli import run
from tmkit.corpus import corpus_dir, mentcare_path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(path.stem for path in (SRC / "tmkit").glob("*.py") if path.stem != "__init__")
sys.path.insert(0, str(ROOT / "scripts"))
from coldstart import code_tokens, module_costs  # noqa: E402

# Runs one command line through `cli.run`, output to a file, and prints, on
# its last line, its status, whether `json` and `argparse` were imported,
# which of `dataclasses` and `inspect` were ("-" for neither; a cold start
# pays milliseconds for each), and every tmkit module loaded.
_PROBE = (
    "import sys\n"
    "from tmkit.cli import run\n"
    "status = run(sys.argv[1:])\n"
    "slow = ','.join(sorted({'dataclasses', 'inspect'} & sys.modules.keys())) or '-'\n"
    "print(status, 'json' in sys.modules, 'argparse' in sys.modules, slow,"
    " *sorted(m for m in sys.modules if m.split('.')[0] == 'tmkit'))\n"
)


def _fresh(*args: str, stdin: bytes = b"") -> str:
    """stdout of a fresh `python -B` that imports tmkit from this source tree."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-B", *args], capture_output=True, input=stdin,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def _probe(argv: list[str]) -> tuple[int, bool, bool, str, set[str]]:
    status, json_loaded, argparse_loaded, slow, *modules = (
        _fresh("-c", _PROBE, *argv).splitlines()[-1].split())
    return int(status), json_loaded == "True", argparse_loaded == "True", slow, set(modules)


# every command line loads these; `tmkit.iso` is loaded by none
BASE = {"tmkit", "tmkit.cli", "tmkit.model", "tmkit.core"}
TEXT_IN = {"tmkit.dsl", "tmkit.grammar", "tmkit.lexer"}  # the parser's three modules
TEXT_OUT, CHECKS = "tmkit.printer", "tmkit.validate"
# uml imports activity and transform, and activity imports jsonio
UML = {"tmkit.uml", "tmkit.activity", "tmkit.transform", "tmkit.jsonio"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    """The corpus files, and the corpus model as canonical JSON and simplified."""
    tmp = tmp_path_factory.mktemp("inputs")
    paths = {"tm": mentcare_path(), "json": tmp / "m.json", "simplified": tmp / "s.tm",
             "act": corpus_dir() / "mentcare.act.json",
             "trace": corpus_dir() / "traces" / "ok_police_path.json"}
    assert run(["fmt", "--json", str(paths["tm"]), "-o", str(paths["json"])]) == 0
    assert run(["simplify", str(paths["tm"]), "-o", str(paths["simplified"])]) == 0
    return paths


COMMANDS = [
    (["check", "{tm}"], 0, {*TEXT_IN, CHECKS}, False),
    (["check", "{tm}", "--simplified"], 1, {*TEXT_IN, CHECKS}, False),
    (["fmt", "{tm}"], 0, {*TEXT_IN, TEXT_OUT}, False),
    (["fmt", "{tm}", "--json"], 0, {*TEXT_IN, "tmkit.jsonio"}, True),
    (["fmt", "{json}"], 0, {"tmkit.jsonio", TEXT_OUT}, True),
    (["check", "{json}"], 0, {"tmkit.jsonio", CHECKS}, True),
    (["render", "{tm}"], 0, {*TEXT_IN, "tmkit.render"}, False),
    (["render", "{tm}", "--behavior"], 0, {*TEXT_IN, "tmkit.render"}, False),
    (["render", "{tm}", "--highlight", "E5"], 0, {*TEXT_IN, "tmkit.render", "tmkit.behavior"},
     False),
    (["events", "{tm}"], 0, {*TEXT_IN, CHECKS, "tmkit.behavior"}, False),
    (["trace", "{tm}", "--trace", "E1,E2"], 0, {*TEXT_IN, CHECKS, "tmkit.behavior"}, False),
    (["trace", "{tm}", "--trace", "@{trace}"], 0, {*TEXT_IN, CHECKS, "tmkit.behavior"}, True),
    (["simplify", "{tm}"], 0, {*TEXT_IN, CHECKS, "tmkit.transform", TEXT_OUT}, False),
    (["expand", "{simplified}"], 0, {*TEXT_IN, CHECKS, "tmkit.transform", TEXT_OUT}, False),
    (["export-uml", "{tm}"], 0, {*TEXT_IN, CHECKS, *UML}, True),
    (["import-uml", "{act}", "--full"], 0, {*UML, TEXT_OUT}, True),
]


@pytest.mark.parametrize("argv, status, extra, json_loaded", COMMANDS,
                         ids=[" ".join(argv) for argv, *_ in COMMANDS])
def test_each_command_loads_only_the_modules_it_runs(
    inputs, tmp_path, argv, status, extra, json_loaded
):
    argv = [a.format(**inputs) for a in argv] + ["-o", str(tmp_path / "out")]
    # a plain command line is read without argparse
    assert _probe(argv) == (status, json_loaded, False, "-", BASE | extra)


def test_the_expected_modules_leave_out_what_each_command_does_not_run():
    loaded = {}
    for argv, _, extra, _ in COMMANDS:
        loaded.setdefault(argv[0], set()).update(BASE | extra)
    for command in ("check", "events", "trace", "render", "export-uml"):
        assert TEXT_OUT not in loaded[command], command
    for command in ("fmt", "render", "import-uml"):
        assert CHECKS not in loaded[command], command
    assert TEXT_IN.isdisjoint(loaded["import-uml"])
    assert all("tmkit.iso" not in modules for modules in loaded.values())


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["trace", "x.tm", "--help"]])
def test_help_still_goes_through_argparse(argv):
    assert _probe(argv) == (0, False, True, "-", BASE)


def test_import_cli_loads_neither_dataclasses_nor_inspect():
    out = _fresh("-c", "import sys, tmkit.cli\n"
                       "print({'dataclasses', 'inspect'} & sys.modules.keys())")
    assert out == "set()\n"


def test_import_tmkit_loads_no_submodule():
    out = _fresh("-c", "import sys, tmkit; print(*sorted(m for m in sys.modules"
                       " if m.split('.')[0] == 'tmkit'))")
    assert out.split() == ["tmkit"]


def test_every_public_name_is_its_home_modules_object():
    assert len(set(tmkit.__all__)) == len(tmkit.__all__) == 61
    assert "induced_region" in tmkit.__all__
    defined_elsewhere = set()
    for name in tmkit.__all__:
        home = importlib.import_module(f"tmkit.{tmkit._HOME[name]}")
        value = getattr(tmkit, name)
        assert value is getattr(home, name)
        # a class or function is the same object in the module defining it,
        # which is the home module or one the home module imports it from
        defined_in = importlib.import_module(getattr(value, "__module__", home.__name__))
        assert getattr(defined_in, name) is value
        if defined_in is not home:
            defined_elsewhere.add((home.__name__, defined_in.__name__))
    assert defined_elsewhere == {("tmkit.model", "tmkit.core"), ("tmkit.dsl", "tmkit.lexer"),
                                 ("tmkit.uml", "tmkit.activity")}


# The cap on a module's code tokens (`code_tokens`: every `tokenize` token
# but comments and blank-line ends).  A run with no bytecode, as the
# benchmark's `tmkit` children and CI's run, compiles each module it loads
# from source.  Measured with tracemalloc on Python 3.11.7, the compiler's
# transient memory grows by about 0.37 MiB per 1000 code tokens (6648
# tokens: 2.36 MiB; 5248: 2.00; 3857: 1.39; 3374: 1.24), so the largest
# module a command line loads sets the run's peak.  On 2 cores of a shared
# Xeon host, the largest child of the benchmark's corpus-cli workload peaked
# at 15.24 MiB under this cap (median of 10 runs) against 16.19 MiB with
# modules of up to 6648 tokens.  `scripts/coldstart.py` prints each
# module's count and compile peak.
MAX_CODE_TOKENS = 3500


def test_code_tokens_count_an_f_string_as_one_token_on_every_version():
    assert code_tokens('x = f"a{b!r:>{w}}c"  # note\n\n') == code_tokens('x = "abc"\n') == 5
    assert code_tokens('f"{f\'{x}\'}" f""\n') == code_tokens('"" ""\n')


def test_no_module_compiles_past_the_token_cap():
    counts = {name: code_tokens((SRC / "tmkit" / f"{name}.py").read_text(encoding="utf-8"))
              for name in ["__init__", *MODULES]}
    assert {name: n for name, n in counts.items() if n > MAX_CODE_TOKENS} == {}


def test_coldstart_reports_each_modules_tokens_and_compile_peak():
    costs = module_costs(SRC / "tmkit")
    assert sorted(costs) == sorted(["__init__", *MODULES])
    for name, cost in costs.items():
        source = (SRC / "tmkit" / f"{name}.py").read_text(encoding="utf-8")
        assert cost["code_tokens"] == code_tokens(source)
        assert cost["compile_peak_mib"] > 0


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_on_its_own(module):
    out = _fresh("-c", f"import tmkit.{module} as m; print(m.__name__)")
    assert out == f"tmkit.{module}\n"


def test_records_pickled_in_one_interpreter_load_in_another():
    """Each record pickles by the module that defines it; a fresh interpreter
    loads it from there, and a pickle naming its home module (as one written
    before the record moved does) loads as the same record."""
    from test_model import RECORDS

    for cls, _, values, *_ in RECORDS:
        record = cls(*values)
        text = pickle.dumps(record, protocol=0)
        out = _fresh("-c", "import pickle, sys; print(repr(pickle.loads(sys.stdin.buffer.read())))",
                     stdin=text)
        assert out == repr(record) + "\n"
        home = f"tmkit.{tmkit._HOME.get(cls.__name__, cls.__module__.split('.')[1])}"
        named_home = text.replace(cls.__module__.encode(), home.encode(), 1)
        assert pickle.loads(named_home) == record


def test_every_tmkit_attribute_the_benchmark_reads_exists():
    """perfbench reads each layer as ``module.name`` on the modules it
    imports from tmkit; every such name outlives the split of a module."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "tmkit"
               for alias in node.names}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("dsl", "parse"), ("dsl", "print_model"), ("model", "model_isomorphic"),
            ("uml", "activity_from_json"), ("uml", "import_activity"),
            ("uml", "export_activity"), ("uml", "activity_isomorphic"),
            ("uml", "activity_to_json")} <= read
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if not hasattr(importlib.import_module(f"tmkit.{module}"), name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from tmkit import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(tmkit.__all__)
    assert all(namespace[name] is getattr(tmkit, name) for name in tmkit.__all__)


def test_dir_lists_the_public_names():
    assert set(tmkit.__all__) <= set(dir(tmkit))
    assert "__version__" in dir(tmkit)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        tmkit.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from tmkit import no_such_name", {})


def test_submodules_resolve_as_attributes_and_by_from_import():
    out = _fresh("-c", "import tmkit; from tmkit import render; import tmkit.jsonio\n"
                       "print(tmkit.uml.__name__, render.__name__, tmkit.jsonio.__name__)")
    assert out.split() == ["tmkit.uml", "tmkit.render", "tmkit.jsonio"]
