"""What `import tmkit` and each `tmkit` command line load, and the package's
public surface under lazy loading."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tmkit
from tmkit.cli import run
from tmkit.corpus import corpus_dir, mentcare_path

SRC = Path(__file__).resolve().parents[1] / "src"

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


def _fresh(*args: str) -> str:
    """stdout of a fresh `python -B` that imports tmkit from this source tree."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-B", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _probe(argv: list[str]) -> tuple[int, bool, bool, str, set[str]]:
    status, json_loaded, argparse_loaded, slow, *modules = (
        _fresh("-c", _PROBE, *argv).splitlines()[-1].split())
    return int(status), json_loaded == "True", argparse_loaded == "True", slow, set(modules)


# every command line loads these; `tmkit.iso` is loaded by none
BASE = {"tmkit", "tmkit.cli", "tmkit.model"}
TEXT_IN, TEXT_OUT, CHECKS = "tmkit.dsl", "tmkit.printer", "tmkit.validate"
UML = {"tmkit.uml", "tmkit.transform", "tmkit.jsonio"}  # uml imports both


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
    (["check", "{tm}"], 0, {TEXT_IN, CHECKS}, False),
    (["check", "{tm}", "--simplified"], 1, {TEXT_IN, CHECKS}, False),
    (["fmt", "{tm}"], 0, {TEXT_IN, TEXT_OUT}, False),
    (["fmt", "{tm}", "--json"], 0, {TEXT_IN, "tmkit.jsonio"}, True),
    (["fmt", "{json}"], 0, {"tmkit.jsonio", TEXT_OUT}, True),
    (["check", "{json}"], 0, {"tmkit.jsonio", CHECKS}, True),
    (["render", "{tm}"], 0, {TEXT_IN, "tmkit.render"}, False),
    (["render", "{tm}", "--behavior"], 0, {TEXT_IN, "tmkit.render"}, False),
    (["render", "{tm}", "--highlight", "E5"], 0, {TEXT_IN, "tmkit.render", "tmkit.behavior"},
     False),
    (["events", "{tm}"], 0, {TEXT_IN, CHECKS, "tmkit.behavior"}, False),
    (["trace", "{tm}", "--trace", "E1,E2"], 0, {TEXT_IN, CHECKS, "tmkit.behavior"}, False),
    (["trace", "{tm}", "--trace", "@{trace}"], 0, {TEXT_IN, CHECKS, "tmkit.behavior"}, True),
    (["simplify", "{tm}"], 0, {TEXT_IN, CHECKS, "tmkit.transform", TEXT_OUT}, False),
    (["expand", "{simplified}"], 0, {TEXT_IN, CHECKS, "tmkit.transform", TEXT_OUT}, False),
    (["export-uml", "{tm}"], 0, {TEXT_IN, CHECKS, *UML}, True),
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
    assert TEXT_IN not in loaded["import-uml"]
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
    for name in tmkit.__all__:
        home = importlib.import_module(f"tmkit.{tmkit._HOME[name]}")
        value = getattr(tmkit, name)
        assert value is getattr(home, name)
        # classes and functions live where the table says they do
        assert getattr(value, "__module__", home.__name__) == home.__name__


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
