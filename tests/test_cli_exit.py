"""The exit path of a `tmkit` run: `main` freezes the collector at exit, and
`run` leaves it alone.  Checked by counts and by output, not by clocks."""

from __future__ import annotations

import atexit
import gc
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tmkit.cli import run
from tmkit.corpus import mentcare_path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from coldstart import command_lines  # noqa: E402  (corpus-cli's 13 command lines)

LINES = command_lines()

# Registers an atexit probe before `main` registers its own handler, so the
# probe runs last, and prints the freeze count it sees to stderr.
_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('freeze count', gc.get_freeze_count(), file=sys.stderr))\n"
    "from tmkit.cli import main\n"
    "main()\n"
)


def _child(*args: str) -> subprocess.CompletedProcess:
    """A fresh `python -B` that imports tmkit from this source tree."""
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-B", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def _in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = run(argv)
    return status, out.getvalue()


@pytest.mark.parametrize("status, argv", [
    (0, ["check", str(mentcare_path())]),
    (1, ["check", "{broken}"]),
    (2, ["check", "{missing}"]),
])
def test_main_freezes_the_collector_before_the_last_exit_handler(tmp_path, status, argv):
    broken = tmp_path / "broken.tm"
    broken.write_text("machine A {", encoding="utf-8")
    argv = [a.format(broken=broken, missing=tmp_path / "missing.tm") for a in argv]
    proc = _child("-c", _PROBE, *argv)
    assert proc.returncode == status, proc.stderr
    name, count = proc.stderr.splitlines()[-1].rsplit(" ", 1)
    assert name == "freeze count" and int(count) > 0


def test_run_in_process_leaves_the_collector_and_atexit_alone(monkeypatch):
    registered = []
    monkeypatch.setattr(atexit, "register", lambda *args, **kwargs: registered.append(args))
    for argv in LINES.values():
        _in_process(argv)
    assert registered == []
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("name", LINES)
def test_a_child_writes_what_run_writes_in_process(tmp_path, name):
    argv = LINES[name]
    status, stdout = _in_process(argv)
    piped = _child("-m", "tmkit.cli", *argv)
    assert (piped.returncode, piped.stdout) == (status, stdout)
    out = tmp_path / "out"
    written = _child("-m", "tmkit.cli", *argv, "-o", str(out))
    assert (written.returncode, written.stdout) == (status, "")
    assert out.read_text(encoding="utf-8") == stdout
