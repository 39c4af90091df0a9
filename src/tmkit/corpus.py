"""Access to the bundled mental-health case-study fixtures.

The corpus encodes the running case study as executable data: the full
static model (detention process plus the record-keeping extension), the
record-uniqueness constraint machine, nineteen events, and the behavioral
graph.  This module finds and loads them; `scripts/build_corpus.py` and the
tests check them.
"""

from __future__ import annotations

from pathlib import Path

from . import dsl
from .model import TmError


def corpus_dir() -> Path:
    """Fixture directory at the repository root.  The corpus ships with the
    source tree, not with an installed package; raises TmError when the
    directory is not there."""
    path = Path(__file__).resolve().parents[2] / "corpus"
    if not path.is_dir():
        raise TmError(f"corpus directory {path} not found; it ships with the tmkit source tree")
    return path


def mentcare_path() -> Path:
    return corpus_dir() / "mentcare.tm"


def load_mentcare() -> dsl.ParseResult:
    result = dsl.parse(mentcare_path().read_text(encoding="utf-8"))
    if not result.ok:
        raise dsl.ParseError(result.diagnostics)
    return result

