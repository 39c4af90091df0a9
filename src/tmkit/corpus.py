"""Access to the bundled mental-health case-study fixtures.

The corpus encodes the running case study as executable data: the full
static model (detention process plus the record-keeping extension), the
record-uniqueness constraint machine, nineteen events, and the behavioral
graph.  `corpus_integrity` re-checks the assertions the fixtures are supposed
to satisfy and returns them as a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import dsl, validate
from .model import ActionKind, TmError


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


#: Machines realizing the detention walkthrough (circles 1-19).
DETENTION_MACHINES = (
    "Person",
    "DetentionDecision",
    "Rights",
    "DangerAssessment",
    "PoliceStation",
    "SecureLocation",
    "PatientAdmission",
    "DetaineeInfo",
    "SocialServices",
    "NextOfKin",
    "InfoSystem",
)

#: Receptionist function machines (circles 26-30).
RECEPTIONIST_FUNCTIONS = ("Register", "Unregister", "View", "TransferData", "Contact")

#: Guard on the record-uniqueness constraint (circle 51), asserted verbatim.
CONSTRAINT_GUARD = "the record is not in the file"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class IntegrityReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(
            f"{'ok  ' if c.ok else 'FAIL'} {c.name}" + (f" ({c.detail})" if c.detail else "")
            for c in self.checks
        )


def corpus_integrity() -> IntegrityReport:
    checks: list[Check] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(Check(name, bool(ok), detail))

    text = mentcare_path().read_text(encoding="utf-8")
    result = dsl.parse(text)
    check("corpus parses", result.ok, "; ".join(str(d) for d in result.diagnostics[:3]))
    if not result.ok:
        return IntegrityReport(tuple(checks))
    model = result.model
    assert model is not None

    diags = validate.validate_document(model, result.events, result.behavior)
    errors = [d for d in diags if d.severity is validate.Severity.ERROR]
    check("corpus validates clean", not errors, "; ".join(str(d) for d in errors[:3]))

    present = set(model.machines_by_id)
    missing = [m for m in DETENTION_MACHINES if m not in present]
    check("detention walkthrough machines present", not missing, ", ".join(missing))

    # the three guarded branches out of the dangerousness check
    branch_targets = {
        t.target.split(".")[0]
        for t in model.triggers
        if t.source == "DangerAssessment.process" and t.guard is not None
    }
    check(
        "dangerousness branches guarded",
        branch_targets == {"PoliceStation", "SecureLocation", "PatientAdmission"},
        ", ".join(sorted(branch_targets)),
    )

    receptionist = model.machines_by_id.get("MedicalReceptionist")
    functions = {m.id.split(".")[-1] for m in receptionist.submachines} if receptionist else set()
    missing_fn = [f for f in RECEPTIONIST_FUNCTIONS if f not in functions]
    check("receptionist functions present", not missing_fn, ", ".join(missing_fn))

    auth_ok = (
        "InfoSystem.Authorization" in present
        and "InfoSystem.Permission" in present
        and receptionist is not None
        and receptionist.stage_of(ActionKind.CREATE) is not None
        and any(
            t.source == "InfoSystem.Authorization.process"
            and t.target == "InfoSystem.Permission.create"
            for t in model.triggers
        )
    )
    check("authorization request/permission exchange present", auth_ok)

    constraint = model.machines_by_id.get("InfoSystem.RecordConstraint")
    guard_ok = (
        constraint is not None
        and constraint.is_constraint
        and constraint.stage_of(ActionKind.PROCESS) is not None
        and any(
            t.guard == CONSTRAINT_GUARD and t.source == "InfoSystem.RecordConstraint.process"
            for t in model.triggers
        )
    )
    check("record-uniqueness constraint machine present", bool(guard_ok))

    check(
        "exactly 19 events declared",
        len(result.events) == 19,
        f"found {len(result.events)}",
    )
    return IntegrityReport(tuple(checks))
