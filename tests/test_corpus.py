"""Case-study fixture integrity."""

from __future__ import annotations

import json
import re

import pytest

import tmkit.corpus
from tmkit import (
    ActionKind,
    TmError,
    conform,
    coverage,
    eventize,
    expand,
    export_activity,
    find_stage,
    model_isomorphic,
    print_model,
    simplify,
)
from tmkit.corpus import corpus_dir, load_mentcare, mentcare_path
from tmkit.model import CORE_KINDS

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


@pytest.fixture(scope="module")
def mentcare():
    return load_mentcare()


def test_missing_corpus_directory_is_a_tm_error(tmp_path, monkeypatch):
    # an installed package: the module sits in site-packages, with no corpus two levels up
    installed = tmp_path / "site-packages" / "tmkit" / "corpus.py"
    monkeypatch.setattr(tmkit.corpus, "__file__", str(installed))
    with pytest.raises(TmError, match=re.escape(str(tmp_path / "corpus"))):
        corpus_dir()
    with pytest.raises(TmError):
        load_mentcare()


def test_detention_walkthrough_machines_are_roots(mentcare):
    roots = {m.id for m in mentcare.model.machines}
    assert set(DETENTION_MACHINES) <= roots


def test_dangerousness_check_branches_on_three_guarded_triggers(mentcare):
    branches = [t for t in mentcare.model.triggers
                if t.source == "DangerAssessment.process" and t.guard is not None]
    assert sorted(t.target for t in branches) == [
        "PatientAdmission.process", "PoliceStation.process", "SecureLocation.process"
    ]


def test_authorization_request_is_answered_by_a_permission(mentcare):
    model = mentcare.model
    assert {"InfoSystem.Authorization", "InfoSystem.Permission"} <= model.machines_by_id.keys()
    assert any(t.source == "InfoSystem.Authorization.process"
               and t.target == "InfoSystem.Permission.create" for t in model.triggers)


def test_record_constraint_is_a_constraint_machine_with_a_process_stage(mentcare):
    constraint = mentcare.model.machines_by_id["InfoSystem.RecordConstraint"]
    assert constraint.is_constraint
    assert constraint.stage_of(ActionKind.PROCESS) is not None


def test_event_names_match_the_narrative(mentcare):
    names = {e.id: e.name for e in mentcare.events}
    assert names["E1"] == "A person is brought to the Mentcare center."
    assert names["E5"].startswith("The detainee is transferred to the police")
    assert len(names) == 19


def test_e5_carries_the_dated_time(mentcare):
    e5 = next(e for e in mentcare.events if e.id == "E5")
    assert e5.time == "1/1/2021"
    region_machines = {sid.split(".")[0] for sid in e5.region.stage_ids}
    assert region_machines == {"DangerAssessment", "PoliceStation"}


def test_find_stage_locates_the_receptionists_create(mentcare):
    stage = find_stage(mentcare.model, ["MedicalReceptionist"], ActionKind.CREATE)
    assert stage is not None
    assert stage.id == "MedicalReceptionist.create"


def test_receptionist_function_machines(mentcare):
    receptionist = mentcare.model.machines_by_id["MedicalReceptionist"]
    names = {m.id.split(".")[-1] for m in receptionist.submachines}
    assert names == set(RECEPTIONIST_FUNCTIONS)


def test_constraint_guard_is_verbatim(mentcare):
    guards = [t.guard for t in mentcare.model.triggers if t.source.startswith("InfoSystem.RecordConstraint")]
    assert guards == [CONSTRAINT_GUARD]


def test_corpus_is_a_fmt_fixpoint(mentcare):
    text = mentcare_path().read_text(encoding="utf-8")
    printed = print_model(mentcare.model, mentcare.events, mentcare.behavior, mentcare.comments)
    assert printed == text


def test_activity_fixture_is_canonical_json():
    from tmkit import activity_from_json, activity_to_json

    path = corpus_dir() / "mentcare.act.json"
    text = path.read_text(encoding="utf-8")
    assert activity_to_json(activity_from_json(text)) == text


def test_simplified_corpus_has_only_core_stages(mentcare):
    simplified = simplify(mentcare.model)
    assert all(s.kind in CORE_KINDS for s in simplified.all_stages())
    core_count = sum(1 for s in mentcare.model.all_stages() if s.kind in CORE_KINDS)
    assert len(list(simplified.all_stages())) == core_count


def test_expand_of_simplified_corpus_restores_it(mentcare):
    simplified = simplify(mentcare.model)
    assert model_isomorphic(expand(simplified), mentcare.model)


def test_all_trace_fixtures_produce_recorded_verdicts(mentcare):
    traces_dir = corpus_dir() / "traces"
    expected = json.loads((traces_dir / "expected.json").read_text())
    assert expected, "no recorded verdicts"
    for name, record in expected.items():
        trace = json.loads((traces_dir / name).read_text())
        verdict = conform(trace, mentcare.behavior)
        assert verdict.conforms == record["conforms"], name
        assert verdict.violation_index == record["violation_index"], name


def test_uncovered_stages_golden(mentcare):
    closed = [eventize(mentcare.model, e) for e in mentcare.events]
    uncovered = coverage(mentcare.model, closed)
    golden = (corpus_dir() / "golden" / "uncovered.txt").read_text().split()
    assert list(uncovered) == golden
    # independent set-difference check
    union = set().union(*(e.region.stage_ids for e in closed))
    all_ids = {s.id for s in mentcare.model.all_stages()}
    assert set(uncovered) == all_ids - union


def test_exported_corpus_carries_the_dangerousness_decision(mentcare):
    graph = export_activity(simplify(mentcare.model))
    decisions = [n for n in graph.nodes if n.kind == "Decision"]
    assert len(decisions) == 1
    guards = sorted(e.guard for e in graph.edges if e.source == decisions[0].id)
    assert guards == [
        "the person is dangerous and a secure location is available",
        "the person is dangerous and no secure location is available",
        "the person is not dangerous",
    ]
    labels = {n.label for n in graph.nodes if n.kind == "Action"}
    assert {"Person", "DangerAssessment", "PoliceStation", "SecureLocation"} <= labels


def test_behavioral_graph_has_single_source(mentcare):
    assert mentcare.behavior.sources() == {"E1"}


def test_detention_walkthrough_flows_present(mentcare):
    pairs = {(f.source, f.target) for f in mentcare.model.flows}
    # spot checks along the circles 1-19 chain
    assert ("Person.create", "Person.process") in pairs
    assert ("DangerAssessment.transfer", "PoliceStation.transfer") in pairs
    assert ("DetaineeInfo.transfer", "SocialServices.transfer") in pairs
    assert ("InfoSystem.receive", "InfoSystem.process") in pairs


# -- the pipeline demo script ----------------------------------------------------


def _pipeline_demo():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "pipeline_demo.py"
    spec = importlib.util.spec_from_file_location("pipeline_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_demo_exits_zero_on_the_corpus(capsys):
    assert _pipeline_demo().main() == 0
    assert "FAILED" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, wrong, failure",
    [
        ("conform", lambda trace, behavior: conform(trace[::-1], behavior),
         "FAILED: trace bad_dangerous_then_not.json: expected conforms=False, violation_index=4"),
        ("model_isomorphic", lambda a, b: False,
         "FAILED: expand does not restore the full form"),
        ("has_errors", lambda diags: True, "FAILED: validation reports errors"),
    ],
)
def test_pipeline_demo_exits_one_on_a_wrong_answer(monkeypatch, capsys, name, wrong, failure):
    demo = _pipeline_demo()
    monkeypatch.setattr(demo, name, wrong)
    assert demo.main() == 1
    assert failure in capsys.readouterr().out.splitlines()
