"""Built-in scenario tests: golden templates, runs, mutants, scripts."""

from __future__ import annotations

import dataclasses
import sys
import threading
from pathlib import Path

import pytest

from covenant import scenarios
from covenant.errors import CannotInject, ScriptError
from covenant.reference import (
    PROP_ACCOUNTABILITY,
    PROP_AUTHORITY,
    PROP_PROHIBITION,
    PROP_SAFETY,
)
from covenant.runtime import Principal, instantiate_community
from covenant.scenarios import (
    ADVISORY_GATE_SCRIPT,
    HAPPY_PATH_ACCESS_SCRIPT,
    HAPPY_PATH_MATCHING_SCRIPT,
    NEGOTIATION_SCRIPT,
    REDUCED_LAYER1_ALPHABET,
    REDUCED_LAYER1_PROLOGUE,
    REDUCED_LAYER1_SOURCE,
    ROGUE_AI_SCRIPT,
    Scenario,
    ScenarioReport,
    built_in_scenarios,
    build_clinical_layers,
    coverage_report,
    get_scenario,
    inject_violation,
    parse_script,
    reduced_layer1_fixture,
    run_scenario,
    run_stage,
    stage_from_script,
)
from covenant.spec_lang import format_specs, parse_spec, parse_specs
from covenant.verifier import EventSchema, PropertySpec, TraceMonitor, apply_schema, run_checks

GOLDEN = Path(__file__).parent / "data" / "clinical_layers.golden"


def test_layer_templates_match_golden_file():
    assert format_specs(build_clinical_layers()) == GOLDEN.read_text()


def test_golden_file_parses_back_to_the_same_templates():
    assert tuple(parse_specs(GOLDEN.read_text())) == build_clinical_layers()


def test_layer_declarations_are_complete():
    access, matching, negotiation = build_clinical_layers()

    assert access.name == "DataAccessCommunity"
    assert {r.name for r in access.roles} == {
        "FHIRDataProvider",
        "DataExtractionAgent",
        "ConsentManager",
        "Patient",
        "DataGovernanceOfficer",
    }
    assert {o.name for o in access.objects} == {"ConsentRegistry", "AuditLog", "PatientDataCache"}
    assert {(p.modality.value, p.action) for p in access.policies} == {
        ("burden", "verify_consent"),
        ("permit", "read_demographics"),
        ("embargo", "access_without_consent"),
    }

    assert matching.name == "MatchingWorkflowCommunity"
    assert {r.name for r in matching.roles} == {
        "ConditionExtractor",
        "PatientEmbedder",
        "EligibilityStructurer",
        "CriteriaMatcher",
        "Physician",
        "WorkflowOrchestrator",
    }
    group = matching.group("MatchingAgent")
    assert group is not None and len(group.members) == 4
    assert {(p.modality.value, p.action) for p in matching.policies} == {
        ("permit", "evaluate_eligibility"),
        ("embargo", "final_decision"),
        ("burden", "make_enrollment_decision"),
        ("burden", "provide_explanation"),
    }

    assert negotiation.name == "NegotiationCommunity"
    assert {c.name for c in negotiation.contracts} == {
        "NegotiationProtocol",
        "ExternalSystemNegotiation",
        "EscalationContract",
    }
    phi = next(p for p in negotiation.policies if p.action == "share_PHI_externally")
    assert phi.unless is not None and phi.unless.action == "share_specific_data"
    realize = next(p for p in negotiation.policies if p.action == "communicate_externally")
    assert realize.requires is not None and realize.requires.action == "validate_compliance"


def test_built_in_scenarios_run_clean():
    names = []
    for scenario in built_in_scenarios():
        report = run_scenario(scenario)
        assert report.ok, report.summary()
        assert all(not stage.violations for stage in report.stages), report.summary()
        names.append(scenario.name)
    assert names == ["happy_path", "rogue_ai", "negotiation", "advisory_gate"]


def test_a_stage_that_misses_its_expectations_is_reported_failing():
    stage = get_scenario("happy_path").stages[0]
    verdict = run_stage(dataclasses.replace(stage, expected_verdicts=(("read_demographics", "blocked"),)))
    assert not verdict.ok
    assert verdict.verdict_mismatches == ("read_demographics: expected blocked, got admissible",)
    assert verdict.violation_mismatches == ()
    violation = run_stage(dataclasses.replace(stage, expected_violations=((PROP_SAFETY, "read_demographics"),)))
    assert not violation.ok
    assert violation.verdict_mismatches == ()
    assert violation.violation_mismatches == (
        "expected [('consent_gated_access', 'read_demographics')], got []",
    )
    lines = ScenarioReport("happy_path", (verdict, violation)).summary().splitlines()
    assert lines[0] == "scenario happy_path [FAIL]"
    assert [line for line in lines if "MISMATCH" in line] == [
        "    MISMATCH read_demographics: expected blocked, got admissible",
        "    MISMATCH expected [('consent_gated_access', 'read_demographics')], got []",
    ]


def test_a_refused_event_shows_in_the_summary():
    script = parse_script(
        "register_principal VendorX\n"
        "clash: bind ConsentManager VendorX llm_agent VendorX\n"
        "bind DataExtractionAgent extract_bot llm_agent VendorX\n"
    )
    stage = stage_from_script(REDUCED_LAYER1_SOURCE, script, owner="MedCenter")
    report = ScenarioReport("clash", (run_stage(stage),))
    assert report.ok
    assert report.summary().splitlines() == [
        "scenario clash [PASS]",
        "  DataAccessGate: 3 events, 6 records, 0 violations",
        "    refused clash: NameCollision",
    ]
    # no built-in run refuses an event, so their summaries show no such line
    for scenario in built_in_scenarios():
        assert "refused" not in run_scenario(scenario).summary(), scenario.name


def test_scenario_runs_are_deterministic():
    for scenario in built_in_scenarios():
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert [s.export for s in first.stages] == [s.export for s in second.stages]


def test_happy_path_key_outcomes():
    report = run_scenario(get_scenario("happy_path"))
    outcomes = dict(report.stages[0].outcomes) | dict(report.stages[1].outcomes)
    assert outcomes["read_demographics"] == "admissible"
    assert outcomes["access_probe"] == "blocked"
    assert outcomes["eval_match"] == "admissible"
    assert outcomes["decide"] == "accepted"


def test_rogue_attempt_is_blocked():
    report = run_scenario(get_scenario("rogue_ai"))
    outcomes = dict(report.stages[0].outcomes)
    assert outcomes["rogue_attempt"] == "blocked"
    assert outcomes["decide"] == "accepted"


def test_negotiation_exception_window_opens_and_closes():
    report = run_scenario(get_scenario("negotiation"))
    outcomes = dict(report.stages[0].outcomes)
    assert outcomes["share_probe"] == "blocked"
    assert outcomes["share_allowed"] == "admissible"
    assert outcomes["share_blocked_again"] == "blocked"
    assert outcomes["reject_bulk"] == "accepted"


def test_advisory_gate_approval_flow():
    report = run_scenario(get_scenario("advisory_gate"))
    outcomes = dict(report.stages[0].outcomes)
    assert outcomes["eval_alpha"] == "recommended"
    assert outcomes["approve_alpha"] == "accepted"
    assert outcomes["eval_beta"] == "recommended"
    assert outcomes["veto_beta"] == "accepted"


_ACCESS_VERDICTS = (
    ("discharge_consent", "accepted"),
    ("read_demographics", "admissible"),
    ("access_probe", "blocked"),
)
_MATCHING_VERDICTS = (
    ("embed_profile", "admissible"),
    ("eval_match", "admissible"),
    ("explain", "accepted"),
    ("transfer_decision", "accepted"),
    ("decide", "accepted"),
)
_ROGUE_VERDICTS = (("rogue_attempt", "blocked"), ("eval_match", "admissible"), ("decide", "accepted"))

# (scenario, property) -> (property, violating label, mutated stage, its expected verdicts)
MUTANT_TABLE = {
    ("happy_path", "safety"): (PROP_SAFETY, "read_demographics", 0, _ACCESS_VERDICTS[1:]),
    ("happy_path", "authority"): (PROP_AUTHORITY, "decide", 1, _MATCHING_VERDICTS),
    ("happy_path", "prohibition"): (PROP_PROHIBITION, "revoke_consent_embargo", 0, _ACCESS_VERDICTS),
    ("happy_path", "accountability"): (PROP_ACCOUNTABILITY, "bind_extract_bot", 0, _ACCESS_VERDICTS),
    ("rogue_ai", "authority"): (
        PROP_AUTHORITY, "decide", 0, _ROGUE_VERDICTS + (("transfer_decision", "accepted"),)
    ),
    ("rogue_ai", "prohibition"): (PROP_PROHIBITION, "revoke_final_embargo", 0, _ROGUE_VERDICTS),
    ("rogue_ai", "accountability"): (PROP_ACCOUNTABILITY, "bind_matcher", 0, _ROGUE_VERDICTS),
}


@pytest.mark.parametrize("name,alias", sorted(MUTANT_TABLE))
def test_mutants_violate_exactly_the_requested_property(name, alias):
    prop, label, index, verdicts = MUTANT_TABLE[(name, alias)]
    scenario = get_scenario(name)
    mutant = inject_violation(scenario, alias)
    assert mutant.name == f"{name}__{alias}"
    # one stage is edited, and every other is the built-in's own
    assert len(mutant.stages) == len(scenario.stages)
    edited = [i for i, (old, new) in enumerate(zip(scenario.stages, mutant.stages)) if old is not new]
    assert edited == [index]
    assert mutant.stages[index].expected_verdicts == verdicts
    assert mutant.stages[index].expected_violations == ((prop, label),)
    report = run_scenario(mutant)
    assert report.ok, report.summary()
    found = [v for stage in report.stages for v in stage.violations]
    assert [(p, lbl) for p, _, lbl in found] == [(prop, label)]


def test_inject_accepts_template_constants_too():
    mutant = inject_violation(get_scenario("happy_path"), PROP_SAFETY)
    assert mutant.name == "happy_path__safety"



def test_safety_injection_reads_the_stage_it_mutates():
    scenario = get_scenario("happy_path")
    access = scenario.stages[0]
    guard = "\n    requires discharged burden(verify_consent, ConsentManager)"
    assert guard in access.source
    unguarded = dataclasses.replace(access, source=access.source.replace(guard, ""))
    with pytest.raises(CannotInject, match="not guarded"):
        inject_violation(dataclasses.replace(scenario, stages=(unguarded,)), "safety")
    mutant = inject_violation(scenario, "safety").stages[0]
    assert mutant.source == unguarded.source

def test_inject_rejects_unsupported_combinations():
    with pytest.raises(CannotInject):
        inject_violation(get_scenario("rogue_ai"), "safety")
    with pytest.raises(CannotInject):
        inject_violation(get_scenario("negotiation"), "authority")
    with pytest.raises(CannotInject):
        inject_violation(get_scenario("happy_path"), "liveness")


def test_inject_refuses_a_scenario_without_the_stage_or_anchor_it_edits():
    happy = get_scenario("happy_path")
    with pytest.raises(CannotInject, match="no stage 1"):
        inject_violation(dataclasses.replace(happy, stages=happy.stages[:1]), "authority")
    rogue = get_scenario("rogue_ai")
    stage = rogue.stages[0]
    script = tuple(ev for ev in stage.script if ev.name != "eval_match")
    without_anchor = dataclasses.replace(rogue, stages=(dataclasses.replace(stage, script=script),))
    with pytest.raises(CannotInject, match="'transfer_decision'"):
        inject_violation(without_anchor, "authority")


def test_unknown_scenario_name_raises():
    with pytest.raises(ScriptError):
        get_scenario("nonesuch")


def test_coverage_is_complete_over_built_ins():
    report = coverage_report()
    assert report.complete, report.text()
    assert len(report.speech_act_kinds_used) == 12
    assert len(report.policies_covered) == 12
    assert report.policies_missing == ()


def test_preflight_rejects_bad_scripts_before_any_stage_runs():
    scenario = get_scenario("happy_path")
    bad_stage = scenario.stages[1]
    bad_script = bad_stage.script + (bad_stage.script[0],)  # duplicate label
    scenario = dataclasses.replace(
        scenario, stages=(scenario.stages[0], dataclasses.replace(bad_stage, script=bad_script))
    )
    with pytest.raises(ScriptError, match="duplicate event label"):
        run_scenario(scenario)


def test_preflight_rejects_unknown_cast_references():
    scenario = get_scenario("happy_path")
    stage = scenario.stages[0]
    evil = parse_script("probe: action stranger read_demographics")
    mutated = dataclasses.replace(stage, script=stage.script + evil)
    with pytest.raises(ScriptError, match="not in the cast"):
        run_scenario(dataclasses.replace(scenario, stages=(mutated,)))



@pytest.mark.parametrize(
    "script, match",
    [
        (parse_script("probe: bind Janitor extract_bot llm_agent VendorX"), "role 'Janitor' is not declared"),
        (parse_script("probe: unbind Janitor extract_bot"), "role 'Janitor' is not declared"),
        (parse_script("probe: bind Patient stranger human MedCenter"), "agent 'stranger' is not in the cast"),
        (parse_script("probe: unbind Patient stranger"), "agent 'stranger' is not in the cast"),
        (parse_script("probe: speech_act stranger propose"), "sender 'stranger' is not in the cast"),
        (
            parse_script("probe: bind Patient patient_007 human NoSuchCouncil"),
            "principal 'NoSuchCouncil' is not registered at this point",
        ),
        (parse_script("probe: speech_act officer_dga shout"), "unknown speech act kind 'shout'"),
        (
            parse_script("probe: speech_act officer_dga accept request_seq=$last_request"),
            "[$]last_request used before any action event",
        ),
        ((EventSchema("probe", "teleport", {}),), "unknown event op 'teleport'"),
    ],
    ids=[
        "bind_undeclared_role",
        "unbind_undeclared_role",
        "bind_agent_not_in_cast",
        "unbind_agent_not_in_cast",
        "sender_not_in_cast",
        "unregistered_principal",
        "unknown_speech_act_kind",
        "last_request_before_any_action",
        "unknown_op",
    ],
)
def test_preflight_refuses_a_bad_event_before_the_stage_runs(monkeypatch, script, match):
    stage = dataclasses.replace(get_scenario("happy_path").stages[0], script=script)
    monkeypatch.setattr(scenarios, "instantiate_community", None)  # nothing may run
    with pytest.raises(ScriptError, match=f"^probe: {match}"):
        run_stage(stage)


def test_preflight_rejects_unknown_agent_kinds():
    stage = stage_from_script(
        REDUCED_LAYER1_SOURCE, parse_script("bind ConsentManager bot robot MedCenter")
    )
    with pytest.raises(ScriptError, match="unknown agent kind 'robot'"):
        run_stage(stage)

SCRIPT_TEXT = """\
# staffing
register_principal VendorX
bind_officer: bind DataGovernanceOfficer officer_1 human MedCenter
bind ConsentManager consent_bot llm_agent VendorX
bind DataExtractionAgent extract_bot llm_agent VendorX

declare: speech_act officer_1 declare_burden action=verify_consent holder=ConsentManager subject=p1
done: speech_act consent_bot discharge select=burden:verify_consent:HELD:p1
probe: action extract_bot read_demographics subject=p1
"""


def test_parse_script_forms_and_labels():
    events = parse_script(SCRIPT_TEXT)
    assert [e.op for e in events] == [
        "register_principal",
        "bind",
        "bind",
        "bind",
        "speech_act",
        "speech_act",
        "action",
    ]
    assert events[1].name == "bind_officer"
    assert events[2].name == "e2"
    assert events[4].params["payload"] == {
        "action": "verify_consent",
        "holder": "ConsentManager",
        "subject": "p1",
    }
    assert events[5].params["select_token"] == {
        "modality": "burden",
        "action": "verify_consent",
        "state": "HELD",
        "subject": "p1",
    }
    assert events[6].params == {"actor": "extract_bot", "action": "read_demographics", "subject": "p1"}

    # the forms the built-in stages use beyond SCRIPT_TEXT
    more = parse_script(
        'pitch: speech_act coord propose body="request eligibility criteria"\n'
        "approve: speech_act physician_1 accept request_seq=$last_request\n"
        "cache: action bot read_demographics subject=p1 effect=Cache:put:p1:record:v2\n"
        "rogue: force_bind ConsentManager consent_bot llm_agent GhostCorp\n"
        "revoke: speech_act officer_1 revoke select=embargo:access_without_consent:HELD\n"
    )
    assert [e.name for e in more] == ["pitch", "approve", "cache", "rogue", "revoke"]
    assert more[0].params["payload"] == {"body": "request eligibility criteria"}
    assert more[1].params["payload"] == {"request_seq": "$last_request"}
    assert more[2].params["effects"] == [
        {"object": "Cache", "op": "put", "key": "p1", "value": "record:v2"}
    ]
    assert more[3].op == "bind"
    assert more[3].params == {
        "role": "ConsentManager",
        "agent": "consent_bot",
        "kind": "llm_agent",
        "principal": "GhostCorp",
        "force": True,
    }
    assert more[4].params["payload"] == {}
    assert more[4].params["select_token"] == {
        "modality": "embargo",
        "action": "access_without_consent",
        "state": "HELD",
    }

    # only an optional "-" and ASCII digits make an integer, and only in a field
    # the runtime reads as one
    numbers = parse_script(
        "speech_act a discharge token=7 deadline=-3\n"
        "speech_act a accept request_seq=12 evidence=4 subject=5 to=7\n"
        "speech_act a discharge token=--5\n"
        "speech_act a discharge token=\u00b2\n"
        "speech_act a discharge token=abc\n"
    )
    assert [e.params["payload"] for e in numbers] == [
        {"token": 7, "deadline": -3},
        {"request_seq": 12, "evidence": 4, "subject": "5", "to": "7"},
        {"token": "--5"},
        {"token": "\u00b2"},
        {"token": "abc"},
    ]


def test_parse_script_reports_line_numbers():
    with pytest.raises(ScriptError, match="line 2"):
        parse_script("register_principal A\nfly me to the moon")
    with pytest.raises(ScriptError, match="line 1"):
        parse_script("action bot read oops")
    with pytest.raises(ScriptError, match="line 1"):
        parse_script("probe:")
    # a selector that could never match is a parse error, not a runtime crash
    # (unknown modality) or a silent rejection (unknown state)
    with pytest.raises(ScriptError, match="line 2: .*'burdn'"):
        parse_script(
            "register_principal A\nspeech_act bot discharge select=burdn:verify_consent:HELD"
        )
    with pytest.raises(ScriptError, match="line 1: .*'HELDX'"):
        parse_script("speech_act bot discharge select=burden:verify_consent:HELDX")


@pytest.mark.parametrize(
    "line, match",
    [
        ("speech_act bot discharge select=burden:verify_consent", "select needs modality:action:state"),
        ('speech_act bot propose body="unbalanced', "No closing quotation"),
        ("action bot read_demographics effect=Cache:put:p1", "effect needs object:op:key:value"),
        ("action bot read_demographics colour=red", "unknown action argument 'colour'"),
        ("speech_act bot revoke token=" + "9" * 5000, "token: Exceeds the limit"),
    ],
    ids=["malformed_select", "unbalanced_quote", "malformed_effect", "unknown_action_argument", "token_of_5000_digits"],
)
def test_parse_script_refuses_a_malformed_line_by_its_number(line, match):
    with pytest.raises(ScriptError, match=f"^line 2: {match}"):
        parse_script("register_principal A\n" + line)


def test_stage_from_script_runs_ad_hoc_communities():
    stage = stage_from_script(REDUCED_LAYER1_SOURCE, parse_script(SCRIPT_TEXT), owner="MedCenter")
    report = run_stage(stage)
    assert report.ok
    outcomes = dict(report.outcomes)
    assert outcomes["probe"] == "admissible"
    assert outcomes["done"] == "accepted"
    assert report.violations == ()


def test_each_stage_source_is_parsed_once(monkeypatch):
    calls = []
    parse = scenarios.parse_spec

    def counting(source):
        calls.append(source)
        return parse(source)

    monkeypatch.setattr(scenarios, "parse_spec", counting)
    source = REDUCED_LAYER1_SOURCE + "# a source no other test uses\n"
    stage = stage_from_script(source, parse_script(SCRIPT_TEXT), owner="MedCenter")
    scenario = Scenario("once", "one stage, run three times", (stage,))
    first, second = run_scenario(scenario), run_scenario(scenario)
    third = run_stage(stage)
    assert calls == [source]
    assert first.stages[0].export == second.stages[0].export == third.export


def _setup_state(instance):
    """What a run could change in an instance: its log, event count, tokens and bindings."""
    return instance.export_log(), instance.event_count, tuple(instance.tokens), instance.bindings()


def _fresh_state(source, mode, owner, disciplines):
    template = scenarios._template(source)
    return _setup_state(
        instantiate_community(template, mode, Principal(owner, owner), dict(disciplines))
    )


def _cached(cached, *args):
    """What a stage cache holds for `args`; a lookup that would build anew fails."""

    def refuse(*_args, **_kwargs):
        raise AssertionError(f"{cached.__name__}{args!r} is not cached")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "instantiate_community", refuse)
        patch.setattr(scenarios, "TraceMonitor", refuse)
        return cached(*args)


def test_each_stage_setup_is_instantiated_once(monkeypatch):
    calls = []
    instantiate = scenarios.instantiate_community

    def counting(template, mode, owner, object_disciplines):
        calls.append((template.name, mode, owner.id, tuple(object_disciplines.items())))
        return instantiate(template, mode=mode, owner=owner, object_disciplines=object_disciplines)

    monkeypatch.setattr(scenarios, "instantiate_community", counting)
    source = REDUCED_LAYER1_SOURCE + "# a source no other test instantiates\n"
    script = parse_script(SCRIPT_TEXT)
    autonomous = stage_from_script(source, script, owner="MedCenter")
    advisory = stage_from_script(source, script, owner="MedCenter", mode="advisory")
    scenario = Scenario("twice", "two setups, one run twice", (autonomous, advisory, autonomous))
    reports = [run_scenario(scenario) for _ in range(3)]
    again = run_stage(autonomous)
    assert calls == [
        ("DataAccessGate", "autonomous", "MedCenter", ()),
        ("DataAccessGate", "advisory", "MedCenter", ()),
    ]
    exports = [[stage.export for stage in report.stages] for report in reports]
    assert exports[0] == exports[1] == exports[2]
    assert exports[0][0] == exports[0][2] == again.export != exports[0][1]


def test_no_run_changes_a_prototype():
    variants = [inject_violation(get_scenario(name), kind) for name, kind in _VARIANTS]
    stages = [stage for scenario in [*built_in_scenarios(), *variants] for stage in scenario.stages]
    for scenario in [*built_in_scenarios(), *variants]:
        assert run_scenario(scenario).ok, scenario.name
    for stage in stages:
        run_stage(stage)
    setups = {(stage.source, stage.mode, stage.owner, stage.disciplines) for stage in stages}
    assert len(setups) == 6
    for setup in setups:
        assert _setup_state(_cached(scenarios._prototype, *setup)) == _fresh_state(*setup)


def test_four_threads_running_one_stage_match_a_single_threaded_run():
    # a source of its own, so that the threads also race to build the prototype
    source = REDUCED_LAYER1_SOURCE + "# a source no other test runs in threads\n"
    stage = stage_from_script(source, parse_script(SCRIPT_TEXT), owner="MedCenter")
    start, reports, errors = threading.Barrier(4), [], []

    def run():
        try:
            start.wait(timeout=10)
            for _ in range(5):
                reports.append(run_stage(stage))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=run, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    alone = run_stage(stage)
    assert len(reports) == 20
    for report in reports:
        assert (report.export, report.outcomes, report.violations) == (
            alone.export,
            alone.outcomes,
            alone.violations,
        )
    setup = (stage.source, stage.mode, stage.owner, stage.disciplines)
    assert _setup_state(_cached(scenarios._prototype, *setup)) == _fresh_state(*setup)


def test_each_stage_finds_what_run_checks_finds_in_its_records():
    variants = [inject_violation(get_scenario(name), kind) for name, kind in _VARIANTS]
    happy = get_scenario("happy_path").stages[0]
    # one setup under two property lists that find different things, each run
    # twice: a monitor kept under the wrong key, or fed in place, finds the wrong ones
    authority = dataclasses.replace(
        happy, properties=(PropertySpec.authority("read_demographics", "ConsentManager"),)
    )
    extra = Scenario("extra", "one setup, two property lists", (happy, authority, happy, authority))
    flagged = 0
    for scenario in [*built_in_scenarios(), *variants, extra]:
        for stage, report in zip(scenario.stages, run_scenario(scenario).stages):
            found = run_checks(report.records, stage.properties, scenarios._template(stage.source))
            assert [(p, at_seq) for p, at_seq, _label in report.violations] == [
                (v.property, v.at_seq) for v in found
            ], scenario.name
            flagged += len(found)
    assert flagged == len(variants) + 2
    setup = (happy.source, happy.mode, happy.owner, happy.disciplines)
    for properties in (happy.properties, authority.properties):
        fresh = TraceMonitor(properties, scenarios._template(happy.source))
        for record in _cached(scenarios._prototype, *setup).records():
            fresh.feed(record)
        kept = _cached(scenarios._genesis_monitor, setup, properties)
        assert (kept.violations, kept._tokens.states()) == (fresh.violations, fresh._tokens.states())


def test_a_stage_monitor_is_kept_only_once_it_has_folded_the_prototype(monkeypatch):
    # one thread is parked in the first feed of its monitor's fold while another
    # runs the same stage: that run must not clone the half-fed monitor
    source = REDUCED_LAYER1_SOURCE + "# a source no other test checks while it folds\n"
    stage = stage_from_script(source, parse_script(SCRIPT_TEXT), owner="MedCenter")
    folding, resume, reports, errors = threading.Event(), threading.Event(), [], []

    class Parked(TraceMonitor):
        def feed(self, record):
            if threading.current_thread() is parked and not resume.is_set():
                folding.set()
                resume.wait(timeout=10)
            return super().feed(record)

    def run():
        try:
            reports.append(run_stage(stage))
        except Exception as exc:
            errors.append(exc)

    monkeypatch.setattr(scenarios, "TraceMonitor", Parked)
    parked = threading.Thread(target=run, daemon=True)
    parked.start()
    try:
        assert folding.wait(timeout=10)
        run()
    finally:
        resume.set()
        parked.join(timeout=10)
    assert not parked.is_alive() and errors == [] and len(reports) == 2
    alone = run_stage(stage)
    for report in reports:
        assert (report.export, report.outcomes, report.violations) == (
            alone.export,
            alone.outcomes,
            alone.violations,
        )


def test_stage_from_script_rejects_unknown_mode():
    with pytest.raises(ScriptError):
        stage_from_script(REDUCED_LAYER1_SOURCE, (), mode="turbo")


# every stage of the built-in scenarios and their injected variants, plus one
# ad-hoc script whose last actor and sender are never bound; outcome labels
# are not in the exports, so the export-head pins do not cover them
PINNED_OUTCOMES = {
    "advisory_gate/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_matcher=ok bind_physician=ok eval_alpha=recommended "
        "approve_alpha=accepted eval_beta=recommended veto_beta=accepted"
    ),
    "happy_path/DataAccessCommunity": (
        "reg_vendor=ok reg_patients=ok bind_gateway=ok bind_extract_bot=ok bind_consent_mgr=ok "
        "bind_patient=ok bind_officer=ok declare_consent=accepted discharge_consent=accepted "
        "read_demographics=admissible access_probe=blocked unbind_patient=ok"
    ),
    "happy_path/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_cond_extractor=ok bind_embedder=ok bind_structurer=ok "
        "bind_matcher=ok bind_physician_1=ok bind_physician_2=ok bind_orchestrator=ok "
        "embed_profile=admissible eval_match=admissible explain=accepted "
        "transfer_decision=accepted decide=accepted"
    ),
    "happy_path__accountability/DataAccessCommunity": (
        "reg_vendor=ok reg_patients=ok bind_gateway=ok bind_extract_bot=ok bind_consent_mgr=ok "
        "bind_patient=ok bind_officer=ok declare_consent=accepted discharge_consent=accepted "
        "read_demographics=admissible access_probe=blocked unbind_patient=ok"
    ),
    "happy_path__accountability/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_cond_extractor=ok bind_embedder=ok bind_structurer=ok "
        "bind_matcher=ok bind_physician_1=ok bind_physician_2=ok bind_orchestrator=ok "
        "embed_profile=admissible eval_match=admissible explain=accepted "
        "transfer_decision=accepted decide=accepted"
    ),
    "happy_path__authority/DataAccessCommunity": (
        "reg_vendor=ok reg_patients=ok bind_gateway=ok bind_extract_bot=ok bind_consent_mgr=ok "
        "bind_patient=ok bind_officer=ok declare_consent=accepted discharge_consent=accepted "
        "read_demographics=admissible access_probe=blocked unbind_patient=ok"
    ),
    "happy_path__authority/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_cond_extractor=ok bind_embedder=ok bind_structurer=ok "
        "bind_matcher=ok bind_physician_1=ok bind_physician_2=ok bind_orchestrator=ok "
        "embed_profile=admissible eval_match=admissible explain=accepted "
        "transfer_decision=accepted decide=accepted"
    ),
    "happy_path__prohibition/DataAccessCommunity": (
        "reg_vendor=ok reg_patients=ok bind_gateway=ok bind_extract_bot=ok bind_consent_mgr=ok "
        "bind_patient=ok bind_officer=ok revoke_consent_embargo=accepted "
        "declare_consent=accepted discharge_consent=accepted read_demographics=admissible "
        "access_probe=blocked unbind_patient=ok"
    ),
    "happy_path__prohibition/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_cond_extractor=ok bind_embedder=ok bind_structurer=ok "
        "bind_matcher=ok bind_physician_1=ok bind_physician_2=ok bind_orchestrator=ok "
        "embed_profile=admissible eval_match=admissible explain=accepted "
        "transfer_decision=accepted decide=accepted"
    ),
    "happy_path__safety/DataAccessCommunity": (
        "reg_vendor=ok reg_patients=ok bind_gateway=ok bind_extract_bot=ok bind_consent_mgr=ok "
        "bind_patient=ok bind_officer=ok read_demographics=admissible access_probe=blocked "
        "unbind_patient=ok"
    ),
    "happy_path__safety/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_cond_extractor=ok bind_embedder=ok bind_structurer=ok "
        "bind_matcher=ok bind_physician_1=ok bind_physician_2=ok bind_orchestrator=ok "
        "embed_profile=admissible eval_match=admissible explain=accepted "
        "transfer_decision=accepted decide=accepted"
    ),
    "negotiation/NegotiationCommunity": (
        "reg_vendor=ok reg_site=ok bind_neg_coord=ok bind_capability_bot=ok "
        "bind_semantic_bridge=ok bind_conflict_resolver=ok bind_compliance_bot=ok "
        "bind_site_coord=ok bind_dgo=ok bind_ehr=ok propose_exchange=accepted "
        "counter_terms=accepted accept_terms=accepted propose_bulk=accepted "
        "reject_bulk=accepted validate_first=accepted approve_novel=accepted "
        "negotiate=admissible communicate=admissible share_probe=blocked "
        "declare_exception=accepted grant_share=accepted share_allowed=admissible "
        "revoke_share=accepted share_blocked_again=blocked escalate_low=accepted "
        "embargo_bulk=accepted"
    ),
    "rogue_ai/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_matcher=ok bind_physician=ok rogue_attempt=blocked "
        "eval_match=admissible decide=accepted"
    ),
    "rogue_ai__accountability/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_matcher=ok bind_physician=ok rogue_attempt=blocked "
        "eval_match=admissible decide=accepted"
    ),
    "rogue_ai__authority/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_matcher=ok bind_physician=ok rogue_attempt=blocked "
        "eval_match=admissible transfer_decision=accepted decide=accepted"
    ),
    "rogue_ai__prohibition/MatchingWorkflowCommunity": (
        "reg_vendor=ok bind_matcher=ok bind_physician=ok revoke_final_embargo=accepted "
        "rogue_attempt=blocked eval_match=admissible decide=accepted"
    ),
    "script/DataAccessGate": (
        "e0=ok bind_officer=ok e2=ok e3=ok declare=accepted done=accepted probe=admissible "
        "stranger_reads=raised:UnknownAgent phantom_grants=rejected:UnknownAgent"
    ),
}

_VARIANTS = [
    ("happy_path", "safety"),
    ("happy_path", "prohibition"),
    ("happy_path", "accountability"),
    ("happy_path", "authority"),
    ("rogue_ai", "prohibition"),
    ("rogue_ai", "authority"),
    ("rogue_ai", "accountability"),
]

UNBOUND_SCRIPT_TEXT = SCRIPT_TEXT + """\
stranger_reads: action stranger read_demographics subject=p1
phantom_grants: speech_act phantom grant action=read_demographics to=extract_bot
"""


def test_stage_outcomes_are_pinned():
    built = {s.name: s for s in built_in_scenarios()}
    reports = [
        run_scenario(scenario)
        for scenario in list(built.values()) + [inject_violation(built[n], k) for n, k in _VARIANTS]
    ]
    runs = {
        f"{report.name}/{stage.community}": stage
        for report in reports
        for stage in report.stages
    }
    script = parse_script(UNBOUND_SCRIPT_TEXT)
    runs["script/DataAccessGate"] = run_stage(
        stage_from_script(REDUCED_LAYER1_SOURCE, script, owner="MedCenter")
    )
    got = {
        key: " ".join(f"{label}={outcome}" for label, outcome in stage.outcomes)
        for key, stage in runs.items()
    }
    assert got == PINNED_OUTCOMES


def test_mutant_violation_seqs_point_at_real_records():
    mutant = inject_violation(get_scenario("happy_path"), "prohibition")
    report = run_scenario(mutant)
    stage = report.stages[0]
    (prop, at_seq, label) = stage.violations[0]
    record = stage.records[at_seq]
    assert record.seq == at_seq
    assert record.detail.get("to") == "REVOKED"


def test_built_ins_are_parsed_once_and_never_mutated():
    assert built_in_scenarios() is built_in_scenarios()
    fixture = reduced_layer1_fixture()
    assert fixture.alphabet is reduced_layer1_fixture().alphabet
    # every consumer shares these events, so running them must leave them as parsed
    built = {s.name: s for s in built_in_scenarios()}
    for scenario in list(built.values()) + [inject_violation(built[n], k) for n, k in _VARIANTS]:
        run_scenario(scenario)
    gate = instantiate_community(fixture.template, owner=Principal(fixture.owner, fixture.owner))
    for schema in fixture.prologue + fixture.alphabet:
        apply_schema(gate, schema)
    texts = {
        "happy_path/DataAccessCommunity": HAPPY_PATH_ACCESS_SCRIPT,
        "happy_path/MatchingWorkflowCommunity": HAPPY_PATH_MATCHING_SCRIPT,
        "rogue_ai/MatchingWorkflowCommunity": ROGUE_AI_SCRIPT,
        "negotiation/NegotiationCommunity": NEGOTIATION_SCRIPT,
        "advisory_gate/MatchingWorkflowCommunity": ADVISORY_GATE_SCRIPT,
    }
    stages = {
        f"{scenario.name}/{stage.community}": stage
        for scenario in built_in_scenarios()
        for stage in scenario.stages
    }
    assert stages.keys() == texts.keys()
    for key, stage in stages.items():
        assert stage.script == parse_script(texts[key]), key
    assert fixture.prologue == parse_script(REDUCED_LAYER1_PROLOGUE)
    assert fixture.alphabet == parse_script(REDUCED_LAYER1_ALPHABET)
    # every run of a source shares one template, and no run may change it
    for scenario in list(built.values()) + [inject_violation(built[n], k) for n, k in _VARIANTS]:
        for stage in scenario.stages:
            template = scenarios._checked_template(stage)
            assert template is scenarios._checked_template(stage)
            assert template == parse_spec(stage.source), stage.community
