"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
so a full run reads as a checklist. The criteria exercise the shipped
artifacts only: built-in scenarios, audit exports, checkers, the language
round trip, and the delegation/intent surfaces.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from covenant.deontic import (
    HolderKind,
    HolderRef,
    IntentRecord,
    IntentRegistry,
    Modality,
    TokenStore,
    create_token,
    delegate_burden,
    trace_to_principal,
)
from covenant.errors import IntegrityError
from covenant.reference import (
    PROP_ACCOUNTABILITY,
    PROP_AUTHORITY,
    PROP_PROHIBITION,
    PROP_SAFETY,
)
from covenant.runtime import KIND_TOKEN_TRANSITION, KIND_VERDICT, import_log, replay
from covenant.scenarios import (
    build_clinical_layers,
    built_in_scenarios,
    get_scenario,
    inject_violation,
    reduced_layer1_fixture,
    run_scenario,
)
from covenant.spec_lang import SEVERITY_ERROR, format_specs, parse_spec, validate_template
from covenant.verifier import (
    check_accountability,
    check_authority,
    check_prohibition,
    check_safety,
    oracle_enumerate,
    runtime_enumerate,
)

from shared import StaticResolver, make_random_template, round_trip_holds

GOLDEN = Path(__file__).parent / "data" / "clinical_layers.golden"


@contextmanager
def report(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{name}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"{name}: PASS", flush=True)


def creations(records):
    return {
        r.detail["token"]: r.detail
        for r in records
        if r.kind == KIND_TOKEN_TRANSITION and r.detail["from"] == "CREATED"
    }


def registered_principals(records):
    names = set()
    for r in records:
        if r.kind == "genesis":
            names.add(r.detail["owner"]["id"])
        elif r.kind == "binding" and r.detail.get("event_type") == "register_principal":
            names.add(r.detail["principal"])
    return names


# ----------------------------------------------------------------------
# 1. the three clinical community templates parse, validate, and freeze


EXPECTED_CENSUS = {
    "DataAccessCommunity": {
        "roles": {
            "FHIRDataProvider",
            "DataExtractionAgent",
            "ConsentManager",
            "Patient",
            "DataGovernanceOfficer",
        },
        "groups": set(),
        "objects": {"ConsentRegistry", "AuditLog", "PatientDataCache"},
        "policies": {
            ("burden", "verify_consent", "ConsentManager"),
            ("permit", "read_demographics", "DataExtractionAgent"),
            ("embargo", "access_without_consent", "ALL"),
        },
        "contracts": {"ConsentGovernance"},
    },
    "MatchingWorkflowCommunity": {
        "roles": {
            "ConditionExtractor",
            "PatientEmbedder",
            "EligibilityStructurer",
            "CriteriaMatcher",
            "Physician",
            "WorkflowOrchestrator",
        },
        "groups": {"MatchingAgent"},
        "objects": {"TrialCandidateSet", "PatientProfile", "WorkflowState"},
        "policies": {
            ("permit", "evaluate_eligibility", "MatchingAgent"),
            ("embargo", "final_decision", "ALL_AI_AGENTS"),
            ("burden", "make_enrollment_decision", "Physician"),
            ("burden", "provide_explanation", "MatchingAgent"),
        },
        "contracts": {"MatchingWorkflowContract", "PhysicianReviewContract"},
    },
    "NegotiationCommunity": {
        "roles": {
            "NegotiationCoordinator",
            "CapabilityDiscoverer",
            "SemanticBridge",
            "ConflictResolver",
            "ComplianceValidator",
            "TrialSiteCoordinator",
            "DataGovernanceOfficer",
            "ExternalSystem",
        },
        "groups": {"ComplianceAgent", "DataOfficer"},
        "objects": {"NegotiationHistory", "CapabilityRegistry", "SemanticMappings"},
        "policies": {
            ("burden", "validate_compliance", "ComplianceAgent"),
            ("burden", "approve_novel_request", "DataOfficer"),
            ("permit", "negotiate_protocol", "NegotiationCoordinator"),
            ("embargo", "share_PHI_externally", "ALL"),
            ("permit", "communicate_externally", "NegotiationCoordinator"),
        },
        "contracts": {
            "NegotiationProtocol",
            "ExternalSystemNegotiation",
            "EscalationContract",
        },
    },
}


def test_criterion_1_clinical_templates(capsys):
    with report(capsys, "1/8 clinical community templates parse complete"):
        started = time.perf_counter()
        layers = build_clinical_layers()
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"parsing took {elapsed:.3f}s"

        census = {
            t.name: {
                "roles": {r.name for r in t.roles},
                "groups": {g.name for g in t.groups},
                "objects": {o.name for o in t.objects},
                "policies": {(p.modality.value, p.action, p.target) for p in t.policies},
                "contracts": {c.name for c in t.contracts},
            }
            for t in layers
        }
        assert census == EXPECTED_CENSUS
        for t in layers:
            errors = [f for f in validate_template(t) if f.severity == SEVERITY_ERROR]
            assert errors == [], errors
        assert format_specs(layers) == GOLDEN.read_text()


# ----------------------------------------------------------------------
# 2. data access is consent gated, and removing the gate is caught


def test_criterion_2_consent_gate(capsys):
    with report(capsys, "2/8 consent gate admits only verified reads"):
        scenario = get_scenario("happy_path")
        clean = run_scenario(scenario)
        assert clean.ok, clean.summary()
        stage = clean.stages[0]
        outcomes = dict(stage.outcomes)
        assert outcomes["read_demographics"] == "admissible"
        assert outcomes["access_probe"] == "blocked"
        assert check_safety(stage.records, "read_demographics", "verify_consent") == []

        mutant = run_scenario(inject_violation(scenario, "safety"))
        assert mutant.ok, mutant.summary()
        found = [v for st in mutant.stages for v in st.violations]
        assert [(p, label) for p, _, label in found] == [(PROP_SAFETY, "read_demographics")]
        record = mutant.stages[0].records[found[0][1]]
        assert record.kind == KIND_VERDICT
        assert record.detail["action"] == "read_demographics"
        assert record.detail["outcome"] == "admissible"


# ----------------------------------------------------------------------
# 3. enrollment decisions stay with physicians; the embargo has no gaps


def test_criterion_3_human_decision_authority(capsys):
    with report(capsys, "3/8 enrollment decisions stay with physicians"):
        scenario = get_scenario("rogue_ai")
        clean = run_scenario(scenario)
        assert clean.ok, clean.summary()
        stage = clean.stages[0]
        outcomes = dict(stage.outcomes)
        assert outcomes["rogue_attempt"] == "blocked"
        assert outcomes["decide"] == "accepted"

        blocked = [
            r
            for r in stage.records
            if r.kind == KIND_VERDICT and r.detail["action"] == "final_decision"
        ]
        assert len(blocked) == 1
        assert blocked[0].detail["outcome"] == "blocked"
        assert blocked[0].detail["reason"] == "embargo"

        made = creations(stage.records)
        decisions = [
            r.detail
            for r in stage.records
            if r.kind == KIND_TOKEN_TRANSITION
            and r.detail.get("to") == "DISCHARGED"
            and made[r.detail["token"]]["action"] == "make_enrollment_decision"
        ]
        assert [d["by"] for d in decisions] == ["physician_1"]

        template = parse_spec(scenario.stages[0].source)
        assert check_authority(stage.records, "make_enrollment_decision", "Physician", template) == []
        assert check_prohibition(stage.records, "final_decision", "ALL_AI_AGENTS", template) == []

        mutant = run_scenario(inject_violation(scenario, "prohibition"))
        assert mutant.ok, mutant.summary()
        found = [v for st in mutant.stages for v in st.violations]
        assert [(p, label) for p, _, label in found] == [
            (PROP_PROHIBITION, "revoke_final_embargo")
        ]
        mstage = mutant.stages[0]
        record = mstage.records[found[0][1]]
        assert record.detail["to"] == "REVOKED"
        gone = creations(mstage.records)[record.detail["token"]]
        assert gone["modality"] == "embargo" and gone["action"] == "final_decision"


# ----------------------------------------------------------------------
# 4. everything traces back to a registered principal


def test_criterion_4_principal_traceability(capsys):
    with report(capsys, "4/8 tokens and bindings trace to principals"):
        for scenario in built_in_scenarios():
            result = run_scenario(scenario)
            assert result.ok, result.summary()
            for stage in result.stages:
                assert check_accountability(stage.records) == []
                known = registered_principals(stage.records)
                made = creations(stage.records)
                for record in stage.records:
                    if record.kind == KIND_VERDICT and record.detail.get("outcome") == "admissible":
                        for permit_id in record.detail.get("permits", ()):
                            assert made[permit_id]["chain_head"] in known

        mutant = run_scenario(inject_violation(get_scenario("happy_path"), "accountability"))
        assert mutant.ok, mutant.summary()
        found = [v for st in mutant.stages for v in st.violations]
        assert [(p, label) for p, _, label in found] == [
            (PROP_ACCOUNTABILITY, "bind_extract_bot")
        ]
        record = mutant.stages[0].records[found[0][1]]
        assert record.kind == "binding"
        assert record.detail["agent"] == "extract_bot"
        assert record.detail["principal"] not in registered_principals(mutant.stages[0].records)


# ----------------------------------------------------------------------
# 5. the online monitor agrees with the exhaustive oracle


def test_criterion_5_monitor_matches_oracle(capsys):
    with report(capsys, "5/8 online monitor matches exhaustive oracle"):
        fixture = reduced_layer1_fixture()
        started = time.perf_counter()
        expected = dict(
            oracle_enumerate(
                fixture.template,
                fixture.alphabet,
                5,
                fixture.properties,
                fixture.prologue,
                fixture.owner,
            )
        )
        actual = runtime_enumerate(fixture, 5)
        elapsed = time.perf_counter() - started

        assert len(expected) == sum(8**k for k in range(6)) == 37449
        assert len(expected) >= 32768
        assert actual.keys() == expected.keys()
        mismatched = [k for k in expected if actual[k] != expected[k]]
        assert mismatched == []

        violating = sum(1 for v in expected.values() if v)
        assert violating > 0
        flagged = {prop for verdicts in expected.values() for prop, _ in verdicts}
        assert {PROP_SAFETY, PROP_AUTHORITY, PROP_PROHIBITION} <= flagged
        assert elapsed <= 60.0, f"enumeration took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 6. audit exports replay byte for byte and tampering is localized


def test_criterion_6_audit_replay_and_tampering(capsys):
    with report(capsys, "6/8 audit replays exactly, tampering localized"):
        for scenario in built_in_scenarios():
            result = run_scenario(scenario)
            for spec_stage, ran in zip(scenario.stages, result.stages):
                template = parse_spec(spec_stage.source)
                twin = replay(template, ran.export)
                assert twin.export_log() == ran.export
                again = replay(template, twin.export_log())
                assert again.tokens.states() == twin.tokens.states()

        export = run_scenario(get_scenario("happy_path")).stages[0].export
        lines = export.splitlines()
        total = len(lines)

        # flip one character inside several record payloads
        for line_no in (2, total // 2, total - 1):
            line = lines[line_no]
            pos = line.index('"detail"') + len('"detail"') + 3
            flipped = line[:pos] + ("~" if line[pos] != "~" else "!") + line[pos + 1 :]
            bad = "\n".join(lines[:line_no] + [flipped] + lines[line_no + 1 :]) + "\n"
            with pytest.raises(IntegrityError) as info:
                import_log(bad)
            assert info.value.bad_seq == line_no - 1

        # corrupt a stored digest
        line_no = total // 3
        line = lines[line_no]
        pos = line.rindex('"hash"') + len('"hash"') + 3
        flipped = line[:pos] + ("0" if line[pos] != "0" else "1") + line[pos + 1 :]
        bad = "\n".join(lines[:line_no] + [flipped] + lines[line_no + 1 :]) + "\n"
        with pytest.raises(IntegrityError) as info:
            import_log(bad)
        assert info.value.bad_seq == line_no - 1

        # drop a record outright
        bad = "\n".join(lines[:4] + lines[5:]) + "\n"
        with pytest.raises(IntegrityError) as info:
            import_log(bad)
        assert info.value.bad_seq == 4


# ----------------------------------------------------------------------
# 7. the canonical form is a fixpoint of parse and format


def test_criterion_7_round_trip_stability(capsys):
    with report(capsys, "7/8 canonical spec text round-trips"):
        for template in build_clinical_layers():
            assert round_trip_holds(template)
        rng = random.Random(0xACCE)
        for index in range(1000):
            template = make_random_template(rng, index)
            assert round_trip_holds(template), template.name


# ----------------------------------------------------------------------
# 8. delegation moves work, never responsibility or intent


def test_criterion_8_delegation_and_intent(capsys):
    with report(capsys, "8/8 delegation keeps the principal on the hook"):
        resolver = StaticResolver(
            principals={"Hospital", "Vendor"},
            agents={
                "doc_a": ("Hospital", {"Physician"}),
                "doc_b": ("Hospital", {"Physician"}),
                "doc_c": ("Hospital", {"Physician"}),
                "bot_1": ("Vendor", {"Matcher"}),
            },
            roles={"Physician", "Matcher"},
        )
        store = TokenStore()
        token = create_token(
            store, resolver, Modality.BURDEN, "review_chart",
            holder=HolderRef(HolderKind.AGENT, "doc_a"), subject=None,
            issuer="Hospital", at=0,
        )
        for hop, target in enumerate(("doc_b", "doc_c", "bot_1"), start=1):
            token = delegate_burden(
                store, resolver, token.id, frm=token.holder.name, to=target, at=hop
            )
        assert token.holder.name == "bot_1"
        assert token.chain.participants() == ("Hospital", "doc_a", "doc_b", "doc_c", "bot_1")
        assert trace_to_principal(resolver, token) == "Hospital"

        # the audited runtime keeps the same chain through a live transfer
        scenario = get_scenario("happy_path")
        stage = run_scenario(scenario).stages[1]
        made = creations(stage.records)
        hops = [
            r.detail
            for r in stage.records
            if r.kind == KIND_TOKEN_TRANSITION
            and r.detail.get("link")
            and made[r.detail["token"]]["action"] == "make_enrollment_decision"
        ]
        assert [h["link"]["to"] for h in hops] == ["physician_2"]
        assert made[hops[0]["token"]]["chain_head"] == "TrialSponsor"

        # intent is recorded, immutable, and never reassigned by delegation
        registry = IntentRegistry()
        surface = [name for name in dir(registry) if not name.startswith("_")]
        assert surface == ["for_owner", "record"]
        assert dataclasses.fields(IntentRecord)[0].name == "owner"
        entry = registry.record("doc_a", goal="clear review queue", plan="triage then sign")
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.owner = "bot_1"
        assert registry.for_owner("doc_a") == (entry,)
        assert registry.for_owner("bot_1") == ()
        with pytest.raises(ValueError):
            registry.record("doc_a", goal="g", plan="p", commitment_readiness="maybe")
