"""Property tests: each rule of the property table alone, monitors, and the oracle."""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import threading
import time
from collections import Counter

import pytest

from covenant import cli, verifier
from covenant.errors import IntegrityError, ProtocolViolation, ScopeTooLarge, UnknownIdentifier
from covenant.deontic import TokenState
from covenant.reference import (
    PROP_ACCOUNTABILITY,
    PROP_AUTHORITY,
    PROP_PROHIBITION,
    PROP_SAFETY,
    ReferenceEngine,
)
from covenant.runtime import (
    KIND_ACTION_REQUEST,
    KIND_BINDING,
    KIND_SPEECH_ACT,
    KIND_TOKEN_TRANSITION,
    KIND_VERDICT,
    MODE_AUTONOMOUS,
    AuditRecord,
    Principal,
    SpeechAct,
    instantiate_community,
    parse_export,
    replay,
)
from covenant.scenarios import (
    LAYER1_SOURCE,
    GateFixture,
    get_scenario,
    parse_script,
    reduced_layer1_fixture,
    run_scenario,
)
from covenant.spec_lang import parse_spec
from covenant.spec_lang.ast import SpeechActKind
from covenant.verifier import (
    EventSchema,
    PropertySpec,
    TraceMonitor,
    Violation,
    _select_token,
    apply_schema,
    check_accountability,
    check_authority,
    check_prohibition,
    check_safety,
    oracle_enumerate,
    run_checks,
    runtime_enumerate,
)
from shared import DESK_SOURCE, _ward_module

CLINIC_SOURCE = """\
community Clinic {
  role Officer: human [0..2];
  role Reviewer: human [0..2];
  role Bot: llm_agent [0..2];

  policy burden(screen, Officer);
  policy permit(read_file, Bot) requires discharged burden(screen, Officer);
  policy burden(decide, Officer);
  policy embargo(close_file, ALL_AI_AGENTS);

  contract Rules {
    allow Officer: declare_burden, declare_permit, declare_embargo, grant, revoke, transfer, discharge;
    allow Reviewer: discharge;
  }
}
"""


def clinic():
    c = instantiate_community(
        parse_spec(CLINIC_SOURCE), mode=MODE_AUTONOMOUS, owner=Principal("Clinic", "Clinic")
    )
    c.register_principal("Vendor")
    c.bind_agent("Officer", "officer_1", "human", "Clinic")
    c.bind_agent("Reviewer", "reviewer_1", "human", "Clinic")
    c.bind_agent("Bot", "bot_1", "llm_agent", "Vendor")
    return c


def say(c, kind, sender, **payload):
    result = c.apply_speech_act(SpeechAct(kind, sender, payload))
    assert result.accepted, result.reason
    return result


# ----------------------------------------------------------------------
# safety: guarded action only after its burden is discharged


def test_safety_clean_when_guard_discharged_first():
    c = clinic()
    declared = say(c, SpeechActKind.DECLARE_BURDEN, "officer_1", action="screen", holder="Officer")
    say(c, SpeechActKind.DISCHARGE, "officer_1", token=declared.token_id)
    assert c.submit_action("bot_1", "read_file").verdict.admissible
    assert check_safety(c.records(), "read_file", "screen") == []


def test_safety_fires_on_unguarded_grant():
    c = clinic()
    # a side-door permit with no requires clause lets the action through
    say(c, SpeechActKind.GRANT, "officer_1", action="read_file", to="bot_1")
    result = c.submit_action("bot_1", "read_file")
    assert result.verdict.admissible
    found = check_safety(c.records(), "read_file", "screen")
    assert len(found) == 1
    v = found[0]
    assert v.property == PROP_SAFETY
    assert c.records()[v.at_seq].detail["action"] == "read_file"
    assert v.witness == (v.at_seq,)


def test_safety_subject_scoping():
    c = clinic()
    declared = say(
        c, SpeechActKind.DECLARE_BURDEN, "officer_1", action="screen", holder="Officer", subject="p1"
    )
    say(c, SpeechActKind.DISCHARGE, "officer_1", token=declared.token_id)
    say(c, SpeechActKind.GRANT, "officer_1", action="read_file", to="bot_1")
    c.submit_action("bot_1", "read_file", "p1")
    c.submit_action("bot_1", "read_file", "p2")
    found = check_safety(c.records(), "read_file", "screen")
    assert len(found) == 1
    assert c.records()[found[0].at_seq].detail["subject"] == "p2"


def test_safety_unscoped_discharge_covers_all_subjects():
    c = clinic()
    declared = say(c, SpeechActKind.DECLARE_BURDEN, "officer_1", action="screen", holder="Officer")
    say(c, SpeechActKind.DISCHARGE, "officer_1", token=declared.token_id)
    say(c, SpeechActKind.GRANT, "officer_1", action="read_file", to="bot_1")
    c.submit_action("bot_1", "read_file", "p1")
    c.submit_action("bot_1", "read_file", "p2")
    assert check_safety(c.records(), "read_file", "screen") == []


# ----------------------------------------------------------------------
# authority: decisions stay with the designated role


def test_authority_clean_for_role_holder_discharge():
    c = clinic()
    declared = say(c, SpeechActKind.DECLARE_BURDEN, "officer_1", action="decide", holder="Officer")
    say(c, SpeechActKind.DISCHARGE, "officer_1", token=declared.token_id)
    assert check_authority(c.records(), "decide", "Officer", c.template) == []


def test_authority_fires_when_wrong_role_discharges():
    c = clinic()
    declared = say(
        c, SpeechActKind.DECLARE_BURDEN, "officer_1", action="decide", holder="reviewer_1"
    )
    say(c, SpeechActKind.DISCHARGE, "reviewer_1", token=declared.token_id)
    found = check_authority(c.records(), "decide", "Officer", c.template)
    assert len(found) == 1
    record = c.records()[found[0].at_seq]
    assert record.detail["to"] == "DISCHARGED" and record.detail["by"] == "reviewer_1"


def test_authority_fires_on_admissible_decision_action():
    c = clinic()
    say(c, SpeechActKind.GRANT, "officer_1", action="decide", to="bot_1")
    result = c.submit_action("bot_1", "decide")
    assert result.verdict.admissible
    found = check_authority(c.records(), "decide", "Officer", c.template)
    assert [c.records()[v.at_seq].kind for v in found] == ["verdict"]


def test_authority_ignores_other_actions():
    c = clinic()
    declared = say(c, SpeechActKind.DECLARE_BURDEN, "officer_1", action="screen", holder="Officer")
    say(c, SpeechActKind.DISCHARGE, "officer_1", token=declared.token_id)
    assert check_authority(c.records(), "decide", "Officer", c.template) == []


# ----------------------------------------------------------------------
# prohibition: embargo coverage has no gaps and no admitted member actions


def test_prohibition_clean_while_embargo_held():
    c = clinic()
    c.submit_action("bot_1", "close_file")  # blocked
    assert check_prohibition(c.records(), "close_file", "ALL_AI_AGENTS", c.template) == []


def test_prohibition_fires_on_gap_and_on_admitted_action():
    c = clinic()
    say(c, SpeechActKind.GRANT, "officer_1", action="close_file", to="bot_1")
    token_id = _select_token(
        c, {"modality": "embargo", "action": "close_file", "state": "HELD"}
    )
    say(c, SpeechActKind.REVOKE, "officer_1", token=token_id)
    revoke_seq = c.head_seq
    result = c.submit_action("bot_1", "close_file")
    assert result.verdict.admissible
    found = check_prohibition(c.records(), "close_file", "ALL_AI_AGENTS", c.template)
    assert [v.at_seq for v in found] == [revoke_seq, result.request_seq + 1]


def test_prohibition_gap_dedupes_until_cover_restored():
    c = clinic()
    token_id = _select_token(
        c, {"modality": "embargo", "action": "close_file", "state": "HELD"}
    )
    say(c, SpeechActKind.REVOKE, "officer_1", token=token_id)
    c.submit_action("officer_1", "ping")
    c.submit_action("officer_1", "ping")
    found = check_prohibition(c.records(), "close_file", "ALL_AI_AGENTS", c.template)
    assert len(found) == 1
    # restoring and removing cover again opens a second gap
    say(c, SpeechActKind.DECLARE_EMBARGO, "officer_1", action="close_file", holder="ALL_AI_AGENTS")
    restored = _select_token(
        c, {"modality": "embargo", "action": "close_file", "state": "HELD"}
    )
    say(c, SpeechActKind.REVOKE, "officer_1", token=restored)
    found = check_prohibition(c.records(), "close_file", "ALL_AI_AGENTS", c.template)
    assert len(found) == 2


def test_two_equal_prohibition_specs_each_flag_the_gap():
    c = clinic()
    token_id = _select_token(c, {"modality": "embargo", "action": "close_file", "state": "HELD"})
    say(c, SpeechActKind.REVOKE, "officer_1", token=token_id)
    c.submit_action("officer_1", "ping")
    spec = PropertySpec.prohibition("close_file", "ALL_AI_AGENTS")
    once = run_checks(c.records(), [spec], c.template)
    assert len(once) == 1
    assert run_checks(c.records(), [spec, spec], c.template) == once * 2


def test_the_gap_scan_runs_on_a_binding_or_a_transition_of_an_embargo_on_its_action(monkeypatch):
    scans = []
    held = verifier._embargo_held
    monkeypatch.setattr(
        verifier,
        "_embargo_held",
        lambda monitor, action, group: scans.append(action) or held(monitor, action, group),
    )
    c = clinic()
    monitor = TraceMonitor([PropertySpec.prohibition("close_file", "ALL_AI_AGENTS")], c.template)
    monitor.attach(c)

    def scans_in(event) -> int:
        scans.clear()
        event()
        return len(scans)

    def embargo_on(action):
        return _select_token(c, {"modality": "embargo", "action": action, "state": "HELD"})

    # burdens and permits never change whether the embargo is held, even on its action
    declared = lambda: say(c, SpeechActKind.DECLARE_BURDEN, "officer_1", action="sign", holder="officer_1")
    assert scans_in(declared) == 0
    burden = len(c.tokens)  # the token just declared
    assert scans_in(lambda: say(c, SpeechActKind.DISCHARGE, "officer_1", token=burden)) == 0
    assert scans_in(lambda: say(c, SpeechActKind.GRANT, "officer_1", action="close_file", to="bot_1")) == 0
    permit = len(c.tokens)
    assert scans_in(lambda: say(c, SpeechActKind.REVOKE, "officer_1", token=permit)) == 0
    assert scans_in(lambda: c.submit_action("bot_1", "close_file")) == 0
    # nor does an embargo on another action
    other = lambda: say(c, SpeechActKind.DECLARE_EMBARGO, "officer_1", action="read_file", holder="ALL_AI_AGENTS")
    assert scans_in(other) == 0
    assert scans_in(lambda: say(c, SpeechActKind.REVOKE, "officer_1", token=embargo_on("read_file"))) == 0
    # a binding, and each transition of an embargo on the action, scans once
    assert scans_in(lambda: c.bind_agent("Bot", "bot_2", "llm_agent", "Vendor")) == 1
    assert scans_in(lambda: c.unbind_agent("Bot", "bot_2")) == 1
    assert scans_in(lambda: say(c, SpeechActKind.REVOKE, "officer_1", token=embargo_on("close_file"))) == 1
    covered = lambda: say(c, SpeechActKind.DECLARE_EMBARGO, "officer_1", action="close_file", holder="Bot")
    assert scans_in(covered) == 1
    # the revoke opened the one gap; a Bot-held embargo is not a group embargo
    assert [v.at_seq for v in monitor.violations] == [c.head_seq - 2]
    assert monitor.violations == check_prohibition(c.records(), "close_file", "ALL_AI_AGENTS", c.template)


def test_prohibition_needs_a_bound_group_member():
    c = instantiate_community(
        parse_spec(CLINIC_SOURCE), mode=MODE_AUTONOMOUS, owner=Principal("Clinic", "Clinic")
    )
    c.bind_agent("Officer", "officer_1", "human", "Clinic")
    token_id = _select_token(
        c, {"modality": "embargo", "action": "close_file", "state": "HELD"}
    )
    say(c, SpeechActKind.REVOKE, "officer_1", token=token_id)
    assert check_prohibition(c.records(), "close_file", "ALL_AI_AGENTS", c.template) == []


# ----------------------------------------------------------------------
# accountability: every agent and token traces to a registered principal


def test_accountability_clean_for_registered_principals():
    c = clinic()
    assert check_accountability(c.records()) == []


def test_accountability_fires_on_unregistered_principal_bind():
    c = clinic()
    c.force_bind("Bot", "bot_9", "llm_agent", "GhostCorp")
    found = check_accountability(c.records())
    assert len(found) == 1
    record = c.records()[found[0].at_seq]
    assert record.detail["agent"] == "bot_9" and record.detail["principal"] == "GhostCorp"


# ----------------------------------------------------------------------
# monitors


def drive_clinic(c):
    say(c, SpeechActKind.GRANT, "officer_1", action="read_file", to="bot_1")
    c.submit_action("bot_1", "read_file")
    say(c, SpeechActKind.GRANT, "officer_1", action="close_file", to="bot_1")
    token_id = _select_token(
        c, {"modality": "embargo", "action": "close_file", "state": "HELD"}
    )
    say(c, SpeechActKind.REVOKE, "officer_1", token=token_id)
    c.submit_action("bot_1", "close_file")
    return c


ALL_SPECS = (
    PropertySpec.safety("read_file", "screen"),
    PropertySpec.authority("decide", "Officer"),
    PropertySpec.prohibition("close_file", "ALL_AI_AGENTS"),
    PropertySpec.accountability(),
)


def test_attached_monitor_matches_offline_checks():
    c = clinic()
    monitor = TraceMonitor(ALL_SPECS, c.template)
    monitor.attach(c)
    drive_clinic(c)
    assert monitor.violations == run_checks(c.records(), ALL_SPECS, c.template)
    assert len(monitor.violations) == 3
    assert monitor._tokens.states() == c.tokens.states()
    # a log annotated by an older release, with the embargo gap still open,
    # checks the same: the annotation changes no state
    last = monitor.violations[-1]
    head = c.records()[-1]
    annotation = {
        "event": head.detail["event"] + 1,
        "property": last.property,
        "at_seq": last.at_seq,
        "witness": list(last.witness),
    }
    note = AuditRecord(head.seq + 1, "property_violation", None, annotation, head.hash, "")
    assert run_checks(c.records() + (note,), ALL_SPECS, c.template) == monitor.violations


def test_monitor_attach_catches_up_on_history():
    c = clinic()
    say(c, SpeechActKind.GRANT, "officer_1", action="read_file", to="bot_1")
    c.submit_action("bot_1", "read_file")  # violation already in the past
    monitor = TraceMonitor(ALL_SPECS, c.template)
    monitor.attach(c)
    assert len(monitor.violations) == 1
    c.submit_action("bot_1", "read_file")
    assert len(monitor.violations) == 2


def test_a_second_attach_is_refused_before_it_feeds_a_record():
    # without policies a second catch-up would flag the ghost's binding at seq 1 again
    ward = parse_spec("community Ward { role Nurse: human [0..2]; }")
    c = instantiate_community(ward, owner=Principal("W", "W"))
    c.force_bind("Nurse", "nurse_1", "human", "Ghost")
    monitor = TraceMonitor([PropertySpec.accountability()], c.template)
    monitor.attach(c)
    with pytest.raises(ProtocolViolation):
        monitor.attach(c)
    assert monitor.violations == [Violation(PROP_ACCOUNTABILITY, 1, (1,))]
    # listening once: the next ghost binding is flagged once
    c.force_bind("Nurse", "nurse_2", "human", "Ghost")
    assert monitor.violations == [Violation(PROP_ACCOUNTABILITY, s, (s,)) for s in (1, 2)]


def test_a_monitor_fed_a_record_without_a_genesis_is_refused_an_attach():
    # its catch-up would bind the ghost again and flag its binding a second time
    c = instantiate_community(parse_spec(LAYER1_SOURCE), owner=Principal("Owner", "Owner"))
    c.force_bind("DataExtractionAgent", "ghost", "llm_agent", "Ghost")
    bound = c.records()[-1]
    monitor = TraceMonitor([PropertySpec.accountability()], c.template)
    assert monitor.feed(bound) == [Violation(PROP_ACCOUNTABILITY, bound.seq, (bound.seq,))]
    assert not monitor._roster.principals  # no genesis was fed
    with pytest.raises(ProtocolViolation):
        monitor.attach(c)
    assert monitor.violations == [Violation(PROP_ACCOUNTABILITY, bound.seq, (bound.seq,))]
    assert monitor._roster.roles_of("ghost") == ("DataExtractionAgent",)
    # nor does it listen: the next ghost binding reaches no monitor
    c.force_bind("ConsentManager", "ghost_2", "llm_agent", "Ghost")
    assert len(monitor.violations) == 1 and not monitor._roster.ever_bound("ghost_2")


def test_a_second_attach_to_a_community_with_policies_is_a_protocol_violation():
    # its catch-up would fold the policy tokens again, out of order
    c = clinic()
    monitor = TraceMonitor(ALL_SPECS, c.template)
    monitor.attach(c)
    with pytest.raises(ProtocolViolation):
        monitor.attach(c)
    assert monitor._tokens.states() == c.tokens.states()
    drive_clinic(c)
    assert monitor.violations == run_checks(c.records(), ALL_SPECS, c.template)
    assert monitor._tokens.states() == c.tokens.states()


def test_monitor_clone_is_independent():
    c = clinic()
    monitor = TraceMonitor(ALL_SPECS, c.template)
    monitor.attach(c)
    twin = monitor.clone()
    d = c.clone()
    d.add_listener(twin.feed)
    embargo = {"modality": "embargo", "action": "close_file", "state": "HELD"}
    say(d, SpeechActKind.GRANT, "officer_1", action="read_file", to="bot_1")
    d.submit_action("bot_1", "read_file")
    say(d, SpeechActKind.REVOKE, "officer_1", token=_select_token(d, embargo))
    assert len(twin.violations) == 2  # unguarded read, then the embargo gap
    assert monitor.violations == []
    # the parent opens its own gap; the twin then closes its gap and unbinds
    # the officer, neither of which may reach the parent
    say(c, SpeechActKind.REVOKE, "officer_1", token=_select_token(c, embargo))
    d.unbind_agent("Bot", "bot_1")
    d.unbind_agent("Officer", "officer_1")
    decide = {"modality": "burden", "action": "decide", "state": "HELD"}
    say(c, SpeechActKind.DISCHARGE, "officer_1", token=_select_token(c, decide))
    say(c, SpeechActKind.GRANT, "officer_1", action="read_file", to="bot_1")
    c.submit_action("bot_1", "read_file")
    assert twin.violations == run_checks(d.records(), ALL_SPECS, c.template)
    assert monitor.violations == run_checks(c.records(), ALL_SPECS, c.template)
    assert [v.property for v in monitor.violations] == [PROP_PROHIBITION, PROP_SAFETY]


def test_monitor_keeps_duplicate_binds_of_an_edited_log():
    # a hand-edited log may bind the same (role, agent) twice: the first bind
    # gives kind and principal, and one unbind drops only the earliest
    def binding(seq, event_type, **detail):
        detail.update(event=seq, event_type=event_type)
        return AuditRecord(seq, KIND_BINDING, detail["agent"], detail, "", "")

    monitor = TraceMonitor([PropertySpec.prohibition("close_file", "ALL_AI_AGENTS")])
    index = monitor._roster

    def seen():
        return index.agent_kind("x"), index.principal_of("x"), index.count("Bot")

    monitor.feed(binding(0, "bind", role="Bot", agent="x", agent_kind="llm_agent", principal="P"))
    monitor.feed(binding(1, "bind", role="Bot", agent="x", agent_kind="human", principal="Q"))
    assert seen() == ("llm_agent", "P", 2)
    monitor.feed(binding(2, "unbind", role="Bot", agent="x"))
    assert [b.bound_at for b in index] == [1]
    assert seen() == ("human", "Q", 1)
    # only the bind of the AI kind exposed the group
    assert [v.at_seq for v in monitor.violations] == [0]


# the record kinds each row's rule reads, in the order of ALL_SPECS; the monitor sends it no other
READS = {
    PROP_SAFETY: {KIND_VERDICT},
    PROP_AUTHORITY: {KIND_VERDICT, KIND_TOKEN_TRANSITION},
    PROP_PROHIBITION: {KIND_VERDICT, KIND_BINDING, KIND_TOKEN_TRANSITION},
    PROP_ACCOUNTABILITY: {KIND_BINDING, KIND_TOKEN_TRANSITION},
}


def spy_on_rules(monkeypatch, seen):
    """Wrap each row's rule so that it first calls seen(record, template)."""
    for template in READS:
        row = verifier.PROPERTIES[template]
        spied = lambda monitor, record, at, values, rule=row.rule, template=template: (
            seen(record, template) or rule(monitor, record, at, values)
        )
        monkeypatch.setitem(verifier.PROPERTIES, template, dataclasses.replace(row, rule=spied))


def test_the_monitor_sends_a_record_only_to_the_rules_that_read_its_kind(monkeypatch):
    calls = []
    spy_on_rules(monkeypatch, lambda record, template: calls.append((record.seq, template)))
    c = clinic()
    monitor = TraceMonitor(ALL_SPECS, c.template)
    monitor.attach(c)
    drive_clinic(c)
    records = c.records()
    assert calls == [(r.seq, template) for r in records for template in READS if r.kind in READS[template]]
    assert len(monitor.violations) == 3
    # no rule reads a speech act or an action request
    ignored = [r for r in records if r.kind in (KIND_SPEECH_ACT, KIND_ACTION_REQUEST)]
    assert len(ignored) == 5
    calls.clear()
    for record in ignored:
        assert monitor.feed(record) == []
    assert calls == []


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.template)
def test_each_row_of_the_property_table(monkeypatch, spec):
    row = verifier.PROPERTIES[spec.template]
    values = spec.values
    # the row lists its parameters by the names and in the order of its named constructor's arguments
    named = getattr(PropertySpec, row.name)
    assert tuple(inspect.signature(named).parameters) == tuple(param.key for param in row.params)
    assert named(*values) == spec
    # and the CLI builds that spec from the row's flags, each of which it needs
    flags = [arg for param, value in zip(row.params, values) for arg in (f"--{param.flag}", value)]

    def built(flags):
        args = cli.build_parser().parse_args(["verify", "--trace", "t", "--property", row.name, *flags])
        return cli._property_spec(args)

    assert built(flags) == spec
    for i in range(len(row.params)):
        with pytest.raises(UnknownIdentifier, match=f"^{row.name} needs --"):
            built(flags[: 2 * i] + flags[2 * i + 2 :])
    # the monitor sends the row's rule each record of the row's kinds, verdicts admitted only
    sent = []
    spy_on_rules(monkeypatch, lambda record, template: template == spec.template and sent.append(record.seq))
    c = clinic()
    TraceMonitor([spec], c.template).attach(c)
    records = drive_clinic(c).records()
    read = [r for r in records if r.kind in row.kinds and r.detail.get("outcome", "admissible") == "admissible"]
    assert sent == [r.seq for r in read]
    assert {r.kind for r in read} == set(row.kinds) == READS[spec.template]
    # one value too few or one too many is refused, by the monitor and by run_checks
    for wrong in [values + ("Staff",)] + ([values[:-1]] if values else []):
        message = f"^property {spec.template!r} takes {len(values)} values, not {len(wrong)}$"
        with pytest.raises(UnknownIdentifier, match=message):
            TraceMonitor([PropertySpec(spec.template, wrong)], c.template)
        with pytest.raises(UnknownIdentifier, match=message):
            run_checks(records, [PropertySpec(spec.template, wrong)], c.template)


def test_a_verdict_that_is_not_admitted_reaches_no_rule(monkeypatch):
    c = drive_clinic(clinic())
    records = list(c.records())
    admitted = records[-1]
    assert (admitted.kind, admitted.detail["outcome"]) == (KIND_VERDICT, "admissible")
    fed = []
    # the monitor takes its rules from the table when it is built
    spy_on_rules(monkeypatch, lambda record, template: fed.append(record))
    monitor = TraceMonitor(ALL_SPECS, c.template)
    for record in records[:-1]:
        monitor.feed(record)
    fed.clear()
    # admitted, each action is a violation: an unguarded read, a decision, an embargoed close
    for action, prop in (("read_file", PROP_SAFETY), ("decide", PROP_AUTHORITY), ("close_file", PROP_PROHIBITION)):
        verdict = {**admitted.detail, "action": action}
        for outcome in ("blocked", "recommended"):
            record = dataclasses.replace(admitted, detail={**verdict, "outcome": outcome})
            assert monitor.clone().feed(record) == [], (action, outcome)
        assert fed == []
        found = monitor.clone().feed(dataclasses.replace(admitted, detail=verdict))
        assert found == [Violation(prop, admitted.seq, (admitted.seq,))], action
        fed.clear()
    # a verdict that is not admitted still needs each field a rule reads of an admitted one
    blocked = {**admitted.detail, "outcome": "blocked"}
    for key in ("outcome", "action", "actor"):
        edited = records[:-1] + [dataclasses.replace(admitted, detail={k: v for k, v in blocked.items() if k != key})]
        with pytest.raises(IntegrityError) as info:
            run_checks(edited, ALL_SPECS, c.template)
        assert info.value.bad_seq == admitted.seq, key


def test_a_record_whose_kind_is_not_a_string_is_refused():
    c = drive_clinic(clinic())
    records = list(c.records())
    expected = run_checks(records, ALL_SPECS, c.template)
    # the admitted close_file verdict: as a verdict it is a prohibition violation
    admitted = records[-1]
    assert admitted.kind == KIND_VERDICT and expected[-1].at_seq == admitted.seq
    header, *lines = c.export_log().splitlines()
    for kind in (["verdict"], None, {"verdict": 1}, 7):
        # no such record can be made, so no monitor is ever fed one
        with pytest.raises(TypeError):
            dataclasses.replace(admitted, kind=kind)
        raw = json.loads(lines[-1])
        raw["kind"] = kind
        forged = "\n".join([header] + lines[:-1] + [json.dumps(raw)]) + "\n"
        with pytest.raises(IntegrityError) as info:
            parse_export(forged)
        assert info.value.bad_seq == admitted.seq


def test_a_record_without_a_field_its_checkers_read_is_refused_at_its_seq():
    c = drive_clinic(clinic())
    decide = _select_token(c, {"modality": "burden", "action": "decide", "state": "HELD"})
    say(c, SpeechActKind.DISCHARGE, "officer_1", token=decide)
    records = list(c.records())
    # the admitted close_file verdict, and the discharge of the decision burden
    admitted, discharged = records[-3], records[-1]
    assert (admitted.detail["action"], discharged.detail["to"]) == ("close_file", "DISCHARGED")
    expected = run_checks(records, ALL_SPECS, c.template)
    # safety at the read_file verdict; the embargo's gap when it is revoked, and the admitted verdict
    assert [v.at_seq for v in expected] == [admitted.seq - 6, admitted.seq - 2, admitted.seq]
    for record, key in [(admitted, "outcome"), (admitted, "action"), (admitted, "actor"), (discharged, "by")]:
        edited = list(records)
        edited[record.seq] = dataclasses.replace(record, detail={k: v for k, v in record.detail.items() if k != key})
        with pytest.raises(IntegrityError) as info:
            run_checks(edited, ALL_SPECS, c.template)
        assert info.value.bad_seq == record.seq, key
    # a field a rule only compares, of another type, reads as not matching
    edited = list(records)
    edited[admitted.seq] = dataclasses.replace(admitted, detail={**admitted.detail, "outcome": 7})
    assert run_checks(edited, ALL_SPECS, c.template) == expected[:2]
    # happy_path's properties read no actor of its admitted read, and nothing but
    # the outcome of its blocked access: a verdict without them is refused all the same
    scenario = get_scenario("happy_path")
    stage, records = scenario.stages[0], run_scenario(scenario).stages[0].records
    template, admitted, blocked = parse_spec(stage.source), records[16], records[18]
    assert (admitted.detail["outcome"], blocked.detail["outcome"]) == ("admissible", "blocked")
    assert run_checks(records, stage.properties, template) == []
    for record, keys in [(admitted, {"actor"}), (blocked, {"action"}), (blocked, {"actor"}), (blocked, {"action", "actor"})]:
        edited = list(records)
        edited[record.seq] = dataclasses.replace(record, detail={k: v for k, v in record.detail.items() if k not in keys})
        with pytest.raises(IntegrityError) as info:
            run_checks(edited, stage.properties, template)
        assert info.value.bad_seq == record.seq, keys


def test_a_token_created_for_an_unregistered_principal_is_unaccountable():
    # o9 is force-bound for Ghost, a principal never registered, and declares a burden
    c = instantiate_community(parse_spec(DESK_SOURCE), owner=Principal("Desk", "Desk"))
    monitor = TraceMonitor([PropertySpec.accountability()], c.template)
    monitor.attach(c)
    c.force_bind("Officer", "o9", "human", "Ghost")
    burden = {"action": "sign", "holder": "o9"}
    assert c.apply_speech_act(SpeechAct(SpeechActKind.DECLARE_BURDEN, "o9", burden)).accepted
    created = c.records()[-1]
    assert created.seq == 6 and created.detail["chain_head"] == "Ghost"
    # the binding is flagged, and so is the token, whose chain starts at Ghost
    expected = [Violation(PROP_ACCOUNTABILITY, s, (s,)) for s in (4, 6)]
    assert monitor.violations == expected
    assert check_accountability(c.records()) == expected


def test_online_violations_equal_offline_ones_on_ward_runs():
    ward = _ward_module()
    seen = set()
    for seed in (1, 2, 3):
        tpl, instance, caller = ward.populate(seed, 40, 40, 20, action_share=0.75)
        monitor = TraceMonitor(ward.PROPERTIES, tpl)
        monitor.attach(instance)
        for _ in range(600):
            _category, call, args, observe = caller.plan()
            observe(call(*args))
        records = instance.records()
        online = sorted(monitor.violations, key=lambda v: (v.at_seq, v.property))
        assert online == run_checks(records, ward.PROPERTIES, tpl), seed
        assert {t.id: (t.state, t.holder) for t in monitor._tokens} == {
            t.id: (t.state, t.holder) for t in instance.tokens
        }, seed
        seen |= {v.property for v in online}
        seen |= {r.detail["to"] for r in records if r.kind == KIND_TOKEN_TRANSITION}
    # the runs are not vacuous: they break two properties and transfer burdens
    assert {PROP_SAFETY, PROP_AUTHORITY, "DELEGATED"} <= seen, seen


def test_a_monitor_attached_mid_run_sees_each_record_once():
    ward = _ward_module()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for seed in (1, 2, 3):
            tpl, instance, caller = ward.populate(seed, 40, 40, 20, action_share=0.75)
            errors, attached, done = [], threading.Event(), threading.Event()

            def drive():  # until 200 events after the attach
                try:
                    after = 0
                    while after < 200:
                        after += attached.is_set()
                        _category, call, args, observe = caller.plan()
                        observe(call(*args))
                except Exception as exc:
                    errors.append(exc)
                finally:
                    done.set()

            def register():  # a second writer: the Ward caller is not thread-safe, so calls of its own
                try:
                    while not done.is_set():
                        registered.append(instance.register_principal(f"late_{len(registered)}").id)
                        time.sleep(0)  # yield, so that both writers keep logging events
                except Exception as exc:
                    errors.append(exc)

            monitor = TraceMonitor(ward.PROPERTIES, tpl)
            feed, fed = monitor.feed, []  # (seq, fed on the attaching thread)

            def counted(record):
                fed.append((record.seq, threading.current_thread() is attacher))
                return feed(record)

            monitor.feed = counted
            attacher, registered = threading.current_thread(), []
            writers = [threading.Thread(target=run, daemon=True) for run in (drive, register)]
            start = instance.head_seq
            for writer in writers:
                writer.start()
            while instance.head_seq < start + 100 and not done.is_set():
                time.sleep(0)
            monitor.attach(instance)
            attached.set()
            for writer in writers:
                writer.join(timeout=60)
            assert not any(writer.is_alive() for writer in writers) and errors == [], seed
            records = instance.records()
            assert [seq for seq, _ in fed] == list(range(len(records))), seed
            # caught up on this thread, then followed the writers' events
            by_attacher = [by for _, by in fed]
            caught_up = by_attacher.count(True)
            assert by_attacher == [True] * caught_up + [False] * (len(fed) - caught_up), seed
            assert start < caught_up < len(records) - 200, seed
            late = [r.seq for r in records if r.detail.get("principal", "").startswith("late_")]
            assert len(late) == len(registered) and late[-1] > caught_up, seed
            online = sorted(monitor.violations, key=lambda v: (v.at_seq, v.property))
            assert online == run_checks(records, ward.PROPERTIES, tpl), seed
            text = instance.export_log()
            assert replay(tpl, text).export_log() == text, seed
    finally:
        sys.setswitchinterval(interval)


def test_unknown_identifiers_are_rejected():
    template = parse_spec(CLINIC_SOURCE)
    with pytest.raises(UnknownIdentifier, match="^role 'Judge' is not declared$"):
        run_checks((), [PropertySpec.authority("decide", "Judge")], template)
    with pytest.raises(UnknownIdentifier, match="^group 'Cabal' is not declared$"):
        run_checks((), [PropertySpec.prohibition("close_file", "Cabal")], template)
    with pytest.raises(UnknownIdentifier, match="^group 'Cabal' needs the community template to resolve members$"):
        # custom group names need a template to resolve membership
        run_checks((), [PropertySpec.prohibition("close_file", "Cabal")], None)
    run_checks((), [PropertySpec.prohibition("close_file", "ALL")], None)
    # without a template a role is not looked up
    run_checks((), [PropertySpec.authority("decide", "Judge")], None)
    with pytest.raises(UnknownIdentifier, match="unknown property template 'liveness'"):
        TraceMonitor([PropertySpec("liveness")], template)


def test_violation_line_format():
    v = Violation(PROP_SAFETY, 7, (7,))
    assert v.to_line() == '{"property":"consent_gated_access","at_seq":7,"witness":[7]}'


def test_select_token_subject_filter():
    c = clinic()
    say(c, SpeechActKind.DECLARE_BURDEN, "officer_1", action="screen", holder="Officer", subject="s1")
    first = max(t.id for t in c.tokens)
    say(c, SpeechActKind.DECLARE_BURDEN, "officer_1", action="screen", holder="Officer", subject="s2")
    second = max(t.id for t in c.tokens)
    pick = _select_token(
        c, {"modality": "burden", "action": "screen", "state": "HELD", "subject": "s2"}
    )
    assert pick == second
    # without a subject key the scan keeps the lowest id, here the policy token
    lowest = min(
        t.id for t in c.tokens if t.action == "screen" and t.state.value == "HELD"
    )
    assert lowest < first
    pick = _select_token(c, {"modality": "burden", "action": "screen", "state": "HELD"})
    assert pick == lowest


# ----------------------------------------------------------------------
# enumeration oracle vs the live monitor


def test_oracle_refuses_oversized_scopes():
    fx = reduced_layer1_fixture()
    with pytest.raises(ScopeTooLarge):
        oracle_enumerate(fx.template, fx.alphabet + fx.alphabet[:1], 2, fx.properties)
    with pytest.raises(ScopeTooLarge):
        oracle_enumerate(fx.template, fx.alphabet, 7, fx.properties)
    # its runtime counterpart keeps the same bound
    with pytest.raises(ScopeTooLarge):
        runtime_enumerate(fx, 7)
    with pytest.raises(ScopeTooLarge):
        runtime_enumerate(dataclasses.replace(fx, alphabet=fx.alphabet + fx.alphabet[:1]), 2)



def test_apply_schema_honours_force_and_the_oracle_refuses_it():
    fx = reduced_layer1_fixture()
    c = instantiate_community(fx.template, owner=Principal(fx.owner, fx.owner))
    bind = {"role": "ConsentManager", "agent": "consent_mgr", "kind": "llm_agent"}
    plain = EventSchema("bind_ghost", "bind", {**bind, "principal": "GhostCorp"})
    forced = EventSchema("force_ghost", "bind", {**bind, "principal": "GhostCorp", "force": True})
    assert apply_schema(c, plain) == "raised:UnknownPrincipal"
    assert apply_schema(c, forced) == "ok"
    assert c.roster.principal_of("consent_mgr") == "GhostCorp"
    # the reference engine cannot model a forced bind, so it must not ignore one
    with pytest.raises(ScopeTooLarge, match="forced binds"):
        oracle_enumerate(fx.template, (forced,), 1, fx.properties, fx.prologue, fx.owner)

def test_apply_schema_refuses_an_unknown_op_and_sends_a_last_request_it_cannot_resolve():
    c = instantiate_community(parse_spec(DESK_SOURCE), owner=Principal("Clinic", "Clinic"))
    c.bind_agent("Reviewer", "reviewer_1", "human", "Clinic")
    head = c.head_seq
    with pytest.raises(ValueError, match="unknown schema op 'teleport'"):
        apply_schema(c, EventSchema("probe", "teleport", {}))
    assert c.head_seq == head
    # no recommendation yet: the accept goes out with no request and is logged as malformed
    approve = {"sender": "reviewer_1", "kind": "accept", "payload": {"request_seq": "$last_request"}}
    assert apply_schema(c, EventSchema("approve", "speech_act", approve)) == "rejected:MalformedPayload"
    logged = c.records()[-1]
    assert (logged.seq, logged.detail["payload"]) == (head + 1, {"request_seq": None})


def test_monitor_agrees_with_oracle_to_depth_three():
    fx = reduced_layer1_fixture()
    expected = dict(oracle_enumerate(
        fx.template, fx.alphabet, 3, fx.properties, fx.prologue, fx.owner
    ))
    actual = runtime_enumerate(fx, 3)
    assert len(expected) == 1 + 8 + 64 + 512
    assert actual.keys() == expected.keys()
    mismatches = [k for k in expected if actual[k] != expected[k]]
    assert mismatches == []
    # the comparison is not vacuous: some prefixes do violate
    assert any(expected[k] for k in expected)
    flagged = {p for vs in expected.values() for p, _ in vs}
    assert PROP_SAFETY in flagged and PROP_PROHIBITION in flagged and PROP_AUTHORITY in flagged


DECISION_DESK_SOURCE = """\
community DecisionDesk {
  role Physician: human [0..2];
  role Matcher: agentic_ai [0..1];
  role Officer: human [0..1];
  group Clinicians = {Physician};

  policy burden(make_decision, Physician);
  policy permit(final_decision, Clinicians);
  policy embargo(final_decision, ALL_AI_AGENTS) unless permit(override, Officer);

  contract DeskRules {
    allow Physician: transfer, discharge;
    allow Matcher: discharge;
    allow Officer: grant, declare_permit, revoke;
  }
}
"""

DECISION_DESK_PROLOGUE = """\
reg_vendor: register_principal VendorX
bind_officer: bind Officer officer_1 human Hospital
bind_p1: bind Physician physician_1 human Hospital
"""

_DESK_EVENTS = {
    "bind_p2": "bind Physician physician_2 human Hospital",
    "bind_matcher": "bind Matcher matcher agentic_ai VendorX",
    "usurp": "speech_act physician_2 transfer to=matcher select=burden:make_decision:HELD",
    "decide_matcher": "speech_act matcher discharge select=burden:make_decision:HELD",
    "p2_final": "action physician_2 final_decision",
    "grant_final": "speech_act officer_1 grant action=final_decision to=matcher",
    "grant_override": "speech_act officer_1 grant action=override to=officer_1",
    "matcher_final": "action matcher final_decision",
    "unbind_p1": "unbind Physician physician_1",
    "revoke_embargo": "speech_act officer_1 revoke select=embargo:final_decision:HELD",
}


_DESK_ALPHABETS = {
    "grants": (
        "bind_p2", "bind_matcher", "usurp", "decide_matcher",
        "p2_final", "grant_final", "grant_override", "matcher_final",
    ),
    "unbind_and_revoke": (
        "bind_p2", "bind_matcher", "usurp", "decide_matcher",
        "unbind_p1", "revoke_embargo", "p2_final", "matcher_final",
    ),
}


def _decision_desk(alphabet) -> GateFixture:
    return GateFixture(
        template=parse_spec(DECISION_DESK_SOURCE),
        owner="Hospital",
        prologue=parse_script(DECISION_DESK_PROLOGUE),
        alphabet=parse_script("".join(f"{name}: {_DESK_EVENTS[name]}\n" for name in alphabet)),
        properties=(
            PropertySpec.safety("final_decision", "make_decision"),
            PropertySpec.authority("make_decision", "Physician"),
            PropertySpec.prohibition("final_decision", "ALL_AI_AGENTS"),
            PropertySpec.accountability(),
        ),
    )


@pytest.mark.parametrize(
    "alphabet, flagged",
    [
        (_DESK_ALPHABETS["grants"], {PROP_SAFETY: 380, PROP_PROHIBITION: 3, PROP_AUTHORITY: 2}),
        (
            _DESK_ALPHABETS["unbind_and_revoke"],
            {PROP_PROHIBITION: 634, PROP_SAFETY: 377, PROP_AUTHORITY: 2},
        ),
    ],
    ids=list(_DESK_ALPHABETS),
)
def test_monitor_agrees_with_oracle_on_the_decision_desk_to_depth_four(alphabet, flagged):
    # the branches the gate fixture never takes: a transfer, the authority check
    # on a discharge, an agent-held unless permit, a declared-group holder, an unbind
    fx = _decision_desk(alphabet)
    expected = dict(oracle_enumerate(fx.template, fx.alphabet, 4, fx.properties, fx.prologue, fx.owner))
    actual = runtime_enumerate(fx, 4)
    assert len(expected) == 1 + 8 + 64 + 512 + 4096
    assert actual.keys() == expected.keys()
    assert [k for k in expected if actual[k] != expected[k]] == []
    assert Counter(prop for violations in expected.values() for prop, _ in violations) == flagged


_COLLIDING_EVENTS = """\
bind_matcher: bind Matcher matcher agentic_ai VendorX
matcher_as_owner: bind Matcher Hospital agentic_ai VendorX
matcher_as_role: bind Matcher Physician agentic_ai VendorX
physician_as_role: bind Physician Officer human Hospital
register_matcher: register_principal matcher
decide_by_name: speech_act Physician discharge select=burden:make_decision:HELD
officer_decides: speech_act Officer discharge select=burden:make_decision:HELD
p1_final: action physician_1 final_decision
"""


def _colliding_desk() -> GateFixture:
    return GateFixture(
        template=parse_spec(DECISION_DESK_SOURCE),
        owner="Hospital",
        prologue=parse_script(DECISION_DESK_PROLOGUE),
        alphabet=parse_script(_COLLIDING_EVENTS),
        properties=(
            PropertySpec.safety("final_decision", "make_decision"),
            PropertySpec.authority("make_decision", "Physician"),
            PropertySpec.prohibition("final_decision", "ALL_AI_AGENTS"),
            PropertySpec.accountability(),
        ),
    )


def test_apply_schema_reports_a_name_collision():
    fx = _colliding_desk()
    c = instantiate_community(fx.template, owner=Principal(fx.owner, fx.owner))
    for schema in fx.prologue + fx.alphabet[:1]:
        assert apply_schema(c, schema) == "ok", schema.name
    head = c.head_seq
    for schema in fx.alphabet[1:5]:
        assert apply_schema(c, schema) == "raised:NameCollision", schema.name
    assert c.head_seq == head


def test_both_engines_refuse_agents_and_principals_named_like_another_party():
    # an agent named like the owner, like a role, and a principal named like an agent
    fx = _colliding_desk()
    expected = dict(oracle_enumerate(fx.template, fx.alphabet, 3, fx.properties, fx.prologue, fx.owner))
    assert runtime_enumerate(fx, 3) == expected
    # no agent named Physician or Officer discharges the Physician role's burden: every
    # p1_final acts before a decision, and nothing else is flagged
    final = [schema.name for schema in fx.alphabet].index("p1_final")
    flagged = Counter(prop for violations in expected.values() for prop, _ in violations)
    assert flagged == {PROP_SAFETY: sum(trace.count(final) for trace in expected)}


FORMER_AGENT_SOURCE = """\
community Registry {
  role Officer: human [0..2];

  contract Rules {
    allow Officer: declare_permit, revoke;
  }
}
"""

# an Officer declares a permit and leaves; its name may not become a principal's,
# so no agent acts for it and none may revoke its permit
_FORMER_AGENT_EVENTS = """\
bind_ann: bind Officer ann human Hospital
declare: speech_act ann declare_permit action=approve holder=Officer
unbind_ann: unbind Officer ann
register_ann: register_principal ann
bind_bob: bind Officer bob human ann
bob_revokes: speech_act bob revoke select=permit:approve:HELD
"""


def test_neither_engine_lets_a_former_agents_name_become_a_principal():
    template, events = parse_spec(FORMER_AGENT_SOURCE), parse_script(_FORMER_AGENT_EVENTS)
    c = instantiate_community(template, owner=Principal("Hospital", "Hospital"))
    assert [apply_schema(c, schema) for schema in events] == [
        "ok", "accepted", "ok", "raised:NameCollision", "raised:UnknownPrincipal", "rejected:UnknownAgent",
    ]
    (permit,) = c.tokens
    assert (permit.issuer, permit.state) == ("ann", TokenState.HELD)
    assert not c.roster.is_principal("ann")
    # bound for ann by force, bob still does not act for ann's permit
    c.force_bind("Officer", "bob", "human", "ann")
    assert apply_schema(c, events[-1]) == "rejected:NotIssuer"
    assert c.tokens.get(permit.id).state is TokenState.HELD

    engine = ReferenceEngine(template, MODE_AUTONOMOUS, "Hospital", ())
    for position, schema in enumerate(events):
        engine.apply_schema(schema, position)
    assert engine.principals == {"Hospital"}
    assert [b["agent"] for b in engine.bindings] == []
    assert [(t["issuer"], t["state"]) for t in engine.tokens.values()] == [("ann", "HELD")]


TOKEN_TYPES_SOURCE = """\
community Ledger {{
  role Officer: human [0..2];
  role Bot: llm_agent [0..1];
  {first}
  {second}
  policy permit(final, ALL);

  contract Rules {{
    allow Officer: transfer, discharge, revoke;
    allow Bot: discharge;
  }}
}}
"""
_BURDEN_POLICY = "policy burden(decide, Officer);"
_EMBARGO_POLICY = "policy embargo(final, ALL_AI_AGENTS);"


_ODD_TOKENS = {"true": True, "float": 25.9, "string": "1"}
_ODD_TOKEN_ACTS = {
    "transfer": ("transfer", _BURDEN_POLICY, _EMBARGO_POLICY, {"to": "bot"}),
    "discharge": ("discharge", _BURDEN_POLICY, _EMBARGO_POLICY, {}),
    "revoke": ("revoke", _EMBARGO_POLICY, _BURDEN_POLICY, {}),
}


def _odd_token_ledger(kind, first, second, payload, token) -> GateFixture:
    # token 1 is the first policy's, the one each act would move if it read true or "1" as 1
    return GateFixture(
        template=parse_spec(TOKEN_TYPES_SOURCE.format(first=first, second=second)),
        owner="Hospital",
        prologue=parse_script(
            "bind_officer: bind Officer officer_1 human Hospital\n"
            "bind_bot: bind Bot bot llm_agent Hospital\n"
        ),
        alphabet=(
            EventSchema(
                "odd_token",
                "speech_act",
                {"sender": "officer_1", "kind": kind, "payload": {"token": token, **payload}},
            ),
            *parse_script(
                "final: action officer_1 final\n"
                "bot_decides: speech_act bot discharge select=burden:decide:HELD\n"
            ),
        ),
        properties=(
            PropertySpec.safety("final", "decide"),
            PropertySpec.authority("decide", "Officer"),
            PropertySpec.prohibition("final", "ALL_AI_AGENTS"),
            PropertySpec.accountability(),
        ),
    )


@pytest.mark.parametrize("token", list(_ODD_TOKENS.values()), ids=list(_ODD_TOKENS))
@pytest.mark.parametrize("kind, first, second, payload", list(_ODD_TOKEN_ACTS.values()), ids=list(_ODD_TOKEN_ACTS))
def test_both_engines_reject_a_token_that_is_not_an_int(kind, first, second, payload, token):
    fx = _odd_token_ledger(kind, first, second, payload, token)
    expected = dict(oracle_enumerate(fx.template, fx.alphabet, 2, fx.properties, fx.prologue, fx.owner))
    assert runtime_enumerate(fx, 2) == expected
    # the act changes nothing: a trace that starts with it flags what the rest flags, one position later
    for trace, found in expected.items():
        if trace[:1] == (0,):
            assert found == tuple((prop, at + 1) for prop, at in expected[trace[1:]]), trace


def test_oracle_positions_anchor_to_offending_event():
    fx = reduced_layer1_fixture()
    results = dict(oracle_enumerate(
        fx.template, fx.alphabet, 2, fx.properties, fx.prologue, fx.owner
    ))
    # schema 1 binds the extractor, schema 4 reads without any consent check
    assert results[(1, 4)] == tuple(sorted([(PROP_AUTHORITY, 1), (PROP_SAFETY, 1)]))
    assert results[(1,)] == ()
    assert results[()] == ()


# ----------------------------------------------------------------------
# the oracle's state graph against its trace tree


def trace_tree_enumerate(t, alphabet, depth, properties, prologue=(), owner="community_owner"):
    """The oracle's walk of the trace tree: each trace clones and steps its prefix's engine."""
    base = ReferenceEngine(t, MODE_AUTONOMOUS, owner, properties)
    for schema in prologue:
        base.apply_schema(schema, -1)
    results = []

    def walk(engine, trace):
        results.append((tuple(trace), tuple(sorted(engine.violations))))
        if len(trace) == depth:
            return
        for index, schema in enumerate(alphabet):
            child = engine.clone()
            child.apply_schema(schema, len(trace))
            trace.append(index)
            walk(child, trace)
            trace.pop()

    walk(base, [])
    return results


# every fixture tier-1 enumerates, at the depth it does, and the gate fixture at criterion 5's
_ENUMERATED = [
    *(pytest.param(reduced_layer1_fixture, depth, id=f"layer1-{depth}") for depth in (2, 3, 5)),
    *(
        pytest.param(lambda name=name: _decision_desk(_DESK_ALPHABETS[name]), 4, id=f"desk_{name}-4")
        for name in _DESK_ALPHABETS
    ),
    pytest.param(_colliding_desk, 3, id="colliding_desk-3"),
    *(
        pytest.param(lambda act=act, token=token: _odd_token_ledger(*_ODD_TOKEN_ACTS[act], token), 2, id=f"{act}_{name}-2")
        for act in _ODD_TOKEN_ACTS
        for name, token in _ODD_TOKENS.items()
    ),
]


@pytest.mark.parametrize("build, depth", _ENUMERATED)
def test_the_state_graph_walk_lists_what_the_trace_tree_walk_lists(build, depth):
    fx = build()
    args = (fx.template, fx.alphabet, depth, fx.properties, fx.prologue, fx.owner)
    assert oracle_enumerate(*args) == trace_tree_enumerate(*args)


def test_the_state_graph_walk_steps_each_state_once_per_schema(monkeypatch):
    fx = reduced_layer1_fixture()
    stepped = Counter()
    apply = ReferenceEngine.apply_schema

    def counted(self, schema, position):
        stepped[self.state_key(), schema.name] += 1
        apply(self, schema, position)

    monkeypatch.setattr(ReferenceEngine, "apply_schema", counted)
    results = oracle_enumerate(fx.template, fx.alphabet, 5, fx.properties, fx.prologue, fx.owner)
    assert len(results) == 37449
    # the two prologue events, then 72 states reached within depth 4, each stepped by all 8 schemas
    assert sum(stepped.values()) == 2 + 576 and set(stepped.values()) == {1}


def _stepped_engine() -> ReferenceEngine:
    """The gate fixture's engine with a binding, a discharge, a grant and an embargo gap."""
    fx = reduced_layer1_fixture()
    engine = ReferenceEngine(fx.template, MODE_AUTONOMOUS, fx.owner, fx.properties)
    for position, schema in enumerate(fx.prologue + fx.alphabet[:4] + fx.alphabet[6:]):
        engine.apply_schema(schema, position)
    return engine


def test_a_state_key_changes_with_every_keyed_attribute():
    engine = _stepped_engine()
    key = engine.state_key()
    assert engine.clone().state_key() == key
    keyed = set(vars(engine)) - {"template", "owner", "properties", "violations"}
    assert keyed >= {"principals", "bindings", "agent_names", "tokens", "next_token", "discharged", "gap_open"}
    changed = {
        set: lambda v: v | {"Stranger"},
        frozenset: lambda v: v | {"stranger"},
        list: lambda v: v[:-1],
        dict: lambda v: {k: t for k, t in v.items() if k != max(v)},
        int: lambda v: v + 1,
    }
    for name in keyed:
        twin = engine.clone()
        value = getattr(twin, name)
        assert value, name  # each keyed attribute holds something to take away
        setattr(twin, name, changed[type(value)](value))
        assert twin.state_key() != key, name
    # a change deep inside a token, a binding or a discharge counts too
    for edit in (
        lambda e: e.tokens[1].update(state="REVOKED"),
        lambda e: e.bindings[0].update(principal="VendorX"),
        lambda e: e.discharged[0].update(subject="p2"),
        lambda e: e.gap_open.reverse(),
    ):
        twin = engine.clone()
        edit(twin)
        assert twin.state_key() != key
    assert engine.state_key() == key


def test_a_state_key_keys_an_attribute_set_after_construction_but_not_the_violations():
    engine = _stepped_engine()
    assert engine.violations
    key = engine.state_key()
    twin = engine.clone()
    twin.violations += [(PROP_SAFETY, 9), (PROP_AUTHORITY, 9)]
    assert twin.state_key() == key
    twin.pending = []
    assert twin.state_key() != key
    # a set's members are sorted, whatever order they went in
    twin = engine.clone()
    twin.principals = set(sorted(engine.principals, reverse=True))
    assert twin.state_key() == key


def test_the_state_graph_walk_raises_scope_too_large_where_the_trace_tree_walk_does(monkeypatch):
    fx = reduced_layer1_fixture()
    args = (fx.template, fx.alphabet, 5, fx.properties, fx.prologue, fx.owner)
    apply = ReferenceEngine.apply_schema

    def bounded(self, schema, position):
        # a scope that ends mid-walk, at the first read after a discharge
        if self.discharged and schema.op == "action":
            bound = sorted(b["agent"] for b in self.bindings)
            raise ScopeTooLarge(f"{schema.name} after a discharge, with {bound} bound and {len(self.tokens)} tokens")
        apply(self, schema, position)

    monkeypatch.setattr(ReferenceEngine, "apply_schema", bounded)
    with pytest.raises(ScopeTooLarge) as tree:
        trace_tree_enumerate(*args)
    with pytest.raises(ScopeTooLarge) as graph:
        oracle_enumerate(*args)
    assert str(graph.value) == str(tree.value)
    monkeypatch.undo()
    # an out-of-scope schema last in the alphabet is refused by both, with the same words
    forced = EventSchema("force_ghost", "bind", {**fx.alphabet[0].params, "principal": "GhostCorp", "force": True})
    args = (fx.template, fx.alphabet[:7] + (forced,), 3, fx.properties, fx.prologue, fx.owner)
    with pytest.raises(ScopeTooLarge) as tree:
        trace_tree_enumerate(*args)
    with pytest.raises(ScopeTooLarge) as graph:
        oracle_enumerate(*args)
    assert str(graph.value) == str(tree.value)
