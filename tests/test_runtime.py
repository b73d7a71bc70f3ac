"""Community runtime tests: binding, actions, speech acts, audit integrity."""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import json
import random
import re
import sys
import threading
import tracemalloc

import pytest

from covenant import deontic, runtime
from covenant.cli import EXIT_INTEGRITY, main
from covenant.deontic import HolderKind, HolderRef, TokenState
from covenant.errors import (
    CardinalityExceeded,
    DisciplineViolation,
    GovernanceError,
    IntegrityError,
    InvalidTemplate,
    KindMismatch,
    NameCollision,
    ProtocolViolation,
    UnknownAgent,
    UnknownPrincipal,
    UnknownRole,
)
from covenant.runtime import (
    GENESIS_PREV_HASH,
    INITIATING_KINDS,
    KIND_ACTION_REQUEST,
    KIND_BINDING,
    KIND_ESCALATION,
    KIND_GENESIS,
    KIND_MODE_CHANGE,
    KIND_SPEECH_ACT,
    KIND_TOKEN_TRANSITION,
    KIND_VERDICT,
    MODE_ADVISORY,
    MODE_AUTONOMOUS,
    MODE_SUPERVISED,
    AuditRecord,
    CommunityInstance,
    ObjectWrite,
    Principal,
    SpeechAct,
    canonical_json,
    import_log,
    instantiate_community,
    parse_export,
    record_digest,
    replay,
    verify_chain,
)
from covenant.scenarios import built_in_scenarios, inject_violation, run_scenario
from covenant.spec_lang import parse_spec
from covenant.spec_lang.ast import CommunityTemplate, RoleKind, SpeechActKind
from covenant.verifier import PropertySpec, TraceMonitor, run_checks

from shared import DESK_SOURCE, _ward_module

WARD_SOURCE = """\
community Ward {
  role Officer: human [0..2];
  role Reviewer: human [0..2];
  role Bot: llm_agent [0..2];

  object CaseFile;
  object Ledger;

  policy burden(screen_case, Officer);
  policy permit(read_case, Bot) requires discharged burden(screen_case, Officer);
  policy embargo(close_case, ALL_AI_AGENTS);

  contract WardRules {
    allow Officer: declare_burden, declare_permit, declare_embargo, grant, revoke, transfer, discharge;
    allow Reviewer: discharge, accept, reject;
    allow Bot: propose, counter_propose;
    escalate when policy_violation to Reviewer;
  }
}
"""


def make_ward(mode="autonomous", disciplines=None, source=WARD_SOURCE):
    return instantiate_community(
        parse_spec(source),
        mode=mode,
        owner=Principal("Clinic", "Clinic"),
        object_disciplines=disciplines or {"CaseFile": "read_write"},
    )


def staffed_ward(mode="autonomous", source=WARD_SOURCE):
    c = make_ward(mode, source=source)
    c.register_principal("Vendor")
    c.bind_agent("Officer", "officer_1", "human", "Clinic")
    c.bind_agent("Reviewer", "reviewer_1", "human", "Clinic")
    c.bind_agent("Bot", "bot_1", "llm_agent", "Vendor")
    return c


def test_instantiation_creates_policy_tokens_in_order():
    c = make_ward()
    tokens = list(c.tokens)
    assert [t.modality.value for t in tokens] == ["burden", "permit", "embargo"]
    assert [t.id for t in tokens] == [1, 2, 3]
    assert all(t.state is TokenState.HELD for t in tokens)
    assert all(t.issuer == "Clinic" for t in tokens)
    assert tokens[1].requires_action == "screen_case"
    records = c.records()
    assert records[0].kind == KIND_GENESIS
    assert [r.detail["token"] for r in records if r.kind == KIND_TOKEN_TRANSITION] == [1, 2, 3]


def test_bind_rejections_leave_no_records():
    c = make_ward()
    c.register_principal("Vendor")
    before = (c.event_count, len(c.records()))
    with pytest.raises(UnknownRole):
        c.bind_agent("Janitor", "x", "human", "Clinic")
    with pytest.raises(KindMismatch):
        c.bind_agent("Officer", "x", "llm_agent", "Clinic")
    with pytest.raises(UnknownPrincipal):
        c.bind_agent("Officer", "x", "human", "Nobody")
    # an unknown agent kind is refused like a wrong one, with or without a principal check
    with pytest.raises(KindMismatch):
        c.bind_agent("Officer", "x", "robot", "Clinic")
    with pytest.raises(KindMismatch):
        c.force_bind("Officer", "x", "robot", "Clinic")
    assert (c.event_count, len(c.records())) == before


def test_bind_agent_consistency_checks():
    c = staffed_ward()
    # same agent, different kind on a second role
    with pytest.raises(KindMismatch):
        c.bind_agent("Officer", "bot_1", "human", "Vendor")
    # same agent, different principal
    with pytest.raises(UnknownPrincipal):
        c.bind_agent("Reviewer", "officer_1", "human", "Vendor")
    # duplicate (role, agent) pair
    with pytest.raises(CardinalityExceeded):
        c.bind_agent("Officer", "officer_1", "human", "Clinic")


def test_bind_cardinality_cap():
    c = make_ward()
    c.bind_agent("Officer", "o1", "human", "Clinic")
    c.bind_agent("Officer", "o2", "human", "Clinic")
    with pytest.raises(CardinalityExceeded):
        c.bind_agent("Officer", "o3", "human", "Clinic")


def test_register_principal_is_idempotent_without_new_records():
    c = make_ward()
    c.register_principal("Vendor")
    count = len(c.records())
    c.register_principal("Vendor")
    assert len(c.records()) == count


def test_an_empty_principal_name_logs_the_id():
    c = make_ward()
    principal = c.register_principal("Agency", name="")
    assert principal.name == "Agency"
    assert c.records()[-1].detail["name"] == "Agency"


NAMES_SOURCE = """\
community Clinic {
  role Physician: human [0..2];
  role Nurse: human [0..2];
  role Clerk: human [0..2];
  role DataOfficer: human [0..1];
  role Bot: llm_agent [0..2];
  group Clinicians = {Physician, Nurse};

  policy burden(sign_off, Physician);
  policy permit(export, Bot);
  policy embargo(export, ALL_AI_AGENTS) unless permit(approve_export, DataOfficer);

  contract Rules {
    allow Nurse: discharge;
    allow Physician: grant;
    allow Bot: declare_permit, revoke;
  }
}
"""


def _staffed_clinic():
    c = instantiate_community(parse_spec(NAMES_SOURCE), owner=Principal("Hospital", "Hospital"))
    c.register_principal("VendorX")
    c.bind_agent("Physician", "doc_1", "human", "Hospital")
    c.bind_agent("Bot", "bot_1", "llm_agent", "VendorX")
    return c


@pytest.mark.parametrize("binder", ["bind_agent", "force_bind"])
@pytest.mark.parametrize(
    "role, agent, kind, principal",
    [
        # as a role's name it would discharge the Physician role's burden
        ("Nurse", "Physician", "human", "Hospital"),
        # a permit granted to it would open the embargo's unless permit(approve_export, DataOfficer)
        ("Clerk", "DataOfficer", "human", "Hospital"),
        # as the owner's id it would head its tokens with the owner and revoke the owner's embargo
        ("Bot", "Hospital", "llm_agent", "VendorX"),
        ("Nurse", "VendorX", "human", "Hospital"),
        ("Nurse", "Clinicians", "human", "Hospital"),
        ("Nurse", "ALL", "human", "Hospital"),
        ("Bot", "ALL_AI_AGENTS", "llm_agent", "VendorX"),
    ],
)
def test_an_agent_cannot_take_the_name_of_a_principal_a_role_or_a_group(binder, role, agent, kind, principal):
    c = _staffed_clinic()
    before = (c.records(), c.event_count, c.bindings())
    with pytest.raises(NameCollision):
        getattr(c, binder)(role, agent, kind, principal)
    assert (c.records(), c.event_count, c.bindings()) == before


def test_a_bound_agents_name_cannot_be_registered_as_a_principal():
    c = _staffed_clinic()
    before = (c.records(), c.event_count, c.bindings())
    with pytest.raises(NameCollision):
        c.register_principal("bot_1")
    assert (c.records(), c.event_count, c.bindings()) == before
    assert not c.roster.is_principal("bot_1")


def test_a_name_once_bound_stays_an_agents_name():
    c = _staffed_clinic()
    c.unbind_agent("Bot", "bot_1")
    assert not c.roster.is_agent("bot_1")
    before = (c.records(), c.event_count)
    with pytest.raises(NameCollision):
        c.register_principal("bot_1")
    assert (c.records(), c.event_count) == before and not c.roster.is_principal("bot_1")
    # a log that registers it after the unbind no longer replays
    text = c.export_log()
    header, records = text.splitlines()[0], parse_export(text)[1]
    vendor = next(r for r in records if r.detail.get("event_type") == "register_principal")
    register = dataclasses.replace(
        vendor,
        detail={**vendor.detail, "event": c.event_count, "principal": "bot_1", "name": "bot_1"},
    )
    with pytest.raises(IntegrityError, match="NameCollision") as info:
        replay(c.template, _rechain(header, records + [register]))
    assert info.value.bad_seq == len(records)
    # it may still be bound again, as the agent it was
    c.bind_agent("Bot", "bot_1", "llm_agent", "VendorX")
    assert c.roster.is_agent("bot_1")


def test_unbind_removes_binding_and_logs():
    c = staffed_ward()
    c.unbind_agent("Bot", "bot_1")
    assert not c.roster.is_agent("bot_1")
    last = c.records()[-1]
    assert last.kind == KIND_BINDING and last.detail["event_type"] == "unbind"
    with pytest.raises(UnknownAgent):
        c.unbind_agent("Bot", "bot_1")


def test_bind_fuzz_matches_reference_model():
    # independent model: kind and principal stick to an agent while bound;
    # (role, agent) unique; per-role count capped by the declaration
    groups = ("ALL", "ALL_AI_AGENTS", "Staff", "Machines")
    declared = "  group Staff = {Officer, Reviewer};\n  group Machines = {Bot};\n  object CaseFile;"
    c = make_ward(source=WARD_SOURCE.replace("  object CaseFile;", declared))
    live = TraceMonitor([PropertySpec.accountability()], c.template)
    live.attach(c)
    for p in ("P1", "P2"):
        c.register_principal(p)
    decl_max = {"Officer": 2, "Reviewer": 2, "Bot": 2}
    decl_kind = {"Officer": "human", "Reviewer": "human", "Bot": "llm_agent"}
    bound = set()  # (role, agent)
    rng = random.Random(99)
    agents = [f"a{i}" for i in range(6)]
    kinds = ["human", "llm_agent"]
    principals = ["P1", "P2"]

    def assert_same_roster(roster):
        # the monitor's roster answers who is who as the instance's does
        assert roster.principals == c.roster.principals
        for agent in agents:
            for query in ("roles_of", "agent_kind", "principal_of"):
                assert getattr(roster, query)(agent) == getattr(c.roster, query)(agent), (query, agent)
            for group in groups:
                assert roster.in_group(agent, group) == c.roster.in_group(agent, group), (agent, group)
        for group in groups:
            assert roster.any_in_group(group) == c.roster.any_in_group(group), group

    for _ in range(400):
        assert_same_roster(live._roster)
        role = rng.choice(list(decl_max))
        agent = rng.choice(agents)
        kind = rng.choice(kinds)
        principal = rng.choice(principals)
        if rng.random() < 0.25 and bound:
            role, agent = rng.choice(sorted(bound))
            c.unbind_agent(role, agent)
            bound.remove((role, agent))
            continue
        agent_kinds = {decl_kind[r] for r, a in bound if a == agent}
        agent_principals = {
            p
            for r, a in bound
            if a == agent
            for p in [c.roster.principal_of(a)]
        }
        ok = (
            kind == decl_kind[role]
            and (not agent_kinds or kind in agent_kinds)
            and (not agent_principals or principal in agent_principals)
            and (role, agent) not in bound
            and sum(1 for r, _ in bound if r == role) < decl_max[role]
        )
        try:
            c.bind_agent(role, agent, kind, principal)
            assert ok, f"model rejected accepted bind {role} {agent} {kind} {principal}"
            bound.add((role, agent))
        except (KindMismatch, UnknownPrincipal, CardinalityExceeded):
            assert not ok, f"model accepted rejected bind {role} {agent} {kind} {principal}"
    assert {(b.role, b.agent) for b in c.bindings()} == bound
    assert_same_roster(live._roster)
    # a monitor rebuilds the same index from the records alone
    monitor = TraceMonitor([PropertySpec.accountability()], c.template)
    for record in c.records():
        monitor.feed(record)
    index = monitor._roster
    assert_same_roster(index)
    assert tuple(index) == c.bindings()
    assert [b.bound_at for b in c.bindings()] == sorted(b.bound_at for b in c.bindings())
    for agent in agents:
        roles = {r for r, a in bound if a == agent}
        assert set(index.roles_of(agent)) == roles
        assert index.agent_kind(agent) == (decl_kind[min(roles)] if roles else None)


def test_submit_action_unknown_actor_logs_nothing():
    c = staffed_ward()
    before = len(c.records())
    with pytest.raises(UnknownAgent):
        c.submit_action("stranger", "read_case")
    assert len(c.records()) == before


def test_blocked_action_applies_no_effects():
    c = staffed_ward()
    result = c.submit_action(
        "bot_1",
        "read_case",
        "case9",
        effects=[{"object": "CaseFile", "op": "put", "key": "case9", "value": "notes"}],
    )
    assert result.verdict.outcome == "blocked"
    assert c.objects["CaseFile"].state() == {}
    kinds = [r.kind for r in c.records()[-2:]]
    assert kinds == [KIND_ACTION_REQUEST, KIND_VERDICT]


def test_admissible_action_applies_effects():
    c = staffed_ward()
    c.apply_speech_act(
        SpeechAct(
            SpeechActKind.DECLARE_BURDEN,
            "officer_1",
            {"action": "screen_case", "holder": "Officer", "subject": "case9"},
        )
    )
    token_id = max(t.id for t in c.tokens)
    c.apply_speech_act(SpeechAct(SpeechActKind.DISCHARGE, "officer_1", {"token": token_id}))
    result = c.submit_action(
        "bot_1",
        "read_case",
        "case9",
        effects=[{"object": "CaseFile", "op": "put", "key": "case9", "value": "notes"}],
    )
    assert result.verdict.admissible
    assert c.objects["CaseFile"].state() == {"case9": "notes"}


def test_an_object_write_and_a_read_effect_are_logged_and_replay():
    c = staffed_ward()
    screen = {"action": "screen_case", "holder": "Officer", "subject": "case9"}
    c.apply_speech_act(SpeechAct(SpeechActKind.DECLARE_BURDEN, "officer_1", screen))
    token_id = max(t.id for t in c.tokens)
    c.apply_speech_act(SpeechAct(SpeechActKind.DISCHARGE, "officer_1", {"token": token_id}))
    effects = [ObjectWrite("CaseFile", "put", "case9", "notes"), ObjectWrite("Ledger", "read", "case9", "unlogged")]
    result = c.submit_action("bot_1", "read_case", "case9", effects=effects)
    assert result.verdict.admissible
    assert c.records()[result.request_seq].detail["effects"] == [
        {"object": "CaseFile", "op": "put", "key": "case9", "value": "notes"},
        {"object": "Ledger", "op": "read", "key": "case9"},
    ]
    assert c.objects["CaseFile"].state() == {"case9": "notes"}
    assert c.objects["Ledger"].state() == {}
    text = c.export_log()
    assert replay(parse_spec(WARD_SOURCE), text).export_log() == text


def test_a_discipline_for_an_undeclared_object_or_of_an_unknown_kind_is_refused():
    template = parse_spec(WARD_SOURCE)
    for disciplines, match in (
        ({"Casefile": "read_write"}, "unknown object 'Casefile'"),
        ({"CaseFile": "read_only"}, "unknown discipline 'read_only'"),
    ):
        with pytest.raises(DisciplineViolation, match=match):
            instantiate_community(template, object_disciplines=disciplines)


def test_append_only_discipline_rejects_put_before_logging():
    c = staffed_ward()
    before = len(c.records())
    with pytest.raises(DisciplineViolation):
        c.submit_action(
            "bot_1",
            "read_case",
            effects=[{"object": "Ledger", "op": "put", "key": "k", "value": 1}],
        )
    with pytest.raises(DisciplineViolation):
        c.submit_action(
            "bot_1",
            "read_case",
            effects=[{"object": "Nowhere", "op": "append", "key": "k", "value": 1}],
        )
    assert len(c.records()) == before


def test_unauthorized_speech_act_rejected_and_logged():
    c = staffed_ward()
    result = c.apply_speech_act(
        SpeechAct(SpeechActKind.GRANT, "bot_1", {"action": "read_case", "to": "bot_1"})
    )
    assert not result.accepted
    assert result.reason == "UnauthorizedSpeechAct"
    last = c.records()[-1]
    assert last.kind == KIND_SPEECH_ACT and last.detail["rejected"]
    # rejected acts change no token state
    assert all(t.state is TokenState.HELD for t in c.tokens)


def test_malformed_payload_rejected():
    c = staffed_ward()
    result = c.apply_speech_act(SpeechAct(SpeechActKind.GRANT, "officer_1", {"action": "x"}))
    assert not result.accepted
    assert result.reason == "MalformedPayload"
    # a deadline that is not a seq would wedge the expiry sweep of every later event
    tokens = c.tokens.states()
    payload = {"action": "sign", "holder": "officer_1", "deadline": "5"}
    result = c.apply_speech_act(SpeechAct(SpeechActKind.DECLARE_BURDEN, "officer_1", payload))
    assert (result.accepted, result.reason) == (False, "MalformedPayload")
    assert c.tokens.states() == tokens
    # a field that names an index key must be a string (None only where optional)
    malformed = [
        (SpeechActKind.DECLARE_BURDEN, {"action": ["sign"], "holder": "officer_1"}),
        (SpeechActKind.DECLARE_BURDEN, {"action": None, "holder": "officer_1"}),
        (SpeechActKind.DECLARE_BURDEN, {"action": "sign", "holder": ["officer_1"]}),
        (SpeechActKind.DECLARE_BURDEN, {"action": "sign", "holder": "officer_1", "subject": {"k": 1}}),
        (SpeechActKind.DECLARE_PERMIT, {"action": "read_case", "holder": "Bot", "requires_action": ["x"]}),
        (SpeechActKind.DECLARE_EMBARGO, {"action": "close_case", "holder": "Bot", "unless_action": ["x"]}),
        (SpeechActKind.DECLARE_EMBARGO, {"action": "close_case", "holder": "Bot", "unless_target": {}}),
        (SpeechActKind.GRANT, {"action": ["read_case"], "to": "bot_1"}),
        (SpeechActKind.GRANT, {"action": "read_case", "to": ["bot_1"]}),
        (SpeechActKind.GRANT, {"action": "read_case", "to": "bot_1", "subject": ["case1"]}),
        (SpeechActKind.GRANT, {"action": "read_case", "to": "bot_1", "requires_action": ["x"]}),
    ]
    for kind, payload in malformed:
        result = c.apply_speech_act(SpeechAct(kind, "officer_1", payload))
        assert (result.accepted, result.reason) == (False, "MalformedPayload"), payload
        assert c.tokens.states() == tokens, payload
    declared = c.apply_speech_act(
        SpeechAct(SpeechActKind.DECLARE_BURDEN, "officer_1", {"action": "sign", "holder": "officer_1"})
    )
    moved = c.apply_speech_act(
        SpeechAct(SpeechActKind.TRANSFER, "officer_1", {"token": declared.token_id, "to": ["bot_1"]})
    )
    assert (moved.accepted, moved.reason) == (False, "MalformedPayload")
    assert c.tokens.get(declared.token_id).holder.name == "officer_1"
    # a token id, seq or deadline is used as sent, so it must be an int: int()
    # would read 25.9 as token 25 and True as token 1, and a bool is no int
    granted = c.apply_speech_act(SpeechAct(SpeechActKind.GRANT, "officer_1", {"action": "read_case", "to": "bot_1"}))
    tokens = c.tokens.states()
    burden, permit = declared.token_id, granted.token_id
    not_ints = (
        (SpeechActKind.TRANSFER, "officer_1", {"token": burden + 0.9, "to": "bot_1"}),
        (SpeechActKind.TRANSFER, "officer_1", {"token": True, "to": "bot_1"}),
        (SpeechActKind.TRANSFER, "officer_1", {"token": str(burden), "to": "bot_1"}),
        (SpeechActKind.DISCHARGE, "officer_1", {"token": burden + 0.9}),
        (SpeechActKind.DISCHARGE, "officer_1", {"token": True}),
        (SpeechActKind.DISCHARGE, "officer_1", {"token": burden, "evidence": 2.5}),
        (SpeechActKind.DISCHARGE, "officer_1", {"token": burden, "evidence": True}),
        (SpeechActKind.DISCHARGE, "officer_1", {"token": burden, "evidence": None}),
        (SpeechActKind.REVOKE, "officer_1", {"token": permit + 0.5}),
        (SpeechActKind.REVOKE, "officer_1", {"token": True}),
        (SpeechActKind.REVOKE, "officer_1", {"token": str(permit)}),
        (SpeechActKind.ACCEPT, "reviewer_1", {"request_seq": True}),
        (SpeechActKind.ACCEPT, "reviewer_1", {"request_seq": 1.0}),
        (SpeechActKind.REJECT, "reviewer_1", {"request_seq": False}),
        (SpeechActKind.DECLARE_BURDEN, "officer_1", {"action": "sign", "holder": "officer_1", "deadline": True}),
        (SpeechActKind.DECLARE_BURDEN, "officer_1", {"action": "sign", "holder": "officer_1", "deadline": 9.5}),
    )
    for kind, sender, payload in not_ints:
        result = c.apply_speech_act(SpeechAct(kind, sender, payload))
        assert (result.accepted, result.reason) == (False, "MalformedPayload"), payload
        assert c.tokens.states() == tokens, payload
        logged = c.records()[-1]
        assert (logged.seq, logged.kind) == (result.seq, KIND_SPEECH_ACT), payload
        # logged as sent: the float stays a float and the bool a bool
        assert logged.detail_json == canonical_json(
            {"event": c.event_count - 1, "kind": kind.value, "payload": payload, "reason": "MalformedPayload", "rejected": True}
        ), payload
    c.submit_action("officer_1", "ping")
    assert c.submit_action("bot_1", "close_case").verdict.outcome == "blocked"
    text = c.export_log()
    assert replay(parse_spec(WARD_SOURCE), text).export_log() == text


class _LikeOfficer:
    """Not a string, but a role lookup finds the role Officer under it."""

    def __hash__(self):
        return hash("Officer")

    def __eq__(self, other):
        return other == "Officer"


@pytest.mark.parametrize(
    "submit, error, match",
    [
        (lambda c: c.apply_speech_act(SpeechAct("shout", "officer_1", {})), ValueError, None),
        (
            lambda c: c.apply_speech_act(
                SpeechAct(
                    SpeechActKind.DECLARE_BURDEN,
                    "officer_1",
                    {"action": "sign", "holder": "officer_1", 7: "x"},
                )
            ),
            TypeError, None,
        ),
        (
            lambda c: c.submit_action(
                "officer_1", "note", effects=[{"object": "CaseFile", "key": "k", "value": {1}}]
            ),
            TypeError, None,
        ),
        (
            lambda c: c.apply_speech_act(
                SpeechAct(SpeechActKind.PROPOSE, "bot_1", {"body": float("nan")})
            ),
            ValueError, None,
        ),
        (
            lambda c: c.submit_action(
                "officer_1", "note", effects=[{"object": "CaseFile", "key": "k", "value": 1e999}]
            ),
            ValueError, None,
        ),
        (lambda c: c.submit_action("officer_1", "ping", {1}), TypeError, None),
        (lambda c: c.submit_action("officer_1", ["read_case"]), TypeError, None),
        (lambda c: c.submit_action("officer_1", "read_case", {"case": 1}), TypeError, None),
        (lambda c: c.set_mode(MODE_SUPERVISED, by=5), TypeError, None),
        (lambda c: c.bind_agent("Officer", 5, "human", "Clinic"), TypeError, None),
        (lambda c: c.force_bind("Officer", None, "human", "Clinic"), TypeError, None),
        (lambda c: c.force_bind("Officer", "officer_2", "human", object()), TypeError, None),
        (lambda c: c.apply_speech_act(SpeechAct(SpeechActKind.PROPOSE, 5, {})), TypeError, None),
        (lambda c: c.bind_agent(_LikeOfficer(), "officer_2", "human", "Clinic"), TypeError, "^role .* is not a string$"),
        (lambda c: c.unbind_agent(_LikeOfficer(), "officer_1"), TypeError, "^role .* is not a string$"),
        (lambda c: c.register_principal("Agency", name=object()), TypeError, None),
        (lambda c: c.register_principal("Agency", name=0), TypeError, None),
        (lambda c: c.register_principal("Agency", name=False), TypeError, None),
        (lambda c: c.register_principal("Agency", kind=float("nan")), TypeError, None),
        (lambda c: c.register_principal(("Agency", "North")), TypeError, None),
        (
            lambda c: instantiate_community(c.template, owner=Principal("Clinic", "Clinic", float("nan"))),
            TypeError, None,
        ),
    ],
    ids=[
        "unknown_kind",
        "non_string_key",
        "unencodable_effect",
        "nan_payload",
        "infinite_effect",
        "unencodable_subject",
        "non_string_action",
        "non_string_subject",
        "non_string_mode_changer",
        "non_string_agent",
        "null_agent",
        "unencodable_principal_of_a_binding",
        "non_string_sender",
        "non_string_role_of_a_binding",
        "non_string_role_of_an_unbinding",
        "unencodable_principal_name",
        "zero_principal_name",
        "false_principal_name",
        "nan_principal_kind",
        "tuple_principal_id",
        "nan_owner_kind",
    ],
)
def test_an_event_that_cannot_be_logged_fails_before_it_is_numbered(submit, error, match):
    c = staffed_ward()
    before = (c.event_count, c.records(), c.tokens.states(), c.bindings(), c.mode)
    with pytest.raises(error, match=match):
        submit(c)
    assert (c.event_count, c.records(), c.tokens.states(), c.bindings(), c.mode) == before
    c.submit_action("officer_1", "ping")
    text = c.export_log()
    assert replay(parse_spec(WARD_SOURCE), text).export_log() == text


class _LikeOfficerOne:
    """Not a string, but an agent lookup finds the bound officer_1 under it."""

    def __hash__(self):
        return hash("officer_1")

    def __eq__(self, other):
        return other == "officer_1"


def test_an_actor_that_is_not_a_string_fails_before_its_event():
    c = staffed_ward()
    declared = c.apply_speech_act(
        SpeechAct(
            SpeechActKind.DECLARE_BURDEN,
            "officer_1",
            {"action": "screen_case", "holder": "Officer", "deadline": c.head_seq + 1},
        )
    )
    # the burden is overdue: the next event to be numbered expires it first
    assert c.tokens.get(declared.token_id).state is TokenState.HELD
    assert c.roster.is_agent(_LikeOfficerOne())
    before = (c.event_count, c.head_seq, c.records(), c.tokens.states())
    with pytest.raises(TypeError, match="actor"):
        c.submit_action(_LikeOfficerOne(), "ping")
    assert (c.event_count, c.head_seq, c.records(), c.tokens.states()) == before
    assert c.tokens.get(declared.token_id).state is TokenState.HELD
    c.submit_action("officer_1", "ping")
    assert c.tokens.get(declared.token_id).state is TokenState.VIOLATED
    text = c.export_log()
    assert replay(parse_spec(WARD_SOURCE), text).export_log() == text


def test_full_token_lifecycle_record_shapes():
    c = staffed_ward()
    c.bind_agent("Officer", "officer_2", "human", "Clinic")
    declared = c.apply_speech_act(
        SpeechAct(
            SpeechActKind.DECLARE_BURDEN,
            "officer_1",
            {"action": "screen_case", "holder": "officer_1", "subject": "case1"},
        )
    )
    token_id = declared.token_id
    transferred = c.apply_speech_act(
        SpeechAct(SpeechActKind.TRANSFER, "officer_1", {"token": token_id, "to": "officer_2"})
    )
    assert transferred.accepted
    hops = [
        r.detail
        for r in c.records()
        if r.kind == KIND_TOKEN_TRANSITION and r.detail["token"] == token_id
    ]
    assert [(h["from"], h["to"]) for h in hops] == [
        ("CREATED", "HELD"),
        ("HELD", "DELEGATED"),
        ("DELEGATED", "HELD"),
    ]
    assert hops[1]["by"] == "officer_1" and hops[1]["target"] == "officer_2"
    assert hops[2]["link"] == {"from": "officer_1", "to": "officer_2", "at": hops[2]["link"]["at"]}

    discharged = c.apply_speech_act(
        SpeechAct(SpeechActKind.DISCHARGE, "officer_2", {"token": token_id})
    )
    assert discharged.accepted
    final = [
        r.detail
        for r in c.records()
        if r.kind == KIND_TOKEN_TRANSITION and r.detail["token"] == token_id
    ][-1]
    assert final["to"] == "DISCHARGED" and final["by"] == "officer_2"
    assert 0 <= final["evidence"] <= c.head_seq


def test_grant_and_revoke_record_shapes():
    c = staffed_ward()
    granted = c.apply_speech_act(
        SpeechAct(
            SpeechActKind.GRANT,
            "officer_1",
            {"action": "close_case", "to": "bot_1", "subject": "case1"},
        )
    )
    assert granted.accepted
    token = c.tokens.get(granted.token_id)
    assert token.holder.name == "bot_1" and token.subject == "case1"
    revoked = c.apply_speech_act(
        SpeechAct(SpeechActKind.REVOKE, "officer_1", {"token": granted.token_id})
    )
    assert revoked.accepted
    assert c.tokens.get(granted.token_id).state is TokenState.REVOKED


def test_deadline_sweep_runs_at_next_event():
    c = staffed_ward()
    c.apply_speech_act(
        SpeechAct(
            SpeechActKind.DECLARE_BURDEN,
            "officer_1",
            {"action": "screen_case", "holder": "Officer", "deadline": c.head_seq + 1},
        )
    )
    token_id = max(t.id for t in c.tokens)
    assert c.tokens.get(token_id).state is TokenState.HELD
    # the deadline passes as soon as any later event advances the sequence
    c.submit_action("officer_1", "ping")
    c.submit_action("officer_1", "ping")
    assert c.tokens.get(token_id).state is TokenState.VIOLATED
    sweep = [
        r
        for r in c.records()
        if r.kind == KIND_TOKEN_TRANSITION and r.detail.get("to") == "VIOLATED"
    ]
    assert len(sweep) == 1
    assert sweep[0].detail["token"] == token_id
    # the sweep transition opens its event, before the initiating record
    event = sweep[0].detail["event"]
    requests = [r for r in c.records() if r.kind == KIND_ACTION_REQUEST and r.detail["event"] == event]
    assert requests and requests[0].seq > sweep[0].seq


def test_supervised_mode_escalates_blocked_ai_action():
    c = staffed_ward(mode=MODE_SUPERVISED)
    result = c.submit_action("bot_1", "close_case", "case1")
    assert result.verdict.outcome == "blocked"
    escalations = [r for r in c.records() if r.kind == KIND_ESCALATION]
    assert len(escalations) == 1
    detail = escalations[0].detail
    assert detail["agent"] == "bot_1" and detail["to_role"] == "Reviewer"
    review = c.tokens.get(detail["burden"])
    assert review.action == "review" and review.holder.name == "Reviewer"
    # blocked human actions do not escalate
    c.submit_action("officer_1", "close_case")
    assert len([r for r in c.records() if r.kind == KIND_ESCALATION]) == 1


def test_advisory_mode_recommendation_approval_flow():
    c = staffed_ward(mode=MODE_ADVISORY)
    c.apply_speech_act(
        SpeechAct(
            SpeechActKind.DECLARE_BURDEN,
            "officer_1",
            {"action": "screen_case", "holder": "Officer", "subject": "case2"},
        )
    )
    c.apply_speech_act(
        SpeechAct(SpeechActKind.DISCHARGE, "officer_1", {"token": max(t.id for t in c.tokens)})
    )
    result = c.submit_action(
        "bot_1",
        "read_case",
        "case2",
        effects=[{"object": "CaseFile", "op": "put", "key": "case2", "value": "v"}],
    )
    assert result.verdict.outcome == "recommended"
    assert c.objects["CaseFile"].state() == {}

    rejected = c.apply_speech_act(
        SpeechAct(SpeechActKind.ACCEPT, "bot_1", {"request_seq": result.request_seq})
    )
    assert not rejected.accepted  # bots hold no accept authority here

    approved = c.apply_speech_act(
        SpeechAct(SpeechActKind.ACCEPT, "reviewer_1", {"request_seq": result.request_seq})
    )
    assert approved.accepted
    assert c.objects["CaseFile"].state() == {"case2": "v"}

    stale = c.apply_speech_act(
        SpeechAct(SpeechActKind.ACCEPT, "reviewer_1", {"request_seq": result.request_seq})
    )
    assert not stale.accepted and stale.reason == "ProtocolViolation"


def test_advisory_rejection_discards_effects():
    c = staffed_ward(mode=MODE_ADVISORY)
    c.apply_speech_act(
        SpeechAct(
            SpeechActKind.DECLARE_BURDEN,
            "officer_1",
            {"action": "screen_case", "holder": "Officer"},
        )
    )
    c.apply_speech_act(
        SpeechAct(SpeechActKind.DISCHARGE, "officer_1", {"token": max(t.id for t in c.tokens)})
    )
    result = c.submit_action(
        "bot_1",
        "read_case",
        effects=[{"object": "CaseFile", "op": "put", "key": "k", "value": "v"}],
    )
    vetoed = c.apply_speech_act(
        SpeechAct(SpeechActKind.REJECT, "reviewer_1", {"request_seq": result.request_seq})
    )
    assert vetoed.accepted
    assert c.objects["CaseFile"].state() == {}
    verdicts = [r.detail for r in c.records() if r.kind == KIND_VERDICT]
    assert verdicts[-1]["reason"] == "rejected"


def test_negotiation_protocol_order():
    c = staffed_ward()
    c.bind_agent("Bot", "bot_2", "llm_agent", "Vendor")

    assert not c.apply_speech_act(SpeechAct(SpeechActKind.ACCEPT, "reviewer_1", {})).accepted
    assert c.apply_speech_act(SpeechAct(SpeechActKind.PROPOSE, "bot_1", {"body": "b"})).accepted
    # second proposal while one is pending
    assert not c.apply_speech_act(SpeechAct(SpeechActKind.PROPOSE, "bot_2", {})).accepted
    # proposer cannot answer itself
    assert not c.apply_speech_act(SpeechAct(SpeechActKind.COUNTER_PROPOSE, "bot_1", {})).accepted
    assert c.apply_speech_act(SpeechAct(SpeechActKind.COUNTER_PROPOSE, "bot_2", {})).accepted
    assert c.apply_speech_act(SpeechAct(SpeechActKind.ACCEPT, "reviewer_1", {})).accepted
    # settled: nothing pending any more
    assert not c.apply_speech_act(SpeechAct(SpeechActKind.REJECT, "reviewer_1", {})).accepted


def test_mode_change_is_recorded_and_replayable():
    c = staffed_ward()
    c.set_mode(MODE_SUPERVISED, by="officer_1")
    assert c.mode == MODE_SUPERVISED
    text = c.export_log()
    twin = replay(parse_spec(WARD_SOURCE), text)
    assert twin.mode == MODE_SUPERVISED
    assert twin.export_log() == text


def drive_sample_history(c):
    c.apply_speech_act(
        SpeechAct(
            SpeechActKind.DECLARE_BURDEN,
            "officer_1",
            {"action": "screen_case", "holder": "Officer", "subject": "case1"},
        )
    )
    c.apply_speech_act(
        SpeechAct(SpeechActKind.DISCHARGE, "officer_1", {"token": max(t.id for t in c.tokens)})
    )
    c.submit_action("bot_1", "read_case", "case1")
    c.submit_action("bot_1", "close_case", "case1")
    c.apply_speech_act(SpeechAct(SpeechActKind.GRANT, "officer_1", {"action": "read_case", "to": "bot_1"}))
    c.unbind_agent("Bot", "bot_1")
    return c


def test_export_parses_and_chain_verifies():
    c = drive_sample_history(staffed_ward())
    header, records = parse_export(c.export_log())
    assert header == {"format": "covenant-audit/1", "digest": "sha256", "community": "Ward"}
    verify_chain(records)
    assert [r.seq for r in records] == list(range(len(records)))



@pytest.mark.parametrize(
    "name",
    ['Ward "B"', "Ward\\B", "Station Ä 病棟", "Ward\x07", 7, None, ["Ward", 2], {"b": 1, "a": 2}],
    ids=["quote", "backslash", "non_ascii", "control_character", "int", "null", "list", "unsorted_object"],
)
def test_the_export_header_is_what_json_dumps_writes(name):
    c = instantiate_community(CommunityTemplate(name), MODE_AUTONOMOUS, Principal("Clinic", "Clinic"), {})
    header = c.export_log().split("\n", 1)[0]
    fields = {"format": "covenant-audit/1", "digest": "sha256", "community": name}
    assert header == json.dumps(fields, separators=(",", ":"))


def test_replay_reads_the_community_off_the_genesis_record():
    _header, records = parse_export(drive_sample_history(staffed_ward()).export_log())
    replay(parse_spec(WARD_SOURCE), records)
    desk = CommunityTemplate("Desk")
    with pytest.raises(InvalidTemplate, match="^log is for community 'Ward', not 'Desk'$"):
        replay(desk, records)
    # a log that does not start with a genesis record, or holds none, names no community
    with pytest.raises(IntegrityError, match="^export does not start with a genesis record$") as empty:
        replay(desk, [])
    assert empty.value.bad_seq == 0
    with pytest.raises(IntegrityError, match="^sequence gap: expected 0, found 1$") as headless:
        replay(desk, records[1:])
    assert headless.value.bad_seq == 1

def test_replay_reproduces_states_and_bytes():
    c = drive_sample_history(staffed_ward())
    text = c.export_log()
    twin = replay(parse_spec(WARD_SOURCE), text)
    assert twin.export_log() == text
    assert twin.tokens.states() == c.tokens.states()
    assert {(b.role, b.agent) for b in twin.bindings()} == {
        (b.role, b.agent) for b in c.bindings()
    }
    assert {name: obj.digest() for name, obj in twin.objects.items()} == {
        name: obj.digest() for name, obj in c.objects.items()
    }


def _states_and_holders(store):
    return {t.id: (t.state, t.holder) for t in store}


def test_a_monitor_rebuilds_the_runtimes_token_states():
    # state and holder of every token: a transfer files a burden under its delegate
    c = staffed_ward()
    monitor = TraceMonitor([PropertySpec.accountability()], c.template)
    monitor.attach(c)
    drive_sample_history(c)
    assert _states_and_holders(monitor._tokens) == _states_and_holders(c.tokens)
    for name, (template, export) in _pinned_runs().items():
        twin = replay(template, export)
        monitor = TraceMonitor([PropertySpec.accountability()], template)
        monitor.attach(twin)
        assert _states_and_holders(monitor._tokens) == _states_and_holders(twin.tokens), name
    for mode in (MODE_SUPERVISED, MODE_ADVISORY, MODE_AUTONOMOUS):
        c = _desk(mode)
        monitor = TraceMonitor([PropertySpec.accountability()], c.template)
        monitor.attach(c)
        assert _states_and_holders(monitor._tokens) == _states_and_holders(c.tokens), mode
        delegated = [t for t in c.tokens if len(t.chain.links) > 1]
        assert [(t.id, t.holder.name) for t in delegated] == [(7, "officer_2")], mode


def test_single_byte_tamper_is_localized():
    c = drive_sample_history(staffed_ward())
    text = c.export_log()
    lines = text.splitlines()
    # tamper each of several record lines by flipping one detail character
    for line_no in (3, 7, len(lines) - 2):
        line = lines[line_no]
        pos = line.index('"detail"') + len('"detail"') + 3
        corrupt = line[:pos] + ("X" if line[pos] != "X" else "Y") + line[pos + 1 :]
        tampered = "\n".join(lines[:line_no] + [corrupt] + lines[line_no + 1 :]) + "\n"
        with pytest.raises(IntegrityError) as info:
            import_log(tampered)
        assert info.value.bad_seq == line_no - 1  # header occupies line 0
        with pytest.raises(IntegrityError) as replayed:
            replay(parse_spec(WARD_SOURCE), tampered)
        assert replayed.value.bad_seq == line_no - 1


def test_truncated_export_fails_verification():
    c = drive_sample_history(staffed_ward())
    lines = c.export_log().splitlines()
    clipped = "\n".join(lines[:1] + lines[2:]) + "\n"
    with pytest.raises(IntegrityError):
        import_log(clipped)


@pytest.mark.parametrize(
    "header",
    [
        "",
        "{format",
        '{"format":"covenant-audit/0","digest":"sha256"}',
        '{"format":"covenant-audit/1","digest":"md5"}',
        "[]",
        '"x"',
        "7",
        "null",
        "[" * 100_000,
        '{"format":' + "1" * 5000 + "}",
        None,
    ],
    ids=[
        "empty",
        "unreadable",
        "unknown_format",
        "unsupported_digest",
        "array",
        "string",
        "number",
        "null",
        "nested_past_the_recursion_limit",
        "integer_of_5000_digits",
        "no_records",
    ],
)
def test_an_export_with_a_bad_header_is_refused_at_seq_0(header):
    lines = drive_sample_history(staffed_ward()).export_log().splitlines()
    if header is None:  # a sound header and nothing after it
        text = lines[0] + "\n"
    elif header:
        text = "\n".join([header] + lines[1:]) + "\n"
    else:
        text = "\n \n"
    template = parse_spec(WARD_SOURCE)
    for read in (parse_export, import_log, lambda t: replay(template, t)):
        with pytest.raises(IntegrityError) as info:
            read(text)
        assert info.value.bad_seq == 0


@pytest.mark.parametrize(
    "spell",
    [
        lambda line: line[:-1],
        lambda line: "[]",
        lambda line: "[" * 100_000,
        lambda line: re.sub(r'"seq":\d+', '"seq":' + "9" * 5000, line, count=1),
    ],
    ids=["truncated", "array", "nested_past_the_recursion_limit", "seq_of_5000_digits"],
)
def test_an_unreadable_record_line_is_refused_at_its_position(spell):
    template = parse_spec(WARD_SOURCE)
    lines = drive_sample_history(staffed_ward()).export_log().splitlines()
    for position in (0, 6, 18):
        edited = list(lines)
        edited[position + 1] = spell(lines[position + 1])
        text = "\n".join(edited) + "\n"
        for read in (parse_export, import_log, lambda t: replay(template, t)):
            with pytest.raises(IntegrityError, match=f"unreadable record on line {position + 2}") as info:
                read(text)
            assert info.value.bad_seq == position


def _ward(records: int, seed: int = 1):
    """The Ward of bench/ward.py, 20 agents, driven until its log holds `records` records."""
    ward = _ward_module()
    tpl, c, caller = ward.populate(seed, 20, 20, 50, action_share=0.6)
    while c.head_seq + 1 < records:
        _category, call, args, observe = caller.plan()
        observe(call(*args))
    return tpl, c


def _ward_export(records: int, seed: int = 1):
    tpl, c = _ward(records, seed)
    return tpl, c.export_log()


def _parse_outcome(text):
    """What parse_export makes of `text`: its header and records' fields, or where and why it refused it.

    A detail is compared as json.dumps writes it, so its keys' order counts too.
    """
    try:
        header, records = parse_export(text)
    except IntegrityError as exc:  # any other exception breaks README's promise, and fails the test
        return "refused", type(exc), exc.bad_seq, str(exc)
    fields = [(r.seq, r.kind, r.actor, json.dumps(r.detail), r.prev_hash, r.hash, r.detail_json) for r in records]
    return "parsed", header, fields


def _decode_only(line, index):
    raise StopIteration(index)  # as the scanner does where no value starts: decode reads every line


def test_the_scanner_parses_what_decoding_every_line_parses(monkeypatch):
    exports = [export for _, export in _pinned_runs().values()] + [_ward_export(12_000)[1]]
    scanned = [_parse_outcome(export) for export in exports]
    # lines the scanner leaves to the decoder: whitespace around the value, data
    # after it, a line no value starts, nesting past the limit, an overlong integer
    lines = drive_sample_history(staffed_ward()).export_log().splitlines()
    too_long = "9" * (sys.get_int_max_str_digits() + 1)
    edits = (
        lambda line: " \t" + line,
        lambda line: line + " \t",
        lambda line: line + " x",
        lambda line: line + "{}",
        lambda line: "[]",
        lambda line: "x" + line,
        lambda line: "[" * 100_000,
        lambda line: line.replace('"event":', f'"event":{too_long},"was":', 1),
    )
    edited = []
    for position in (0, 6, 18):
        for edit in edits:
            spelled = list(lines)
            spelled[position + 1] = edit(lines[position + 1])
            edited.append("\n".join(spelled) + "\n")
    scanned_edits = [_parse_outcome(text) for text in edited]
    monkeypatch.setattr(runtime, "_scan_json", _decode_only)
    assert [_parse_outcome(export) for export in exports] == scanned
    assert all(outcome[0] == "parsed" for outcome in scanned)
    assert [_parse_outcome(text) for text in edited] == scanned_edits
    # whitespace around a line's value is read as the value; the rest is refused
    assert [outcome[0] for outcome in scanned_edits] == (["parsed"] * 2 + ["refused"] * 6) * 3


def _outcome_in_blocks(text, block, monkeypatch):
    """_parse_outcome of `text` read in blocks of `block` characters."""
    with monkeypatch.context() as patch:
        patch.setattr(runtime, "_BLOCK_CHARS", block)
        return _parse_outcome(text)


def _whole_text_outcome(text, monkeypatch):
    """The reference: `text` read as one block, so one text.splitlines() splits all of it."""
    return _outcome_in_blocks(text, len(text) + 1, monkeypatch)


# every separator str.splitlines knows besides "\n", by its ASCII or Unicode name
_LINE_SEPARATORS = {
    "CR": "\r",
    "CRLF": "\r\n",
    "VT": "\v",
    "FF": "\f",
    "FS": "\x1c",
    "GS": "\x1d",
    "RS": "\x1e",
    "NEL": "\x85",
    "LS": "\u2028",
    "PS": "\u2029",
}


@pytest.mark.parametrize("separator", _LINE_SEPARATORS.values(), ids=_LINE_SEPARATORS.keys())
def test_every_line_separator_reads_in_blocks_as_in_one_split(separator, monkeypatch):
    ward = _ward_export(1_000)[1]
    assert len(ward) > 4 * runtime._BLOCK_CHARS  # the default blocks cut it
    for text in [export for _, export in _pinned_runs().values()] + [ward]:
        lines = text.splitlines()
        spelled = (
            separator.join(lines) + separator,
            # "\n" ends every other line, so blocks are still cut, and cut after a line that ends in `separator`
            "".join(line + ("\n" if index % 2 else separator) for index, line in enumerate(lines)),
        )
        for edited in spelled:
            expected = _whole_text_outcome(edited, monkeypatch)
            assert expected == _parse_outcome(text)
            assert _parse_outcome(edited) == expected
            # a block of one line at a time, and blocks that end within a line
            for block in (1, 2_000):
                assert _outcome_in_blocks(edited, block, monkeypatch) == expected


def _around_the_first_cut(text):
    """Edits of `text` that place blank lines, or one record line, where the first block is cut.

    A blank and a whitespace-only line go between two records in the first
    block's first half. A whitespace-only first line of chosen length then moves
    the first block's nominal end (`_BLOCK_CHARS - 1`) onto, just before and just
    after each "\n" around them, and into the record line after them, once as
    it is and once broken in two there.
    """
    block = runtime._BLOCK_CHARS
    at = text.index("\n", block // 4) + 1
    edited = text[:at] + "\n \t\n" + text[at:]
    after = edited.index("\n", at + 4)  # the end of the record after the blank lines
    middle = (at + 4 + after) // 2
    ends = {end + shift for end in (at - 1, at, at + 3, after) for shift in (-1, 0, 1)} | {middle}
    for end in sorted(ends):
        yield " " * (block - 2 - end) + "\n" + edited
    yield " " * (block - 2 - middle) + "\n" + edited[:middle] + "\n" + edited[middle:]


def test_blank_lines_and_a_record_line_at_a_block_cut_read_as_in_one_split(monkeypatch):
    ward = _ward_export(1_000)[1]
    placed = set()
    for text, block in [(export, 2_000) for _, export in _pinned_runs().values()] + [(ward, runtime._BLOCK_CHARS)]:
        with monkeypatch.context() as patch:
            patch.setattr(runtime, "_BLOCK_CHARS", block)
            edits = list(_around_the_first_cut(text))
            outcomes = [_parse_outcome(edited) for edited in edits]
        assert outcomes == [_whole_text_outcome(edited, monkeypatch) for edited in edits]
        # every edit but the broken record line parses to the records of `text`
        assert outcomes[:-1] == [_parse_outcome(text)] * (len(edits) - 1)
        assert outcomes[-1][:2] == ("refused", IntegrityError)
        for edited in edits:
            cut = edited.index("\n", block - 1) + 1
            before, after = edited[:cut], edited[cut:]
            placed.add(
                "before" if before.endswith("\n\n \t\n") else
                "at" if before.endswith("\n\n") and after.startswith(" \t\n") else
                "after" if after.startswith("\n \t\n") else
                "record"
            )
    assert placed == {"before", "at", "after", "record"}


def test_the_auditor_holds_an_export_about_once(monkeypatch):
    _, c = _ward(3_000)
    text = c.export_log()
    nonblank_blocks = runtime._nonblank_blocks
    spans = []  # (traced memory as a block is asked for, the peak until the next is)

    def measured(text):
        blocks = nonblank_blocks(text)
        while True:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lines = next(blocks, None)
            if lines is not None:
                yield lines
            spans.append((start, tracemalloc.get_traced_memory()[1]))
            if lines is None:
                return

    monkeypatch.setattr(runtime, "_nonblank_blocks", measured)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        exported = c.export_log()
        export_peak = tracemalloc.get_traced_memory()[1] - base
        del exported
        parsed = parse_export(text)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(parsed[1]) == c.head_seq + 1
    assert len(spans) > 4  # the text is read in blocks
    # the lines and the joined text; parsing holds one block of lines beside its records
    assert export_peak <= 2.3 * len(text)
    # reading a block (its slice, its lines and its records) and the whole parse
    assert max(peak - start for start, peak in spans) <= 0.2 * len(text)
    assert max(peak for _, peak in spans) - kept <= 0.2 * len(text)


def test_a_parsed_log_holds_each_repeated_string_once():
    text = _ward_export(1_000)[1]
    assert len(text) > 4 * runtime._BLOCK_CHARS  # more lines than one scanner call reads
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, records = parse_export(text)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # kinds, actors, detail keys and top-level detail string values: equal is identical
    strings, seen = {}, 0
    for record in records:
        for string in (record.kind, record.actor, *record.detail, *record.detail.values()):
            if type(string) is str:
                assert strings.setdefault(string, string) is string, string
                seen += 1
    assert seen > 20 * len(strings)
    # 2.46 times the text on CPython 3.11; each line's own strings made it 4.1
    assert kept <= 2.7 * len(text)


def test_a_joined_or_split_line_is_refused_and_a_respelled_one_parses():
    export = drive_sample_history(staffed_ward()).export_log()
    lines, canonical = export.splitlines(), parse_export(export)[1]
    # a subject holding "},{": cut there, the line is two lines that each start
    # with "{" and end with "}", which a "," would join back into one value
    subject = lines[13].replace('"subject":"case1"', '"subject":"case},{1"', 1)
    at = subject.index("},{") + 1
    split = [subject[:at], subject[at + 1:]]
    assert subject != lines[13] and all(part[0] == "{" and part[-1] == "}" for part in split)
    # valid lines that are not canonical: each reads as its canonical line
    raw = json.loads(lines[15])
    reordered = json.dumps({**raw, "detail": dict(reversed(raw["detail"].items()))}, separators=(",", ":"))
    spaced = lines[9].replace('"event":5,', '"event": 5,', 1)
    escaped = lines[14].replace('"read_case"', '"re\\u0061d_case"', 1)
    assert not {reordered, spaced, escaped} & set(lines)
    joined_at_7 = (5, "unreadable record on line 7: Extra data: line 1 column 320 (char 319)")
    split_at_14 = (12, "unreadable record on line 14: Unterminated string starting at: line 1 column 102 (char 101)")
    edits = {
        "joined": (lines[:6] + [lines[6] + "," + lines[7]] + lines[8:], joined_at_7),
        "split": (lines[:13] + split + lines[14:], split_at_14),
        # one line more and one fewer, so the count of lines is the export's
        "joined, split": (lines[:6] + [lines[6] + "," + lines[7]] + lines[8:13] + split + lines[14:], joined_at_7),
        "split, joined": (lines[:13] + split + lines[14:16] + [lines[16] + "," + lines[17]] + lines[18:], split_at_14),
        "reordered": (lines[:15] + [reordered] + lines[16:], None),
        "spaced": (lines[:9] + [spaced] + lines[10:], None),
        "escaped": (lines[:14] + [escaped] + lines[15:], None),
        "spaced, escaped, reordered": (lines[:9] + [spaced] + lines[10:14] + [escaped, reordered] + lines[16:], None),
    }
    for name, (edited, refusal) in edits.items():
        text = "\n".join(edited) + "\n"
        if refusal is not None:  # the first line that is not one record is refused at its position
            with pytest.raises(IntegrityError) as info:
                parse_export(text)
            assert (info.value.bad_seq, str(info.value)) == refusal, name
            continue
        # the canonical lines' records, read from other bytes; a detail keeps its line's key order
        records = parse_export(text)[1]
        assert [(r.to_line(), r.detail) for r in records] == [(r.to_line(), r.detail) for r in canonical], name
        if "reordered" in name:
            assert list(records[14].detail) == list(reversed(canonical[14].detail)), name


def test_an_edited_link_is_a_broken_chain_at_its_seq():
    text = drive_sample_history(staffed_ward()).export_log()
    _, records = parse_export(text)
    link = records[9].prev_hash
    edited = text.replace(f'"prev_hash":"{link}"', f'"prev_hash":"{link[:-1]}{"0" if link[-1] != "0" else "1"}"')
    with pytest.raises(IntegrityError, match="broken chain link at seq 9") as info:
        import_log(edited)
    assert info.value.bad_seq == 9


# ----------------------------------------------------------------------
# replay checks its own output


def _rechain(header: str, records) -> str:
    """An export of `records`, renumbered and chained afresh, as a forger would write it."""
    prev, lines = GENESIS_PREV_HASH, [header]
    for seq, r in enumerate(records):
        detail_json = canonical_json(r.detail)
        digest = record_digest(prev, seq, r.kind, r.actor, detail_json)
        lines.append(AuditRecord(seq, r.kind, r.actor, r.detail, prev, digest).to_line())
        prev = digest
    return "\n".join(lines) + "\n"


def _replay_fails_at(template, text) -> int:
    with pytest.raises(IntegrityError) as info:
        replay(template, text)
    return info.value.bad_seq


def _edited(records, seq, **changes):
    """The records with `changes` made to the detail at `seq`."""
    edited = dataclasses.replace(records[seq], detail={**records[seq].detail, **changes})
    return records[:seq] + [edited] + records[seq + 1 :]


def _link_broken(text: str, seq: int) -> str:
    """`text` with one character of record `seq`'s previous hash changed, and the chain left as it is."""
    lines = text.splitlines()
    line = lines[seq + 1]
    at = line.index('"prev_hash":"') + len('"prev_hash":"')
    lines[seq + 1] = line[:at] + "01"[line[at] == "0"] + line[at + 1 :]
    return "\n".join(lines) + "\n"


def test_replay_rejects_a_rechained_log_the_runtime_would_not_write():
    template = parse_spec(WARD_SOURCE)
    text = drive_sample_history(staffed_ward()).export_log()
    header, records = text.splitlines()[0], parse_export(text)[1]
    assert _rechain(header, records) == text
    assert [records[12].kind, records[13].kind] == [KIND_ACTION_REQUEST, KIND_VERDICT]
    assert records[5].detail["event_type"] == "bind"

    # a verdict's outcome flipped: the chain holds, the verdict is not the runtime's
    assert _replay_fails_at(template, _rechain(header, _edited(records, 13, outcome="blocked"))) == 13
    # cut right after an action request: its verdict would lie beyond the end
    assert _replay_fails_at(template, _rechain(header, records[:13])) == 13
    # a bind to a role the template does not declare cannot be re-executed
    assert _replay_fails_at(template, _rechain(header, _edited(records, 5, role="Janitor"))) == 5
    # trailing records no event regenerates
    assert _replay_fails_at(template, _rechain(header, records + records[17:])) == 19


def test_replay_refuses_a_log_that_gives_an_agent_a_principals_name():
    # a log written before agents and principals had to be named apart
    template = parse_spec(WARD_SOURCE)
    text = drive_sample_history(staffed_ward()).export_log()
    header, records = text.splitlines()[0], parse_export(text)[1]
    bind = records[5]
    assert (bind.detail["event_type"], bind.detail["agent"]) == ("bind", "officer_1")
    as_owner = dataclasses.replace(bind, actor="Clinic", detail={**bind.detail, "agent": "Clinic"})
    with pytest.raises(IntegrityError, match="NameCollision") as info:
        replay(template, _rechain(header, records[:5] + [as_owner] + records[6:]))
    assert info.value.bad_seq == 5
    event = records[-1].detail["event"] + 1
    register = dataclasses.replace(
        records[4], detail={**records[4].detail, "event": event, "principal": "officer_1", "name": "officer_1"}
    )
    with pytest.raises(IntegrityError, match="NameCollision") as info:
        replay(template, _rechain(header, records + [register]))
    assert info.value.bad_seq == len(records)


def test_a_principal_record_whose_name_is_not_a_string_is_refused_at_its_seq():
    # replay re-executes it into a Principal, and the monitor folds it into one
    template = parse_spec(WARD_SOURCE)
    text = drive_sample_history(staffed_ward()).export_log()
    header, records = text.splitlines()[0], parse_export(text)[1]
    assert records[4].detail["event_type"] == "register_principal"
    owner = records[0].detail["owner"]
    for seq, edit in [(4, {"name": name}) for name in (7, True, None, ["Vendor"])] + [(0, {"owner": {**owner, "name": 7}})]:
        forged = import_log(_rechain(header, _edited(records, seq, **edit)))[1]
        assert _replay_fails_at(template, forged) == seq, edit
        with pytest.raises(IntegrityError) as info:
            run_checks(forged, [PropertySpec.accountability()], template)
        assert info.value.bad_seq == seq, edit


def test_replay_checks_the_expiry_sweep_before_a_missing_or_failing_record():
    template = parse_spec(WARD_SOURCE)
    c = staffed_ward()
    due = {"action": "sign", "holder": "officer_1", "deadline": c.head_seq + 2}
    c.apply_speech_act(SpeechAct(SpeechActKind.DECLARE_BURDEN, "officer_1", due))
    c.submit_action("bot_1", "read_case")  # the event opens with the burden's expiry
    text = c.export_log()
    header, records = text.splitlines()[0], parse_export(text)[1]
    request = len(records) - 2
    assert records[request - 1].detail["to"] == "VIOLATED"
    assert records[request].kind == KIND_ACTION_REQUEST

    # the sweep is what the runtime writes there: the fault is the record after it
    assert _replay_fails_at(template, _rechain(header, records[:request])) == request
    unbind = {"event_type": "unbind", "role": "Janitor", "agent": "bot_1"}
    janitor = dataclasses.replace(records[request], kind=KIND_BINDING, detail=unbind)
    assert _replay_fails_at(template, _rechain(header, records[:request] + [janitor])) == request


def test_replay_tells_an_edited_genesis_from_another_communitys_log():
    template = parse_spec(WARD_SOURCE)
    text = drive_sample_history(staffed_ward()).export_log()
    header, records = text.splitlines()[0], parse_export(text)[1]
    renamed = _rechain(header, _edited(records, 0, community="Desk"))
    with pytest.raises(InvalidTemplate):
        replay(template, renamed)
    assert _replay_fails_at(template, text.replace('"community":"Ward",', '"community":"Desk",')) == 0
    # another community's log whose chain breaks later is refused where the chain breaks
    assert _replay_fails_at(template, _link_broken(renamed, 9)) == 9


def test_replay_fails_where_import_log_does_on_an_edit_left_unchained():
    template = parse_spec(WARD_SOURCE)
    text = drive_sample_history(staffed_ward()).export_log()
    for old, new, seq in (
        # 2e2 == 200 and true == 1 in Python, but their bytes, and so their digests, differ
        ('"evidence":9,"token"', '"evidence":9.0,"token"', 10),  # in an initiating payload
        ('"evidence":9,"from"', '"evidence":9e0,"from"', 11),  # in a derived record
        ('"seq":1,', '"seq":true,', 1),
        # a seq that is not a number is reported at the record's position
        ('"seq":2,', '"seq":"x",', 2),
        # a kind no set can hold, on a record no earlier event regenerates
        ('"seq":18,"kind":"binding"', '"seq":18,"kind":["binding"]', 18),
        # a seq out of place is reported at the larger of it and its position
        ('"seq":13,', '"seq":3,', 13),
        ('"seq":13,', '"seq":99,', 99),
    ):
        assert text.count(old) == 1, old
        respelled = text.replace(old, new)
        with pytest.raises(IntegrityError) as info:
            import_log(respelled)
        assert info.value.bad_seq == seq and type(info.value.bad_seq) is int, new
        assert _replay_fails_at(template, respelled) == seq
    # a dropped record is reported at the seq after it: the genesis, seq 3, or
    # the request whose verdict ends the log
    c = drive_sample_history(staffed_ward())
    c.submit_action("officer_1", "read_case")
    header, *lines = c.export_log().splitlines()
    assert c.records()[-2].kind == KIND_ACTION_REQUEST
    for seq in (0, 3, len(lines) - 2):
        dropped = "\n".join([header] + lines[:seq] + lines[seq + 1 :]) + "\n"
        with pytest.raises(IntegrityError) as info:
            import_log(dropped)
        assert info.value.bad_seq == seq + 1
        assert _replay_fails_at(template, dropped) == seq + 1


def test_a_log_with_two_faults_is_refused_where_its_chain_breaks():
    # a verdict forged and re-chained at seq 13, then a link broken at seq 16:
    # every input passes the chain check before the shadow runs, so replay
    # refuses the log where import_log does, with its message
    template = parse_spec(WARD_SOURCE)
    text = drive_sample_history(staffed_ward()).export_log()
    header, records = text.splitlines()[0], parse_export(text)[1]
    forged = _rechain(header, _edited(records, 13, outcome="blocked"))
    assert _replay_fails_at(template, forged) == 13
    broken = _link_broken(forged, 16)
    with pytest.raises(IntegrityError) as expected:
        import_log(broken)
    assert (expected.value.bad_seq, str(expected.value)) == (16, "broken chain link at seq 16")
    for given in (broken, list(parse_export(broken)[1])):
        with pytest.raises(IntegrityError) as info:
            replay(template, given)
        assert (info.value.bad_seq, str(info.value)) == (16, str(expected.value)), type(given)


def test_replay_hashes_each_record_once(monkeypatch):
    template = parse_spec(WARD_SOURCE)
    records = list(drive_sample_history(staffed_ward()).records())
    calls, made = [], []
    digest = runtime.record_digest
    monkeypatch.setattr(runtime, "record_digest", lambda *args: calls.append(args[1]) or digest(*args))
    monkeypatch.setattr(runtime, "AuditRecord", lambda *args: made.append(args))
    twin = replay(template, records)
    assert len(records) == 19
    assert calls == list(range(19))  # the chain check, once per record; the shadow hashes none
    assert made == []  # each regenerated record is confirmed, and the input record kept
    assert list(twin.records()) == records


def _count_digests(monkeypatch) -> list[int]:
    """Record the seq of each record_digest call."""
    calls = []
    digest = runtime.record_digest
    monkeypatch.setattr(runtime, "record_digest", lambda *args: calls.append(args[1]) or digest(*args))
    return calls


def test_replay_of_import_logs_records_hashes_none_of_them(monkeypatch):
    runs = {**_pinned_runs(), "ward": _ward_export(3_000)}
    calls = _count_digests(monkeypatch)
    for name, (template, export) in runs.items():
        calls.clear()
        _, checked = import_log(export)
        assert calls == list(range(len(checked))), name  # the chain check hashes each record once
        assert isinstance(checked, tuple), name
        with pytest.raises(TypeError):
            checked[0] = checked[1]
        calls.clear()
        twin = replay(template, checked)
        assert calls == [], name  # confirmed field by field, not hashed again
        assert twin.export_log() == export, name
        assert all(mine is theirs for mine, theirs in zip(twin.records(), checked, strict=True)), name
        # text, a list or a plain tuple, even of the same records, is hashed once per record
        for given in (export, list(checked), tuple(checked)):
            calls.clear()
            assert replay(template, given).export_log() == export, name
            assert calls == list(range(len(checked))), (name, type(given))


def test_an_edited_copy_of_an_imported_log_is_refused_where_import_log_refuses_its_text():
    # a copy of import_log's records is hashed again, so a record whose hash no
    # longer fits its fields is refused, the last one of the log included
    runs = {**_pinned_runs(), "ward": _ward_export(3_000)}
    for name, (template, export) in runs.items():
        header = export.splitlines()[0]
        _, checked = import_log(export)
        last = len(checked) - 1
        edits = []
        for seq in (0, last // 2, last):
            digest = checked[seq].hash
            edits.append((seq, dataclasses.replace(checked[seq], hash=digest[:-1] + "01"[digest[-1] == "0"])))
        seq = last // 3
        edits.append((seq, dataclasses.replace(checked[seq], detail={**checked[seq].detail, "event": -1})))
        seq = last * 3 // 5
        kind = KIND_ESCALATION if checked[seq].kind != KIND_ESCALATION else KIND_VERDICT
        edits.append((seq, dataclasses.replace(checked[seq], kind=kind)))
        seq = last * 4 // 5
        edits.append((seq, dataclasses.replace(checked[seq], actor=f"{checked[seq].actor}_x")))
        for seq, record in edits:
            edited = list(checked)
            edited[seq] = record
            text = "\n".join([header] + [r.to_line() for r in edited]) + "\n"
            with pytest.raises(IntegrityError) as expected:
                import_log(text)
            assert expected.value.bad_seq == seq, (name, seq)
            with pytest.raises(IntegrityError) as info:
                replay(template, edited)
            assert info.value.bad_seq == seq, (name, seq, str(info.value))


def _count_encodings(monkeypatch) -> list[tuple[str, object]]:
    """Record in order each encoder call the runtime makes, as (encoder name,
    value), and each record it writes, as ("record", record)."""
    calls = []
    for name in ("canonical_json", "_caller_json"):
        encode = getattr(runtime, name)
        monkeypatch.setattr(
            runtime, name, lambda value, name=name, encode=encode: calls.append((name, value)) or encode(value)
        )
    append = CommunityInstance._append

    def logged(self, *args):
        record = append(self, *args)
        calls.append(("record", record))
        return record

    monkeypatch.setattr(CommunityInstance, "_append", logged)
    return calls


def test_each_record_is_encoded_once(monkeypatch):
    calls = _count_encodings(monkeypatch)
    c = drive_sample_history(staffed_ward())
    c.submit_action("officer_1", "read_case", effects=[{"object": "Ledger", "key": "k", "value": 1}])
    filed = {"action": "file", "holder": "officer_1"}
    burden = c.apply_speech_act(SpeechAct(SpeechActKind.DECLARE_BURDEN, "officer_1", filed)).token_id
    c.apply_speech_act(SpeechAct(SpeechActKind.TRANSFER, "officer_1", {"token": burden, "to": "reviewer_1"}))
    c.bind_agent("Bot", "bot_1", "llm_agent", "Vendor")
    c.apply_speech_act(SpeechAct(SpeechActKind.PROPOSE, "bot_1", {"body": {2: "two", 10: "ten"}}))
    c.set_mode(MODE_SUPERVISED)
    assert c.submit_action("bot_1", "close_case").verdict.outcome == "blocked"  # and escalates
    # each record's writer composes its text; canonical_json encodes only a
    # value inside it that the caller shaped, never a whole detail, and each once.
    # _log_act encodes every speech act's payload: the boundary's copy, or the
    # fields a discharge or a transfer read
    written, values = [], []
    for name, value in calls:
        if name == "record":
            written.append((value, values))
            values = []
        elif name == "canonical_json":
            values.append(value)
    assert values == [] and [r for r, _ in written] == list(c.records())
    encoding = []
    for record, values in written:
        keys = [key for key, member in record.detail.items() if any(member is v for v in values)]
        assert len(keys) == len(values), (record.seq, values)
        if keys:
            encoding.append((record.kind, keys))
    act = (KIND_SPEECH_ACT, ["payload"])
    assert encoding == [
        (KIND_GENESIS, ["community", "mode", "owner", "disciplines"]),
        act,  # declare
        act,  # discharge
        act,  # grant
        (KIND_ACTION_REQUEST, ["effects"]),  # the copy's, encoded afresh
        act,  # declare
        act,  # transfer
        (KIND_TOKEN_TRANSITION, ["holder", "link"]),  # a delegation's return to HELD
        act,  # propose, its body's integer keys made strings in the copy
        (KIND_MODE_CHANGE, ["from", "to"]),
        (KIND_ESCALATION, ["condition"]),
    ]
    # the boundary checks each payload, and the request that has effects; a
    # request without effects is written from its action and subject
    checked = sum(name == "_caller_json" for name, _ in calls)
    assert checked == sum(r.kind == KIND_SPEECH_ACT for r in c.records()) + 1 == 7
    calls.clear()
    text = c.export_log()
    assert calls == []  # the export writes each record's text as it is
    _, records = parse_export(text)
    assert [name for name, _ in calls] == ["canonical_json"] * len(records)  # once per parsed record
    calls.clear()
    verify_chain(records)
    assert calls == []


def test_a_written_record_is_the_record_its_fields_make():
    # the runtime makes its records without AuditRecord's type checks, as the
    # same frozen, comparable and replaceable records
    for r in drive_sample_history(staffed_ward()).records():
        made = AuditRecord(r.seq, r.kind, r.actor, r.detail, r.prev_hash, r.hash)
        assert type(r) is AuditRecord and not hasattr(r, "__dict__")
        assert (r, repr(r), r.detail_json) == (made, repr(made), made.detail_json)
        for f in dataclasses.fields(AuditRecord):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, f.name, getattr(r, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(r, f.name)
        assert dataclasses.replace(r) == r
        edited = dataclasses.replace(r, detail={**r.detail, "event": -1})
        assert edited.detail_json == canonical_json(edited.detail) != r.detail_json


class _Disguised(str):
    """A str whose printing, formatting and ordering all disagree with its text."""

    def __str__(self):
        return "disguised"

    def __format__(self, spec):
        return "disguised"

    def __lt__(self, other):
        return str.__gt__(self, other)


# text that JSON escapes: non-ASCII, astral, quote, backslash, control characters, a lone surrogate
_AWKWARD = 'é ☃ 𝄞 "q" \\ \x00\x1f\n \ud800'


def test_every_writer_writes_a_disguised_or_awkward_string_as_its_text():
    d = _Disguised
    template = parse_spec(_WARD_WITH_HISTORY)
    owner = Principal(d(f"Clinic {_AWKWARD}"), d(_AWKWARD), d("organization"))
    c = instantiate_community(template, d(MODE_SUPERVISED), owner, {"CaseFile": "read_write"})
    vendor = c.register_principal(d(f"Vendor {_AWKWARD}"), d(_AWKWARD), d("natural_person"))
    # each agent's name, and a str subclass of the same text
    texts = [f"{name} {_AWKWARD}" for name in ("officer", "reviewer", "bot")]
    (officer_text, reviewer_text, bot_text), (officer, reviewer, bot) = texts, map(d, texts)
    c.bind_agent(d("Officer"), officer, "human", owner.id)
    c.bind_agent(d("Reviewer"), reviewer, "human", owner.id)
    c.bind_agent(d("Bot"), bot, "llm_agent", vendor.id)
    c.bind_agent(d("Officer"), d("officer_2"), "human", owner.id)

    def act(kind, sender, payload, accepted=True):
        result = c.apply_speech_act(SpeechAct(kind, sender, payload))
        assert result.accepted is accepted, (kind, result.reason)
        return result

    # payloads of exact strings and ints: the copy holds what was sent
    every_field = {
        "action": f"sign {_AWKWARD}", "holder": officer_text, "subject": _AWKWARD, "deadline": c.head_seq + 8,
        "requires_action": f"check {_AWKWARD}", "unless_action": f"waive {_AWKWARD}", "unless_target": "Reviewer",
    }
    act(SpeechActKind.DECLARE_BURDEN, officer, every_field)
    moved = act(SpeechActKind.DECLARE_BURDEN, officer, {"action": f"file {_AWKWARD}", "holder": officer_text})
    act(SpeechActKind.TRANSFER, officer, {"token": moved.token_id, "to": reviewer_text})
    act(SpeechActKind.DISCHARGE, reviewer, {"token": moved.token_id, "evidence": 1})
    granted = act(SpeechActKind.GRANT, officer, {"action": f"read {_AWKWARD}", "to": bot_text, "subject": _AWKWARD})
    # payloads whose copy holds other types than were sent: keys of a str subclass, integer keys, tuple values
    act(SpeechActKind.DECLARE_EMBARGO, officer, {d("action"): f"shred {_AWKWARD}", d("holder"): "Bot"})
    act(SpeechActKind.GRANT, bot, {7: (d(_AWKWARD), 1.5), 10: _AWKWARD}, accepted=False)
    # verdicts: admitted with permits; blocked with blockers, escalating with a review burden; without a permit
    c.submit_action(bot, d(f"read {_AWKWARD}"), d(_AWKWARD))
    c.submit_action(bot, d(f"shred {_AWKWARD}"), d(_AWKWARD))
    effect = {"object": "CaseFile", "op": "put", "key": d("k"), "value": {2: (d(_AWKWARD),), 10: 1}}
    c.submit_action(officer, d(_AWKWARD), d(_AWKWARD), [effect])
    act(SpeechActKind.REVOKE, officer, {"token": granted.token_id})
    c.set_mode(d(MODE_ADVISORY), by=officer)
    # recommendations a human approves (admitted again) and rejects
    act(SpeechActKind.GRANT, officer, {"action": f"read {_AWKWARD}", "to": bot_text})
    for decision in (SpeechActKind.ACCEPT, SpeechActKind.REJECT):
        request = c.submit_action(bot, d(f"read {_AWKWARD}"), d(_AWKWARD)).request_seq
        act(decision, reviewer, {"request_seq": request})
    act(SpeechActKind.PROPOSE, bot, {"body": {3: (d(_AWKWARD), None)}})
    act(SpeechActKind.REJECT, reviewer, {"body": _AWKWARD})
    c.unbind_agent(d("Officer"), d("officer_2"))

    records = c.records()
    verdicts = [r.detail for r in records if r.kind == KIND_VERDICT]
    assert {"permits", "approved_by"} <= set().union(*verdicts) and any("blockers" in v for v in verdicts)
    assert {"no-permit", "embargo", "rejected"} <= {v.get("reason") for v in verdicts}
    transitions = [r.detail for r in records if r.kind == KIND_TOKEN_TRANSITION]
    moves = {t["to"] for t in transitions if t["from"] != "CREATED"}
    assert moves == {"DELEGATED", "HELD", "DISCHARGED", "REVOKED", "VIOLATED"}
    assert any({"subject", "deadline", "requires", "unless_action", "unless_target"} <= set(t) for t in transitions)
    assert any({"request", "burden"} <= set(r.detail) for r in records if r.kind == KIND_ESCALATION)
    for r in records:
        assert r.detail_json == canonical_json(r.detail), r.seq
    text = c.export_log()
    assert replay(template, text).export_log() == text
    # a reason is never the caller's, so the writers that log one are called directly
    with c:
        c._begin_event()
        c._log_verdict(0, bot, d(_AWKWARD), d(_AWKWARD), deontic.Verdict("blocked", (1, 2), (3,), d(_AWKWARD)), reviewer)
        c._log_act(bot, SpeechActKind.GRANT, {"to": _AWKWARD}, d(_AWKWARD))
    for r in c.records()[-2:]:
        assert r.detail_json == canonical_json(r.detail), r.seq


def test_canonical_json_writes_what_the_standard_encoder_writes():
    standard = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    checking = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode

    class Name(str):
        pass

    values = [
        -0.0,
        1e16,
        1.5,
        float("nan"),
        float("inf"),
        "é ☃ 𝄞 \u2028",
        "\x00\x1f\n\t\"\\/",
        [True, 1, False, 0, None],
        {"b": [{"z": 1, "a": [[], {}]}], "a": {"y": {"x": [1.0, -1]}}},
        {2: "two", 10: "ten", -1: None},
        Name("bot_1"),
        {Name("k"): Name("v"), "j": [Name("w")]},
    ]
    for value in values:
        if value in (float("inf"), -float("inf")) or value != value:
            with pytest.raises(ValueError):  # NaN and the infinities are not JSON
                canonical_json(value)
        else:
            assert canonical_json(value) == standard(value), value
    # the boundary's prebuilt encoder writes what the checking encoder writes,
    # and refuses what it refuses
    for value in values:
        if value in (float("inf"), -float("inf")) or value != value:
            for encode in (checking, runtime._caller_json):
                with pytest.raises(ValueError):
                    encode(value)
        else:
            assert runtime._caller_json(value) == checking(value), value
    for bad in (-float("inf"), [1, {"x": float("nan")}], {"a": [float("inf")]}):
        for encode in (canonical_json, runtime._caller_json):
            with pytest.raises(ValueError):
                encode(bad)
    for name, (_, export) in _pinned_runs().items():
        for r in parse_export(export)[1]:
            fields = {"seq": r.seq, "kind": r.kind, "actor": r.actor, "detail": r.detail}
            assert canonical_json(r.detail) == standard(r.detail) == r.detail_json, (name, r.seq)
            assert canonical_json(fields) == standard(fields), (name, r.seq)
            assert runtime._caller_json(r.detail) == r.detail_json, (name, r.seq)
    # what the standard encoder refuses, the prebuilt one refuses too
    for bad in ({1, 2}, {"a": object()}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            standard(bad)
        with pytest.raises(TypeError):
            canonical_json(bad)
    for bad in ({1, 2}, {"a": object()}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            runtime._caller_json(bad)
    # only the boundary looks for cycles; the canonical encoder never meets one
    loop: list = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        runtime._caller_json(loop)
    with pytest.raises(RecursionError):
        canonical_json(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        runtime._caller_json({"a": [1, {"b": loop}]})
    # deep acyclic nesting: the same outcome as the checking encoder at 5,000 levels
    # (a RecursionError where the C recursion limit is the interpreter's, before
    # 3.12), and a RecursionError past every supported interpreter's limit
    for depth in (5_000, 100_000):
        deep = _nested(depth)
        try:
            expected = checking(deep)
        except RecursionError:
            with pytest.raises(RecursionError):
                runtime._caller_json(deep)
        else:
            assert depth == 5_000 and runtime._caller_json(deep) == expected


def _nested(depth: int) -> list:
    """A list nested `depth` levels deep, without a cycle."""
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"), "cycle", "deep"],
    ids=["nan", "inf", "minus_inf", "cycle", "nested_past_the_recursion_limit"],
)
def test_a_caller_value_json_cannot_log_is_refused_before_its_event(value):
    if value == "cycle":
        value = {"k": []}
        value["k"].append(value)
    elif value == "deep":
        value = _nested(100_000)
    c = staffed_ward(source=_WARD_WITH_HISTORY)
    state = (c.records(), c.event_count)
    for call in (
        lambda: c.submit_action("officer_1", "read_case", effects=[{"object": "Ledger", "key": "k", "value": value}]),
        lambda: c.apply_speech_act(SpeechAct(SpeechActKind.PROPOSE, "bot_1", {"body": value})),
    ):
        with pytest.raises((ValueError, RecursionError)):
            call()
        assert (c.records(), c.event_count) == state
    text = c.export_log()
    assert replay(parse_spec(_WARD_WITH_HISTORY), text).export_log() == text


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_an_export_holding_a_number_json_does_not_have_is_unreadable(literal, tmp_path, capsys):
    # the boundary refuses NaN and the infinities, so no run writes one. Here
    # seq 8 of the Ward sample holds one in its detail, and the chain is rebuilt
    # over the detail as json.dumps writes it (1e999 reads as inf, written Infinity)
    template = parse_spec(WARD_SOURCE)
    header, *lines = drive_sample_history(staffed_ward()).export_log().splitlines()
    raws = [json.loads(line) for line in lines]
    raws[8]["detail"]["note"] = float(literal)
    prev = GENESIS_PREV_HASH
    for raw in raws:
        raw["prev_hash"] = prev
        detail_json = json.dumps(raw["detail"], sort_keys=True, separators=(",", ":"))
        raw["hash"] = prev = record_digest(prev, raw["seq"], raw["kind"], raw["actor"], detail_json)
    text = "\n".join([header] + [json.dumps(raw, separators=(",", ":")) for raw in raws]) + "\n"
    if literal == "1e999":
        text = text.replace('"note":Infinity', '"note":1e999')
    assert text.count(f'"note":{literal}') == 1
    for read in (parse_export, import_log, lambda text: replay(template, text)):
        with pytest.raises(IntegrityError, match="unreadable record on line 10") as info:
            read(text)
        assert info.value.bad_seq == 8
    trace = tmp_path / "nonfinite.audit"
    trace.write_text(text, encoding="utf-8")
    for argv in (["audit", "--trace", str(trace)], ["verify", "--trace", str(trace), "--property", "accountability"]):
        assert main(argv) == EXIT_INTEGRITY, argv
        assert capsys.readouterr().err.startswith("integrity failure at seq 8:"), argv


def test_integer_keys_in_caller_values_replay_byte_for_byte():
    # JSON makes an integer key a string, and strings sort otherwise than
    # integers: the text of a copy is not the text its boundary check wrote
    c = staffed_ward(source=_WARD_WITH_HISTORY)
    value = {2: "two", 10: {3: "three", 20: ["twenty"]}}
    effect = {"object": "Ledger", "op": "append", "key": "n1", "value": value}
    c.submit_action("officer_1", "read_case", "case1", effects=[effect])
    body = {"terms": {1: "a", 10: {5: "b", 40: "c"}}}
    assert c.apply_speech_act(SpeechAct(SpeechActKind.PROPOSE, "bot_1", {"body": body})).accepted
    rejected = {"action": "screen_case", "holder": "Officer", "extra": {9: 1, 11: 2}}
    assert not c.apply_speech_act(SpeechAct(SpeechActKind.DECLARE_BURDEN, "bot_1", rejected)).accepted
    request = next(r for r in c.records() if r.kind == KIND_ACTION_REQUEST)
    assert '"value":{"10":{"20":["twenty"],"3":"three"},"2":"two"}' in request.detail_json
    for r in c.records():
        assert r.detail_json == canonical_json(r.detail), r.seq
    text = c.export_log()
    assert replay(parse_spec(_WARD_WITH_HISTORY), text).export_log() == text


def test_a_record_carries_its_detail_text():
    record = staffed_ward().records()[-1]
    assert record.detail_json == canonical_json(record.detail)
    assert "detail_json" not in repr(record)
    # the text is not part of equality: a record read back equals the one written
    r = record
    assert runtime._written_record(r.seq, r.kind, r.actor, r.detail, r.prev_hash, r.hash, "{}") == record
    # a replaced detail is encoded afresh
    edited = dataclasses.replace(record, detail={"event": 7, "b": [1.5, None], "a": True})
    assert edited.detail_json == '{"a":true,"b":[1.5,null],"event":7}'
    assert dataclasses.replace(record, kind="other").detail_json == record.detail_json


def test_replay_keeps_the_input_records():
    template = parse_spec(WARD_SOURCE)
    text = drive_sample_history(staffed_ward()).export_log()
    _, records = parse_export(text)
    twin = replay(template, records)
    assert all(mine is theirs for mine, theirs in zip(twin.records(), records, strict=True))
    assert twin.export_log() == text
    # the twin goes on writing after the records it took over
    twin.submit_action("officer_1", "read_case")
    assert replay(template, twin.export_log()).export_log() == twin.export_log()


def _four_key_digest(prev_hash, seq, kind, actor, detail):
    """The digest as the canonical encoding of the four hashed fields defines it."""
    payload = canonical_json({"seq": seq, "kind": kind, "actor": actor, "detail": detail})
    return hashlib.sha256((prev_hash + payload).encode("utf-8")).hexdigest()


def test_record_digest_is_the_canonical_encoding_of_the_hashed_fields():
    for name, (_, export) in _pinned_runs().items():
        for r in parse_export(export)[1]:
            expected = _four_key_digest(r.prev_hash, r.seq, r.kind, r.actor, r.detail)
            assert record_digest(r.prev_hash, r.seq, r.kind, r.actor, r.detail_json) == expected, (name, r.seq)
            assert r.hash == expected, (name, r.seq)


_ILL_TYPED = (
    # (seq, kind, actor, detail, prev_hash, hash) with one or more fields of the wrong type
    (True, "binding", "bot_1", {}, "a", "b"),
    (1.0, "binding", None, {}, "a", "b"),
    ("x", "binding", "bot_1", {}, "a", "b"),
    (4, ["binding"], "bot_1", {}, "a", "b"),
    (4, "binding", 7, {}, "a", "b"),
    (4, {"b": 1, "a": [True]}, ["bot", None], {}, "a", "b"),
    (4, "binding", None, [1, 2], "a", "b"),
    (4, "binding", None, {}, None, "b"),
    (4, "binding", None, {}, "a", 7),
)


def test_a_record_refuses_a_field_of_the_wrong_type():
    for fields in _ILL_TYPED:
        with pytest.raises(TypeError):
            AuditRecord(*fields)
    template = parse_spec(WARD_SOURCE)
    text = drive_sample_history(staffed_ward()).export_log()
    lines = text.splitlines()
    for position in (0, 6, 18):
        for seq, kind, actor, detail, prev_hash, digest in _ILL_TYPED:
            raw = json.loads(lines[position + 1])
            raw.update(seq=seq, kind=kind, actor=actor, detail=detail, prev_hash=prev_hash, hash=digest)
            forged = "\n".join(lines[: position + 1] + [json.dumps(raw)] + lines[position + 2 :]) + "\n"
            for read in (parse_export, import_log, lambda t: replay(template, t)):
                with pytest.raises(IntegrityError) as info:
                    read(forged)
                assert info.value.bad_seq == position, (position, raw)


# the immutable values an event builds: each a NamedTuple, with its fields and defaults
EVENT_VALUES = {
    deontic.HolderRef: (("kind", "name"), {}),
    deontic.ChainLink: (("frm", "to", "at"), {}),
    deontic.DelegationChain: (("links",), {}),
    deontic.Verdict: (
        ("outcome", "permits", "blockers", "reason"),
        {"permits": (), "blockers": (), "reason": None},
    ),
    runtime.RoleBinding: (("role", "agent", "agent_kind", "principal", "bound_at"), {}),
    runtime.ActionResult: (("verdict", "request_seq", "verdict_seq"), {}),
    runtime.ApplyResult: (
        ("accepted", "reason", "seq", "token_id"),
        {"reason": None, "seq": None, "token_id": None},
    ),
    runtime._Pending: (("actor", "action", "subject", "effects"), {}),
}


def test_event_values_are_immutable_tuples_with_their_fields_and_defaults():
    for cls, (fields, defaults) in EVENT_VALUES.items():
        assert issubclass(cls, tuple), cls
        assert (cls._fields, cls._field_defaults) == (fields, defaults), cls
        value = cls(*fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    assert deontic.Verdict("blocked") == deontic.Verdict("blocked", (), (), None)
    assert runtime.ApplyResult(False) == runtime.ApplyResult(False, None, None, None)


def test_event_values_behave_as_they_did_as_dataclasses():
    c = staffed_ward()
    binding = c.bind_agent("Officer", "officer_2", "human", "Clinic")
    assert binding == runtime.RoleBinding("Officer", "officer_2", RoleKind.HUMAN, "Clinic", c.head_seq)
    assert binding in c.bindings()

    blocked = deontic.check_action_admissible(c.tokens, c.roster, "bot_1", "close_case", "case1")
    embargo = next(t.id for t in c.tokens if t.action == "close_case")
    assert blocked == deontic.Verdict("blocked", blockers=(embargo,), reason="embargo")
    assert not blocked.admissible
    assert deontic.Verdict("admissible", permits=(2,)).admissible

    declared = c.apply_speech_act(
        SpeechAct(SpeechActKind.DECLARE_BURDEN, "officer_1", {"action": "sign", "holder": "officer_1"})
    )
    assert declared == runtime.ApplyResult(True, None, c.head_seq - 1, len(c.tokens))
    moved = c.apply_speech_act(
        SpeechAct(SpeechActKind.TRANSFER, "officer_1", {"token": declared.token_id, "to": "officer_2"})
    )
    assert (moved.accepted, moved.token_id) == (True, declared.token_id)
    chain = c.tokens.get(declared.token_id).chain
    link = deontic.ChainLink("officer_1", "officer_2", moved.seq)
    assert chain == deontic.DelegationChain((deontic.ChainLink("Clinic", "officer_1", declared.seq), link))
    assert (chain.head, chain.links[-1], chain.nodes()) == ("Clinic", link, {"Clinic", "officer_1", "officer_2"})
    assert chain.extended("officer_2", "bot_1", 99).links == chain.links + (deontic.ChainLink("officer_2", "bot_1", 99),)
    holder = c.tokens.get(declared.token_id).holder
    assert holder == HolderRef(HolderKind.AGENT, "officer_2")
    assert holder.to_detail() == {"kind": "agent", "name": "officer_2"}
    refused = c.apply_speech_act(SpeechAct(SpeechActKind.REVOKE, "officer_1", {"token": declared.token_id}))
    assert refused == runtime.ApplyResult(False, "NotRevocable", c.head_seq)

    result = c.submit_action("bot_1", "close_case", "case1")
    assert result == runtime.ActionResult(blocked, c.head_seq - 1, c.head_seq)

    advisory = staffed_ward(MODE_ADVISORY)
    advisory.apply_speech_act(SpeechAct(SpeechActKind.GRANT, "officer_1", {"action": "read_case", "to": "bot_1"}))
    effects = [{"object": "CaseFile", "key": "k", "value": 1}]
    recommended = advisory.submit_action("bot_1", "read_case", "case1", effects)
    pending = advisory._pending[recommended.request_seq]
    assert pending == runtime._Pending("bot_1", "read_case", "case1", (runtime.ObjectWrite("CaseFile", "append", "k", 1),))


def test_a_template_is_validated_once(monkeypatch):
    calls = []
    validate = runtime.validate_template
    monkeypatch.setattr(runtime, "validate_template", lambda t: calls.append(t) or validate(t))
    template = parse_spec(WARD_SOURCE)
    for mode in (MODE_AUTONOMOUS, MODE_ADVISORY, MODE_AUTONOMOUS):
        instantiate_community(template, mode)
    replay(template, instantiate_community(template).export_log())
    assert len(calls) == 1 and calls[0] is template
    # an equal template that is another object is checked on its own
    instantiate_community(parse_spec(WARD_SOURCE))
    assert len(calls) == 2
    # an invalid template is refused every time
    broken = parse_spec(WARD_SOURCE.replace("Reviewer;", "Nobody;"))
    for _ in range(2):
        with pytest.raises(InvalidTemplate):
            instantiate_community(broken)
    assert len(calls) == 4 and calls[2] is calls[3] is broken


_WARD_WITH_HISTORY = WARD_SOURCE.replace(
    "object Ledger;", "object Ledger;\n  object NegotiationHistory;"
)


@pytest.mark.parametrize("mode", [MODE_AUTONOMOUS, MODE_ADVISORY])
def test_caller_values_are_copied_at_the_boundary(mode):
    # the objects journal their own copy: a caller that changes an effect value or a
    # payload after the call changes neither the live objects nor what replay rebuilds
    c = staffed_ward(mode, source=_WARD_WITH_HISTORY)
    declare = {"action": "screen_case", "holder": "Officer", "subject": "case1"}
    c.apply_speech_act(SpeechAct(SpeechActKind.DECLARE_BURDEN, "officer_1", declare))
    token = max(t.id for t in c.tokens)
    c.apply_speech_act(SpeechAct(SpeechActKind.DISCHARGE, "officer_1", {"token": token}))
    note, body = {"text": ["a"]}, {"terms": ["a"]}
    effect = {"object": "Ledger", "op": "append", "key": "n1", "value": note}
    result = c.submit_action("bot_1", "read_case", "case1", effects=[effect])
    note["text"].append("MUTATED")  # in advisory mode, while the effect is pending
    if mode == MODE_ADVISORY:
        approve = {"request_seq": result.request_seq}
        assert c.apply_speech_act(SpeechAct(SpeechActKind.ACCEPT, "reviewer_1", approve)).accepted
        note["text"].append("MUTATED")
    assert c.apply_speech_act(SpeechAct(SpeechActKind.PROPOSE, "bot_1", {"body": body})).accepted
    body["terms"].append("MUTATED")

    assert c.objects["Ledger"].state() == {"n1": {"text": ["a"]}}
    [entry] = c.objects["NegotiationHistory"].state().values()
    assert entry["body"] == {"terms": ["a"]}
    twin = replay(parse_spec(_WARD_WITH_HISTORY), c.export_log())
    assert {name: obj.digest() for name, obj in twin.objects.items()} == {
        name: obj.digest() for name, obj in c.objects.items()
    }


def test_clone_isolates_state():
    c = staffed_ward()
    twin = c.clone()
    twin.submit_action("bot_1", "read_case")
    assert len(twin.records()) == len(c.records()) + 2
    c.apply_speech_act(
        SpeechAct(
            SpeechActKind.DECLARE_BURDEN,
            "officer_1",
            {"action": "screen_case", "holder": "Officer"},
        )
    )
    assert len(list(twin.tokens)) + 1 == len(list(c.tokens))
    token = next(iter(c.tokens))
    with pytest.raises(AttributeError):
        token.state = TokenState.REVOKED

    # a transition in either copy leaves the other's tokens as they were
    base = staffed_ward()
    base.bind_agent("Officer", "officer_2", "human", "Clinic")

    def declare(kind, payload):
        result = base.apply_speech_act(SpeechAct(kind, "officer_1", payload))
        assert result.accepted
        return result.token_id

    moved = declare(SpeechActKind.DECLARE_BURDEN, {"action": "sign", "holder": "officer_1"})
    done = declare(SpeechActKind.DECLARE_BURDEN, {"action": "file", "holder": "officer_1"})
    granted = declare(SpeechActKind.GRANT, {"action": "close_case", "to": "bot_1"})
    # overdue as soon as the next event begins
    due = declare(
        SpeechActKind.DECLARE_BURDEN,
        {"action": "audit", "holder": "officer_1", "deadline": base.head_seq + 1},
    )

    def tokens_of(c):
        return {t.id: (t.state, t.holder, t.chain) for t in c.tokens}

    def move_every_token(c):
        for kind, payload in (
            (SpeechActKind.TRANSFER, {"token": moved, "to": "officer_2"}),
            (SpeechActKind.DISCHARGE, {"token": done}),
            (SpeechActKind.REVOKE, {"token": granted}),
        ):
            assert c.apply_speech_act(SpeechAct(kind, "officer_1", payload)).accepted
        states = c.tokens.states()
        assert [states[i] for i in (moved, done, granted, due)] == [
            "HELD", "DISCHARGED", "REVOKED", "VIOLATED"
        ]
        assert c.tokens.get(moved).chain.participants()[-1] == "officer_2"

    before = tokens_of(base)
    twin = base.clone()
    move_every_token(twin)
    assert tokens_of(base) == before
    twin = base.clone()
    move_every_token(base)
    assert tokens_of(twin) == before


# ----------------------------------------------------------------------
# export bytes pinned by digest
#
# Replay round trips cannot catch a change in how a record is written,
# because the original run and the replay change together. These pins hold
# the head hash of fixed runs, so any change to a record's bytes, to the
# order of records within an event, or to token id allocation shows.

_NO_POLICY_RULE = DESK_SOURCE.replace("    escalate when policy_violation to Reviewer;\n", "")


def _listen_failing_on(c, failing):
    def listener(record):
        seen.append(record.seq)
        if failing(record):
            raise RuntimeError(f"listener failed on seq {record.seq}")

    seen = []
    c.add_listener(listener)
    return seen


def test_a_failing_listener_sees_the_event_whole_and_undoes_nothing():
    template = parse_spec(DESK_SOURCE)
    c = instantiate_community(template)
    c.bind_agent("Officer", "officer_1", "human", "community_owner")
    c.bind_agent("Bot", "bot_1", "llm_agent", "community_owner")
    seen = _listen_failing_on(c, lambda r: r.kind == KIND_TOKEN_TRANSITION and r.detail["from"] == "CREATED")
    burden = {"action": "sign", "holder": "officer_1"}
    with pytest.raises(RuntimeError, match="seq 7"):
        c.apply_speech_act(SpeechAct(SpeechActKind.DECLARE_BURDEN, "officer_1", burden))
    # the act and its token are logged, and no rejection follows them
    assert [(r.kind, r.detail.get("rejected")) for r in c.records()[6:]] == [
        (KIND_SPEECH_ACT, None),
        (KIND_TOKEN_TRANSITION, None),
    ]
    assert seen == [6, 7] and len(c.tokens) == 4
    failing = _listen_failing_on(c, lambda r: r.kind == KIND_ACTION_REQUEST)
    after = _listen_failing_on(c, lambda r: False)
    with pytest.raises(RuntimeError, match="seq 8"):
        c.submit_action("bot_1", "read_case")
    # the request has its verdict, and every listener saw both
    assert [r.kind for r in c.records()[8:]] == [KIND_ACTION_REQUEST, KIND_VERDICT]
    assert seen == [6, 7, 8, 9] and failing == after == [8, 9]
    assert replay(template, c.export_log()).export_log() == c.export_log()


_READERS = ("clone", "export_log")


@pytest.mark.parametrize(
    "call_back", ("apply_speech_act", "attach", "register_principal", "set_mode", "submit_action") + _READERS
)
def test_a_listener_that_calls_back_never_wedges_its_instance(call_back):
    template = parse_spec(DESK_SOURCE)
    c = instantiate_community(template)
    c.bind_agent("Officer", "officer_1", "human", "community_owner")
    c.bind_agent("Bot", "bot_1", "llm_agent", "community_owner")
    monitor, fed = TraceMonitor([PropertySpec.accountability()], template), []
    monitor.feed = fed.append
    burden = {"action": "sign", "holder": "officer_1"}
    call = {
        "apply_speech_act": lambda: c.apply_speech_act(SpeechAct(SpeechActKind.DECLARE_BURDEN, "officer_1", burden)),
        "attach": lambda: monitor.attach(c),
        "register_principal": lambda: c.register_principal("Latecomer"),
        "set_mode": lambda: c.set_mode(MODE_SUPERVISED),
        "submit_action": lambda: c.submit_action("officer_1", "sign"),
        "clone": lambda: c.clone().export_log(),
        "export_log": c.export_log,
    }[call_back]
    before, events, tokens = len(c.records()), c.event_count, c.tokens.states()
    seen, outcome = [], []
    c.add_listener(lambda record: seen.append(call()))

    def outer():
        try:
            outcome.append(c.submit_action("bot_1", "read_case"))
        except Exception as exc:
            outcome.append(exc)

    # run in a thread of its own, so that a wedged instance fails the test instead of hanging it
    thread = threading.Thread(target=outer, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), f"{call_back} from a listener wedged the instance"
    # the outer event is logged whole, and the inner call left no record, event or state
    assert [r.kind for r in c.records()[before:]] == [KIND_ACTION_REQUEST, KIND_VERDICT]
    assert (c.event_count, c.tokens.states(), c.mode) == (events + 1, tokens, MODE_AUTONOMOUS)
    assert not c.roster.is_principal("Latecomer") and fed == []
    export = c.export_log()
    if call_back in _READERS:
        assert outcome[0].verdict.outcome == "blocked"
        # each record's listener saw the log as it stands at the event's end
        assert seen == [export, export]
    else:
        assert isinstance(outcome[0], ProtocolViolation) and seen == []
    assert replay(template, export).export_log() == export


def test_escalate_whose_burden_cannot_be_created_logs_one_rejection():
    # a bot force-bound without a principal cannot issue the review burden
    c = instantiate_community(parse_spec(DESK_SOURCE))
    c.force_bind("Bot", "bot_1", "llm_agent", "")
    result = c.apply_speech_act(
        SpeechAct(SpeechActKind.ESCALATE, "bot_1", {"condition": "low_confidence"})
    )
    assert (result.accepted, result.reason) == (False, "UnknownIssuer")
    # genesis, the three policy tokens, the bind, then the event's one record
    records = c.records()
    assert [r.kind for r in records] == [KIND_GENESIS] + [KIND_TOKEN_TRANSITION] * 3 + [
        KIND_BINDING,
        KIND_SPEECH_ACT,
    ]
    detail = records[-1].detail
    assert (detail["kind"], detail["rejected"], detail["reason"]) == (
        "escalate",
        True,
        "UnknownIssuer",
    )
    export = c.export_log()
    assert replay(parse_spec(DESK_SOURCE), export).export_log() == export


def test_escalate_with_a_non_string_subject_is_malformed():
    # the review burden's subject would become a key of the store's discharge index
    c = instantiate_community(parse_spec(DESK_SOURCE))
    c.register_principal("Vendor")
    c.bind_agent("Bot", "bot_1", "llm_agent", "Vendor")
    tokens = c.tokens.states()
    payload = {"condition": "low_confidence", "subject": ["case1"]}
    result = c.apply_speech_act(SpeechAct(SpeechActKind.ESCALATE, "bot_1", payload))
    assert (result.accepted, result.reason) == (False, "MalformedPayload")
    assert c.tokens.states() == tokens
    export = c.export_log()
    assert replay(parse_spec(DESK_SOURCE), export).export_log() == export


# each field of a payload is sent absent, and as each of these JSON values
_ABSENT = object()
_FIELD_VALUES = (_ABSENT, None, True, 1, 2.5, "s", [], {})


def _every_payload_field():
    """(kind, field) for each field of every speech act's CALLER_FIELDS entry, and one field outside it."""
    return [
        (kind, name)
        for kind in SpeechActKind
        for name in [*(name for name, _, _ in runtime.CALLER_FIELDS[kind]), "note"]
    ]


def _send_every_field_value(c, cases):
    """Staff the advisory Desk `c`, then send each case's act with its field as each of _FIELD_VALUES.

    Before each send, a few preparing acts (each may be refused) set up the
    state in which the act's base payload applies: a fresh burden to move, a
    permit to revoke, a pending recommendation or proposal. Each varied act
    must apply, or log one rejection after the burdens its event found
    overdue and change no token or binding; it never raises.
    """

    def say(kind, sender, **payload):
        return c.apply_speech_act(SpeechAct(kind, sender, payload))

    def burden():
        return say(SpeechActKind.DECLARE_BURDEN, "officer_1", action="sign", holder="officer_1").token_id

    def recommendation():
        return c.submit_action("bot_1", "export_case", "case1").request_seq

    def no_proposal():
        say(SpeechActKind.REJECT, "reviewer_1")  # refused when none is pending

    def proposal():
        no_proposal()
        say(SpeechActKind.PROPOSE, "bot_1")

    declare = {
        "action": "sign", "holder": "officer_1", "subject": "case1", "deadline": 10**6,
        "requires_action": "screen_case", "unless_action": "override_close", "unless_target": "Reviewer",
    }
    base = {
        SpeechActKind.DECLARE_BURDEN: ("officer_1", lambda: declare),
        SpeechActKind.DECLARE_PERMIT: ("officer_1", lambda: declare),
        SpeechActKind.DECLARE_EMBARGO: ("officer_1", lambda: declare),
        SpeechActKind.GRANT: (
            "officer_1", lambda: {"action": "read_case", "to": "bot_1", "subject": "case1", "requires_action": "screen_case"}
        ),
        SpeechActKind.TRANSFER: ("officer_1", lambda: {"token": burden(), "to": "officer_2"}),
        SpeechActKind.DISCHARGE: ("officer_1", lambda: {"token": burden(), "evidence": c.head_seq}),
        SpeechActKind.REVOKE: (
            "officer_1", lambda: {"token": say(SpeechActKind.GRANT, "officer_1", action="read_case", to="bot_2").token_id}
        ),
        SpeechActKind.PROPOSE: ("bot_1", lambda: no_proposal() or {"body": "plan"}),
        SpeechActKind.COUNTER_PROPOSE: ("bot_2", lambda: proposal() or {"body": "plan"}),
        SpeechActKind.ACCEPT: ("reviewer_1", lambda: {"request_seq": recommendation(), "body": "ok"}),
        SpeechActKind.REJECT: ("reviewer_1", lambda: {"request_seq": recommendation(), "body": "no"}),
        SpeechActKind.ESCALATE: ("bot_1", lambda: {"condition": "low_confidence", "subject": "case1"}),
    }
    c.register_principal("Vendor")
    for role, agent, kind, principal in (
        ("Officer", "officer_1", "human", "Desk"),
        ("Officer", "officer_2", "human", "Desk"),
        ("Reviewer", "reviewer_1", "human", "Desk"),
        ("Bot", "bot_1", "llm_agent", "Vendor"),
        ("Bot", "bot_2", "llm_agent", "Vendor"),
    ):
        c.bind_agent(role, agent, kind, principal)
    say(SpeechActKind.GRANT, "officer_1", action="export_case", to="bot_1")
    outcomes = set()
    for kind, name in cases:
        sender, make = base[kind]
        for value in _FIELD_VALUES:
            payload = dict(make())
            payload.pop(name, None)
            if value is not _ABSENT:
                payload[name] = copy.deepcopy(value)
            seen, tokens, bindings = len(c.records()), c.tokens.states(), c.bindings()
            result = c.apply_speech_act(SpeechAct(kind, sender, payload))
            outcomes.add((kind, result.reason))
            if result.accepted:
                continue
            *expired, rejected = c.records()[seen:]
            assert (rejected.seq, rejected.kind, rejected.detail["rejected"]) == (result.seq, KIND_SPEECH_ACT, True)
            assert rejected.detail["payload"] == payload, (kind, name, value)
            assert all((r.kind, r.detail["to"]) == (KIND_TOKEN_TRANSITION, "VIOLATED") for r in expired)
            tokens.update((r.detail["token"], "VIOLATED") for r in expired)
            assert (c.tokens.states(), c.bindings()) == (tokens, bindings), (kind, name, value)
    return outcomes


def test_every_payload_field_sent_as_every_json_type_applies_or_logs_one_rejection():
    c = instantiate_community(
        parse_spec(DESK_SOURCE), mode=MODE_ADVISORY, owner=Principal("Desk", "Desk"),
        object_disciplines={"CaseFile": "append_only"},
    )
    outcomes = _send_every_field_value(c, _every_payload_field())
    # every kind is applied, and refused as malformed where a field has a type
    for kind in SpeechActKind:
        assert (kind, None) in outcomes, kind
        typed = any(wanted is not object for _, wanted, _ in runtime.CALLER_FIELDS[kind])
        assert ((kind, "MalformedPayload") in outcomes) == typed, kind
    text = c.export_log()
    assert replay(parse_spec(DESK_SOURCE), text).export_log() == text


def drive_every_writer(c):
    """One script that reaches every record writer; outcomes vary with the mode."""

    def say(kind, sender, **payload):
        return c.apply_speech_act(SpeechAct(kind, sender, payload))

    c.register_principal("Vendor")
    c.bind_agent("Officer", "officer_1", "human", "Desk")
    c.bind_agent("Officer", "officer_2", "human", "Desk")
    c.bind_agent("Reviewer", "reviewer_1", "human", "Desk")
    c.bind_agent("Bot", "bot_1", "llm_agent", "Vendor")
    c.bind_agent("Bot", "bot_2", "llm_agent", "Vendor")

    # two burdens fall due together and expire in one sweep
    due = c.head_seq + 4
    say(SpeechActKind.DECLARE_BURDEN, "officer_1", action="file_report", holder="Officer", deadline=due)
    say(
        SpeechActKind.DECLARE_BURDEN,
        "officer_1",
        action="file_report",
        holder="officer_2",
        subject="case1",
        deadline=due,
    )
    # a burden met before its deadline never expires
    kept = say(SpeechActKind.DECLARE_BURDEN, "officer_1", action="sign", holder="officer_1", deadline=due + 40)
    c.submit_action("officer_1", "ping")
    say(SpeechActKind.DISCHARGE, "officer_1", token=kept.token_id)

    # screen, transfer, discharge
    say(SpeechActKind.DISCHARGE, "officer_1", token=1, evidence=c.head_seq)
    moved = say(SpeechActKind.DECLARE_BURDEN, "officer_1", action="review_case", holder="officer_1")
    say(SpeechActKind.TRANSFER, "officer_1", token=moved.token_id, to="officer_2")
    say(SpeechActKind.TRANSFER, "officer_2", token=moved.token_id, to="ghost")
    say(SpeechActKind.DISCHARGE, "officer_2", token=moved.token_id)

    # grants, declarations with every optional field, revocation
    export = say(SpeechActKind.GRANT, "officer_1", action="export_case", to="bot_2", subject="case2")
    # a grant takes only a guard: its deadline and exception are logged, then ignored
    say(
        SpeechActKind.GRANT,
        "officer_1",
        action="archive",
        to="bot_1",
        requires_action="screen_case",
        deadline=due,
        unless_action="override_close",
    )
    say(SpeechActKind.DECLARE_PERMIT, "officer_1", action="override_close", holder="Reviewer", subject="case9")
    say(
        SpeechActKind.DECLARE_EMBARGO,
        "officer_1",
        action="archive",
        holder="Bot",
        subject="case1",
        unless_action="override_close",
        unless_target="Reviewer",
    )

    # actions: admissible, blocked by embargo, blocked for want of a permit
    effects = [{"object": "CaseFile", "op": "append", "key": "case1", "value": "read"}]
    first = c.submit_action("bot_1", "read_case", "case1", effects)
    c.submit_action("bot_1", "close_case", "case1")
    c.submit_action("bot_2", "archive")
    c.submit_action("officer_1", "close_case")
    c.submit_action("bot_1", "archive", "case1")
    second = c.submit_action("bot_2", "export_case", "case2")
    third = c.submit_action("bot_1", "read_case", "case3")
    fourth = c.submit_action("bot_2", "read_case")

    # recommendations: a bot may not approve, a stale request is refused,
    # a revoked permit or an unbound actor turns an approval into a block
    say(SpeechActKind.ACCEPT, "bot_1", request_seq=first.request_seq)
    say(SpeechActKind.ACCEPT, "reviewer_1", request_seq=first.request_seq)
    say(SpeechActKind.ACCEPT, "reviewer_1", request_seq=first.request_seq)
    say(SpeechActKind.REVOKE, "officer_1", token=export.token_id)
    say(SpeechActKind.REVOKE, "officer_1", token=export.token_id)
    say(SpeechActKind.ACCEPT, "reviewer_1", request_seq=second.request_seq)
    say(SpeechActKind.REJECT, "bot_2", request_seq=third.request_seq)
    say(SpeechActKind.REJECT, "reviewer_1", request_seq=third.request_seq)
    c.unbind_agent("Bot", "bot_2")
    say(SpeechActKind.ACCEPT, "reviewer_1", request_seq=fourth.request_seq)
    say(SpeechActKind.ACCEPT, "reviewer_1", request_seq="soon")

    # escalation speech acts, with and without a rule
    say(SpeechActKind.ESCALATE, "bot_1", condition="low_confidence", subject="case1")
    say(SpeechActKind.ESCALATE, "reviewer_1", condition="low_confidence")
    say(SpeechActKind.ESCALATE, "bot_1", condition="power_outage")

    # rejections before dispatch, and the negotiation protocol
    say(SpeechActKind.GRANT, "officer_1", action="x")
    say(SpeechActKind.GRANT, "bot_1", action="read_case", to="bot_1")
    c.apply_speech_act(SpeechAct(SpeechActKind.PROPOSE, "stranger", {}))
    say(SpeechActKind.PROPOSE, "bot_1", body="split the queue")
    say(SpeechActKind.COUNTER_PROPOSE, "bot_1")
    say(SpeechActKind.ACCEPT, "reviewer_1")
    c.set_mode(MODE_AUTONOMOUS, by="officer_1")
    c.submit_action("bot_1", "close_case", "case9")
    return c


def _desk(mode, source=DESK_SOURCE):
    c = instantiate_community(
        parse_spec(source),
        mode=mode,
        owner=Principal("Desk", "Desk"),
        object_disciplines={"CaseFile": "append_only"},
    )
    return drive_every_writer(c)


def _head(export: str) -> str:
    return parse_export(export)[1][-1].hash


PINNED_HEADS = {
    "advisory_gate/MatchingWorkflowCommunity": "1e1d637a3c264a70acf06b1033f4a82c1ca110c3e55ecfd8f4d4b6b80cb5e0d4",
    "desk/advisory": "404a95a2452316769709378e468402767e3ebd3307e84735597f5d28440c0b93",
    "desk/autonomous": "cfd4295fe263f3fd66ebbf8bc5ae3a79784c64a4174758f61b6990be4f1953c7",
    "desk/supervised": "e022b4191c7c22123ca352cf1d504bc8e89cfa600f268e0f50d71f925935dbed",
    "desk/supervised_without_rule": "96404fc7c5154ab4086f257ad516bb119e54f9afb3fe2123d0e61c22c22bc7a8",
    "happy_path/DataAccessCommunity": "c00ff8be203a5b52adbc920e24dcbd670fa25ad324690ff7ef239cd1f71107d4",
    "happy_path/MatchingWorkflowCommunity": "6b46c19a13bf00a5ec0e0fb160e9272662273bb3ff9f8f7d9cf1a2b33c4348f3",
    "happy_path__accountability/DataAccessCommunity": "f72108454e84681abf71f695a8f7f32fc7b222bb63360e8ba5130bd32c607749",
    "happy_path__accountability/MatchingWorkflowCommunity": "6b46c19a13bf00a5ec0e0fb160e9272662273bb3ff9f8f7d9cf1a2b33c4348f3",
    "happy_path__authority/DataAccessCommunity": "c00ff8be203a5b52adbc920e24dcbd670fa25ad324690ff7ef239cd1f71107d4",
    "happy_path__authority/MatchingWorkflowCommunity": "7fcf31402f614d7fbbf1090d8b38f79cf07200848aa99dfd3175aa72eeb764a9",
    "happy_path__prohibition/DataAccessCommunity": "5544a7920c60b109a3b678e2acf568b3f23f48e7a22b35a33ed7faec80e8fe6d",
    "happy_path__prohibition/MatchingWorkflowCommunity": "6b46c19a13bf00a5ec0e0fb160e9272662273bb3ff9f8f7d9cf1a2b33c4348f3",
    "happy_path__safety/DataAccessCommunity": "c60b66dd981f5c02797676753d15b7be62ffa88f7d23403081e0bbb0d769c093",
    "happy_path__safety/MatchingWorkflowCommunity": "6b46c19a13bf00a5ec0e0fb160e9272662273bb3ff9f8f7d9cf1a2b33c4348f3",
    "negotiation/NegotiationCommunity": "fed0df81c474516d88bce44271e0cd54bd05a08dc298889f8c64b741bbe44f5e",
    "rogue_ai/MatchingWorkflowCommunity": "c23f40e2d80ffe8cc8437b1dd0db29b3912f5950d9a798c6f88f11fbbfb3e24e",
    "rogue_ai__accountability/MatchingWorkflowCommunity": "f9f6a894489edf55cd6aec21b18fb1e08814b5e9c94628e708113e67d3d4ee9b",
    "rogue_ai__authority/MatchingWorkflowCommunity": "80cb3217f577ff85ca2194df40c3556a93052480ad1d5f3d3a580f310381a026",
    "rogue_ai__prohibition/MatchingWorkflowCommunity": "d40b49ba2232e1a8d71bca65f7ee34fe68d80c067668a8b2be69c2f0afef4d0f",
}


def _pinned_runs():
    """Each pinned run's template and export, by name."""
    runs = {}
    variants = [
        ("happy_path", "safety"),
        ("happy_path", "prohibition"),
        ("happy_path", "accountability"),
        ("happy_path", "authority"),
        ("rogue_ai", "prohibition"),
        ("rogue_ai", "authority"),
        ("rogue_ai", "accountability"),
    ]
    built = {s.name: s for s in built_in_scenarios()}
    for scenario in list(built.values()) + [inject_violation(built[n], k) for n, k in variants]:
        report = run_scenario(scenario)
        assert report.ok, report.summary()
        for spec, stage in zip(scenario.stages, report.stages):
            runs[f"{scenario.name}/{stage.community}"] = (parse_spec(spec.source), stage.export)
    for mode in (MODE_SUPERVISED, MODE_ADVISORY, MODE_AUTONOMOUS):
        runs[f"desk/{mode}"] = (parse_spec(DESK_SOURCE), _desk(mode).export_log())
    runs["desk/supervised_without_rule"] = (
        parse_spec(_NO_POLICY_RULE),
        _desk(MODE_SUPERVISED, _NO_POLICY_RULE).export_log(),
    )
    return runs


def test_mode_runs_reach_every_record_writer():
    seen = set()
    for mode, source in (
        (MODE_SUPERVISED, DESK_SOURCE),
        (MODE_ADVISORY, DESK_SOURCE),
        (MODE_AUTONOMOUS, DESK_SOURCE),
        (MODE_SUPERVISED, _NO_POLICY_RULE),
    ):
        c = _desk(mode, source)
        assert replay(parse_spec(source), c.export_log()).export_log() == c.export_log()
        for r in c.records():
            d = r.detail
            if r.kind == KIND_TOKEN_TRANSITION:
                seen.add((r.kind, d["from"], d["to"], d.get("origin")))
            elif r.kind == KIND_VERDICT:
                seen.add((r.kind, d["outcome"], d.get("reason"), "approved_by" in d, "subject" in d))
            elif r.kind == KIND_ESCALATION:
                seen.add((r.kind, d["condition"], "burden" in d))
            elif r.kind == KIND_SPEECH_ACT:
                seen.add((r.kind, d["kind"], d.get("reason")))
    expected = {
        (KIND_TOKEN_TRANSITION, "CREATED", "HELD", "policy"),
        (KIND_TOKEN_TRANSITION, "CREATED", "HELD", "speech_act"),
        (KIND_TOKEN_TRANSITION, "CREATED", "HELD", "escalation"),
        (KIND_TOKEN_TRANSITION, "HELD", "VIOLATED", None),
        (KIND_TOKEN_TRANSITION, "HELD", "DELEGATED", None),
        (KIND_TOKEN_TRANSITION, "DELEGATED", "HELD", None),
        (KIND_TOKEN_TRANSITION, "HELD", "DISCHARGED", None),
        (KIND_TOKEN_TRANSITION, "HELD", "REVOKED", None),
        (KIND_VERDICT, "admissible", None, False, True),
        (KIND_VERDICT, "recommended", None, False, True),
        (KIND_VERDICT, "recommended", None, False, False),
        (KIND_VERDICT, "blocked", "embargo", False, True),
        (KIND_VERDICT, "blocked", "no-permit", False, False),
        (KIND_VERDICT, "admissible", None, True, True),
        (KIND_VERDICT, "blocked", "no-permit", True, True),
        (KIND_VERDICT, "blocked", "UnknownAgent", True, False),
        (KIND_VERDICT, "blocked", "rejected", True, False),
        (KIND_ESCALATION, "policy_violation", True),
        (KIND_ESCALATION, "policy_violation", False),
        (KIND_ESCALATION, "low_confidence", True),
        (KIND_SPEECH_ACT, "accept", None),
        (KIND_SPEECH_ACT, "accept", "ProtocolViolation"),
        (KIND_SPEECH_ACT, "accept", "MalformedPayload"),
        (KIND_SPEECH_ACT, "reject", None),
        (KIND_SPEECH_ACT, "reject", "ProtocolViolation"),
        (KIND_SPEECH_ACT, "escalate", None),
        (KIND_SPEECH_ACT, "escalate", "no-escalation-rule"),
        (KIND_SPEECH_ACT, "transfer", "UnknownAgent"),
        (KIND_SPEECH_ACT, "revoke", "TerminalState"),
        (KIND_SPEECH_ACT, "grant", "MalformedPayload"),
        (KIND_SPEECH_ACT, "grant", "UnauthorizedSpeechAct"),
        (KIND_SPEECH_ACT, "propose", "UnknownAgent"),
        (KIND_SPEECH_ACT, "counter_propose", "ProtocolViolation"),
    }
    assert expected <= seen, sorted(expected - seen, key=str)


def test_export_heads_are_pinned():
    assert {name: _head(export) for name, (_, export) in _pinned_runs().items()} == PINNED_HEADS


def test_every_record_names_the_event_that_caused_it():
    for name, (_, export) in _pinned_runs().items():
        records = parse_export(export)[1]
        events = [r.detail["event"] for r in records]
        assert events[0] == 0, name
        # event numbers never fall and never skip
        assert all(0 <= b - a <= 1 for a, b in zip(events, events[1:])), name
        # each initiating record opens the next event; only the expiry sweep
        # of that event may be logged before it
        initiating = [r for r in records if r.kind in INITIATING_KINDS]
        assert [r.detail["event"] for r in initiating] == list(range(1, events[-1] + 1)), name
        for r in initiating:
            before = [p for p in records[: r.seq] if p.detail["event"] == r.detail["event"]]
            assert all(
                p.kind == KIND_TOKEN_TRANSITION and p.detail["to"] == "VIOLATED" for p in before
            ), (name, r.seq)


def _leaves(value):
    """(container, key) of every scalar or empty container inside a record's detail."""
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        if isinstance(item, (dict, list)) and item:
            yield from _leaves(item)
        else:
            yield value, key


def _tamper(rng, records):
    """One random edit; returns the edited records and the first seq it changed."""
    edited = list(records)
    i = rng.randrange(len(records))
    how = rng.choice(("value", "value", "drop", "duplicate", "swap"))
    if how == "drop":
        del edited[i]
        return edited, i
    if how == "duplicate":
        edited.insert(i + 1, records[i])
        return edited, i + 1
    if how == "swap":
        j = rng.choice([k for k in range(len(records)) if k != i])
        edited[i], edited[j] = edited[j], edited[i]
        return edited, min(i, j)
    # another value seen in the same log, or one of another JSON type
    pool = [v for r in records for c, k in _leaves(r.detail) for v in [c[k]]]
    pool += ["X", -1, 2.5, True, None, [], {}]
    detail = copy.deepcopy(records[i].detail)
    container, key = rng.choice(list(_leaves(detail)))
    old = container[key]
    container[key] = rng.choice([v for v in pool if not (v == old and type(v) is type(old))])
    edited[i] = dataclasses.replace(records[i], detail=detail)
    return edited, i


def _replay_outcome(template, text_or_records):
    try:
        return "replayed", replay(template, text_or_records).export_log()
    except IntegrityError as exc:
        return "failed", exc.bad_seq, str(exc)
    except InvalidTemplate as exc:
        return "other_community", str(exc)


def test_replay_of_a_tampered_export_reproduces_it_or_fails_at_or_after_the_edit():
    rng = random.Random(10)
    outcomes = {"replayed": 0, "failed": 0}
    for name, (template, export) in sorted(_pinned_runs().items()):
        header, records = export.splitlines()[0], parse_export(export)[1]
        for _ in range(12):
            edited, first = _tamper(rng, records)
            text = _rechain(header, edited)
            outcome = _replay_outcome(template, text)
            # the chain holds, so import_log's records, copies of them and a
            # one-shot iterator over them replay as the text does
            checked = import_log(text)[1]
            for given in (checked, list(checked), tuple(checked), iter(checked)):
                assert _replay_outcome(template, given) == outcome, (name, first, type(given))
            if outcome[0] == "failed":
                assert outcome[1] >= first, (name, first, outcome)
                outcomes["failed"] += 1
            elif outcome[0] == "other_community":
                # a log renamed to another community is refused before any replay
                assert edited[0].detail["community"] != template.name, name
            else:
                assert outcome[1] == text, (name, first)
                outcomes["replayed"] += 1
    assert outcomes["failed"] > outcomes["replayed"] > 0, outcomes


def test_replay_places_every_tamper_where_import_log_does():
    # one rule places a fault for the chain check and for replay alike. Re-chained
    # edits pass the chain check by construction; the test above covers them
    rng = random.Random(15)
    refused = 0
    for name, (template, export) in sorted(_pinned_runs().items()):
        header, records = export.splitlines()[0], parse_export(export)[1]
        lines = export.splitlines()
        edits = []
        for _ in range(14):  # one character of a record line
            i = rng.randrange(1, len(lines))
            j = rng.randrange(len(lines[i]))
            char = rng.choice([c for c in '0123456789abcdefXY",:{}[]-.tnul' if c != lines[i][j]])
            edits.append(lines[:i] + [lines[i][:j] + char + lines[i][j + 1 :]] + lines[i + 1 :])
        for _ in range(6):  # a record dropped, repeated, swapped or edited; each keeps its seq and hash
            edited, _ = _tamper(rng, records)
            edits.append([header] + [r.to_line() for r in edited])
        for edit in edits:
            text = "\n".join(edit) + "\n"
            try:
                import_log(text)
            except IntegrityError as exc:
                with pytest.raises(IntegrityError) as info:
                    replay(template, text)
                assert (info.value.bad_seq, str(info.value)) == (exc.bad_seq, str(exc)), name
                refused += 1
    assert refused > 350


# Calls the Ward (bench/ward.py) must refuse, each given an officer and a bound
# agent. Each of these raises before its event is numbered.
_RAISING = (
    lambda c, officer, agent: c.submit_action("ghost", "read_case"),
    lambda c, officer, agent: c.submit_action(agent, 7),
    lambda c, officer, agent: c.submit_action(agent, "read_case", subject={"case_1"}),
    lambda c, officer, agent: c.submit_action(agent, "read_case", effects=[{"object": "Nowhere", "key": "k"}]),
    lambda c, officer, agent: c.submit_action(agent, "read_case", effects=[{"object": "CaseFile", "op": "erase", "key": "k"}]),
    lambda c, officer, agent: c.submit_action(agent, "read_case", effects=[{"object": "CaseFile", "op": "put", "key": "k"}]),
    lambda c, officer, agent: c.submit_action(agent, "read_case", effects=[{"object": "CaseFile"}]),
    lambda c, officer, agent: c.set_mode("chaos"),
    lambda c, officer, agent: c.set_mode(MODE_SUPERVISED, by=5),
    lambda c, officer, agent: c.register_principal("Latecomer", name=0),
    lambda c, officer, agent: c.register_principal(("Latecomer",)),
    lambda c, officer, agent: c.bind_agent("Nurse", 9, "human", "WardHospital"),
    lambda c, officer, agent: c.bind_agent("Janitor", "janitor_1", "human", "WardHospital"),
    lambda c, officer, agent: c.bind_agent("Nurse", "nurse_x", "robot", "WardHospital"),
    lambda c, officer, agent: c.bind_agent("Nurse", "nurse_x", "human", "Nobody"),
    lambda c, officer, agent: c.unbind_agent("Nurse", "ghost"),
    lambda c, officer, agent: c.bind_agent(_LikeOfficer(), "officer_x", "human", "WardHospital"),
    lambda c, officer, agent: c.unbind_agent(_LikeOfficer(), officer),
    lambda c, officer, agent: c.apply_speech_act(SpeechAct("shout", agent, {})),
    lambda c, officer, agent: c.apply_speech_act(SpeechAct(SpeechActKind.GRANT, 5, {})),
    lambda c, officer, agent: c.apply_speech_act(SpeechAct(SpeechActKind.GRANT, officer, {"action": float("nan")})),
)
# Each of these speech acts is logged as a rejection.
_REJECTED = (
    lambda officer, agent: SpeechAct(SpeechActKind.GRANT, "ghost", {"action": "read_case", "to": agent}),
    lambda officer, agent: SpeechAct(SpeechActKind.DECLARE_PERMIT, officer, {"action": "x", "holder": agent}),
    lambda officer, agent: SpeechAct(SpeechActKind.DECLARE_BURDEN, officer, {"action": 5, "holder": "Officer"}),
    lambda officer, agent: SpeechAct(
        SpeechActKind.DECLARE_BURDEN, officer, {"action": "sign_off", "holder": "Officer", "deadline": "soon"}
    ),
    lambda officer, agent: SpeechAct(SpeechActKind.GRANT, officer, {"to": agent}),
    lambda officer, agent: SpeechAct(SpeechActKind.GRANT, officer, {"action": "read_case", "to": "ghost"}),
    lambda officer, agent: SpeechAct(SpeechActKind.DISCHARGE, officer, {"token": "first"}),
    lambda officer, agent: SpeechAct(SpeechActKind.DISCHARGE, officer, {"token": 10**6}),
    lambda officer, agent: SpeechAct(SpeechActKind.TRANSFER, officer, {"token": 10**6, "to": officer}),
    lambda officer, agent: SpeechAct(SpeechActKind.REVOKE, officer, {"token": 10**6}),
)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_event_fuzz_refused_calls_change_nothing_and_every_export_replays(seed):
    ward = _ward_module()
    tpl, c, caller = ward.populate(seed, 40, 40, 20, action_share=0.75)
    monitor = TraceMonitor(ward.PROPERTIES, tpl)
    monitor.attach(c)
    rng = random.Random(seed)
    for step in range(1, 601):
        if rng.random() < 0.5:
            _category, call, args, observe = caller.plan()
            observe(call(*args))
            continue
        officer = rng.choice(caller.bound["Officer"])
        agent = rng.choice(caller.bound[rng.choice(sorted(caller.bound))])
        records, events, bindings, mode, tokens = state = (
            c.records(), c.event_count, c.bindings(), c.mode, c.tokens.states()
        )
        if rng.random() < 0.5:
            with pytest.raises((GovernanceError, InvalidTemplate, KeyError, TypeError, ValueError)):
                rng.choice(_RAISING)(c, officer, agent)
            assert (c.records(), c.event_count, c.bindings(), c.mode, c.tokens.states()) == state
        else:
            result = c.apply_speech_act(rng.choice(_REJECTED)(officer, agent))
            # one rejected record, after the burdens the event found overdue
            *expired, rejected = c.records()[len(records) :]
            assert not result.accepted and (rejected.seq, rejected.detail["rejected"]) == (result.seq, True)
            assert all((r.kind, r.detail["to"]) == (KIND_TOKEN_TRANSITION, "VIOLATED") for r in expired)
            assert (c.event_count, c.bindings(), c.mode, len(c.tokens)) == (events + 1, bindings, mode, len(tokens))
        if step % 150 == 0:
            # each record's text is that of its detail, rejections of ill-typed payloads too
            for record in c.records():
                assert record.detail_json == canonical_json(record.detail), (step, record.seq)
            text = c.export_log()
            assert replay(tpl, text).export_log() == text, step
    assert any(r.detail.get("reason") == "MalformedPayload" for r in c.records())
    online = sorted(monitor.violations, key=lambda v: (v.at_seq, v.property))
    assert online == run_checks(c.records(), ward.PROPERTIES, tpl)
