"""Community runtime tests: binding, actions, speech acts, audit integrity."""

from __future__ import annotations

import random

import pytest

from covenant.deontic import TokenState
from covenant.errors import (
    CardinalityExceeded,
    DisciplineViolation,
    IntegrityError,
    KindMismatch,
    UnknownAgent,
    UnknownPrincipal,
    UnknownRole,
)
from covenant.runtime import (
    KIND_ACTION_REQUEST,
    KIND_BINDING,
    KIND_ESCALATION,
    KIND_GENESIS,
    KIND_SPEECH_ACT,
    KIND_TOKEN_TRANSITION,
    KIND_VERDICT,
    MODE_ADVISORY,
    MODE_SUPERVISED,
    Principal,
    SpeechAct,
    import_log,
    instantiate_community,
    parse_export,
    replay,
    verify_chain,
)
from covenant.spec_lang import parse_spec
from covenant.spec_lang.ast import SpeechActKind
from covenant.verifier import PropertySpec, TraceMonitor

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


def make_ward(mode="autonomous", disciplines=None):
    return instantiate_community(
        parse_spec(WARD_SOURCE),
        mode=mode,
        owner=Principal("Clinic", "Clinic"),
        object_disciplines=disciplines or {"CaseFile": "read_write"},
    )


def staffed_ward(mode="autonomous"):
    c = make_ward(mode)
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
    before = len(c.records())
    with pytest.raises(UnknownRole):
        c.bind_agent("Janitor", "x", "human", "Clinic")
    with pytest.raises(KindMismatch):
        c.bind_agent("Officer", "x", "llm_agent", "Clinic")
    with pytest.raises(UnknownPrincipal):
        c.bind_agent("Officer", "x", "human", "Nobody")
    assert len(c.records()) == before


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


def test_unbind_removes_binding_and_logs():
    c = staffed_ward()
    c.unbind_agent("Bot", "bot_1")
    assert not c.is_agent("bot_1")
    last = c.records()[-1]
    assert last.kind == KIND_BINDING and last.detail["event_type"] == "unbind"
    with pytest.raises(UnknownAgent):
        c.unbind_agent("Bot", "bot_1")


def test_bind_fuzz_matches_reference_model():
    # independent model: kind and principal stick to an agent while bound;
    # (role, agent) unique; per-role count capped by the declaration
    c = make_ward()
    for p in ("P1", "P2"):
        c.register_principal(p)
    decl_max = {"Officer": 2, "Reviewer": 2, "Bot": 2}
    decl_kind = {"Officer": "human", "Reviewer": "human", "Bot": "llm_agent"}
    bound = set()  # (role, agent)
    rng = random.Random(99)
    agents = [f"a{i}" for i in range(6)]
    kinds = ["human", "llm_agent"]
    principals = ["P1", "P2"]
    for _ in range(400):
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
            for p in [c.principal_of(a)]
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
    # a monitor rebuilds the same index from the records alone
    monitor = TraceMonitor([PropertySpec.accountability()], c.template)
    for record in c.records():
        monitor.feed(record)
    index = monitor._state.bindings
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
    assert token.state is TokenState.REVOKED


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


def test_replay_reproduces_states_and_bytes():
    c = drive_sample_history(staffed_ward())
    text = c.export_log()
    twin = replay(parse_spec(WARD_SOURCE), text)
    assert twin.export_log() == text
    assert twin.tokens.states() == c.tokens.states()
    assert {(b.role, b.agent) for b in twin.bindings()} == {
        (b.role, b.agent) for b in c.bindings()
    }
    assert twin.snapshot().object_digests == c.snapshot().object_digests


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


def test_truncated_export_fails_verification():
    c = drive_sample_history(staffed_ward())
    lines = c.export_log().splitlines()
    clipped = "\n".join(lines[:1] + lines[2:]) + "\n"
    with pytest.raises(IntegrityError):
        import_log(clipped)


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
