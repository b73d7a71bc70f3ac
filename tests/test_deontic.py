"""Token lifecycle, delegation, and admissibility tests."""

from __future__ import annotations

import dataclasses
import random

import pytest

from covenant.deontic import (
    HolderKind,
    HolderRef,
    IntentRecord,
    IntentRegistry,
    OUTCOME_ADMISSIBLE,
    OUTCOME_BLOCKED,
    REASON_EMBARGO,
    REASON_NO_PERMIT,
    Token,
    TokenState,
    TokenStore,
    Verdict,
    check_action_admissible,
    create_token,
    delegate_burden,
    discharge_burden,
    expire_due,
    revoke_token,
    trace_to_principal,
)
from covenant.errors import (
    CycleDetected,
    DanglingEvidence,
    MalformedChain,
    NotABurden,
    NotHolder,
    NotIssuer,
    NotRevocable,
    TerminalState,
    UnknownAgent,
    UnknownIssuer,
    UnresolvedHolder,
)
from covenant.runtime import RoleBinding, Roster
from covenant.spec_lang.ast import AI_ROLE_KINDS, Modality, RoleKind
from shared import StaticResolver


@pytest.fixture
def ward():
    resolver = StaticResolver(
        principals={"Hospital", "Vendor"},
        agents={
            "doc_a": ("Hospital", {"Physician"}),
            "doc_b": ("Hospital", {"Physician"}),
            "doc_c": ("Hospital", {"Physician"}),
            "bot_1": ("Vendor", {"Matcher"}),
            "bot_2": ("Vendor", {"Matcher"}),
        },
        roles={"Physician", "Matcher"},
        groups={"AI_POOL": {"bot_1", "bot_2"}},
    )
    return TokenStore(), resolver


def agent_ref(name):
    return HolderRef(HolderKind.AGENT, name)


def role_ref(name):
    return HolderRef(HolderKind.ROLE, name)


def test_create_token_head_is_issuing_principal(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "decide", role_ref("Physician"), None, "Hospital", 1)
    assert t.state is TokenState.HELD
    assert t.chain.head == "Hospital"
    assert trace_to_principal(resolver, t) == "Hospital"


def test_create_token_by_agent_heads_at_its_principal(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.PERMIT, "match", agent_ref("bot_1"), None, "doc_a", 1)
    assert t.chain.head == "Hospital"
    assert t.issuer == "doc_a"


def test_create_token_unknown_issuer(ward):
    store, resolver = ward
    with pytest.raises(UnknownIssuer):
        create_token(store, resolver, Modality.PERMIT, "x", agent_ref("bot_1"), None, "nobody", 1)


def test_create_token_unresolved_holder(ward):
    store, resolver = ward
    with pytest.raises(UnresolvedHolder):
        create_token(store, resolver, Modality.PERMIT, "x", agent_ref("ghost"), None, "Hospital", 1)
    # a failed create must not consume an id
    t = create_token(store, resolver, Modality.PERMIT, "x", agent_ref("bot_1"), None, "Hospital", 2)
    assert t.id == 1


def test_delegation_extends_chain_and_moves_holder(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "decide", agent_ref("doc_a"), None, "Hospital", 1)
    delegate_burden(store, resolver, t.id, "doc_a", "doc_b", 2)
    t = delegate_burden(store, resolver, t.id, "doc_b", "doc_c", 3)
    assert t.holder == agent_ref("doc_c")
    assert t.state is TokenState.HELD
    assert t.chain.participants() == ("Hospital", "doc_a", "doc_b", "doc_c")
    assert trace_to_principal(resolver, t) == "Hospital"


def test_delegation_from_role_holder_requires_coverage(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "decide", role_ref("Physician"), None, "Hospital", 1)
    with pytest.raises(NotHolder):
        delegate_burden(store, resolver, t.id, "bot_1", "doc_b", 2)
    t = delegate_burden(store, resolver, t.id, "doc_a", "doc_b", 2)
    assert t.holder == agent_ref("doc_b")


def test_only_burdens_delegate(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.PERMIT, "x", agent_ref("bot_1"), None, "Hospital", 1)
    with pytest.raises(NotABurden):
        delegate_burden(store, resolver, t.id, "bot_1", "bot_2", 2)


def test_delegate_to_unbound_agent(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", agent_ref("doc_a"), None, "Hospital", 1)
    with pytest.raises(UnknownAgent):
        delegate_burden(store, resolver, t.id, "doc_a", "ghost", 2)


def test_delegation_cycle_detected(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", agent_ref("doc_a"), None, "Hospital", 1)
    delegate_burden(store, resolver, t.id, "doc_a", "doc_b", 2)
    with pytest.raises(CycleDetected):
        delegate_burden(store, resolver, t.id, "doc_b", "doc_a", 3)


def test_delegation_fuzz_matches_set_model(ward):
    # independent acyclicity oracle: an attempt succeeds iff the target is
    # a bound agent not already a chain node and the sender holds the token
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", agent_ref("doc_a"), None, "Hospital", 1)
    agents = ["doc_a", "doc_b", "doc_c", "bot_1", "bot_2", "ghost"]
    seen = {"Hospital", "doc_a"}
    holder = "doc_a"
    rng = random.Random(7)
    for step in range(200):
        frm, to = rng.choice(agents), rng.choice(agents)
        expect_ok = frm == holder and to in resolver.agents and to not in seen
        try:
            delegate_burden(store, resolver, t.id, frm, to, step + 2)
            assert expect_ok
            seen.add(to)
            holder = to
        except (NotHolder, UnknownAgent, CycleDetected):
            assert not expect_ok
        t = store.get(t.id)
        assert t.holder == agent_ref(holder)
        assert t.chain.participants()[-1] == holder
        participants = t.chain.participants()
        assert len(participants) == len(set(participants))
        assert all(
            t.chain.links[i].to == t.chain.links[i + 1].frm
            for i in range(len(t.chain.links) - 1)
        )


def test_discharge_sets_terminal_state_and_evidence(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", agent_ref("doc_a"), None, "Hospital", 1)
    t = discharge_burden(store, resolver, t.id, "doc_a", evidence=5, log_head=10)
    assert t.state is TokenState.DISCHARGED
    assert t.evidence == 5
    with pytest.raises(TerminalState):
        discharge_burden(store, resolver, t.id, "doc_a", 5, 10)
    with pytest.raises(TerminalState):
        delegate_burden(store, resolver, t.id, "doc_a", "doc_b", 7)


def test_update_swaps_in_a_successor_and_keeps_the_token(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", agent_ref("doc_a"), "p1", "Hospital", 1)
    successor = store.update(t, state=TokenState.DISCHARGED, evidence=3)
    assert successor == t._replace(state=TokenState.DISCHARGED, evidence=3)
    assert hash(successor) == hash(successor._replace())
    assert t.state is TokenState.HELD and t.evidence is None
    assert store.get(t.id) is successor
    assert store.guard_discharged("x", "p1") and not store.guard_discharged("x", "p2")


def test_stored_tokens_are_plain_immutable_tuples(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", agent_ref("doc_a"), "p1", "Hospital", 1, deadline=9)
    successor = store.update(t, state=TokenState.DISCHARGED, evidence=3)
    for token in (t, successor):
        assert type(token) is Token and not hasattr(token, "__dict__")
        assert token == Token(*token)
        with pytest.raises(AttributeError):
            token.state = TokenState.REVOKED


def test_discharge_requires_holder(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", role_ref("Physician"), None, "Hospital", 1)
    with pytest.raises(NotHolder):
        discharge_burden(store, resolver, t.id, "bot_1", 0, 5)
    discharge_burden(store, resolver, t.id, "doc_b", 0, 5)
    assert store.get(t.id).state is TokenState.DISCHARGED


def test_an_agent_named_like_a_role_does_not_hold_that_roles_burden():
    # only covers decides: a shared name is no claim on the role's tokens
    resolver = StaticResolver(
        principals={"Hospital"},
        agents={"Physician": ("Hospital", {"Nurse"}), "nurse_2": ("Hospital", {"Nurse"})},
        roles={"Physician", "Nurse"},
    )
    store = TokenStore()
    t = create_token(store, resolver, Modality.BURDEN, "sign_off", role_ref("Physician"), None, "Hospital", 1)
    with pytest.raises(NotHolder):
        discharge_burden(store, resolver, t.id, "Physician", 0, 5)
    with pytest.raises(NotHolder):
        delegate_burden(store, resolver, t.id, "Physician", "nurse_2", 2)
    assert store.get(t.id) == t


def test_discharge_evidence_bounds(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", agent_ref("doc_a"), None, "Hospital", 1)
    with pytest.raises(DanglingEvidence):
        discharge_burden(store, resolver, t.id, "doc_a", evidence=-1, log_head=10)
    with pytest.raises(DanglingEvidence):
        discharge_burden(store, resolver, t.id, "doc_a", evidence=11, log_head=10)


def test_burdens_are_not_revocable(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", agent_ref("doc_a"), None, "Hospital", 1)
    with pytest.raises(NotRevocable):
        revoke_token(store, resolver, t.id, "Hospital")


def test_revoke_authority_variants(ward):
    store, resolver = ward
    # issued by an agent: the agent or its principal may revoke
    t1 = create_token(store, resolver, Modality.PERMIT, "x", agent_ref("bot_1"), None, "doc_a", 1)
    with pytest.raises(NotIssuer):
        revoke_token(store, resolver, t1.id, "doc_b")
    t1 = revoke_token(store, resolver, t1.id, "Hospital")
    assert t1.state is TokenState.REVOKED

    t2 = create_token(store, resolver, Modality.PERMIT, "y", agent_ref("bot_1"), None, "doc_a", 3)
    revoke_token(store, resolver, t2.id, "doc_a")
    assert store.get(t2.id).state is TokenState.REVOKED

    # issued by a principal: any agent of that principal may revoke
    t3 = create_token(store, resolver, Modality.EMBARGO, "z", role_ref("Matcher"), None, "Hospital", 5)
    with pytest.raises(NotIssuer):
        revoke_token(store, resolver, t3.id, "bot_1")
    t3 = revoke_token(store, resolver, t3.id, "doc_c")
    assert t3.state is TokenState.REVOKED

    t4 = create_token(store, resolver, Modality.EMBARGO, "w", role_ref("Matcher"), None, "Hospital", 7)
    with pytest.raises(TerminalState):
        revoke_token(store, resolver, t3.id, "Hospital")
    revoke_token(store, resolver, t4.id, "Hospital")


def test_default_deny_enumeration(ward):
    store, resolver = ward
    for actor in ("doc_a", "bot_1", "bot_2"):
        for action in ("read", "write", "decide", "anything"):
            v = check_action_admissible(store, resolver, actor, action)
            assert v.outcome == OUTCOME_BLOCKED
            assert v.reason == REASON_NO_PERMIT


def test_unbound_actor_raises(ward):
    store, resolver = ward
    with pytest.raises(UnknownAgent):
        check_action_admissible(store, resolver, "ghost", "read")


def test_permit_subject_scope(ward):
    store, resolver = ward
    create_token(store, resolver, Modality.PERMIT, "read", agent_ref("bot_1"), "p1", "Hospital", 1)
    assert check_action_admissible(store, resolver, "bot_1", "read", "p1").admissible
    assert not check_action_admissible(store, resolver, "bot_1", "read", "p2").admissible
    assert not check_action_admissible(store, resolver, "bot_2", "read", "p1").admissible
    create_token(store, resolver, Modality.PERMIT, "read", role_ref("Matcher"), None, "Hospital", 2)
    assert check_action_admissible(store, resolver, "bot_2", "read", "p2").admissible


def test_permit_guard_requires_discharged_burden(ward):
    store, resolver = ward
    create_token(
        store,
        resolver,
        Modality.PERMIT,
        "read",
        agent_ref("bot_1"),
        None,
        "Hospital",
        1,
        requires_action="check_consent",
    )
    guard = create_token(
        store, resolver, Modality.BURDEN, "check_consent", agent_ref("doc_a"), "p1", "Hospital", 2
    )
    v = check_action_admissible(store, resolver, "bot_1", "read", "p1")
    assert v.outcome == OUTCOME_BLOCKED and v.reason == REASON_NO_PERMIT
    discharge_burden(store, resolver, guard.id, "doc_a", 0, 5)
    assert check_action_admissible(store, resolver, "bot_1", "read", "p1").admissible
    # the guard was scoped to p1; p2 stays blocked
    assert not check_action_admissible(store, resolver, "bot_1", "read", "p2").admissible
    # an unscoped guard burden, once discharged, opens every subject
    unscoped = create_token(
        store, resolver, Modality.BURDEN, "check_consent", agent_ref("doc_a"), None, "Hospital", 6
    )
    discharge_burden(store, resolver, unscoped.id, "doc_a", 0, 7)
    assert check_action_admissible(store, resolver, "bot_1", "read", "p2").admissible


def test_embargo_dominates_permit(ward):
    store, resolver = ward
    create_token(store, resolver, Modality.PERMIT, "export", agent_ref("bot_1"), None, "Hospital", 1)
    e = create_token(
        store, resolver, Modality.EMBARGO, "export", HolderRef(HolderKind.GROUP, "AI_POOL"), None, "Hospital", 2
    )
    v = check_action_admissible(store, resolver, "bot_1", "export")
    assert v.outcome == OUTCOME_BLOCKED
    assert v.reason == REASON_EMBARGO
    assert e.id in v.blockers
    # humans are outside the embargoed group, but have no permit either
    v2 = check_action_admissible(store, resolver, "doc_a", "export")
    assert v2.reason == REASON_NO_PERMIT


def test_embargo_exception_opens_and_closes(ward):
    store, resolver = ward
    create_token(store, resolver, Modality.PERMIT, "export", agent_ref("bot_1"), "batch1", "Hospital", 1)
    create_token(
        store,
        resolver,
        Modality.EMBARGO,
        "export",
        HolderRef(HolderKind.GROUP, "AI_POOL"),
        None,
        "Hospital",
        2,
        unless_action="open_export",
        unless_target="Physician",
    )
    assert not check_action_admissible(store, resolver, "bot_1", "export", "batch1").admissible
    gate = create_token(
        store, resolver, Modality.PERMIT, "open_export", role_ref("Physician"), None, "Hospital", 3
    )
    assert check_action_admissible(store, resolver, "bot_1", "export", "batch1").admissible
    revoke_token(store, resolver, gate.id, "Hospital")
    assert not check_action_admissible(store, resolver, "bot_1", "export", "batch1").admissible


def test_embargo_exception_via_agent_held_permit(ward):
    store, resolver = ward
    create_token(store, resolver, Modality.PERMIT, "export", agent_ref("bot_1"), None, "Hospital", 1)
    create_token(
        store,
        resolver,
        Modality.EMBARGO,
        "export",
        HolderRef(HolderKind.GROUP, "AI_POOL"),
        None,
        "Hospital",
        2,
        unless_action="open_export",
        unless_target="Physician",
    )
    # permits held by agents who do not fill the named role open nothing
    for bot in ("bot_1", "bot_2"):
        create_token(store, resolver, Modality.PERMIT, "open_export", agent_ref(bot), None, "Hospital", 3)
    assert not check_action_admissible(store, resolver, "bot_1", "export").admissible
    # permit held by a concrete agent who fills the named role
    create_token(store, resolver, Modality.PERMIT, "open_export", agent_ref("doc_a"), None, "Hospital", 3)
    asked = []
    is_role = resolver.is_role
    resolver.is_role = lambda name: asked.append(name) or is_role(name)
    assert check_action_admissible(store, resolver, "bot_1", "export").admissible
    # the exception's target is resolved once for the embargo, not per permit
    assert asked == ["Physician"]


def test_scoped_exception_does_not_open_other_subjects(ward):
    store, resolver = ward
    create_token(store, resolver, Modality.PERMIT, "export", agent_ref("bot_1"), None, "Hospital", 1)
    create_token(
        store,
        resolver,
        Modality.EMBARGO,
        "export",
        HolderRef(HolderKind.GROUP, "AI_POOL"),
        None,
        "Hospital",
        2,
        unless_action="open_export",
        unless_target="Physician",
    )
    create_token(
        store, resolver, Modality.PERMIT, "open_export", role_ref("Physician"), "batch1", "Hospital", 3
    )
    assert check_action_admissible(store, resolver, "bot_1", "export", "batch1").admissible
    assert not check_action_admissible(store, resolver, "bot_1", "export", "batch2").admissible


def test_expire_due_sweeps_only_overdue_held_burdens(ward):
    store, resolver = ward
    t1 = create_token(store, resolver, Modality.BURDEN, "a", agent_ref("doc_a"), None, "Hospital", 1, deadline=5)
    t2 = create_token(store, resolver, Modality.BURDEN, "b", agent_ref("doc_a"), None, "Hospital", 1, deadline=9)
    t3 = create_token(store, resolver, Modality.BURDEN, "c", agent_ref("doc_a"), None, "Hospital", 1, deadline=3)
    discharge_burden(store, resolver, t3.id, "doc_a", 0, 5)
    expired = expire_due(store, at=6)
    assert [t.id for t in expired] == [t1.id]
    assert store.get(t1.id).state is TokenState.VIOLATED
    assert store.get(t2.id).state is TokenState.HELD
    assert store.get(t3.id).state is TokenState.DISCHARGED
    # deadline == at is not yet overdue
    assert expire_due(store, at=9) == []
    expired = expire_due(store, at=10)
    assert expired == [store.get(t2.id)]
    assert expired[0].state is TokenState.VIOLATED
    # deadlines in reverse id order still expire in id order, as VIOLATED records are
    t4 = create_token(
        store, resolver, Modality.BURDEN, "d", agent_ref("doc_a"), None, "Hospital", 11, deadline=20
    )
    t5 = create_token(
        store, resolver, Modality.BURDEN, "e", agent_ref("doc_b"), None, "Hospital", 11, deadline=15
    )
    twin = store.clone()
    assert [t.id for t in expire_due(twin, at=21)] == [t4.id, t5.id]
    # a twin's sweep leaves the parent's deadlines pending
    assert store.get(t4.id).state is TokenState.HELD
    assert [t.id for t in expire_due(store, at=21)] == [t4.id, t5.id]
    assert expire_due(store, at=30) == [] and expire_due(twin, at=30) == []


def test_trace_to_principal_rejects_agent_head(ward):
    store, resolver = ward
    t = create_token(store, resolver, Modality.BURDEN, "x", agent_ref("doc_b"), None, "doc_a", 1)
    # tokens are frozen: build a corrupt copy whose chain heads at an agent
    broken = t._replace(chain=type(t.chain)((type(t.chain.links[0])("doc_a", "doc_b", 1),)))
    with pytest.raises(MalformedChain):
        trace_to_principal(resolver, broken)


def brute_force_verdict(store, resolver, actor, action, subject):
    """Independent restatement of the admissibility quantifiers."""
    tokens = list(store)

    def scope_ok(t_subject):
        return t_subject is None or t_subject == subject

    def guard_ok(token):
        if token.requires_action is None:
            return True
        return any(
            g.modality is Modality.BURDEN
            and g.state is TokenState.DISCHARGED
            and g.action == token.requires_action
            and (g.subject is None or subject is None or g.subject == subject)
            for g in tokens
        )

    def exception_ok(embargo):
        if embargo.unless_action is None:
            return False
        for p in tokens:
            if p.modality is not Modality.PERMIT or p.state is not TokenState.HELD:
                continue
            if p.action != embargo.unless_action or not scope_ok(p.subject):
                continue
            if embargo.unless_target is None or p.holder.name == embargo.unless_target:
                return True
            if p.holder.kind is HolderKind.AGENT:
                entry = resolver.agents.get(p.holder.name)
                if entry and embargo.unless_target in entry[1]:
                    return True
        return False

    permits = [
        t.id
        for t in tokens
        if t.modality is Modality.PERMIT
        and t.state is TokenState.HELD
        and t.action == action
        and resolver.covers(t.holder, actor)
        and scope_ok(t.subject)
        and guard_ok(t)
    ]
    blocked = [
        t.id
        for t in tokens
        if t.modality is Modality.EMBARGO
        and t.state is TokenState.HELD
        and t.action == action
        and resolver.covers(t.holder, actor)
        and (t.subject is None or t.subject == subject)
        and not exception_ok(t)
    ]
    if blocked:
        return Verdict(OUTCOME_BLOCKED, blockers=tuple(blocked), reason=REASON_EMBARGO)
    if not permits:
        return Verdict(OUTCOME_BLOCKED, reason=REASON_NO_PERMIT)
    return Verdict(OUTCOME_ADMISSIBLE, permits=tuple(permits))


FUZZ_ACTIONS = ["read", "write", "export"]
FUZZ_SUBJECTS = [None, "p1", "p2"]
FUZZ_AGENTS = ["doc_a", "doc_b", "bot_1", "bot_2"]
FUZZ_HOLDERS = [agent_ref(name) for name in FUZZ_AGENTS] + [
    role_ref("Physician"),
    role_ref("Matcher"),
    HolderRef(HolderKind.GROUP, "AI_POOL"),
]


def fuzz_step(store, resolver, rng, step):
    """One random store change, then the store's answers against scans of `list(store)`."""
    roll = rng.random()
    held_now = [t for t in list(store) if t.state is TokenState.HELD]
    burdens = [t for t in held_now if t.modality is Modality.BURDEN]

    def acting_for(token):  # the holder, or any agent that may fill a role or group
        if token.holder.kind is HolderKind.AGENT:
            return token.holder.name
        return rng.choice(FUZZ_AGENTS)

    if roll < 0.45 or not burdens:
        modality = rng.choice(list(Modality))
        kwargs = {}
        if modality is Modality.BURDEN and rng.random() < 0.5:
            kwargs["deadline"] = step + rng.randint(-2, 40)
        if modality is Modality.PERMIT and rng.random() < 0.3:
            kwargs["requires_action"] = rng.choice(FUZZ_ACTIONS)
        if modality is Modality.EMBARGO and rng.random() < 0.5:
            kwargs["unless_action"] = rng.choice(FUZZ_ACTIONS)
            kwargs["unless_target"] = rng.choice(["Physician", "Matcher"])
        create_token(
            store,
            resolver,
            modality,
            rng.choice(FUZZ_ACTIONS),
            rng.choice(FUZZ_HOLDERS),
            rng.choice(FUZZ_SUBJECTS),
            "Hospital",
            step,
            **kwargs,
        )
    elif roll < 0.6:
        token = rng.choice(held_now)
        try:
            if token.modality is Modality.BURDEN:
                discharge_burden(store, resolver, token.id, acting_for(token), 0, step)
            else:
                revoke_token(store, resolver, token.id, "Hospital")
        except NotHolder:
            pass
    elif roll < 0.8:
        # moves a burden from its role, group or agent bucket to another agent's
        token, to = rng.choice(burdens), rng.choice(FUZZ_AGENTS)
        try:
            delegate_burden(store, resolver, token.id, acting_for(token), to, step)
        except (NotHolder, CycleDetected):
            pass
    elif roll < 0.9:
        overdue = [
            t.id
            for t in list(store)
            if t.modality is Modality.BURDEN
            and t.state is TokenState.HELD
            and t.deadline is not None
            and t.deadline < step
        ]
        assert [t.id for t in expire_due(store, step)] == overdue, f"step {step}"
        assert all(store.get(i).state is TokenState.VIOLATED for i in overdue)

    modality, action = rng.choice(list(Modality)), rng.choice(FUZZ_ACTIONS)
    held = [
        t
        for t in list(store)
        if t.state is TokenState.HELD and t.modality is modality and t.action == action
    ]
    # each HELD token sits in one holder bucket, and each HELD permit in one subject bucket
    for agent in FUZZ_AGENTS + [None]:
        want = tuple(
            t.id
            for t in held
            if (t.holder.name if t.holder.kind is HolderKind.AGENT else None) == agent
        )
        assert store.held_by(modality, action, agent) == want, f"step {step}"
    permits = [
        t
        for t in list(store)
        if t.state is TokenState.HELD and t.modality is Modality.PERMIT and t.action == action
    ]
    for subject in FUZZ_SUBJECTS:
        want = tuple(t.id for t in permits if t.subject == subject)
        assert store.permits_on(action, subject) == want, f"step {step}"
    agent = rng.choice(FUZZ_AGENTS)
    fillable = [t for t in held if t.holder.kind is not HolderKind.AGENT or t.holder.name == agent]
    assert store.active_for(modality, action, agent) == fillable, f"step {step}"

    actor = rng.choice(["doc_a", "bot_1", "bot_2"])
    action = rng.choice(FUZZ_ACTIONS)
    subject = rng.choice(FUZZ_SUBJECTS)
    got = check_action_admissible(store, resolver, actor, action, subject)
    want = brute_force_verdict(store, resolver, actor, action, subject)
    # the whole verdict reaches the audit log: outcome, reason and each id list
    assert got == want, f"step {step}: {actor} {action} {subject}: {got} != {want}"


def test_admissibility_fuzz_matches_brute_force(ward):
    store, resolver = ward
    rng = random.Random(0xBEEF)
    for step in range(200):
        fuzz_step(store, resolver, rng, step)
    # a twin shares the parent's buckets; each must keep to its own tokens
    twin, twin_rng = store.clone(), random.Random(0xCAFE)
    for step in range(200, 400):
        fuzz_step(store, resolver, rng, step)
        fuzz_step(twin, resolver, twin_rng, step)
    assert store.states() != twin.states()


class CountingResolver(StaticResolver):
    """Records every holder that `covers` is asked about."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []

    def covers(self, holder, agent):
        self.asked.append(holder)
        return super().covers(holder, agent)


def test_admissibility_asks_only_about_the_actors_own_and_shared_tokens():
    others = [f"agent_{i}" for i in range(500)]
    resolver = CountingResolver(
        principals={"Hospital"},
        agents={name: ("Hospital", {"Physician"}) for name in others + ["doc_a"]},
        roles={"Physician"},
        groups={"STAFF": {"doc_a"}},
    )
    store = TokenStore()

    def permit(holder):
        return create_token(store, resolver, Modality.PERMIT, "read", holder, None, "Hospital", 1)

    by_role = permit(role_ref("Physician"))
    for name in others:
        permit(agent_ref(name))
    own = permit(agent_ref("doc_a"))
    by_group = permit(HolderRef(HolderKind.GROUP, "STAFF"))
    create_token(
        store, resolver, Modality.EMBARGO, "read", agent_ref("agent_7"), None, "Hospital", 2
    )
    resolver.asked.clear()
    verdict = check_action_admissible(store, resolver, "doc_a", "read")
    assert verdict.permits == (by_role.id, own.id, by_group.id)
    assert resolver.asked == [by_role.holder, own.holder, by_group.holder]


def test_an_exception_asks_only_about_permits_on_the_verdicts_subject_or_unscoped():
    others = [f"agent_{i}" for i in range(500)]
    resolver = CountingResolver(
        principals={"Hospital"},
        agents={name: ("Hospital", {"Nurse"}) for name in others + ["doc_a", "doc_b"]}
        | {"bot_1": ("Hospital", {"Matcher"})},
        roles={"Nurse", "Physician", "Matcher"},
        groups={"AI_POOL": {"bot_1"}},
    )
    store = TokenStore()

    def approve(holder, subject):
        return create_token(
            store, resolver, Modality.PERMIT, "approve", holder, subject, "Hospital", 1
        )

    for i, name in enumerate(others):  # none fills the target, none is on p1
        approve(agent_ref(name), f"p{i + 2}")
    create_token(
        store,
        resolver,
        Modality.EMBARGO,
        "close",
        HolderRef(HolderKind.GROUP, "AI_POOL"),
        None,
        "Hospital",
        2,
        unless_action="approve",
        unless_target="Physician",
    )
    create_token(store, resolver, Modality.PERMIT, "close", role_ref("Matcher"), None, "Hospital", 3)
    approve(agent_ref("doc_a"), "p1")
    approve(agent_ref("doc_b"), None)
    resolver.asked.clear()
    verdict = check_action_admissible(store, resolver, "bot_1", "close", "p1")
    assert verdict.reason == REASON_EMBARGO
    physician = role_ref("Physician")
    # the permit and the embargo each cover bot_1; then one question each
    # about doc_a's permit on p1 and doc_b's unscoped one, none about the 500
    assert resolver.asked[2:] == [physician, physician]
    assert len(resolver.asked) == 4
    # an unscoped verdict reads the unscoped bucket alone
    resolver.asked.clear()
    check_action_admissible(store, resolver, "bot_1", "close")
    assert resolver.asked[2:] == [physician]
    # once doc_b fills the target, the unscoped permit opens every subject
    resolver.agents["doc_b"] = ("Hospital", {"Physician"})
    assert check_action_admissible(store, resolver, "bot_1", "close", "p7").admissible


def test_the_ai_binding_count_follows_binds_unbinds_and_clones():
    rng = random.Random(16)
    roles, agents, kinds = ["Physician", "Matcher"], ["a0", "a1", "a2", "a3"], list(RoleKind)
    pool, seen = [Roster(None)], set()
    for step in range(800):
        bindings = rng.choice(pool)
        bound = list(bindings)
        roll = rng.random()
        if roll < 0.3 or not bound:
            role, agent, kind = rng.choice(roles), rng.choice(agents), rng.choice(kinds)
            bindings.add(RoleBinding(role, agent, kind, "P", step))
        elif roll < 0.4:  # an agent that fills no such role: nothing to drop
            bindings.remove("Scribe", rng.choice(agents))
        elif roll < 0.75:
            b = rng.choice(bound)
            bindings.remove(b.role, b.agent)
        elif roll < 0.95:  # re-bind, perhaps under another kind
            b = rng.choice(bound)
            bindings.remove(b.role, b.agent)
            bindings.add(RoleBinding(b.role, b.agent, rng.choice(kinds), b.principal, step))
        elif len(pool) < 6:
            pool.append(bindings.clone())
        for each in pool:
            scan = any(b.agent_kind in AI_ROLE_KINDS for b in each)
            assert each.any_in_group("ALL_AI_AGENTS") == scan, f"step {step}"
            seen.add(scan)
    assert seen == {False, True}


def test_intent_records_are_frozen_and_owner_bound():
    registry = IntentRegistry()
    rec = registry.record("bot_1", goal="match patients", plan="rank by criteria")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.owner = "bot_2"
    assert registry.for_owner("bot_1") == (rec,)
    assert registry.for_owner("bot_2") == ()
    with pytest.raises(ValueError):
        registry.record("bot_1", "g", "p", commitment_readiness="maybe")


def test_intent_registry_exposes_no_rebind_operation():
    public = [n for n in dir(IntentRegistry) if not n.startswith("_")]
    assert sorted(public) == ["for_owner", "record"]
    field_names = {f.name for f in dataclasses.fields(IntentRecord)}
    assert "owner" in field_names
    assert dataclasses.fields(IntentRecord)[0].name == "owner"
