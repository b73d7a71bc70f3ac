"""Deontic token core.

Burdens are obligations, permits are authorizations, embargoes are
prohibitions. Tokens move through a fixed lifecycle; delegation extends an
acyclic chain whose head is always the issuing principal, so every token
answers "who is ultimately responsible" by construction.

Tokens are immutable values. A transition builds the successor token and
the TokenStore swaps it in under the same id, so the store's two writers
(`add` and `update`) are the only place a token changes. They also keep the
store's indexes (HELD tokens by action and holder, and HELD permits by
action and subject; discharged burdens by action; a deadline heap), so
admissibility, exceptions, guards and expiry look up what they need instead
of scanning every token. All operations here are pure with respect to
everything except the passed TokenStore; sequencing, audit, and
authorization of the *speech act* that invoked them belong to the runtime
layer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Iterator, NamedTuple, Protocol

from .errors import (
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
    UnknownToken,
    UnresolvedHolder,
)
from .spec_lang.ast import Modality


class TokenState(str, Enum):
    CREATED = "CREATED"
    HELD = "HELD"
    DELEGATED = "DELEGATED"
    DISCHARGED = "DISCHARGED"
    REVOKED = "REVOKED"
    VIOLATED = "VIOLATED"


TERMINAL_STATES = frozenset(
    {TokenState.DISCHARGED, TokenState.REVOKED, TokenState.VIOLATED}
)


class HolderKind(str, Enum):
    AGENT = "agent"
    ROLE = "role"
    GROUP = "group"


class HolderRef(NamedTuple):
    """Who a token binds: a concrete agent, or a role/group resolved late.

    Role and group holders are resolved against current bindings at each
    judgment, so a group embargo covers agents bound after it was issued.
    """

    kind: HolderKind
    name: str

    def to_detail(self) -> dict:
        return {"kind": self.kind.value, "name": self.name}


class ChainLink(NamedTuple):
    frm: str
    to: str
    at: int


class DelegationChain(NamedTuple):
    links: tuple[ChainLink, ...]

    @property
    def head(self) -> str:
        return self.links[0].frm

    def participants(self) -> tuple[str, ...]:
        return (self.links[0].frm,) + tuple(link.to for link in self.links)

    def nodes(self) -> frozenset[str]:
        names: set[str] = set()
        for link in self.links:
            names.add(link.frm)
            names.add(link.to)
        return frozenset(names)

    def extended(self, frm: str, to: str, at: int) -> DelegationChain:
        return DelegationChain(self.links + (ChainLink(frm, to, at),))


class Token(NamedTuple):
    id: int
    modality: Modality
    action: str
    holder: HolderRef
    subject: str | None
    state: TokenState
    chain: DelegationChain
    issuer: str
    deadline: int | None = None
    # permit guard: burden action that must be DISCHARGED first
    requires_action: str | None = None
    # embargo exception: permit spec that, while HELD, suspends this token
    unless_action: str | None = None
    unless_target: str | None = None
    evidence: int | None = None


class TokenStore:
    """All tokens of one community instance, keyed by monotonic integer id.

    Tokens are never removed and each gets its id as it is inserted, so
    iteration (insertion order) is id order. `add` and `update` are the only
    writers, and they keep four indexes, so that no judgment scans the store:

    - the ids of HELD tokens under `(modality, action, agent)`, where `agent`
      is the holder's name for an agent holder and None for a role or group
      holder
    - the ids of HELD permits again under `(action, subject)`, with None for an
      unscoped permit: an embargo's exception asks for these and nothing
      else, so burdens and embargoes have no subject index
    - the subjects of DISCHARGED burdens, as a frozenset under their action
    - a min-heap of `(deadline, id)` for burdens. A deadline is fixed when
      its burden is created; an entry whose token has left HELD is dropped
      when it is popped.

    A HELD bucket is a tuple in id order. Buckets are immutable, so a clone
    copies the outer dicts and the heap list, and shares every bucket with
    its parent.
    """

    def __init__(self) -> None:
        self._tokens: dict[int, Token] = {}
        self._by_holder: dict[tuple, tuple[int, ...]] = {}
        self._permits_on: dict[tuple, tuple[int, ...]] = {}
        self._discharged: dict[str, frozenset] = {}
        self._deadlines: list[tuple[int, int]] = []

    def add(self, **fields) -> Token:
        token = Token(len(self._tokens) + 1, **fields)
        self._index(token)
        if token.modality is Modality.BURDEN and token.deadline is not None:
            heappush(self._deadlines, (token.deadline, token.id))
        self._tokens[token.id] = token
        return token

    def update(self, token: Token, **changes) -> Token:
        """Swap in the successor of `token`, with `changes` applied; return it."""
        successor = token._replace(**changes)
        self._unindex(self._tokens[token.id])
        self._index(successor)
        self._tokens[token.id] = successor
        return successor

    def _index(self, token: Token) -> None:
        if token.state is TokenState.HELD:
            agent = token.holder.name if token.holder.kind is HolderKind.AGENT else None
            _insert(self._by_holder, (token.modality, token.action, agent), token.id)
            if token.modality is Modality.PERMIT:
                _insert(self._permits_on, (token.action, token.subject), token.id)
        elif token.state is TokenState.DISCHARGED and token.modality is Modality.BURDEN:
            subjects = self._discharged.get(token.action, frozenset())
            self._discharged[token.action] = subjects | {token.subject}

    def _unindex(self, token: Token) -> None:
        # DISCHARGED is terminal, so only a HELD token can leave an index
        if token.state is TokenState.HELD:
            agent = token.holder.name if token.holder.kind is HolderKind.AGENT else None
            _remove(self._by_holder, (token.modality, token.action, agent), token.id)
            if token.modality is Modality.PERMIT:
                _remove(self._permits_on, (token.action, token.subject), token.id)

    def get(self, token_id: int) -> Token:
        token = self._tokens.get(token_id)
        if token is None:
            raise UnknownToken(f"no token with id {token_id}")
        return token

    def __iter__(self) -> Iterator[Token]:
        return iter(self._tokens.values())

    def __len__(self) -> int:
        return len(self._tokens)

    def clone(self) -> TokenStore:
        twin = TokenStore.__new__(TokenStore)
        twin._tokens = self._tokens.copy()
        twin._by_holder = self._by_holder.copy()
        twin._permits_on = self._permits_on.copy()
        twin._discharged = self._discharged.copy()
        twin._deadlines = self._deadlines.copy()
        return twin

    def held_by(self, modality: Modality, action: str, agent: str | None) -> tuple[int, ...]:
        """The ids of HELD tokens on `action` that `agent` holds, or (None) a role or group holds."""
        return self._by_holder.get((modality, action, agent), ())

    def permits_on(self, action: str, subject: str | None) -> tuple[int, ...]:
        """The ids of HELD permits on `action` scoped to `subject`, or (None) unscoped."""
        return self._permits_on.get((action, subject), ())

    def active_for(self, modality: Modality, action: str, agent: str) -> list[Token]:
        """The HELD tokens on `action` that `agent` may fill, in id order.

        These are the tokens `agent` holds itself and those held by a role or
        group; a token held by another agent can never cover `agent`.
        """
        own = self._by_holder.get((modality, action, agent), ())
        shared = self._by_holder.get((modality, action, None), ())
        # each bucket is in id order, so only two non-empty ones need a merge
        ids = sorted(own + shared) if own and shared else own or shared
        return [self._tokens[i] for i in ids]

    def guard_discharged(self, guard_action: str, subject: str | None) -> bool:
        """Whether a DISCHARGED burden on `guard_action` matches `subject`.

        An unscoped burden matches every subject, and a None subject matches
        every burden.
        """
        subjects = self._discharged.get(guard_action)
        return subjects is not None and (
            subject is None or None in subjects or subject in subjects
        )

    def pop_overdue(self, at: int) -> list[Token]:
        """Take the HELD burdens whose deadline is before `at` off the heap, in id order."""
        deadlines = self._deadlines
        due = []
        while deadlines and deadlines[0][0] < at:
            _deadline, token_id = heappop(deadlines)
            if self._tokens[token_id].state is TokenState.HELD:
                due.append(token_id)
        return [self._tokens[i] for i in sorted(due)] if due else due

    def states(self) -> dict[int, str]:
        return {t.id: t.state.value for t in self}


def _insert(index: dict[tuple, tuple[int, ...]], key: tuple, token_id: int) -> None:
    bucket = index.get(key, ())
    if bucket and bucket[-1] > token_id:  # a successor re-enters mid-bucket
        i = bisect_left(bucket, token_id)
        index[key] = bucket[:i] + (token_id,) + bucket[i:]
    else:
        index[key] = bucket + (token_id,)


def _remove(index: dict[tuple, tuple[int, ...]], key: tuple, token_id: int) -> None:
    bucket = index[key]
    i = bisect_left(bucket, token_id)
    index[key] = bucket[:i] + bucket[i + 1 :]


class BindingResolver(Protocol):
    """Runtime-supplied view of principals, agents, and role coverage.

    `runtime.Roster` implements it, for the runtime and its monitor alike;
    the deontic tests resolve through their own fakes of this protocol.
    """

    def is_principal(self, name: str) -> bool: ...

    def is_agent(self, name: str) -> bool: ...

    def is_role(self, name: str) -> bool: ...

    def is_group(self, name: str) -> bool: ...

    def principal_of(self, agent: str) -> str | None: ...

    # An agent holder covers that agent alone, so admissibility reads only
    # the actor's own bucket and the role- and group-held one.
    def covers(self, holder: HolderRef, agent: str) -> bool: ...


OUTCOME_ADMISSIBLE = "admissible"
OUTCOME_BLOCKED = "blocked"
OUTCOME_RECOMMENDED = "recommended"

REASON_NO_PERMIT = "no-permit"
REASON_EMBARGO = "embargo"


class Verdict(NamedTuple):
    outcome: str
    permits: tuple[int, ...] = ()
    blockers: tuple[int, ...] = ()
    reason: str | None = None

    @property
    def admissible(self) -> bool:
        return self.outcome == OUTCOME_ADMISSIBLE


def create_token(
    store: TokenStore,
    resolver: BindingResolver,
    modality: Modality,
    action: str,
    holder: HolderRef,
    subject: str | None,
    issuer: str,
    at: int,
    deadline: int | None = None,
    requires_action: str | None = None,
    unless_action: str | None = None,
    unless_target: str | None = None,
) -> Token:
    if resolver.is_principal(issuer):
        head = issuer
    elif resolver.is_agent(issuer):
        head = resolver.principal_of(issuer) or ""
        if not head:
            raise UnknownIssuer(f"agent {issuer!r} has no principal")
    else:
        raise UnknownIssuer(f"{issuer!r} is neither a registered principal nor a bound agent")

    kind, name = holder
    if kind is HolderKind.AGENT:
        resolves = resolver.is_agent(name)
    elif kind is HolderKind.ROLE:
        resolves = resolver.is_role(name)
    else:
        resolves = resolver.is_group(name)
    if not resolves:
        raise UnresolvedHolder(f"holder {holder.name!r} ({holder.kind.value}) does not resolve")

    return store.add(
        modality=modality,
        action=action,
        holder=holder,
        subject=subject,
        state=TokenState.HELD,
        chain=DelegationChain((ChainLink(head, holder.name, at),)),
        issuer=issuer,
        deadline=deadline,
        requires_action=requires_action,
        unless_action=unless_action,
        unless_target=unless_target,
    )


def _require_holder(resolver: BindingResolver, token: Token, agent: str, verb: str) -> None:
    if not resolver.covers(token.holder, agent):
        raise NotHolder(f"{agent!r} does not hold token {token.id} and cannot {verb} it")


def delegate_burden(
    store: TokenStore, resolver: BindingResolver, token_id: int, frm: str, to: str, at: int
) -> Token:
    token = store.get(token_id)
    if token.modality is not Modality.BURDEN:
        raise NotABurden(f"token {token.id} is a {token.modality.value}; only burdens delegate")
    if token.state in TERMINAL_STATES:
        raise TerminalState(f"token {token.id} is {token.state.value}")
    _require_holder(resolver, token, frm, "delegate")
    if not resolver.is_agent(to):
        raise UnknownAgent(f"delegate target {to!r} is not a bound agent")
    if to in token.chain.nodes():
        raise CycleDetected(f"{to!r} already appears in the delegation chain of token {token.id}")
    return store.update(
        token,
        chain=token.chain.extended(frm, to, at),
        holder=HolderRef(HolderKind.AGENT, to),
        state=TokenState.HELD,  # passes through DELEGATED; audit logs both hops
    )


def discharge_burden(
    store: TokenStore,
    resolver: BindingResolver,
    token_id: int,
    by: str,
    evidence: int,
    log_head: int,
) -> Token:
    token = store.get(token_id)
    if token.modality is not Modality.BURDEN:
        raise NotABurden(f"token {token.id} is a {token.modality.value}; only burdens discharge")
    if token.state in TERMINAL_STATES:
        raise TerminalState(f"token {token.id} is {token.state.value}")
    _require_holder(resolver, token, by, "discharge")
    if evidence < 0 or evidence > log_head:
        raise DanglingEvidence(f"evidence seq {evidence} is not an existing audit record")
    return store.update(token, state=TokenState.DISCHARGED, evidence=evidence)


def revoke_token(store: TokenStore, resolver: BindingResolver, token_id: int, by: str) -> Token:
    token = store.get(token_id)
    if token.modality is Modality.BURDEN:
        raise NotRevocable(f"token {token.id} is a burden; burdens discharge or expire")
    if token.state in TERMINAL_STATES:
        raise TerminalState(f"token {token.id} is {token.state.value}")
    issuer = token.issuer
    authorized = (
        by == issuer
        or resolver.principal_of(issuer) == by
        or (resolver.is_principal(issuer) and resolver.principal_of(by) == issuer)
    )
    if not authorized:
        raise NotIssuer(f"{by!r} did not issue token {token.id} and does not act for its issuer")
    return store.update(token, state=TokenState.REVOKED)


def _subject_scope_matches(token_subject: str | None, subject: str | None) -> bool:
    # A scoped permit never covers another subject; unscoped covers all.
    return token_subject is None or token_subject == subject


def _exception_open(
    store: TokenStore, resolver: BindingResolver, embargo: Token, subject: str | None
) -> bool:
    action = embargo.unless_action
    if action is None:
        return False
    target = embargo.unless_target
    filler = None if target is None else holder_for_name(resolver, target)
    # only a permit scoped to the subject, or an unscoped one, can open it
    scoped = () if subject is None else store.permits_on(action, subject)
    for ids in (scoped, store.permits_on(action, None)):
        for i in ids:
            holder = store.get(i).holder
            if target is None or holder.name == target:
                return True
            # an agent-held permit counts when the agent fills the named target
            if holder.kind is HolderKind.AGENT and resolver.covers(filler, holder.name):
                return True
    return False


def holder_for_name(resolver: BindingResolver, name: str) -> HolderRef:
    """The holder a template name denotes: a role, else a group, else an agent."""
    if resolver.is_role(name):
        return HolderRef(HolderKind.ROLE, name)
    if resolver.is_group(name):
        return HolderRef(HolderKind.GROUP, name)
    return HolderRef(HolderKind.AGENT, name)


def check_action_admissible(
    store: TokenStore,
    resolver: BindingResolver,
    actor: str,
    action: str,
    subject: str | None = None,
) -> Verdict:
    """Default-deny admissibility judgment.

    Admissible iff some active permit covers (actor, action, subject) with
    its guard burden discharged, and every applicable embargo has its
    unless-permit open. Embargoes dominate permits otherwise.
    """
    if not resolver.is_agent(actor):
        raise UnknownAgent(f"{actor!r} is not bound to any role")

    permits: list[int] = []
    for t in store.active_for(Modality.PERMIT, action, actor):
        if not resolver.covers(t.holder, actor):
            continue
        if not _subject_scope_matches(t.subject, subject):
            continue
        if t.requires_action is not None and not store.guard_discharged(
            t.requires_action, subject
        ):
            continue
        permits.append(t.id)

    blockers: list[int] = []
    for t in store.active_for(Modality.EMBARGO, action, actor):
        if not resolver.covers(t.holder, actor):
            continue
        if t.subject is not None and t.subject != subject:
            continue
        if not _exception_open(store, resolver, t, subject):
            blockers.append(t.id)

    if blockers:
        return Verdict(OUTCOME_BLOCKED, blockers=tuple(blockers), reason=REASON_EMBARGO)
    if not permits:
        return Verdict(OUTCOME_BLOCKED, reason=REASON_NO_PERMIT)
    return Verdict(OUTCOME_ADMISSIBLE, permits=tuple(permits))


def expire_due(store: TokenStore, at: int) -> list[Token]:
    """Transition every overdue HELD burden to VIOLATED, in id order; deadline is a seq."""
    due = store.pop_overdue(at)
    return [store.update(t, state=TokenState.VIOLATED) for t in due] if due else due


def trace_to_principal(resolver: BindingResolver, token: Token) -> str:
    """The principal ultimately responsible for a token, via its chain head."""
    head = token.chain.head
    if not resolver.is_principal(head):
        raise MalformedChain(f"chain head {head!r} of token {token.id} is not a principal")
    return head


READY = "ready"
NOT_READY = "not_ready"


@dataclass(frozen=True)
class IntentRecord:
    """An agent's goal/plan/commitment triple.

    Intent never transfers: the record is immutable and no registry
    operation rebinds its owner. Delegation moves burdens, not intents.
    """

    owner: str
    goal: str
    plan: str
    commitment_readiness: str = READY


class IntentRegistry:
    def __init__(self) -> None:
        self._records: list[IntentRecord] = []

    def record(
        self, owner: str, goal: str, plan: str, commitment_readiness: str = READY
    ) -> IntentRecord:
        if commitment_readiness not in (READY, NOT_READY):
            raise ValueError(f"commitment_readiness must be {READY!r} or {NOT_READY!r}")
        rec = IntentRecord(owner, goal, plan, commitment_readiness)
        self._records.append(rec)
        return rec

    def for_owner(self, owner: str) -> tuple[IntentRecord, ...]:
        return tuple(r for r in self._records if r.owner == owner)
