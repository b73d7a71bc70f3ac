"""Governance property verification.

Four parameterized property templates are evaluated two ways:

* online — a TraceMonitor fed each audit record as it is appended,
* offline — the same incremental checkers run over a trace of audit
  records, such as `instance.records()` or an imported export (so online
  and offline agree by construction).

Independently of both, oracle_enumerate exhaustively applies small event
alphabets through the straight-line reference engine and records which
property fails at which trace position. It walks the engine's state graph:
each distinct state (`ReferenceEngine.state_key`) is stepped once per
schema, and every trace is read off the edges it takes. Its counterpart
runtime_enumerate forks the real runtime and its monitor along every trace
and returns the same mapping, so tests compare the two over every
enumerated trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .deontic import (
    OUTCOME_ADMISSIBLE,
    OUTCOME_RECOMMENDED,
    HolderKind,
    HolderRef,
    TokenState,
    TokenStore,
)
from .errors import (
    GovernanceError,
    IntegrityError,
    ProtocolViolation,
    ScopeTooLarge,
    UnknownIdentifier,
    UnknownToken,
)
from .reference import (
    PROP_ACCOUNTABILITY,
    PROP_AUTHORITY,
    PROP_PROHIBITION,
    PROP_SAFETY,
    ReferenceEngine,
)
from .runtime import (
    AuditRecord,
    CommunityInstance,
    KIND_BINDING,
    KIND_GENESIS,
    KIND_TOKEN_TRANSITION,
    KIND_VERDICT,
    MODE_AUTONOMOUS,
    Principal,
    RoleBinding,
    Roster,
    SpeechAct,
    instantiate_community,
)
from .spec_lang.ast import (
    BUILTIN_GROUPS,
    ROLE_KINDS,
    CommunityTemplate,
    Modality,
    speech_act_kind,
)


# each property template's short name, as `inject_violation` and the CLI take it
PROPERTY_NAMES = {
    PROP_SAFETY: "safety",
    PROP_AUTHORITY: "authority",
    PROP_PROHIBITION: "prohibition",
    PROP_ACCOUNTABILITY: "accountability",
}


@dataclass(frozen=True)
class PropertySpec:
    """One property template plus its parameters."""

    template: str
    params: tuple[tuple[str, str], ...] = ()

    def param(self, key: str) -> str:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    @staticmethod
    def safety(guarded_action: str, guard_burden: str) -> PropertySpec:
        return PropertySpec(
            PROP_SAFETY,
            (("guard_burden", guard_burden), ("guarded_action", guarded_action)),
        )

    @staticmethod
    def authority(decision_action: str, authorized_role: str) -> PropertySpec:
        return PropertySpec(
            PROP_AUTHORITY,
            (("authorized_role", authorized_role), ("decision_action", decision_action)),
        )

    @staticmethod
    def prohibition(action: str, group: str) -> PropertySpec:
        return PropertySpec(PROP_PROHIBITION, (("action", action), ("group", group)))

    @staticmethod
    def accountability() -> PropertySpec:
        return PropertySpec(PROP_ACCOUNTABILITY)


# one encoder for every line: json.dumps with options builds a new one each time
_line_json = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True)
class Violation:
    property: str
    at_seq: int
    witness: tuple[int, ...]

    def to_line(self) -> str:
        return _line_json(
            {"property": self.property, "at_seq": self.at_seq, "witness": list(self.witness)}
        )


def _sort_key(v: Violation) -> tuple[int, str]:
    return (v.at_seq, v.property)


# the kinds whose records TraceMonitor._fold keeps something of
_FOLDED_KINDS = frozenset({KIND_GENESIS, KIND_BINDING, KIND_TOKEN_TRANSITION})

# members by spelling: cheaper than Enum.__call__, and an unknown spelling is a KeyError
_STATES = {s.value: s for s in TokenState}
_MODALITIES = {m.value: m for m in Modality}
_HOLDER_KINDS = {k.value: k for k in HolderKind}


# ----------------------------------------------------------------------
# per-template checkers; each names in `kinds` the record kinds it reads, and
# the monitor sends it no other record, and no verdict but an admissible one


class _SafetyChecker:
    kinds = (KIND_VERDICT,)

    def __init__(self, spec: PropertySpec):
        self.guarded_action = spec.param("guarded_action")
        self.guard_burden = spec.param("guard_burden")

    def feed(self, record: AuditRecord, monitor: TraceMonitor) -> list[Violation]:
        detail = record.detail
        if detail["action"] != self.guarded_action:
            return []
        # records come in order, so every discharge seen precedes the verdict
        if monitor._tokens.guard_discharged(self.guard_burden, detail.get("subject")):
            return []
        return [Violation(PROP_SAFETY, record.seq, (record.seq,))]


class _AuthorityChecker:
    kinds = (KIND_VERDICT, KIND_TOKEN_TRANSITION)

    def __init__(self, spec: PropertySpec):
        self.decision_action = spec.param("decision_action")
        self.authorized_role = spec.param("authorized_role")

    def feed(self, record: AuditRecord, monitor: TraceMonitor) -> list[Violation]:
        detail = record.detail
        if record.kind == KIND_VERDICT:
            # a decision is made by discharging its burden; admitting it as an
            # action bypasses the role, and no event both admits and discharges
            if detail["action"] == self.decision_action:
                return [Violation(PROP_AUTHORITY, record.seq, (record.seq,))]
        elif detail["to"] == "DISCHARGED":
            by, action = detail["by"], monitor._tokens.get(detail["token"]).action
            if action == self.decision_action and not monitor._roster.has_role(by, self.authorized_role):
                return [Violation(PROP_AUTHORITY, record.seq, (record.seq,))]
        return []


class _ProhibitionChecker:
    kinds = (KIND_VERDICT, KIND_BINDING, KIND_TOKEN_TRANSITION)

    def __init__(self, spec: PropertySpec):
        self.action = spec.param("action")
        self.group = spec.param("group")

    def _embargo_held(self, monitor: TraceMonitor) -> bool:
        # a group embargo is never agent-held: it is in the role/group bucket
        tokens = monitor._tokens
        return any(
            t.holder.kind is HolderKind.GROUP and t.holder.name in (self.group, "ALL")
            for t in map(tokens.get, tokens.held_by(Modality.EMBARGO, self.action, None))
        )

    def feed(self, record: AuditRecord, monitor: TraceMonitor) -> list[Violation]:
        found: list[Violation] = []
        if record.kind == KIND_VERDICT and record.detail["action"] == self.action:
            if monitor._roster.in_group(record.detail["actor"], self.group):
                found.append(Violation(PROP_PROHIBITION, record.seq, (record.seq,)))
        # gap scan: the embargo must be HELD whenever a group member is bound.
        # Only a binding, or a transition of an embargo on the action, changes
        # what the scan reads.
        if record.kind == KIND_TOKEN_TRANSITION:
            token = monitor._tokens.get(record.detail["token"])
            if token.modality is not Modality.EMBARGO or token.action != self.action:
                return found
        elif record.kind != KIND_BINDING:
            return found
        bound = monitor._roster.any_in_group(self.group)
        exposed = bound and not self._embargo_held(monitor)
        if exposed and self not in monitor._gaps:
            monitor._gaps.add(self)
            found.append(Violation(PROP_PROHIBITION, record.seq, (record.seq,)))
        elif not exposed:
            monitor._gaps.discard(self)
        return found


class _AccountabilityChecker:
    kinds = (KIND_BINDING, KIND_TOKEN_TRANSITION)

    def feed(self, record: AuditRecord, monitor: TraceMonitor) -> list[Violation]:
        detail = record.detail
        if record.kind == KIND_BINDING and detail["event_type"] == "bind":
            if not monitor._roster.is_principal(detail["principal"]):
                return [Violation(PROP_ACCOUNTABILITY, record.seq, (record.seq,))]
        elif record.kind == KIND_TOKEN_TRANSITION and detail["from"] == "CREATED":
            if not monitor._roster.is_principal(detail["chain_head"]):
                return [Violation(PROP_ACCOUNTABILITY, record.seq, (record.seq,))]
        return []


def _build_checker(spec: PropertySpec, template: CommunityTemplate | None):
    if spec.template == PROP_SAFETY:
        return _SafetyChecker(spec)
    if spec.template == PROP_AUTHORITY:
        if template is not None and template.role(spec.param("authorized_role")) is None:
            raise UnknownIdentifier(
                f"role {spec.param('authorized_role')!r} is not declared"
            )
        return _AuthorityChecker(spec)
    if spec.template == PROP_PROHIBITION:
        group = spec.param("group")
        if group not in BUILTIN_GROUPS:
            if template is None:
                raise UnknownIdentifier(
                    f"group {group!r} needs the community template to resolve members"
                )
            if template.group(group) is None:
                raise UnknownIdentifier(f"group {group!r} is not declared")
        return _ProhibitionChecker(spec)
    if spec.template == PROP_ACCOUNTABILITY:
        return _AccountabilityChecker()
    raise UnknownIdentifier(f"unknown property template {spec.template!r}")


class TraceMonitor:
    """Online monitor: feed audit records, collect violations incrementally.

    The monitor keeps everything it learns from the records; its checkers keep
    nothing. Principals and bindings live in a `runtime.Roster` and tokens in
    a `deontic.TokenStore`, the runtime's own structures, written only through
    `principals`, `add`/`remove` and `add`/`update`, so the monitor looks up
    who is who and what is held the way the runtime does instead of scanning.
    Its tokens carry no delegation chain (`chain` is None), since no checker
    reads one.
    """

    def __init__(
        self, specs: Iterable[PropertySpec], template: CommunityTemplate | None = None
    ):
        self._roster = Roster(template)
        self._tokens = TokenStore()
        self._gaps: set[_ProhibitionChecker] = set()  # checkers in an embargo gap
        # record kind -> the checkers that read it, in spec order
        self._routes: dict[str, tuple] = {}
        for spec in specs:
            checker = _build_checker(spec, template)
            for kind in checker.kinds:
                self._routes[kind] = self._routes.get(kind, ()) + (checker,)
        self.violations: list[Violation] = []

    def feed(self, record: AuditRecord) -> list[Violation]:
        kind = record.kind
        if kind == KIND_VERDICT:
            detail = record.detail
            # a checker reads these of an admissible verdict only, and may stop
            # before the last; a verdict without one is malformed all the same
            outcome, _, _ = detail["outcome"], detail["action"], detail["actor"]
            if outcome != OUTCOME_ADMISSIBLE:
                return []
        elif kind in _FOLDED_KINDS:
            self._fold(record)
        else:  # no checker reads any other kind, and nothing of it is kept
            return []
        found: list[Violation] = []
        for checker in self._routes.get(kind, ()):
            hits = checker.feed(record, self)
            if hits:
                found += hits
        if found:
            if len(found) > 1:
                found.sort(key=_sort_key)
            self.violations += found
        return found

    def _fold(self, record: AuditRecord) -> None:
        """Keep what a genesis, binding or token transition record tells."""
        detail = record.detail
        if record.kind == KIND_GENESIS:
            owner = detail["owner"]
            self._roster.principals[owner["id"]] = Principal(owner["id"], owner["name"], owner["kind"])
        elif record.kind == KIND_BINDING:
            event_type = detail["event_type"]
            if event_type == "register_principal":
                principal = detail["principal"]
                self._roster.principals[principal] = Principal(principal, detail["name"], detail["kind"])
            elif event_type == "bind":
                role, agent = detail["role"], detail["agent"]
                kind, principal = ROLE_KINDS[detail["agent_kind"]], detail["principal"]
                self._roster.add(RoleBinding(role, agent, kind, principal, record.seq))
            elif event_type == "unbind":
                self._roster.remove(detail["role"], detail["agent"])
            else:
                raise ValueError(f"unknown binding event {event_type!r}")
        elif record.kind == KIND_TOKEN_TRANSITION:
            token_id, to = detail["token"], _STATES[detail["to"]]
            if detail["from"] != "CREATED":
                token = self._tokens.get(token_id)
                holder = detail.get("holder")
                if holder is None:
                    self._tokens.update(token, state=to)
                else:  # a delegation ends with the burden filed under its delegate
                    delegate = HolderRef(_HOLDER_KINDS[holder["kind"]], holder["name"])
                    self._tokens.update(token, state=to, holder=delegate)
                return
            # the runtime numbers tokens as it creates them, one record each
            if token_id != len(self._tokens) + 1:
                raise ValueError(f"token {token_id!r} is not the next token created")
            # no checker reads a chain (accountability reads the head off the
            # record), but a record without a head is malformed all the same
            detail["chain_head"]
            holder = detail["holder"]
            self._tokens.add(
                modality=_MODALITIES[detail["modality"]],
                action=detail["action"],
                holder=HolderRef(_HOLDER_KINDS[holder["kind"]], holder["name"]),
                subject=detail.get("subject"),
                state=to,
                chain=None,
                issuer=detail["issuer"],
            )

    def attach(self, instance: CommunityInstance) -> None:
        """Start monitoring a live instance, catching up on its history.

        Both steps are one `with instance:` block, so no event is logged
        between them and the monitor sees each record exactly once. A monitor
        that has folded a genesis record already (its roster holds a
        principal) would see that history twice: ProtocolViolation, raised
        before it is fed anything or listens.
        """
        with instance:
            if self._roster.principals:
                raise ProtocolViolation("this monitor has folded a genesis record already")
            for record in instance.records():
                self.feed(record)
            instance.add_listener(self.feed)

    def clone(self) -> TraceMonitor:
        """Independent copy that shares the template, the checkers and their routes."""
        twin = TraceMonitor.__new__(TraceMonitor)
        twin._roster = self._roster.clone()
        twin._tokens = self._tokens.clone()
        twin._gaps = set(self._gaps)
        twin._routes = self._routes
        twin.violations = list(self.violations)
        return twin


# ----------------------------------------------------------------------
# offline checks


Trace = Sequence[AuditRecord]


def run_checks(
    trace: Trace,
    specs: Iterable[PropertySpec],
    template: CommunityTemplate | None = None,
) -> list[Violation]:
    """Check a finished trace offline.

    An imported record can chain correctly and still be malformed: lack a
    field its kind needs, hold one of the wrong type or an unknown spelling,
    create a token out of order or move one never created. That raises
    IntegrityError at its seq.
    """
    monitor = TraceMonitor(specs, template)
    for record in trace:
        try:
            monitor.feed(record)
        except (KeyError, TypeError, ValueError, UnknownToken) as exc:
            raise IntegrityError(
                f"malformed {record.kind} record at seq {record.seq}: {exc!r}", record.seq
            ) from exc
    return sorted(monitor.violations, key=_sort_key)


def check_safety(trace: Trace, guarded_action: str, guard_burden: str) -> list[Violation]:
    return run_checks(trace, [PropertySpec.safety(guarded_action, guard_burden)])


def check_authority(
    trace: Trace,
    decision_action: str,
    authorized_role: str,
    template: CommunityTemplate | None = None,
) -> list[Violation]:
    return run_checks(trace, [PropertySpec.authority(decision_action, authorized_role)], template)


def check_prohibition(
    trace: Trace,
    action: str,
    group: str,
    template: CommunityTemplate | None = None,
) -> list[Violation]:
    return run_checks(trace, [PropertySpec.prohibition(action, group)], template)


def check_accountability(trace: Trace) -> list[Violation]:
    return run_checks(trace, [PropertySpec.accountability()])


# ----------------------------------------------------------------------
# event schemas and the enumeration oracle


@dataclass
class EventSchema:
    """A declarative event both engines interpret independently.

    ops: bind (with "force": True, no registered principal needed), unbind,
    register_principal, action, speech_act. Token references are symbolic
    selectors resolved against live state, and so is a speech act's
    "request_seq": "$last_request", so the same schema stays meaningful at
    any point of any trace.
    """

    name: str
    op: str
    params: dict = field(default_factory=dict)


def _select_token(instance: CommunityInstance, selector: dict) -> int | None:
    modality = Modality(selector["modality"])
    best: int | None = None
    for token in instance.tokens:
        if token.modality is not modality:
            continue
        if selector.get("action") is not None and token.action != selector["action"]:
            continue
        if selector.get("state") is not None and token.state.value != selector["state"]:
            continue
        if "subject" in selector and token.subject != selector["subject"]:
            continue
        if best is None or token.id < best:
            best = token.id
    return best


def _last_request(instance: CommunityInstance) -> int | None:
    """The request of the latest recommendation; only submit_action writes one."""
    for record in reversed(instance.records()):
        if record.kind == KIND_VERDICT and record.detail["outcome"] == OUTCOME_RECOMMENDED:
            return record.detail["request"]
    return None


def apply_schema(instance: CommunityInstance, schema: EventSchema) -> str:
    """Apply one schema to the real runtime and return its outcome label.

    "ok" for principals and bindings, the verdict's outcome for an action,
    "accepted" or "rejected:<reason>" for a speech act, and "raised:<code>"
    when the runtime refuses the event, which then changes no state.
    """
    p = schema.params
    try:
        if schema.op == "bind":
            binder = instance.force_bind if p.get("force") else instance.bind_agent
            binder(p["role"], p["agent"], p["kind"], p["principal"])
        elif schema.op == "unbind":
            instance.unbind_agent(p["role"], p["agent"])
        elif schema.op == "register_principal":
            instance.register_principal(
                p["principal"], p.get("name"), p.get("kind", "organization")
            )
        elif schema.op == "action":
            result = instance.submit_action(
                p["actor"], p["action"], p.get("subject"), p.get("effects", ())
            )
            return result.verdict.outcome
        elif schema.op == "speech_act":
            payload = dict(p.get("payload", {}))
            if payload.get("request_seq") == "$last_request":
                payload["request_seq"] = _last_request(instance)
            selector = p.get("select_token")
            if selector is not None:
                token_id = _select_token(instance, selector)
                payload["token"] = token_id if token_id is not None else -1
            act = SpeechAct(speech_act_kind(p["kind"]), p["sender"], payload)
            applied = instance.apply_speech_act(act)
            return "accepted" if applied.accepted else f"rejected:{applied.reason}"
        else:
            raise ValueError(f"unknown schema op {schema.op!r}")
    except GovernanceError as exc:
        return f"raised:{exc.code}"
    return "ok"


def oracle_enumerate(
    t: CommunityTemplate,
    alphabet: Sequence[EventSchema],
    depth: int,
    properties: Sequence[PropertySpec],
    prologue: Sequence[EventSchema] = (),
    owner: str = "community_owner",
) -> list[tuple[tuple[int, ...], tuple[tuple[str, int], ...]]]:
    """Exhaustively run every event sequence of length <= depth.

    Returns one entry per enumerated trace, in depth-first order: the schema
    indices applied and the sorted (property, position) pairs the reference
    engine flagged. Prologue violations carry position -1.

    The walk is over the engine's state graph, not its trace tree. States are
    numbered by `ReferenceEngine.state_key`, one engine kept for each, and an
    edge (state, schema) is stepped once, on a clone of that state's engine:
    it keeps the next state's number and the property names the step flagged,
    which each trace through it tags with its own position.
    """
    _check_bound(alphabet, depth)
    base = ReferenceEngine(t, MODE_AUTONOMOUS, owner, properties)
    for schema in prologue:
        base.apply_schema(schema, -1)

    numbers = {base.state_key(): 0}
    engines = [base]
    # edges[state][index]: (next state, names flagged), or None until stepped
    edges: list[list[tuple[int, tuple[str, ...]] | None]] = [[None] * len(alphabet)]

    def step(state: int, index: int) -> tuple[int, tuple[str, ...]]:
        engine = engines[state]
        child = engine.clone()
        child.apply_schema(alphabet[index], 0)  # a position only labels what is flagged
        flagged = tuple(name for name, _ in child.violations[len(engine.violations) :])
        number = numbers.setdefault(child.state_key(), len(engines))
        if number == len(engines):
            engines.append(child)
            edges.append([None] * len(alphabet))
        return number, flagged

    results: list[tuple[tuple[int, ...], tuple[tuple[str, int], ...]]] = []

    def walk(state: int, trace: list[int], found: list[tuple[str, int]]) -> None:
        results.append((tuple(trace), tuple(sorted(found))))
        position = len(trace)
        if position == depth:
            return
        out = edges[state]
        for index, edge in enumerate(out):
            if edge is None:
                edge = out[index] = step(state, index)
            target, flagged = edge
            trace.append(index)
            walk(target, trace, found + [(name, position) for name in flagged] if flagged else found)
            trace.pop()

    walk(0, [], list(base.violations))
    # walk's closure holds walk itself: unbound, the graph goes with this call
    # instead of waiting for the cycle collector
    del walk
    return results


def _check_bound(alphabet: Sequence[EventSchema], depth: int) -> None:
    if len(alphabet) > 8 or depth > 6:
        raise ScopeTooLarge(
            f"|alphabet|={len(alphabet)}, depth={depth}: bound is 8 schemas, depth 6"
        )


def runtime_enumerate(fixture, depth: int) -> dict[tuple[int, ...], tuple[tuple[str, int], ...]]:
    """`oracle_enumerate`'s counterpart over the real runtime and its monitor.

    `fixture` names a template, an owner, a prologue, an alphabet and the
    properties (as `scenarios.GateFixture` does). Every event sequence of
    length <= depth forks the instance and its monitor, applies one schema
    and feeds the new records. Returns each trace's sorted (property,
    position) pairs: a violation is flagged at the record fed, so it belongs
    to the event that wrote it, and the prologue's carry position -1.
    """
    _check_bound(fixture.alphabet, depth)
    template = fixture.template
    base = instantiate_community(
        template, mode=MODE_AUTONOMOUS, owner=Principal(fixture.owner, fixture.owner)
    )
    for schema in fixture.prologue:
        apply_schema(base, schema)
    monitor = TraceMonitor(fixture.properties, template)
    for record in base.records():
        monitor.feed(record)

    results: dict[tuple[int, ...], tuple[tuple[str, int], ...]] = {}

    def walk(instance, mon, trace: list[int], found: list[tuple[str, int]]) -> None:
        results[tuple(trace)] = tuple(sorted(found))
        position = len(trace)
        if position == depth:
            return
        fed = len(instance.records())
        for index, schema in enumerate(fixture.alphabet):
            child = instance.clone()
            twin = mon.clone()
            apply_schema(child, schema)
            new = list(found)
            for record in child.records()[fed:]:
                new += [(v.property, position) for v in twin.feed(record)]
            trace.append(index)
            walk(child, twin, trace, new)
            trace.pop()

    walk(base, monitor, [], [(v.property, -1) for v in monitor.violations])
    return results
