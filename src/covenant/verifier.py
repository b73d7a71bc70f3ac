"""Governance property verification.

Four parameterized property templates, one row each of the PROPERTIES table,
are evaluated two ways:

* online — a TraceMonitor fed each audit record as it is appended,
* offline — the same monitor and rules run over a trace of audit
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
from typing import Callable, Iterable, Sequence

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


@dataclass(frozen=True)
class PropertySpec:
    """One property template plus its parameters' values, in its row's order."""

    template: str
    values: tuple[str, ...] = ()

    @staticmethod
    def safety(guarded_action: str, guard_burden: str) -> PropertySpec:
        return PropertySpec(PROP_SAFETY, (guarded_action, guard_burden))

    @staticmethod
    def authority(decision_action: str, authorized_role: str) -> PropertySpec:
        return PropertySpec(PROP_AUTHORITY, (decision_action, authorized_role))

    @staticmethod
    def prohibition(action: str, group: str) -> PropertySpec:
        return PropertySpec(PROP_PROHIBITION, (action, group))

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
# the property table. A row's rule says whether a record violates its property,
# given the monitor, the spec's position and its values in the row's order;
# the monitor sends it only the row's kinds, and only admissible verdicts.


@dataclass(frozen=True)
class Param:
    key: str  # its name, as `covenant verify --help` shows it
    flag: str  # the `covenant verify` option that sets it
    names: str  # what its value names: "action", "role" or "group"


@dataclass(frozen=True)
class Property:
    name: str  # the short name `inject_violation` and the CLI take
    params: tuple[Param, ...]
    kinds: tuple[str, ...]  # the record kinds the rule reads
    rule: Callable[[TraceMonitor, AuditRecord, int, tuple[str, ...]], bool]


def _unguarded(monitor: TraceMonitor, record: AuditRecord, at: int, values: tuple[str, ...]) -> bool:
    guarded_action, guard_burden = values
    detail = record.detail
    if detail["action"] != guarded_action:
        return False
    # records come in order, so every discharge seen precedes the verdict
    return not monitor._tokens.guard_discharged(guard_burden, detail.get("subject"))


def _usurped(monitor: TraceMonitor, record: AuditRecord, at: int, values: tuple[str, ...]) -> bool:
    decision_action, authorized_role = values
    detail = record.detail
    if record.kind == KIND_VERDICT:
        # a decision is made by discharging its burden; admitting it as an
        # action bypasses the role, and no event both admits and discharges
        return detail["action"] == decision_action
    if detail["to"] != "DISCHARGED":
        return False
    by, action = detail["by"], monitor._tokens.get(detail["token"]).action
    return action == decision_action and not monitor._roster.has_role(by, authorized_role)


def _embargo_held(monitor: TraceMonitor, action: str, group: str) -> bool:
    # a group embargo is never agent-held: it is in the role/group bucket
    tokens = monitor._tokens
    return any(
        t.holder.kind is HolderKind.GROUP and t.holder.name in (group, "ALL")
        for t in map(tokens.get, tokens.held_by(Modality.EMBARGO, action, None))
    )


def _unembargoed(monitor: TraceMonitor, record: AuditRecord, at: int, values: tuple[str, ...]) -> bool:
    action, group = values
    if record.kind == KIND_VERDICT:
        detail = record.detail
        return detail["action"] == action and monitor._roster.in_group(detail["actor"], group)
    # gap scan: the embargo must be HELD whenever a group member is bound, and
    # the record that opens a gap violates. Only a binding, or a transition of
    # an embargo on the action, changes what the scan reads.
    if record.kind == KIND_TOKEN_TRANSITION:
        token = monitor._tokens.get(record.detail["token"])
        if token.modality is not Modality.EMBARGO or token.action != action:
            return False
    if monitor._roster.any_in_group(group) and not _embargo_held(monitor, action, group):
        if at in monitor._gaps:
            return False
        monitor._gaps.add(at)
        return True
    monitor._gaps.discard(at)
    return False


def _untraceable(monitor: TraceMonitor, record: AuditRecord, at: int, values: tuple[str, ...]) -> bool:
    detail = record.detail
    if record.kind == KIND_BINDING:
        return detail["event_type"] == "bind" and not monitor._roster.is_principal(detail["principal"])
    return detail["from"] == "CREATED" and not monitor._roster.is_principal(detail["chain_head"])


# every property template, by the name its violations carry
PROPERTIES = {
    PROP_SAFETY: Property(
        "safety", (Param("guarded_action", "action", "action"), Param("guard_burden", "burden", "action")),
        (KIND_VERDICT,), _unguarded,
    ),
    PROP_AUTHORITY: Property(
        "authority", (Param("decision_action", "action", "action"), Param("authorized_role", "role", "role")),
        (KIND_VERDICT, KIND_TOKEN_TRANSITION), _usurped,
    ),
    PROP_PROHIBITION: Property(
        "prohibition", (Param("action", "action", "action"), Param("group", "group", "group")),
        (KIND_VERDICT, KIND_BINDING, KIND_TOKEN_TRANSITION), _unembargoed,
    ),
    PROP_ACCOUNTABILITY: Property("accountability", (), (KIND_BINDING, KIND_TOKEN_TRANSITION), _untraceable),
}


def _check_name(names: str, value: str, template: CommunityTemplate | None) -> None:
    """Refuse a role or a group that `template` does not declare."""
    if names == "role":
        if template is not None and template.role(value) is None:
            raise UnknownIdentifier(f"role {value!r} is not declared")
    elif names == "group" and value not in BUILTIN_GROUPS:
        if template is None:
            raise UnknownIdentifier(f"group {value!r} needs the community template to resolve members")
        if template.group(value) is None:
            raise UnknownIdentifier(f"group {value!r} is not declared")


class TraceMonitor:
    """Online monitor: feed audit records, collect violations incrementally.

    The monitor keeps everything it learns from the records; the rules of
    `PROPERTIES` keep nothing but the prohibition's gap flag, in `_gaps`.
    Principals and bindings live in a `runtime.Roster` and tokens in a
    `deontic.TokenStore`, the runtime's own structures, written only through
    `principals`, `add`/`remove` and `add`/`update`, so the monitor looks up
    who is who and what is held the way the runtime does instead of scanning.
    Its tokens carry no delegation chain (`chain` is None), since no rule
    reads one.
    """

    def __init__(
        self, specs: Iterable[PropertySpec], template: CommunityTemplate | None = None
    ):
        self._roster = Roster(template)
        self._tokens = TokenStore()
        self._gaps: set[int] = set()  # positions of the specs in an embargo gap
        # record kind -> (template, rule, position, values) of each spec whose
        # row reads it, in spec order
        self._routes: dict[str, tuple] = {}
        for at, spec in enumerate(specs):
            row = PROPERTIES.get(spec.template)
            if row is None:
                raise UnknownIdentifier(f"unknown property template {spec.template!r}")
            values = spec.values
            if len(values) != len(row.params):
                raise UnknownIdentifier(f"property {spec.template!r} takes {len(row.params)} values, not {len(values)}")
            for param, value in zip(row.params, values):
                _check_name(param.names, value, template)
            route = (spec.template, row.rule, at, values)
            for kind in row.kinds:
                self._routes[kind] = self._routes.get(kind, ()) + (route,)
        self._fed = False
        self.violations: list[Violation] = []

    def feed(self, record: AuditRecord) -> list[Violation]:
        self._fed = True
        kind = record.kind
        if kind == KIND_VERDICT:
            detail = record.detail
            # a rule reads these of an admissible verdict only, and may stop
            # before the last; a verdict without one is malformed all the same
            outcome, _, _ = detail["outcome"], detail["action"], detail["actor"]
            if outcome != OUTCOME_ADMISSIBLE:
                return []
        elif kind in _FOLDED_KINDS:
            self._fold(record)
        else:  # no rule reads any other kind, and nothing of it is kept
            return []
        found: list[Violation] = []
        for template, rule, at, values in self._routes.get(kind, ()):
            if rule(self, record, at, values):
                found.append(Violation(template, record.seq, (record.seq,)))
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
            # no rule reads a chain (accountability reads the head off the
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
        that has been fed a record already would fold the history on top of
        what it holds: ProtocolViolation, raised before it is fed anything or
        listens.
        """
        with instance:
            if self._fed:
                raise ProtocolViolation("this monitor has been fed a record already")
            for record in instance.records():
                self.feed(record)
            instance.add_listener(self.feed)

    def clone(self) -> TraceMonitor:
        """Independent copy that shares the template and the routes."""
        twin = TraceMonitor.__new__(TraceMonitor)
        twin._roster = self._roster.clone()
        twin._tokens = self._tokens.clone()
        twin._gaps = set(self._gaps)
        twin._routes = self._routes
        twin._fed = self._fed
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
