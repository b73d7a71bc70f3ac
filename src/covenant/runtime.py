"""Community runtime.

A CommunityInstance folds externally submitted events (principal
registrations, role bindings, speech acts, action requests, mode changes)
into token-store mutations and an append-only, hash-chained audit log.
Every derived consequence (verdicts, token transitions, escalations) is
logged in the same chain, so replaying the initiating records of an export
regenerates the full log byte for byte.

Logical time is the audit sequence number; nothing here reads a clock.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import weakref
from dataclasses import dataclass, field
from threading import RLock, get_ident
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence

from . import deontic
from .deontic import (
    HolderKind,
    HolderRef,
    OUTCOME_BLOCKED,
    OUTCOME_RECOMMENDED,
    Token,
    TokenState,
    TokenStore,
    Verdict,
)
from .errors import (
    CardinalityExceeded,
    DisciplineViolation,
    GovernanceError,
    IntegrityError,
    InvalidTemplate,
    KindMismatch,
    NameCollision,
    ProtocolViolation,
    UnauthorizedSpeechAct,
    UnknownAgent,
    UnknownPrincipal,
    UnknownRole,
)
from .spec_lang.ast import (
    AI_ROLE_KINDS,
    BUILTIN_GROUPS,
    CommunityTemplate,
    Modality,
    NEGOTIATION_KINDS,
    ROLE_KINDS,
    RoleKind,
    SpeechActKind,
    speech_act_kind,
)
from .spec_lang.validate import SEVERITY_ERROR, validate_template

GENESIS_PREV_HASH = "0" * 64
EXPORT_FORMAT = "covenant-audit/1"
DIGEST_NAME = "sha256"

MODE_ADVISORY = "advisory"
MODE_SUPERVISED = "supervised"
MODE_AUTONOMOUS = "autonomous"
MODES = (MODE_ADVISORY, MODE_SUPERVISED, MODE_AUTONOMOUS)

KIND_GENESIS = "genesis"
KIND_BINDING = "binding"
KIND_SPEECH_ACT = "speech_act"
KIND_ACTION_REQUEST = "action_request"
KIND_VERDICT = "verdict"
KIND_TOKEN_TRANSITION = "token_transition"
KIND_ESCALATION = "escalation"
KIND_MODE_CHANGE = "mode_change"

# Records a replay re-executes; the rest are regenerated as consequences.
INITIATING_KINDS = frozenset(
    {KIND_BINDING, KIND_SPEECH_ACT, KIND_ACTION_REQUEST, KIND_MODE_CHANGE}
)

APPEND_ONLY = "append_only"
READ_WRITE = "read_write"

ESCALATION_CONDITION_BLOCKED = "policy_violation"
REVIEW_ACTION = "review"

# speech acts that create a token, and the modality of the token each creates
_CREATED_MODALITY = {
    SpeechActKind.DECLARE_BURDEN: Modality.BURDEN,
    SpeechActKind.DECLARE_PERMIT: Modality.PERMIT,
    SpeechActKind.DECLARE_EMBARGO: Modality.EMBARGO,
    SpeechActKind.GRANT: Modality.PERMIT,
}


_str_json = json.encoder.encode_basestring_ascii  # a str as JSONEncoder writes it


def _int_list(ids: Sequence[int]) -> str:
    """A sequence of exact ints, as JSONEncoder writes it."""
    return f'[{",".join(map(str, ids))}]'

# The canonical encoder, built once: JSONEncoder.encode builds a C encoder and a
# dict of circular markers on every call. The arguments are those encode passes
# for sort_keys=True, separators=(",", ":"), allow_nan=False, except that markers
# is None: one dict shared by every call would let two threads see each other's
# container ids. NaN and the infinities are not JSON, and NaN, unequal to itself,
# would make a replay's regenerated record differ from the logged one: a caller's
# is refused before its event, an export's is an unreadable record.
_canonical_chunks = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, _str_json, None, ":", ",", True, False, False
)


def canonical_json(value: object) -> str:
    """Key-sorted, compact JSON, as `_checked_caller_json` writes it, with no cycle check: every
    value it sees was built by the runtime from a copy `_caller_json` checked, or parsed from JSON."""
    return "".join(_canonical_chunks(value, 0))


# the encoder that looks for cycles; a value the prebuilt one recursed too deep in
# is encoded again with it, so a cycle is a ValueError and deep nesting a RecursionError
_checked_caller_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def _caller_json(value: object) -> str:
    """`value` as `JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)` encodes it."""
    try:
        return "".join(_canonical_chunks(value, 0))
    except RecursionError:
        return _checked_caller_json(value)


# an export's header, as json.dumps(..., separators=(",", ":")) wrote it, around the
# community name, which the prebuilt encoder writes (keys unsorted) as json.dumps does
_HEADER_START = f'{{"format":{_str_json(EXPORT_FORMAT)},"digest":{_str_json(DIGEST_NAME)},"community":'
_header_json = json.JSONEncoder(separators=(",", ":")).encode

_decoder = json.JSONDecoder()
# json.loads on a str, without its per-call type and keyword checks
_decode_json = _decoder.decode
# the C scanner decode calls after skipping whitespace; it raises StopIteration
# where no value starts, and returns the index where the value ends. The
# boundary encoder writes one value and no whitespace, so its text is read
# back with the scanner alone
_scan_json = _decoder.scan_once


# How a field of CALLER_FIELDS may be sent: REQUIRED, present; NULLABLE, absent,
# null or of its type; OMITTABLE, absent or of its type, never null
REQUIRED, NULLABLE, OMITTABLE = "required", "nullable", "omittable"

# the payload of each of the three declares
_DECLARE = (
    ("action", str, REQUIRED), ("holder", str, REQUIRED), ("subject", str, NULLABLE),
    ("deadline", int, NULLABLE), ("requires_action", str, NULLABLE),
    ("unless_action", str, NULLABLE), ("unless_target", str, NULLABLE),
)

# The fields each caller-facing event reads, with their types and presence: the
# arguments of the mutators, and each speech act's payload, by kind. Names and
# actions key the indexes of tokens, bindings and principals, so a string is
# whatever isinstance(v, str) accepts. A token id, seq or deadline is used and
# logged as sent, and a deadline is compared with seqs at every event, so an
# integer is exactly an int, never a bool (int() would read 25.9 as 25 and True
# as 1). `object` is any value. A field not listed is logged as sent and read by
# nothing.
CALLER_FIELDS: dict[str, tuple[tuple[str, type, str], ...]] = {
    "principal": (("id", str, REQUIRED), ("name", str, REQUIRED), ("kind", str, REQUIRED)),
    "binding": (("role", str, REQUIRED), ("agent", str, REQUIRED), ("principal", str, REQUIRED)),
    "unbinding": (("role", str, REQUIRED), ("agent", str, REQUIRED)),
    "mode_change": (("by", str, NULLABLE),),
    "action_request": (("actor", str, REQUIRED), ("action", str, REQUIRED), ("subject", str, NULLABLE)),
    "speech_act": (("sender", str, REQUIRED),),
    SpeechActKind.DECLARE_BURDEN: _DECLARE,
    SpeechActKind.DECLARE_PERMIT: _DECLARE,
    SpeechActKind.DECLARE_EMBARGO: _DECLARE,
    SpeechActKind.GRANT: (
        ("action", str, REQUIRED), ("to", str, REQUIRED),
        ("subject", str, NULLABLE), ("requires_action", str, NULLABLE),
    ),
    SpeechActKind.TRANSFER: (("token", int, REQUIRED), ("to", str, REQUIRED)),
    SpeechActKind.DISCHARGE: (("token", int, REQUIRED), ("evidence", int, OMITTABLE)),
    SpeechActKind.REVOKE: (("token", int, REQUIRED),),
    SpeechActKind.PROPOSE: (("body", object, OMITTABLE),),
    SpeechActKind.COUNTER_PROPOSE: (("body", object, OMITTABLE),),
    SpeechActKind.ACCEPT: (("request_seq", int, OMITTABLE), ("body", object, OMITTABLE)),
    SpeechActKind.REJECT: (("request_seq", int, OMITTABLE), ("body", object, OMITTABLE)),
    SpeechActKind.ESCALATE: (("condition", object, REQUIRED), ("subject", str, NULLABLE)),
}


def _check_fields(fields: dict, event: str) -> None:
    """Raise TypeError at the first field of CALLER_FIELDS[event] that `fields` lacks or holds with another type."""
    for name, wanted, presence in CALLER_FIELDS[event]:
        if name in fields:
            value = fields[name]
            if type(value) is wanted or (value is None and presence is NULLABLE):
                continue
            # a str subclass is a string; a bool is no integer
            if wanted is int or not isinstance(value, wanted):
                raise TypeError(f"{name} {value!r} is not {'an integer' if wanted is int else 'a string'}")
        elif presence is REQUIRED:
            raise TypeError(f"{name} is missing")


def record_digest(
    prev_hash: str, seq: int, kind: str, actor: str | None, detail_json: str
) -> str:
    """SHA-256 of `prev_hash` followed by the canonical JSON of seq, kind, actor and detail.

    `detail_json` is the detail's canonical JSON, placed in the payload as it is.
    The other fields have the types an `AuditRecord` admits.
    """
    actor_json = "null" if actor is None else _str_json(actor)
    payload = f'{prev_hash}{{"actor":{actor_json},"detail":{detail_json},"kind":{_str_json(kind)},"seq":{seq}}}'
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One entry of the hash-chained log.

    `detail_json` is the detail's canonical JSON, encoded once when the record
    is made: its digest and its export line are built around that text. So a
    record's detail must never be changed after it is written; to change one,
    make a new record (`dataclasses.replace(record, detail=...)` encodes the
    new detail). A field of another type than declared (a bool seq too) raises
    TypeError, before the detail is encoded: this is the one check of a
    record's types. The runtime's own records skip it (`_written_record`),
    since their writers fix each field's type.
    """

    seq: int
    kind: str
    actor: str | None
    detail: dict
    prev_hash: str
    hash: str
    detail_json: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.seq) is not int:
            raise TypeError(f"seq {self.seq!r} is not an int")
        if not (isinstance(self.kind, str) and isinstance(self.prev_hash, str) and isinstance(self.hash, str)):
            raise TypeError(f"kind {self.kind!r} or a hash is not a string")
        if self.actor is not None and not isinstance(self.actor, str):
            raise TypeError(f"actor {self.actor!r} is neither null nor a string")
        if not isinstance(self.detail, dict):
            raise TypeError(f"detail {self.detail!r} is not an object")
        object.__setattr__(self, "detail_json", canonical_json(self.detail))

    def to_line(self) -> str:
        # the fields in their own order, each as JSON writes its declared type, and
        # the detail key-sorted, as record_digest hashes it
        actor = "null" if self.actor is None else _str_json(self.actor)
        return (
            f'{{"seq":{self.seq},"kind":{_str_json(self.kind)},"actor":{actor},'
            f'"detail":{self.detail_json},"prev_hash":{_str_json(self.prev_hash)},'
            f'"hash":{_str_json(self.hash)}}}'
        )


# the setter of each field's slot: they set a field as the generated __init__
# does, but without the frozen class's __setattr__ and without __post_init__
(_set_seq, _set_kind, _set_actor, _set_detail, _set_prev_hash, _set_hash, _set_detail_json) = (
    AuditRecord.__dict__[name].__set__
    for name in ("seq", "kind", "actor", "detail", "prev_hash", "hash", "detail_json")
)


def _written_record(
    seq: int, kind: str, actor: str | None, detail: dict, prev_hash: str, digest: str, detail_json: str
) -> AuditRecord:
    """The AuditRecord of these fields, made without its type checks.

    For the runtime's own records only: their writers give each field its
    declared type, and record_digest, which runs first, has taken each string
    as a string.
    """
    record = object.__new__(AuditRecord)
    _set_seq(record, seq)
    _set_kind(record, kind)
    _set_actor(record, actor)
    _set_detail(record, detail)
    _set_prev_hash(record, prev_hash)
    _set_hash(record, digest)
    _set_detail_json(record, detail_json)
    return record


@dataclass(frozen=True)
class Principal:
    id: str
    name: str
    kind: str = "organization"  # or "natural_person"

    def __post_init__(self) -> None:
        # every field is logged: another type would not replay (a tuple id comes back a list)
        _check_fields(vars(self), "principal")


class RoleBinding(NamedTuple):
    role: str
    agent: str
    agent_kind: RoleKind
    principal: str
    bound_at: int


class Roster:
    """Who is who in one community: its principals, its agents' role bindings,
    and the template that declares its roles and groups (None in a monitor
    without one). The runtime and its monitor each keep one, and it is the
    `deontic.BindingResolver` of both.

    Bindings are indexed by agent, with a count per role and a count of
    AI-kind bindings; they iterate in bind order. The one place (besides the
    reference engine) that decides which agents fill a role, a declared
    group, ALL or ALL_AI_AGENTS. An agent's kind and principal are those of
    its first binding. An agent unbound from its last role keeps an empty
    entry, so a name once bound stays an agent's name.
    """

    def __init__(self, template: CommunityTemplate | None) -> None:
        self.template = template
        self.principals: dict[str, Principal] = {}
        # every name ever bound, with its current bindings
        self._by_agent: dict[str, tuple[RoleBinding, ...]] = {}
        self._count: dict[str, int] = {}  # role -> fillers
        self._ai = 0  # bindings of an AI kind

    def __iter__(self):
        # bound_at is the seq of the binding's record, so bind order is bound_at order
        bound = itertools.chain.from_iterable(self._by_agent.values())
        return iter(sorted(bound, key=lambda b: b.bound_at))

    def add(self, binding: RoleBinding) -> None:
        self._by_agent[binding.agent] = self._by_agent.get(binding.agent, ()) + (binding,)
        self._count[binding.role] = self._count.get(binding.role, 0) + 1
        if binding.agent_kind in AI_ROLE_KINDS:
            self._ai += 1

    def remove(self, role: str, agent: str) -> None:
        """Drop the earliest binding of `agent` to `role`, if there is one."""
        bound = self._by_agent.get(agent, ())
        for i, b in enumerate(bound):
            if b.role == role:
                self._by_agent[agent] = bound[:i] + bound[i + 1 :]
                self._count[role] -= 1
                if b.agent_kind in AI_ROLE_KINDS:
                    self._ai -= 1
                return

    def is_principal(self, name: str) -> bool:
        return name in self.principals

    def is_agent(self, agent: str) -> bool:
        return bool(self._by_agent.get(agent))

    def ever_bound(self, name: str) -> bool:
        return name in self._by_agent

    def is_role(self, name: str) -> bool:
        return self.template is not None and self.template.role(name) is not None

    def is_group(self, name: str) -> bool:
        return name in BUILTIN_GROUPS or (self.template is not None and self.template.group(name) is not None)

    def agent_kind(self, agent: str) -> RoleKind | None:
        bound = self._by_agent.get(agent)
        return bound[0].agent_kind if bound else None

    def principal_of(self, agent: str) -> str | None:
        bound = self._by_agent.get(agent)
        return bound[0].principal if bound else None

    def roles_of(self, agent: str) -> tuple[str, ...]:
        return tuple(b.role for b in self._by_agent.get(agent, ()))

    def has_role(self, agent: str, role: str) -> bool:
        for b in self._by_agent.get(agent, ()):
            if b.role == role:
                return True
        return False

    def count(self, role: str) -> int:
        return self._count.get(role, 0)

    def covers(self, holder: HolderRef, agent: str) -> bool:
        if holder.kind is HolderKind.AGENT:
            return holder.name == agent
        if holder.kind is HolderKind.ROLE:
            return self.has_role(agent, holder.name)
        return self.in_group(agent, holder.name)

    def in_group(self, agent: str, group: str) -> bool:
        if group == "ALL":
            return self.is_agent(agent)
        if group == "ALL_AI_AGENTS":
            return self.agent_kind(agent) in AI_ROLE_KINDS
        # any other group is declared: its holder or its property spec was checked against the template
        members = self.template.group(group).members
        for b in self._by_agent.get(agent, ()):
            if b.role in members:
                return True
        return False

    def any_in_group(self, group: str) -> bool:
        if group == "ALL":
            return any(self._count.values())
        if group == "ALL_AI_AGENTS":
            return self._ai > 0
        return any(self.count(role) for role in self.template.group(group).members)

    def clone(self) -> Roster:
        twin = Roster.__new__(Roster)
        twin.template = self.template
        twin.principals = dict(self.principals)
        twin._by_agent = dict(self._by_agent)
        twin._count = dict(self._count)
        twin._ai = self._ai
        return twin


@dataclass(frozen=True)
class SpeechAct:
    kind: SpeechActKind
    sender: str
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ObjectWrite:
    object: str
    op: str  # "append" | "put" | "read"
    key: str
    value: object = None

    def to_detail(self) -> dict:
        detail = {"object": self.object, "op": self.op, "key": self.key}
        if self.op != "read":
            detail["value"] = self.value
        return detail


class EnterpriseObject:
    """A community-owned key-value store with a declared write discipline."""

    def __init__(self, name: str, discipline: str = APPEND_ONLY):
        if discipline not in (APPEND_ONLY, READ_WRITE):
            raise DisciplineViolation(f"unknown discipline {discipline!r}")
        self.name = name
        self.discipline = discipline
        self._journal: list[dict] = []

    def check(self, write: ObjectWrite) -> None:
        if write.op == "read":
            return
        if write.op == "append":
            return
        if write.op == "put":
            if self.discipline == APPEND_ONLY:
                raise DisciplineViolation(f"object {self.name!r} is append-only")
            return
        raise DisciplineViolation(f"unknown object op {write.op!r}")

    def apply(self, write: ObjectWrite) -> None:
        self.check(write)
        if write.op == "read":
            return
        self._journal.append({"op": write.op, "key": write.key, "value": write.value})

    def state(self) -> dict:
        data: dict = {}
        for entry in self._journal:
            data[entry["key"]] = entry["value"]
        return data

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self._journal).encode("utf-8")).hexdigest()

    def clone(self) -> EnterpriseObject:
        twin = EnterpriseObject(self.name, self.discipline)
        twin._journal = list(self._journal)
        return twin


class ActionResult(NamedTuple):
    verdict: Verdict
    request_seq: int
    verdict_seq: int


class ApplyResult(NamedTuple):
    accepted: bool
    reason: str | None = None
    seq: int | None = None
    token_id: int | None = None


class _Pending(NamedTuple):
    actor: str
    action: str
    subject: str | None
    effects: tuple[ObjectWrite, ...]


# templates that passed validation, by identity: a template is immutable, so a
# check of the same object would find what it found the first time. It is hit
# wherever one template object is instantiated again: every `replay` pass, and
# the bench's oracle_crosscheck set-up, which builds the shared criterion-5
# fixture 400 times a sample and saves about 17 µs a build (of about 150)
_VALID_TEMPLATES: weakref.WeakValueDictionary[int, CommunityTemplate] = (
    weakref.WeakValueDictionary()
)


def _check_valid(template: CommunityTemplate) -> None:
    """Raise InvalidTemplate if `template` has validation errors; each template object is validated once."""
    if _VALID_TEMPLATES.get(id(template)) is not template:
        findings = validate_template(template)
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        if errors:
            raise InvalidTemplate("; ".join(str(f) for f in errors))
        _VALID_TEMPLATES[id(template)] = template


class CommunityInstance:
    """One running community; each event is one `with self:` block, serialized under a lock."""

    # the chained input records a replay's shadow confirms as it writes; None on a live instance
    _replay_input: _CheckedLog | None = None
    # the id of the thread inside a `with self:` block; None while no event is open
    _holder: int | None = None

    def __enter__(self) -> None:
        """Open an event: take the lock, unless this thread holds it already.

        A mutator or `TraceMonitor.attach` called from a listener raises
        ProtocolViolation before its event is numbered. `export_log` and
        `clone` take the re-entrant lock alone, so a listener may call them.
        """
        thread = get_ident()
        if self._holder == thread:
            raise ProtocolViolation("an event of this instance is open on this thread")
        self._lock.acquire()
        self._holder = thread
        self._start = len(self._records)

    def __exit__(self, *exc_info) -> None:
        """Show every listener every record the block logged, in order, then release the lock.

        A listener sees an event only once it is logged whole; the first error
        one raises then reaches the caller and undoes nothing.
        """
        error = None
        try:
            if self._listeners:
                for record in self._records[self._start :]:
                    for listener in self._listeners:
                        try:
                            listener(record)
                        except Exception as exc:
                            error = error or exc
        finally:
            self._holder = None
            self._lock.release()
        if error is not None:
            raise error

    def __init__(
        self,
        template: CommunityTemplate,
        mode: str,
        owner: Principal,
        object_disciplines: dict[str, str] | None = None,
    ):
        _check_valid(template)
        if mode not in MODES:
            raise InvalidTemplate(f"unknown deployment mode {mode!r}")

        self.template = template
        self.mode = mode
        self.owner = owner
        self.tokens = TokenStore()
        self.roster = Roster(template)
        self.roster.principals[owner.id] = owner
        self._records: list[AuditRecord] = []
        self._next_seq = 0
        self._event_counter = 0
        self._listeners: list[Callable[[AuditRecord], None]] = []
        self._pending: dict[int, _Pending] = {}
        self._negotiation_proposer: str | None = None
        self._lock = RLock()

        disciplines = dict(object_disciplines or {})
        self.objects: dict[str, EnterpriseObject] = {}
        for decl in template.objects:
            self.objects[decl.name] = EnterpriseObject(
                decl.name, disciplines.pop(decl.name, APPEND_ONLY)
            )
        if disciplines:  # a misspelt object would silently keep the default
            raise DisciplineViolation(f"unknown object {next(iter(disciplines))!r}")

        with self:
            self._begin_event()
            owner_detail = {"id": owner.id, "name": owner.name, "kind": owner.kind}
            disciplines = {o.name: o.discipline for o in self.objects.values()}
            self._append(
                KIND_GENESIS,
                None,
                {"community": template.name, "mode": mode, "owner": owner_detail, "disciplines": disciplines},
                f'{{"community":{canonical_json(template.name)},"disciplines":{canonical_json(disciplines)},',
                f',"mode":{canonical_json(mode)},"owner":{canonical_json(owner_detail)}}}',
            )
            for policy in template.policies:
                holder = deontic.holder_for_name(self.roster, policy.target)
                token = deontic.create_token(
                    self.tokens,
                    self.roster,
                    policy.modality,
                    policy.action,
                    holder,
                    None,
                    owner.id,
                    self._next_seq,
                    requires_action=policy.requires.action if policy.requires else None,
                    unless_action=policy.unless.action if policy.unless else None,
                    unless_target=policy.unless.target if policy.unless else None,
                )
                self._log_token_created(token, origin="policy")

    # ------------------------------------------------------------------
    # queries

    def bindings(self) -> tuple[RoleBinding, ...]:
        return tuple(self.roster)

    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    @property
    def head_seq(self) -> int:
        return self._next_seq - 1

    @property
    def event_count(self) -> int:
        return self._event_counter

    def add_listener(self, listener: Callable[[AuditRecord], None]) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # audit plumbing

    def _append(self, kind: str, actor: str | None, detail: dict, head: str, tail: str) -> AuditRecord:
        """Log `detail` with the number of the event last begun as its "event".

        The detail's canonical JSON is `head`, that member, then `tail`: its
        writer wrote each other member, in key order, from the values it put
        in `detail`. `head` ends in "{" or ",", and `tail` starts with "," or "}".
        """
        event = self._event_counter - 1
        detail["event"] = event
        text = f'{head}"event":{event}{tail}'
        prev = self._records[-1].hash if self._records else GENESIS_PREV_HASH
        seq = self._next_seq
        inputs = self._replay_input
        if inputs is None:
            digest = record_digest(prev, seq, kind, actor, text)
            record = _written_record(seq, kind, actor, detail, prev, digest, text)
        else:  # a replay's shadow keeps the input record it confirms
            # the input chains, so the record at seq carries the digest of its own
            # fields; _record_at confirms that they are the ones written here, and
            # refuses a seq past the input's end
            digest = inputs[seq].hash if seq < len(inputs) else None
            record = _record_at(inputs, seq, prev, digest, kind, actor, text)
        self._records.append(record)
        self._next_seq += 1
        return record

    def _begin_event(self) -> None:
        """Open the next event; its first records are the burdens now overdue."""
        self._event_counter += 1
        for token in deontic.expire_due(self.tokens, self._next_seq):
            self._transition(token, TokenState.HELD, TokenState.VIOLATED, deadline=token.deadline)

    # Record writers. Every token transition, verdict, escalation and speech
    # act record is written by exactly one of these, so each kind has one shape.
    # Each builds its detail and, from the same values, that detail's canonical
    # JSON but for the event number, which _append writes: a string with
    # _str_json (never format(), which a str subclass overrides), an int as the
    # exact int the runtime or _check_fields allows, and a value the caller
    # shaped, nested or of a type no check fixed, with canonical_json. A
    # speech act's payload is always such a value: _log_act encodes it, whether
    # it is the boundary's copy or the fields a handler read.

    def _transition(
        self,
        token: Token,
        frm: TokenState,
        to: TokenState,
        *,
        by: str | None = None,
        deadline: int | None = None,
        evidence: int | None = None,
        holder: dict | None = None,
        link: dict | None = None,
        target: str | None = None,
    ) -> AuditRecord:
        detail = {"token": token.id, "from": frm.value, "to": to.value}
        head = "{"
        if by is not None:
            detail["by"] = by
            head += f'"by":{_str_json(by)},'
        if deadline is not None:
            detail["deadline"] = deadline
            head += f'"deadline":{deadline},'
        tail = ""
        if evidence is not None:
            detail["evidence"] = evidence
            tail = f',"evidence":{evidence}'
        tail += f',"from":{_str_json(frm.value)}'
        if holder is not None:  # a delegation's return to HELD: the new holder and link
            detail["holder"], detail["link"] = holder, link
            tail += f',"holder":{canonical_json(holder)},"link":{canonical_json(link)}'
        if target is not None:
            detail["target"] = target
            tail += f',"target":{_str_json(target)}'
        tail += f',"to":{_str_json(to.value)},"token":{token.id}}}'
        return self._append(KIND_TOKEN_TRANSITION, None, detail, head, tail)

    def _log_token_created(self, token: Token, origin: str) -> AuditRecord:
        holder = token.holder
        detail = {
            "token": token.id,
            "from": "CREATED",
            "to": "HELD",
            "modality": token.modality.value,
            "action": token.action,
            "holder": holder.to_detail(),
            "issuer": token.issuer,
            "chain_head": token.chain.head,
            "origin": origin,
        }
        if token.subject is not None:
            detail["subject"] = token.subject
        if token.deadline is not None:
            detail["deadline"] = token.deadline
        if token.requires_action is not None:
            detail["requires"] = token.requires_action
        if token.unless_action is not None:
            detail["unless_action"] = token.unless_action
        if token.unless_target is not None:
            detail["unless_target"] = token.unless_target
        head = f'{{"action":{_str_json(token.action)},"chain_head":{_str_json(token.chain.head)},'
        if token.deadline is not None:
            head += f'"deadline":{token.deadline},'
        tail = (
            f',"from":"CREATED"'
            f',"holder":{{"kind":{_str_json(holder.kind.value)},"name":{_str_json(holder.name)}}}'
            f',"issuer":{_str_json(token.issuer)},"modality":{_str_json(token.modality.value)}'
            f',"origin":{_str_json(origin)}'
        )
        if token.requires_action is not None:
            tail += f',"requires":{_str_json(token.requires_action)}'
        if token.subject is not None:
            tail += f',"subject":{_str_json(token.subject)}'
        tail += f',"to":"HELD","token":{token.id}'
        if token.unless_action is not None:
            tail += f',"unless_action":{_str_json(token.unless_action)}'
        if token.unless_target is not None:
            tail += f',"unless_target":{_str_json(token.unless_target)}'
        return self._append(KIND_TOKEN_TRANSITION, None, detail, head, tail + "}")

    def _log_verdict(
        self,
        request: int,
        actor: str,
        action: str,
        subject: str | None,
        verdict: Verdict,
        approved_by: str | None = None,
    ) -> AuditRecord:
        outcome, permits, blockers, reason = verdict
        detail = {"outcome": outcome, "request": request, "actor": actor, "action": action}
        if permits:
            detail["permits"] = list(permits)
        if blockers:
            detail["blockers"] = list(blockers)
        if reason is not None:
            detail["reason"] = reason
        if subject is not None:
            detail["subject"] = subject
        if approved_by is not None:
            detail["approved_by"] = approved_by
        head = f'{{"action":{_str_json(action)},"actor":{_str_json(actor)},'
        if approved_by is not None:
            head += f'"approved_by":{_str_json(approved_by)},'
        if blockers:
            head += f'"blockers":{_int_list(blockers)},'
        tail = f',"outcome":{_str_json(outcome)}'
        if permits:
            tail += f',"permits":{_int_list(permits)}'
        if reason is not None:
            tail += f',"reason":{_str_json(reason)}'
        tail += f',"request":{request}'
        if subject is not None:
            tail += f',"subject":{_str_json(subject)}'
        return self._append(KIND_VERDICT, None, detail, head, tail + "}")

    def _review_burden(
        self, condition: str, issuer: str, subject: str | None = None
    ) -> Token | None:
        """Create the review burden an escalation opens, where a rule names a role."""
        rule = self._find_escalation_rule(condition)
        if rule is None:
            return None
        return deontic.create_token(
            self.tokens,
            self.roster,
            Modality.BURDEN,
            REVIEW_ACTION,
            HolderRef(HolderKind.ROLE, rule.to_role),
            subject,
            issuer,
            self._next_seq,
        )

    def _escalate(
        self, agent: str, condition: str, burden: Token | None, request: int | None = None
    ) -> None:
        """Log an escalation and the review burden it opened, if any."""
        detail: dict = {"condition": condition, "agent": agent}
        head, tail = f'{{"agent":{_str_json(agent)},', ""
        if request is not None:
            detail["request"] = request
            tail = f',"request":{request}'
        if burden is not None:
            detail.update(to_role=burden.holder.name, burden=burden.id)
            head += f'"burden":{burden.id},'
            tail += f',"to_role":{_str_json(burden.holder.name)}'
        head += f'"condition":{canonical_json(condition)},'
        self._append(KIND_ESCALATION, agent, detail, head, tail + "}")
        if burden is not None:
            self._log_token_created(burden, origin="escalation")

    def _log_act(
        self, sender: str, kind: SpeechActKind, payload: dict, rejected_for: str | None = None
    ) -> AuditRecord:
        detail: dict = {"kind": kind.value, "payload": payload}
        tail = f',"kind":{_str_json(kind.value)},"payload":{canonical_json(payload)}'
        if rejected_for is not None:
            detail.update(rejected=True, reason=rejected_for)
            tail += f',"reason":{_str_json(rejected_for)},"rejected":true'
        return self._append(KIND_SPEECH_ACT, sender, detail, "{", tail + "}")

    def _reject(self, sender: str, kind: SpeechActKind, payload: dict, reason: str) -> ApplyResult:
        return ApplyResult(False, reason, self._log_act(sender, kind, payload, reason).seq)

    # ------------------------------------------------------------------
    # principals and bindings

    def register_principal(
        self, principal_id: str, name: str | None = None, kind: str = "organization"
    ) -> Principal:
        with self:
            principals = self.roster.principals
            if principal_id in principals:
                return principals[principal_id]
            if self.roster.ever_bound(principal_id):
                raise NameCollision(f"{principal_id!r} names an agent, not a principal")
            # only a null or empty name gives way to the id: Principal refuses 0 and False
            principal = Principal(principal_id, principal_id if name in (None, "") else name, kind)
            principals[principal_id] = principal
            self._begin_event()
            self._append(
                KIND_BINDING,
                None,
                {
                    "event_type": "register_principal",
                    "principal": principal.id,
                    "name": principal.name,
                    "kind": principal.kind,
                },
                "{",
                f',"event_type":"register_principal","kind":{_str_json(principal.kind)}'
                f',"name":{_str_json(principal.name)},"principal":{_str_json(principal.id)}}}',
            )
            return principal

    def bind_agent(
        self, role: str, agent: str, kind: RoleKind | str, principal: str
    ) -> RoleBinding:
        with self:
            if not self.roster.is_principal(principal):
                raise UnknownPrincipal(f"principal {principal!r} is not registered")
            return self._bind(role, agent, kind, principal)

    def force_bind(
        self, role: str, agent: str, kind: RoleKind | str, principal: str
    ) -> RoleBinding:
        """Bind without requiring a registered principal.

        Exists for fault injection: the accountability property must be able
        to see a binding whose principal was never registered.
        """
        with self:
            return self._bind(role, agent, kind, principal)

    def _bind(self, role: str, agent: str, kind: RoleKind | str, principal: str) -> RoleBinding:
        _check_fields({"role": role, "agent": agent, "principal": principal}, "binding")
        roster = self.roster
        if roster.is_principal(agent) or roster.is_role(agent) or roster.is_group(agent):
            raise NameCollision(f"{agent!r} names a principal, a role or a group, not an agent")
        decl = self.template.role(role)
        if decl is None:
            raise UnknownRole(f"role {role!r} is not declared")
        try:
            kind = ROLE_KINDS[kind]
        except (KeyError, TypeError):  # unknown, or unhashable
            raise KindMismatch(f"unknown agent kind {kind!r}") from None
        if kind is not decl.kind:
            raise KindMismatch(f"role {role!r} requires kind {decl.kind.value}, got {kind.value}")
        existing_kind = roster.agent_kind(agent)
        if existing_kind is not None and existing_kind is not kind:
            raise KindMismatch(f"agent {agent!r} is already bound with kind {existing_kind.value}")
        existing_principal = roster.principal_of(agent)
        if existing_principal is not None and existing_principal != principal:
            raise UnknownPrincipal(
                f"agent {agent!r} already acts for principal {existing_principal!r}"
            )
        if roster.has_role(agent, role):
            raise CardinalityExceeded(f"agent {agent!r} already fills role {role!r}")
        count = roster.count(role)
        if decl.max_card is not None and count + 1 > decl.max_card:
            raise CardinalityExceeded(
                f"role {role!r} already has {count} of at most {decl.max_card} fillers"
            )
        self._begin_event()
        binding = RoleBinding(role, agent, kind, principal, self._next_seq)
        roster.add(binding)
        detail = {
            "event_type": "bind",
            "role": role,
            "agent": agent,
            "agent_kind": kind.value,
            "principal": principal,
        }
        head = f'{{"agent":{_str_json(agent)},"agent_kind":{_str_json(kind.value)},'
        tail = f',"event_type":"bind","principal":{_str_json(principal)},"role":{_str_json(role)}}}'
        self._append(KIND_BINDING, agent, detail, head, tail)
        return binding

    def unbind_agent(self, role: str, agent: str) -> None:
        with self:
            _check_fields({"role": role, "agent": agent}, "unbinding")
            if self.template.role(role) is None:
                raise UnknownRole(f"role {role!r} is not declared")
            if not self.roster.has_role(agent, role):
                raise UnknownAgent(f"agent {agent!r} does not fill role {role!r}")
            self._begin_event()
            self.roster.remove(role, agent)
            detail = {"event_type": "unbind", "role": role, "agent": agent}
            head = f'{{"agent":{_str_json(agent)},'
            tail = f',"event_type":"unbind","role":{_str_json(role)}}}'
            self._append(KIND_BINDING, agent, detail, head, tail)

    # ------------------------------------------------------------------
    # deployment mode

    def set_mode(self, mode: str, by: str | None = None) -> None:
        if mode not in MODES:
            raise InvalidTemplate(f"unknown deployment mode {mode!r}")
        _check_fields({"by": by}, "mode_change")
        with self:
            self._begin_event()
            previous = self.mode
            self.mode = mode
            tail = f',"from":{canonical_json(previous)},"to":{canonical_json(mode)}}}'
            self._append(KIND_MODE_CHANGE, by, {"from": previous, "to": mode}, "{", tail)

    # ------------------------------------------------------------------
    # actions

    def submit_action(
        self,
        actor: str,
        action: str,
        subject: str | None = None,
        effects: Iterable[ObjectWrite | dict] = (),
    ) -> ActionResult:
        with self:
            # the actor is logged as it is sent: a non-string that a lookup takes
            # for an agent's name must fail here, before the event
            _check_fields({"actor": actor, "action": action, "subject": subject}, "action_request")
            if not self.roster.is_agent(actor):
                raise UnknownAgent(f"{actor!r} is not bound to any role")
            writes = tuple(map(self._coerce_write, effects))
            for write in writes:
                obj = self.objects.get(write.object)
                if obj is None:
                    raise DisciplineViolation(f"unknown object {write.object!r}")
                obj.check(write)
            request_detail: dict = {"action": action}
            if subject is not None:
                request_detail["subject"] = subject
            # _check_fields has shown the action and subject to be strings
            head = f'{{"action":{_str_json(action)},'
            tail = "}" if subject is None else f',"subject":{_str_json(subject)}}}'
            if writes:
                # log and journal a copy: the caller may change its effect values
                # later. Encoding it fails before the event if it is unloggable. The
                # copy is encoded afresh: JSON makes integer keys strings, which sort
                # otherwise ({2: …, 10: …} is checked as {"2":…,"10":…}, and the
                # copy's canonical text is {"10":…,"2":…})
                effects = _scan_json(_caller_json([w.to_detail() for w in writes]), 0)[0]
                request_detail["effects"] = effects
                writes = tuple(map(self._coerce_write, effects))
                head += f'"effects":{canonical_json(effects)},'

            self._begin_event()
            request = self._append(KIND_ACTION_REQUEST, actor, request_detail, head, tail)

            verdict = deontic.check_action_admissible(self.tokens, self.roster, actor, action, subject)
            # only the advisory and supervised modes treat an AI actor apart
            actor_is_ai = self.mode != MODE_AUTONOMOUS and self.roster.in_group(actor, "ALL_AI_AGENTS")

            if verdict.admissible and self.mode == MODE_ADVISORY and actor_is_ai:
                verdict = Verdict(
                    OUTCOME_RECOMMENDED, permits=verdict.permits, reason=verdict.reason
                )
                self._pending[request.seq] = _Pending(actor, action, subject, writes)

            verdict_record = self._log_verdict(request.seq, actor, action, subject, verdict)

            if verdict.admissible:
                for write in writes:
                    self.objects[write.object].apply(write)
            elif (
                verdict.outcome == OUTCOME_BLOCKED
                and self.mode == MODE_SUPERVISED
                and actor_is_ai
            ):
                condition = ESCALATION_CONDITION_BLOCKED
                burden = self._review_burden(condition, self.owner.id)
                self._escalate(actor, condition, burden, request=request.seq)

            return ActionResult(verdict, request.seq, verdict_record.seq)

    def _coerce_write(self, effect: ObjectWrite | dict) -> ObjectWrite:
        if isinstance(effect, ObjectWrite):
            return effect
        return ObjectWrite(
            object=effect["object"],
            op=effect.get("op", "append"),
            key=effect["key"],
            value=effect.get("value"),
        )

    def _find_escalation_rule(self, condition: str):
        for contract in self.template.contracts:
            for rule in contract.escalations:
                if rule.condition == condition:
                    return rule
        return None

    # ------------------------------------------------------------------
    # speech acts

    def apply_speech_act(self, act: SpeechAct) -> ApplyResult:
        with self:
            kind = act.kind if type(act.kind) is SpeechActKind else SpeechActKind(act.kind)
            _check_fields(vars(act), "speech_act")
            # fails before the event if the payload cannot be logged; the copy is
            # what replay reads back and shares nothing with the caller
            payload = _scan_json(_caller_json(dict(act.payload)), 0)[0]

            self._begin_event()
            reason = self._authorize(act.sender, kind)
            if reason is None:
                try:
                    _check_fields(payload, kind)
                except TypeError:
                    return self._reject(act.sender, kind, payload, "MalformedPayload")
                try:
                    return self._dispatch(act.sender, kind, payload)
                except GovernanceError as exc:
                    reason = exc.code
            return self._reject(act.sender, kind, payload, reason)

    def _authorize(self, sender: str, kind: SpeechActKind) -> str | None:
        if not self.roster.is_agent(sender):
            return UnknownAgent.__name__
        roles = self.roster.roles_of(sender)
        for contract in self.template.contracts:
            for role, kinds in contract.allows:
                if kind in kinds and role in roles:
                    return None
        return UnauthorizedSpeechAct.__name__

    def _dispatch(self, sender: str, kind: SpeechActKind, payload: dict) -> ApplyResult:
        """Apply an authorized act."""
        if kind in _CREATED_MODALITY:
            return self._act_create(sender, kind, payload)
        # transfer, discharge and revoke log the payload fields they read
        if kind is SpeechActKind.TRANSFER:
            return self._act_transfer(sender, payload)
        if kind is SpeechActKind.DISCHARGE:
            return self._act_discharge(sender, payload)
        if kind is SpeechActKind.REVOKE:
            return self._act_revoke(sender, payload)
        if kind in NEGOTIATION_KINDS:
            return self._act_negotiation(sender, kind, payload)
        if kind is SpeechActKind.ESCALATE:
            return self._act_escalate(sender, payload)
        raise RuntimeError(f"unhandled speech act kind {kind}")  # pragma: no cover

    def _act_create(self, sender: str, kind: SpeechActKind, payload: dict) -> ApplyResult:
        if kind is SpeechActKind.GRANT:
            # grant = permit for one concrete agent; it takes a guard and nothing else
            grantee = payload["to"]
            if not self.roster.is_agent(grantee):
                raise UnknownAgent(f"grantee {grantee!r} is not bound to any role")
            holder = HolderRef(HolderKind.AGENT, grantee)
            fields = ("requires_action",)
        else:
            fields = ("deadline", "requires_action", "unless_action", "unless_target")
            holder = deontic.holder_for_name(self.roster, payload["holder"])
        token = deontic.create_token(
            self.tokens,
            self.roster,
            _CREATED_MODALITY[kind],
            payload["action"],
            holder,
            payload.get("subject"),
            sender,
            self._next_seq,
            **{name: payload.get(name) for name in fields},
        )
        record = self._log_act(sender, kind, payload)
        self._log_token_created(token, origin="speech_act")
        return ApplyResult(True, seq=record.seq, token_id=token.id)

    def _act_transfer(self, sender: str, payload: dict) -> ApplyResult:
        token_id, to = payload["token"], payload["to"]
        token = deontic.delegate_burden(self.tokens, self.roster, token_id, sender, to, self._next_seq)
        record = self._log_act(sender, SpeechActKind.TRANSFER, {"token": token_id, "to": to})
        self._transition(token, TokenState.HELD, TokenState.DELEGATED, by=sender, target=to)
        self._transition(
            token,
            TokenState.DELEGATED,
            TokenState.HELD,
            holder=token.holder.to_detail(),
            link={"from": sender, "to": to, "at": token.chain.links[-1].at},
        )
        return ApplyResult(True, seq=record.seq, token_id=token.id)

    def _act_discharge(self, sender: str, payload: dict) -> ApplyResult:
        token_id, evidence = payload["token"], payload.get("evidence", self.head_seq)
        token = deontic.discharge_burden(self.tokens, self.roster, token_id, sender, evidence, self.head_seq)
        record = self._log_act(sender, SpeechActKind.DISCHARGE, {"token": token_id, "evidence": evidence})
        self._transition(token, TokenState.HELD, TokenState.DISCHARGED, by=sender, evidence=evidence)
        return ApplyResult(True, seq=record.seq, token_id=token.id)

    def _act_revoke(self, sender: str, payload: dict) -> ApplyResult:
        token = deontic.revoke_token(self.tokens, self.roster, payload["token"], sender)
        record = self._log_act(sender, SpeechActKind.REVOKE, {"token": token.id})
        self._transition(token, TokenState.HELD, TokenState.REVOKED, by=sender)
        return ApplyResult(True, seq=record.seq, token_id=token.id)

    def _act_negotiation(self, sender: str, kind: SpeechActKind, payload: dict) -> ApplyResult:
        if kind in (SpeechActKind.ACCEPT, SpeechActKind.REJECT) and "request_seq" in payload:
            return self._decide_recommendation(sender, kind, payload)

        # a proposal is pending while it has a proposer; a sender is always a str
        if kind is SpeechActKind.PROPOSE:
            if self._negotiation_proposer is not None:
                raise ProtocolViolation("a proposal is already pending")
            self._negotiation_proposer = sender
        else:
            if self._negotiation_proposer is None:
                raise ProtocolViolation(f"{kind.value} without a pending proposal")
            if sender == self._negotiation_proposer:
                raise ProtocolViolation("proposer cannot answer its own proposal")
            self._negotiation_proposer = sender if kind is SpeechActKind.COUNTER_PROPOSE else None

        record = self._log_act(sender, kind, payload)
        history = self.objects.get("NegotiationHistory")
        if history is not None:
            entry: dict = {"kind": kind.value, "by": sender}
            if "body" in payload:
                entry["body"] = payload["body"]
            history.apply(ObjectWrite("NegotiationHistory", "append", str(record.seq), entry))
        return ApplyResult(True, seq=record.seq)

    def _decide_recommendation(
        self, sender: str, kind: SpeechActKind, payload: dict
    ) -> ApplyResult:
        request_seq = payload["request_seq"]
        pending = self._pending.get(request_seq)
        if pending is None:
            raise ProtocolViolation(f"no pending recommendation for request {request_seq}")
        approve = kind is SpeechActKind.ACCEPT
        if self.roster.agent_kind(sender) is not RoleKind.HUMAN:
            verb = "approve" if approve else "reject"
            raise ProtocolViolation(f"only a human may {verb} a recommendation")
        del self._pending[request_seq]
        record = self._log_act(sender, kind, {"request_seq": request_seq})
        if approve:
            subject = pending.subject
            try:
                verdict = deontic.check_action_admissible(
                    self.tokens, self.roster, pending.actor, pending.action, subject
                )
            except UnknownAgent:
                verdict = Verdict(OUTCOME_BLOCKED, reason=UnknownAgent.__name__)
        else:
            # a rejection's verdict names no subject
            subject, verdict = None, Verdict(OUTCOME_BLOCKED, reason="rejected")
        self._log_verdict(
            request_seq, pending.actor, pending.action, subject, verdict, approved_by=sender
        )
        if verdict.admissible:
            for write in pending.effects:
                self.objects[write.object].apply(write)
        return ApplyResult(True, seq=record.seq)

    def _act_escalate(self, sender: str, payload: dict) -> ApplyResult:
        condition = payload["condition"]
        # the burden comes before the event's first record, so a failure to
        # create it leaves a single rejected record, as every other act does
        burden = self._review_burden(condition, sender, payload.get("subject"))
        if burden is None:
            return self._reject(sender, SpeechActKind.ESCALATE, payload, "no-escalation-rule")
        record = self._log_act(sender, SpeechActKind.ESCALATE, payload)
        self._escalate(sender, condition, burden)
        return ApplyResult(True, seq=record.seq, token_id=burden.id)

    # ------------------------------------------------------------------
    # export and clone

    def export_log(self) -> str:
        with self._lock:
            header = f"{_HEADER_START}{_header_json(self.template.name)}}}"
            # one list, joined once: the empty last item writes the final newline
            return "\n".join([header, *(r.to_line() for r in self._records), ""])

    def clone(self) -> CommunityInstance:
        """Independent copy for search over alternative futures.

        Listeners are not carried over; attach fresh ones to the clone.
        """
        with self._lock:
            twin = CommunityInstance.__new__(CommunityInstance)
            twin.template = self.template
            twin.mode = self.mode
            twin.owner = self.owner
            twin.tokens = self.tokens.clone()
            twin.roster = self.roster.clone()
            twin._records = list(self._records)
            twin._next_seq = self._next_seq
            twin._event_counter = self._event_counter
            twin._listeners = []
            twin._pending = dict(self._pending)
            twin._negotiation_proposer = self._negotiation_proposer
            twin._lock = RLock()
            twin.objects = {name: obj.clone() for name, obj in self.objects.items()}
            return twin


# ----------------------------------------------------------------------
# module-level operation wrappers


def instantiate_community(
    template: CommunityTemplate,
    mode: str = MODE_AUTONOMOUS,
    owner: Principal | None = None,
    object_disciplines: dict[str, str] | None = None,
) -> CommunityInstance:
    if owner is None:
        owner = Principal("community_owner", "community_owner", "organization")
    return CommunityInstance(template, mode, owner, object_disciplines)


# ----------------------------------------------------------------------
# export / import / replay


# parse_export reads its text about this many characters at a time, so it holds
# one block's lines beside its records. A block ends just after a "\n", so it
# never splits a line, nor "\r\n" or any other line separator str.splitlines
# knows; the lines of the blocks are the text's lines
_BLOCK_CHARS = 1 << 14


def _nonblank_blocks(text: str) -> Iterator[list[str]]:
    """The lines of text.splitlines() that hold more than whitespace, split and listed one block at a time."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or size
        lines = [line for line in text[start:end].splitlines() if line.strip()]
        if lines:
            yield lines
        start = end


# what decoding a line can raise: JSONDecodeError is a ValueError, as is an
# integer literal longer than sys.get_int_max_str_digits(); deep nesting recurses
_UNREADABLE_JSON = (ValueError, RecursionError)
# what making a record of a decoded value can raise
_UNREADABLE_RECORD = (*_UNREADABLE_JSON, KeyError, TypeError)


def _decode_line(line: str) -> object:
    """The value of one line, as json.loads reads it."""
    try:
        raw, end = _scan_json(line, 0)
    except StopIteration:  # no value at the line's start: decode reports why
        end = -1
    if end != len(line):  # whitespace or data after the value: decode judges it
        raw = _decode_json(line)
    return raw


def _record_of(raw, names: dict, prev: str | None) -> AuditRecord:
    """The record of a decoded line. Its kind, actor, detail keys and top-level
    detail string values are the strings kept in `names`, and a `prev_hash`
    equal to `prev` is `prev`."""
    detail, prev_hash = raw["detail"], raw["prev_hash"]
    if type(detail) is dict:
        share = names.setdefault
        detail = {
            share(key, key): share(value, value) if type(value) is str else value
            for key, value in detail.items()
        }
    kind = names.setdefault(raw["kind"], raw["kind"])
    actor = names.setdefault(raw["actor"], raw["actor"])
    if prev_hash == prev:
        prev_hash = prev
    digest = raw["hash"]  # read before the seq, so a record lacking both names the hash
    return AuditRecord(raw["seq"], kind, actor, detail, prev_hash, digest)


def parse_export(text: str) -> tuple[dict, list[AuditRecord]]:
    """Parse an export; verify header shape only (chain check is separate).

    Each record's detail is encoded once, here. Repeated strings are held
    once: a `prev_hash` equal to the previous record's hash is that string,
    and each distinct kind, actor, detail key and top-level detail string
    value is one string for all records. Each line is decoded alone. A line
    AuditRecord refuses is an IntegrityError at its position; a bad header,
    or an export without records, at seq 0. The text is split one block at a
    time, so only the records and one block's lines are held.
    """
    blocks = _nonblank_blocks(text)
    first = next(blocks, None)
    if first is None:
        raise IntegrityError("empty export", 0)
    try:
        header = _decode_json(first[0])
    except _UNREADABLE_JSON as exc:
        raise IntegrityError(f"unreadable header: {exc}", 0) from exc
    if not isinstance(header, dict):
        raise IntegrityError("header is not a JSON object", 0)
    if header.get("format") != EXPORT_FORMAT:
        raise IntegrityError(f"unknown export format {header.get('format')!r}", 0)
    if header.get("digest") != DIGEST_NAME:
        raise IntegrityError(f"unsupported digest {header.get('digest')!r}", 0)
    records: list[AuditRecord] = []
    names: dict[str, str] = {}
    prev = None
    for lines in itertools.chain([first[1:]], blocks):
        for line in lines:
            try:
                record = _record_of(_decode_line(line), names, prev)
            except _UNREADABLE_RECORD as exc:
                seq = len(records)
                raise IntegrityError(f"unreadable record on line {seq + 2}: {exc}", seq) from exc
            prev = record.hash
            records.append(record)
    if not records:
        raise IntegrityError("export holds no records", 0)
    return header, records


def _record_at(
    records: list[AuditRecord] | tuple[AuditRecord, ...],
    seq: int,
    prev_hash: str,
    digest: str,
    kind: str,
    actor: str | None,
    detail_json: str,
) -> AuditRecord:
    """Return the input record at `seq` if it is the record with these fields; else raise IntegrityError.

    The one rule by which verify_chain and replay place a fault. A record whose
    seq is not its position is reported at the larger of the two, so a dropped
    record shows at the seq after it; any other difference at `seq`. Equal
    detail texts mean equal JSON types too: 2e2 does not pass for 200, nor true for 1.
    """
    if seq >= len(records):
        raise IntegrityError(f"seq {seq} lies beyond the input's end", seq)
    record = records[seq]
    if record.seq != seq:
        raise IntegrityError(f"sequence gap: expected {seq}, found {record.seq}", max(record.seq, seq))
    if record.prev_hash != prev_hash:
        raise IntegrityError(f"broken chain link at seq {seq}", seq)
    if (record.hash, record.kind, record.actor, record.detail_json) != (digest, kind, actor, detail_json):
        raise IntegrityError(f"digest mismatch at seq {seq}", seq)
    return record


def verify_chain(records: list[AuditRecord] | tuple[AuditRecord, ...]) -> None:
    """Recompute the hash chain; raise IntegrityError at the first bad seq, as _record_at places it."""
    prev = GENESIS_PREV_HASH
    for seq, record in enumerate(records):
        kind, actor, text = record.kind, record.actor, record.detail_json
        digest = record_digest(prev, seq, kind, actor, text)
        prev = _record_at(records, seq, prev, digest, kind, actor, text).hash


class _CheckedLog(tuple):
    """Records that verify_chain has passed: each sits at its seq, links to the
    one before it and carries the digest of its own fields.

    import_log and replay build one, each only once verify_chain has passed. It
    is immutable, and a slice or a copy of it is a plain tuple or list, which
    replay passes through verify_chain again.
    """

    __slots__ = ()


def import_log(text: str) -> tuple[dict, tuple[AuditRecord, ...]]:
    """Parse an export and check its chain; the records come back as an immutable tuple."""
    header, records = parse_export(text)
    verify_chain(records)
    return header, _CheckedLog(records)


# what re-executing a tampered record can raise; replay reports each as an IntegrityError
_REEXECUTION_ERRORS = (GovernanceError, InvalidTemplate, KeyError, TypeError, ValueError)


def replay(
    template: CommunityTemplate, text_or_records: str | Sequence[AuditRecord]
) -> CommunityInstance:
    """Rebuild an instance by re-executing the initiating records, confirming each record as it writes it.

    Every input passes the chain check first: text through import_log, the
    records import_log returns as they are, and any other iterable as a tuple
    through verify_chain, whose IntegrityError, message and seq, replay raises
    as it is. Derived records (expiries, verdicts, transitions, escalations)
    are regenerated, not read back. Each record the rebuilt instance writes
    must be the input record at its seq by the rule verify_chain applies
    (`_record_at`), taken with that record's own digest: on a chained input
    only its kind, actor and detail text, or the input's end, can differ, and
    equal fields mean an equal hash. So each record is hashed once, by the
    chain check. The instance keeps the input record, so it holds one copy of
    each. On a chained input, IntegrityError names the first seq that
    differs, that is never regenerated, that lies beyond the input's end, or
    whose initiating record cannot be re-executed. A template of another
    community, or one with validation errors, is an InvalidTemplate.
    """
    if isinstance(text_or_records, str):
        _, records = import_log(text_or_records)
    elif type(text_or_records) is _CheckedLog:
        records = text_or_records
    else:
        records = tuple(text_or_records)
        verify_chain(records)
        records = _CheckedLog(records)
    if not records or records[0].kind != KIND_GENESIS:
        raise IntegrityError("export does not start with a genesis record", 0)
    genesis = records[0].detail
    community = genesis.get("community")
    if community != template.name:
        raise InvalidTemplate(f"log is for community {community!r}, not {template.name!r}")
    _check_valid(template)  # the caller's fault, not the log's: not an IntegrityError
    instance = CommunityInstance.__new__(CommunityInstance)
    instance._replay_input = records  # before __init__ writes event 0
    try:
        owner_info = genesis["owner"]
        owner = Principal(owner_info["id"], owner_info["name"], owner_info["kind"])
        instance.__init__(template, genesis["mode"], owner, dict(genesis.get("disciplines", {})))
    except _REEXECUTION_ERRORS as exc:
        raise IntegrityError(f"genesis cannot be re-executed: {exc!r}", 0) from exc
    for seq, record in enumerate(records):
        if record.kind not in INITIATING_KINDS:
            continue  # regenerated by the next event, or found to differ there
        try:
            _replay_record(instance, record)
        except _REEXECUTION_ERRORS as exc:
            reason = f"seq {seq} cannot be re-executed: {exc!r}"
            _raise_unexplained(instance, seq, reason, exc)
    if len(instance._records) < len(records):
        end = len(records)
        _raise_unexplained(instance, end, f"no initiating record at seq {end}")
    instance._replay_input = None
    return instance


def _raise_unexplained(
    instance: CommunityInstance, seq: int, reason: str, cause: Exception | None = None
) -> NoReturn:
    """Raise IntegrityError at the first input record, up to `seq`, that no re-execution wrote.

    Before `seq`, where re-execution fails or the input ends, the records not
    yet written can still be the expiry sweep that opens an event, which the
    shadow confirms as it writes it. The input chains, so the first record
    left sits at its own seq.
    """
    with instance:
        instance._begin_event()
    written = len(instance._records)  # at most seq: _record_at refuses a sweep record there
    if written < seq:
        reason = f"seq {written} is never regenerated"
    raise IntegrityError(reason, written) from cause


def _replay_record(instance: CommunityInstance, record: AuditRecord) -> None:
    detail = record.detail
    if record.kind == KIND_BINDING:
        event_type = detail["event_type"]
        if event_type == "register_principal":
            instance.register_principal(detail["principal"], detail["name"], detail["kind"])
        elif event_type == "bind":
            # the original run already enforced principal registration
            instance.force_bind(
                detail["role"], detail["agent"], detail["agent_kind"], detail["principal"]
            )
        elif event_type == "unbind":
            instance.unbind_agent(detail["role"], detail["agent"])
        else:
            raise ValueError(f"unknown binding event {event_type!r}")
    elif record.kind == KIND_SPEECH_ACT:
        act = SpeechAct(speech_act_kind(detail["kind"]), record.actor or "", detail["payload"])
        instance.apply_speech_act(act)
    elif record.kind == KIND_ACTION_REQUEST:
        instance.submit_action(
            record.actor or "", detail["action"], detail.get("subject"), detail.get("effects", ())
        )
    elif record.kind == KIND_MODE_CHANGE:
        instance.set_mode(detail["to"], record.actor)
