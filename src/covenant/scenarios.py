"""Executable clinical-trial governance scenarios.

Three community templates model a trial-matching pipeline: a data-access
layer (consent-gated record reads), a matching workflow layer (AI agents
recommend, physicians decide), and a negotiation layer (external data
exchange under compliance and PHI embargoes). Agents are deterministic
scripts; their "reasoning" appears only as opaque audited actions, so the
governance layer is the entire subject under test.

Every built-in stage, the events the injected variants write in, and the
enumeration fixture are written in the public script format (`parse_script`,
one event per line) and parsed once, at import; a stage's community and cast
are derived from its template and script by `stage_from_script`. The parser
checks a `select=` against the token modalities and token states, so a
misspelled selector is a `ScriptError` with its line number.

Each built-in scenario carries expected verdicts and expected property
violations. inject_violation produces minimally mutated variants that
must trip exactly one property template and leave the others clean. Each
variant is one row of `_MUTATIONS`, keyed by (scenario, property): which
stage to edit, a clause to cut from its source, labels to drop from its
script, events to write in, verdicts to add and the label that must violate.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, replace
from functools import cache
from typing import Iterable

from .deontic import TokenState
from .errors import CannotInject, ScriptError
from .runtime import (
    AuditRecord,
    CALLER_FIELDS,
    CommunityInstance,
    KIND_SPEECH_ACT,
    KIND_TOKEN_TRANSITION,
    KIND_VERDICT,
    MODE_ADVISORY,
    MODE_AUTONOMOUS,
    MODES,
    Principal,
    READ_WRITE,
    instantiate_community,
)
from .spec_lang import parse_spec
from .spec_lang.ast import ROLE_KINDS, CommunityTemplate, Modality, SpeechActKind, speech_act_kind
from .verifier import (
    EventSchema,
    PROP_ACCOUNTABILITY,
    PROP_AUTHORITY,
    PROP_PROHIBITION,
    PROP_SAFETY,
    PROPERTIES,
    PropertySpec,
    TraceMonitor,
    apply_schema,
)

# ----------------------------------------------------------------------
# community templates

LAYER1_SOURCE = """\
community DataAccessCommunity {
  role FHIRDataProvider: system;
  role DataExtractionAgent: llm_agent;
  role ConsentManager: llm_agent;
  role Patient: human [1..*];
  role DataGovernanceOfficer: human;

  object ConsentRegistry;
  object AuditLog;
  object PatientDataCache;

  policy burden(verify_consent, ConsentManager);
  policy permit(read_demographics, DataExtractionAgent)
    requires discharged burden(verify_consent, ConsentManager);
  policy embargo(access_without_consent, ALL);

  contract ConsentGovernance {
    allow DataGovernanceOfficer: declare_burden, declare_permit, declare_embargo, grant, revoke;
    allow ConsentManager: discharge;
    escalate when policy_violation to DataGovernanceOfficer;
  }
}
"""

LAYER2_SOURCE = """\
community MatchingWorkflowCommunity {
  role ConditionExtractor: agentic_ai;
  role PatientEmbedder: agentic_ai;
  role EligibilityStructurer: agentic_ai;
  role CriteriaMatcher: agentic_ai;
  role Physician: human [1..2];
  role WorkflowOrchestrator: agentic_ai;

  group MatchingAgent = {ConditionExtractor, PatientEmbedder, EligibilityStructurer, CriteriaMatcher};

  object TrialCandidateSet;
  object PatientProfile;
  object WorkflowState;

  policy permit(evaluate_eligibility, MatchingAgent);
  policy embargo(final_decision, ALL_AI_AGENTS);
  policy burden(make_enrollment_decision, Physician);
  policy burden(provide_explanation, MatchingAgent);

  contract MatchingWorkflowContract {
    allow WorkflowOrchestrator: propose, accept, reject, counter_propose, transfer;
    allow ConditionExtractor: discharge;
    allow PatientEmbedder: discharge;
    allow EligibilityStructurer: discharge;
    allow CriteriaMatcher: discharge;
    escalate when policy_violation to Physician;
  }
  contract PhysicianReviewContract {
    allow Physician: discharge, transfer, accept, reject, revoke;
  }
}
"""

LAYER3_SOURCE = """\
community NegotiationCommunity {
  role NegotiationCoordinator: agentic_ai;
  role CapabilityDiscoverer: agentic_ai;
  role SemanticBridge: agentic_ai;
  role ConflictResolver: agentic_ai;
  role ComplianceValidator: agentic_ai;
  role TrialSiteCoordinator: human;
  role DataGovernanceOfficer: human;
  role ExternalSystem: system [1..*];

  group ComplianceAgent = {ComplianceValidator};
  group DataOfficer = {DataGovernanceOfficer};

  object NegotiationHistory;
  object CapabilityRegistry;
  object SemanticMappings;

  policy burden(validate_compliance, ComplianceAgent);
  policy burden(approve_novel_request, DataOfficer);
  policy permit(negotiate_protocol, NegotiationCoordinator);
  policy embargo(share_PHI_externally, ALL)
    unless permit(share_specific_data, DataOfficer);
  policy permit(communicate_externally, NegotiationCoordinator)
    requires discharged burden(validate_compliance, ComplianceAgent);

  contract NegotiationProtocol {
    allow NegotiationCoordinator: propose, accept, reject, counter_propose;
    allow ExternalSystem: propose, accept, reject, counter_propose;
  }
  contract ExternalSystemNegotiation {
    allow TrialSiteCoordinator: propose, accept, reject, counter_propose;
    allow DataGovernanceOfficer: declare_burden, declare_permit, declare_embargo, grant, revoke, discharge;
  }
  contract EscalationContract {
    allow NegotiationCoordinator: escalate;
    allow ComplianceValidator: escalate, discharge;
    escalate when low_confidence to TrialSiteCoordinator;
    escalate when policy_violation to DataGovernanceOfficer;
  }
}
"""


def build_clinical_layers() -> tuple[CommunityTemplate, CommunityTemplate, CommunityTemplate]:
    """The three trial-matching community templates, parsed fresh."""
    return (
        parse_spec(LAYER1_SOURCE),
        parse_spec(LAYER2_SOURCE),
        parse_spec(LAYER3_SOURCE),
    )


# ----------------------------------------------------------------------
# scenario data model


@dataclass(frozen=True)
class Stage:
    """One community instance plus the script that drives it."""

    community: str
    source: str
    owner: str
    mode: str
    cast: tuple[str, ...]  # the agents its events may name
    script: tuple[EventSchema, ...]
    properties: tuple[PropertySpec, ...]
    disciplines: tuple[tuple[str, str], ...] = ()
    # (event label, outcome) pairs that must hold after the run
    expected_verdicts: tuple[tuple[str, str], ...] = ()
    # (property template, event label) pairs the checks must report, exactly
    expected_violations: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Scenario:
    name: str
    synopsis: str
    stages: tuple[Stage, ...]


@dataclass(frozen=True)
class StageReport:
    community: str
    outcomes: tuple[tuple[str, str], ...]
    verdict_mismatches: tuple[str, ...]
    violations: tuple[tuple[str, int, str], ...]  # (property, at_seq, event label)
    violation_mismatches: tuple[str, ...]
    export: str
    records: tuple[AuditRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.verdict_mismatches and not self.violation_mismatches


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    stages: tuple[StageReport, ...]

    @property
    def ok(self) -> bool:
        return all(stage.ok for stage in self.stages)

    def summary(self) -> str:
        lines = [f"scenario {self.name} [{'PASS' if self.ok else 'FAIL'}]"]
        for stage in self.stages:
            lines.append(
                f"  {stage.community}: {len(stage.outcomes)} events, "
                f"{len(stage.records)} records, {len(stage.violations)} violations"
            )
            for label, outcome in stage.outcomes:
                if outcome.startswith("raised:"):
                    lines.append(f"    refused {label}: {outcome.removeprefix('raised:')}")
            for prop, at_seq, label in stage.violations:
                lines.append(f"    violation {prop} at seq {at_seq} ({label})")
            for mismatch in stage.verdict_mismatches + stage.violation_mismatches:
                lines.append(f"    MISMATCH {mismatch}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# script files: one event per line


# the fields the runtime reads as integers: token, request_seq, evidence, deadline
_INT_KEYS = {name for entry in CALLER_FIELDS.values() for name, wanted, _ in entry if wanted is int}


def _coerce(lineno: int, key: str, value: str):
    # an optional "-" and ASCII digits only: "--5" and "²" stay strings
    digits = value.removeprefix("-")
    if key in _INT_KEYS and digits.isascii() and digits.isdigit():
        try:
            return int(value)
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise ScriptError(f"line {lineno}: {key}: {exc}") from None
    return value


def _pairs(lineno: int, args: list[str]):
    for extra in args:
        key, sep, value = extra.partition("=")
        if not sep:
            raise ScriptError(f"line {lineno}: expected key=value, got {extra!r}")
        yield key, value


def _selector(lineno: int, value: str) -> dict:
    parts = value.split(":")
    if len(parts) not in (3, 4):
        raise ScriptError(f"line {lineno}: select needs modality:action:state[:subject]")
    try:
        Modality(parts[0])
        TokenState(parts[2])
    except ValueError as exc:
        raise ScriptError(f"line {lineno}: select: {exc}") from None
    selector = {"modality": parts[0], "action": parts[1], "state": parts[2]}
    if len(parts) == 4:
        selector["subject"] = parts[3]
    return selector


def parse_script(text: str) -> tuple[EventSchema, ...]:
    """Parse the line-oriented script format.

    Forms (shell-style tokens, # comments):
      register_principal <principal>
      bind <role> <agent> <kind> <principal>
      force_bind <role> <agent> <kind> <principal>
      unbind <role> <agent>
      action <actor> <action> [subject=S] [effect=<object>:<op>:<key>:<value>]...
      speech_act <sender> <kind> [key=value]... [select=<modality>:<action>:<state>[:<subject>]]
    Any line may start with "<label>:" to name the event. A select's modality
    must be a token modality (burden, permit, embargo) and its state a token
    state (CREATED, HELD, DELEGATED, DISCHARGED, REVOKED, VIOLATED).
    """
    events: list[EventSchema] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise ScriptError(f"line {lineno}: {exc}") from None
        if not tokens:
            continue
        label = f"e{len(events)}"
        if tokens[0].endswith(":") and len(tokens[0]) > 1:
            label = tokens[0][:-1]
            tokens = tokens[1:]
        if not tokens:
            raise ScriptError(f"line {lineno}: label without an event")
        op, args = tokens[0], tokens[1:]

        params: dict
        if op == "register_principal" and len(args) == 1:
            params = {"principal": args[0]}
        elif op in ("bind", "force_bind") and len(args) == 4:
            params = dict(zip(("role", "agent", "kind", "principal"), args))
            if op == "force_bind":
                params["force"] = True
            op = "bind"
        elif op == "unbind" and len(args) == 2:
            params = {"role": args[0], "agent": args[1]}
        elif op == "action" and len(args) >= 2:
            params = {"actor": args[0], "action": args[1]}
            effects = []
            for key, value in _pairs(lineno, args[2:]):
                if key == "subject":
                    params["subject"] = value
                elif key == "effect":
                    parts = value.split(":", 3)
                    if len(parts) != 4:
                        raise ScriptError(
                            f"line {lineno}: effect needs object:op:key:value, got {value!r}"
                        )
                    effects.append(dict(zip(("object", "op", "key", "value"), parts)))
                else:
                    raise ScriptError(f"line {lineno}: unknown action argument {key!r}")
            if effects:
                params["effects"] = effects
        elif op == "speech_act" and len(args) >= 2:
            payload: dict = {}
            params = {"kind": args[1], "sender": args[0], "payload": payload}
            for key, value in _pairs(lineno, args[2:]):
                if key == "select":
                    params["select_token"] = _selector(lineno, value)
                else:
                    payload[key] = _coerce(lineno, key, value)
        else:
            raise ScriptError(f"line {lineno}: cannot parse event {raw.strip()!r}")
        events.append(EventSchema(label, op, params))
    return tuple(events)


# Where every run of a stage starts, built on first use and kept for the life
# of the process. Each function looks up `parse_spec`, `instantiate_community`
# and `TraceMonitor` at call time, so a wrapper put on the module attribute
# sees each miss. Threads that miss at once may each build a value; all alike.


@cache
def _template(source: str) -> CommunityTemplate:
    return parse_spec(source)


@cache
def _prototype(source: str, mode: str, owner: str, disciplines: tuple) -> CommunityInstance:
    # its genesis and policy tokens read only the template and the setup, so
    # every run starts from a clone of it; the prototype itself is never run
    return instantiate_community(_template(source), mode, Principal(owner, owner), dict(disciplines))


@cache
def _genesis_monitor(setup: tuple, properties: tuple[PropertySpec, ...]) -> TraceMonitor:
    # cached only once it returns, so no run clones it half fed; never fed again
    monitor = TraceMonitor(properties, _template(setup[0]))
    for record in _prototype(*setup).records():
        monitor.feed(record)
    return monitor


def _fresh_instance(stage: Stage) -> tuple[CommunityInstance, TraceMonitor]:
    """A clone of the stage's prototype, and a monitor of the stage's properties attached to it."""
    setup = (stage.source, stage.mode, stage.owner, stage.disciplines)
    instance = _prototype(*setup).clone()
    monitor = _genesis_monitor(setup, stage.properties).clone()
    instance.add_listener(monitor.feed)
    return instance, monitor


# the event parameter that names an agent for the cast of a stage; an agent
# only ever unbound stays out, so preflight rejects the unbind
_CAST_PARAM = {"bind": "agent", "action": "actor", "speech_act": "sender"}


def stage_from_script(
    source: str,
    script: tuple[EventSchema, ...],
    owner: str = "community_owner",
    mode: str = MODE_AUTONOMOUS,
    disciplines: dict | None = None,
) -> Stage:
    """A stage whose community and cast come from the template and the script.

    It checks only the parameter-free accountability property; the built-ins
    replace `properties` and their expectations afterwards.
    """
    if mode not in MODES:
        raise ScriptError(f"unknown mode {mode!r}")
    template = _template(source)
    named = (ev.params[_CAST_PARAM[ev.op]] for ev in script if ev.op in _CAST_PARAM)
    return Stage(
        community=template.name,
        source=source,
        owner=owner,
        mode=mode,
        cast=tuple(dict.fromkeys(named)),
        script=script,
        properties=(PropertySpec.accountability(),),
        disciplines=tuple((disciplines or {}).items()),
    )


# ----------------------------------------------------------------------
# built-in scenarios: script text beside each stage's metadata, parsed once
# at import and shared by every caller, so no consumer may mutate an event

HAPPY_PATH_ACCESS_SCRIPT = """\
reg_vendor: register_principal VendorX
reg_patients: register_principal PatientCouncil
bind_gateway: bind FHIRDataProvider fhir_gateway system MedCenter
bind_extract_bot: bind DataExtractionAgent extract_bot llm_agent VendorX
bind_consent_mgr: bind ConsentManager consent_mgr llm_agent VendorX
bind_patient: bind Patient patient_007 human PatientCouncil
bind_officer: bind DataGovernanceOfficer officer_dga human MedCenter
declare_consent: speech_act officer_dga declare_burden action=verify_consent holder=ConsentManager subject=patient_007
discharge_consent: speech_act consent_mgr discharge select=burden:verify_consent:HELD:patient_007
read_demographics: action extract_bot read_demographics subject=patient_007 effect=PatientDataCache:put:patient_007:demographics_record
access_probe: action extract_bot access_without_consent subject=patient_007
unbind_patient: unbind Patient patient_007
"""

HAPPY_PATH_MATCHING_SCRIPT = """\
reg_vendor: register_principal VendorX
bind_cond_extractor: bind ConditionExtractor cond_extractor agentic_ai VendorX
bind_embedder: bind PatientEmbedder embedder agentic_ai VendorX
bind_structurer: bind EligibilityStructurer structurer agentic_ai VendorX
bind_matcher: bind CriteriaMatcher matcher agentic_ai VendorX
bind_physician_1: bind Physician physician_1 human TrialSponsor
bind_physician_2: bind Physician physician_2 human TrialSponsor
bind_orchestrator: bind WorkflowOrchestrator orchestrator agentic_ai TrialSponsor
embed_profile: action embedder evaluate_eligibility subject=patient_007 effect=PatientProfile:put:patient_007:embedding_v1
eval_match: action matcher evaluate_eligibility subject=patient_007 effect=TrialCandidateSet:put:patient_007:trial_shortlist
explain: speech_act matcher discharge select=burden:provide_explanation:HELD
transfer_decision: speech_act physician_1 transfer to=physician_2 select=burden:make_enrollment_decision:HELD
decide: speech_act physician_2 discharge select=burden:make_enrollment_decision:HELD
"""

_HAPPY_PATH = Scenario(
    name="happy_path",
    synopsis="consent obtained, demographics read, eligibility matched, physician decides",
    stages=(
        replace(
            stage_from_script(
                LAYER1_SOURCE,
                parse_script(HAPPY_PATH_ACCESS_SCRIPT),
                owner="MedCenter",
                disciplines={"PatientDataCache": READ_WRITE},
            ),
            properties=(
                PropertySpec.safety("read_demographics", "verify_consent"),
                PropertySpec.prohibition("access_without_consent", "ALL"),
                PropertySpec.accountability(),
            ),
            expected_verdicts=(
                ("discharge_consent", "accepted"),
                ("read_demographics", "admissible"),
                ("access_probe", "blocked"),
            ),
        ),
        replace(
            stage_from_script(
                LAYER2_SOURCE,
                parse_script(HAPPY_PATH_MATCHING_SCRIPT),
                owner="TrialSponsor",
                disciplines={
                    "TrialCandidateSet": READ_WRITE,
                    "PatientProfile": READ_WRITE,
                    "WorkflowState": READ_WRITE,
                },
            ),
            properties=(
                PropertySpec.authority("make_enrollment_decision", "Physician"),
                PropertySpec.prohibition("final_decision", "ALL_AI_AGENTS"),
                PropertySpec.accountability(),
            ),
            expected_verdicts=(
                ("embed_profile", "admissible"),
                ("eval_match", "admissible"),
                ("explain", "accepted"),
                ("transfer_decision", "accepted"),
                ("decide", "accepted"),
            ),
        ),
    ),
)

ROGUE_AI_SCRIPT = """\
reg_vendor: register_principal VendorX
bind_matcher: bind CriteriaMatcher matcher agentic_ai VendorX
bind_physician: bind Physician physician_1 human TrialSponsor
rogue_attempt: action matcher final_decision subject=patient_007
eval_match: action matcher evaluate_eligibility subject=patient_007
decide: speech_act physician_1 discharge select=burden:make_enrollment_decision:HELD
"""

_ROGUE_AI = Scenario(
    name="rogue_ai",
    synopsis="an AI agent attempts the enrollment decision; the embargo blocks it",
    stages=(
        replace(
            stage_from_script(
                LAYER2_SOURCE,
                parse_script(ROGUE_AI_SCRIPT),
                owner="TrialSponsor",
                disciplines={"TrialCandidateSet": READ_WRITE},
            ),
            properties=(
                PropertySpec.authority("make_enrollment_decision", "Physician"),
                PropertySpec.prohibition("final_decision", "ALL_AI_AGENTS"),
                PropertySpec.accountability(),
            ),
            expected_verdicts=(
                ("rogue_attempt", "blocked"),
                ("eval_match", "admissible"),
                ("decide", "accepted"),
            ),
        ),
    ),
)

NEGOTIATION_SCRIPT = """\
reg_vendor: register_principal VendorY
reg_site: register_principal SiteAlpha
bind_neg_coord: bind NegotiationCoordinator neg_coord agentic_ai VendorY
bind_capability_bot: bind CapabilityDiscoverer capability_bot agentic_ai VendorY
bind_semantic_bridge: bind SemanticBridge semantic_bridge agentic_ai VendorY
bind_conflict_resolver: bind ConflictResolver conflict_resolver agentic_ai VendorY
bind_compliance_bot: bind ComplianceValidator compliance_bot agentic_ai VendorY
bind_site_coord: bind TrialSiteCoordinator site_coord human SiteAlpha
bind_dgo: bind DataGovernanceOfficer dgo human TrialNetwork
bind_ehr: bind ExternalSystem ehr_system system SiteAlpha
propose_exchange: speech_act neg_coord propose body="request eligibility criteria"
counter_terms: speech_act ehr_system counter_propose body="de-identified records only"
accept_terms: speech_act neg_coord accept
propose_bulk: speech_act neg_coord propose body="bulk PHI export"
reject_bulk: speech_act ehr_system reject
validate_first: speech_act compliance_bot discharge select=burden:validate_compliance:HELD
approve_novel: speech_act dgo discharge select=burden:approve_novel_request:HELD
negotiate: action neg_coord negotiate_protocol subject=site_alpha
communicate: action neg_coord communicate_externally subject=site_alpha
share_probe: action neg_coord share_PHI_externally subject=phi_batch_1
declare_exception: speech_act dgo declare_permit action=share_specific_data holder=DataOfficer
grant_share: speech_act dgo grant action=share_PHI_externally to=neg_coord subject=phi_batch_1
share_allowed: action neg_coord share_PHI_externally subject=phi_batch_1
revoke_share: speech_act dgo revoke select=permit:share_specific_data:HELD
share_blocked_again: action neg_coord share_PHI_externally subject=phi_batch_1
escalate_low: speech_act compliance_bot escalate condition=low_confidence
embargo_bulk: speech_act dgo declare_embargo action=bulk_export holder=ALL_AI_AGENTS
"""

_NEGOTIATION = Scenario(
    name="negotiation",
    synopsis="external data exchange negotiated under compliance burdens and a PHI embargo",
    stages=(
        replace(
            stage_from_script(
                LAYER3_SOURCE,
                parse_script(NEGOTIATION_SCRIPT),
                owner="TrialNetwork",
                disciplines={"CapabilityRegistry": READ_WRITE},
            ),
            properties=(
                PropertySpec.safety("communicate_externally", "validate_compliance"),
                PropertySpec.accountability(),
            ),
            expected_verdicts=(
                ("accept_terms", "accepted"),
                ("reject_bulk", "accepted"),
                ("negotiate", "admissible"),
                ("communicate", "admissible"),
                ("share_probe", "blocked"),
                ("share_allowed", "admissible"),
                ("share_blocked_again", "blocked"),
                ("escalate_low", "accepted"),
                ("embargo_bulk", "accepted"),
            ),
        ),
    ),
)

ADVISORY_GATE_SCRIPT = """\
reg_vendor: register_principal VendorX
bind_matcher: bind CriteriaMatcher matcher agentic_ai VendorX
bind_physician: bind Physician physician_1 human TrialSponsor
eval_alpha: action matcher evaluate_eligibility subject=patient_007 effect=TrialCandidateSet:put:patient_007:shortlist_alpha
approve_alpha: speech_act physician_1 accept request_seq=$last_request
eval_beta: action matcher evaluate_eligibility subject=patient_008 effect=TrialCandidateSet:put:patient_008:shortlist_beta
veto_beta: speech_act physician_1 reject request_seq=$last_request
"""

_ADVISORY_GATE = Scenario(
    name="advisory_gate",
    synopsis="advisory mode: AI output is a recommendation until a human approves it",
    stages=(
        replace(
            stage_from_script(
                LAYER2_SOURCE,
                parse_script(ADVISORY_GATE_SCRIPT),
                owner="TrialSponsor",
                mode=MODE_ADVISORY,
                disciplines={"TrialCandidateSet": READ_WRITE},
            ),
            properties=(
                PropertySpec.authority("make_enrollment_decision", "Physician"),
                PropertySpec.accountability(),
            ),
            expected_verdicts=(
                ("eval_alpha", "recommended"),
                ("approve_alpha", "accepted"),
                ("eval_beta", "recommended"),
                ("veto_beta", "accepted"),
            ),
        ),
    ),
)

_BUILT_INS = (_HAPPY_PATH, _ROGUE_AI, _NEGOTIATION, _ADVISORY_GATE)


def built_in_scenarios() -> tuple[Scenario, ...]:
    return _BUILT_INS


def get_scenario(name: str) -> Scenario:
    for scenario in _BUILT_INS:
        if scenario.name == name:
            return scenario
    raise ScriptError(f"no built-in scenario named {name!r}")


# ----------------------------------------------------------------------
# execution


def _checked_template(stage: Stage) -> CommunityTemplate:
    """The stage's template, with its script preflighted against it."""
    template = _template(stage.source)
    _preflight(stage, template)
    return template


def _preflight(stage: Stage, template: CommunityTemplate) -> None:
    agents = set(stage.cast)
    registered = {stage.owner}
    seen_labels: set[str] = set()
    saw_action = False
    for ev in stage.script:
        if ev.name in seen_labels:
            raise ScriptError(f"duplicate event label {ev.name!r}")
        seen_labels.add(ev.name)
        p = ev.params
        if ev.op == "register_principal":
            registered.add(p["principal"])
        elif ev.op == "bind":
            if template.role(p["role"]) is None:
                raise ScriptError(f"{ev.name}: role {p['role']!r} is not declared")
            if p["agent"] not in agents:
                raise ScriptError(f"{ev.name}: agent {p['agent']!r} is not in the cast")
            try:
                ROLE_KINDS[p["kind"]]
            except (KeyError, TypeError):  # unknown, or unhashable
                raise ScriptError(f"{ev.name}: unknown agent kind {p['kind']!r}") from None
            if not p.get("force") and p["principal"] not in registered:
                raise ScriptError(
                    f"{ev.name}: principal {p['principal']!r} is not registered at this point"
                )
        elif ev.op == "unbind":
            if template.role(p["role"]) is None:
                raise ScriptError(f"{ev.name}: role {p['role']!r} is not declared")
            if p["agent"] not in agents:
                raise ScriptError(f"{ev.name}: agent {p['agent']!r} is not in the cast")
        elif ev.op == "action":
            if p["actor"] not in agents:
                raise ScriptError(f"{ev.name}: actor {p['actor']!r} is not in the cast")
            saw_action = True
        elif ev.op == "speech_act":
            if p["sender"] not in agents:
                raise ScriptError(f"{ev.name}: sender {p['sender']!r} is not in the cast")
            try:
                speech_act_kind(p["kind"])
            except ValueError:
                raise ScriptError(f"{ev.name}: unknown speech act kind {p['kind']!r}") from None
            if p.get("payload", {}).get("request_seq") == "$last_request" and not saw_action:
                raise ScriptError(f"{ev.name}: $last_request used before any action event")
        else:
            raise ScriptError(f"{ev.name}: unknown event op {ev.op!r}")


def _execute_stage(stage: Stage, template: CommunityTemplate) -> StageReport:
    instance, monitor = _fresh_instance(stage)
    outcomes: list[tuple[str, str]] = []
    ranges: list[tuple[str, int, int]] = []
    for ev in stage.script:
        lo = instance.head_seq
        outcomes.append((ev.name, apply_schema(instance, ev)))
        ranges.append((ev.name, lo + 1, instance.head_seq))

    records = instance.records()
    # the monitor has seen every record in seq order, and each record's hits
    # sorted, so this is what run_checks finds, in its order
    found = monitor.violations

    def label_of(at_seq: int) -> str:
        for label, lo, hi in ranges:
            if lo <= at_seq <= hi:
                return label
        return "<setup>"

    violations = tuple((v.property, v.at_seq, label_of(v.at_seq)) for v in found)

    verdict_mismatches = []
    outcome_map = dict(outcomes)
    for label, want in stage.expected_verdicts:
        got = outcome_map.get(label)
        if got != want:
            verdict_mismatches.append(f"{label}: expected {want}, got {got}")

    violation_mismatches = []
    want_pairs = sorted(stage.expected_violations)
    got_pairs = sorted((prop, label) for prop, _seq, label in violations)
    if want_pairs != got_pairs:
        violation_mismatches.append(f"expected {want_pairs}, got {got_pairs}")

    return StageReport(
        community=template.name,
        outcomes=tuple(outcomes),
        verdict_mismatches=tuple(verdict_mismatches),
        violations=violations,
        violation_mismatches=tuple(violation_mismatches),
        export=instance.export_log(),
        records=records,
    )


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Parse and preflight every stage before any runs, then execute each once."""
    checked = [(stage, _checked_template(stage)) for stage in scenario.stages]
    return ScenarioReport(
        name=scenario.name,
        stages=tuple(_execute_stage(stage, template) for stage, template in checked),
    )


def run_stage(stage: Stage) -> StageReport:
    return _execute_stage(stage, _checked_template(stage))



# ----------------------------------------------------------------------
# violation injection (mutation testing of the verifier)

_GUARD_CLAUSE = "\n    requires discharged burden(verify_consent, ConsentManager)"

# physician_1 hands the decision burden to the AI matcher, which discharges it
_USURP = parse_script("""\
transfer_decision: speech_act physician_1 transfer to=matcher select=burden:make_enrollment_decision:HELD
decide: speech_act matcher discharge select=burden:make_enrollment_decision:HELD
""")

# (scenario, property) -> (stage index, clause cut from its source, labels
# dropped from its script, events written in, anchor label, verdicts added,
# the label that must violate). An event written in replaces the event with
# its label, or else goes right after the anchor.
_MUTATIONS = {
    # no consent guard and no consent events: the read is admissible unconsented
    ("happy_path", PROP_SAFETY): (
        0, _GUARD_CLAUSE, ("declare_consent", "discharge_consent"), (), None, (), "read_demographics"
    ),
    ("happy_path", PROP_PROHIBITION): (
        0, "", (),
        parse_script(
            "revoke_consent_embargo: speech_act officer_dga revoke"
            " select=embargo:access_without_consent:HELD"
        ),
        "bind_officer", (), "revoke_consent_embargo",
    ),
    # a forced rebind for a principal that was never registered
    ("happy_path", PROP_ACCOUNTABILITY): (
        0, "", (),
        parse_script("bind_extract_bot: force_bind DataExtractionAgent extract_bot llm_agent GhostCorp"),
        None, (), "bind_extract_bot",
    ),
    ("happy_path", PROP_AUTHORITY): (1, "", (), _USURP, "eval_match", (), "decide"),
    ("rogue_ai", PROP_PROHIBITION): (
        0, "", (),
        parse_script(
            "revoke_final_embargo: speech_act physician_1 revoke select=embargo:final_decision:HELD"
        ),
        "bind_physician", (), "revoke_final_embargo",
    ),
    ("rogue_ai", PROP_AUTHORITY): (
        0, "", (), _USURP, "eval_match", (("transfer_decision", "accepted"),), "decide"
    ),
    ("rogue_ai", PROP_ACCOUNTABILITY): (
        0, "", (),
        parse_script("bind_matcher: force_bind CriteriaMatcher matcher agentic_ai ShadowLab"),
        None, (), "bind_matcher",
    ),
}


def inject_violation(scenario: Scenario, kind: str) -> Scenario:
    """A minimally mutated copy whose run violates exactly the given template."""
    kind = next((template for template, row in PROPERTIES.items() if kind in (template, row.name)), kind)
    if kind not in PROPERTIES:
        raise CannotInject(f"unknown property template {kind!r}")
    mutation = _MUTATIONS.get((scenario.name, kind))
    if mutation is None:
        raise CannotInject(
            f"scenario {scenario.name!r} has no construct for a {PROPERTIES[kind].name} violation"
        )
    index, cut, drop, written, anchor, added, label = mutation
    if index >= len(scenario.stages):
        raise CannotInject(f"scenario {scenario.name!r} has no stage {index}")
    stage = scenario.stages[index]
    if cut not in stage.source:
        raise CannotInject(f"{stage.community} is not guarded by {cut.strip()!r}")
    by_label = {ev.name: ev for ev in written}
    present = {ev.name for ev in stage.script}
    inserted = tuple(ev for ev in written if ev.name not in present)
    script = []
    for ev in stage.script:
        if ev.name not in drop:
            script.append(by_label.get(ev.name, ev))
        if ev.name == anchor:
            script += inserted
            inserted = ()
    if inserted:
        raise CannotInject(f"{stage.community} has no event to write {inserted[0].name!r} over or after")
    mutated = replace(
        stage,
        source=stage.source.replace(cut, "", 1),
        script=tuple(script),
        expected_verdicts=tuple(v for v in stage.expected_verdicts if v[0] not in drop) + added,
        expected_violations=((kind, label),),
    )
    return replace(
        scenario,
        name=f"{scenario.name}__{PROPERTIES[kind].name}",
        stages=scenario.stages[:index] + (mutated,) + scenario.stages[index + 1 :],
    )


# ----------------------------------------------------------------------
# coverage over the built-in set


@dataclass(frozen=True)
class CoverageReport:
    speech_act_kinds_used: tuple[str, ...]
    speech_act_kinds_missing: tuple[str, ...]
    policies_covered: tuple[str, ...]
    policies_missing: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.speech_act_kinds_missing and not self.policies_missing

    def text(self) -> str:
        lines = [
            f"speech act kinds used: {len(self.speech_act_kinds_used)}"
            f" (missing: {', '.join(self.speech_act_kinds_missing) or 'none'})",
            f"policies covered: {len(self.policies_covered)}"
            f" (missing: {', '.join(self.policies_missing) or 'none'})",
        ]
        return "\n".join(lines)


def coverage_report(scenarios: Iterable[Scenario] | None = None) -> CoverageReport:
    kinds_used: set[str] = set()
    actions_judged: set[str] = set()
    burdens_resolved: set[str] = set()
    token_actions: dict[str, dict[int, str]] = {}

    for scenario in scenarios or built_in_scenarios():
        report = run_scenario(scenario)
        for stage in report.stages:
            created = token_actions.setdefault(f"{scenario.name}/{stage.community}", {})
            for record in stage.records:
                if record.kind == KIND_SPEECH_ACT and not record.detail.get("rejected"):
                    kinds_used.add(record.detail["kind"])
                elif record.kind == KIND_VERDICT:
                    actions_judged.add(record.detail["action"])
                elif record.kind == KIND_TOKEN_TRANSITION:
                    detail = record.detail
                    if detail["from"] == "CREATED":
                        created[detail["token"]] = detail["action"]
                    elif detail["to"] in ("DISCHARGED", "REVOKED", "VIOLATED"):
                        action = created.get(detail["token"])
                        if action is not None:
                            burdens_resolved.add(action)

    all_kinds = {kind.value for kind in SpeechActKind}
    covered_policies: list[str] = []
    missing_policies: list[str] = []
    for template in build_clinical_layers():
        for policy in template.policies:
            label = f"{policy.modality.value}({policy.action}, {policy.target})"
            hit = policy.action in actions_judged or (
                policy.modality is not Modality.PERMIT and policy.action in burdens_resolved
            )
            (covered_policies if hit else missing_policies).append(label)

    return CoverageReport(
        speech_act_kinds_used=tuple(sorted(kinds_used)),
        speech_act_kinds_missing=tuple(sorted(all_kinds - kinds_used)),
        policies_covered=tuple(covered_policies),
        policies_missing=tuple(missing_policies),
    )


# ----------------------------------------------------------------------
# reduced data-access community for exhaustive enumeration


REDUCED_LAYER1_SOURCE = """\
community DataAccessGate {
  role DataGovernanceOfficer: human [0..1];
  role ConsentManager: llm_agent [0..1];
  role DataExtractionAgent: llm_agent [0..1];

  policy burden(verify_consent, ConsentManager);
  policy permit(read_demographics, DataExtractionAgent);
  policy embargo(access_without_consent, ALL_AI_AGENTS);

  contract GateGovernance {
    allow DataGovernanceOfficer: declare_burden, grant, revoke;
    allow ConsentManager: discharge;
  }
}
"""


REDUCED_LAYER1_PROLOGUE = """\
reg_vendor: register_principal VendorX
bind_officer: bind DataGovernanceOfficer officer_1 human MedCenter
"""

REDUCED_LAYER1_ALPHABET = """\
bind_consent_mgr: bind ConsentManager consent_mgr llm_agent VendorX
bind_extract_bot: bind DataExtractionAgent extract_bot llm_agent VendorX
declare_consent: speech_act officer_1 declare_burden action=verify_consent holder=ConsentManager subject=p1
discharge_consent: speech_act consent_mgr discharge select=burden:verify_consent:HELD
read_demo: action extract_bot read_demographics subject=p1
read_uncons: action extract_bot access_without_consent subject=p1
grant_uncons: speech_act officer_1 grant action=access_without_consent to=extract_bot subject=p1
revoke_embargo: speech_act officer_1 revoke select=embargo:access_without_consent:HELD
"""


@dataclass(frozen=True)
class GateFixture:
    """Enumeration fixture: template, prologue, alphabet, properties.

    The permit is deliberately unguarded so safety violations are reachable,
    and the embargo can be revoked and re-opened via grant so both halves of
    the prohibition template are exercised within depth 5.
    """

    template: CommunityTemplate
    owner: str
    prologue: tuple[EventSchema, ...]
    alphabet: tuple[EventSchema, ...]
    properties: tuple[PropertySpec, ...]


_REDUCED_LAYER1 = GateFixture(
    template=parse_spec(REDUCED_LAYER1_SOURCE),
    owner="MedCenter",
    prologue=parse_script(REDUCED_LAYER1_PROLOGUE),
    alphabet=parse_script(REDUCED_LAYER1_ALPHABET),
    properties=(
        PropertySpec.safety("read_demographics", "verify_consent"),
        PropertySpec.authority("read_demographics", "ConsentManager"),
        PropertySpec.prohibition("access_without_consent", "ALL_AI_AGENTS"),
        PropertySpec.accountability(),
    ),
)


def reduced_layer1_fixture() -> GateFixture:
    """The fixture, parsed once at import and shared by every caller."""
    return _REDUCED_LAYER1
