"""Straight-line reference engine used as an enumeration oracle.

This is a deliberate second implementation of the governance rules: plain
dict state, no audit log, no hashing, no event bookkeeping. Decisions
(accept or reject an event, admissible or blocked) are re-derived from the
community template alone, and property violations are keyed by trace
POSITION rather than audit seq. Equivalence tests drive the real runtime
and this engine through identical event schemas, map runtime record seqs
back to positions, and require the two violation sets to agree exactly.

`state_key` spells an engine's state out as the `repr` of its attributes, in
this module's own naive code, so that the oracle can step each distinct
state once per schema instead of once per trace.

Scope is intentionally narrow so the oracle stays obviously correct:
autonomous mode only, no forced binds, no deadlines, no negotiation,
escalation, or recommendation flows. Events outside that scope raise
ScopeTooLarge instead of silently diverging.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ScopeTooLarge
from .spec_lang.ast import (
    AI_ROLE_KINDS,
    BUILTIN_GROUPS,
    CommunityTemplate,
    Modality,
    RoleKind,
    SpeechActKind,
)

PROP_SAFETY = "consent_gated_access"
PROP_AUTHORITY = "exclusive_authority"
PROP_PROHIBITION = "embargo_holds"
PROP_ACCOUNTABILITY = "principal_traceability"

_DECLARE_KINDS = {
    SpeechActKind.DECLARE_BURDEN: Modality.BURDEN,
    SpeechActKind.DECLARE_PERMIT: Modality.PERMIT,
    SpeechActKind.DECLARE_EMBARGO: Modality.EMBARGO,
}

_SUPPORTED_KINDS = set(_DECLARE_KINDS) | {
    SpeechActKind.GRANT,
    SpeechActKind.TRANSFER,
    SpeechActKind.DISCHARGE,
    SpeechActKind.REVOKE,
}

# what state_key leaves out: the constants every clone shares, then the violations
_UNKEYED = ("template", "owner", "properties", "violations")


class ReferenceEngine:
    def __init__(
        self,
        template: CommunityTemplate,
        mode: str = "autonomous",
        owner: str = "community_owner",
        properties: Sequence = (),
    ):
        if mode != "autonomous":
            raise ScopeTooLarge(f"reference engine only models autonomous mode, not {mode!r}")
        self.template = template
        self.owner = owner
        self.principals: set[str] = {owner}
        # bindings: {role, agent, kind, principal}
        self.bindings: list[dict] = []
        # every name ever bound as an agent; a new set on each bind, so clones share it
        self.agent_names: frozenset[str] = frozenset()
        # tokens: id -> {modality, action, holder_kind, holder_name, subject,
        #                state, requires, unless_action, unless_target, head, nodes}
        self.tokens: dict[int, dict] = {}
        self.next_token = 1
        # discharged: {action, subject, by}
        self.discharged: list[dict] = []
        self.properties = list(properties)
        self.gap_open = [False] * len(self.properties)
        self.violations: list[tuple[str, int]] = []

        for policy in template.policies:
            self._create(
                policy.modality,
                policy.action,
                self._holder_ref(policy.target),
                subject=None,
                issuer=owner,
                requires=policy.requires.action if policy.requires else None,
                unless_action=policy.unless.action if policy.unless else None,
                unless_target=policy.unless.target if policy.unless else None,
            )

    def clone(self) -> ReferenceEngine:
        twin = ReferenceEngine.__new__(ReferenceEngine)
        twin.template = self.template
        twin.owner = self.owner
        twin.principals = set(self.principals)
        twin.bindings = [dict(b) for b in self.bindings]
        twin.agent_names = self.agent_names
        twin.tokens = {i: dict(t) for i, t in self.tokens.items()}
        twin.next_token = self.next_token
        twin.discharged = [dict(d) for d in self.discharged]
        twin.properties = self.properties
        twin.gap_open = list(self.gap_open)
        twin.violations = list(self.violations)
        return twin

    def state_key(self) -> str:
        """The engine's state as text: two engines with equal keys decide alike.

        The repr of every attribute by name, with a set's members sorted, but
        for the constants an engine passes to its clones and the violations
        flagged so far, which no step reads. So an attribute added later is
        keyed without a change here. A step's violations depend on the state
        and the schema only; its position merely labels them.
        """
        parts = []
        for name, value in sorted(vars(self).items()):
            if name in _UNKEYED:
                continue
            if isinstance(value, (set, frozenset)):
                value = sorted(value, key=repr)
            parts.append(f"{name}={value!r}")
        return "\n".join(parts)

    # ------------------------------------------------------------------
    # template and binding lookups

    def _holder_ref(self, name: str) -> tuple[str, str]:
        if self.template.role(name) is not None:
            return ("role", name)
        if name in BUILTIN_GROUPS or self.template.group(name) is not None:
            return ("group", name)
        return ("agent", name)

    def _is_agent(self, name: str) -> bool:
        return any(b["agent"] == name for b in self.bindings)

    def _agent_kind(self, agent: str) -> RoleKind | None:
        for b in self.bindings:
            if b["agent"] == agent:
                return b["kind"]
        return None

    def _principal_of(self, agent: str) -> str | None:
        for b in self.bindings:
            if b["agent"] == agent:
                return b["principal"]
        return None

    def _roles_of(self, agent: str) -> list[str]:
        return [b["role"] for b in self.bindings if b["agent"] == agent]

    def _covers(self, holder_kind: str, holder_name: str, agent: str) -> bool:
        if holder_kind == "agent":
            return holder_name == agent
        if holder_kind == "role":
            return any(
                b["agent"] == agent and b["role"] == holder_name for b in self.bindings
            )
        if holder_name == "ALL":
            return self._is_agent(agent)
        if holder_name == "ALL_AI_AGENTS":
            kind = self._agent_kind(agent)
            return kind is not None and kind in AI_ROLE_KINDS
        group = self.template.group(holder_name)
        if group is None:
            return False
        return any(
            b["agent"] == agent and b["role"] in group.members for b in self.bindings
        )

    def _member_bound(self, group: str) -> bool:
        if group == "ALL":
            return bool(self.bindings)
        if group == "ALL_AI_AGENTS":
            return any(b["kind"] in AI_ROLE_KINDS for b in self.bindings)
        decl = self.template.group(group)
        if decl is None:
            return False
        return any(b["role"] in decl.members for b in self.bindings)

    # ------------------------------------------------------------------
    # token helpers

    def _create(
        self,
        modality: Modality,
        action: str,
        holder: tuple[str, str],
        subject: str | None,
        issuer: str,
        requires: str | None = None,
        unless_action: str | None = None,
        unless_target: str | None = None,
    ) -> dict | None:
        if issuer in self.principals:
            head = issuer
        elif self._is_agent(issuer):
            head = self._principal_of(issuer)
        else:
            return None
        kind, name = holder
        resolves = {
            "agent": self._is_agent,
            "role": lambda n: self.template.role(n) is not None,
            "group": lambda n: n in BUILTIN_GROUPS or self.template.group(n) is not None,
        }[kind]
        if not resolves(name):
            return None
        token = {
            "id": self.next_token,
            "modality": modality,
            "action": action,
            "holder_kind": kind,
            "holder_name": name,
            "subject": subject,
            "state": "HELD",
            "requires": requires,
            "unless_action": unless_action,
            "unless_target": unless_target,
            "issuer": issuer,
            "head": head,
            "nodes": (head, name),
        }
        self.tokens[token["id"]] = token
        self.next_token += 1
        return token

    def _select(self, selector: dict) -> dict | None:
        modality = Modality(selector["modality"])
        best: dict | None = None
        for token in self.tokens.values():
            if token["modality"] is not modality:
                continue
            if selector.get("action") is not None and token["action"] != selector["action"]:
                continue
            if selector.get("state") is not None and token["state"] != selector["state"]:
                continue
            if "subject" in selector and token["subject"] != selector["subject"]:
                continue
            if best is None or token["id"] < best["id"]:
                best = token
        return best

    def _guard_discharged(self, guard_action: str, subject: str | None) -> bool:
        for d in self.discharged:
            if d["action"] != guard_action:
                continue
            if d["subject"] is None or subject is None or d["subject"] == subject:
                return True
        return False

    def _exception_open(self, embargo: dict, subject: str | None) -> bool:
        if embargo["unless_action"] is None:
            return False
        target = embargo["unless_target"]
        for p in self.tokens.values():
            if (
                p["modality"] is not Modality.PERMIT
                or p["state"] != "HELD"
                or p["action"] != embargo["unless_action"]
            ):
                continue
            if p["subject"] is not None and p["subject"] != subject:
                continue
            if target is None or p["holder_name"] == target:
                return True
            if p["holder_kind"] == "agent" and self._covers(
                *self._holder_ref(target), p["holder_name"]
            ):
                return True
        return False

    def _admissible(self, actor: str, action: str, subject: str | None) -> bool:
        has_permit = False
        for t in self.tokens.values():
            if (
                t["modality"] is Modality.PERMIT
                and t["state"] == "HELD"
                and t["action"] == action
                and self._covers(t["holder_kind"], t["holder_name"], actor)
                and (t["subject"] is None or t["subject"] == subject)
                and (t["requires"] is None or self._guard_discharged(t["requires"], subject))
            ):
                has_permit = True
                break
        for t in self.tokens.values():
            if (
                t["modality"] is Modality.EMBARGO
                and t["state"] == "HELD"
                and t["action"] == action
                and self._covers(t["holder_kind"], t["holder_name"], actor)
                and (t["subject"] is None or t["subject"] == subject)
                and not self._exception_open(t, subject)
            ):
                return False
        return has_permit

    # ------------------------------------------------------------------
    # event application

    def apply_schema(self, schema, position: int) -> None:
        """Apply one event schema; rejected events change nothing.

        Property checks run once after the event, which matches the runtime
        monitor because no single supported event both opens and closes an
        embargo gap.
        """
        p = schema.params
        admissible: dict | None = None
        discharge: dict | None = None
        created: dict | None = None
        bound: dict | None = None

        if schema.op == "register_principal":
            # a name once bound stays an agent's name, also after its last unbind
            if p["principal"] not in self.agent_names:
                self.principals.add(p["principal"])
        elif schema.op == "bind":
            if p.get("force"):
                raise ScopeTooLarge("forced binds are outside the oracle's scope")
            bound = self._bind(p["role"], p["agent"], p["kind"], p["principal"])
        elif schema.op == "unbind":
            for i, b in enumerate(self.bindings):
                if b["role"] == p["role"] and b["agent"] == p["agent"]:
                    del self.bindings[i]
                    break
        elif schema.op == "action":
            if p.get("effects"):
                raise ScopeTooLarge("object effects are outside the oracle's scope")
            actor, action = p["actor"], p["action"]
            subject = p.get("subject")
            if self._is_agent(actor) and self._admissible(actor, action, subject):
                admissible = {"actor": actor, "action": action, "subject": subject}
        elif schema.op == "speech_act":
            admissible, discharge, created = self._speech_act(p)
        else:
            raise ScopeTooLarge(f"unknown schema op {schema.op!r}")

        self._scan(position, admissible, discharge, created, bound)

    def _bind(self, role: str, agent: str, kind, principal: str) -> dict | None:
        decl = self.template.role(role)
        if decl is None or principal not in self.principals:
            return None
        # an agent's name is never a principal's, a role's or a group's
        if agent in self.principals or self._holder_ref(agent)[0] != "agent":
            return None
        kind = RoleKind(kind)
        if kind is not decl.kind:
            return None
        existing_kind = self._agent_kind(agent)
        if existing_kind is not None and existing_kind is not kind:
            return None
        existing_principal = self._principal_of(agent)
        if existing_principal is not None and existing_principal != principal:
            return None
        if any(b["agent"] == agent and b["role"] == role for b in self.bindings):
            return None
        count = sum(1 for b in self.bindings if b["role"] == role)
        if decl.max_card is not None and count + 1 > decl.max_card:
            return None
        binding = {"role": role, "agent": agent, "kind": kind, "principal": principal}
        self.bindings.append(binding)
        self.agent_names = self.agent_names | {agent}
        return binding

    def _speech_act(self, p: dict):
        kind = SpeechActKind(p["kind"])
        if kind not in _SUPPORTED_KINDS:
            raise ScopeTooLarge(f"speech act {kind.value!r} is outside the oracle's scope")
        sender = p["sender"]
        payload = dict(p.get("payload", {}))
        if payload.get("deadline") is not None:
            raise ScopeTooLarge("deadlines are outside the oracle's scope")
        if "evidence" in payload:
            raise ScopeTooLarge("explicit evidence refs are outside the oracle's scope")

        selector = p.get("select_token")
        token: dict | None = None
        if selector is not None:
            token = self._select(selector)
            if token is None:
                return None, None, None
        elif "token" in payload:
            # a token id that is not an int (a bool is not one) names no token: the act is rejected
            token_id = payload["token"]
            token = self.tokens.get(token_id) if type(token_id) is int else None

        if not self._is_agent(sender):
            return None, None, None
        if not any(
            kind in contract.allowed_kinds(role)
            for contract in self.template.contracts
            for role in self._roles_of(sender)
        ):
            return None, None, None

        if kind in _DECLARE_KINDS:
            created = self._create(
                _DECLARE_KINDS[kind],
                payload["action"],
                self._holder_ref(payload["holder"]),
                subject=payload.get("subject"),
                issuer=sender,
                requires=payload.get("requires_action"),
                unless_action=payload.get("unless_action"),
                unless_target=payload.get("unless_target"),
            )
            return None, None, created

        if kind is SpeechActKind.GRANT:
            grantee = payload["to"]
            if not self._is_agent(grantee):
                return None, None, None
            created = self._create(
                Modality.PERMIT,
                payload["action"],
                ("agent", grantee),
                subject=payload.get("subject"),
                issuer=sender,
                requires=payload.get("requires_action"),
            )
            return None, None, created

        if token is None:
            return None, None, None

        if kind is SpeechActKind.TRANSFER:
            to = payload["to"]
            if (
                token["modality"] is Modality.BURDEN
                and token["state"] == "HELD"
                and self._covers(token["holder_kind"], token["holder_name"], sender)
                and self._is_agent(to)
                and to not in token["nodes"]
            ):
                token["nodes"] = token["nodes"] + (sender, to)
                token["holder_kind"], token["holder_name"] = "agent", to
            return None, None, None

        if kind is SpeechActKind.DISCHARGE:
            if (
                token["modality"] is Modality.BURDEN
                and token["state"] == "HELD"
                and self._covers(token["holder_kind"], token["holder_name"], sender)
            ):
                token["state"] = "DISCHARGED"
                entry = {"action": token["action"], "subject": token["subject"], "by": sender}
                self.discharged.append(entry)
                return None, entry, None
            return None, None, None

        # revoke
        if token["modality"] is Modality.BURDEN or token["state"] != "HELD":
            return None, None, None
        issuer = token["issuer"]
        authorized = (
            sender == issuer
            or self._principal_of(issuer) == sender
            or (issuer in self.principals and self._principal_of(sender) == issuer)
        )
        if authorized:
            token["state"] = "REVOKED"
        return None, None, None

    # ------------------------------------------------------------------
    # property evaluation

    def _scan(self, position, admissible, discharge, created, bound) -> None:
        for index, spec in enumerate(self.properties):
            name = spec.template
            if name == PROP_SAFETY:
                guarded_action, guard_burden = spec.values
                if (
                    admissible is not None
                    and admissible["action"] == guarded_action
                    and not self._guard_discharged(guard_burden, admissible["subject"])
                ):
                    self.violations.append((PROP_SAFETY, position))
            elif name == PROP_AUTHORITY:
                decision, role = spec.values
                if discharge is not None and discharge["action"] == decision:
                    by = discharge["by"]
                    if not any(
                        b["role"] == role and b["agent"] == by for b in self.bindings
                    ):
                        self.violations.append((PROP_AUTHORITY, position))
                if admissible is not None and admissible["action"] == decision:
                    self.violations.append((PROP_AUTHORITY, position))
            elif name == PROP_PROHIBITION:
                action, group = spec.values
                if (
                    admissible is not None
                    and admissible["action"] == action
                    and self._covers("group", group, admissible["actor"])
                ):
                    self.violations.append((PROP_PROHIBITION, position))
                held = any(
                    t["modality"] is Modality.EMBARGO
                    and t["state"] == "HELD"
                    and t["action"] == action
                    and t["holder_kind"] == "group"
                    and t["holder_name"] in (group, "ALL")
                    for t in self.tokens.values()
                )
                exposed = self._member_bound(group) and not held
                if exposed and not self.gap_open[index]:
                    self.gap_open[index] = True
                    self.violations.append((PROP_PROHIBITION, position))
                elif not exposed:
                    self.gap_open[index] = False
            elif name == PROP_ACCOUNTABILITY:
                if bound is not None and bound["principal"] not in self.principals:
                    self.violations.append((PROP_ACCOUNTABILITY, position))
                if created is not None and created["head"] not in self.principals:
                    self.violations.append((PROP_ACCOUNTABILITY, position))
