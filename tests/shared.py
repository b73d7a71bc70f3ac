"""Helpers that more than one test module uses: no test lives here."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from covenant.deontic import HolderKind
from covenant.spec_lang import format_spec, parse_spec
from covenant.spec_lang.ast import (
    BUILTIN_GROUPS,
    CommunityTemplate,
    ContractDecl,
    DeonticAtom,
    EscalationRule,
    GroupDecl,
    Modality,
    ObjectDecl,
    PolicyDecl,
    RoleDecl,
    RoleKind,
    SpeechActKind,
)


# the deontic tests and acceptance criterion 8 resolve holders without a runtime
class StaticResolver:
    """Fixed principal and binding view; no runtime machinery."""

    def __init__(self, principals=(), agents=None, roles=(), groups=None):
        self.principals = set(principals)
        self.agents = dict(agents or {})  # agent -> (principal, {roles})
        self.roles = set(roles)
        self.groups = dict(groups or {})  # group -> {agents}

    def is_principal(self, name):
        return name in self.principals

    def is_agent(self, name):
        return name in self.agents

    def is_role(self, name):
        return name in self.roles

    def is_group(self, name):
        return name in self.groups

    def principal_of(self, agent):
        entry = self.agents.get(agent)
        return entry[0] if entry else None

    def covers(self, holder, agent):
        if holder.kind is HolderKind.AGENT:
            return holder.name == agent
        if holder.kind is HolderKind.ROLE:
            entry = self.agents.get(agent)
            return bool(entry) and holder.name in entry[1]
        return agent in self.groups.get(holder.name, set())


# the runtime tests pin the export digests of runs on this community, and the
# verifier tests check their monitors on it
DESK_SOURCE = """\
community Desk {
  role Officer: human [0..2];
  role Reviewer: human [0..2];
  role Bot: llm_agent [0..2];

  object CaseFile;

  policy burden(screen_case, Officer);
  policy permit(read_case, Bot) requires discharged burden(screen_case, Officer);
  policy embargo(close_case, ALL_AI_AGENTS)
    unless permit(override_close, Reviewer);

  contract DeskRules {
    allow Officer: declare_burden, declare_permit, declare_embargo, grant, revoke, transfer, discharge, escalate;
    allow Reviewer: discharge, accept, reject, escalate;
    allow Bot: propose, counter_propose, accept, reject, escalate;
    escalate when policy_violation to Reviewer;
    escalate when low_confidence to Officer;
  }
}
"""


def _ward_module():
    """bench/ward.py: the Ward community and its seeded caller."""
    path = Path(__file__).resolve().parent.parent / "bench" / "ward.py"
    spec = importlib.util.spec_from_file_location("ward", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# seeded template fuzzer

_CONDITIONS = ("policy_violation", "low_confidence", "timeout", "cond_override")


def make_random_template(rng: random.Random, index: int) -> CommunityTemplate:
    """A structurally valid template; validator errors are a generator bug."""
    kinds = list(RoleKind)
    roles = tuple(
        RoleDecl(
            f"Role{chr(65 + i)}{index % 7}",
            rng.choice(kinds),
            *rng.choice(((1, 1), (0, 1), (1, None), (0, None), (2, 5), (1, 3))),
        )
        for i in range(rng.randint(1, 5))
    )
    role_names = [r.name for r in roles]

    groups = []
    for g in range(rng.randint(0, 2)):
        size = rng.randint(1, len(role_names))
        groups.append(GroupDecl(f"Group{g}_{index % 5}", tuple(rng.sample(role_names, size))))
    groups = tuple(groups)

    objects = tuple(ObjectDecl(f"Store{o}") for o in range(rng.randint(0, 3)))

    targets = role_names + [g.name for g in groups] + list(BUILTIN_GROUPS)
    actions = [f"act_{chr(97 + a)}" for a in range(6)]

    policies = []
    for _ in range(rng.randint(0, 6)):
        modality = rng.choice(list(Modality))
        atom = DeonticAtom(modality, rng.choice(actions), rng.choice(targets))
        requires = None
        unless = None
        if rng.random() < 0.3:
            requires = DeonticAtom(Modality.BURDEN, rng.choice(actions), rng.choice(targets))
        if modality is Modality.EMBARGO and rng.random() < 0.4:
            unless = DeonticAtom(Modality.PERMIT, rng.choice(actions), rng.choice(targets))
        policies.append(PolicyDecl(atom, requires, unless))
    policies = tuple(policies)

    contracts = []
    for c in range(rng.randint(0, 2)):
        allows = tuple(
            (
                rng.choice(role_names),
                tuple(rng.sample(list(SpeechActKind), rng.randint(1, 4))),
            )
            for _ in range(rng.randint(1, 3))
        )
        escalations = tuple(
            EscalationRule(rng.choice(_CONDITIONS), rng.choice(role_names))
            for _ in range(rng.randint(0, 2))
        )
        contracts.append(ContractDecl(f"Pact{c}_{index % 5}", allows, escalations))
    contracts = tuple(contracts)

    return CommunityTemplate(
        name=f"Fuzz{index}",
        roles=roles,
        groups=groups,
        objects=objects,
        policies=policies,
        contracts=contracts,
    )


def round_trip_holds(template: CommunityTemplate) -> bool:
    text = format_spec(template)
    reparsed = parse_spec(text)
    return reparsed == template and parse_spec(format_spec(reparsed)) == reparsed
