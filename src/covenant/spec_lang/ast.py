"""Syntax tree for community specifications.

All nodes are frozen dataclasses. Source positions are carried for
diagnostics but excluded from equality, so two parses of equivalent text
compare equal regardless of layout (the round-trip law relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property


class Modality(str, Enum):
    BURDEN = "burden"
    PERMIT = "permit"
    EMBARGO = "embargo"


class RoleKind(str, Enum):
    HUMAN = "human"
    AGENTIC_AI = "agentic_ai"
    LLM_AGENT = "llm_agent"
    SYSTEM = "system"


AI_ROLE_KINDS = frozenset({RoleKind.AGENTIC_AI, RoleKind.LLM_AGENT})

# Built-in groups usable as policy targets without declaration.
BUILTIN_GROUPS = ("ALL", "ALL_AI_AGENTS")


class SpeechActKind(str, Enum):
    DECLARE_BURDEN = "declare_burden"
    DECLARE_PERMIT = "declare_permit"
    DECLARE_EMBARGO = "declare_embargo"
    TRANSFER = "transfer"
    DISCHARGE = "discharge"
    GRANT = "grant"
    REVOKE = "revoke"
    PROPOSE = "propose"
    ACCEPT = "accept"
    REJECT = "reject"
    COUNTER_PROPOSE = "counter_propose"
    ESCALATE = "escalate"


# Members by spelling, for the event paths: a dict lookup costs less than
# Enum.__call__. A member is a str, so it looks up as its own spelling.
ROLE_KINDS = {k.value: k for k in RoleKind}
_SPEECH_ACT_BY_SPELLING = {k.value: k for k in SpeechActKind}


def speech_act_kind(spelling: object) -> SpeechActKind:
    """`SpeechActKind(spelling)`: an unknown or unhashable spelling raises as that call does."""
    try:
        return _SPEECH_ACT_BY_SPELLING[spelling]
    except (KeyError, TypeError):
        return SpeechActKind(spelling)


NEGOTIATION_KINDS = frozenset(
    {
        SpeechActKind.PROPOSE,
        SpeechActKind.ACCEPT,
        SpeechActKind.REJECT,
        SpeechActKind.COUNTER_PROPOSE,
    }
)


@dataclass(frozen=True)
class Pos:
    """1-based line/column of a declaration's first token."""

    line: int
    column: int


_NOPOS = Pos(0, 0)


@dataclass(frozen=True)
class DeonticAtom:
    """modality(action, target) as written in policy clauses."""

    modality: Modality
    action: str
    target: str
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class RoleDecl:
    name: str
    kind: RoleKind
    # Inclusive [min..max]; max is None when unbounded.
    min_card: int = 1
    max_card: int | None = 1
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class GroupDecl:
    name: str
    members: tuple[str, ...]
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class PolicyDecl:
    """A normative constraint.

    ``requires`` names a burden that must be DISCHARGED before the policy's
    permit justifies an action; ``unless`` names a permit that, while
    active, suspends an embargo.
    """

    atom: DeonticAtom
    requires: DeonticAtom | None = None
    unless: DeonticAtom | None = None
    pos: Pos = field(default=_NOPOS, compare=False)

    @property
    def modality(self) -> Modality:
        return self.atom.modality

    @property
    def action(self) -> str:
        return self.atom.action

    @property
    def target(self) -> str:
        return self.atom.target


@dataclass(frozen=True)
class EscalationRule:
    condition: str
    to_role: str
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class ContractDecl:
    name: str
    # role -> speech-act kinds that role may perform
    allows: tuple[tuple[str, tuple[SpeechActKind, ...]], ...] = ()
    escalations: tuple[EscalationRule, ...] = ()
    pos: Pos = field(default=_NOPOS, compare=False)

    def allowed_kinds(self, role: str) -> frozenset[SpeechActKind]:
        kinds: set[SpeechActKind] = set()
        for r, ks in self.allows:
            if r == role:
                kinds.update(ks)
        return frozenset(kinds)


@dataclass(frozen=True)
class ObjectDecl:
    name: str
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class CommunityTemplate:
    """One parsed community; declaration lists mirror source order."""

    name: str
    roles: tuple[RoleDecl, ...] = ()
    groups: tuple[GroupDecl, ...] = ()
    objects: tuple[ObjectDecl, ...] = ()
    policies: tuple[PolicyDecl, ...] = ()
    contracts: tuple[ContractDecl, ...] = ()
    pos: Pos = field(default=_NOPOS, compare=False)

    def role(self, name: str) -> RoleDecl | None:
        return self._roles_by_name.get(name)

    def group(self, name: str) -> GroupDecl | None:
        return self._groups_by_name.get(name)

    # Built on first use and kept in the instance dict, outside the fields: a
    # template is immutable, so its declarations never change. Where a name is
    # declared twice (an invalid template), the first declaration is found.
    @cached_property
    def _roles_by_name(self) -> dict[str, RoleDecl]:
        return {r.name: r for r in reversed(self.roles)}

    @cached_property
    def _groups_by_name(self) -> dict[str, GroupDecl]:
        return {g.name: g for g in reversed(self.groups)}
