"""Static checks over a parsed community template.

Findings never raise; callers decide whether errors gate instantiation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import BUILTIN_GROUPS, CommunityTemplate, Modality, Pos, RoleKind

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class ValidationFinding:
    severity: str
    message: str
    pos: Pos

    def __str__(self) -> str:
        return f"{self.pos.line}:{self.pos.column}: {self.severity}: {self.message}"


def validate_template(t: CommunityTemplate) -> list[ValidationFinding]:
    findings: list[ValidationFinding] = []
    _check_unique_names(t, findings)
    _check_group_members(t, findings)
    _check_cardinalities(t, findings)
    _check_policies(t, findings)
    _check_contracts(t, findings)
    _check_conflicts(t, findings)
    return findings


def _error(findings: list[ValidationFinding], message: str, pos: Pos) -> None:
    findings.append(ValidationFinding(SEVERITY_ERROR, message, pos))


def _warn(findings: list[ValidationFinding], message: str, pos: Pos) -> None:
    findings.append(ValidationFinding(SEVERITY_WARNING, message, pos))


def _check_unique_names(t: CommunityTemplate, findings: list[ValidationFinding]) -> None:
    seen: dict[str, str] = {}
    for category, decls in (
        ("role", t.roles),
        ("group", t.groups),
        ("object", t.objects),
        ("contract", t.contracts),
    ):
        for decl in decls:
            prior = seen.get(decl.name)
            if prior is not None:
                _error(
                    findings,
                    f"duplicate name {decl.name!r} ({category} collides with {prior})",
                    decl.pos,
                )
            else:
                seen[decl.name] = category


def _check_group_members(t: CommunityTemplate, findings: list[ValidationFinding]) -> None:
    for g in t.groups:
        for member in g.members:
            if t.role(member) is None:
                _error(
                    findings,
                    f"group {g.name!r} names undeclared role {member!r}",
                    g.pos,
                )


def _check_cardinalities(t: CommunityTemplate, findings: list[ValidationFinding]) -> None:
    for r in t.roles:
        if r.max_card is not None and r.min_card > r.max_card:
            _error(
                findings,
                f"role {r.name!r} cardinality [{r.min_card}..{r.max_card}] is empty",
                r.pos,
            )


def _check_policies(t: CommunityTemplate, findings: list[ValidationFinding]) -> None:
    for p in t.policies:
        for atom in (p.atom, p.requires, p.unless):
            # a policy names a role or a group; an object holds no token
            if atom is None or atom.target in BUILTIN_GROUPS:
                continue
            if t.role(atom.target) is None and t.group(atom.target) is None:
                _error(findings, f"unresolved target {atom.target!r}", atom.pos)
        if p.unless is not None and p.modality is not Modality.EMBARGO:
            _error(
                findings,
                f"unless-clause on {p.modality.value} policy (only embargoes take exceptions)",
                p.pos,
            )
        if p.unless is not None and p.unless.modality is not Modality.PERMIT:
            _error(
                findings,
                f"unless-clause names a {p.unless.modality.value} (must name a permit)",
                p.unless.pos,
            )
        if p.requires is not None and p.requires.modality is not Modality.BURDEN:
            _error(
                findings,
                f"requires-clause names a {p.requires.modality.value} (must name a burden)",
                p.requires.pos,
            )


def _check_contracts(t: CommunityTemplate, findings: list[ValidationFinding]) -> None:
    for c in t.contracts:
        for role, _kinds in c.allows:
            if t.role(role) is None:
                _error(
                    findings,
                    f"contract {c.name!r} authorizes undeclared role {role!r}",
                    c.pos,
                )
        for rule in c.escalations:
            decl = t.role(rule.to_role)
            if decl is None:
                _error(
                    findings,
                    f"contract {c.name!r} escalates to undeclared role {rule.to_role!r}",
                    rule.pos,
                )
            elif decl.kind is not RoleKind.HUMAN:
                _warn(
                    findings,
                    f"escalation target {rule.to_role!r} is not a human role",
                    rule.pos,
                )


def _check_conflicts(t: CommunityTemplate, findings: list[ValidationFinding]) -> None:
    # permit and embargo on the identical (action, target) pair, with no
    # unless-clause opening an exception path, make the permit dead code.
    permits = [p for p in t.policies if p.modality is Modality.PERMIT]
    for e in t.policies:
        if e.modality is not Modality.EMBARGO or e.unless is not None:
            continue
        for p in permits:
            if p.action == e.action and p.target == e.target:
                _warn(
                    findings,
                    f"permit({p.action}, {p.target}) and embargo on the same pair: "
                    "unconditional conflict; embargo wins",
                    e.pos,
                )
