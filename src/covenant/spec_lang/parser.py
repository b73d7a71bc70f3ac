"""Hand-written lexer and recursive-descent parser for community specs.

The concrete syntax:

    spec      := community+
    community := "community" IDENT "{" member* "}"
    member    := role | group | policy | contract | object
    role      := "role" IDENT ":" kind card? ";"
    kind      := "human" | "agentic_ai" | "llm_agent" | "system"
    card      := "[" INT ".." (INT | "*") "]"
    group     := "group" IDENT "=" "{" IDENT ("," IDENT)* "}" ";"
    policy    := "policy" deontic ("requires" "discharged" deontic)?
                 ("unless" deontic)? ";"
    deontic   := ("burden" | "permit" | "embargo") "(" IDENT "," target ")"
    target    := IDENT          # ALL and ALL_AI_AGENTS are ordinary names
    contract  := "contract" IDENT "{" (allow | escalation)* "}"
    allow     := "allow" IDENT ":" IDENT ("," IDENT)* ";"
    escalation:= "escalate" "when" IDENT "to" IDENT ";"
    object    := "object" IDENT ";"

INT is ASCII digits; IDENT starts with a letter or "_" and goes on with
letters, digits and "_". The blanks are a space, a tab, CR and LF, and "#"
starts a comment running to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from ..errors import ParseError
from .ast import (
    CommunityTemplate,
    ContractDecl,
    DeonticAtom,
    EscalationRule,
    GroupDecl,
    Modality,
    ObjectDecl,
    PolicyDecl,
    Pos,
    RoleDecl,
    RoleKind,
    SpeechActKind,
)

KEYWORDS = frozenset(
    {
        "community",
        "role",
        "group",
        "policy",
        "contract",
        "object",
        "allow",
        "escalate",
        "when",
        "to",
        "requires",
        "discharged",
        "unless",
        "burden",
        "permit",
        "embargo",
        "human",
        "agentic_ai",
        "llm_agent",
        "system",
    }
)

_ROLE_KINDS = tuple(k.value for k in RoleKind)
_MODALITIES = tuple(m.value for m in Modality)
_SPEECH_ACT_KINDS = tuple(k.value for k in SpeechActKind)

# One group per token kind, tried in this order. An integer is ASCII digits
# only, as in the script reader; a word that starts with another digit ("²a",
# "٣") is an unexpected character, as is anything no group matches.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>#[^\n]*)"
    r"|(?P<punct>\.\.|[{}()\[\]:;,=*])|(?P<int>[0-9]+)|(?P<word>\w+)"
)


@dataclass(frozen=True)
class Token:
    type: str  # "ident" | "int" | "keyword" | "punct" | "eof"
    value: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = col = 1
    while i < len(source):
        match = _TOKEN.match(source, i)
        ch = source[i]
        if match is None or (match.lastgroup == "word" and not (ch.isalpha() or ch == "_")):
            raise ParseError(f"unexpected character {ch!r}", line, col)
        kind, text = match.lastgroup, match.group()
        i = match.end()
        if kind == "newline":
            line += 1
            col = 1
        elif kind != "comment":  # a comment leaves the column at its "#"
            if kind == "word":
                kind = "keyword" if text in KEYWORDS else "ident"
            if kind != "blank":
                tokens.append(Token(kind, text, line, col))
            col += len(text)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0

    # token access -----------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._i]

    def _advance(self) -> Token:
        tok = self._cur
        if tok.type != "eof":
            self._i += 1
        return tok

    def _fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self._cur
        shown = tok.value if tok.type != "eof" else "end of input"
        return ParseError(f"unexpected {shown!r}", tok.line, tok.column, expected)

    # No identifier is spelt like a keyword or a mark, so a spelling alone
    # tells one keyword, mark or speech-act kind from any other token.
    def _at(self, spelling: str) -> bool:
        return self._cur.value == spelling

    def _expect(self, spelling: str) -> Token:
        return self._expect_one_of((spelling,))

    def _expect_one_of(self, spellings: tuple[str, ...]) -> Token:
        if self._cur.value not in spellings:
            raise self._fail(spellings)
        return self._advance()

    def _expect_ident(self, what: str = "identifier") -> Token:
        if self._cur.type != "ident":
            raise self._fail((what,))
        return self._advance()

    def _expect_int(self) -> int:
        if self._cur.type != "int":
            raise self._fail(("integer",))
        tok = self._advance()
        try:
            return int(tok.value)
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(f"unreadable integer: {exc}", tok.line, tok.column) from None

    def _comma_list(self, read: Callable[..., Token], arg: object) -> tuple[str, ...]:
        """The spellings of `read(arg)`, once and then once after each comma."""
        items = [read(arg).value]
        while self._at(","):
            self._advance()
            items.append(read(arg).value)
        return tuple(items)

    # grammar productions ----------------------------------------------

    def parse_spec_file(self) -> list[CommunityTemplate]:
        communities = [self.parse_community()]
        while self._cur.type != "eof":
            communities.append(self.parse_community())
        return communities

    def parse_community(self) -> CommunityTemplate:
        head = self._expect("community")
        name = self._expect_ident("community name")
        self._expect("{")
        roles: list[RoleDecl] = []
        groups: list[GroupDecl] = []
        objects: list[ObjectDecl] = []
        policies: list[PolicyDecl] = []
        contracts: list[ContractDecl] = []
        while not self._at("}"):
            if self._at("role"):
                roles.append(self._parse_role())
            elif self._at("group"):
                groups.append(self._parse_group())
            elif self._at("policy"):
                policies.append(self._parse_policy())
            elif self._at("contract"):
                contracts.append(self._parse_contract())
            elif self._at("object"):
                objects.append(self._parse_object())
            else:
                raise self._fail(("role", "group", "policy", "contract", "object", "}"))
        self._expect("}")
        return CommunityTemplate(
            name=name.value,
            roles=tuple(roles),
            groups=tuple(groups),
            objects=tuple(objects),
            policies=tuple(policies),
            contracts=tuple(contracts),
            pos=Pos(head.line, head.column),
        )

    def _parse_role(self) -> RoleDecl:
        head = self._expect("role")
        name = self._expect_ident("role name")
        self._expect(":")
        kind = RoleKind(self._expect_one_of(_ROLE_KINDS).value)
        min_card, max_card = 1, 1
        if self._at("["):
            min_card, max_card = self._parse_cardinality()
        self._expect(";")
        return RoleDecl(
            name=name.value,
            kind=kind,
            min_card=min_card,
            max_card=max_card,
            pos=Pos(head.line, head.column),
        )

    def _parse_cardinality(self) -> tuple[int, int | None]:
        self._expect("[")
        lo = self._expect_int()
        self._expect("..")
        if self._at("*"):
            self._advance()
            hi: int | None = None
        elif self._cur.type == "int":
            hi = self._expect_int()
        else:
            raise self._fail(("integer", "*"))
        self._expect("]")
        return lo, hi

    def _parse_group(self) -> GroupDecl:
        head = self._expect("group")
        name = self._expect_ident("group name")
        self._expect("=")
        self._expect("{")
        members = self._comma_list(self._expect_ident, "role name")
        self._expect("}")
        self._expect(";")
        return GroupDecl(name=name.value, members=members, pos=Pos(head.line, head.column))

    def _parse_policy(self) -> PolicyDecl:
        head = self._expect("policy")
        atom = self._parse_deontic_atom()
        requires = None
        unless = None
        if self._at("requires"):
            self._advance()
            self._expect("discharged")
            requires = self._parse_deontic_atom()
        if self._at("unless"):
            self._advance()
            unless = self._parse_deontic_atom()
        self._expect(";")
        return PolicyDecl(
            atom=atom, requires=requires, unless=unless, pos=Pos(head.line, head.column)
        )

    def _parse_deontic_atom(self) -> DeonticAtom:
        head = self._expect_one_of(_MODALITIES)
        self._expect("(")
        action = self._expect_ident("action name")
        self._expect(",")
        target = self._expect_ident("target name")
        self._expect(")")
        return DeonticAtom(
            modality=Modality(head.value),
            action=action.value,
            target=target.value,
            pos=Pos(head.line, head.column),
        )

    def _parse_contract(self) -> ContractDecl:
        head = self._expect("contract")
        name = self._expect_ident("contract name")
        self._expect("{")
        allows: list[tuple[str, tuple[SpeechActKind, ...]]] = []
        escalations: list[EscalationRule] = []
        while not self._at("}"):
            if self._at("allow"):
                allows.append(self._parse_allow())
            elif self._at("escalate"):
                escalations.append(self._parse_escalation())
            else:
                raise self._fail(("allow", "escalate", "}"))
        self._expect("}")
        return ContractDecl(
            name=name.value,
            allows=tuple(allows),
            escalations=tuple(escalations),
            pos=Pos(head.line, head.column),
        )

    def _parse_allow(self) -> tuple[str, tuple[SpeechActKind, ...]]:
        self._expect("allow")
        role = self._expect_ident("role name")
        self._expect(":")
        kinds = self._comma_list(self._expect_one_of, _SPEECH_ACT_KINDS)
        self._expect(";")
        return role.value, tuple(map(SpeechActKind, kinds))

    def _parse_escalation(self) -> EscalationRule:
        head = self._expect("escalate")
        self._expect("when")
        condition = self._expect_ident("condition name")
        self._expect("to")
        role = self._expect_ident("role name")
        self._expect(";")
        return EscalationRule(
            condition=condition.value, to_role=role.value, pos=Pos(head.line, head.column)
        )

    def _parse_object(self) -> ObjectDecl:
        head = self._expect("object")
        name = self._expect_ident("object name")
        self._expect(";")
        return ObjectDecl(name=name.value, pos=Pos(head.line, head.column))


def parse_specs(source_text: str) -> list[CommunityTemplate]:
    """Parse a spec file that may declare several communities."""
    return _Parser(tokenize(source_text)).parse_spec_file()


def parse_spec(source_text: str) -> CommunityTemplate:
    """Parse a source declaring exactly one community."""
    parser = _Parser(tokenize(source_text))
    community = parser.parse_community()
    trailing = parser._cur
    if trailing.type != "eof":
        raise ParseError(
            "trailing input after community", trailing.line, trailing.column, ("end of input",)
        )
    return community
