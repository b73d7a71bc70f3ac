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

`#` starts a comment running to end of line. Whitespace is insignificant.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_PUNCT = {"{", "}", "(", ")", "[", "]", ":", ";", ",", "=", "*"}
# ASCII only, as in the script reader: "٣" or "²" is an unexpected character
_DIGITS = frozenset("0123456789")

_ROLE_KINDS = tuple(k.value for k in RoleKind)
_MODALITIES = tuple(m.value for m in Modality)
_SPEECH_ACT_KINDS = tuple(k.value for k in SpeechActKind)


@dataclass(frozen=True)
class Token:
    type: str  # "ident" | "int" | "keyword" | "punct" | "eof"
    value: str
    line: int
    column: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "." and i + 1 < n and source[i + 1] == ".":
            tokens.append(Token("punct", "..", line, start_col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(source[j]):
                j += 1
            word = source[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
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

    def _at_keyword(self, word: str) -> bool:
        return self._cur.type == "keyword" and self._cur.value == word

    def _fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self._cur
        shown = tok.value if tok.type != "eof" else "end of input"
        return ParseError(f"unexpected {shown!r}", tok.line, tok.column, expected)

    def _expect_keyword(self, word: str) -> Token:
        if not self._at_keyword(word):
            raise self._fail((word,))
        return self._advance()

    def _expect_punct(self, mark: str) -> Token:
        if not (self._cur.type == "punct" and self._cur.value == mark):
            raise self._fail((mark,))
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

    # grammar productions ----------------------------------------------

    def parse_spec_file(self) -> list[CommunityTemplate]:
        communities = [self.parse_community()]
        while not self._cur.type == "eof":
            communities.append(self.parse_community())
        return communities

    def parse_community(self) -> CommunityTemplate:
        head = self._expect_keyword("community")
        name = self._expect_ident("community name")
        self._expect_punct("{")
        roles: list[RoleDecl] = []
        groups: list[GroupDecl] = []
        objects: list[ObjectDecl] = []
        policies: list[PolicyDecl] = []
        contracts: list[ContractDecl] = []
        while not (self._cur.type == "punct" and self._cur.value == "}"):
            if self._at_keyword("role"):
                roles.append(self._parse_role())
            elif self._at_keyword("group"):
                groups.append(self._parse_group())
            elif self._at_keyword("policy"):
                policies.append(self._parse_policy())
            elif self._at_keyword("contract"):
                contracts.append(self._parse_contract())
            elif self._at_keyword("object"):
                objects.append(self._parse_object())
            else:
                raise self._fail(("role", "group", "policy", "contract", "object", "}"))
        self._expect_punct("}")
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
        head = self._expect_keyword("role")
        name = self._expect_ident("role name")
        self._expect_punct(":")
        tok = self._cur
        if not (tok.type == "keyword" and tok.value in _ROLE_KINDS):
            raise self._fail(_ROLE_KINDS)
        self._advance()
        kind = RoleKind(tok.value)
        min_card, max_card = 1, 1
        if self._cur.type == "punct" and self._cur.value == "[":
            min_card, max_card = self._parse_cardinality()
        self._expect_punct(";")
        return RoleDecl(
            name=name.value,
            kind=kind,
            min_card=min_card,
            max_card=max_card,
            pos=Pos(head.line, head.column),
        )

    def _parse_cardinality(self) -> tuple[int, int | None]:
        self._expect_punct("[")
        lo = self._expect_int()
        self._expect_punct("..")
        if self._cur.type == "punct" and self._cur.value == "*":
            self._advance()
            hi: int | None = None
        elif self._cur.type == "int":
            hi = self._expect_int()
        else:
            raise self._fail(("integer", "*"))
        self._expect_punct("]")
        return lo, hi

    def _parse_group(self) -> GroupDecl:
        head = self._expect_keyword("group")
        name = self._expect_ident("group name")
        self._expect_punct("=")
        self._expect_punct("{")
        members = [self._expect_ident("role name").value]
        while self._cur.type == "punct" and self._cur.value == ",":
            self._advance()
            members.append(self._expect_ident("role name").value)
        self._expect_punct("}")
        self._expect_punct(";")
        return GroupDecl(name=name.value, members=tuple(members), pos=Pos(head.line, head.column))

    def _parse_policy(self) -> PolicyDecl:
        head = self._expect_keyword("policy")
        atom = self._parse_deontic_atom()
        requires = None
        unless = None
        if self._at_keyword("requires"):
            self._advance()
            self._expect_keyword("discharged")
            requires = self._parse_deontic_atom()
        if self._at_keyword("unless"):
            self._advance()
            unless = self._parse_deontic_atom()
        self._expect_punct(";")
        return PolicyDecl(
            atom=atom, requires=requires, unless=unless, pos=Pos(head.line, head.column)
        )

    def _parse_deontic_atom(self) -> DeonticAtom:
        tok = self._cur
        if not (tok.type == "keyword" and tok.value in _MODALITIES):
            raise self._fail(_MODALITIES)
        self._advance()
        self._expect_punct("(")
        action = self._expect_ident("action name")
        self._expect_punct(",")
        target = self._expect_ident("target name")
        self._expect_punct(")")
        return DeonticAtom(
            modality=Modality(tok.value),
            action=action.value,
            target=target.value,
            pos=Pos(tok.line, tok.column),
        )

    def _parse_contract(self) -> ContractDecl:
        head = self._expect_keyword("contract")
        name = self._expect_ident("contract name")
        self._expect_punct("{")
        allows: list[tuple[str, tuple[SpeechActKind, ...]]] = []
        escalations: list[EscalationRule] = []
        while not (self._cur.type == "punct" and self._cur.value == "}"):
            if self._at_keyword("allow"):
                allows.append(self._parse_allow())
            elif self._at_keyword("escalate"):
                escalations.append(self._parse_escalation())
            else:
                raise self._fail(("allow", "escalate", "}"))
        self._expect_punct("}")
        return ContractDecl(
            name=name.value,
            allows=tuple(allows),
            escalations=tuple(escalations),
            pos=Pos(head.line, head.column),
        )

    def _parse_allow(self) -> tuple[str, tuple[SpeechActKind, ...]]:
        self._expect_keyword("allow")
        role = self._expect_ident("role name")
        self._expect_punct(":")
        kinds = [self._parse_speech_act_kind()]
        while self._cur.type == "punct" and self._cur.value == ",":
            self._advance()
            kinds.append(self._parse_speech_act_kind())
        self._expect_punct(";")
        return role.value, tuple(kinds)

    def _parse_speech_act_kind(self) -> SpeechActKind:
        # "escalate" doubles as a keyword, hence the two-type check.
        tok = self._cur
        if tok.type not in ("ident", "keyword") or tok.value not in _SPEECH_ACT_KINDS:
            raise self._fail(_SPEECH_ACT_KINDS)
        self._advance()
        return SpeechActKind(tok.value)

    def _parse_escalation(self) -> EscalationRule:
        head = self._expect_keyword("escalate")
        self._expect_keyword("when")
        condition = self._expect_ident("condition name")
        self._expect_keyword("to")
        role = self._expect_ident("role name")
        self._expect_punct(";")
        return EscalationRule(
            condition=condition.value, to_role=role.value, pos=Pos(head.line, head.column)
        )

    def _parse_object(self) -> ObjectDecl:
        head = self._expect_keyword("object")
        name = self._expect_ident("object name")
        self._expect_punct(";")
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
