"""Grammar, formatter, and validator tests for the community spec language."""

from __future__ import annotations

import random

import pytest

from covenant.errors import CannotInject, InvalidTemplate, ParseError
from covenant.runtime import CommunityInstance, instantiate_community
from covenant.scenarios import built_in_scenarios, inject_violation
from covenant.spec_lang import format_spec, parse_spec, validate_template
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
from covenant.spec_lang.validate import SEVERITY_ERROR, SEVERITY_WARNING

from shared import make_random_template, round_trip_holds

MINIMAL = """\
community Tiny {
  role Operator: human;
  policy permit(ping, Operator);
}
"""


def errors_of(template):
    return [f for f in validate_template(template) if f.severity == SEVERITY_ERROR]


def warnings_of(template):
    return [f for f in validate_template(template) if f.severity == SEVERITY_WARNING]


def test_parse_minimal_community():
    t = parse_spec(MINIMAL)
    assert t.name == "Tiny"
    assert t.roles == (RoleDecl("Operator", RoleKind.HUMAN),)
    assert t.policies[0].atom == DeonticAtom(Modality.PERMIT, "ping", "Operator")
    assert errors_of(t) == []


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_spec("community X {\n  role A human;\n}\n")
    assert info.value.line == 2
    assert info.value.column > 0
    assert info.value.expected


def test_missing_semicolon_is_an_error():
    with pytest.raises(ParseError):
        parse_spec("community X {\n  role A: human\n  role B: human;\n}\n")


def test_unterminated_community_is_an_error():
    with pytest.raises(ParseError):
        parse_spec("community X {\n  role A: human;\n")


_ONE_ROLE = "community X {\n  role A: human;\n"


@pytest.mark.parametrize(
    "source, line, column, expected",
    [
        (_ONE_ROLE + "  @\n}\n", 3, 3, ()),
        (_ONE_ROLE + "  policy permit(x, A) requires burden(y, A);\n}\n", 3, 32, ("discharged",)),
        ("community {\n}\n", 1, 11, ("community name",)),
        ("community X {\n  role A: human [..1];\n}\n", 2, 18, ("integer",)),
        ("community X {\n  role A: robot;\n}\n", 2, 11, tuple(sorted(k.value for k in RoleKind))),
        ("community X {\n  role A: human [0..x];\n}\n", 2, 21, ("*", "integer")),
        # an integer token with more digits than int() will read
        ("community X {\n  role A: human [0.." + "9" * 5000 + "];\n}\n", 2, 21, ()),
        # a digit outside ASCII is no digit: the reader agrees with the script reader
        ("community X {\n  role A: human [\u00b2..1];\n}\n", 2, 18, ()),
        ("community X {\n  role A: human [\u0663..\u0665];\n}\n", 2, 18, ()),
        ("community X {\n  role A: human [0..1\u00b2];\n}\n", 2, 22, ()),
        (_ONE_ROLE + "  policy duty(x, A);\n}\n", 3, 10, tuple(sorted(m.value for m in Modality))),
        (_ONE_ROLE + "  contract C {\n    deny A: grant;\n  }\n}\n", 4, 5, ("allow", "escalate", "}")),
        (
            _ONE_ROLE + "  contract C {\n    allow A: grant, shout;\n  }\n}\n",
            4,
            21,
            tuple(sorted(k.value for k in SpeechActKind)),
        ),
        (_ONE_ROLE + "}\ncommunity Y {\n}\n", 4, 1, ("end of input",)),
        # the column is not advanced over a comment: end of input stands at its "#"
        (
            "community X {\n  role A: human; # open",
            2,
            18,
            ("contract", "group", "object", "policy", "role", "}"),
        ),
        (_ONE_ROLE + "\t@\n}\n", 3, 2, ()),
        (
            "community X {\r\n  role A: robot;\r\n}\r\n",
            2,
            11,
            tuple(sorted(k.value for k in RoleKind)),
        ),
        ("community X {\n  role A: human [0...1];\n}\n", 2, 21, ()),
        # only a space, a tab, CR and LF are blanks
        (_ONE_ROLE + "\u00a0role B: human;\n}\n", 3, 1, ()),
        (_ONE_ROLE + "\x0brole B: human;\n}\n", 3, 1, ()),
        # an integer ends at its last digit, and a word follows it
        ("community X {\n  role A: human [1abc..2];\n}\n", 2, 19, ("..",)),
    ],
    ids=[
        "unexpected_character",
        "missing_keyword",
        "missing_identifier",
        "missing_integer",
        "bad_role_kind",
        "bad_cardinality_bound",
        "integer_of_5000_digits",
        "superscript_digit",
        "arabic_indic_digits",
        "superscript_after_an_ascii_digit",
        "bad_modality",
        "bad_contract_member",
        "bad_speech_act_kind",
        "trailing_input",
        "end_of_input_after_a_trailing_comment",
        "tab_before_an_unexpected_character",
        "crlf_line_ends",
        "three_dots",
        "no_break_space",
        "vertical_tab",
        "word_after_an_integer",
    ],
)
def test_a_parse_error_is_placed_at_the_offending_token(source, line, column, expected):
    with pytest.raises(ParseError) as info:
        parse_spec(source)
    assert (info.value.line, info.value.column, info.value.expected) == (line, column, expected)


def test_an_identifier_may_hold_a_digit_after_its_first_character():
    t = parse_spec("community X {\n  role A\u00b2: human;\n}\n")
    assert t.roles == (RoleDecl("A\u00b2", RoleKind.HUMAN),)


def test_every_built_in_stage_source_round_trips():
    built = built_in_scenarios()
    variants = []
    for scenario in built:
        for kind in ("safety", "authority", "prohibition", "accountability"):
            try:
                variants.append(inject_violation(scenario, kind))
            except CannotInject:
                pass
    sources = {stage.source for s in built + tuple(variants) for stage in s.stages}
    assert len(variants) == 7 and len(sources) > 3
    for source in sources:
        assert round_trip_holds(parse_spec(source))


def test_cardinality_forms():
    t = parse_spec(
        "community C {\n"
        "  role A: human;\n"
        "  role B: human [0..1];\n"
        "  role D: system [1..*];\n"
        "  role E: llm_agent [2..5];\n"
        "}\n"
    )
    by_name = {r.name: r for r in t.roles}
    assert (by_name["A"].min_card, by_name["A"].max_card) == (1, 1)
    assert (by_name["B"].min_card, by_name["B"].max_card) == (0, 1)
    assert (by_name["D"].min_card, by_name["D"].max_card) == (1, None)
    assert (by_name["E"].min_card, by_name["E"].max_card) == (2, 5)


def test_empty_cardinality_range_is_flagged():
    t = parse_spec("community C {\n  role A: human [3..1];\n}\n")
    assert any("cardinality" in f.message for f in errors_of(t))


def test_duplicate_names_flagged():
    t = parse_spec(
        "community C {\n  role A: human;\n  object A;\n}\n"
    )
    assert any("duplicate name" in f.message for f in errors_of(t))


def test_group_member_must_be_declared():
    t = parse_spec(
        "community C {\n  role A: human;\n  group G = {A, Missing};\n}\n"
    )
    assert any("undeclared role 'Missing'" in f.message for f in errors_of(t))


@pytest.mark.parametrize(
    "clause",
    [
        "policy permit(read, Cache);",
        "policy permit(read, R) requires discharged burden(check, Cache);",
        "policy embargo(read, ALL) unless permit(open, Cache);",
    ],
    ids=["atom", "requires", "unless"],
)
def test_a_policy_may_not_name_an_object(clause):
    # an object holds no token: as the atom's target it never resolves at
    # genesis, as a guard it is never read, and as an exception it would
    # match only an agent spelt like the object
    t = parse_spec(f"community C {{ role R: human [0..2]; object Cache; {clause} }}")
    assert [f.message for f in errors_of(t)] == ["unresolved target 'Cache'"]
    with pytest.raises(InvalidTemplate, match="unresolved target 'Cache'"):
        instantiate_community(t)


def _draw_template(rng: random.Random, index: int) -> CommunityTemplate:
    """A small template, now and then with a defect: a target, member or role that is
    an object's or an undeclared name, a duplicate name, an empty range or a clause of
    the wrong modality."""
    cards = ((1, 1), (0, 2), (0, None), (1, 3), (2, 1))
    roles = tuple(
        RoleDecl(f"R{i}", rng.choice(list(RoleKind)), *rng.choice(cards))
        for i in range(rng.randint(1, 3))
    )
    objects = tuple(
        ObjectDecl(rng.choice((f"O{i}",) * 9 + ("R0",))) for i in range(rng.randint(0, 2))
    )
    strays = [o.name for o in objects] + ["G1", "Nobody"]

    def name(holders: list[str]) -> str:
        return rng.choice(strays if rng.random() < 0.05 else holders)

    role_names = [r.name for r in roles]
    groups = tuple(GroupDecl("G0", (name(role_names),)) for _ in range(rng.randint(0, 1)))
    targets = role_names + [g.name for g in groups] + list(BUILTIN_GROUPS)

    def atom(modality: Modality) -> DeonticAtom:
        if rng.random() < 0.05:
            modality = rng.choice(list(Modality))
        return DeonticAtom(modality, rng.choice("xyz"), name(targets))

    policies = tuple(
        PolicyDecl(
            atom(rng.choice(list(Modality))),
            atom(Modality.BURDEN) if rng.random() < 0.3 else None,
            atom(Modality.PERMIT) if rng.random() < 0.2 else None,
        )
        for _ in range(rng.randint(0, 4))
    )
    contracts = tuple(
        ContractDecl(
            "K0",
            ((name(role_names), tuple(rng.sample(list(SpeechActKind), 2))),),
            (EscalationRule("timeout", name(role_names)),),
        )
        for _ in range(rng.randint(0, 1))
    )
    return CommunityTemplate(f"Draw{index}", roles, groups, objects, policies, contracts)


def test_validation_and_instantiation_are_total():
    # validate_template never raises; instantiate_community builds an instance
    # exactly when validation finds no error, and refuses with InvalidTemplate
    # otherwise, never with another exception
    rng = random.Random(0x7074)
    built = refused = 0
    for index in range(400):
        template = _draw_template(rng, index)
        errors = errors_of(template)
        try:
            instance = instantiate_community(template)
        except InvalidTemplate:
            assert errors, f"template #{index} was refused with no validation error"
            refused += 1
        else:
            assert not errors and isinstance(instance, CommunityInstance), f"template #{index}"
            built += 1
    assert built > 50 and refused > 50, (built, refused)


def test_unless_only_on_embargo():
    t = parse_spec(
        "community C {\n"
        "  role A: human;\n"
        "  policy permit(x, A) unless permit(y, A);\n"
        "}\n"
    )
    assert any("unless" in f.message for f in errors_of(t))


def test_unless_must_name_a_permit():
    t = parse_spec(
        "community C {\n"
        "  role A: human;\n"
        "  policy embargo(x, A) unless burden(y, A);\n"
        "}\n"
    )
    assert any("must name a permit" in f.message for f in errors_of(t))


def test_requires_must_name_a_burden():
    t = parse_spec(
        "community C {\n"
        "  role A: human;\n"
        "  policy permit(x, A) requires discharged permit(y, A);\n"
        "}\n"
    )
    assert any("must name a burden" in f.message for f in errors_of(t))


def test_unresolved_target_flagged():
    t = parse_spec("community C {\n  role A: human;\n  policy permit(x, Ghost);\n}\n")
    assert any("unresolved target 'Ghost'" in f.message for f in errors_of(t))


def test_builtin_groups_resolve_without_declaration():
    t = parse_spec(
        "community C {\n"
        "  role A: llm_agent;\n"
        "  policy embargo(x, ALL);\n"
        "  policy embargo(y, ALL_AI_AGENTS);\n"
        "}\n"
    )
    assert errors_of(t) == []


def test_escalation_to_nonhuman_warns():
    t = parse_spec(
        "community C {\n"
        "  role Bot: llm_agent;\n"
        "  contract K {\n"
        "    allow Bot: escalate;\n"
        "    escalate when low_confidence to Bot;\n"
        "  }\n"
        "}\n"
    )
    assert errors_of(t) == []
    assert any("not a human role" in f.message for f in warnings_of(t))


def test_escalation_to_undeclared_role_is_an_error():
    t = parse_spec(
        "community C {\n"
        "  role A: human;\n"
        "  contract K {\n"
        "    allow A: escalate;\n"
        "    escalate when x to Nobody;\n"
        "  }\n"
        "}\n"
    )
    assert any("undeclared role 'Nobody'" in f.message for f in errors_of(t))


def test_contract_for_an_undeclared_role_is_an_error():
    t = parse_spec(_ONE_ROLE + "  contract K {\n    allow Nobody: grant;\n  }\n}\n")
    assert [f.message for f in errors_of(t)] == ["contract 'K' authorizes undeclared role 'Nobody'"]


def conflict_oracle(template):
    """Brute-force pairwise scan: unconditional permit/embargo overlaps."""
    count = 0
    for e in template.policies:
        if e.modality is not Modality.EMBARGO or e.unless is not None:
            continue
        for p in template.policies:
            if (
                p.modality is Modality.PERMIT
                and p.action == e.action
                and p.target == e.target
            ):
                count += 1
    return count


def test_permit_embargo_conflict_warning_matches_pairwise_oracle():
    t = parse_spec(
        "community C {\n"
        "  role A: human;\n"
        "  role B: llm_agent;\n"
        "  policy permit(x, A);\n"
        "  policy permit(x, B);\n"
        "  policy embargo(x, A);\n"
        "  policy embargo(x, B);\n"
        "  policy embargo(y, A);\n"
        "  policy permit(z, A);\n"
        "}\n"
    )
    conflicts = [f for f in warnings_of(t) if "conflict" in f.message]
    assert len(conflicts) == conflict_oracle(t) == 2


def test_unless_clause_suppresses_conflict_warning():
    t = parse_spec(
        "community C {\n"
        "  role A: human;\n"
        "  policy permit(x, A);\n"
        "  policy embargo(x, A) unless permit(open_x, A);\n"
        "}\n"
    )
    assert conflict_oracle(t) == 0
    assert not [f for f in warnings_of(t) if "conflict" in f.message]


def test_requires_and_unless_clauses_round_trip():
    source = (
        "community C {\n"
        "  role Officer: human;\n"
        "  role Bot: llm_agent;\n"
        "  policy permit(read, Bot) requires discharged burden(check, Officer);\n"
        "  policy embargo(leak, ALL) unless permit(open, Officer);\n"
        "}\n"
    )
    t = parse_spec(source)
    assert t.policies[0].requires == DeonticAtom(Modality.BURDEN, "check", "Officer")
    assert t.policies[1].unless == DeonticAtom(Modality.PERMIT, "open", "Officer")
    assert parse_spec(format_spec(t)) == t


def test_interleaved_declarations_regroup_canonically():
    interleaved = (
        "community C {\n"
        "  object O1;\n"
        "  role A: human;\n"
        "  policy permit(x, A);\n"
        "  role B: system;\n"
        "  object O2;\n"
        "}\n"
    )
    t = parse_spec(interleaved)
    assert [r.name for r in t.roles] == ["A", "B"]
    assert [o.name for o in t.objects] == ["O1", "O2"]
    assert parse_spec(format_spec(t)) == t


def test_comments_are_ignored():
    t = parse_spec(
        "community C {\n"
        "  # staffing\n"
        "  role A: human;  # on call\n"
        "  policy permit(x, A);\n"
        "}\n"
    )
    assert len(t.roles) == 1 and len(t.policies) == 1


def test_fuzzed_templates_round_trip_and_validate():
    rng = random.Random(0xC0DE)
    for index in range(1000):
        template = make_random_template(rng, index)
        assert errors_of(template) == [], f"generator produced an invalid template #{index}"
        assert round_trip_holds(template), f"round trip failed on fuzzed template #{index}"
