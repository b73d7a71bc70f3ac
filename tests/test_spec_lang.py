"""Grammar, formatter, and validator tests for the community spec language."""

from __future__ import annotations

import random

import pytest

from covenant.errors import CannotInject, ParseError
from covenant.scenarios import built_in_scenarios, inject_violation
from covenant.spec_lang import format_spec, parse_spec, validate_template
from covenant.spec_lang.ast import DeonticAtom, Modality, RoleDecl, RoleKind, SpeechActKind
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
    ],
)
def test_a_parse_error_is_placed_at_the_offending_token(source, line, column, expected):
    with pytest.raises(ParseError) as info:
        parse_spec(source)
    assert (info.value.line, info.value.column, info.value.expected) == (line, column, expected)


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
