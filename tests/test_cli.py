"""Command line interface tests, run in process through main()."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from covenant import cli
from covenant.cli import EXIT_INTEGRITY, EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS, main
from covenant.errors import CannotInject
from covenant.runtime import GENESIS_PREV_HASH, canonical_json
from covenant.scenarios import LAYER1_SOURCE, LAYER2_SOURCE, built_in_scenarios, get_scenario, inject_violation
from covenant.verifier import PROPERTIES

GOOD_SPEC = """\
community Clinic {
  role Officer: human;
  policy burden(screen, Officer);
  contract Rules {
    allow Officer: discharge;
  }
}
"""

BAD_SPEC = "community Clinic {\n  role Officer human;\n}\n"

DANGLING_SPEC = """\
community Clinic {
  role Officer: human;
  policy burden(screen, Nobody);
}
"""


def run_happy(tmp_path):
    code = main(["run", "--scenario", "happy_path", "--out", str(tmp_path)])
    assert code == EXIT_OK
    return sorted(p.name for p in tmp_path.glob("*.audit"))


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("happy_path", "rogue_ai", "negotiation", "advisory_gate"):
        assert name in out


def test_scenarios_run_and_coverage(capsys):
    assert main(["scenarios", "--run", "--coverage"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4
    assert "missing: none" in out


def test_run_writes_audit_exports(tmp_path, capsys):
    files = run_happy(tmp_path)
    assert files == [
        "happy_path.0.DataAccessCommunity.audit",
        "happy_path.1.MatchingWorkflowCommunity.audit",
    ]
    out = capsys.readouterr().out
    assert "[PASS]" in out and "0 violations" in out


def test_run_with_injected_fault_exits_nonzero(tmp_path, capsys):
    code = main(
        ["run", "--scenario", "rogue_ai", "--inject", "prohibition", "--out", str(tmp_path)]
    )
    assert code == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "violation embargo_holds" in out
    assert "(revoke_final_embargo)" in out


def test_run_exits_one_when_a_stage_misses_its_expectations(tmp_path, capsys, monkeypatch):
    happy = get_scenario("happy_path")
    stage = dataclasses.replace(happy.stages[0], expected_verdicts=(("read_demographics", "blocked"),))
    monkeypatch.setattr(cli, "get_scenario", lambda name: dataclasses.replace(happy, stages=(stage,)))
    assert main(["run", "--scenario", "happy_path", "--out", str(tmp_path)]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "scenario happy_path [FAIL]" in out
    assert "MISMATCH read_demographics: expected blocked, got admissible" in out


def test_run_requires_a_source(capsys):
    assert main(["run", "--out", "."]) == EXIT_USAGE
    assert "needs either" in capsys.readouterr().err


def test_run_unknown_scenario(capsys):
    assert main(["run", "--scenario", "nonesuch"]) == EXIT_USAGE
    assert "nonesuch" in capsys.readouterr().err


def test_run_rejects_unknown_injection(capsys):
    assert main(["run", "--scenario", "rogue_ai", "--inject", "safety"]) == EXIT_USAGE
    assert "safety" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--spec", "S", "--script", "X"], ["--script", "X"], ["--owner", "Clinic"], ["--mode", "advisory"]],
)
def test_a_scenario_run_refuses_the_flags_of_an_ad_hoc_run(tmp_path, capsys, flags):
    code = main(["run", "--scenario", "happy_path", *flags, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_ad_hoc_run_refuses_an_injection(tmp_path, capsys):
    spec = tmp_path / "gate.community"
    spec.write_text(GOOD_SPEC, encoding="utf-8")
    script = tmp_path / "session.events"
    script.write_text("bind Officer officer_1 human community_owner\n", encoding="utf-8")
    code = main(
        ["run", "--spec", str(spec), "--script", str(script), "--inject", "safety", "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_USAGE
    assert "--inject" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ad_hoc_script_run(tmp_path, capsys):
    spec = tmp_path / "gate.community"
    spec.write_text(GOOD_SPEC, encoding="utf-8")
    script = tmp_path / "session.events"
    script.write_text(
        "bind Officer officer_1 human Clinic\n"
        "declare: speech_act officer_1 declare_burden action=screen holder=Officer\n"
        "done: speech_act officer_1 discharge select=burden:screen:HELD\n",
        encoding="utf-8",
    )
    code = main(
        ["run", "--spec", str(spec), "--script", str(script), "--owner", "Clinic",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    assert (tmp_path / "session.0.Clinic.audit").exists()
    assert "[PASS]" in capsys.readouterr().out
    # a misspelled selector state is a parse error, not a silent PASS
    script.write_text(
        script.read_text(encoding="utf-8").replace(":HELD", ":HELDX"), encoding="utf-8"
    )
    code = main(
        ["run", "--spec", str(spec), "--script", str(script), "--owner", "Clinic",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_USAGE
    assert "line 3" in capsys.readouterr().err


def test_run_prints_each_refused_event(tmp_path, capsys):
    spec = tmp_path / "clinic.spec"
    spec.write_text("community Clinic { role Nurse: human [0..2]; }\n", encoding="utf-8")
    script = tmp_path / "clinic.events"
    # an agent named like the owner is refused; the run goes on and passes
    script.write_text("bind Nurse Owner human Owner\nbind Nurse nurse_1 human Owner\n", encoding="utf-8")
    code = main(
        ["run", "--spec", str(spec), "--script", str(script), "--owner", "Owner", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "scenario clinic [PASS]" in lines
    assert [line for line in lines if line.startswith("    refused")] == ["    refused e0: NameCollision"]


def test_verify_clean_trace(tmp_path, capsys):
    run_happy(tmp_path)
    capsys.readouterr()
    trace = tmp_path / "happy_path.0.DataAccessCommunity.audit"
    code = main(
        ["verify", "--trace", str(trace), "--property", "safety",
         "--action", "read_demographics", "--burden", "verify_consent"]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.strip() == ""
    assert "0 violation(s)" in captured.err


def test_verify_flags_violations_and_writes_report(tmp_path, capsys):
    main(["run", "--scenario", "happy_path", "--inject", "safety", "--out", str(tmp_path)])
    capsys.readouterr()
    trace = tmp_path / "happy_path__safety.0.DataAccessCommunity.audit"
    report = tmp_path / "violations.jsonl"
    code = main(
        ["verify", "--trace", str(trace), "--property", "safety",
         "--action", "read_demographics", "--burden", "verify_consent",
         "--report", str(report)]
    )
    assert code == EXIT_VIOLATIONS
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 1 and lines[0]["property"] == "consent_gated_access"
    assert report.read_text() == "\n".join(
        json.dumps(entry, separators=(",", ":")) for entry in lines
    ) + "\n"


def test_verify_authority_reads_the_role_from_the_spec(tmp_path, capsys):
    main(["run", "--scenario", "happy_path", "--inject", "authority", "--out", str(tmp_path)])
    run_happy(tmp_path)
    spec = tmp_path / "matching.community"
    spec.write_text(LAYER2_SOURCE, encoding="utf-8")
    capsys.readouterr()

    def verify(trace, role):
        return main(
            ["verify", "--trace", str(tmp_path / trace), "--property", "authority",
             "--action", "make_enrollment_decision", "--role", role, "--spec", str(spec)]
        )

    assert verify("happy_path__authority.1.MatchingWorkflowCommunity.audit", "Physician") == EXIT_VIOLATIONS
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines == [{"property": "exclusive_authority", "at_seq": 23, "witness": [23]}]
    assert verify("happy_path.1.MatchingWorkflowCommunity.audit", "Physician") == EXIT_OK
    assert capsys.readouterr().out == ""
    # a role the spec does not declare is a usage error
    assert verify("happy_path.1.MatchingWorkflowCommunity.audit", "Nurse") == EXIT_USAGE
    assert capsys.readouterr().err == "error: role 'Nurse' is not declared\n"



def test_verify_refuses_a_spec_for_another_community(tmp_path, capsys):
    run_happy(tmp_path)
    trace = tmp_path / "happy_path.0.DataAccessCommunity.audit"
    clinic, matching = tmp_path / "clinic.community", tmp_path / "matching.community"
    clinic.write_text(GOOD_SPEC, encoding="utf-8")
    matching.write_text(LAYER2_SOURCE, encoding="utf-8")
    capsys.readouterr()

    def verify(spec, *args):
        return main(["verify", "--trace", str(trace), "--spec", str(spec), *args])

    def refused(community):
        return ("", f"error: log is for community 'DataAccessCommunity', not '{community}'\n")

    assert verify(clinic, "--property", "accountability") == EXIT_USAGE
    assert capsys.readouterr() == refused("Clinic")
    authority = ("--property", "authority", "--action", "read_demographics", "--role", "Physician")
    assert verify(matching, *authority) == EXIT_USAGE
    assert capsys.readouterr() == refused("MatchingWorkflowCommunity")
    # the community is read from the chained genesis record, not from the header
    text = trace.read_text(encoding="utf-8")
    trace.write_text(text.replace('"community":"DataAccessCommunity"}', '"community":"Clinic"}', 1), encoding="utf-8")
    assert verify(clinic, "--property", "accountability") == EXIT_USAGE
    assert capsys.readouterr() == refused("Clinic")
    trace = _rechained(tmp_path, 0, _with(community="Clinic"))
    capsys.readouterr()
    # past the community check, replay finds that the Clinic spec cannot re-derive the log
    assert verify(clinic, "--property", "accountability") == EXIT_INTEGRITY
    assert capsys.readouterr().err.startswith("integrity failure at seq 0: genesis cannot be re-executed")

def test_verify_needs_property_parameters(tmp_path, capsys):
    run_happy(tmp_path)
    trace = tmp_path / "happy_path.0.DataAccessCommunity.audit"
    code = main(["verify", "--trace", str(trace), "--property", "safety"])
    assert code == EXIT_USAGE
    assert "--burden" in capsys.readouterr().err
    for prop, flag in (("authority", "--role"), ("prohibition", "--group")):
        code = main(["verify", "--trace", str(trace), "--property", prop, "--action", "read_demographics"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {prop} needs --action and {flag}\n"


def test_an_integer_too_long_to_read_in_a_spec_or_a_script_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "clinic.community"
    huge = "9" * 5000
    spec.write_text(GOOD_SPEC.replace("Officer: human;", f"Officer: human [0..{huge}];"), encoding="utf-8")
    assert main(["parse", "--spec", str(spec)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("parse error: 2:27: unreadable integer")
    spec.write_text(GOOD_SPEC, encoding="utf-8")
    script = tmp_path / "probe.script"
    script.write_text(f"bind Officer officer_1 human community_owner\nspeech_act officer_1 discharge token={huge}\n", encoding="utf-8")
    code = main(["run", "--spec", str(spec), "--script", str(script), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: line 2: token: ")
    assert not list(tmp_path.glob("*.audit"))


def test_verify_accountability_needs_no_parameters(tmp_path, capsys):
    run_happy(tmp_path)
    trace = tmp_path / "happy_path.1.MatchingWorkflowCommunity.audit"
    assert main(["verify", "--trace", str(trace), "--property", "accountability"]) == EXIT_OK


def _without(key):
    return lambda detail: {k: v for k, v in detail.items() if k != key}


def _with(**changes):
    return lambda detail: {**detail, **changes}


def _rechained(tmp_path, seq, mutate, respell=int):
    """happy_path's first export with record `seq` edited and the chain rebuilt."""
    run_happy(tmp_path)
    trace = tmp_path / "happy_path.0.DataAccessCommunity.audit"
    header, *lines = trace.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    records[seq]["detail"] = mutate(records[seq]["detail"])
    records[seq]["seq"] = respell(seq)
    prev = GENESIS_PREV_HASH
    for raw in records:  # re-chain, so that only the record's shape is wrong
        raw["prev_hash"] = prev
        # the canonical encoding of the hashed fields, as written, whatever their types
        hashed = {key: raw[key] for key in ("seq", "kind", "actor", "detail")}
        raw["hash"] = prev = hashlib.sha256((prev + canonical_json(hashed)).encode("utf-8")).hexdigest()
    lines = [json.dumps(raw, separators=(",", ":")) for raw in records]
    trace.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")
    return trace


@pytest.mark.parametrize(
    "seq, mutate, respell",
    [
        (6, lambda detail: [1, 2], int),
        (6, _without("role"), int),
        (1, _without("token"), int),
        # a seq that chains but is not an int is reported at the record's position
        (6, _without("role"), float),
        (6, lambda detail: detail, float),
        (1, lambda detail: detail, bool),
        # token 2 created where token 3 would be next, or in place of token 1
        (3, _with(token=2), int),
        (1, _with(token=2), int),
        # seq 14 discharges token 4; no token 9 was ever created
        (14, _with(token=9), int),
        (1, _with(modality="duty"), int),
        (1, _with(to="PENDING"), int),
        (14, _with(to="DONE"), int),
        # seq 7 binds extract_bot
        (7, _with(agent_kind="robot"), int),
        # seq 6 binds fhir_gateway: without its event type, or with one the runtime never writes
        (6, _without("event_type"), int),
        (6, _with(event_type="rebind"), int),
    ],
    ids=[
        "binding_detail_not_an_object",
        "bind_without_role",
        "transition_without_token",
        "bind_without_role_at_a_float_seq",
        "well_formed_record_at_a_float_seq",
        "well_formed_record_at_a_bool_seq",
        "token_created_out_of_order",
        "first_token_created_with_the_second_id",
        "transition_of_a_token_never_created",
        "unknown_modality",
        "unknown_created_state",
        "unknown_transition_state",
        "unknown_agent_kind",
        "binding_without_event_type",
        "unknown_binding_event_type",
    ],
)
def test_verify_rejects_a_malformed_record_in_a_sound_chain(tmp_path, capsys, seq, mutate, respell):
    trace = _rechained(tmp_path, seq, mutate, respell)
    capsys.readouterr()
    assert main(["verify", "--trace", str(trace), "--property", "accountability"]) == EXIT_INTEGRITY
    assert f"integrity failure at seq {seq}:" in capsys.readouterr().err


def test_verify_reports_an_unknown_agent_kind_as_an_integrity_failure(tmp_path, capsys):
    # seq 7 binds extract_bot with a kind the language does not have
    trace = _rechained(tmp_path, 7, _with(agent_kind="robot"))
    capsys.readouterr()
    args = ["verify", "--trace", str(trace), "--property", "prohibition",
            "--action", "access_without_consent", "--group", "ALL_AI_AGENTS"]
    assert main(args) == EXIT_INTEGRITY
    assert "integrity failure at seq 7:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seq",
    [
        '"x"',
        "true",
        "3.0",
        pytest.param("9" * 5000, id="5000_digits"),
        pytest.param("[" * 100_000, id="nested_past_the_recursion_limit"),
    ],
)
def test_verify_reports_a_seq_that_is_not_an_int_at_its_position(tmp_path, capsys, seq):
    run_happy(tmp_path)
    capsys.readouterr()
    trace = tmp_path / "happy_path.0.DataAccessCommunity.audit"
    text = trace.read_text(encoding="utf-8")
    assert text.count('"seq":3,') == 1
    trace.write_text(text.replace('"seq":3,', f'"seq":{seq},'), encoding="utf-8")
    assert main(["verify", "--trace", str(trace), "--property", "accountability"]) == EXIT_INTEGRITY
    assert "integrity failure at seq 3:" in capsys.readouterr().err
    assert main(["audit", "--trace", str(trace)]) == EXIT_INTEGRITY
    assert "integrity failure at seq 3:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header",
    ["[]", '"x"', "7", "null", "[" * 100_000, '{"format":' + "9" * 5000 + "}", None],
    ids=["array", "string", "number", "null", "nested_past_the_recursion_limit", "integer_of_5000_digits", "no_records"],
)
def test_audit_and_verify_refuse_an_unreadable_header_at_seq_0(tmp_path, capsys, header):
    run_happy(tmp_path)
    trace = tmp_path / "happy_path.0.DataAccessCommunity.audit"
    lines = trace.read_text(encoding="utf-8").splitlines()
    # None: a sound header and no records
    trace.write_text("\n".join(lines[:1] if header is None else [header] + lines[1:]) + "\n", encoding="utf-8")
    capsys.readouterr()
    for argv in (["audit", "--trace", str(trace)], ["verify", "--trace", str(trace), "--property", "accountability"]):
        assert main(argv) == EXIT_INTEGRITY, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("integrity failure at seq 0:") and captured.out == "", argv


def test_audit_reports_head_digest(tmp_path, capsys):
    run_happy(tmp_path)
    capsys.readouterr()
    trace = tmp_path / "happy_path.0.DataAccessCommunity.audit"
    assert main(["audit", "--trace", str(trace)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("ok: ") and "head seq" in out


def test_audit_detects_tampering(tmp_path, capsys):
    run_happy(tmp_path)
    trace = tmp_path / "happy_path.0.DataAccessCommunity.audit"
    lines = trace.read_text(encoding="utf-8").splitlines()
    lines[5] = lines[5].replace('"event"', '"Event"', 1)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["audit", "--trace", str(trace)]) == EXIT_INTEGRITY
    err = capsys.readouterr().err
    assert "integrity failure at seq 4" in err


def test_a_re_chained_forged_verdict_passes_the_chain_but_not_the_replay(tmp_path, capsys):
    # seq 18: the embargo blocked extract_bot's access_without_consent; the forgery admits it
    trace = _rechained(tmp_path, 18, _with(outcome="admissible"))
    spec = tmp_path / "layer1.community"
    spec.write_text(LAYER1_SOURCE, encoding="utf-8")
    capsys.readouterr()
    # the chain alone holds, and says so
    assert main(["audit", "--trace", str(trace)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("ok: 20 records,")
    assert captured.err.startswith("note: only the hash chain was checked")
    assert main(["verify", "--trace", str(trace), "--property", "accountability"]) == EXIT_OK
    capsys.readouterr()
    # the spec's rules block the access again: the replayed verdict differs at seq 18
    for argv in (["audit"], ["verify", "--property", "accountability"]):
        assert main([*argv, "--trace", str(trace), "--spec", str(spec)]) == EXIT_INTEGRITY, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("integrity failure at seq 18: digest mismatch at seq 18"), argv


def test_a_spec_with_validation_errors_is_a_usage_error_not_an_integrity_failure(tmp_path, capsys):
    run_happy(tmp_path)
    trace = tmp_path / "happy_path.0.DataAccessCommunity.audit"
    spec = tmp_path / "layer1.community"
    source = LAYER1_SOURCE.replace("burden(verify_consent, ConsentManager)", "burden(verify_consent, Nobody)")
    spec.write_text(source, encoding="utf-8")
    capsys.readouterr()
    for argv in (["audit"], ["verify", "--property", "accountability"]):
        assert main([*argv, "--trace", str(trace), "--spec", str(spec)]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "'Nobody'" in captured.err, argv


def test_every_built_in_stage_export_passes_audit_against_its_spec(tmp_path, capsys):
    def audit(trace, source):
        spec = trace.with_suffix(".community")
        spec.write_text(source, encoding="utf-8")
        capsys.readouterr()
        assert main(["audit", "--trace", str(trace)]) == EXIT_OK
        chain_only = capsys.readouterr().out
        assert main(["audit", "--trace", str(trace), "--spec", str(spec)]) == EXIT_OK, trace.name
        # the same head line, and no note
        assert capsys.readouterr() == (chain_only, ""), trace.name

    audited = 0
    for scenario in built_in_scenarios():
        assert main(["run", "--scenario", scenario.name, "--out", str(tmp_path)]) == EXIT_OK
        for index, stage in enumerate(scenario.stages):
            (trace,) = tmp_path.glob(f"{scenario.name}.{index}.*.audit")
            audit(trace, stage.source)
            audited += 1
    assert audited == len(list(tmp_path.glob("*.audit"))) == 5
    # each injected variant's stage logs pass against the built-in stage's own spec, but
    # for the safety variant's layer-1 log: that variant edits the template (CHANGES.md's
    # FOUND line on `inject_violation` and the safety variant's in-memory source)
    injected = tmp_path / "injected"
    for scenario in built_in_scenarios():
        for row in PROPERTIES.values():
            try:
                inject_violation(scenario, row.name)
            except CannotInject:
                continue
            argv = ["run", "--scenario", scenario.name, "--inject", row.name, "--out", str(injected)]
            assert main(argv) == EXIT_VIOLATIONS
    logs = sorted(injected.glob("*.audit"))
    assert len(logs) == 11
    for trace in logs:
        variant, index = trace.name.split(".")[:2]
        if (variant, index) != ("happy_path__safety", "0"):
            audit(trace, get_scenario(variant.split("__")[0]).stages[int(index)].source)


def test_parse_prints_canonical_form(tmp_path, capsys):
    spec = tmp_path / "clinic.community"
    spec.write_text(GOOD_SPEC, encoding="utf-8")
    assert main(["parse", "--spec", str(spec)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("community Clinic {")
    assert "burden(screen, Officer)" in out


def test_parse_error_carries_position(tmp_path, capsys):
    spec = tmp_path / "broken.community"
    spec.write_text(BAD_SPEC, encoding="utf-8")
    assert main(["parse", "--spec", str(spec)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("parse error: 2:")


def test_validate_reports_errors(tmp_path, capsys):
    spec = tmp_path / "dangling.community"
    spec.write_text(DANGLING_SPEC, encoding="utf-8")
    assert main(["validate", "--spec", str(spec)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Nobody" in captured.out
    assert "error(s)" in captured.err


def test_validate_accepts_good_spec(tmp_path, capsys):
    spec = tmp_path / "clinic.community"
    spec.write_text(GOOD_SPEC, encoding="utf-8")
    assert main(["validate", "--spec", str(spec)]) == EXIT_OK
    assert "Clinic: ok" in capsys.readouterr().out


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["parse", "--spec", "/nonexistent.community"]) == EXIT_USAGE
    # a directory and a file that is not UTF-8 are unreadable input, not violations
    spec = tmp_path / "clinic.community"
    spec.write_text(GOOD_SPEC, encoding="utf-8")
    garbled = tmp_path / "garbled"
    garbled.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    for argv in (
        ["parse", "--spec", str(tmp_path)],
        ["parse", "--spec", str(garbled)],
        ["run", "--spec", str(spec), "--script", str(garbled), "--out", str(tmp_path)],
        ["audit", "--trace", str(garbled)],
        ["verify", "--trace", str(garbled), "--property", "accountability"],
    ):
        assert main(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_argparse_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--trace", "x", "--property", "liveness"])
    assert info.value.code == EXIT_USAGE
