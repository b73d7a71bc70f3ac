"""Command-line interface.

Subcommands: parse, validate, run, verify, audit, scenarios. Exit codes:
0 success and zero violations, 1 violations found, 2 usage or parse error,
3 audit-trail integrity failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import (
    CannotInject,
    CovenantError,
    IntegrityError,
    InvalidTemplate,
    ParseError,
    ScriptError,
    UnknownIdentifier,
)
from .runtime import MODE_AUTONOMOUS, MODES, AuditRecord, import_log, replay
from .scenarios import (
    ScenarioReport,
    built_in_scenarios,
    coverage_report,
    get_scenario,
    inject_violation,
    parse_script,
    run_scenario,
    run_stage,
    stage_from_script,
)
from .spec_lang import format_spec, parse_spec
from .spec_lang.ast import CommunityTemplate
from .spec_lang.validate import SEVERITY_ERROR, validate_template
from .verifier import PROPERTIES, PropertySpec, run_checks

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cmd_parse(args: argparse.Namespace) -> int:
    template = parse_spec(_read(args.spec))
    sys.stdout.write(format_spec(template))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    template = parse_spec(_read(args.spec))
    findings = validate_template(template)
    for finding in findings:
        print(finding)
    errors = [f for f in findings if f.severity == SEVERITY_ERROR]
    if errors:
        print(f"{len(errors)} error(s)", file=sys.stderr)
        return EXIT_USAGE
    print(f"{template.name}: ok ({len(findings)} warning(s))")
    return EXIT_OK


# the flags of an ad-hoc run; a scenario brings its own spec, script, owner and mode
_SCRIPT_FLAGS = ("spec", "script", "owner", "mode")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario:
        for flag in _SCRIPT_FLAGS:
            if getattr(args, flag) is not None:
                print(f"run --scenario takes no --{flag}", file=sys.stderr)
                return EXIT_USAGE
        scenario = get_scenario(args.scenario)
        if args.inject:
            scenario = inject_violation(scenario, args.inject)
        report = run_scenario(scenario)
    elif args.inject:
        print("--inject needs --scenario", file=sys.stderr)
        return EXIT_USAGE
    elif args.spec and args.script:
        # an owner or a mode not given is stage_from_script's default
        options = {flag: getattr(args, flag) for flag in ("owner", "mode") if getattr(args, flag) is not None}
        stage = stage_from_script(_read(args.spec), parse_script(_read(args.script)), **options)
        report = ScenarioReport(name=Path(args.script).stem, stages=(run_stage(stage),))
    else:
        print("run needs either --scenario or both --spec and --script", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, stage in enumerate(report.stages):
        path = out_dir / f"{report.name}.{index}.{stage.community}.audit"
        path.write_text(stage.export, encoding="utf-8")
        print(f"wrote {path}")
    print(report.summary())

    if not report.ok:
        return EXIT_VIOLATIONS
    if any(stage.violations for stage in report.stages):
        return EXIT_VIOLATIONS
    return EXIT_OK


def _property_spec(args: argparse.Namespace) -> PropertySpec:
    template, row = next((t, row) for t, row in PROPERTIES.items() if row.name == args.property)
    values = tuple(getattr(args, param.flag) for param in row.params)
    if not all(values):
        raise UnknownIdentifier(f"{row.name} needs " + " and ".join(f"--{param.flag}" for param in row.params))
    return PropertySpec(template, values)


def _import(args: argparse.Namespace) -> tuple[tuple[AuditRecord, ...], CommunityTemplate | None]:
    """The export's records once their chain holds and, given --spec, once replay re-derives each.

    A chain alone shows only that the records are in order, since anyone can
    re-hash one; replay re-executes the log under the spec's rules, so a
    forged verdict or transition fails at its seq. A log of another community
    is refused by replay, which reads its genesis record.
    """
    _header, records = import_log(_read(args.trace))
    if not args.spec:
        return records, None
    template = parse_spec(_read(args.spec))
    replay(template, records)
    return records, template


def _cmd_verify(args: argparse.Namespace) -> int:
    records, template = _import(args)
    spec = _property_spec(args)
    violations = run_checks(records, (spec,), template)
    lines = [v.to_line() for v in violations]
    for line in lines:
        print(line)
    if args.report:
        Path(args.report).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        print(f"wrote {args.report}", file=sys.stderr)
    print(f"{len(violations)} violation(s)", file=sys.stderr)
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    records, template = _import(args)
    if template is None:
        print("note: only the hash chain was checked; --spec also re-derives each record", file=sys.stderr)
    head = records[-1]
    print(f"ok: {len(records)} records, head seq {head.seq}, digest {head.hash}")
    return EXIT_OK


def _cmd_scenarios(args: argparse.Namespace) -> int:
    scenarios = built_in_scenarios()
    if not args.run and not args.coverage:
        for scenario in scenarios:
            communities = ", ".join(stage.community for stage in scenario.stages)
            print(f"{scenario.name}: {scenario.synopsis} [{communities}]")
        return EXIT_OK

    worst = EXIT_OK
    if args.run:
        for scenario in scenarios:
            report = run_scenario(scenario)
            print(report.summary())
            if not report.ok or any(stage.violations for stage in report.stages):
                worst = EXIT_VIOLATIONS
    if args.coverage:
        print(coverage_report().text())
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covenant",
        description="deontic governance engine for multi-agent communities",
    )
    parser.add_argument("--version", action="version", version=f"covenant {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a community spec and print its canonical form")
    p.add_argument("--spec", required=True, help="path to a .community file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("validate", help="parse and run semantic checks on a community spec")
    p.add_argument("--spec", required=True, help="path to a .community file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="execute a scenario and write its audit export")
    p.add_argument("--scenario", help="built-in scenario name")
    p.add_argument(
        "--inject",
        choices=[row.name for row in PROPERTIES.values()],
        help="run the mutated variant that violates the given property",
    )
    p.add_argument("--spec", help="community spec for an ad-hoc script run")
    p.add_argument("--script", help="event script file for an ad-hoc run")
    p.add_argument("--owner", help="owning principal for ad-hoc runs (default community_owner)")
    p.add_argument("--mode", choices=MODES, help=f"deployment mode for ad-hoc runs (default {MODE_AUTONOMOUS})")
    p.add_argument("--out", default=".", help="directory for audit exports")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="check one property over an audit export")
    p.add_argument("--trace", required=True, help="audit export file")
    p.add_argument(
        "--property",
        required=True,
        choices=[row.name for row in PROPERTIES.values()],
    )
    uses: dict[str, list[str]] = {}  # each parameter flag -> the parameters it sets
    for row in PROPERTIES.values():
        for param in row.params:
            uses.setdefault(param.flag, []).append(f"{param.key} ({row.name})")
    for flag, keys in uses.items():
        p.add_argument(f"--{flag}", help=", ".join(keys))
    p.add_argument("--spec", help="community spec to replay the export against, and for role and group lookups")
    p.add_argument("--report", help="write the violation report to this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="re-verify hash-chain integrity of an export")
    p.add_argument("--trace", required=True, help="audit export file")
    p.add_argument("--spec", help="community spec to replay the export against")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("scenarios", help="list or run the built-in scenarios")
    p.add_argument("--run", action="store_true", help="run every built-in scenario")
    p.add_argument("--coverage", action="store_true", help="print the coverage report")
    p.set_defaults(func=_cmd_scenarios)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegrityError as exc:
        print(f"integrity failure at seq {exc.bad_seq}: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScriptError, CannotInject, UnknownIdentifier, InvalidTemplate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        # an unreadable or non-UTF-8 input is a usage error, not a violation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CovenantError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
