"""The four benchmark workloads.

Every workload is a closed loop with one caller: it waits for each verdict or
result before it sends the next event. Inputs come only from the seed, and
the amount of work from `--seconds` (a fixed count, so that the same seed
always gives the same traffic and the same fingerprint). A workload has

* `setup()` — builds the starting state; `setup_batch` set-ups are timed
  together as one `setup_s` sample, `setup_samples` times;
* `run(state, ops, clock)` — the timed work inside one `clock.section()`,
  then the workload's output checks.

`ops.begin()` marks the start of one operation and `ops.end()` the end of
the timed work, so that the traced run can group the spans of one op under
one id and keep set-up and output checks out of the per-layer figures.
`layers` are the layers the timed work must call; `segment_ops` is how many
consecutive ops the traced run traces or leaves untraced in turn.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from covenant import runtime, scenarios, verifier

import ward
from crosscheck import RuntimeSearch, base_state
from hostspeed import Section

# layers the timed work of every workload that drives a Ward calls
WARD_LAYERS = (
    "deontic.check_action_admissible",
    "deontic.expire_due",
    "deontic.create_token",
    "deontic.token_ops",
    "runtime.submit_action",
    "runtime.apply_speech_act",
    "runtime.bindings",
    "runtime.record_digest",
    "verifier.feed",
)


@dataclass
class Outcome:
    """What one run of a workload did, measured and checked."""

    units: int  # work done, in the workload's throughput unit
    latencies: list[float]  # wall seconds per op, printed as the op_p* figures
    timed: Section = field(default_factory=Section)  # the timed work
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    # more latencies (seconds) printed on live_ward
    side_latencies: dict[str, list[float]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)


def _sorted_violations(violations) -> list:
    return sorted(violations, key=lambda v: (v.at_seq, v.property))


def _records_per_event(records) -> tuple[int, int]:
    """(records, events) of one log; every record carries its event number."""
    events = {r.detail["event"] for r in records}
    return len(records), len(events)


def _drive(caller, events: int, ops, clock, out: Outcome, latencies: dict[str, list[float]]) -> None:
    """Send `events` events from `caller`, timing each program call."""
    now = time.perf_counter
    for _ in range(events):
        category, call, args, observe = caller.plan()
        ops.begin()
        out.attempted += 1
        spent = clock.spent
        began = now()
        try:
            result = call(*args)
        except Exception as exc:
            # the caller only sends well-formed events, so any raise is a
            # failed op; count it and go on rather than end the run
            out.fail(f"{call.__name__}{args!r} raised {type(exc).__name__}: {exc}")
            continue
        latencies[category].append(now() - began - (clock.spent - spent))
        observe(result)


# ----------------------------------------------------------------------
# live_ward: a large community online


class LiveWard:
    name = "live_ward"
    rate = "events_per_s"
    op = "action"
    layers = WARD_LAYERS
    segment_ops = 32

    def __init__(self, seed: int, seconds: int, tiny: bool):
        self.seed = seed
        self.agents = 40 if tiny else 1000
        self.grants = 40 if tiny else 1000
        self.cases = 20 if tiny else 200
        self.events = 150 if tiny else 330 * seconds
        self.setup_batch = 1
        self.setup_samples = 1 if tiny else 5

    def setup(self):
        tpl, instance, caller = ward.populate(
            self.seed, self.agents, self.grants, self.cases, action_share=0.75
        )
        monitor = verifier.TraceMonitor(ward.PROPERTIES, tpl)
        monitor.attach(instance)
        return tpl, instance, caller, monitor

    def run(self, state, ops, clock) -> Outcome:
        tpl, instance, caller, monitor = state
        latencies: dict[str, list[float]] = {"action": [], "speech_act": [], "churn": []}
        out = Outcome(units=self.events, latencies=latencies["action"])
        with clock.section() as out.timed:
            _drive(caller, self.events, ops, clock, out, latencies)
        ops.end()
        out.side_latencies["speech_act"] = latencies["speech_act"]

        # output checks: the export replays byte for byte, and the online
        # monitor saw exactly what an offline check of the export sees
        export = instance.export_log()
        _header, records = runtime.import_log(export)
        twin = runtime.replay(tpl, records)
        out.check(twin.export_log() == export, "replayed export differs from the live export")
        offline = verifier.run_checks(records, ward.PROPERTIES, tpl)
        out.check(
            offline == _sorted_violations(monitor.violations),
            "online monitor and offline run_checks disagree",
        )
        n_records, n_events = _records_per_event(records)
        out.fingerprint = {
            "ops": self.events,
            "records": n_records,
            "events": n_events,
            "outcomes": dict(sorted(caller.outcomes.items())),
            "tokens": ward.token_states(instance),
            "violations": len(monitor.violations),
            "bound_agents": len(instance.bindings()),
        }
        return out


# ----------------------------------------------------------------------
# audit_replay: an auditor checks one long exported log


class AuditReplay:
    name = "audit_replay"
    rate = "records_per_s"
    op = "audit_pass"
    layers = WARD_LAYERS + (
        "runtime.parse_export",
        "runtime.verify_chain",
        "runtime.replay",
        "runtime.export_log",
    )
    segment_ops = 1

    def __init__(self, seed: int, seconds: int, tiny: bool):
        self.seed = seed
        self.target_records = 600 if tiny else 12000
        self.passes = 2 if tiny else max(2, seconds // 5)
        self.setup_batch = 1
        self.setup_samples = 1 if tiny else 3

    def setup(self):
        """Generate the log: a 20-agent Ward whose history keeps growing."""
        tpl, instance, caller = ward.populate(self.seed, 20, 20, 50, action_share=0.6)
        monitor = verifier.TraceMonitor(ward.PROPERTIES, tpl)
        monitor.attach(instance)
        while instance.head_seq + 1 < self.target_records:
            _category, call, args, observe = caller.plan()
            observe(call(*args))
        export = instance.export_log()
        return tpl, export, _sorted_violations(monitor.violations), caller, instance

    def run(self, state, ops, clock) -> Outcome:
        tpl, export, recorded, caller, instance = state
        out = Outcome(units=0, latencies=[])
        now = time.perf_counter
        with clock.section() as out.timed:
            for _ in range(self.passes):
                ops.begin()
                spent = clock.spent
                began = now()
                _header, records = runtime.import_log(export)
                twin = runtime.replay(tpl, records)
                same = twin.export_log() == export
                found = verifier.run_checks(records, ward.PROPERTIES, tpl)
                out.latencies.append(now() - began - (clock.spent - spent))
                out.units += len(records)
                out.check(same, "re-export differs from the input bytes")
                out.check(found == recorded, "offline violations differ from those recorded at setup")
        ops.end()
        n_records, n_events = _records_per_event(records)
        out.fingerprint = {
            "ops": self.passes,
            "records": n_records,
            "events": n_events,
            "outcomes": dict(sorted(caller.outcomes.items())),
            "tokens": ward.token_states(instance),
            "violations": len(found),
            "export_bytes": len(export),
        }
        return out


# ----------------------------------------------------------------------
# oracle_crosscheck: every trace of the criterion-5 fixture, both engines


class OracleCrosscheck:
    name = "oracle_crosscheck"
    rate = "traces_per_s"
    op = "runtime_step"
    layers = (
        "deontic.check_action_admissible",
        "runtime.submit_action",
        "runtime.apply_speech_act",
        "runtime.record_digest",
        "runtime.clone",
        "verifier.clone",
        "verifier.feed",
        "verifier.apply_schema",
        "reference.clone",
        "reference.apply_schema",
    )
    segment_ops = 128

    def __init__(self, seed: int, seconds: int, tiny: bool):
        # the fixture is the input, so the seed changes nothing
        self.depth = 3 if tiny else 5
        self.setup_batch = 10 if tiny else 400
        self.setup_samples = 1 if tiny else 5

    def setup(self):
        fixture = scenarios.reduced_layer1_fixture()
        tpl, instance, monitor = base_state(fixture)
        return fixture, tpl, instance, monitor

    def run(self, state, ops, clock) -> Outcome:
        fixture, tpl, instance, monitor = state
        search = RuntimeSearch(fixture, self.depth, ops, clock)
        with clock.section() as timed:
            ops.begin()
            expected = dict(
                verifier.oracle_enumerate(
                    tpl, fixture.alphabet, self.depth, fixture.properties, fixture.prologue, fixture.owner
                )
            )
            actual = search.run(instance, monitor)
        ops.end()
        out = Outcome(units=len(expected), latencies=search.latencies, timed=timed)
        for trace, verdicts in expected.items():
            out.check(actual.get(trace) == verdicts, f"trace {trace}: runtime {actual.get(trace)} != oracle {verdicts}")
        for trace in actual.keys() - expected.keys():
            out.check(False, f"trace {trace} enumerated by the runtime only")
        flagged = Counter(prop for verdicts in expected.values() for prop, _ in verdicts)
        out.fingerprint = {
            "ops": len(search.latencies),
            "traces": len(expected),
            "violating_traces": sum(1 for v in expected.values() if v),
            "records": search.records,
            "events": search.events,
            "violations": sum(flagged.values()),
            "by_property": dict(sorted(flagged.items())),
        }
        return out


# ----------------------------------------------------------------------
# scenario_suite: the built-in scenarios and their injected variants

INJECTIONS = (
    ("happy_path", "safety"),
    ("happy_path", "authority"),
    ("happy_path", "prohibition"),
    ("happy_path", "accountability"),
    ("rogue_ai", "authority"),
    ("rogue_ai", "prohibition"),
    ("rogue_ai", "accountability"),
)
ALIASES = {
    "safety": verifier.PROP_SAFETY,
    "authority": verifier.PROP_AUTHORITY,
    "prohibition": verifier.PROP_PROHIBITION,
    "accountability": verifier.PROP_ACCOUNTABILITY,
}


def build_suite() -> list[tuple[object, str | None]]:
    """The 4 built-ins plus 7 injected variants, each with its injected property."""
    built = scenarios.built_in_scenarios()
    by_name = {s.name: s for s in built}
    suite: list[tuple[object, str | None]] = [(s, None) for s in built]
    for name, kind in INJECTIONS:
        suite.append((scenarios.inject_violation(by_name[name], kind), ALIASES[kind]))
    return suite


class ScenarioSuite:
    name = "scenario_suite"
    rate = "runs_per_s"
    op = "suite_round"
    layers = (
        "spec_lang.parse_spec",
        "spec_lang.validate_template",
        "deontic.check_action_admissible",
        "runtime.submit_action",
        "runtime.apply_speech_act",
        "runtime.bindings",
        "runtime.record_digest",
        "runtime.export_log",
        "verifier.feed",
        "scenarios.run_scenario",
        "scenarios.build",
    )
    segment_ops = 1

    def __init__(self, seed: int, seconds: int, tiny: bool):
        # the built-in scenarios are the input, so the seed changes nothing
        self.rounds = 4 if tiny else 20 * seconds
        self.setup_batch = 10 if tiny else 1000
        self.setup_samples = 1 if tiny else 5

    def setup(self):
        return build_suite()

    def run(self, state, ops, clock) -> Outcome:
        out = Outcome(units=0, latencies=[])
        flagged: Counter = Counter()
        outcomes: Counter = Counter()
        records = events = 0
        now = time.perf_counter
        suite = state
        with clock.section() as out.timed:
            for round_index in range(self.rounds):
                # one op is one round: the 11 runs differ in length, so a single
                # run's latency is multimodal and its median jumps between modes
                ops.begin()
                spent = clock.spent
                began = now()
                if round_index:
                    suite = build_suite()
                reports = [(scenarios.run_scenario(scenario), injected) for scenario, injected in suite]
                out.latencies.append(now() - began - (clock.spent - spent))
                for report, injected in reports:
                    out.units += 1
                    props = [prop for stage in report.stages for prop, _seq, _label in stage.violations]
                    out.check(report.ok, f"{report.name}: {report.summary()}")
                    if injected is not None:
                        out.check(
                            bool(props) and set(props) == {injected},
                            f"{report.name} flagged {props}, expected only {injected}",
                        )
                    flagged.update(props)
                    for stage in report.stages:
                        outcomes.update(outcome.split(":")[0] for _label, outcome in stage.outcomes)
                        n_records, n_events = _records_per_event(stage.records)
                        records += n_records
                        events += n_events
        ops.end()
        out.fingerprint = {
            "ops": out.units,
            "rounds": self.rounds,
            "records": records,
            "events": events,
            "outcomes": dict(sorted(outcomes.items())),
            "violations": sum(flagged.values()),
            "by_property": dict(sorted(flagged.items())),
        }
        return out


WORKLOADS = {w.name: w for w in (LiveWard, AuditReplay, OracleCrosscheck, ScenarioSuite)}
