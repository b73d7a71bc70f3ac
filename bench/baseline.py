"""Run every workload on several seeds and report the run-to-run spread.

    python3 bench/baseline.py                      # seeds 1..10 on every workload
    python3 bench/baseline.py --runs 5 --workloads live_ward
    python3 bench/baseline.py --trace --write      # also write bench/baseline.json
    python3 bench/baseline.py --runs 1             # every workload once, metrics only

Each run is `bench/run.py` in its own process, untraced, one after another,
with seeds 1 to `--runs`. For each end-to-end metric the spread is
(q3 - q1) / median over the runs, with quartiles as
`statistics.quantiles(values, n=4)` gives them. A metric is steady when its
spread is below a third of its bound in BENCHMARK.json. `--workloads` runs a
subset, for re-checking the workload that spreads most after a change to
the benchmark. With `--trace` one traced run per workload is added and its
per-layer metrics are stored next to the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each layer should move, and on which workload.
LAYER_MAP = {
    "spec_lang.parse_spec": "runs_per_s on scenario_suite; setup_s elsewhere (negligible share)",
    "spec_lang.validate_template": "runs_per_s on scenario_suite; setup_s elsewhere (negligible share)",
    "deontic.check_action_admissible": "action and events_per_s on live_ward; records_per_s on audit_replay; ~none on oracle_crosscheck",
    "deontic.expire_due": "action and events_per_s on live_ward; records_per_s on audit_replay; ~none on oracle_crosscheck",
    "deontic.create_token": "speech-act and events_per_s on live_ward; records_per_s on audit_replay",
    "deontic.token_ops": "speech-act and events_per_s on live_ward; records_per_s on audit_replay",
    "runtime.submit_action": "live_ward and audit_replay",
    "runtime.apply_speech_act": "live_ward and audit_replay",
    "runtime.bindings": "live_ward and audit_replay",
    "runtime.record_digest": "all four; largest share on audit_replay and scenario_suite",
    "runtime.parse_export": "records_per_s on audit_replay",
    "runtime.verify_chain": "records_per_s on audit_replay",
    "runtime.replay": "records_per_s on audit_replay",
    "runtime.export_log": "records_per_s on audit_replay",
    "runtime.records_per_event": "a count that must not change",
    "runtime.clone": "traces_per_s on oracle_crosscheck only",
    "verifier.clone": "traces_per_s on oracle_crosscheck only",
    "verifier.feed": "live_ward latency, audit_replay (run_checks) and oracle_crosscheck",
    "verifier.apply_schema": "traces_per_s on oracle_crosscheck",
    "verifier.violations": "a count that must not change",
    "reference.clone": "traces_per_s on oracle_crosscheck only",
    "reference.apply_schema": "traces_per_s on oracle_crosscheck (stays naive: expect no change)",
    "scenarios.run_scenario": "runs_per_s on scenario_suite",
    "scenarios.build": "runs_per_s on scenario_suite",
    "trace.overhead_ratio": "traced over untraced wall time of the same work",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    fingerprint = next(
        (json.loads(line.split(" fingerprint ", 1)[1]) for line in lines if " fingerprint " in line), None
    )
    result["fingerprint"] = fingerprint
    # the human-readable figures, gated or not: "<workload> <metric> <value> <unit> ..."
    result["printed"] = {}
    result["printed_units"] = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == workload and parts[1] != "fingerprint":
            try:
                result["printed"][parts[1]] = float(parts[2])
            except ValueError:
                continue
            result["printed_units"][parts[1]] = parts[3]
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    summary = {"median": median, "values": values}
    if len(values) > 1 and median:
        q1, _median, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / median)
    return summary


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--write", action="store_true", help="write bench/baseline.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    report: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: INCORRECT, {result['failed']} of {result['attempted']} failed")
            results.append(result)
        metrics = {}
        for name, bound in bounds.items():
            summary = summarize([r["metrics"][name]["value"] for r in results])
            summary["bound"] = bound
            metrics[name] = summary
            line = f"{workload:18s} {name:17s} median {summary['median']:14.6g} {units[name]:5s}"
            if "spread" in summary:
                ok = summary["spread"] < bound / 3
                steady &= ok
                line += f"  spread {summary['spread']:7.2%}  bound/3 {bound / 3:6.2%}  {'ok' if ok else 'WIDE'}  "
                line += " ".join(f"{v:.4g}" for v in summary["values"])
            print(line)
        printed = {}
        for name in results[0]["printed"]:
            if name in bounds:
                continue
            summary = summarize([r["printed"][name] for r in results])
            printed[name] = summary
            unit = results[0]["printed_units"][name]
            line = f"{workload:18s} {name:17s} median {summary['median']:14.6g} {unit:5s}"
            if "spread" in summary:
                line += f"  spread {summary['spread']:7.2%}  not gated"
            print(line)
        entry = {
            "why": next(w["why"] for w in bench["workloads"] if w["name"] == workload),
            "seeds": seeds,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
            "printed": printed,
            "fingerprint_seed_first": results[0]["fingerprint"],
        }
        if args.trace:
            traced = run_once(workload, seeds[0], seconds, 1)
            if not traced["correct"]:
                steady = False
                print(f"{workload} traced seed {seeds[0]}: INCORRECT, {traced['failed']} of {traced['attempted']} failed")
            entry["per_layer"] = traced["metrics"]
        report[workload] = entry

    if args.write:
        baseline = {
            "python": platform.python_version(),
            "host": f"{platform.system()} {platform.release()} {platform.machine()}",
            "cores": os.cpu_count(),
            "run_seconds": seconds,
            "layers": LAYER_MAP,
            "workloads": report,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    if args.runs > 1:
        print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
