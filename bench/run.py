"""Benchmark entry point.

    python3 bench/run.py --workload live_ward --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/` of that
checkout and nowhere else. With `--trace 0` the run is untraced and reports
the end-to-end metrics; with `--trace 1` it traces segments of the timed
work in turn with untraced ones, and reports the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Human-readable lines come
before it. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _load_package() -> None:
    """Import covenant from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import covenant
    except ImportError as exc:
        sys.exit(f"bench: cannot import covenant from {src}: {exc}")
    origin = Path(covenant.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"bench: covenant was imported from {origin}, not from {src}")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_setups(workload, clock):
    """Set the workload up `setup_samples` times `setup_batch` times over.

    Returns the last state and the seconds per set-up of each sample (raw
    and corrected for host speed); a batch keeps each sample in the tens of
    milliseconds at least, where a single set-up of the small workloads
    takes well under one.
    """
    raw, norm = [], []
    state = None
    for _ in range(workload.setup_samples):
        state = None  # release the previous state before building the next
        gc.collect()
        with clock.section() as timed:
            for _ in range(workload.setup_batch):
                state = workload.setup()
        raw.append(timed.raw_s / workload.setup_batch)
        norm.append(timed.norm_s / workload.setup_batch)
    return state, raw, norm


def _bench_digest() -> str:
    """Short digest of the benchmark's own sources, so edits start a new record."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _fingerprint_check(args, outcome) -> None:
    """Runs with the same workload, seed and size must send the same traffic."""
    size = "tiny" if args.tiny else f"s{args.seconds}"
    name = f"{args.workload}-seed{args.seed}-{size}-{_bench_digest()}.json"
    path = OUT_DIR / "fingerprints" / name
    text = json.dumps(outcome.fingerprint, sort_keys=True)
    outcome.attempted += 1
    if path.exists():
        if path.read_text() != text:
            outcome.fail(f"fingerprint differs from an earlier run: {path.read_text()}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _tail(values: list[float]) -> int:
    """The highest of p90, p99 with at least ten samples beyond it (0 if none)."""
    return next((pct for pct in (99, 90) if len(values) * (100 - pct) / 100 >= 10), 0)


def _print_end_to_end(workload, setup_raw, setup_norm, outcome, rss: float) -> dict:
    """Print every end-to-end figure; return the gated ones for the result line.

    The gated timings are in seconds corrected for host speed (see
    hostspeed.py); the plain wall-clock figures are printed next to them.
    """
    name, timed = workload.name, outcome.timed
    metrics = {
        "throughput_per_s": (outcome.units / timed.norm_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup_norm), "s"),
    }
    readable = [
        ("setup_s", metrics["setup_s"][0], "s",
         f"median of {len(setup_norm)} samples of {workload.setup_batch} set-ups; "
         f"wall clock {statistics.median(setup_raw):.6g} s"),
        ("peak_rss_mb", rss, "MB", ""),
        ("ops_failed_ratio", outcome.failed / outcome.attempted, "ratio",
         f"{outcome.failed} failed of {outcome.attempted} attempted"),
        (workload.rate, metrics["throughput_per_s"][0], "1/s",
         f"{outcome.units} in {timed.norm_s:.3f} s corrected, {timed.raw_s:.3f} s wall clock; "
         f"wall-clock rate {outcome.units / timed.raw_s:.6g}"),
    ]
    latencies = {workload.op: outcome.latencies, **outcome.side_latencies}
    for op, values in latencies.items():
        tail = _tail(values)
        for pct in (50, tail) if tail else (50,):
            note = f"wall clock, n={len(values)}"
            readable.append((f"{op}_p{pct}_us", percentile(values, pct) * 1e6, "us", note))
    for metric, value, unit, note in readable:
        print(f"{name} {metric} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


def run_untraced(args, workload) -> tuple[dict, object]:
    from hostspeed import SpeedClock
    from tracing import NullOps

    with SpeedClock() as clock:
        state, setup_raw, setup_norm = _timed_setups(workload, clock)
        gc.collect()
        outcome = workload.run(state, NullOps(), clock)
    _fingerprint_check(args, outcome)
    metrics = _print_end_to_end(workload, setup_raw, setup_norm, outcome, peak_rss_mb())
    return metrics, outcome


def run_traced(args, workload) -> tuple[dict, object]:
    from hostspeed import SpeedClock
    from tracing import RATIOS, Tracer

    with SpeedClock() as clock:
        tracer = Tracer(workload.segment_ops, clock)
        tracer.install()
        try:
            state = workload.setup()
            gc.collect()
            outcome = workload.run(state, tracer, clock)
        finally:
            tracer.uninstall()
    _fingerprint_check(args, outcome)

    stats = tracer.layer_stats()
    missing = [layer for layer in workload.layers if stats[layer]["calls"] == 0]
    if missing:
        sys.exit(f"bench: expected spans never fired on {args.workload}: {', '.join(missing)}")
    ratios = tracer.overhead_ratios()
    if not ratios:
        sys.exit(f"bench: {args.workload} ran too few ops to pair a traced and an untraced segment")

    # self time goes out as a share of the recorded wall time, which is
    # reported too: a layer a workload never calls then reads 0 as a ratio
    recorded = tracer.recorded_s()
    metrics: dict = {}
    print(f"{args.workload} layer calls self_s self_share (of {recorded:.3f} s recorded)")
    for layer, s in stats.items():
        share = s["self_s"] / recorded
        metrics[f"{layer}.calls"] = {"value": s["calls"], "unit": "count"}
        metrics[f"{layer}.self_share"] = {"value": share, "unit": "ratio"}
        if s["calls"]:
            print(f"  {layer} {s['calls']} {s['self_s']:.6f} {share:.2%}")
    for layer, suffix, _predicate in RATIOS:
        calls = stats[layer]["calls"]
        ratio = stats[layer]["hits"] / calls if calls else 0.0
        metrics[f"{layer}.{suffix}"] = {"value": ratio, "unit": "ratio"}
        print(f"  {layer}.{suffix} {ratio:.6f}")
    fp = outcome.fingerprint
    overhead = statistics.median(ratios)
    metrics["runtime.records_per_event"] = {"value": fp["records"] / fp["events"], "unit": "records/event"}
    metrics["verifier.violations"] = {"value": fp["violations"], "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": recorded, "unit": "s"}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    spans = tracer.write(path)
    print(f"  runtime.records_per_event {fp['records'] / fp['events']:.6f}")
    print(f"  verifier.violations {fp['violations']}")
    if len(ratios) > 2:
        q1, _median, q3 = statistics.quantiles(ratios, n=4)
        # standard error of a median, with the spread estimated from the quartiles
        error = 1.2533 * (q3 - q1) / 1.349 / math.sqrt(len(ratios))
        note = f"± {error:.4f}, median of {len(ratios)} segment pairs"
        if overhead - 2 * error <= 1:
            note += "; not resolved from 1"
    else:
        note = f"{len(ratios)} segment pair(s): not resolved"
    print(f"  trace.overhead_ratio {overhead:.4f} ({note})")
    print(f"  {spans} spans written to {path.relative_to(ROOT)}")
    return metrics, outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.tiny)
    runner = run_traced if args.trace else run_untraced
    metrics, outcome = runner(args, workload)

    print(f"{args.workload} fingerprint {json.dumps(outcome.fingerprint, sort_keys=True)}")
    for problem in outcome.problems:
        print(f"{args.workload} FAILED {problem}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
