"""Timings corrected for the speed of a shared host.

The benchmark was written on a 2-vCPU VM whose speed for one thread switches
between two levels about 1.5 to 2 times apart, every few tens of
milliseconds, and the share of time spent at each level drifts over minutes.
A plain wall-clock figure then mostly shows that share: over ten runs the
spread (q3 - q1 over the median) of throughput reached 28 % and that of a
median latency 43 %.

`SpeedClock` measures the host's speed while the timed work runs: a
`SIGALRM` timer interrupts the work every `PERIOD` seconds, and the handler
runs `reference()`, a fixed piece of pure-Python work the program never
touches, twice and times the second, warm run. A section of work that took
`t` seconds of wall time, with reference samples `r_1..r_n` taken during it,
is reported as

    corrected seconds = t * mean(REFERENCE_S / r_i)

that is, the time the work would have taken on a host that runs the
reference in `REFERENCE_S` seconds all along (this VM at its faster level).
The handler's own time is taken out of `t`. The same work then reads the
same whichever level the host was at, as far as the program and the
reference slow down alike.
"""

from __future__ import annotations

import copy
import hashlib
import json
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

PERIOD = 0.01
# time of one reference() on the VM above at its faster level (Python 3.11)
REFERENCE_S = 70e-6

_NESTED = {
    "tokens": [
        {"id": i, "holder": f"agent_{i}", "state": "HELD", "meta": {"span": [i, i + 1], "tag": str(i)}}
        for i in range(3)
    ],
    "roles": {f"role_{i}": [f"agent_{j}" for j in range(4)] for i in range(3)},
}


def reference() -> int:
    """Fixed work of the kinds the program does, in roughly equal parts.

    An interpreted loop, building and sorting small records, a deep copy of
    nested containers, and canonical JSON with SHA-256. A host that slows
    one of these more than another then moves the reference about as much as
    it moves the program.
    """
    total = 0
    for i in range(150):
        total += i * i % 7
    rows = [(f"agent_{i % 17}", i * 7 % 13, {"k": i}) for i in range(20)]
    rows.sort(key=lambda row: (row[1], row[0]))
    index: dict[str, list[int]] = {}
    for name, rank, extra in rows:
        index.setdefault(name, []).append(rank + extra["k"])
    total += len(",".join(f"{name}:{sum(ranks)}" for name, ranks in sorted(index.items())))
    total += len(copy.deepcopy(_NESTED)["tokens"])
    record = {"seq": 0, "kind": "action_request", "actor": "bot_17", "prev": ""}
    for seq in range(2):
        record["seq"] = seq
        record["detail"] = {f"k{i}": [i, str(i)] for i in range(6)}
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        record["prev"] = hashlib.sha256(text.encode()).hexdigest()
    return total + len(record["prev"])


@dataclass
class Section:
    raw_s: float = 0.0  # wall time, without the handler's own time
    norm_s: float = 0.0  # raw_s corrected for the host's speed


class SpeedClock:
    """Wall-clock timing with the host's speed sampled on a timer signal.

    Use it as a context manager around everything it times; it owns the
    `SIGALRM` handler while it is open. `spent` is the handler time so far,
    so that a caller timing a single op can subtract the handler's share.
    Untraced and traced runs both use it; in a traced run the handler's time
    also falls inside whatever spans are open when it fires.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_signal) -> None:
        # the first run brings the reference's code and data back into the
        # caches the program evicted; only the second, warm run is timed
        began = time.perf_counter()
        reference()
        warm = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - warm)
        self.spent += time.perf_counter() - began

    def __enter__(self) -> SpeedClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, raw_s: float, first: int) -> float:
        """`raw_s` seconds of work during which samples `first`.. were taken."""
        if first == len(self.samples):
            # a stretch shorter than the period: take a sample next to it
            self._sample()
        return raw_s * statistics.fmean(REFERENCE_S / r for r in self.samples[first:])

    @contextmanager
    def section(self):
        section = Section()
        first = len(self.samples)
        spent = self.spent
        began = time.perf_counter()
        try:
            yield section
        finally:
            section.raw_s = time.perf_counter() - began - (self.spent - spent)
            section.norm_s = self.corrected(section.raw_s, first)
