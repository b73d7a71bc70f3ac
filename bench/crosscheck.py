"""Runtime-side depth-first search for the monitor-versus-oracle cross-check.

Written against the public API only: instantiate the fixture, then for every
event sequence up to `depth` fork the instance and its monitor
(`CommunityInstance.clone`, `TraceMonitor.clone`), apply one schema
(`verifier.apply_schema`) and feed the new audit records to the fork's
monitor. Each violation is mapped from its audit seq back to the position of
the event that produced it, which is how `oracle_enumerate` keys its own.
"""

from __future__ import annotations

import bisect
import time

from covenant import runtime, verifier


def base_state(fixture):
    """The fixture after its prologue, with a monitor that has seen it all."""
    tpl = fixture.template
    instance = runtime.instantiate_community(
        tpl, mode=runtime.MODE_AUTONOMOUS, owner=runtime.Principal(fixture.owner, fixture.owner)
    )
    for schema in fixture.prologue:
        verifier.apply_schema(instance, schema)
    monitor = verifier.TraceMonitor(fixture.properties, tpl)
    for record in instance.records():
        monitor.feed(record)
    return tpl, instance, monitor


class RuntimeSearch:
    """One pass of the search; `latencies` holds the time of each forked step."""

    def __init__(self, fixture, depth: int, ops, clock):
        self.fixture = fixture
        self.depth = depth
        self.ops = ops
        self.clock = clock  # its `spent` is taken out of each step's time
        self.results: dict[tuple[int, ...], tuple[tuple[str, int], ...]] = {}
        self.latencies: list[float] = []
        self.records = 0
        self.events = 0

    def run(self, instance, monitor) -> dict:
        fed = len(instance.records())
        # cut starts: seq of the first record each trace position produced;
        # violations the prologue already raised sit at position -1
        prologue = [(v.property, -1) for v in monitor.violations]
        self._walk(instance, monitor, fed, [fed], [], prologue)
        return self.results

    def _walk(self, instance, monitor, fed, starts, trace, found) -> None:
        self.results[tuple(trace)] = tuple(sorted(found))
        if len(trace) == self.depth:
            return
        now = time.perf_counter
        position = len(trace)
        for index, schema in enumerate(self.fixture.alphabet):
            self.ops.begin()
            spent = self.clock.spent
            began = now()
            child = instance.clone()
            twin = monitor.clone()
            verifier.apply_schema(child, schema)
            records = child.records()
            new: list = []
            for record in records[fed:]:
                new.extend(twin.feed(record))
            self.latencies.append(now() - began - (self.clock.spent - spent))
            self.records += len(records) - fed
            self.events += child.event_count - instance.event_count
            child_starts = starts + [len(records)]
            mapped = list(found)
            for v in new:
                # the violation's record lies in [starts[k], starts[k+1]) for position k
                k = bisect.bisect_right(child_starts, v.at_seq) - 1
                mapped.append((v.property, k if 0 <= k <= position else -1))
            trace.append(index)
            self._walk(child, twin, len(records), child_starts, trace, mapped)
            trace.pop()
