"""Span tracing from outside the package.

`Tracer.install()` replaces each wrapped public function at every module or
class attribute of `covenant` that holds it, so calls made through the
package's own references are seen too. Each call becomes one span (name,
start, end, parent span, op id), kept in memory in flat arrays and written
out when the run ends. A layer's self time is the duration of its spans
minus the time their child spans cover.

Nothing in this system waits: it runs single-threaded in one process and the
instance lock is never contended, so no wait time is recorded.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

from covenant import deontic, reference, runtime, scenarios, spec_lang, verifier
from covenant.runtime import CommunityInstance
from covenant.spec_lang import validate

# layer -> the (owner, attribute) pairs whose calls it counts
LAYERS = {
    "spec_lang.parse_spec": ((spec_lang.parser, "parse_spec"),),
    "spec_lang.validate_template": ((validate, "validate_template"),),
    "deontic.check_action_admissible": ((deontic, "check_action_admissible"),),
    "deontic.expire_due": ((deontic, "expire_due"),),
    "deontic.create_token": ((deontic, "create_token"),),
    "deontic.token_ops": (
        (deontic, "discharge_burden"),
        (deontic, "revoke_token"),
        (deontic, "delegate_burden"),
    ),
    "runtime.submit_action": ((CommunityInstance, "submit_action"),),
    "runtime.apply_speech_act": ((CommunityInstance, "apply_speech_act"),),
    "runtime.bindings": (
        (CommunityInstance, "bind_agent"),
        (CommunityInstance, "force_bind"),
        (CommunityInstance, "unbind_agent"),
        (CommunityInstance, "register_principal"),
    ),
    "runtime.record_digest": ((runtime, "record_digest"),),
    "runtime.parse_export": ((runtime, "parse_export"),),
    "runtime.verify_chain": ((runtime, "verify_chain"),),
    "runtime.replay": ((runtime, "replay"),),
    "runtime.export_log": ((CommunityInstance, "export_log"),),
    "runtime.clone": ((CommunityInstance, "clone"),),
    "verifier.clone": ((verifier.TraceMonitor, "clone"),),
    "verifier.feed": ((verifier.TraceMonitor, "feed"),),
    "verifier.apply_schema": ((verifier, "apply_schema"),),
    "reference.clone": ((reference.ReferenceEngine, "clone"),),
    "reference.apply_schema": ((reference.ReferenceEngine, "apply_schema"),),
    "scenarios.run_scenario": ((scenarios, "run_scenario"),),
    "scenarios.build": ((scenarios, "built_in_scenarios"), (scenarios, "inject_violation")),
}

# Ratios of useful outcomes to calls, measured where the work happens:
# (layer, metric suffix, predicate over the call's result).
RATIOS = (
    ("deontic.check_action_admissible", "admit_ratio", lambda verdict: verdict.admissible),
    ("deontic.expire_due", "hit_ratio", lambda expired: bool(expired)),
    ("runtime.apply_speech_act", "rejected_ratio", lambda result: not result.accepted),
)


class NullOps:
    """Op marker for untraced runs."""

    def begin(self) -> None:
        pass

    def end(self) -> None:
        pass


class Tracer:
    """Records one span per call of a wrapped function; also the op marker.

    The wrappers stay installed for the whole run, set-up included, because
    the program keeps references to some wrapped functions (a monitor
    attached at set-up holds its `feed`). Spans made during set-up carry op
    id 0 and those of the output checks op id -1; neither counts in
    `layer_stats`. During the timed work the tracer records in turn
    `segment_ops` ops and leaves the next `segment_ops` unrecorded, in the
    order recorded, unrecorded, unrecorded, recorded, ... Each pair of
    neighbouring segments gives one traced/untraced ratio of their times,
    corrected for host speed by `clock` (a `hostspeed.SpeedClock`), so the
    overhead is measured on the same kind of work at the same moment of the
    host; an unrecorded call still goes through its wrapper, which adds one
    function call to it.
    """

    def __init__(self, segment_ops: int, clock) -> None:
        self.names = list(LAYERS)
        self.name_of = array("q")
        self.start = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.recording = True
        self.current_op = 0
        self.segment_ops = segment_ops
        # (recorded, wall seconds, seconds corrected for host speed)
        self.segments: list[tuple[bool, float, float]] = []
        self.clock = clock
        self._segment_mark = (0.0, 0.0, 0)  # clock, handler time, samples at its start
        self.hits = [0] * len(self.names)  # timed calls whose result the ratio counts
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self) -> None:
        if self.current_op % self.segment_ops == 0:
            self._close_segment()
            self.recording = len(self.segments) % 4 in (0, 3)
        self.current_op += 1

    def end(self) -> None:
        """The timed work is over; record the output checks under op id -1."""
        self._close_segment()
        self.recording = True
        self.current_op = -1

    def _close_segment(self) -> None:
        clock = self.clock
        now, spent, first = time.perf_counter(), clock.spent, len(clock.samples)
        if self.current_op > 0:
            began, spent_before, first_before = self._segment_mark
            raw = now - began - (spent - spent_before)
            self.segments.append((self.recording, raw, clock.corrected(raw, first_before)))
        self._segment_mark = (now, spent, first)

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def _wrap(self, index: int, fn, predicate):
        clock = time.perf_counter_ns
        stack = self._stack
        name_of, start, end, parent, op = self.name_of, self.start, self.end_ns, self.parent, self.op
        hits = self.hits

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = len(name_of)
            current = self.current_op
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            op.append(current)
            start.append(0)
            end.append(0)
            stack.append(span)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                start[span] = began
                stack.pop()
            if predicate is not None and current > 0 and predicate(result):
                hits[index] += 1
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        predicates = {layer: predicate for layer, _suffix, predicate in RATIOS}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "covenant"]
        for index, (layer, targets) in enumerate(LAYERS.items()):
            for owner, attribute in targets:
                original = getattr(owner, attribute)
                traced = self._wrap(index, original, predicates.get(layer))
                holders = [owner] + [
                    m for m in modules if m is not owner and getattr(m, attribute, None) is original
                ]
                for holder in holders:
                    self._saved.append((holder, attribute, original))
                    setattr(holder, attribute, traced)

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._saved):
            setattr(holder, attribute, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    # results

    def layer_stats(self) -> dict[str, dict]:
        """Calls and self time (seconds) per layer, over the timed ops only."""
        count = len(self.name_of)
        child = [0] * count
        parent, start, end, op = self.parent, self.start, self.end_ns, self.op
        for span in range(count):
            up = parent[span]
            if up >= 0:
                child[up] += end[span] - start[span]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for span in range(count):
            if op[span] > 0:
                index = self.name_of[span]
                calls[index] += 1
                self_ns[index] += end[span] - start[span] - child[span]
        return {
            name: {"calls": calls[i], "self_s": self_ns[i] / 1e9, "hits": self.hits[i]}
            for i, name in enumerate(self.names)
        }

    def recorded_s(self) -> float:
        """Wall time of the recorded segments of the timed work."""
        return sum(raw for recorded, raw, _norm in self.segments if recorded)

    def overhead_ratios(self) -> list[float]:
        """Recorded over unrecorded time, corrected for host speed, per pair of segments."""
        pairs = zip(self.segments[0::2], self.segments[1::2])
        return [
            (a if ra else b) / (b if ra else a) for (ra, _, a), (_rb, _, b) in pairs
        ]

    def write(self, path) -> int:
        """Write every span as one JSON line (gzip); returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "fields": ["span", "name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            names = self.names
            for span in range(len(self.name_of)):
                out.write(
                    f'[{span},"{names[self.name_of[span]]}",{self.start[span]},'
                    f"{self.end_ns[span]},{self.parent[span]},{self.op[span]}]\n"
                )
        return len(self.name_of)
