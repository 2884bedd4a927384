"""Per-layer wall-clock spans, recorded from the benchmark's own files.

The traced run wraps the entry points of each layer — the module
attribute a caller looks up (``repro.system.execute``), the class method
every instance shares (``PIB.record``, ``TopDownEngine.prove``), or the
method on the one object a session owns (the store's probes, the
server's ``run_requests``, the cache tiers) — and nothing inside the
program changes.

Spans nest: each one records its parent, and a layer's *self* time is
its span's duration minus the durations of its direct children.  Spans
live in flat in-memory arrays while the run is going and are folded
into per-layer totals only when it ends, so the hot path pays one
clock read and four appends per boundary.  Counters (calls, arcs,
probe successes, ...) are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

import repro.datalog.parser
import repro.system
from repro.datalog.engine import TopDownEngine
from repro.graphs.inference_graph import ArcKind
from repro.learning.pib import PIB

__all__ = ["SPANS", "SpanLog", "instrument_module_layers", "instrument_session"]

#: Every span name the traced run records, in layer order.
SPANS = (
    "serving.run_requests",
    "serving.answer_cache",
    "serving.subgoal_memo",
    "system.query",
    "strategies.execute",
    "learning.record",
    "graphs.build",
    "datalog.parse",
    "datalog.engine.prove",
    "storage.probe",
    "storage.write",
)

_END = object()


class SpanLog:
    """Nested spans in flat arrays, plus boundary counters."""

    def __init__(self) -> None:
        self._ids = {name: index for index, name in enumerate(SPANS)}
        self._name = array("b")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self._name)

    def begin(self, name: str) -> int:
        index = len(self._name)
        self._name.append(self._ids[name])
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is ``name``."""
        return bool(self._stack) and self._name[self._stack[-1]] == self._ids[name]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed duration (``s``) and self time (``self_s``)."""
        children = [0.0] * len(self._name)
        for index, parent in enumerate(self._parent):
            if parent >= 0:
                children[parent] += self._end[index] - self._start[index]
        result = {name: {"s": 0.0, "self_s": 0.0} for name in SPANS}
        for index, name_id in enumerate(self._name):
            duration = self._end[index] - self._start[index]
            entry = result[SPANS[name_id]]
            entry["s"] += duration
            entry["self_s"] += duration - children[index]
        return result

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def wrap(self, name: str, function: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``function`` inside a span; ``after(result, *args)`` then
        updates counters outside the timed interval."""
        begin, end, counts = self.begin, self.end, self.counts
        calls = name + ".calls"

        def traced(*args, **kwargs):
            counts[calls] += 1
            index = begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                end(index)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def wrap_probe_iterator(self, function: Callable) -> Callable:
        """A store enumeration (``retrieve``/``facts_matching``) as one
        probe whose every ``next`` is a span segment: the caller's work
        between two items is never billed to the store.  An enumeration
        started inside another probe (``succeeds`` → ``retrieve``) is
        part of that probe and is not counted again."""
        begin, end, counts, inside = (self.begin, self.end, self.counts,
                                      self.inside)

        def segments(iterator: Iterator) -> Iterator:
            counts["storage.probe.calls"] += 1
            first = True
            while True:
                index = begin("storage.probe")
                try:
                    item = next(iterator, _END)
                finally:
                    end(index)
                if item is _END:
                    return
                if first:
                    counts["storage.probe.successes"] += 1
                    first = False
                yield item

        def traced(pattern):
            if inside("storage.probe"):
                return function(pattern)
            return segments(function(pattern))

        return traced


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


@contextlib.contextmanager
def instrument_module_layers(log: SpanLog):
    """Wrap the module- and class-level entry points for the duration
    of the block, restoring the originals afterwards."""
    counts = log.counts

    def after_execute(result, *_args) -> None:
        counts["strategies.execute.arcs"] += len(result.attempted)
        counts["strategies.execute.retrievals"] += sum(
            1 for arc in result.attempted if arc.kind is ArcKind.RETRIEVAL
        )

    def after_prove(answer, *_args) -> None:
        counts["datalog.engine.prove.reductions"] += answer.trace.reductions
        counts["datalog.engine.prove.retrievals"] += len(answer.trace.retrievals)

    record = PIB.record

    def traced_record(learner, result):
        tests, climbs = learner.total_tests, learner.climbs
        index = log.begin("learning.record")
        try:
            record(learner, result)
        finally:
            log.end(index)
        counts["learning.record.calls"] += 1
        counts["learning.eq6_tests"] += learner.total_tests - tests
        counts["learning.climbs"] += learner.climbs - climbs

    patches = (
        (repro.system, "execute",
         log.wrap("strategies.execute", repro.system.execute, after_execute)),
        (repro.system, "build_inference_graph",
         log.wrap("graphs.build", repro.system.build_inference_graph)),
        (repro.datalog.parser, "parse_program",
         log.wrap("datalog.parse", repro.datalog.parser.parse_program)),
        (TopDownEngine, "prove",
         log.wrap("datalog.engine.prove", TopDownEngine.prove, after_prove)),
        (PIB, "record", traced_record),
    )
    originals = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield log
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def instrument_session(log: SpanLog, session) -> None:
    """Wrap the per-session objects: server, processor, cache tiers and
    the store.  The session is discarded after its episode, so these
    instance attributes are never restored."""
    server, database = session.server, session.database
    counts = log.counts
    server.run_requests = log.wrap("serving.run_requests", server.run_requests)
    session.processor.query = log.wrap("system.query", session.processor.query)
    for tier, name in ((server.answer_cache, "serving.answer_cache"),
                       (server.subgoal_memo, "serving.subgoal_memo")):
        if tier is not None:
            tier.lookup = log.wrap(name, tier.lookup)
            tier.store = log.wrap(name, tier.store)

    def after_succeeds(found, *_args) -> None:
        counts["storage.probe.successes"] += bool(found)

    database.succeeds = log.wrap("storage.probe", database.succeeds,
                                 after_succeeds)
    database.retrieve = log.wrap_probe_iterator(database.retrieve)
    database.facts_matching = log.wrap_probe_iterator(database.facts_matching)
    database.add = log.wrap("storage.write", database.add)
    database.remove = log.wrap("storage.write", database.remove)
