"""Section 5.2's application: ordering scans over horizontally
segmented distributed databases.

"Imagine we have several physical files that each store the same types
of facts about people.  Given a query like ``age(russ, X)``, we would
like to scan these files in the appropriate order — hoping to find the
file dealing with russ facts as early as possible."

The mapping onto the paper's machinery is direct: one retrieval arc per
segment (scanning segment ``i`` costs ``c_i``, succeeds iff the queried
individual's facts live there), a flat one-level inference graph, and a
strategy = a scan order.  Because an individual's facts live in exactly
*one* segment, the segment-success events are **negatively correlated**
— precisely the non-independent situation PIB handles and ``Υ`` does
not; the benches show PIB converging to the optimal order anyway.
"""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Sequence, Tuple

from ..errors import DistributionError
from ..graphs.contexts import Context
from ..graphs.inference_graph import GraphBuilder, InferenceGraph
from ..resilience.faults import FaultPlan, FaultSpec, FlakyContext
from ..strategies.strategy import Strategy
from .distributions import ContextDistribution

__all__ = [
    "SegmentedTable",
    "segment_scan_graph",
    "SegmentAccessDistribution",
    "FlakySegmentedTable",
    "FlakySegmentAccessDistribution",
]


class SegmentedTable:
    """A horizontally segmented relation: named segments with scan costs
    and per-segment hit rates.

    ``hit_rates[i]`` is the probability that a random query's
    individual lives in segment ``i``; the remainder ``1 − Σ`` is the
    chance the individual is unknown (every scan fails).
    """

    def __init__(
        self,
        segments: Sequence[str],
        scan_costs: Mapping[str, float],
        hit_rates: Mapping[str, float],
    ):
        if not segments:
            raise DistributionError("need at least one segment")
        self.segments = list(segments)
        self.scan_costs = {name: float(scan_costs[name]) for name in segments}
        self.hit_rates = {name: float(hit_rates[name]) for name in segments}
        for name in segments:
            if self.scan_costs[name] <= 0:
                raise DistributionError(f"segment {name!r} needs positive cost")
            if not 0.0 <= self.hit_rates[name] <= 1.0:
                raise DistributionError(f"bad hit rate for segment {name!r}")
        total = sum(self.hit_rates.values())
        if total > 1.0 + 1e-9:
            raise DistributionError(f"hit rates sum to {total} > 1")
        self.miss_rate = max(0.0, 1.0 - total)

    def optimal_order(self) -> List[str]:
        """The provably optimal scan order.

        With exactly-one-home semantics the classic ratio rule applies
        segment-wise: scan by decreasing ``hit_rate / scan_cost``
        (Simon–Kadane; exchanging two adjacent segments changes the
        expected cost by the ratio difference).
        """
        return sorted(
            self.segments,
            key=lambda name: (
                -self.hit_rates[name] / self.scan_costs[name],
                name,
            ),
        )

    def expected_cost(self, order: Sequence[str]) -> float:
        """Exact expected scan cost of an order under this table."""
        if sorted(order) != sorted(self.segments):
            raise DistributionError("order must permute the segments")
        total = 0.0
        prefix_cost = 0.0
        for name in order:
            prefix_cost += self.scan_costs[name]
            total += self.hit_rates[name] * prefix_cost
        total += self.miss_rate * prefix_cost
        return total


def segment_scan_graph(table: SegmentedTable) -> InferenceGraph:
    """The one-level inference graph: one retrieval arc per segment."""
    builder = GraphBuilder("query")
    for name in table.segments:
        builder.retrieval(
            f"scan_{name}", "query", cost=table.scan_costs[name]
        )
    return builder.build()


class SegmentAccessDistribution(ContextDistribution):
    """Contexts for the scan graph: exactly one segment holds the answer
    (or none, with the miss rate) — a correlated distribution."""

    def __init__(self, graph: InferenceGraph, table: SegmentedTable):
        self.graph = graph
        self.table = table
        self._arc_names = [f"scan_{name}" for name in table.segments]
        expected = {arc.name for arc in graph.retrieval_arcs()}
        if set(self._arc_names) != expected:
            raise DistributionError(
                "graph does not match the table's segments"
            )

    def _context_for(self, home: Optional[str]) -> Context:
        statuses = {
            f"scan_{name}": name == home for name in self.table.segments
        }
        return Context(self.graph, statuses)

    def sample(self, rng: random.Random) -> Context:
        roll = rng.random()
        cumulative = 0.0
        for name in self.table.segments:
            cumulative += self.table.hit_rates[name]
            if roll < cumulative:
                return self._context_for(name)
        return self._context_for(None)

    def support(self) -> List[Tuple[float, Context]]:
        weighted = [
            (self.table.hit_rates[name], self._context_for(name))
            for name in self.table.segments
            if self.table.hit_rates[name] > 0.0
        ]
        if self.table.miss_rate > 0.0:
            weighted.append((self.table.miss_rate, self._context_for(None)))
        return weighted

    def strategy_for_order(self, order: Sequence[str]) -> Strategy:
        """The strategy scanning segments in ``order``."""
        return Strategy.from_retrieval_order(
            self.graph, [f"scan_{name}" for name in order]
        )


class FlakySegmentedTable(SegmentedTable):
    """A segmented table whose segments fail like real remote files.

    On top of :class:`SegmentedTable`'s costs and hit rates, each
    segment carries a *transient* per-attempt ``failure_rate`` (the
    scan RPC errors out and must be retried) and optionally a
    ``timeout_rate`` (the scan hangs until the deadline-style timeout
    fires, charged at the timeout multiplier).  Failures say nothing
    about where the individual's facts live — the underlying hit/miss
    truth is untouched — which is exactly why the resilient executor
    must keep them out of PIB's Δ̃ statistics.
    """

    def __init__(
        self,
        segments: Sequence[str],
        scan_costs: Mapping[str, float],
        hit_rates: Mapping[str, float],
        failure_rates: Mapping[str, float],
        timeout_rates: Optional[Mapping[str, float]] = None,
    ):
        super().__init__(segments, scan_costs, hit_rates)
        timeout_rates = timeout_rates or {}
        self.failure_rates = {
            name: float(failure_rates.get(name, 0.0)) for name in segments
        }
        self.timeout_rates = {
            name: float(timeout_rates.get(name, 0.0)) for name in segments
        }
        for name in segments:
            rate = self.failure_rates[name] + self.timeout_rates[name]
            if not 0.0 <= rate <= 1.0:
                raise DistributionError(
                    f"segment {name!r} failure+timeout rate {rate} not in [0, 1]"
                )

    def fault_plan(self, seed: int = 0) -> FaultPlan:
        """A seeded :class:`FaultPlan` over the scan arcs."""
        return FaultPlan(
            seed=seed,
            per_arc={
                f"scan_{name}": FaultSpec(
                    fault_rate=self.failure_rates[name],
                    timeout_rate=self.timeout_rates[name],
                )
                for name in self.segments
            },
        )


class FlakySegmentAccessDistribution(SegmentAccessDistribution):
    """Segment-access contexts wrapped in seeded fault injection.

    Sampling is *two* independent deterministic processes: the context
    draw (which segment holds the answer) uses the caller's RNG exactly
    as in :class:`SegmentAccessDistribution`, while the fault injection
    uses the plan's own per-arc streams.  Equal context seeds therefore
    yield the same context sequence with and without faults — the
    property the convergence-under-chaos tests rely on.
    """

    def __init__(
        self,
        graph: InferenceGraph,
        table: FlakySegmentedTable,
        fault_seed: int = 0,
    ):
        super().__init__(graph, table)
        self.plan = table.fault_plan(fault_seed)

    def sample(self, rng: random.Random) -> Context:
        return FlakyContext(super().sample(rng), self.plan)

