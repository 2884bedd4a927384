#!/usr/bin/env python3
"""Tracing a learning run under injected faults: observability demo.

A :class:`~repro.observability.Tracer` is attached to the whole stack
at once — the resilient executor, the circuit breakers, and PIB — and
a flaky segmented-scan workload is driven through it.  The demo then
shows the three things the observability layer promises:

1. **A complete event log.**  Per-query spans with per-arc attempts
   (and their ``ok``/``blocked``/``fault`` outcomes), retries with
   their backoff charges, breaker state transitions, and the learner's
   climb decisions with the Equation 6 evidence that fired them.
2. **Reconciled accounting.**  The trace's billed and settled cost
   totals match the ``ExecutionResult`` views (billed and settled) the
   caller saw, exactly — observability never invents or loses a cost unit.
3. **Zero feedback.**  Re-running the same seeded workload without the
   tracer produces the same climbs and the same final strategy: the
   monitor watches everything and influences nothing.

Run:  python examples/observability_demo.py
"""

import os
import random
import tempfile

from repro import ResiliencePolicy, RetryPolicy
from repro.learning import PIB
from repro.observability import NULL_RECORDER, Tracer, summarize_trace
from repro.strategies.execution import execute
from repro.workloads import (
    FlakySegmentAccessDistribution,
    FlakySegmentedTable,
    segment_scan_graph,
)


def build_workload():
    table = FlakySegmentedTable(
        segments=["na_east", "europe", "asia", "archive"],
        scan_costs={"na_east": 2.0, "europe": 3.0, "asia": 4.0,
                    "archive": 8.0},
        hit_rates={"na_east": 0.10, "europe": 0.45, "asia": 0.30,
                   "archive": 0.05},
        failure_rates={"na_east": 0.05, "europe": 0.10, "asia": 0.08,
                       "archive": 0.15},
        timeout_rates={"archive": 0.05},
    )
    graph = segment_scan_graph(table)
    stream = FlakySegmentAccessDistribution(graph, table, fault_seed=3)
    return table, graph, stream


def traced_run(recorder, contexts=3000):
    table, graph, stream = build_workload()
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=6, base_backoff=0.25),
        seed=3,
        recorder=recorder,
    )
    pib = PIB(graph, delta=0.05,
              initial_strategy=stream.strategy_for_order(table.segments),
              recorder=recorder)
    rng = random.Random(17)
    billed = settled = 0.0
    for _ in range(contexts):
        run = execute(pib.strategy, stream.sample(rng), recorder=recorder,
                      policy=policy)
        billed += run.cost
        settled += run.settled_cost
        pib.record(run.settled_result())
    order = [arc.name.replace("scan_", "")
             for arc in pib.strategy.retrieval_order()]
    return pib, order, billed, settled


def main() -> None:
    tracer = Tracer(margin_events=False)
    pib, order, billed, settled = traced_run(tracer)

    print("=== 1. the event log ===")
    for name, count in sorted(
        tracer.metrics.snapshot()["counters"].items()
    ):
        print(f"  {name:28s} {count}")
    for event in tracer.events_of("climb"):
        print(f"  climb #{event['step']} after context "
              f"{event['context_number']}: {event['transformation']} "
              f"(|S|={event['samples']}, "
              f"gain {event['estimated_gain']:.1f} >= "
              f"threshold {event['threshold']:.1f})")
    print(f"  learned order: {' > '.join(order)}")

    print("\n=== 2. reconciled accounting ===")
    path = os.path.join(tempfile.mkdtemp(prefix="repro_trace_"),
                        "demo.jsonl")
    lines = tracer.export_jsonl(path)
    summary = summarize_trace(tracer.events)
    print(f"  exported {lines} events to {path}")
    print(f"  trace billed  {summary['billed_cost']:.2f}  "
          f"vs executor {billed:.2f}  "
          f"(match: {abs(summary['billed_cost'] - billed) < 1e-9})")
    print(f"  trace settled {summary['settled_cost']:.2f}  "
          f"vs executor {settled:.2f}  "
          f"(match: {abs(summary['settled_cost'] - settled) < 1e-9})")
    print(f"  retries {summary['retries']}, "
          f"breaker opens {summary['breaker_opens']}")

    print("\n=== 3. zero feedback ===")
    plain, plain_order, plain_billed, _ = traced_run(NULL_RECORDER)
    print(f"  untraced rerun: same climbs "
          f"({plain.climbs} == {pib.climbs}: "
          f"{plain.history == pib.history}), "
          f"same order ({plain_order == order}), "
          f"same billed cost "
          f"({abs(plain_billed - billed) < 1e-9})")


if __name__ == "__main__":
    main()
