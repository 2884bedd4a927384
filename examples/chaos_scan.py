#!/usr/bin/env python3
"""Section 5.2's distributed scan with a fault plan active: chaos demo.

Two acts:

1. **Raw PIB under chaos.**  The five regional segments flake (the
   archive also times out), execution runs through
   ``execute(..., policy=...)`` — retries with jittered backoff,
   per-arc circuit breakers — and the learner is killed and restored from an
   atomic checkpoint at the halfway point.  PIB still converges to the
   provably optimal ratio order, because only *settled* outcomes reach
   its Δ̃ statistics, and the crash loses nothing.

2. **The self-optimizing processor degrading gracefully.**  A Datalog
   knowledge base is served from a ``FlakyDatabase`` under a tight
   per-query cost deadline; the processor answers every query anyway
   (falling back to SLD on incidents) and its ``report()`` shows the
   incidents, the resilience counters, and the checkpoint activity.

Run:  python examples/chaos_scan.py
"""

import os
import random
import tempfile

from repro import ResiliencePolicy, RetryPolicy, SessionConfig
from repro.datalog.database import Database
from repro.datalog.parser import parse_query
from repro.learning import PIB
from repro.persistence import load_pib, save_pib
from repro.resilience import FaultPlan, FaultSpec, FlakyDatabase
from repro.strategies.execution import execute
from repro.system import SelfOptimizingQueryProcessor
from repro.workloads import (
    FlakySegmentAccessDistribution,
    FlakySegmentedTable,
    segment_scan_graph,
    university_rule_base,
)


def chaotic_scan_ordering() -> None:
    table = FlakySegmentedTable(
        segments=["na_east", "na_west", "europe", "asia", "archive"],
        scan_costs={"na_east": 2.0, "na_west": 2.0, "europe": 3.0,
                    "asia": 4.0, "archive": 8.0},
        hit_rates={"na_east": 0.10, "na_west": 0.05, "europe": 0.45,
                   "asia": 0.30, "archive": 0.05},
        failure_rates={"na_east": 0.05, "na_west": 0.02, "europe": 0.10,
                       "asia": 0.08, "archive": 0.15},
        timeout_rates={"archive": 0.05},
    )
    graph = segment_scan_graph(table)
    stream = FlakySegmentAccessDistribution(graph, table, fault_seed=3)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=6, base_backoff=0.25), seed=3
    )

    declared = list(table.segments)
    pib = PIB(graph, delta=0.05,
              initial_strategy=stream.strategy_for_order(declared))
    rng = random.Random(7)
    billed = 0.0

    def drive(learner: PIB, budget: int) -> float:
        spent = 0.0
        for _ in range(budget):
            run = execute(learner.strategy, stream.sample(rng),
                          policy=policy)
            spent += run.cost
            learner.record(run.settled_result())
        return spent

    billed += drive(pib, 3000)
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        checkpoint = handle.name
    save_pib(pib, checkpoint)
    print(f"-- simulated crash after 3000 contexts; restoring {checkpoint}")
    pib = load_pib(graph, checkpoint)  # the "restarted process"
    os.unlink(checkpoint)
    billed += drive(pib, 3000)

    learned = [a.name.replace("scan_", "")
               for a in pib.strategy.retrieval_order()]
    optimal = table.optimal_order()
    print(f"injected: {stream.plan.summary()}  "
          f"retries charged: {policy.total_retries}")
    print(f"learned order: {' > '.join(learned)}  "
          f"E[cost] = {table.expected_cost(learned):.3f}")
    print(f"optimal order: {' > '.join(optimal)}  "
          f"E[cost] = {table.expected_cost(optimal):.3f}")
    print(f"billed cost (incl. retries + backoff): {billed:.0f}  "
          f"converged: {learned == optimal}")


FACTS = """
prof(manolis).
grad(russ).
grad(lena).
"""


def degraded_processor() -> None:
    rules = university_rule_base()  # Figure 1's instructor(X) rules
    plan = FaultPlan(seed=5, per_arc={
        "prof": FaultSpec(fault_rate=0.3),
        "grad": FaultSpec(fault_rate=0.2, fail_first=2),
    })
    database = FlakyDatabase(Database.from_program(FACTS), plan)
    processor = SelfOptimizingQueryProcessor(
        rules,
        config=SessionConfig(resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, base_backoff=0.1),
            deadline=6.0,
            seed=5,
        )),
    )
    people = ["manolis", "russ", "lena", "ghost"]
    rng = random.Random(1)
    answered = degraded = 0
    for _ in range(120):
        who = rng.choice(people)
        answer = processor.query(parse_query(f"instructor({who})"), database)
        answered += 1
        degraded += answer.degraded
    print(f"\n-- processor answered {answered}/{answered} queries "
          f"({degraded} degraded to the SLD fallback, none raised)")
    for form, info in processor.report().items():
        print(f"report[{form}]:")
        for key, value in info.items():
            if key == "incidents":
                print(f"  incidents: {len(value)} "
                      f"(first: {value[0]!r})")
            else:
                print(f"  {key}: {value}")


def main() -> None:
    print("== act 1: PIB learns the scan order through chaos ==")
    chaotic_scan_ordering()
    print("\n== act 2: the processor degrades gracefully ==")
    degraded_processor()


if __name__ == "__main__":
    main()
