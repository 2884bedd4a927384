"""Acceptance tests for the distributed-scan workload under chaos.

The two headline criteria from the resilience issue:

1. with a seeded :class:`FaultPlan` of transient faults active, PIB
   converges to the *same* optimal scan order as the fault-free run;
2. a kill/restart mid-run (checkpoint → reload) leaves ``total_tests``,
   the Δ̃ accumulator sums, and the current strategy byte-identical to
   the pre-kill state.
"""

import json
import random


from repro.learning.pib import PIB
from repro.persistence import load_pib, pib_to_dict, save_pib
from repro.resilience import ResiliencePolicy, RetryPolicy
from repro.strategies.execution import execute
from repro.workloads import (
    FlakySegmentAccessDistribution,
    FlakySegmentedTable,
    SegmentAccessDistribution,
    segment_scan_graph,
)

SEGMENTS = ["na_east", "na_west", "europe", "asia", "archive"]
SCAN_COSTS = {"na_east": 2.0, "na_west": 2.0, "europe": 3.0,
              "asia": 4.0, "archive": 8.0}
HIT_RATES = {"na_east": 0.10, "na_west": 0.05, "europe": 0.45,
             "asia": 0.30, "archive": 0.05}
FAILURE_RATES = {"na_east": 0.05, "na_west": 0.02, "europe": 0.12,
                 "asia": 0.08, "archive": 0.15}
TIMEOUT_RATES = {"archive": 0.05}


def flaky_table():
    return FlakySegmentedTable(
        segments=SEGMENTS,
        scan_costs=SCAN_COSTS,
        hit_rates=HIT_RATES,
        failure_rates=FAILURE_RATES,
        timeout_rates=TIMEOUT_RATES,
    )


def learned_order(pib):
    return [a.name.replace("scan_", "")
            for a in pib.strategy.retrieval_order()]


def train(stream, graph, contexts, context_seed, policy=None):
    declared = stream.strategy_for_order(SEGMENTS)
    pib = PIB(graph, delta=0.05, initial_strategy=declared)
    rng = random.Random(context_seed)
    billed = settled = 0.0
    if policy is None:
        for _ in range(contexts):
            pib.process(stream.sample(rng))
    else:
        for _ in range(contexts):
            run = execute(pib.strategy, stream.sample(rng), policy=policy)
            billed += run.cost
            settled += run.settled_cost
            pib.record(run.settled_result())
    return pib, billed, settled


class TestConvergenceUnderChaos:
    def test_same_order_as_fault_free_run(self):
        """Acceptance: chaos changes the bill, never the destination."""
        table = flaky_table()
        graph = segment_scan_graph(table)
        contexts = 6000

        clean_stream = SegmentAccessDistribution(graph, table)
        clean, _, _ = train(clean_stream, graph, contexts, context_seed=7)

        chaos_stream = FlakySegmentAccessDistribution(
            graph, table, fault_seed=3
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=6, base_backoff=0.25), seed=3
        )
        chaotic, billed, settled = train(
            chaos_stream, graph, contexts, context_seed=7, policy=policy
        )

        assert chaos_stream.plan.summary()["faults"] > 0  # chaos was real
        assert learned_order(chaotic) == learned_order(clean)
        assert learned_order(chaotic) == table.optimal_order()
        # retries and backoff only ever add cost
        assert billed >= settled
        assert policy.total_retries > 0

    def test_fault_draws_do_not_perturb_context_stream(self):
        """Equal context seeds give identical context sequences with and
        without the fault layer — the independence the test above needs."""
        table = flaky_table()
        graph = segment_scan_graph(table)
        clean = SegmentAccessDistribution(graph, table)
        chaos = FlakySegmentAccessDistribution(graph, table, fault_seed=3)
        rng_a, rng_b = random.Random(11), random.Random(11)
        for _ in range(200):
            assert clean.sample(rng_a).statuses() == \
                chaos.sample(rng_b).statuses()


class TestKillRestartMidRun:
    def test_checkpoint_reload_is_byte_identical(self, tmp_path):
        """Acceptance: kill/restart mid-run loses nothing."""
        table = flaky_table()
        graph = segment_scan_graph(table)
        stream = FlakySegmentAccessDistribution(graph, table, fault_seed=3)
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=6, base_backoff=0.25), seed=3
        )
        pib = PIB(graph, delta=0.05,
                  initial_strategy=stream.strategy_for_order(SEGMENTS))
        rng = random.Random(7)
        for _ in range(1500):
            run = execute(pib.strategy, stream.sample(rng), policy=policy)
            pib.record(run.settled_result())

        path = str(tmp_path / "mid_run.json")
        save_pib(pib, path)
        pre_kill = json.dumps(pib_to_dict(pib), sort_keys=True)

        restored = load_pib(graph, path)  # the restarted process
        assert json.dumps(pib_to_dict(restored), sort_keys=True) == pre_kill
        assert restored.total_tests == pib.total_tests
        assert restored.strategy.arc_names() == pib.strategy.arc_names()

        # both survivors finish the run identically
        tail_contexts = [stream.sample(random.Random(13)).statuses()
                         for _ in range(500)]
        from repro.graphs.contexts import Context
        for statuses in tail_contexts:
            pib.process(Context(graph, statuses))
            restored.process(Context(graph, statuses))
        assert (json.dumps(pib_to_dict(restored), sort_keys=True)
                == json.dumps(pib_to_dict(pib), sort_keys=True))

    def test_billed_cost_dominates_fault_free(self):
        """Acceptance: a policy run's total cost on a faulty run is
        >= the fault-free cost of the same context sequence."""
        table = flaky_table()
        graph = segment_scan_graph(table)
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=6, base_backoff=0.25), seed=3
        )
        chaos = FlakySegmentAccessDistribution(graph, table, fault_seed=3)
        clean = SegmentAccessDistribution(graph, table)
        strategy = clean.strategy_for_order(SEGMENTS)

        rng_a, rng_b = random.Random(21), random.Random(21)
        billed = fault_free = 0.0
        for _ in range(800):
            billed += execute(
                strategy, chaos.sample(rng_a), policy=policy
            ).cost
            fault_free += execute(strategy, clean.sample(rng_b)).cost
        assert billed >= fault_free
