"""Chaos-run tracing: the acceptance scenario for the observability
layer.  A flaky workload is driven through the resilient executor with
a tracer attached; the exported trace must contain attempt, retry,
breaker-transition, and climb events, and its billed/settled totals
must reconcile exactly with the billed and settled
:class:`ExecutionResult` views the caller saw."""

import random

import pytest

from repro.bench import experiment_distributed_faulty
from repro.graphs.contexts import Context
from repro.graphs.inference_graph import GraphBuilder
from repro.learning.pib import PIB
from repro.observability import Tracer, read_trace, summarize_trace
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    FlakyContext,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.strategies.execution import execute
from repro.strategies.strategy import Strategy
from repro.workloads.distributed import (
    FlakySegmentAccessDistribution,
    FlakySegmentedTable,
    segment_scan_graph,
)


def scan_graph():
    builder = GraphBuilder("q")
    builder.retrieval("a", "q", cost=2.0)
    builder.retrieval("b", "q", cost=3.0)
    builder.retrieval("c", "q", cost=5.0)
    return builder.build()


class TestChaosTraceContents:
    def drive(self, tracer, queries=60):
        """A flaky two-good-one-dead-segment workload under low breaker
        thresholds, returning the per-query results the caller saw."""
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        plan = FaultPlan(
            seed=5,
            per_arc={
                "a": FaultSpec(fault_rate=0.3),
                "b": FaultSpec(fault_rate=1.0),  # down hard
            },
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, base_backoff=0.25),
            failure_threshold=2,
            cooldown=4,
            seed=5,
            recorder=tracer,
        )
        rng = random.Random(9)
        results = []
        for _ in range(queries):
            statuses = {"a": rng.random() < 0.5, "b": True,
                        "c": rng.random() < 0.7}
            context = FlakyContext(Context(graph, statuses), plan)
            results.append(
                execute(strategy, context, policy=policy,
                        recorder=tracer)
            )
        return results

    def test_expected_event_types_appear(self):
        tracer = Tracer()
        self.drive(tracer)
        for expected in ("query_begin", "query_end", "attempt", "retry",
                         "unsettled", "breaker", "breaker_shed"):
            assert tracer.events_of(expected), f"no {expected} events"
        outcomes = {e["outcome"] for e in tracer.events_of("attempt")}
        assert "fault" in outcomes
        assert "ok" in outcomes
        opens = [e for e in tracer.events_of("breaker") if e["to"] == "open"]
        assert opens and opens[0]["arc"] == "b"
        assert all(e["arc"] == "b" for e in tracer.events_of("breaker_shed"))

    def test_trace_totals_match_result_views(self):
        tracer = Tracer()
        results = self.drive(tracer)
        summary = summarize_trace(tracer.events)
        assert summary["queries"] == len(results)
        assert summary["billed_cost"] == pytest.approx(
            sum(r.cost for r in results)
        )
        assert summary["settled_cost"] == pytest.approx(
            sum(r.settled_cost for r in results)
        )
        assert summary["retries"] == sum(r.total_retries for r in results)
        assert summary["backoff_cost"] == pytest.approx(
            sum(r.backoff_cost for r in results)
        )

    def test_metrics_agree_with_policy_counters(self):
        tracer = Tracer()
        self.drive(tracer)
        # The policy's lifetime counters and the trace metrics observe
        # the same underlying events through independent channels.
        assert tracer.metrics.count("retries_total") > 0

    def test_export_roundtrip(self, tmp_path):
        tracer = Tracer()
        self.drive(tracer, queries=10)
        path = str(tmp_path / "chaos.jsonl")
        tracer.export_jsonl(path)
        assert read_trace(path) == tracer.events


class TestChaosLearningTrace:
    def test_climbs_appear_under_faults(self):
        """PIB behind the resilient executor still emits climb events,
        and its learner_sample stream sees only settled costs."""
        table = FlakySegmentedTable(
            segments=["fast", "slow"],
            scan_costs={"fast": 2.0, "slow": 4.0},
            hit_rates={"fast": 0.1, "slow": 0.7},
            failure_rates={"fast": 0.1, "slow": 0.05},
        )
        graph = segment_scan_graph(table)
        flaky = FlakySegmentAccessDistribution(graph, table, fault_seed=3)
        tracer = Tracer(margin_events=False)
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=5, base_backoff=0.25),
            seed=3,
            recorder=tracer,
        )
        pib = PIB(graph, delta=0.05,
                  initial_strategy=flaky.strategy_for_order(
                      ["fast", "slow"]),
                  recorder=tracer)
        rng = random.Random(1)
        for _ in range(1200):
            run = execute(pib.strategy, flaky.sample(rng),
                          policy=policy, recorder=tracer)
            pib.record(run.settled_result())
        assert pib.climbs >= 1
        climbs = tracer.events_of("climb")
        assert len(climbs) == pib.climbs
        samples = tracer.events_of("learner_sample")
        assert len(samples) == 1200
        # settled costs only: every sampled cost matches a settled view,
        # so no sample can exceed the largest settled query cost.
        settled_max = max(
            e["settled_cost"] for e in tracer.events_of("query_end")
        )
        assert max(s["cost"] for s in samples) <= settled_max


class TestExperimentTrace:
    def test_distributed_faulty_reconciles(self, tmp_path):
        path = str(tmp_path / "faulty.jsonl")
        result = experiment_distributed_faulty(contexts=400,
                                               trace_path=path)
        checks = dict(result.checks)
        assert checks[
            "trace billed/settled totals reconcile with the harness "
            "accumulators"
        ]
        events = read_trace(path)
        summary = summarize_trace(events)
        assert summary["queries"] == 400
        assert summary["billed_cost"] == pytest.approx(
            result.data["billed_cost"]
        )
        assert summary["settled_cost"] == pytest.approx(
            result.data["settled_cost"]
        )

    def test_untraced_run_unchanged(self):
        """trace_path=None must leave the experiment byte-identical."""
        baseline = experiment_distributed_faulty(contexts=300)
        traced = experiment_distributed_faulty(contexts=300,
                                               trace_path=None)
        assert baseline.data["billed_cost"] == traced.data["billed_cost"]
        assert baseline.data["settled_cost"] == traced.data["settled_cost"]
        assert baseline.data["learned_order"] == traced.data["learned_order"]
