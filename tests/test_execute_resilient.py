"""Behavioural tests for :func:`execute` under a resilience policy:
cost accounting under retries, settled-outcome reporting, circuit
shedding, and deadline degradation."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.graphs.contexts import Context
from repro.graphs.inference_graph import GraphBuilder
from repro.graphs.random_graphs import random_tree_graph
from repro.learning.pib import PIB
from repro.resilience import (
    CircuitState,
    FaultPlan,
    FaultSpec,
    FlakyContext,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.strategies.execution import execute
from repro.strategies.strategy import Strategy


def scan_graph():
    builder = GraphBuilder("q")
    builder.retrieval("a", "q", cost=2.0)
    builder.retrieval("b", "q", cost=3.0)
    builder.retrieval("c", "q", cost=5.0)
    return builder.build()


def make(graph, statuses, plan=None):
    context = Context(graph, statuses)
    if plan is not None:
        context = FlakyContext(context, plan)
    return context


class TestFaultFreeEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        required_successes=st.sampled_from([1, 2]),
        data=st.data(),
    )
    def test_degenerates_to_execute(self, seed, required_successes, data):
        """On a fault-free context a policy run is the plain run: same
        bill, same settled view, same attempts, same observations."""
        rng = random.Random(seed)
        n_internal = rng.randint(1, 4)
        graph = random_tree_graph(
            rng,
            n_internal=n_internal,
            n_retrievals=rng.randint(n_internal, n_internal + 3),
            blockable_reduction_rate=0.4,
            asymmetric_blocked_costs=True,
        )
        child_order = {}
        for node in graph.nodes():
            names = [arc.name for arc in graph.children(node)]
            rng.shuffle(names)
            child_order[node.name] = names
        strategy = Strategy.depth_first(graph, child_order)
        context = Context(graph, {
            arc.name: data.draw(st.booleans(), label=arc.name)
            for arc in graph.experiments()
        })
        plain = execute(strategy, context, required_successes)
        resilient = execute(
            strategy, context, required_successes, policy=ResiliencePolicy()
        )
        assert resilient.cost == plain.cost
        assert resilient.settled_cost == plain.cost
        assert resilient.settled_result().cost == plain.cost
        assert resilient.attempted == plain.attempted
        assert resilient.observations == plain.observations
        assert resilient.succeeded == plain.succeeded
        assert resilient.success_arc is plain.success_arc
        assert not resilient.degraded
        assert resilient.total_retries == 0
        assert plain.settled_cost is None
        assert plain.settled_result() is plain


class TestRetryCharging:
    def test_retries_only_add_cost(self):
        """Acceptance: billed cost >= fault-free cost on the same context."""
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        statuses = {"a": False, "b": True, "c": False}
        fault_free = execute(strategy, Context(graph, statuses)).cost
        plan = FaultPlan(
            seed=0,
            per_arc={"a": FaultSpec(fail_first=2),
                     "b": FaultSpec(fail_first=1)},
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=5, base_backoff=0.5)
        )
        result = execute(
            strategy, make(graph, statuses, plan), policy=policy
        )
        assert result.succeeded
        assert result.cost >= fault_free
        assert result.settled_cost == fault_free
        assert result.retries == {"a": 2, "b": 1}
        assert result.backoff_cost > 0.0
        # every observation settled to the underlying truth
        assert result.observations == {"a": False, "b": True}

    def test_faulted_attempt_charged_at_worst_case(self):
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        plan = FaultPlan(seed=0, per_arc={"a": FaultSpec(fail_first=1)})
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff=0.0,
                              max_backoff=0.0)
        )
        statuses = {"a": True, "b": False, "c": False}
        result = execute(
            strategy, make(graph, statuses, plan), policy=policy
        )
        # one wasted attempt (worst-case charge 2.0) + the settled hit
        arc = graph.arc("a")
        worst = max(arc.cost, arc.blocked_cost)
        assert result.cost == pytest.approx(worst + arc.cost)

    def test_timeout_fault_charges_multiplier(self):
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        plan = FaultPlan(seed=0, per_arc={"a": FaultSpec(timeout_rate=1.0)})
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff=0.0,
                              max_backoff=0.0)
        )
        statuses = {"a": True, "b": True, "c": False}
        result = execute(
            strategy, make(graph, statuses, plan), policy=policy
        )
        # 'a' times out on both attempts (rate 1.0) and stays unsettled;
        # each wasted attempt is charged at worst-case x multiplier.
        assert "a" in result.unsettled
        assert result.cost > 2 * max(graph.arc("a").cost,
                                     graph.arc("a").blocked_cost)

    def test_latency_spike_billed_not_reported(self):
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        plan = FaultPlan(
            seed=0,
            per_arc={"a": FaultSpec(latency_rate=1.0, latency_factor=4.0)},
        )
        statuses = {"a": True, "b": False, "c": False}
        result = execute(
            strategy, make(graph, statuses, plan), policy=ResiliencePolicy()
        )
        assert result.succeeded
        assert result.cost == pytest.approx(4.0 * graph.arc("a").cost)
        assert result.settled_cost == pytest.approx(graph.arc("a").cost)


class TestSettledReporting:
    def test_unsettled_arcs_not_observed(self):
        """A fault is not a blocked arc: exhausted retries leave no
        observation, so PIB can never mistake chaos for data."""
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        plan = FaultPlan(seed=0, per_arc={"a": FaultSpec(fail_first=99)})
        policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=3))
        statuses = {"a": True, "b": True, "c": False}
        result = execute(
            strategy, make(graph, statuses, plan), policy=policy
        )
        assert result.unsettled == ["a"]
        assert "a" not in result.observations
        assert result.observations["b"] is True
        assert result.succeeded  # b answered the query
        assert result.degraded

    def test_settled_result_feeds_pib(self):
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        pib = PIB(graph, delta=0.05, initial_strategy=strategy)
        plan = FaultPlan(seed=0, default=FaultSpec(fault_rate=0.3))
        policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=6))
        rng = random.Random(4)
        for _ in range(30):
            statuses = {name: rng.random() < 0.4 for name in "abc"}
            result = execute(
                pib.strategy, make(graph, statuses, plan), policy=policy
            )
            pib.record(result.settled_result())
        assert pib.contexts_processed == 30
        # the under-estimates were fed settled costs, not billed costs
        for row in pib.neighbourhood_report():
            assert row["samples"] <= 30


class TestCircuitShedding:
    def test_dead_arc_gets_shed_then_recovers(self):
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff=0.0,
                              max_backoff=0.0),
            failure_threshold=2,
            cooldown=2,
        )
        plan = FaultPlan(seed=0, per_arc={"a": FaultSpec(fail_first=4)})
        statuses = {"a": True, "b": True, "c": False}

        # Queries 1-2: 'a' exhausts retries twice -> breaker opens.
        for _ in range(2):
            result = execute(
                strategy, make(graph, statuses, plan), policy=policy
            )
            assert "a" in result.unsettled
        breaker = policy.breaker_for("a")
        assert breaker.state is CircuitState.OPEN

        # Queries 3-4: 'a' shed outright, no attempts charged to it.
        for _ in range(2):
            result = execute(
                strategy, make(graph, statuses, plan), policy=policy
            )
            assert result.skipped_open == ["a"]
            assert "a" not in result.observations
        assert breaker.state is CircuitState.HALF_OPEN

        # Queries 1-2 consumed all 4 deterministic faults, so the
        # half-open probe settles and the breaker closes again.
        result = execute(
            strategy, make(graph, statuses, plan), policy=policy
        )
        assert breaker.state is CircuitState.CLOSED
        assert result.observations.get("a") is True

    def test_shed_arc_does_not_block_the_rest(self):
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1), failure_threshold=1,
            cooldown=100,
        )
        plan = FaultPlan(seed=0, per_arc={"a": FaultSpec(fail_first=99)})
        statuses = {"a": False, "b": True, "c": False}
        execute(strategy, make(graph, statuses, plan), policy=policy)
        result = execute(
            strategy, make(graph, statuses, plan), policy=policy
        )
        assert result.skipped_open == ["a"]
        assert result.succeeded  # still found b


class TestDeadline:
    def test_deadline_stops_without_raising(self):
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        statuses = {"a": False, "b": False, "c": True}
        policy = ResiliencePolicy(deadline=4.0)
        result = execute(
            strategy, Context(graph, statuses), policy=policy
        )
        assert result.deadline_expired
        assert result.degraded
        assert not result.succeeded
        assert result.cost <= 4.0
        # only 'a' (cost 2) fit in the budget before 'b' (cost 3)
        assert list(result.observations) == ["a"]

    def test_generous_deadline_changes_nothing(self):
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        statuses = {"a": False, "b": False, "c": True}
        plain = execute(strategy, Context(graph, statuses))
        result = execute(
            strategy, Context(graph, statuses),
            policy=ResiliencePolicy(deadline=1000.0),
        )
        assert not result.deadline_expired
        assert result.cost == plain.cost
        assert result.succeeded == plain.succeeded

    def test_deadline_counts_retries(self):
        """Retries burn the budget: a flaky run expires earlier."""
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        statuses = {"a": True, "b": True, "c": True}
        plan = FaultPlan(seed=0, per_arc={"a": FaultSpec(fail_first=3)})
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=5, base_backoff=1.0),
            deadline=7.0,
        )
        result = execute(
            strategy, make(graph, statuses, plan), policy=policy
        )
        assert result.deadline_expired
        assert policy.deadline_expiries == 1


class TestPolicyCounters:
    def test_lifetime_counters_accumulate(self):
        graph = scan_graph()
        strategy = Strategy.depth_first(graph)
        policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=3))
        plan = FaultPlan(seed=0, per_arc={"b": FaultSpec(fail_first=4)})
        statuses = {"a": False, "b": True, "c": False}
        execute(strategy, make(graph, statuses, plan), policy=policy)
        execute(strategy, make(graph, statuses, plan), policy=policy)
        snap = policy.snapshot()
        assert snap["faults"] == 4
        assert snap["retries"] == 3  # 2 on first run, 1 on second
        assert snap["unsettled_arcs"] == 1
