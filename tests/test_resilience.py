"""Unit tests for the resilience primitives: fault plans, flaky
wrappers, retry backoff, circuit breakers, and cost deadlines."""

import random

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_query
from repro.errors import (
    DistributionError,
    ResilienceError,
    RetrievalFaultError,
    QueryDeadlineExceeded,
)
from repro.graphs.inference_graph import GraphBuilder
from repro.resilience import (
    CircuitBreaker,
    CircuitState,
    CostDeadline,
    FaultPlan,
    FaultSpec,
    FlakyContext,
    FlakyDatabase,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.graphs.contexts import Context


def two_arc_graph():
    builder = GraphBuilder("q")
    builder.retrieval("a", "q", cost=2.0)
    builder.retrieval("b", "q", cost=3.0)
    return builder.build()


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(DistributionError):
            FaultSpec(fault_rate=1.5)
        with pytest.raises(DistributionError):
            FaultSpec(fault_rate=0.7, timeout_rate=0.7)
        with pytest.raises(DistributionError):
            FaultSpec(latency_factor=0.5)
        with pytest.raises(DistributionError):
            FaultSpec(fail_first=-1)

    def test_defaults_are_clean(self):
        plan = FaultPlan(seed=0)
        for _ in range(50):
            assert not plan.draw("a").faulted


class TestFaultPlan:
    def test_deterministic_given_seed(self):
        spec = FaultSpec(fault_rate=0.4, timeout_rate=0.1)
        draws = []
        for _ in range(2):
            plan = FaultPlan(seed=42, default=spec)
            draws.append(
                [(plan.draw("a").faulted, plan.draw("b").timeout)
                 for _ in range(100)]
            )
        assert draws[0] == draws[1]

    def test_per_arc_streams_independent(self):
        """Injecting on one arc must not perturb another arc's draws."""
        spec = FaultSpec(fault_rate=0.4)
        solo = FaultPlan(seed=1, default=spec)
        solo_draws = [solo.draw("a").faulted for _ in range(50)]
        interleaved = FaultPlan(seed=1, default=spec)
        inter_draws = []
        for _ in range(50):
            interleaved.draw("b")  # extra traffic on another arc
            inter_draws.append(interleaved.draw("a").faulted)
        assert solo_draws == inter_draws

    def test_fail_first_is_deterministic(self):
        plan = FaultPlan(seed=0, per_arc={"a": FaultSpec(fail_first=3)})
        outcomes = [plan.draw("a").faulted for _ in range(5)]
        assert outcomes == [True, True, True, False, False]

    def test_reset_rewinds(self):
        plan = FaultPlan(seed=9, default=FaultSpec(fault_rate=0.5))
        first = [plan.draw("a").faulted for _ in range(20)]
        plan.reset()
        assert [plan.draw("a").faulted for _ in range(20)] == first
        assert plan.summary()["faults"] == sum(first)

    def test_timeout_charges_more(self):
        plan = FaultPlan(seed=3, default=FaultSpec(timeout_rate=1.0))
        injection = plan.draw("a")
        assert injection.faulted and injection.timeout
        assert injection.cost_multiplier > 1.0


class TestFlakyContext:
    def test_transient_faults_do_not_change_truth(self):
        graph = two_arc_graph()
        inner = Context(graph, {"a": True, "b": False})
        plan = FaultPlan(seed=0, per_arc={"a": FaultSpec(fail_first=2)})
        flaky = FlakyContext(inner, plan)
        arc = graph.arc("a")
        for _ in range(2):
            with pytest.raises(RetrievalFaultError):
                flaky.traversable(arc)
        assert flaky.traversable(arc) is True
        assert flaky.statuses() == inner.statuses()
        assert flaky.unblocked_set() == inner.unblocked_set()

    def test_fault_error_names_the_arc(self):
        graph = two_arc_graph()
        inner = Context(graph, {"a": True, "b": False})
        flaky = FlakyContext(
            inner, FaultPlan(seed=0, per_arc={"b": FaultSpec(fail_first=1)})
        )
        with pytest.raises(RetrievalFaultError) as info:
            flaky.traversable(graph.arc("b"))
        assert info.value.arc_name == "b"
        assert not info.value.timeout


class TestFlakyDatabase:
    def test_faults_then_settles(self):
        inner = Database.from_program("prof(russ).")
        plan = FaultPlan(seed=0, per_arc={"prof": FaultSpec(fail_first=1)})
        flaky = FlakyDatabase(inner, plan)
        pattern = parse_query("prof(russ)")
        with pytest.raises(RetrievalFaultError):
            flaky.succeeds(pattern)
        assert flaky.succeeds(pattern) is True

    def test_mutation_iteration_and_catalog_match_database(self):
        text = "prof(russ). grad(lena). prof(manolis)."
        flaky = FlakyDatabase(Database.from_program(text), FaultPlan(seed=0))
        plain = Database.from_program(text)
        for store in (flaky, plain):
            assert store.add(parse_query("grad(tom)"))
            assert store.remove(parse_query("prof(russ)"))
            assert not store.remove(parse_query("prof(russ)"))
        assert list(flaky) == list(plain)
        assert len(flaky) == len(plain) == 3
        assert flaky.signatures() == plain.signatures()
        assert flaky.count("prof") == plain.count("prof") == 1
        assert flaky.generation == plain.generation
        assert parse_query("grad(tom)") in flaky
        assert list(flaky.copy()) == list(plain)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(base_backoff=-1)
        with pytest.raises(ResilienceError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(base_backoff=5.0, max_backoff=1.0)

    def test_exponential_cap(self):
        retry = RetryPolicy(base_backoff=1.0, multiplier=2.0, max_backoff=8.0)
        assert retry.backoff_cap(1) == 1.0
        assert retry.backoff_cap(2) == 2.0
        assert retry.backoff_cap(4) == 8.0
        assert retry.backoff_cap(10) == 8.0  # clamped

    def test_full_jitter_within_cap(self):
        retry = RetryPolicy(base_backoff=1.0, multiplier=2.0, max_backoff=8.0)
        rng = random.Random(0)
        for attempt in range(1, 8):
            cost = retry.backoff_cost(attempt, rng)
            assert 0.0 <= cost <= retry.backoff_cap(attempt)

    def test_jitter_deterministic_given_seed(self):
        retry = RetryPolicy()
        a = [retry.backoff_cost(i, random.Random(5)) for i in range(1, 5)]
        b = [retry.backoff_cost(i, random.Random(5)) for i in range(1, 5)]
        assert a == b

    def test_zero_backoff(self):
        retry = RetryPolicy(base_backoff=0.0, max_backoff=0.0)
        assert retry.backoff_cost(3, random.Random(0)) == 0.0

    def test_exhausted(self):
        retry = RetryPolicy(max_attempts=3)
        assert not retry.exhausted(2)
        assert retry.exhausted(3)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=2)
        for _ in range(2):
            breaker.record_fault()
        assert breaker.state is CircuitState.CLOSED
        breaker.record_fault()
        assert breaker.state is CircuitState.OPEN
        assert breaker.times_opened == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=2)
        breaker.record_fault()
        breaker.record_success()
        breaker.record_fault()
        assert breaker.state is CircuitState.CLOSED

    def test_cooldown_then_half_open_probe_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2)
        breaker.record_fault()
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()
        assert not breaker.allow()  # cooldown elapses here
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED

    def test_half_open_probe_fault_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_fault()
        breaker.allow()  # cooldown → half-open
        assert breaker.allow()
        breaker.record_fault()
        assert breaker.state is CircuitState.OPEN
        assert breaker.times_opened == 2

    def test_half_open_admits_one_probe_at_a_time(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_fault()
        breaker.allow()  # cooldown → half-open
        assert breaker.allow()  # the probe
        assert breaker.probing
        assert not breaker.allow()  # refused while the probe is in flight
        assert not breaker.allow()
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED

    def test_release_probe_permits_another_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_fault()
        breaker.allow()  # cooldown → half-open
        assert breaker.allow()
        assert not breaker.allow()  # gate held by the in-flight probe
        breaker.release_probe()  # deadline expired mid-probe
        assert not breaker.probing
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.allow()  # a fresh probe may go out

    def test_shed_count_resets_when_probe_closes_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=3)
        breaker.record_fault()
        for _ in range(3):
            assert not breaker.allow()  # cooldown elapses on the third
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.shed_attempts == 0
        # A later trip must count a full fresh cooldown.
        breaker.record_fault()
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.state is CircuitState.OPEN  # 2 of 3 shed so far
        assert not breaker.allow()
        assert breaker.state is CircuitState.HALF_OPEN

    def test_snapshot_reports_shed_attempts(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5)
        breaker.record_fault()
        breaker.allow()
        breaker.allow()
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "open"
        assert snapshot["shed_attempts"] == 2

    def test_transitions_reach_the_recorder(self):
        from repro.observability import Tracer

        tracer = Tracer()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1,
                                 name="scan_x", recorder=tracer)
        breaker.record_fault()  # closed → open
        breaker.allow()  # cooldown → half-open
        breaker.allow()
        breaker.record_success()  # half-open → closed
        moves = [(e["from"], e["to"]) for e in tracer.events_of("breaker")]
        assert moves == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert all(e["arc"] == "scan_x" for e in tracer.events_of("breaker"))
        assert tracer.metrics.count("breaker_open_total") == 1


class TestCostDeadline:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            CostDeadline(0.0)

    def test_bounds(self):
        deadline = CostDeadline(10.0)
        assert not deadline.exceeded(9.99)
        assert deadline.exceeded(10.0)
        assert deadline.would_exceed(8.0, 3.0)
        assert not deadline.would_exceed(8.0, 2.0)
        assert deadline.remaining(4.0) == 6.0
        assert deadline.remaining(40.0) == 0.0

    def test_check_raises(self):
        with pytest.raises(QueryDeadlineExceeded) as info:
            CostDeadline(5.0).check(7.5)
        assert info.value.spent == 7.5
        assert info.value.budget == 5.0


class TestResiliencePolicy:
    def test_numeric_deadline_is_wrapped(self):
        policy = ResiliencePolicy(deadline=12.0)
        assert isinstance(policy.deadline, CostDeadline)
        assert policy.deadline.budget == 12.0

    def test_breakers_persist_per_arc(self):
        policy = ResiliencePolicy()
        assert policy.breaker_for("a") is policy.breaker_for("a")
        assert policy.breaker_for("a") is not policy.breaker_for("b")

    def test_snapshot_shape(self):
        policy = ResiliencePolicy()
        snap = policy.snapshot()
        assert snap["retries"] == 0
        assert snap["breakers"] == {}
