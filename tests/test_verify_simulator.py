"""The virtual-clock simulator and the runtime invariant monitors."""

import pytest

from repro.learning.pib import PIB
from repro.strategies.execution import execute
from repro.strategies.strategy import Strategy
from repro.verify.invariants import (
    ConservatismWatcher,
    InvariantMonitor,
    InvariantViolation,
    verify_invariants,
)
from repro.verify.runner import check_chaos, specs_for
from repro.verify.simulator import (
    check_byte_determinism,
    check_cache_effects,
    check_generation_coherence,
    check_sequential_parity,
    simulate,
)
from repro.verify.worldgen import WorldSpec, build_graph_world, context_rng


class TestSimulator:
    def test_trace_is_byte_deterministic(self):
        for spec in specs_for("serving", 4):
            assert check_byte_determinism(spec) is None, spec

    def test_simulated_sharding_equals_sequential_loop(self):
        for spec in specs_for("serving", 4):
            assert check_sequential_parity(spec) is None, spec

    def test_caches_never_change_answers(self):
        for spec in specs_for("serving", 4):
            assert check_cache_effects(spec) is None, spec

    def test_database_mutation_invalidates_cache(self):
        for spec in specs_for("serving", 2):
            assert check_generation_coherence(spec) is None, spec

    def test_second_pass_hits_the_answer_cache(self):
        spec = WorldSpec(
            seed=1, profile="serving", answer_cache=64,
            subgoal_memo=256, repeats=2,
        )
        batch = simulate(spec, caches=True)
        assert any(answer.cached for answer in batch.answers), (
            "two passes over one batch never hit the answer cache"
        )

    def test_trace_events_are_one_json_object_per_line(self):
        import json

        batch = simulate(WorldSpec(seed=0, profile="serving"))
        lines = batch.trace.splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert {"t", "pass", "worker", "form", "query"} <= set(event)


class TestChaosProfile:
    def test_chaos_checks_pass_over_seeds(self):
        for spec in specs_for("chaos", 8):
            assert check_chaos(spec) is None, spec

    def test_faults_do_actually_fire(self):
        """The chaos profile is non-vacuous: injected faults surface as
        retries or degradations somewhere in the family."""
        from repro.resilience.faults import FlakyContext
        from repro.resilience.policy import ResiliencePolicy
        from repro.resilience.retry import RetryPolicy

        retries = 0
        for spec in specs_for("chaos", 4):
            world = build_graph_world(spec)
            policy = ResiliencePolicy(
                retry=RetryPolicy(max_attempts=spec.retries),
                seed=spec.seed,
            )
            rng = context_rng(spec)
            strategy = Strategy.depth_first(world.graph)
            for _ in range(spec.contexts):
                result = execute(
                    strategy,
                    FlakyContext(world.distribution.sample(rng),
                                 world.fault_plan),
                    policy=policy,
                )
                retries += result.total_retries
        assert retries > 0


class TestInvariantMonitor:
    def test_legal_breaker_sequence_passes(self):
        monitor = InvariantMonitor()
        monitor.breaker_transition("D0", "closed", "open")
        monitor.breaker_transition("D0", "open", "half-open")
        monitor.breaker_transition("D0", "half-open", "closed")
        monitor.check()

    def test_illegal_breaker_transition_flagged(self):
        monitor = InvariantMonitor()
        monitor.breaker_transition("D0", "closed", "half-open")
        with pytest.raises(InvariantViolation):
            monitor.check()

    def test_breaker_state_continuity_flagged(self):
        monitor = InvariantMonitor()
        monitor.breaker_transition("D0", "open", "half-open")
        with pytest.raises(InvariantViolation):
            monitor.check()

    def test_threshold_monotonicity_flagged(self):
        monitor = InvariantMonitor()
        monitor.chernoff_margin("swap-1", 10, 0.5, 3.0)
        monitor.chernoff_margin("swap-1", 11, 0.5, 2.0)  # fell: illegal
        with pytest.raises(InvariantViolation):
            monitor.check()

    def test_threshold_schedule_resets_after_climb(self):
        monitor = InvariantMonitor()
        monitor.chernoff_margin("swap-1", 10, 0.5, 3.0)
        monitor.climb(object())
        monitor.chernoff_margin("swap-1", 1, 0.1, 0.5)  # new neighbourhood
        monitor.check()

    def test_context_manager_raises_on_exit(self):
        with pytest.raises(InvariantViolation):
            with verify_invariants() as monitor:
                monitor.breaker_transition("D0", "closed", "closed")

    def test_real_pib_run_is_clean(self):
        spec = WorldSpec(seed=6)
        world = build_graph_world(spec)
        with verify_invariants() as monitor:
            learner = PIB(world.graph, delta=spec.delta, recorder=monitor)
            rng = context_rng(spec)
            for _ in range(60):
                learner.process(world.distribution.sample(rng))


class TestConservatismWatcher:
    def test_real_run_is_conservative(self):
        spec = WorldSpec(seed=8)
        world = build_graph_world(spec)
        learner = PIB(world.graph, delta=spec.delta)
        watcher = ConservatismWatcher()
        rng = context_rng(spec)
        for _ in range(40):
            result = execute(
                learner.strategy, world.distribution.sample(rng)
            )
            watcher.observe(learner, result)
            learner.record(result)
        assert watcher.samples_checked > 0

    def test_broken_estimate_is_flagged(self):
        """A delta-tilde made non-conservative must raise."""
        spec = WorldSpec(seed=8)
        world = build_graph_world(spec)
        learner = PIB(world.graph, delta=spec.delta)
        rng = context_rng(spec)
        result = execute(learner.strategy, world.distribution.sample(rng))
        watcher = ConservatismWatcher(tolerance=-1e9)  # everything exceeds
        with pytest.raises(InvariantViolation):
            watcher.observe(learner, result)
