"""The virtual-clock simulator and the runtime invariant monitors."""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.datalog.database import Database
from repro.datalog.rules import QueryForm
from repro.learning.pib import PIB
from repro.observability.recorder import Recorder
from repro.observability.tracer import Tracer
from repro.serving.cache import SubgoalMemo
from repro.system import SelfOptimizingQueryProcessor
from repro.strategies.execution import execute
from repro.strategies.strategy import Strategy
from repro.verify.invariants import (
    ConservatismWatcher,
    InvariantMonitor,
    InvariantViolation,
    verify_invariants,
)
from repro.verify.runner import check_chaos, run_profile, specs_for
from repro.verify.simulator import (
    check_byte_determinism,
    check_cache_effects,
    check_generation_coherence,
    check_mutation_transparency,
    check_sequential_parity,
    simulate,
)
from repro.verify.worldgen import (
    WorldSpec,
    build_graph_world,
    build_kb_world,
    context_rng,
)


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


class TestMutationTransparency:
    def test_storm_keeps_caches_transparent(self):
        for spec in specs_for("serving", 4):
            assert check_mutation_transparency(spec) is None, spec

    def test_both_sides_of_the_read_set_are_exercised(self):
        tally = Counter()
        for spec in specs_for("serving", 4):
            assert check_mutation_transparency(spec, tally) is None, spec
        assert tally["inside-miss"] > 0
        assert tally["outside-hit"] > 0

    def test_family_asks_compiled_and_negated_forms(self):
        def negates(rules, signature):
            cone = rules.dependency_cone(signature)
            return any(not literal.positive for rule in rules
                       if rule.head.signature in cone
                       for literal in rule.body)

        for spec in specs_for("serving", 10):
            world = build_kb_world(spec)
            processor = SelfOptimizingQueryProcessor(world.rules)
            compiled = {query: processor.ensure_compiled(QueryForm.of(query))
                        for query in world.queries}
            assert any(compiled.values()), spec
            if spec.kb_shape == "negation-mix":
                assert any(not learnable and negates(world.rules, query.signature)
                           for query, learnable in compiled.items()), spec

    def test_frozen_versions_are_caught(self, monkeypatch):
        # A store whose versions never move serves pre-write answers.
        monkeypatch.setattr(Database, "version", lambda self, keys: 0)
        failures = [check_mutation_transparency(spec)
                    for spec in specs_for("serving", 4)]
        assert any(failure is not None for failure in failures)

    def test_stale_memo_entries_are_caught(self, monkeypatch):
        # A memo that ignores the probed bucket's version replays
        # pre-write probes; the storm sees that only if the memo fronts
        # the store it serves from.
        key = SubgoalMemo._key
        monkeypatch.setattr(SubgoalMemo, "_key", staticmethod(
            lambda pattern, database, version: key(pattern, database, 0)
        ))
        failures = [check_mutation_transparency(spec)
                    for spec in specs_for("serving", 4)]
        assert any(failure is not None for failure in failures)


    @pytest.mark.parametrize("bug", ["dropped_head_test",
                                     "dropped_head_bindings"])
    def test_learned_path_bugs_are_caught(self, bug, request):
        # Specializing-heads worlds (seed 2) ask queries that a rule
        # head rejects or binds; either bug serves them a clean answer
        # the program does not entail.
        request.getfixturevalue(bug)
        family = specs_for("serving", 4)
        assert "specializing-heads" in {spec.kb_shape for spec in family}
        failures = [check_mutation_transparency(spec) for spec in family]
        assert any(failure is not None and "model" in failure
                   for failure in failures)
        assert not run_profile("serving", seeds=4, shrink_failures=False).ok


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

    def test_forwards_every_hook_like_a_bare_tracer(self):
        # Checked or not, every Recorder hook must reach the inner
        # tracer exactly as it reaches a bare one.
        climb = SimpleNamespace(
            step=1, context_number=3, transformation="swap-1", samples=4,
            estimated_gain=0.5, threshold=0.2, from_arcs=["a"],
            to_arcs=["b"],
        )

        def drive(recorder):
            span = recorder.begin_query(None)
            recorder.arc_attempt(span, "a", "fault", 1.0)
            recorder.arc_retry(span, "a", 2, 0.5)
            recorder.arc_unsettled(span, "a", 3)
            recorder.breaker_shed(span, "a")
            recorder.breaker_transition("a", "closed", "open")
            recorder.deadline_expired(span, 4.0)
            recorder.end_query(span, cost=4.0, succeeded=False)
            recorder.learner_sample(1, 2.0, {"swap-1": 0.5})
            recorder.chernoff_margin("swap-1", 1, 0.5, 1.0)
            recorder.climb(climb)
            recorder.checkpoint_saved("pib.json")
            recorder.checkpoint_restored("pib.json")
            recorder.drift_alarm(1, 5, ["cost"])
            recorder.epoch_reset(1, 5, ["a"])
            recorder.rollback(1, 6, ["b"], ["a"])
            recorder.pao_budget({"a": 3})
            recorder.pao_complete(3, {"a": 0.5})
            recorder.cache_hit("answer")
            recorder.cache_miss("answer")
            recorder.cache_evict("answer")
            recorder.request_served("t0", 2.0)
            recorder.request_rejected("t0", "queue-full")
            recorder.request_degraded("t0", "queue-full")
            recorder.queue_depth("f(b)", 3)
            recorder.health_transition("healthy", "shedding")
            recorder.warmstart("f(b)", "g(b)", 0.0, True)
            recorder.experience_write("abc", 4)
            recorder.incident("fallback")

        bare, inner = Tracer(), Tracer()
        drive(bare)
        monitor = InvariantMonitor(inner)
        drive(monitor)
        monitor.check()
        assert inner.events == bare.events
        hooks = {name for name, hook in vars(Recorder).items()
                 if callable(hook) and not name.startswith("_")}
        assert hooks <= set(vars(InvariantMonitor))

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
