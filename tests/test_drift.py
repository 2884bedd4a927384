"""Tests for drift detection, the epoch protocol, and rollback."""

import json
import random

import pytest

from repro.errors import LearningError
from repro.learning.drift import (
    EPOCH_COOLDOWN,
    ROLLBACK_NAME,
    AdaptiveWindowDetector,
    DriftAwarePIB,
    DriftConfig,
    PageHinkleyDetector,
    RollbackTransformation,
    make_detector,
)
from repro.learning.pib import PIB
from repro.learning.statistics import WindowedRetrievalStatistics
from repro.observability import Tracer
from repro.persistence import pib_to_dict
from repro.workloads import (
    IndependentDistribution,
    PiecewiseStationaryDistribution,
    g_a,
    g_b,
    intended_probabilities,
    theta_1,
    theta_2,
)


GRAD_HEAVY = intended_probabilities()                      # Θ₂ optimal
PROF_HEAVY = {"Dp": GRAD_HEAVY["Dg"], "Dg": GRAD_HEAVY["Dp"]}  # Θ₁ optimal


def bernoulli_stream(rng, p, n):
    return [1.0 if rng.random() < p else 0.0 for _ in range(n)]


class TestAdaptiveWindowDetector:
    def test_detects_abrupt_mean_shift(self):
        rng = random.Random(0)
        detector = AdaptiveWindowDetector(1.0, delta=0.05)
        fired_at = None
        values = bernoulli_stream(rng, 0.6, 300) + \
            bernoulli_stream(rng, 0.1, 300)
        for index, value in enumerate(values, 1):
            if detector.update(value):
                fired_at = index
                break
        assert fired_at is not None
        assert fired_at > 300          # not before the change
        assert fired_at <= 450         # but soon after it
        assert detector.alarms == 1

    def test_alarm_keeps_new_regime_suffix(self):
        rng = random.Random(1)
        detector = AdaptiveWindowDetector(1.0, delta=0.05)
        for value in bernoulli_stream(rng, 0.9, 300):
            detector.update(value)
        fired = False
        for value in bernoulli_stream(rng, 0.05, 300):
            if detector.update(value):
                fired = True
                break
        assert fired
        # The surviving window describes the new (low) regime.
        assert detector.mean() < 0.5

    def test_reset_clears_window_but_not_test_index(self):
        detector = AdaptiveWindowDetector(1.0, delta=0.05)
        rng = random.Random(2)
        for value in bernoulli_stream(rng, 0.5, 200):
            detector.update(value)
        spent = detector.tests_performed
        assert spent > 0
        detector.reset()
        assert detector.mean() == 0.0
        assert detector.tests_performed == spent

    def test_validation(self):
        with pytest.raises(LearningError):
            AdaptiveWindowDetector(0.0)
        with pytest.raises(LearningError):
            AdaptiveWindowDetector(1.0, delta=1.5)
        with pytest.raises(LearningError):
            AdaptiveWindowDetector(1.0, max_window=10, min_side=20)


class TestPageHinkleyDetector:
    def test_detects_abrupt_mean_shift(self):
        rng = random.Random(3)
        detector = PageHinkleyDetector(1.0, delta=0.05)
        fired_at = None
        values = bernoulli_stream(rng, 0.6, 300) + \
            bernoulli_stream(rng, 0.1, 300)
        for index, value in enumerate(values, 1):
            if detector.update(value):
                fired_at = index
                break
        assert fired_at is not None and fired_at > 300

    def test_alarm_resets_the_walk(self):
        rng = random.Random(4)
        detector = PageHinkleyDetector(1.0, delta=0.05)
        values = bernoulli_stream(rng, 0.8, 200) + \
            bernoulli_stream(rng, 0.05, 200)
        fired = sum(detector.update(v) for v in values)
        assert fired >= 1
        assert detector.samples == 400    # lifetime counter survives

    def test_validation(self):
        with pytest.raises(LearningError):
            PageHinkleyDetector(-1.0)
        with pytest.raises(LearningError):
            PageHinkleyDetector(1.0, tolerance=-0.1)


class TestMakeDetectorAndConfig:
    def test_kinds(self):
        config = DriftConfig()
        assert isinstance(
            make_detector("window", 1.0, config), AdaptiveWindowDetector
        )
        assert isinstance(
            make_detector("page-hinkley", 1.0, config), PageHinkleyDetector
        )
        with pytest.raises(LearningError):
            make_detector("mystery", 1.0, config)

    def test_config_validation(self):
        with pytest.raises(LearningError):
            DriftConfig(delta=0.0)
        with pytest.raises(LearningError):
            DriftConfig(detector="mystery")

    def test_config_dict_roundtrip(self):
        config = DriftConfig(delta=0.01, detector="page-hinkley")
        assert DriftConfig.from_dict(config.to_dict()) == config

    def test_window_detector_tuning(self):
        detector = make_detector("window", 4.0, DriftConfig(delta=0.01))
        assert detector.delta == 0.01
        assert detector.max_window == 400
        assert detector.check_every == 8
        assert detector.min_side == 20

    def test_page_hinkley_tuning(self):
        # 20 samples, not PageHinkleyDetector's own default of 30.
        detector = make_detector("page-hinkley", 4.0, DriftConfig(delta=0.01))
        assert detector.delta == 0.01
        assert detector.min_samples == 20
        assert detector.tolerance == 0.0

    def test_learner_watches_cost_and_every_experiment(self):
        for graph in (g_a(), g_b()):
            pib = DriftAwarePIB(graph)
            statistics = pib.retrieval_statistics
            assert isinstance(statistics, WindowedRetrievalStatistics)
            assert statistics.window == 200
            assert isinstance(pib._cost_detector, AdaptiveWindowDetector)
            assert pib._cost_detector.value_range == graph.total_cost
            assert list(pib._arc_detectors) == [
                arc.name for arc in graph.experiments()
            ]
            assert all(
                isinstance(detector, AdaptiveWindowDetector)
                and detector.value_range == 1.0
                for detector in pib._arc_detectors.values()
            )


class TestFalseAlarmRate:
    """Stationary stream ⇒ Pr[ever alarm] ≤ the detector's δ.

    The adaptive window detector spends its split tests from the same
    ``δ_i = δ·6/(π²·i²)`` schedule as PIB's sequential test, so the
    union over every test it ever makes keeps the anytime false-alarm
    probability under ``δ``.  Measured over independent seeded runs,
    the alarming-run fraction must stay within the budget.
    """

    RUNS = 80
    SAMPLES = 500
    DELTA = 0.05

    def test_window_detector_false_alarms_within_delta(self):
        alarmed = 0
        for seed in range(self.RUNS):
            rng = random.Random(1000 + seed)
            detector = AdaptiveWindowDetector(1.0, delta=self.DELTA)
            if any(detector.update(v) for v in
                   bernoulli_stream(rng, 0.4, self.SAMPLES)):
                alarmed += 1
        # The bound is δ per run; the union-bound analysis is loose, so
        # the measured rate should sit well inside it even with the
        # binomial noise of RUNS experiments.
        assert alarmed / self.RUNS <= self.DELTA

    def test_page_hinkley_false_alarms_bounded(self):
        # PH's threshold is per-horizon rather than anytime, so give it
        # the documented two-sided budget plus binomial slack.
        alarmed = 0
        for seed in range(self.RUNS):
            rng = random.Random(2000 + seed)
            detector = PageHinkleyDetector(1.0, delta=self.DELTA)
            if any(detector.update(v) for v in
                   bernoulli_stream(rng, 0.4, self.SAMPLES)):
                alarmed += 1
        assert alarmed / self.RUNS <= 2 * self.DELTA + 0.05

    def test_drift_aware_pib_false_alarms_within_delta(self):
        graph = g_a()
        distribution = IndependentDistribution(graph, GRAD_HEAVY)
        alarmed = 0
        runs = 30
        for seed in range(runs):
            pib = DriftAwarePIB(
                graph, initial_strategy=theta_1(graph),
                drift=DriftConfig(delta=0.05),
            )
            pib.run(distribution.sampler(random.Random(3000 + seed)), 400)
            if pib.drift_alarms:
                alarmed += 1
        assert alarmed / runs <= 0.05 + 0.05  # δ plus binomial slack


class TestNoDriftNoOp:
    """On a stationary workload, drift-aware PIB *is* PIB."""

    def drive_pair(self, contexts=1200, seed=17):
        graph = g_a()
        distribution = IndependentDistribution(graph, GRAD_HEAVY)
        plain = PIB(graph, delta=0.05, initial_strategy=theta_1(graph))
        aware = DriftAwarePIB(
            graph, delta=0.05, initial_strategy=theta_1(graph),
            drift=DriftConfig(delta=0.05),
        )
        for learner in (plain, aware):
            learner.run(
                distribution.sampler(random.Random(seed)), contexts
            )
        return plain, aware

    def test_exact_same_climb_sequence(self):
        plain, aware = self.drive_pair()
        assert aware.drift_alarms == []        # precondition: no alarm
        assert plain.history == aware.history  # identical climbs
        assert plain.strategy.arc_names() == aware.strategy.arc_names()
        assert plain.total_tests == aware.total_tests
        assert plain.contexts_processed == aware.contexts_processed

    def test_same_accumulator_state(self):
        plain, aware = self.drive_pair(contexts=300)
        assert [(a.transformation.name, a.total, a.samples)
                for a in plain._accumulators] == \
               [(a.transformation.name, a.total, a.samples)
                for a in aware._accumulators]


class TestEpochProtocol:
    def drive_through_flip(self, regime=1200, drift_delta=0.05, seed=5):
        graph = g_a()
        stream = PiecewiseStationaryDistribution(graph, [
            (regime, IndependentDistribution(graph, GRAD_HEAVY)),
            (None, IndependentDistribution(graph, PROF_HEAVY)),
        ])
        pib = DriftAwarePIB(
            graph, delta=0.05, initial_strategy=theta_1(graph),
            drift=DriftConfig(delta=drift_delta),
        )
        pib.run(stream.sampler(random.Random(seed)), 2 * regime)
        return graph, pib, regime

    def test_flip_opens_epoch_and_recovers(self):
        graph, pib, regime = self.drive_through_flip()
        assert pib.epoch >= 1
        alarm = pib.drift_alarms[0]
        assert alarm.context_number > regime
        assert alarm.context_number <= regime + 400
        # The pre-flip optimum was snapshotted as last-known-good...
        assert list(pib.last_known_good.arc_names()) == \
            list(theta_2(graph).arc_names())
        # ...and the learner re-climbed to the post-flip optimum.
        assert list(pib.strategy.arc_names()) == \
            list(theta_1(graph).arc_names())

    def test_epoch_restarts_sequential_schedule(self):
        graph = g_a()
        distribution = IndependentDistribution(graph, GRAD_HEAVY)
        pib = DriftAwarePIB(graph, initial_strategy=theta_1(graph))
        pib.run(distribution.sampler(random.Random(41)), 200)
        assert pib.total_tests > 0
        pib._begin_epoch(["manual"])
        # The δ_i schedule restarts: i = 0 again (Theorem 1 per-epoch).
        assert pib.total_tests == 0
        assert pib.epoch == 1
        assert list(pib.last_known_good.arc_names()) == \
            list(pib.strategy.arc_names())

    def test_alarm_records_sources(self):
        _, pib, _ = self.drive_through_flip()
        sources = pib.drift_alarms[0].sources
        assert sources
        assert all(s == "cost" or s.startswith("arc:") for s in sources)

    def test_cooldown_damps_alarm_storms(self):
        _, pib, _ = self.drive_through_flip(drift_delta=0.2)
        # Even with a jumpy detector, consecutive alarms must be at
        # least a cooldown apart once past epoch 1.
        numbers = [a.context_number for a in pib.drift_alarms]
        gaps = [b - a for a, b in zip(numbers[1:], numbers[2:])]
        assert all(gap >= EPOCH_COOLDOWN for gap in gaps)

    def test_drift_report_shape(self):
        _, pib, _ = self.drive_through_flip()
        report = pib.drift_report()
        assert report["epoch"] == pib.epoch
        assert len(report["alarms"]) == len(pib.drift_alarms)
        assert json.dumps(report)  # JSON-ready


class TestRollback:
    def test_rollback_requires_statistical_confidence(self):
        """A strategy worse than last-known-good is rolled back through
        the same Equation 6 test as a climb."""
        graph = g_a()
        distribution = IndependentDistribution(graph, GRAD_HEAVY)
        tracer = Tracer()
        # No ordinary transformations: the standing rollback candidate
        # is the only way out of the (deliberately bad) Θ₁.
        pib = DriftAwarePIB(
            graph, delta=0.05, initial_strategy=theta_1(graph),
            transformations=[], recorder=tracer,
        )
        pib.epoch = 1
        pib.last_known_good = theta_2(graph)
        pib._rebuild_neighbourhood()
        # The rollback range Λ is the loose whole-graph bound, so the
        # Equation 6 evidence takes ~1300 contexts to clear it — the
        # point: rolling back is as hard to justify as climbing.
        pib.run(distribution.sampler(random.Random(11)), 2000)
        assert pib.rollbacks == 1
        record = pib.history[-1]
        assert record.transformation == ROLLBACK_NAME
        assert list(pib.strategy.arc_names()) == \
            list(theta_2(graph).arc_names())
        events = tracer.events_of("rollback")
        assert len(events) == 1
        assert events[0]["to"] == list(theta_2(graph).arc_names())

    def test_no_rollback_when_current_is_fine(self):
        graph = g_a()
        distribution = IndependentDistribution(graph, GRAD_HEAVY)
        pib = DriftAwarePIB(
            graph, delta=0.05, initial_strategy=theta_2(graph),
            transformations=[],
        )
        pib.epoch = 1
        pib.last_known_good = theta_1(graph)  # worse under GRAD_HEAVY
        pib._rebuild_neighbourhood()
        pib.run(distribution.sampler(random.Random(12)), 800)
        assert pib.rollbacks == 0
        assert list(pib.strategy.arc_names()) == \
            list(theta_2(graph).arc_names())

    def test_rollback_candidate_absent_when_strategies_match(self):
        graph = g_a()
        pib = DriftAwarePIB(graph, initial_strategy=theta_2(graph),
                            transformations=[])
        pib.epoch = 1
        pib.last_known_good = theta_2(graph)
        pib._rebuild_neighbourhood()
        assert pib._accumulators == []

    def test_rollback_transformation_maps_anything_to_target(self):
        graph = g_a()
        target = theta_2(graph)
        transformation = RollbackTransformation(target)
        assert transformation.name == ROLLBACK_NAME
        assert transformation.apply(theta_1(graph)) is target


class TestTracingByteIdentity:
    def test_traced_and_untraced_drift_runs_identical(self):
        """Observability is one-way: the traced drift-aware run ends in
        byte-identical learner state."""
        graph = g_a()
        states = []
        for recorder in (None, Tracer()):
            stream = PiecewiseStationaryDistribution(graph, [
                (800, IndependentDistribution(graph, GRAD_HEAVY)),
                (None, IndependentDistribution(graph, PROF_HEAVY)),
            ])
            kwargs = {"recorder": recorder} if recorder is not None else {}
            pib = DriftAwarePIB(
                graph, delta=0.05, initial_strategy=theta_1(graph),
                drift=DriftConfig(delta=0.05), **kwargs,
            )
            pib.run(stream.sampler(random.Random(23)), 1600)
            states.append(pib)
        untraced, traced = states
        assert traced.drift_alarms  # the drift path actually ran
        assert json.dumps(pib_to_dict(untraced), sort_keys=True) == \
            json.dumps(pib_to_dict(traced), sort_keys=True)
        tracer = traced.recorder
        assert len(tracer.events_of("drift_alarm")) == \
            len(traced.drift_alarms)
        assert len(tracer.events_of("epoch_reset")) == traced.epoch


class TestDriftThroughSystem:
    def test_processor_reports_drift(self, tmp_path):
        from repro.datalog.database import Database
        from repro.datalog.parser import parse_program, parse_query
        from repro.system import SelfOptimizingQueryProcessor
        from repro.serving import SessionConfig

        rules = parse_program(
            "@Rp instructor(X) :- prof(X).\n"
            "@Rg instructor(X) :- grad(X).\n"
        )
        facts = Database.from_program("prof(russ). grad(manolis).")
        processor = SelfOptimizingQueryProcessor(
            rules, config=SessionConfig(drift=DriftConfig(delta=0.05))
        )
        for _ in range(30):
            answer = processor.query(parse_query("instructor(manolis)?"),
                                     facts)
            assert answer.proved
        report = processor.report()
        entry = report["instructor^(b)"]
        assert entry["drift"]["epoch"] == 0
        assert entry["drift"]["alarms"] == []
