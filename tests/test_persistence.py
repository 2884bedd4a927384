"""Tests for JSON persistence of learned state."""

import json
import os
import random

import pytest

from repro.errors import LearningError
from repro.persistence import (
    load_pib,
    migrate_payload,
    pib_from_dict,
    pib_to_dict,
    save_pib,
    strategy_from_dict,
    strategy_to_dict,
    transformation_from_name,
    write_checked_json,
)
from repro.learning.drift import DriftAwarePIB, DriftConfig
from repro.learning.pib import PIB
from repro.strategies.transformations import PathPromotion, SiblingSwap
from repro.workloads import (
    IndependentDistribution,
    PiecewiseStationaryDistribution,
    g_a,
    intended_probabilities,
    theta_1,
    theta_2,
)


class TestStrategyRoundTrip:
    def test_roundtrip(self):
        graph = g_a()
        strategy = theta_2(graph)
        rebuilt = strategy_from_dict(graph, strategy_to_dict(strategy))
        assert rebuilt.arc_names() == strategy.arc_names()

    def test_bad_payload(self):
        with pytest.raises(LearningError):
            strategy_from_dict(g_a(), {"nope": 1})

    def test_illegal_saved_order_rejected(self):
        from repro.errors import IllegalStrategyError

        with pytest.raises(IllegalStrategyError):
            strategy_from_dict(g_a(), {"arcs": ["Dp", "Rp", "Rg", "Dg"]})


class TestTransformationNames:
    def test_swap(self):
        assert transformation_from_name("swap(Rg,Rp)") == SiblingSwap("Rp", "Rg")

    def test_promotion(self):
        assert transformation_from_name("promote(Dd)") == PathPromotion("Dd")

    def test_unknown(self):
        with pytest.raises(LearningError):
            transformation_from_name("mystery(x)")


class TestPIBRoundTrip:
    def make_trained_pib(self, contexts=120, seed=0):
        graph = g_a()
        distribution = IndependentDistribution(graph, intended_probabilities())
        pib = PIB(graph, delta=0.05, initial_strategy=theta_1(graph))
        pib.run(distribution.sampler(random.Random(seed)), contexts)
        return graph, distribution, pib

    def test_state_roundtrip_preserves_everything(self):
        graph, _, pib = self.make_trained_pib()
        restored = pib_from_dict(graph, pib_to_dict(pib))
        assert restored.strategy.arc_names() == pib.strategy.arc_names()
        assert restored.total_tests == pib.total_tests
        assert restored.contexts_processed == pib.contexts_processed
        assert restored.retrieval_statistics.frequencies() == \
            pib.retrieval_statistics.frequencies()
        assert [a.total for a in restored._accumulators] == \
            [a.total for a in pib._accumulators]
        assert restored.history == pib.history

    def test_restored_learner_continues_identically(self):
        graph, distribution, pib = self.make_trained_pib(contexts=100)
        restored = pib_from_dict(graph, pib_to_dict(pib))
        # Feeding both the same continuation stream produces the same
        # climbs and final strategy.
        stream_a = distribution.sampler(random.Random(99))
        stream_b = distribution.sampler(random.Random(99))
        for _ in range(400):
            pib.process(stream_a())
            restored.process(stream_b())
        assert restored.strategy.arc_names() == pib.strategy.arc_names()
        assert restored.climbs == pib.climbs

    def test_save_load_file(self, tmp_path):
        graph, _, pib = self.make_trained_pib()
        path = tmp_path / "pib.json"
        save_pib(pib, str(path))
        # The file is real, inspectable JSON.
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        restored = load_pib(graph, str(path))
        assert restored.strategy.arc_names() == pib.strategy.arc_names()

    def test_version_mismatch_rejected(self):
        graph, _, pib = self.make_trained_pib(contexts=5)
        payload = pib_to_dict(pib)
        payload["version"] = 999
        with pytest.raises(LearningError):
            pib_from_dict(graph, payload)

    def test_unknown_arc_in_counters_rejected(self):
        graph, _, pib = self.make_trained_pib(contexts=5)
        payload = pib_to_dict(pib)
        payload["retrieval_statistics"]["attempts"]["Dzz"] = 3
        with pytest.raises(LearningError):
            pib_from_dict(graph, payload)

    def test_unknown_accumulator_rejected(self):
        graph, _, pib = self.make_trained_pib(contexts=5)
        payload = pib_to_dict(pib)
        payload["accumulators"].append(
            {"transformation": "swap(Ra,Rb)", "total": 0.0, "samples": 0}
        )
        with pytest.raises(LearningError):
            pib_from_dict(graph, payload)


V1_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "pib_checkpoint_v1.json"
)


class TestFormatMigration:
    """v1 checkpoints (pre-drift) must keep loading forever."""

    def test_migrate_v1_payload(self):
        with open(V1_FIXTURE) as handle:
            payload = json.load(handle)
        assert payload["version"] == 1
        migrated = migrate_payload(payload)
        assert migrated["version"] == 2
        assert migrated["drift"] is None
        # The input payload is not mutated.
        assert payload["version"] == 1
        assert "drift" not in payload

    def test_v2_payload_passes_through(self):
        graph = g_a()
        pib = PIB(graph, initial_strategy=theta_1(graph))
        payload = pib_to_dict(pib)
        assert migrate_payload(payload) is payload

    def test_unknown_version_rejected(self):
        with pytest.raises(LearningError):
            migrate_payload({"version": 999})

    def test_load_committed_v1_fixture(self):
        graph = g_a()
        restored = load_pib(graph, V1_FIXTURE)
        assert list(restored.strategy.arc_names()) == ["Rg", "Dg", "Rp", "Dp"]
        assert restored.contexts_processed == 400
        assert restored.climbs == 1
        # Saving the migrated learner produces a v2 payload.
        assert pib_to_dict(restored)["version"] == 2

    def test_load_v1_fixture_as_drift_aware(self):
        graph = g_a()
        restored = load_pib(graph, V1_FIXTURE, drift=DriftConfig())
        assert isinstance(restored, DriftAwarePIB)
        assert restored.epoch == 0
        assert restored.drift_alarms == []
        assert list(restored.strategy.arc_names()) == ["Rg", "Dg", "Rp", "Dp"]


class TestDriftRoundTrip:
    def make_trained_drift_pib(self, contexts=150, seed=3):
        graph = g_a()
        distribution = IndependentDistribution(
            graph, intended_probabilities()
        )
        pib = DriftAwarePIB(
            graph, delta=0.05, initial_strategy=theta_1(graph),
            drift=DriftConfig(delta=0.05),
        )
        pib.run(distribution.sampler(random.Random(seed)), contexts)
        return graph, distribution, pib

    def test_roundtrip_is_byte_identical(self):
        graph, _, pib = self.make_trained_drift_pib()
        payload = pib_to_dict(pib)
        restored = pib_from_dict(graph, payload)
        assert isinstance(restored, DriftAwarePIB)
        assert json.dumps(pib_to_dict(restored), sort_keys=True) == \
            json.dumps(payload, sort_keys=True)

    def test_epoch_state_survives(self):
        graph, _, pib = self.make_trained_drift_pib()
        # Force an epoch so the interesting fields are non-trivial.
        pib._begin_epoch(["test"])
        restored = pib_from_dict(graph, pib_to_dict(pib))
        assert restored.epoch == pib.epoch == 1
        assert restored.total_tests == 0
        assert len(restored.drift_alarms) == 1
        assert restored.drift_alarms[0].sources == ("test",)
        assert restored.last_known_good.arc_names() == \
            pib.last_known_good.arc_names()
        # The standing rollback accumulator is rebuilt too (the
        # last-known-good equals the current strategy here, so none).
        rollbacks = [
            a for a in restored._accumulators
            if a.transformation.name == "rollback"
        ]
        expected = [
            a for a in pib._accumulators
            if a.transformation.name == "rollback"
        ]
        assert len(rollbacks) == len(expected)

    def test_drift_checkpoint_loads_without_config(self, tmp_path):
        """A drift checkpoint carries its config: plain load restores a
        DriftAwarePIB."""
        graph, _, pib = self.make_trained_drift_pib(contexts=40)
        path = tmp_path / "drift.json"
        save_pib(pib, str(path))
        restored = load_pib(graph, str(path))
        assert isinstance(restored, DriftAwarePIB)
        assert restored.drift_config == pib.drift_config

    def test_restored_drift_learner_continues_identically(self):
        graph, distribution, pib = self.make_trained_drift_pib(contexts=80)
        restored = pib_from_dict(graph, pib_to_dict(pib))
        stream_a = distribution.sampler(random.Random(77))
        stream_b = distribution.sampler(random.Random(77))
        for _ in range(300):
            pib.process(stream_a())
            restored.process(stream_b())
        assert restored.strategy.arc_names() == pib.strategy.arc_names()
        assert restored.climbs == pib.climbs
        assert restored.epoch == pib.epoch

    def test_checkpoint_with_retired_config_keys_resumes_identically(
        self, tmp_path
    ):
        """Checkpoints once stored ten tuning keys under ``drift.config``;
        only ``delta`` and ``detector`` are still settable, and the
        other eight always held these defaults.  Such a file must resume
        exactly like one that stores the two keys alone."""
        graph, distribution, pib = self.make_trained_drift_pib()
        pib._begin_epoch(["test"])
        current = tmp_path / "current.json"
        save_pib(pib, str(current))
        legacy_payload = pib_to_dict(pib)
        legacy_payload["drift"]["config"] = {
            "delta": 0.05,
            "detector": "window",
            "max_window": 400,
            "check_every": 8,
            "min_side": 20,
            "tolerance": 0.0,
            "cooldown": 50,
            "monitor_costs": True,
            "monitor_arcs": True,
            "frequency_window": 200,
        }
        legacy = tmp_path / "legacy.json"
        write_checked_json(str(legacy), legacy_payload)
        resumed = []
        for path in (current, legacy):
            learner = load_pib(graph, str(path))
            # A flip after 300 contexts makes the detectors alarm.
            stream = PiecewiseStationaryDistribution(graph, [
                (300, distribution),
                (None, IndependentDistribution(
                    graph, {"Dp": 0.75, "Dg": 0.05}
                )),
            ])
            learner.run(stream.sampler(random.Random(91)), 1200)
            resumed.append(learner)
        fresh, old = resumed
        assert old.drift_config == fresh.drift_config
        assert fresh.epoch > 1  # the drift path actually ran
        assert old.epoch == fresh.epoch
        assert old.total_tests == fresh.total_tests
        assert old.strategy.arc_names() == fresh.strategy.arc_names()
        assert [(a.transformation.name, a.total, a.samples)
                for a in old._accumulators] == \
               [(a.transformation.name, a.total, a.samples)
                for a in fresh._accumulators]
        assert json.dumps(pib_to_dict(old), sort_keys=True) == \
            json.dumps(pib_to_dict(fresh), sort_keys=True)
