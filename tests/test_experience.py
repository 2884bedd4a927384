"""The cross-session experience store and its priors-only warm-start.

Covers the four layers of the subsystem bottom-up: structural
fingerprints (stable, hash-seed independent), the record store
(supersession, deterministic nearest-neighbour ranking, crash-safe
persistence with the ``.bak`` ladder), the warm-start mapping (exact
replay and positional rank transfer), and the session lifecycle
(contribute at close, warm-start on reopen) — plus the contract the
whole feature stands on: warm-starting changes Θ₀ and *nothing* else.
"""

import dataclasses
import json
import random
import warnings

import pytest

import repro
from repro.datalog.parser import parse_atom, parse_program
from repro.errors import CheckpointError
from repro.experience import (
    ExperienceRecord,
    ExperienceStore,
    form_profile,
    migrate_experience_payload,
    record_from_learner,
    similarity,
    warm_start,
)
from repro.graphs.inference_graph import GraphBuilder
from repro.learning.pib import PIB
from repro.persistence import read_checked_json
from repro.serving.config import ExperienceConfig, SessionConfig
from repro.workloads import g_a, intended_probabilities, theta_1
from repro.workloads.distributions import IndependentDistribution

RULES = """
@Rp instructor(X) :- prof(X).
@Rg instructor(X) :- grad(X).
"""

FACTS = "prof(russ). grad(manolis)."


def renamed_g_a():
    """``G_A``'s exact skeleton with every arc and node renamed — a
    structural twin whose arc names share nothing with the original
    (the goals keep their predicates, as a re-compiled form would)."""
    builder = GraphBuilder("goal")
    builder.reduction("redA", "goal", "armA", goal=parse_atom("prof(B0)"))
    builder.retrieval("fetchA", "armA", goal=parse_atom("prof(B0)"))
    builder.reduction("redB", "goal", "armB", goal=parse_atom("grad(B0)"))
    builder.retrieval("fetchB", "armB", goal=parse_atom("grad(B0)"))
    return builder.build()


def settled_record(seed=7, contexts=400, delta=0.2):
    """One cold university run distilled into a record."""
    graph = g_a()
    learner = PIB(graph, delta=delta, initial_strategy=theta_1(graph))
    dist = IndependentDistribution(graph, intended_probabilities())
    rng = random.Random(seed)
    for _ in range(contexts):
        learner.process(dist.sample(rng))
    return graph, learner, record_from_learner(
        form_profile(graph), "instructor/1", learner
    )


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert form_profile(g_a()) == form_profile(g_a())
        assert (
            form_profile(g_a()).fingerprint
            == form_profile(g_a()).fingerprint
        )

    def test_name_independent(self):
        # Structure drives the fingerprint: a renamed twin matches at
        # full pattern similarity even though no arc name survives.
        original = form_profile(g_a())
        twin = form_profile(renamed_g_a())
        assert similarity(original, twin) > 0.9

    def test_shape_sensitive(self):
        builder = GraphBuilder("goal")
        builder.reduction("r", "goal", "arm")
        builder.retrieval("d", "arm")
        lopsided = builder.build()
        assert (
            form_profile(g_a()).fingerprint
            != form_profile(lopsided).fingerprint
        )

    def test_self_similarity_is_one(self):
        profile = form_profile(g_a())
        assert similarity(profile, profile) == 1.0


class TestExperienceRecord:
    def test_rejects_bad_ranks(self):
        profile = form_profile(g_a())
        with pytest.raises(ValueError, match="permutation"):
            ExperienceRecord(
                fingerprint="f", form="f", regime=0,
                retrieval_names=("a", "b"), retrieval_ranks=(0, 2),
                delta_tilde=0.0, sample_count=1, profile=profile,
            )

    def test_rejects_misaligned_names(self):
        profile = form_profile(g_a())
        with pytest.raises(ValueError, match="align"):
            ExperienceRecord(
                fingerprint="f", form="f", regime=0,
                retrieval_names=("a",), retrieval_ranks=(0, 1),
                delta_tilde=0.0, sample_count=1, profile=profile,
            )

    def test_roundtrips_through_dict(self):
        _, _, record = settled_record(contexts=50)
        assert ExperienceRecord.from_dict(record.to_dict()) == record


class TestStore:
    def test_supersession_higher_regime_wins(self):
        _, _, record = settled_record(contexts=50)
        store = ExperienceStore()
        assert store.add(record)
        older_regime = dataclasses.replace(
            record, regime=0, sample_count=10_000
        )
        newer_regime = dataclasses.replace(
            record, regime=1, sample_count=1
        )
        assert store.add(newer_regime)
        # A mountain of stale-regime evidence never beats the reset.
        assert not store.add(older_regime)
        assert store.get(record.fingerprint).regime == 1

    def test_add_is_idempotent(self):
        _, _, record = settled_record(contexts=50)
        store = ExperienceStore()
        assert store.add(record)
        assert not store.add(record)  # double contribute: one write
        assert len(store) == 1

    def test_nearest_insertion_order_independent(self):
        records = []
        for seed in (1, 2, 3, 4):
            _, _, record = settled_record(seed=seed, contexts=30)
            records.append(
                dataclasses.replace(record, fingerprint=f"fp-{seed}")
            )
        forward, backward = ExperienceStore(), ExperienceStore()
        for record in records:
            forward.add(record)
        for record in reversed(records):
            backward.add(record)
        probe = form_profile(g_a())
        assert forward.nearest(probe, k=4) == backward.nearest(probe, k=4)

    def test_nearest_respects_floor_and_k(self):
        _, _, record = settled_record(contexts=30)
        store = ExperienceStore()
        store.add(record)
        probe = form_profile(g_a())
        assert store.nearest(probe, k=0) == []
        assert store.nearest(probe, floor=1.01) == []
        hits = store.nearest(probe, k=3, floor=0.5)
        assert len(hits) == 1 and hits[0].exact


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "exp.json")
        _, _, record = settled_record(contexts=50)
        store = ExperienceStore(path=path)
        store.add(record)
        assert store.save() == path
        reopened = ExperienceStore.open(path)
        assert reopened.records() == [record]
        assert not reopened.recovered

    def test_corrupt_main_falls_back_to_bak(self, tmp_path):
        path = str(tmp_path / "exp.json")
        _, _, record = settled_record(contexts=50)
        store = ExperienceStore(path=path)
        store.add(record)
        store.save()
        store.save()  # rotate the first save into .bak
        (tmp_path / "exp.json").write_text('{"torn":')
        reopened = ExperienceStore.open(path)
        assert reopened.records() == [record]
        assert not reopened.recovered

    def test_both_corrupt_degrades_to_empty(self, tmp_path):
        path = str(tmp_path / "exp.json")
        _, _, record = settled_record(contexts=50)
        store = ExperienceStore(path=path)
        store.add(record)
        store.save()
        store.save()
        (tmp_path / "exp.json").write_text("garbage")
        (tmp_path / "exp.json.bak").write_text("also garbage")
        reopened = ExperienceStore.open(path)
        assert reopened.recovered and len(reopened) == 0
        # A recovered store immediately heals on the next save.
        reopened.add(record)
        reopened.save()
        assert not ExperienceStore.open(path).recovered

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "exp.json")
        _, _, record = settled_record(contexts=50)
        store = ExperienceStore(path=path)
        store.add(record)
        store.save()
        payload = json.loads((tmp_path / "exp.json").read_text())
        payload["records"] = []
        (tmp_path / "exp.json").write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checked_json(path, "experience store")

    def test_missing_file_is_empty_store(self, tmp_path):
        store = ExperienceStore.open(str(tmp_path / "nope.json"))
        assert len(store) == 0 and not store.recovered

    def test_migration_stub_rejects_unknown_versions(self):
        with pytest.raises(CheckpointError, match="version"):
            migrate_experience_payload(
                {"format": "repro-experience", "version": 99}
            )
        with pytest.raises(CheckpointError, match="format"):
            migrate_experience_payload({"format": "pib-checkpoint"})


class TestWarmStart:
    def test_empty_store_starts_cold(self):
        assert warm_start(ExperienceStore(), form_profile(g_a()), g_a()) \
            is None

    def test_exact_hit_replays_names(self):
        graph, learner, record = settled_record()
        store = ExperienceStore()
        store.add(record)
        warm = warm_start(store, form_profile(graph), graph)
        assert warm is not None and warm.exact
        assert warm.strategy.arc_names() == learner.strategy.arc_names()

    def test_rank_transfer_onto_renamed_twin(self):
        # The twin shares no arc names, so transfer must go through
        # the positional ranks: the original settled on visiting its
        # second-declared retrieval first, and the twin's warm start
        # must do the same *by position*.
        _, learner, record = settled_record()
        store = ExperienceStore()
        store.add(record)
        twin = renamed_g_a()
        warm = warm_start(store, form_profile(twin), twin, floor=0.0)
        assert warm is not None
        settled = [a.name for a in learner.strategy.retrieval_order()]
        declared = [a.name for a in g_a().retrieval_arcs()]
        warm_order = [a.name for a in warm.strategy.retrieval_order()]
        twin_declared = [a.name for a in twin.retrieval_arcs()]
        expected = [
            twin_declared[declared.index(name)] for name in settled
        ]
        assert warm_order == expected

    def test_no_record_from_unused_learner(self):
        graph = g_a()
        learner = PIB(graph, delta=0.2)
        assert record_from_learner(
            form_profile(graph), "f", learner
        ) is None


class TestPriorsOnly:
    """Warm-start must change Θ₀ and nothing else."""

    def test_warm_run_answers_and_schedule_match_cold(self):
        graph, cold, record = settled_record()
        store = ExperienceStore()
        store.add(record)
        warm = warm_start(store, form_profile(graph), graph)
        dist = IndependentDistribution(graph, intended_probabilities())

        def run(initial):
            learner = PIB(graph, delta=0.2, initial_strategy=initial)
            rng = random.Random(7)
            proved, schedule = [], []
            for _ in range(400):
                proved.append(learner.process(dist.sample(rng)).succeeded)
                schedule.append(learner.total_tests)
            return learner, proved, schedule

        cold_rerun, cold_proved, cold_schedule = run(theta_1(graph))
        warm_learner, warm_proved, warm_schedule = run(warm.strategy)
        assert cold_rerun.climbs == cold.climbs
        # Identical answers and an identical Equation 6 test cadence:
        # the schedule is untouched, only Θ₀ moved.
        assert warm_proved == cold_proved
        assert warm_schedule == cold_schedule
        assert warm_learner.climbs == 0  # already at the settled winner
        assert (
            warm_learner.strategy.arc_names() == cold.strategy.arc_names()
        )

    def test_warm_learner_starts_with_cold_counters(self):
        graph, _, record = settled_record()
        store = ExperienceStore()
        store.add(record)
        warm = warm_start(store, form_profile(graph), graph)
        learner = PIB(graph, delta=0.2, initial_strategy=warm.strategy)
        assert learner.total_tests == 0
        assert learner.contexts_processed == 0
        assert learner.history == []


class TestExperienceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperienceConfig(neighbour_k=0)
        with pytest.raises(ValueError):
            ExperienceConfig(similarity_floor=1.5)
        with pytest.raises(ValueError):
            ExperienceConfig(pattern_weight=0.0, similarity_weight=0.0)
        with pytest.raises(ValueError):
            ExperienceConfig(pattern_weight=-0.1)

    def test_from_options_wires_experience(self):
        config = SessionConfig.from_options(
            experience=True, experience_path="x.json",
            experience_neighbours=5,
        )
        assert config.experience == ExperienceConfig(
            path="x.json", neighbour_k=5
        )

    def test_from_options_path_implies_enabled(self):
        config = SessionConfig.from_options(experience_path="x.json")
        assert config.experience == ExperienceConfig(path="x.json")

    def test_passed_config_opens_the_store(self, tmp_path):
        # A config object is the switch: there is no separate flag
        # that could leave a configured store silently closed.
        path = str(tmp_path / "exp.json")
        processor = repro.SelfOptimizingQueryProcessor(
            parse_program(RULES),
            config=SessionConfig(experience=ExperienceConfig(path=path)),
        )
        assert processor.experience_store is not None
        assert processor.report()["experience"]["path"] == path

    def test_from_options_off_by_default(self):
        assert SessionConfig.from_options().experience is None

    def test_with_overrides(self):
        base = SessionConfig()
        changed = base.with_overrides(
            experience=ExperienceConfig(path="x.json")
        )
        assert changed.experience.path == "x.json"
        assert base.experience is None


class TestLegacyKeyword:
    """``experience=`` on the processor was deprecated in favour of
    ``SessionConfig.experience`` and then removed."""

    def test_experience_kwarg_warns(self):
        # The deprecation warning ended in removal: the keyword is now
        # a hard error, not a warning that can be filtered away.
        rules = parse_program(RULES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match="experience"):
                repro.SelfOptimizingQueryProcessor(
                    rules, experience=ExperienceConfig()
                )

    def test_mixing_with_config_raises(self):
        rules = parse_program(RULES)
        with pytest.raises(TypeError, match="experience"):
            repro.SelfOptimizingQueryProcessor(
                rules,
                config=SessionConfig(),
                experience=ExperienceConfig(),
            )


class TestSessionLifecycle:
    @pytest.fixture
    def kb(self, tmp_path):
        rules = tmp_path / "kb.dl"
        facts = tmp_path / "db.dl"
        rules.write_text(RULES)
        facts.write_text(FACTS)
        return str(rules), str(facts)

    def _config(self, tmp_path):
        return SessionConfig(
            experience=ExperienceConfig(
                path=str(tmp_path / "exp.json")
            )
        )

    def test_close_contributes_and_reopen_warmstarts(self, kb, tmp_path):
        rules, facts = kb
        config = self._config(tmp_path)
        with repro.open_session(rules, facts, config=config) as session:
            for _ in range(3):
                session.query("instructor(X)?")
        store = ExperienceStore.open(str(tmp_path / "exp.json"))
        assert len(store) == 1

        with repro.open_session(rules, facts, config=config) as session:
            session.query("instructor(X)?")
            report = session.processor.report()
        entry = report["instructor^(f)"]
        assert entry["warmstart"]["exact"] is True
        assert entry["warmstart"]["similarity"] == 1.0
        assert report["experience"]["records"] == 1

    def test_disabled_reports_no_experience(self, kb):
        rules, facts = kb
        with repro.open_session(rules, facts) as session:
            session.query("instructor(X)?")
            report = session.processor.report()
        assert "experience" not in report
        assert session.processor.experience_store is None

    def test_disabled_is_byte_identical(self, kb, tmp_path):
        # The whole feature behind one switch: with the store off, the
        # report (answers, strategies, climbs) is byte-identical to a
        # build that has never heard of experience.
        rules, facts = kb

        def transcript(config):
            with repro.open_session(rules, facts, config=config) as s:
                answers = [
                    (a.proved, str(a.substitution), a.cost)
                    for a in (s.query("instructor(X)?") for _ in range(4))
                ]
                report = s.processor.report()
            for entry in report.values():
                if isinstance(entry, dict):
                    entry.pop("warmstart", None)
            report.pop("experience", None)
            return answers, json.dumps(report, sort_keys=True, default=str)

        assert transcript(None) == transcript(self._config(tmp_path))
