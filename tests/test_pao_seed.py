"""The PAO seed: a new form's first misses run QP^A, then PIB starts at
Θ₀ = Υ_AOT(G, p̂) with cold evidence."""

import os
import random

import pytest

import repro.system
from repro import CacheConfig, FederatedStore, ServingConfig, open_session
from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.rules import QueryForm
from repro.errors import CheckpointError, LearningError, ResilienceError
from repro.graphs.builder import build_inference_graph
from repro.learning.drift import DriftAwarePIB, DriftConfig
from repro.learning.pao import SEED_SAMPLES, seed_sampler
from repro.learning.pib import PIB
from repro.observability import Tracer
from repro.optimal.upsilon import upsilon_aot
from repro.persistence import pib_to_dict, save_pib
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    FlakyDatabase,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.serving import SessionConfig
from repro.strategies.strategy import Strategy
from repro.system import SelfOptimizingQueryProcessor
from repro.workloads import g_a, university_rule_base

FACTS = "prof(russ). grad(manolis). grad(lena)."
INSTRUCTOR = QueryForm("instructor", "b")
PEOPLE = ["manolis"] * 6 + ["russ"] * 2 + ["lena", "fred"]


def stream(count, seed=0):
    rng = random.Random(seed)
    return [parse_query(f"instructor({rng.choice(PEOPLE)})")
            for _ in range(count)]


def learner_of(processor, form=INSTRUCTOR):
    return processor._states[form].learner


def seed_counts(learner):
    """Everything a run that moves no counter must leave as it was."""
    sampler = learner.sampler
    return (sampler.contexts_processed, sampler.counters(),
            dict(sampler.reached), dict(sampler.attempts),
            learner.contexts_processed, learner.total_tests)


class TestSeedLifecycle:
    def test_misses_run_qpa_until_every_experiment_has_its_samples(self):
        processor = SelfOptimizingQueryProcessor(university_rule_base())
        database = Database.from_program(FACTS)
        processor.ensure_compiled(INSTRUCTOR)
        learner = learner_of(processor)
        sampler = learner.sampler
        assert learner.seed_report() == {
            "outstanding": {"D_prof": SEED_SAMPLES, "D_grad": SEED_SAMPLES}
        }
        ran = []
        for query in stream(200):
            if not learner.seeding:
                break
            aimed = learner.sampler.next_strategy()
            assert processor.strategy_for(INSTRUCTOR) is learner.strategy
            assert learner.strategy.arc_names() == aimed.arc_names()
            processor.query(query, database)
            ran.append(aimed)
        assert not learner.seeding
        # A simple disjunctive graph: every experiment was reached
        # SEED_SAMPLES times, and the runs alternated their aim.
        assert min(sampler.reached.values()) == SEED_SAMPLES
        assert {tuple(s.arc_names()) for s in ran} == {
            ("Rp", "D_prof", "Rg", "D_grad"), ("Rg", "D_grad", "Rp", "D_prof"),
        }
        seed = processor.report()["instructor^(b)"]["seed"]
        assert seed["contexts_used"] == len(ran)

    def test_theta0_is_upsilon_of_the_seed_estimates(self, monkeypatch):
        """Replaying the settled runs through a fresh QP^A gives the
        same p̂, and Θ₀ = Υ_AOT(G, p̂) with cold Δ̃ and δ-schedule."""
        runs = []
        execute = repro.system.execute

        def capturing(*args, **kwargs):
            result = execute(*args, **kwargs)
            runs.append(result.settled_result())
            return result

        monkeypatch.setattr(repro.system, "execute", capturing)
        processor = SelfOptimizingQueryProcessor(university_rule_base())
        database = Database.from_program(FACTS)
        queries = iter(stream(500))
        processor.query(next(queries), database)
        learner = learner_of(processor)
        while learner.seeding:
            processor.query(next(queries), database)

        replay = seed_sampler(learner.graph)
        for run in runs:
            assert not replay.done()
            replay.record(run)
        assert replay.done()
        estimates = replay.frequency_estimates()
        assert learner.seed_estimates == estimates
        theta0 = upsilon_aot(learner.graph, estimates)
        assert learner.strategy.arc_names() == theta0.arc_names()
        assert learner.contexts_processed == 0
        assert learner.total_tests == 0
        assert learner._accumulators
        assert all(acc.samples == 0 and acc.total == 0.0
                   for acc in learner._accumulators)

    def test_no_learner_sample_while_a_form_samples(self):
        tracer = Tracer()
        processor = SelfOptimizingQueryProcessor(
            university_rule_base(), recorder=tracer
        )
        database = Database.from_program(FACTS)
        for query in stream(150):
            processor.query(query, database)
        types = [event["type"] for event in tracer.events]
        budget, complete = types.index("pao_budget"), types.index("pao_complete")
        assert budget < complete
        assert "learner_sample" not in types[:complete]
        assert "learner_sample" in types[complete:]
        assert types.count("pao_budget") == types.count("pao_complete") == 1
        event = tracer.events_of("pao_complete")[0]
        assert event["estimates"] == learner_of(processor).seed_estimates
        assert tracer.events_of("pao_budget")[0]["requirements"] == {
            "D_prof": SEED_SAMPLES, "D_grad": SEED_SAMPLES,
        }

    def test_drift_aware_learner_is_seeded_and_its_detectors_see_no_seed_run(
        self,
    ):
        processor = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(drift=DriftConfig()),
        )
        database = Database.from_program(FACTS)
        queries = iter(stream(500))
        processor.query(next(queries), database)
        learner = learner_of(processor)
        assert isinstance(learner, DriftAwarePIB)
        while learner.seeding:
            processor.query(next(queries), database)
        assert learner.strategy.arc_names() == upsilon_aot(
            learner.graph, learner.seed_estimates).arc_names()
        assert learner._cost_detector.mean() == 0.0
        assert learner.retrieval_statistics.attempts == {
            "D_prof": 0, "D_grad": 0}
        assert learner.epoch == 0

    def test_only_a_seeded_learner_seeds(self):
        graph = g_a()
        assert not PIB(graph).seeding
        assert PIB(graph, seeded=True).seeding
        with pytest.raises(LearningError, match="seed"):
            PIB(graph, seeded=True,
                initial_strategy=Strategy.depth_first(graph))


class TestRunsThatMoveNoCounter:
    """A raised, faulted, deadline-expired or partial seed run is
    answered as a PIB run would be and counts toward nothing."""

    def seeding_processor(self, policy=None):
        processor = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(resilience=policy),
        )
        processor.query(parse_query("instructor(manolis)"),
                        Database.from_program(FACTS))
        assert learner_of(processor).seeding
        return processor

    def two_attempts(self, deadline=None):
        return ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff=1.0),
            deadline=deadline, seed=0,
        )

    def test_raised(self, monkeypatch):
        processor = self.seeding_processor(self.two_attempts())
        before = seed_counts(learner_of(processor))

        def raising(*args, **kwargs):
            raise ResilienceError("injected")

        monkeypatch.setattr(repro.system, "execute", raising)
        answer = processor.query(parse_query("instructor(russ)"),
                                 Database.from_program(FACTS))
        assert answer.proved and not answer.learned
        assert answer.incident.startswith("learned path raised")
        assert seed_counts(learner_of(processor)) == before

    def test_faulted(self):
        # ``prof`` faults through both attempts: the run is degraded, its
        # "no" is answered by the fallback, and the unsettled arc is no
        # sample.
        processor = self.seeding_processor(self.two_attempts())
        before = seed_counts(learner_of(processor))
        database = FlakyDatabase(
            Database.from_program(FACTS),
            FaultPlan(seed=0, per_arc={"prof": FaultSpec(fail_first=3)}),
        )
        answer = processor.query(parse_query("instructor(ghost)"), database)
        assert answer.incident.startswith("degraded no-answer")
        assert seed_counts(learner_of(processor)) == before

    def test_deadline_expired(self):
        processor = self.seeding_processor(self.two_attempts(deadline=2.5))
        before = seed_counts(learner_of(processor))
        database = FlakyDatabase(
            Database.from_program(FACTS),
            FaultPlan(seed=0, per_arc={"prof": FaultSpec(fail_first=2)}),
        )
        answer = processor.query(parse_query("instructor(russ)"), database)
        assert answer.incident.startswith("deadline expired")
        assert seed_counts(learner_of(processor)) == before

    def test_partial(self):
        processor = self.seeding_processor()
        before = seed_counts(learner_of(processor))
        probe = FederatedStore(Database.from_program(FACTS), shards=2, seed=0)
        owner = probe.shard_for(("grad", 1)).name
        store = FederatedStore(
            Database.from_program(FACTS), shards=2, seed=0,
            per_shard={owner: FaultSpec(fault_rate=1.0)},
        )
        answer = processor.query(parse_query("instructor(lena)"), store)
        assert answer.completeness.partial
        assert seed_counts(learner_of(processor)) == before


class TestSeedAndCheckpoints:
    def test_no_checkpoint_is_written_while_a_form_samples(self, tmp_path):
        # A form that checkpoints is never seeded, so every write holds
        # PIB state ...
        checkpointing = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(checkpoint_dir=str(tmp_path),
                                 checkpoint_every=1),
        )
        database = Database.from_program(FACTS)
        checkpointing.query(parse_query("instructor(russ)"), database)
        learner = learner_of(checkpointing)
        assert not learner.seeding and learner.seed_report() is None
        assert learner.strategy.arc_names() == \
            Strategy.depth_first(learner.graph).arc_names()
        assert checkpointing._states[INSTRUCTOR].checkpoints_written == 1
        # ... and a seeding learner refuses to be saved.
        seeding = SelfOptimizingQueryProcessor(university_rule_base())
        seeding.query(parse_query("instructor(russ)"), database)
        assert seeding.checkpoint_now() == 0
        with pytest.raises(CheckpointError, match="seed"):
            pib_to_dict(learner_of(seeding))

    def test_restored_after_the_seed_resumes_at_theta0(self, tmp_path):
        database = Database.from_program(FACTS)
        seeded = SelfOptimizingQueryProcessor(university_rule_base())
        queries = iter(stream(500, seed=3))
        seeded.query(next(queries), database)
        learner = learner_of(seeded)
        while learner.seeding:
            seeded.query(next(queries), database)
        theta0 = learner.strategy.arc_names()
        save_pib(learner, os.path.join(str(tmp_path), "instructor_b.json"))

        restored = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(checkpoint_dir=str(tmp_path)),
        )
        restored.query(next(queries), database)
        state = restored._states[INSTRUCTOR]
        assert state.restored
        assert not state.learner.seeding
        assert state.learner.strategy.arc_names() == theta0
        assert state.learner.contexts_processed == 1


def test_workers_1_and_4_give_byte_identical_outcomes():
    rules = parse_program("\n".join(
        f"f{form}(X) :- m{form}_{branch}(X).\n"
        f"m{form}_{branch}(X) :- leaf{form}_{branch}(X).\n"
        f"m{form}_{branch}(X) :- alt{form}_{branch}(X)."
        for form in range(4) for branch in range(3)
    ))
    facts = " ".join(f"leaf{form}_{branch}(c{index})."
                     for form in range(4) for branch in range(3)
                     for index in range(branch, 60, 4 + form))
    rng = random.Random(7)
    bursts = [[f"f{rng.randrange(4)}(c{rng.randrange(60)})"
               for _ in range(32)] for _ in range(12)]

    def serve(workers):
        with open_session(
            rules, Database.from_program(facts),
            cache=CacheConfig(answer_capacity=64),
            serving=ServingConfig(workers=workers),
        ) as session:
            outcomes = [
                (outcome.status, outcome.answer.proved, outcome.answer.cost,
                 outcome.answer.cached, outcome.latency)
                for burst in bursts
                for outcome in session.run_requests(burst)
            ]
            report = session.processor.report()
        return outcomes, repr(report)

    sequential = serve(1)
    assert sequential == serve(4)
    assert "contexts_used" in sequential[1]


def test_seed_graph_budget_matches_the_constant():
    graph = build_inference_graph(university_rule_base(), INSTRUCTOR)
    assert seed_sampler(graph).counters() == {
        "D_prof": SEED_SAMPLES, "D_grad": SEED_SAMPLES}
    assert seed_sampler(graph).count_mode == "reached"
