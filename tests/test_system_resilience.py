"""Processor-level resilience: graceful degradation, incident
reporting, and checkpoint restore across processor instances."""

import os
import random

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.errors import RetrievalFaultError
from repro.observability import Tracer
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    FlakyDatabase,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.serving import SessionConfig
from repro.system import SelfOptimizingQueryProcessor
from repro.workloads import university_rule_base

FACTS = """
prof(manolis).
grad(russ).
grad(lena).
"""


def flaky_db(plan):
    return FlakyDatabase(Database.from_program(FACTS), plan)


def policy(**overrides):
    base = dict(retry=RetryPolicy(max_attempts=3, base_backoff=0.1), seed=0)
    base.update(overrides)
    return ResiliencePolicy(**base)


class TestGracefulDegradation:
    def test_faulty_database_never_raises(self):
        """Acceptance-adjacent: under persistent chaos, every query is
        answered (possibly degraded), none raises."""
        plan = FaultPlan(seed=5, per_arc={
            "prof": FaultSpec(fault_rate=0.4),
            "grad": FaultSpec(fault_rate=0.3, fail_first=3),
        })
        processor = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(resilience=policy()),
        )
        database = flaky_db(plan)
        rng = random.Random(1)
        degraded = 0
        for _ in range(80):
            who = rng.choice(["manolis", "russ", "lena", "ghost"])
            answer = processor.query(
                parse_query(f"instructor({who})"), database
            )
            degraded += answer.degraded
            if who == "manolis" and not answer.degraded:
                assert answer.proved
        assert degraded > 0  # chaos actually bit
        report = processor.report()
        form = report["instructor^(b)"]
        assert form["incidents"]  # and was recorded
        assert report["resilience"]["faults"] > 0

    def test_deadline_expiry_returns_degraded_answer(self):
        """Acceptance: a query whose retries blow the deadline returns a
        degraded-but-answered SystemAnswer — it never raises."""
        plan = FaultPlan(seed=0, per_arc={
            "prof": FaultSpec(fail_first=2),
        })
        processor = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(resilience=policy(
                retry=RetryPolicy(max_attempts=3, base_backoff=1.0),
                deadline=2.5,
            )),
        )
        answer = processor.query(
            parse_query("instructor(manolis)"), flaky_db(plan)
        )
        assert answer.degraded
        assert answer.proved  # the SLD fallback still found the proof
        assert "deadline expired" in answer.incident
        assert processor.resilience.deadline_expiries >= 1

    def test_degraded_no_answer_when_faults_mask_proof(self):
        """A clean run's 'no' is trusted; a fault-masked 'no' is
        re-derived through the fallback."""
        plan = FaultPlan(seed=0, per_arc={
            "prof": FaultSpec(fail_first=99),  # prof arc never settles
        })
        processor = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(
                resilience=policy(retry=RetryPolicy(max_attempts=2))
            ),
        )
        answer = processor.query(
            parse_query("instructor(manolis)"), flaky_db(plan)
        )
        # manolis is a prof; the learned path lost that arc to faults,
        # but the fallback (whose prof draws also fault... eventually
        # settle across retries) decides
        assert answer.degraded or answer.proved

    def test_fault_free_resilient_path_matches_plain(self):
        clean = Database.from_program(FACTS)
        plain = SelfOptimizingQueryProcessor(university_rule_base())
        hardened = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(resilience=policy()),
        )
        for who in ["manolis", "russ", "ghost"]:
            query = parse_query(f"instructor({who})")
            a = plain.query(query, clean)
            b = hardened.query(query, clean)
            assert a.proved == b.proved
            assert a.cost == b.cost
            assert not b.degraded


class TestCheckpointing:
    def test_periodic_checkpoints_written(self, tmp_path):
        processor = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(
                checkpoint_dir=str(tmp_path), checkpoint_every=10
            ),
        )
        database = Database.from_program(FACTS)
        for i in range(25):
            processor.query(parse_query("instructor(russ)"), database)
        report = processor.report()["instructor^(b)"]
        assert report["checkpoint"]["written"] >= 2
        assert os.path.exists(report["checkpoint"]["path"])

    def test_new_processor_resumes_from_checkpoint(self, tmp_path):
        """Acceptance: a restarted processor picks each learner up
        exactly where the dead one stopped."""
        rules = university_rule_base()
        database = Database.from_program(FACTS)
        query = parse_query("instructor(russ)")

        first = SelfOptimizingQueryProcessor(
            rules,
            config=SessionConfig(
                checkpoint_dir=str(tmp_path), checkpoint_every=5
            ),
        )
        for _ in range(20):
            first.query(query, database)
        first.checkpoint_now()
        dead_state = next(iter(first._states.values()))
        dead_tests = dead_state.learner.total_tests
        dead_strategy = dead_state.learner.strategy.arc_names()

        second = SelfOptimizingQueryProcessor(
            rules,
            config=SessionConfig(
                checkpoint_dir=str(tmp_path), checkpoint_every=5
            ),
        )
        second.query(query, database)  # triggers lazy compile + restore
        live_state = next(iter(second._states.values()))
        assert live_state.restored
        assert live_state.learner.strategy.arc_names() == dead_strategy
        # one more query was processed since the restore
        assert live_state.learner.contexts_processed \
            == dead_state.learner.contexts_processed + 1
        assert live_state.learner.total_tests >= dead_tests
        assert second.report()["instructor^(b)"]["checkpoint"]["restored"]

    def test_corrupt_checkpoint_degrades_to_fresh_learner(self, tmp_path):
        rules = university_rule_base()
        database = Database.from_program(FACTS)
        query = parse_query("instructor(russ)")
        path = os.path.join(str(tmp_path), "instructor_b.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        processor = SelfOptimizingQueryProcessor(
            rules, config=SessionConfig(checkpoint_dir=str(tmp_path))
        )
        answer = processor.query(query, database)
        assert answer.proved
        report = processor.report()["instructor^(b)"]
        assert not report["checkpoint"]["restored"]
        assert any("recovery failed" in i for i in report["incidents"])

    def test_checkpoint_every_validated(self):
        with pytest.raises(ValueError):
            SelfOptimizingQueryProcessor(
                university_rule_base(),
                config=SessionConfig(checkpoint_every=0),
            )


class TestUncompilableFallbackHardening:
    def test_flaky_fallback_degrades_not_raises(self):
        """Forms that never compile take the SLD path; under a policy
        that path also retries through faults instead of raising."""
        rules = parse_program(
            "taught_by(X, Y) :- course(X), teaches(Y, X)."
        )
        plan = FaultPlan(seed=0, per_arc={
            "course": FaultSpec(fault_rate=0.5),
        })
        database = FlakyDatabase(
            Database.from_program("course(pods). teaches(greiner, pods)."),
            plan,
        )
        processor = SelfOptimizingQueryProcessor(
            rules,
            config=SessionConfig(
                resilience=policy(retry=RetryPolicy(max_attempts=8))
            ),
        )
        for _ in range(20):
            answer = processor.query(
                parse_query("taught_by(pods, greiner)"), database
            )
            assert answer.proved or answer.degraded
            assert not answer.learned

    def test_failed_fallback_reaches_the_tracer(self):
        """An uncompilable form whose every fallback attempt faults
        records its incident on the recorder, once."""
        rules = parse_program(TC_RULES)
        plan = FaultPlan(seed=0, per_arc={"e": FaultSpec(fail_first=99)})
        tracer = Tracer()
        processor = SelfOptimizingQueryProcessor(
            rules,
            config=SessionConfig(
                resilience=policy(retry=RetryPolicy(max_attempts=2))
            ),
            recorder=tracer,
        )
        answer = processor.query(
            parse_query("tc(a, c)"),
            FlakyDatabase(Database.from_program(TC_FACTS), plan),
        )
        assert answer.degraded and not answer.proved
        assert answer.incident.startswith("fallback faulted 2x: ")
        incidents = tracer.events_of("incident")
        assert [event["description"] for event in incidents] == [
            answer.incident
        ]


TC_RULES = """
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
"""
TC_FACTS = "e(a, b). e(b, c)."


class TestNoPolicyFaultsPropagate:
    """Without a resilience policy nothing absorbs a storage fault: it
    propagates out of ``query`` on the learned path and the fallback
    alike, and no incident is recorded."""

    @pytest.mark.parametrize("rules, facts, text, relation", [
        (None, FACTS, "instructor(manolis)", "prof"),
        (TC_RULES, TC_FACTS, "tc(a, c)", "e"),
    ], ids=["learned", "fallback"])
    def test_fault_propagates_without_incident(
        self, rules, facts, text, relation
    ):
        rule_base = (university_rule_base() if rules is None
                     else parse_program(rules))
        plan = FaultPlan(seed=0, per_arc={relation: FaultSpec(fail_first=1)})
        tracer = Tracer()
        processor = SelfOptimizingQueryProcessor(rule_base, recorder=tracer)
        with pytest.raises(RetrievalFaultError):
            processor.query(
                parse_query(text),
                FlakyDatabase(Database.from_program(facts), plan),
            )
        assert tracer.events_of("incident") == []
        assert not any(
            "incidents" in entry for entry in processor.report().values()
        )
