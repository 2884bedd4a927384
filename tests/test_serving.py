"""The serving layer: caches, server, session, and determinism.

Covers the two cache tiers (LRU bounds, generation-keyed coherence),
the form-sharded :class:`QueryServer`, the :class:`QuerySession`
facade, and — under the ``serving_determinism`` marker — the layer's
two determinism contracts:

* ``workers == 1`` with caches off is byte-identical (trace + report)
  to a plain sequential ``processor.query`` loop;
* parallel batches take exactly the same per-form climb decisions as
  the sequential run, because each form's queries stay serialized in
  submission order under the form's lock.
"""

import json

import pytest

from repro import (
    CacheConfig,
    SelfOptimizingQueryProcessor,
    ServingConfig,
    SessionConfig,
    Tracer,
    open_session,
)
from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.rules import QueryForm
from repro.errors import ReproError
from repro.serving.cache import AnswerCache, LRUTable, SubgoalMemo
from repro.serving.cache import _MISS
from repro.strategies import ExecutionResult
from repro.workloads import db1, university_rule_base

RULES = """
@Rp instructor(X) :- prof(X).
@Rg instructor(X) :- grad(X).
@Sp senior(X) :- prof(X).
@Sd senior(X) :- dean(X).
"""

FACTS = "prof(russ). grad(manolis). grad(lena). dean(ullman)."


def make_db() -> Database:
    return Database.from_program(FACTS)


class CountingDatabase(Database):
    """A database that counts physical ``succeeds`` probes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probes = 0

    def succeeds(self, pattern):
        self.probes += 1
        return super().succeeds(pattern)


class TestLRUTable:
    def test_eviction_at_capacity(self):
        table = LRUTable(2, "answer")
        table.put("a", 1)
        table.put("b", 2)
        table.put("c", 3)
        assert len(table) == 2
        assert table.stats.evictions == 1
        assert table.get("a") is _MISS  # the LRU entry fell out
        assert table.get("c") == 3

    def test_lookup_refreshes_recency(self):
        table = LRUTable(2, "answer")
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")  # touch: "b" becomes LRU
        table.put("c", 3)
        assert table.get("a") == 1
        assert table.get("b") is _MISS

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUTable(0, "answer")

    def test_counters(self):
        table = LRUTable(4, "answer")
        table.put("a", 1)
        table.get("a")
        table.get("missing")
        assert table.stats.hits == 1
        assert table.stats.misses == 1
        assert table.stats.hit_rate == 0.5


class TestDatabaseGeneration:
    def test_generation_bumps_on_mutation(self):
        database = make_db()
        before = database.generation
        database.add(parse_query("prof(greiner)"))
        assert database.generation == before + 1
        database.remove(parse_query("prof(greiner)"))
        assert database.generation == before + 2

    def test_noop_mutations_do_not_bump(self):
        database = make_db()
        before = database.generation
        database.add(parse_query("prof(russ)"))  # already present
        database.remove(parse_query("prof(nobody)"))  # absent
        assert database.generation == before

    def test_cache_keys_distinct_across_databases(self):
        assert make_db().cache_key != make_db().cache_key


class TestAnswerCache:
    def test_hit_is_zero_cost_and_flagged(self):
        processor = SelfOptimizingQueryProcessor(parse_program(RULES))
        database = make_db()
        cache = AnswerCache(8)
        query = parse_query("instructor(manolis)")
        answer = processor.query(query, database)
        assert cache.store(query, database, answer)
        cached = cache.lookup(query, database)
        assert cached.proved == answer.proved
        assert cached.cost == 0.0
        assert cached.cached and not answer.cached

    def test_mutation_invalidates(self):
        processor = SelfOptimizingQueryProcessor(parse_program(RULES))
        database = make_db()
        cache = AnswerCache(8)
        query = parse_query("instructor(manolis)")
        cache.store(query, database, processor.query(query, database))
        assert cache.lookup(query, database) is not None
        database.add(parse_query("prof(greiner)"))
        assert cache.lookup(query, database) is None

    def test_degraded_answers_refused(self):
        from repro.system import SystemAnswer
        from repro.datalog.terms import Substitution

        degraded = SystemAnswer(
            proved=False, substitution=Substitution(), cost=1.0,
            learned=False, degraded=True, incident="deadline",
        )
        cache = AnswerCache(8)
        assert not cache.store(
            parse_query("instructor(x)"), make_db(), degraded
        )
        assert cache.lookup(parse_query("instructor(x)"), make_db()) is None


class TestSubgoalMemo:
    def test_memo_skips_physical_probes(self):
        database = CountingDatabase(make_db())
        with open_session(
            parse_program(RULES),
            database,
            cache=CacheConfig(subgoal_capacity=64),
        ) as session:
            session.query("instructor(fred)")  # unprovable: probes both arcs
            cold = database.probes
            assert cold > 0
            session.query("instructor(fred)")
            assert database.probes == cold  # warm run: memo answered

    def test_memo_respects_generation(self):
        database = CountingDatabase(make_db())
        with open_session(
            parse_program(RULES),
            database,
            cache=CacheConfig(subgoal_capacity=64),
        ) as session:
            assert not session.query("instructor(fred)").proved
            database.add(parse_query("prof(fred)"))
            assert session.query("instructor(fred)").proved

    def test_variable_renaming_shares_entries(self):
        memo = SubgoalMemo(8)
        database = make_db()
        memo.store(parse_query("prof(X)"), database, True)
        assert memo.lookup(parse_query("prof(Y)"), database) is True

    def test_repeated_variables_do_not_collide(self):
        """``e(X, X)`` asks a stricter question than ``e(X, Y)``.

        Regression: the memo key used to erase all variable identity,
        so a failed ``e(X, X)`` probe poisoned ``e(X, Y)`` — found by
        the verify subsystem's cache-transparency oracle (serving
        profile, seed 6).
        """
        memo = SubgoalMemo(8)
        database = make_db()
        memo.store(parse_query("advises(X, X)"), database, False)
        assert memo.lookup(parse_query("advises(X, Y)"), database) is None
        memo.store(parse_query("advises(X, Y)"), database, True)
        assert memo.lookup(parse_query("advises(A, B)"), database) is True
        assert memo.lookup(parse_query("advises(A, A)"), database) is False
        # Repetition *pattern* is shared, names are not.
        assert memo.lookup(parse_query("advises(Z, Z)"), database) is False


class TestQueryServer:
    def test_batch_results_align_with_input_order(self):
        queries = [
            parse_query("instructor(manolis)"),
            parse_query("senior(ullman)"),
            parse_query("instructor(nobody)"),
            parse_query("senior(russ)"),
        ]
        with open_session(
            parse_program(RULES), make_db(),
            serving=ServingConfig(workers=4),
        ) as session:
            answers = session.query_batch(queries)
        assert [a.proved for a in answers] == [True, True, False, True]

    def test_answer_cache_bypasses_learner(self):
        with open_session(
            parse_program(RULES), make_db(),
            cache=CacheConfig(answer_capacity=8),
        ) as session:
            session.query("instructor(manolis)")
            state = next(iter(session.processor._states.values()))
            contexts = state.learner.contexts_processed
            answer = session.query("instructor(manolis)")
            assert answer.cached
            assert state.learner.contexts_processed == contexts

    def test_snapshot_counts(self):
        with open_session(
            parse_program(RULES), make_db(),
            cache=CacheConfig(answer_capacity=8),
        ) as session:
            session.query_batch(
                [parse_query("instructor(manolis)")] * 3
            )
            snapshot = session.server.snapshot()
        assert snapshot["batches"] == 1
        assert snapshot["queries_served"] == 3
        assert snapshot["cached_answers"] == 2
        assert snapshot["answer_cache"]["hits"] == 2

    def test_uncached_server_adds_no_snapshot_tiers(self):
        with open_session(parse_program(RULES), make_db()) as session:
            session.query("instructor(manolis)")
            snapshot = session.server.snapshot()
        assert "answer_cache" not in snapshot
        assert "subgoal_memo" not in snapshot


class TestQuerySession:
    def test_string_and_atom_queries(self):
        with open_session(parse_program(RULES), make_db()) as session:
            assert session.query("instructor(manolis)?").proved
            assert session.query(parse_query("instructor(manolis)")).proved

    def test_paths_accepted(self, tmp_path):
        rules_file = tmp_path / "kb.dl"
        rules_file.write_text(RULES)
        facts_file = tmp_path / "db.dl"
        facts_file.write_text(FACTS)
        with open_session(str(rules_file), str(facts_file)) as session:
            assert session.query("instructor(manolis)").proved

    def test_requires_database(self):
        with open_session(parse_program(RULES)) as session:
            with pytest.raises(ReproError, match="no database"):
                session.query("instructor(manolis)")
            # per-call database works
            assert session.query("instructor(manolis)", make_db()).proved

    def test_closed_session_refuses_queries(self):
        session = open_session(parse_program(RULES), make_db())
        session.close()
        assert session.closed
        with pytest.raises(ReproError, match="closed"):
            session.query("instructor(manolis)")

    def test_close_flushes_checkpoints(self, tmp_path):
        with open_session(
            parse_program(RULES), make_db(),
            config=SessionConfig(
                checkpoint_dir=str(tmp_path), checkpoint_every=1000
            ),
        ) as session:
            session.query("instructor(manolis)")
        assert list(tmp_path.glob("*.json"))

    def test_learn_from_stream_iterable(self):
        stream = [
            "instructor(manolis)?",
            "   % a comment line",
            "",
            "instructor(russ)?  % trailing comment",
            "senior(ullman)?",
        ]
        with open_session(parse_program(RULES), make_db()) as session:
            report = session.learn_from_stream(stream)
        assert report.queries == 3
        assert report.degraded == 0
        assert report.mean_cost > 0

    def test_learn_from_stream_path(self, tmp_path):
        stream_file = tmp_path / "stream.txt"
        stream_file.write_text("instructor(manolis)?\ninstructor(russ)?\n")
        with open_session(parse_program(RULES), make_db()) as session:
            report = session.learn_from_stream(str(stream_file))
        assert report.queries == 2

    def test_on_answer_callback(self):
        seen = []
        with open_session(parse_program(RULES), make_db()) as session:
            session.learn_from_stream(
                ["instructor(manolis)?"],
                on_answer=lambda n, text, answer: seen.append((n, text)),
            )
        assert seen == [(1, "instructor(manolis)?")]

    def test_report_includes_serving(self):
        with open_session(parse_program(RULES), make_db()) as session:
            session.query("instructor(manolis)")
            report = session.report()
        assert report["serving"]["queries_served"] == 1
        assert "instructor^(b)" in report


class TestExecutionOutcome:
    """Plain and policy runs share one result type; only a policy run
    carries a settled view distinct from itself."""

    def test_plain_result_satisfies_protocol(self):
        from repro.strategies import execute
        from repro.graphs.contexts import LazyDatalogContext
        from repro.graphs.builder import build_inference_graph

        rules = university_rule_base()
        graph = build_inference_graph(rules, QueryForm("instructor", "b"))
        processor = SelfOptimizingQueryProcessor(rules)
        processor.ensure_compiled(QueryForm("instructor", "b"))
        strategy = processor.strategy_for(QueryForm("instructor", "b"))
        context = LazyDatalogContext(
            graph, parse_query("instructor(manolis)"), db1()
        )
        result = execute(strategy, context)
        assert isinstance(result, ExecutionResult)
        assert result.settled_result() is result
        assert not result.degraded

    def test_resilient_result_satisfies_protocol(self):
        from repro.strategies import execute
        from repro.graphs.builder import build_inference_graph
        from repro.graphs.contexts import LazyDatalogContext
        from repro.resilience import ResiliencePolicy, RetryPolicy

        rules = university_rule_base()
        graph = build_inference_graph(rules, QueryForm("instructor", "b"))
        processor = SelfOptimizingQueryProcessor(rules)
        processor.ensure_compiled(QueryForm("instructor", "b"))
        strategy = processor.strategy_for(QueryForm("instructor", "b"))
        context = LazyDatalogContext(
            graph, parse_query("instructor(manolis)"), db1()
        )
        result = execute(
            strategy, context,
            policy=ResiliencePolicy(retry=RetryPolicy(max_attempts=2)),
        )
        assert isinstance(result, ExecutionResult)
        assert result.settled_result() is not result


def interleaved_stream(repeats=120):
    """Queries over three forms, interleaved — enough volume for the
    ``instructor`` form to climb under its default workload skew."""
    queries = []
    for index in range(repeats):
        queries.append(parse_query("instructor(manolis)"))
        if index % 4 == 0:
            queries.append(parse_query("senior(ullman)"))
        if index % 7 == 0:
            queries.append(parse_query("instructor(russ)"))
        if index % 5 == 0:
            queries.append(parse_query("senior(nobody)"))
    return queries


@pytest.mark.serving_determinism
class TestDeterminism:
    def test_single_worker_batch_is_byte_identical(self):
        """workers=1, caches off: same events, same report, byte for
        byte, as the plain sequential processor loop."""
        queries = interleaved_stream()
        database = make_db()

        plain_tracer = Tracer()
        plain = SelfOptimizingQueryProcessor(
            parse_program(RULES), recorder=plain_tracer
        )
        plain_answers = [plain.query(q, database) for q in queries]

        served_tracer = Tracer()
        with open_session(
            parse_program(RULES), make_db(),
            serving=ServingConfig(workers=1),
            recorder=served_tracer,
        ) as session:
            served_answers = session.query_batch(queries)
            served_report = session.processor.report()

        assert plain_answers == served_answers
        plain_bytes = "\n".join(
            json.dumps(e, sort_keys=True) for e in plain_tracer.events
        ).encode()
        served_bytes = "\n".join(
            json.dumps(e, sort_keys=True) for e in served_tracer.events
        ).encode()
        assert plain_bytes == served_bytes
        plain_report = dict(plain.report())
        plain_report.pop("metrics")
        served_report.pop("metrics")
        assert json.dumps(plain_report, sort_keys=True, default=str) \
            == json.dumps(served_report, sort_keys=True, default=str)

    def test_parallel_batch_matches_sequential_climbs(self):
        """Each form's climb decisions are identical under parallel
        serving, because per-form order is preserved."""
        queries = interleaved_stream()
        database = make_db()

        sequential = SelfOptimizingQueryProcessor(parse_program(RULES))
        for query in queries:
            sequential.query(query, database)

        with open_session(
            parse_program(RULES), make_db(),
            serving=ServingConfig(workers=4),
        ) as session:
            session.query_batch(queries)
            parallel = session.processor

        forms = {QueryForm.of(q) for q in queries}
        assert len(forms) >= 2  # the parallelism is real
        for form in forms:
            expected = [
                (r.context_number, r.transformation, tuple(r.to_arcs))
                for r in sequential.climb_history(form)
            ]
            actual = [
                (r.context_number, r.transformation, tuple(r.to_arcs))
                for r in parallel.climb_history(form)
            ]
            assert actual == expected, f"climbs diverged for {form}"

    def test_parallel_batch_same_answers(self):
        queries = interleaved_stream(40)
        sequential_answers = None
        for workers in (1, 4):
            with open_session(
                parse_program(RULES), make_db(),
                serving=ServingConfig(workers=workers),
            ) as session:
                answers = [
                    (a.proved, a.cost, a.learned)
                    for a in session.query_batch(queries)
                ]
            if sequential_answers is None:
                sequential_answers = answers
            else:
                assert answers == sequential_answers


class TestStalePartialCache:
    """Partial answers (dark federated shards) in the answer cache:
    never coherent, stale-only, verdict preserved, and never allowed
    to displace a complete stale entry."""

    @staticmethod
    def partial_answer(cost=2.0, shard="shard1"):
        from repro.datalog.terms import Substitution
        from repro.storage import Completeness
        from repro.system import SystemAnswer

        return SystemAnswer(
            proved=True, substitution=Substitution(), cost=cost,
            learned=True, completeness=Completeness.missing([shard]),
        )

    @staticmethod
    def complete_answer(cost=3.0):
        from repro.datalog.terms import Substitution
        from repro.system import SystemAnswer

        return SystemAnswer(
            proved=True, substitution=Substitution(), cost=cost,
            learned=True,
        )

    def test_partial_never_enters_coherent_table(self):
        cache = AnswerCache(8)
        query = parse_query("instructor(lena)")
        database = make_db()
        assert not cache.store(query, database, self.partial_answer())
        assert cache.lookup(query, database) is None

    def test_partial_lands_in_stale_with_verdict_preserved(self):
        cache = AnswerCache(8)
        query = parse_query("instructor(lena)")
        database = make_db()
        cache.store(query, database, self.partial_answer())
        stale = cache.lookup_stale(query, database)
        assert stale is not None
        assert stale.completeness.partial
        assert stale.completeness.missing_shards == ("shard1",)
        assert stale.cached and stale.cost == 0.0

    def test_partial_never_displaces_complete_stale_entry(self):
        cache = AnswerCache(8)
        query = parse_query("instructor(lena)")
        database = make_db()
        cache.store(query, database, self.complete_answer())
        cache.store(query, database, self.partial_answer())
        stale = cache.lookup_stale(query, database)
        assert stale.completeness.complete

    def test_complete_displaces_partial_stale_entry(self):
        cache = AnswerCache(8)
        query = parse_query("instructor(lena)")
        database = make_db()
        cache.store(query, database, self.partial_answer())
        cache.store(query, database, self.complete_answer())
        stale = cache.lookup_stale(query, database)
        assert stale.completeness.complete
