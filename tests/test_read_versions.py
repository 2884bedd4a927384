"""Read-set versions: per-key store stamps and the caches keyed on them.

A write must invalidate exactly the cached answers and probes that
could observe it.  Covers the `FactStore` stamps behind
``version(keys)``, the probe-key choice, the compiled and cone read
plans, the same stamps in every backend, server-level targeted
invalidation, and the regressions for keys read after the
work and for query keys that printed alike.
"""

import random
import sys
import threading

import pytest

from repro import CacheConfig, SelfOptimizingQueryProcessor, open_session
from repro.bench.experiments import LatencyDatabase
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program, parse_query
from repro.datalog.rules import QueryForm
from repro.datalog.terms import Substitution, Variable
from repro.datalog.unify import unify
from repro.graphs.builder import build_inference_graph
from repro.graphs.contexts import compile_read_plan
from repro.resilience.faults import FaultPlan, FlakyDatabase
from repro.serving.cache import AnswerCache
from repro.storage.federation import FederatedStore
from repro.storage.interface import bucket_keys, probe_key
from repro.storage.sqlite import SQLiteFactStore


def atom(text):
    return parse_atom(text)


def store(text):
    return Database.from_program(text)


def io_store(text):
    """The same facts in a store whose probes count as I/O (with no
    latency), so the subgoal memo fronts it."""
    return LatencyDatabase(store(text), latency=0.0)


def bucket(predicate, arity, position, constant):
    return (predicate, arity, position, parse_atom(f"x({constant})").args[0])


class TestStamps:
    def test_untouched_key_reads_zero(self):
        database = store("p(a). q(a, b).")
        assert database.version([("r", 1)]) == 0
        assert database.version([bucket("p", 1, 0, "zz")]) == 0
        assert database.version([]) == 0

    def test_stamp_is_generation_of_last_mutation(self):
        database = Database()
        for text in ("p(a)", "p(b)", "q(a, b)"):
            database.add(atom(text))
        assert database.version([bucket("p", 1, 0, "a")]) == 1
        assert database.version([bucket("p", 1, 0, "b")]) == 2
        assert database.version([("p", 1)]) == 2
        assert database.version([bucket("q", 2, 1, "b")]) == 3
        assert database.version([bucket("p", 1, 0, "a"), ("q", 2)]) == 3

    def test_stamps_only_grow(self):
        database = store("p(a). p(b).")
        keys = [("p", 1), bucket("p", 1, 0, "a"), bucket("p", 1, 0, "b")]
        seen = [database.version([key]) for key in keys]
        for text, op in (("p(a)", "remove"), ("p(c)", "add"),
                         ("p(a)", "add"), ("p(b)", "remove")):
            getattr(database, op)(atom(text))
            now = [database.version([key]) for key in keys]
            assert all(new >= old for new, old in zip(now, seen))
            seen = now

    def test_stamp_survives_an_emptied_bucket(self):
        database = store("p(a).")
        database.remove(atom("p(a)"))
        assert database.version([bucket("p", 1, 0, "a")]) == 2
        assert database.version([("p", 1)]) == 2

    def test_remove_then_readd_changes_the_version(self):
        database = store("p(a). p(b).")
        key = [bucket("p", 1, 0, "a")]
        before = database.version(key)
        database.remove(atom("p(a)"))
        database.add(atom("p(a)"))
        assert database.version(key) > before

    def test_noop_mutations_leave_versions(self):
        written = Database()
        written.add(atom("p(a)"))
        # A constructed key reads 0; a written one its write's generation.
        for database, stamp in ((store("p(a)."), 0), (written, 1)):
            database.add(atom("p(a)"))
            database.remove(atom("p(zz)"))
            assert database.version([("p", 1)]) == stamp
            assert database.version([bucket("p", 1, 0, "zz")]) == 0

    def test_constructed_keys_read_zero_until_written(self):
        text = "p(a). p(b). q(a, b). q(b, b). flag. p(a)."
        for database in (store(text), Database(list(store(text)))):
            keys = {key for fact in database
                    for key in (fact.signature, *bucket_keys(fact))}
            assert all(database.version([key]) == 0 for key in keys)
            assert database.generation == len(database) == 5
            database.add(atom("q(a, c)"))
            written = {("q", 2), bucket("q", 2, 0, "a"), bucket("q", 2, 1, "c")}
            for key in keys | written:
                expected = 6 if key in written else 0
                assert database.version([key]) == expected, key

    def test_write_elsewhere_leaves_the_version(self):
        database = store("p(a). p(b).")
        key = [bucket("p", 1, 0, "a")]
        before = database.version(key)
        database.add(atom("p(c)"))
        database.remove(atom("p(b)"))
        database.add(atom("q(a)"))
        assert database.version(key) == before

    def test_unary_bucket_keys_are_stamped_without_buckets(self):
        database = store("p(a).")
        assert not database._arg_index
        key = [bucket("p", 1, 0, "c")]
        before = database.version(key)
        database.add(atom("p(c)"))
        added = database.version(key)
        assert added > before
        database.add(atom("p(d)"))
        database.remove(atom("p(d)"))
        assert database.version(key) == added
        database.remove(atom("p(c)"))
        assert database.version(key) > added
        assert not database._arg_index


class TestProbeKey:
    def test_first_bound_position(self):
        assert probe_key(atom("q(X, b, c)")) == bucket("q", 3, 1, "b")
        assert probe_key(atom("q(a, Y)")) == bucket("q", 2, 0, "a")

    def test_ground_pattern_uses_position_zero(self):
        assert probe_key(atom("q(a, b)")) == bucket("q", 2, 0, "a")

    def test_all_variable_patterns_read_the_relation(self):
        assert probe_key(atom("q(X, Y)")) == ("q", 2)
        assert probe_key(atom("q(X, X)")) == ("q", 2)
        assert probe_key(atom("flag")) == ("flag", 0)

    def test_key_covers_every_matching_fact(self):
        # Whatever bucket the store enumerates, a write to a matching
        # fact stamps the probe key.
        database = store("q(a, b, c).")
        pattern = atom("q(X, b, c)")
        before = database.version([probe_key(pattern)])
        database.add(atom("q(z, b, c)"))
        assert database.version([probe_key(pattern)]) > before


GRAPH_RULES = """
f(X) :- leaf(X).
f(X) :- alt(X).
g(X, Y) :- edge(X, Y).
g(X, Y) :- tagged(k, X, Y).
loops(X) :- pair(X, X).
admit(fred) :- admitted(fred, X).
admit(X) :- listed(X).
"""


class TestReadPlan:
    def plan_for(self, query_text):
        rules = parse_program(GRAPH_RULES)
        query = parse_query(query_text)
        form = QueryForm.of(query)
        graph = build_inference_graph(rules, form)
        return graph, query, compile_read_plan(graph, form)

    def test_query_constant_fills_the_template(self):
        _graph, query, plan = self.plan_for("f(c7)")
        assert plan.keys(query) == (bucket("leaf", 1, 0, "c7"),
                                    bucket("alt", 1, 0, "c7"))

    def test_arc_goal_constant_comes_first(self):
        _graph, query, plan = self.plan_for("g(X, c2)")
        assert set(plan.keys(query)) == {
            bucket("edge", 2, 1, "c2"),       # the query's constant
            bucket("tagged", 3, 0, "k"),      # the arc goal's constant
        }

    def test_unbound_arcs_read_their_relation(self):
        _graph, query, plan = self.plan_for("g(X, Y)")
        assert set(plan.keys(query)) == {
            ("edge", 2), bucket("tagged", 3, 0, "k"),
        }
        _graph, query, plan = self.plan_for("loops(X)")
        assert plan.keys(query) == (("pair", 2),)

    @pytest.mark.parametrize("text", [
        "f(c7)", "g(c1, c2)", "g(c1, Y)", "g(X, c2)", "g(X, Y)",
        "loops(X)", "loops(c3)", "admit(fred)", "admit(sue)",
        # Query variables named like the root prototype's (B<i>, F<i>).
        "g(c1, B0)", "g(F1, F0)", "g(B0, F0)", "g(B1, c2)", "loops(F0)",
    ])
    def test_plan_matches_the_instantiated_probes(self, text):
        graph, query, plan = self.plan_for(text)
        probes = [
            reference_probe(graph.root.goal, arc.goal, query)
            for arc in graph.retrieval_arcs()
        ]
        assert [graph.probe(arc, query) for arc in graph.retrieval_arcs()] \
            == probes
        assert set(plan.keys(query)) == {probe_key(p) for p in probes}


def reference_probe(root_goal, goal, query):
    """``goal`` instantiated for ``query`` by unification: rename the
    query's variables apart from the graph's, unify the root goal with
    the renamed query, substitute into ``goal``, then give the query's
    variables their own names back."""
    apart = {var: Variable(f"{var.name}?query") for var in query.variables()}
    unifier = unify(root_goal, query.substitute(Substitution(apart)))
    back = Substitution({fresh: var for var, fresh in apart.items()})
    return goal.substitute(unifier).substitute(back)


FORMS = """
f(X) :- leaf(X).
f(X) :- alt(X).
h(X) :- other(X).
"""

#: Recursive, so no form of it compiles to an inference graph.
RECURSIVE = """
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
safe(X, Y) :- tc(X, Y), not banned(Y).
"""


class TestProcessorReadPlans:
    def test_uncompilable_form_reads_its_cone(self):
        processor = SelfOptimizingQueryProcessor(parse_program(RECURSIVE))
        plan = processor.read_plan(QueryForm.of(parse_query("safe(a, b)")))
        assert set(plan.keys(parse_query("safe(a, b)"))) == {
            ("safe", 2), ("tc", 2), ("e", 2), ("banned", 1),
        }

    def test_compiled_form_reads_its_arcs(self):
        processor = SelfOptimizingQueryProcessor(parse_program(FORMS))
        query = parse_query("f(c1)")
        assert processor.read_plan(QueryForm.of(query)).keys(query) == (
            bucket("leaf", 1, 0, "c1"), bucket("alt", 1, 0, "c1"),
        )
        # Planning compiled the form: the learner exists already.
        assert processor.strategy_for(QueryForm.of(query)) is not None


def cached_session(rules, database, memo=0):
    return open_session(
        parse_program(rules), database,
        cache=CacheConfig(answer_capacity=64, subgoal_capacity=memo),
    )


def served_cached(session, texts):
    """Whether each query was answered from the answer cache."""
    return {text: session.query(text).cached for text in texts}


class TestTargetedInvalidation:
    QUERIES = ("f(c1)", "f(c2)", "h(c1)")

    def test_write_invalidates_only_its_form_and_constant(self):
        database = io_store("leaf(c1). alt(c2). other(c1).")
        with cached_session(FORMS, database, memo=64) as session:
            served_cached(session, self.QUERIES)
            database.remove(atom("leaf(c1)"))
            assert served_cached(session, self.QUERIES) == {
                "f(c1)": False, "f(c2)": True, "h(c1)": True,
            }
            assert session.query("f(c1)").proved is False
            assert session.server.subgoal_memo.stats.lookups > 0

    def test_uncompilable_form_invalidated_through_its_cone(self):
        database = store("e(a, b). e(b, c). banned(z). other(c1).")
        query = "safe(a, c)"
        with cached_session(RECURSIVE, database) as session:
            assert session.query(query).proved is True
            for write in ("other(c9)", "leaf(c9)"):   # outside the cone
                database.add(atom(write))
                assert session.query(query).cached is True
            for write, proved in (("e(x, y)", True),  # positive relation
                                  ("banned(c)", False),  # negated literal
                                  ("safe(q, r)", False)):  # the query's own
                database.add(atom(write))
                answer = session.query(query)
                assert answer.cached is False
                assert answer.proved is proved

    @pytest.mark.parametrize("make", [
        lambda facts: SQLiteFactStore(facts),
        lambda facts: FederatedStore(facts, shards=2, seed=3),
    ], ids=["sqlite", "federated"])
    def test_other_backends_version_read_sets(self, make):
        backend = make(list(store("leaf(c1). alt(c2). other(c1).")))
        with cached_session(FORMS, backend, memo=64) as session:
            served_cached(session, self.QUERIES)
            assert all(served_cached(session, self.QUERIES).values())
            backend.add(atom("unrelated(x)"))
            assert all(served_cached(session, self.QUERIES).values())
            backend.remove(atom("leaf(c1)"))
            assert served_cached(session, self.QUERIES) == {
                "f(c1)": False, "f(c2)": True, "h(c1)": True,
            }

    def test_flaky_database_versions_its_own_writes(self):
        loaded = store("leaf(c1). alt(c2).")
        flaky = FlakyDatabase(loaded, FaultPlan(seed=1))
        keys = [bucket("leaf", 1, 0, "c1"), ("alt", 1)]
        assert flaky.version(keys) == loaded.version(keys) == 0
        assert flaky.generation == loaded.generation
        flaky.add(atom("leaf(c9)"))
        assert flaky.generation == loaded.generation + 1
        assert flaky.version([bucket("leaf", 1, 0, "c1")]) == 0
        assert flaky.version([("leaf", 1)]) == flaky.generation
        # The loaded store is a source, not a backing store.
        assert atom("leaf(c9)") not in loaded
        assert loaded.version([("leaf", 1)]) == 0


class TestConcurrentWrites:
    def test_writes_racing_reads_leave_no_stale_entry(self):
        # Readers and a writer race through each step; at the step's
        # barrier every query must serve the truth.  An answer filed
        # under a version read after its work could still be served.
        constants = [f"c{index}" for index in range(4)]
        database = io_store(" ".join(f"leaf({c})." for c in constants[::2]))
        queries = [parse_query(f"{name}({c})")
                   for name in ("f", "h") for c in constants]
        session = cached_session(FORMS, database, memo=64)
        server = session.server
        steps, readers = 40, 3
        barrier = threading.Barrier(readers + 2, timeout=30)
        stale = []

        def read():
            for _ in range(steps):
                for query in queries:
                    server.submit(query, database)
                barrier.wait()
                barrier.wait()

        def write():
            rng = random.Random(13)
            for _ in range(steps):
                for _ in range(3):
                    fact = atom(f"{rng.choice(('leaf', 'alt', 'other'))}"
                                f"({rng.choice(constants)})")
                    if fact in database:
                        database.remove(fact)
                    else:
                        database.add(fact)
                barrier.wait()
                barrier.wait()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=read) for _ in range(readers)]
        threads.append(threading.Thread(target=write))
        try:
            for thread in threads:
                thread.start()
            for _ in range(steps):
                barrier.wait()
                reference = SelfOptimizingQueryProcessor(parse_program(FORMS))
                stale.extend(
                    query for query in queries
                    if server.submit(query, database).proved
                    is not reference.query(query, database).proved
                )
                barrier.wait()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            session.close()
        assert not any(thread.is_alive() for thread in threads)
        assert stale == []
        assert server.subgoal_memo.stats.lookups > 0


class WritesDuringProbe:
    """A store whose first ``grad`` probe also stores ``grad(fred)``,
    as if another writer's add landed while the answer was computed.
    The probe itself still reports what it saw before the write."""

    armed = True

    def succeeds(self, pattern):
        found = super().succeeds(pattern)
        if self.armed and pattern.predicate == "grad":
            self.armed = False
            self.add(atom("grad(fred)"))
        return found


class WritingProbeDatabase(WritesDuringProbe, Database):
    pass


class WritingProbeRemoteStore(WritesDuringProbe, FederatedStore):
    """The same, over a store whose probes are I/O: the subgoal memo
    fronts only such a store."""


INSTRUCTOR = """
instructor(X) :- prof(X).
instructor(X) :- grad(X).
"""


class TestVersionReadBeforeTheWork:
    @pytest.mark.parametrize("answers, memo, kind", [
        (64, 0, WritingProbeDatabase),
        (0, 64, WritingProbeRemoteStore),
    ], ids=["answer-cache", "subgoal-memo"])
    def test_write_during_the_work_is_not_hidden(self, answers, memo, kind):
        database = kind([atom("prof(russ)")])
        with open_session(
            parse_program(INSTRUCTOR), database,
            cache=CacheConfig(answer_capacity=answers,
                              subgoal_capacity=memo),
        ) as session:
            first = session.query("instructor(fred)")
            assert first.proved is False    # computed before the write
            assert atom("grad(fred)") in database
            assert session.query("instructor(fred)").proved is True


class TestQueryKeysAreAtoms:
    def test_cache_tells_int_and_string_constants_apart(self):
        database = store("prof(1).")
        processor = SelfOptimizingQueryProcessor(parse_program(INSTRUCTOR))
        cache = AnswerCache(8)
        as_int = parse_query("instructor(1)")
        as_text = parse_query('instructor("1")')
        cache.store(as_int, database, processor.query(as_int, database))
        assert str(as_int) == str(as_text)
        assert cache.lookup(as_text, database) is None
        assert cache.lookup(as_int, database).proved is True

    def test_cache_tells_string_constant_from_variable(self):
        database = store("prof(russ).")
        processor = SelfOptimizingQueryProcessor(parse_program(INSTRUCTOR))
        cache = AnswerCache(8)
        variable = parse_query("instructor(A)")
        constant = parse_query('instructor("A")')
        cache.store(variable, database, processor.query(variable, database))
        assert cache.lookup(constant, database) is None

    def test_served_answers_match_uncached(self):
        database = store("prof(1).")
        with cached_session(INSTRUCTOR, database) as session:
            assert session.query("instructor(1)").proved is True
            answer = session.query(parse_query('instructor("1")'))
            assert answer.cached is False
            assert answer.proved is False
