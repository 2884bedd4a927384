"""Tests for the integrated self-optimizing query processor (Figure 4)."""

import random

import pytest

from repro import CacheConfig, open_session
from repro.bench.experiments import LatencyDatabase
from repro.datalog.database import Database
from repro.datalog.engine import TopDownEngine
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.terms import Constant, Variable
from repro.graphs.contexts import LazyDatalogContext
from repro.serving import SessionConfig
from repro.system import SelfOptimizingQueryProcessor
from repro.workloads import db1, university_rule_base


class TestLazyDatalogContext:
    def test_statuses_resolved_on_demand(self):
        from repro.workloads import g_a, theta_2
        from repro.strategies import execute

        graph = g_a()
        context = LazyDatalogContext(
            graph, parse_query("instructor(manolis)"), db1()
        )
        assert context.probed() == {}
        result = execute(theta_2(graph), context)
        # Θ2 stops at Dg: Dp never probed — the monitor is unobtrusive.
        assert result.succeeded
        assert context.probed() == {"Dg": True}

    def test_matches_eager_context(self):
        from repro.graphs.contexts import context_from_datalog
        from repro.workloads import g_a

        graph = g_a()
        for name in ("manolis", "russ", "fred"):
            query = parse_query(f"instructor({name})")
            lazy = LazyDatalogContext(graph, query, db1())
            eager = context_from_datalog(graph, query, db1())
            for arc in graph.experiments():
                assert lazy.traversable(arc) == eager.traversable(arc)


class TestQueryAnswering:
    def setup_method(self):
        self.qp = SelfOptimizingQueryProcessor(university_rule_base())
        self.db = db1()

    def test_ground_query_yes(self):
        answer = self.qp.query(parse_query("instructor(manolis)"), self.db)
        assert answer.proved and answer.learned
        assert answer.cost == 4.0  # initial depth-first strategy

    def test_ground_query_no(self):
        answer = self.qp.query(parse_query("instructor(fred)"), self.db)
        assert not answer.proved
        assert answer.cost == 4.0  # searched the whole graph

    def test_open_query_binds_variables(self):
        answer = self.qp.query(parse_query("instructor(X)"), self.db)
        assert answer.proved
        assert answer.substitution[Variable("X")] in (
            Constant("russ"), Constant("manolis"),
        )

    def test_forms_are_tracked_separately(self):
        self.qp.query(parse_query("instructor(manolis)"), self.db)
        self.qp.query(parse_query("instructor(X)"), self.db)
        report = self.qp.report()
        assert "instructor^(b)" in report
        assert "instructor^(f)" in report


class TestQueriesReusingPrototypeNames:
    """A query's variables may carry the names of the root prototype's
    (``B<i>``, ``F<i>``); each arc probe still takes the query's own
    terms, on the learned path and through the answer cache."""

    @pytest.mark.parametrize("text, expected", [
        ("p(a, B0)", {"B0": "b"}),
        ("p(F1, F0)", {"F1": "a", "F0": "b"}),
        ("p(B0, F0)", {"B0": "a", "F0": "b"}),
    ])
    def test_learned_and_cached_answers(self, text, expected):
        rules = parse_program("p(X, Y) :- e(X, Y).")
        # Probes count as I/O, so the subgoal memo fronts this store.
        database = LatencyDatabase(
            Database.from_program("e(a, b)."), latency=0.0
        )
        bindings = {
            Variable(name): Constant(value) for name, value in expected.items()
        }
        assert TopDownEngine(rules).prove(parse_query(text), database).proved
        with open_session(
            rules, database,
            cache=CacheConfig(answer_capacity=64, subgoal_capacity=64),
        ) as session:
            first = session.query(text)
            again = session.query(text)
            memo = session.server.subgoal_memo
        assert memo.stats.lookups > 0
        assert first.proved and first.learned and not first.cached
        assert dict(first.substitution) == bindings
        assert again.proved and again.cached
        assert dict(again.substitution) == bindings


class TestSpecializingRuleHeads:
    """A rule head with a constant or a repeated variable specializes
    the goal, so its reduction is blockable: the learned path tests the
    head renamed apart from the query, and answers with the head's
    bindings as well as the retrieval's, as the top-down engine does."""

    RULES = (
        "g(X, a) :- e(X).\ng(X, Y) :- f(X, Y).\n"
        "h(X, X) :- m(X).\nh(X, Y) :- n(X, Y)."
    )

    @pytest.mark.parametrize("text, expected", [
        # The head's X is not the query's X.
        ("g(b, X)", {"X": "a"}),
        # The head binds the second argument to a; the retrieval e(b)
        # binds only the first.
        ("g(X, Y)", {"X": "b", "Y": "a"}),
        ("g(b, Z)", {"Z": "a"}),
        # h(X, X) makes both arguments one: h(b, Y) needs m(b).
        ("h(b, Y)", None),
        ("h(X, Y)", {"X": "d", "Y": "d"}),
    ])
    def test_learned_answers_match_the_top_down_engine(self, text, expected):
        rules = parse_program(self.RULES)
        database = Database.from_program("e(b). f(c, d). m(d). n(c, e).")
        query = parse_query(text)
        answer = SelfOptimizingQueryProcessor(rules).query(query, database)
        reference = TopDownEngine(rules).prove(query, database)
        assert answer.learned
        assert answer.proved == reference.proved == (expected is not None)
        if expected is not None:
            bindings = {Variable(name): Constant(value)
                        for name, value in expected.items()}
            assert dict(answer.substitution) == bindings
            assert dict(reference.substitution) == bindings


class TestLearningThroughTheSystem:
    def test_strategy_improves_with_a_skewed_stream(self):
        qp = SelfOptimizingQueryProcessor(
            university_rule_base(), config=SessionConfig(delta=0.05)
        )
        database = db1()
        rng = random.Random(0)
        names = ["manolis"] * 70 + ["russ"] * 10 + ["fred"] * 20
        climbed = False
        for _ in range(700):
            name = rng.choice(names)
            answer = qp.query(parse_query(f"instructor({name})"), database)
            climbed = climbed or answer.climbed
        from repro.datalog.rules import QueryForm

        strategy = qp.strategy_for(QueryForm("instructor", "b"))
        assert climbed
        assert strategy.arc_names()[0] == "Rg"  # grads first
        history = qp.climb_history(QueryForm("instructor", "b"))
        assert len(history) == 1

    def test_costs_drop_after_the_climb(self):
        qp = SelfOptimizingQueryProcessor(
            university_rule_base(), config=SessionConfig(delta=0.05)
        )
        database = db1()
        query = parse_query("instructor(manolis)")
        before = qp.query(query, database).cost
        rng = random.Random(1)
        for _ in range(600):
            qp.query(parse_query("instructor(manolis)"), database)
        after = qp.query(query, database).cost
        assert before == 4.0 and after == 2.0


class TestFallback:
    def test_conjunctive_form_falls_back_to_sld(self):
        rules = parse_program("""
            eligible(X) :- enrolled(X), paid(X).
        """)
        qp = SelfOptimizingQueryProcessor(rules)
        database = Database.from_program("enrolled(a). paid(a). enrolled(b).")
        yes = qp.query(parse_query("eligible(a)"), database)
        no = qp.query(parse_query("eligible(b)"), database)
        assert yes.proved and not yes.learned
        assert not no.proved
        assert "eligible^(b)" in qp.report()
        assert "fallback" in qp.report()["eligible^(b)"]

    def test_recursive_form_falls_back_without_depth(self):
        rules = parse_program("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        qp = SelfOptimizingQueryProcessor(rules)
        database = Database.from_program("edge(a, b). edge(b, c).")
        answer = qp.query(parse_query("path(a, c)"), database)
        assert answer.proved and not answer.learned

    @pytest.mark.parametrize("engine", ["topdown", "bottomup", "qsqn"])
    def test_depth_bound_answers_are_never_clean(self, engine):
        # A 70-edge chain: SLD's default bound of 64 truncates both
        # searches.  The truncated answers carry an incident, so they
        # are not clean and the answer cache refuses them; bottom-up
        # and QSQN need no bound and answer both correctly and clean.
        rules = parse_program("""
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            unreach(X) :- node(X), not tc(X, n70).
        """)
        facts = " ".join(f"e(n{i}, n{i + 1})." for i in range(70))
        session = open_session(
            rules, Database.from_program(facts + " node(n0)."),
            config=SessionConfig(engine=engine),
            cache=CacheConfig(answer_capacity=8),
        )
        for _ in range(2):
            unreach = session.query("unreach(n0)")
            reach = session.query("tc(n0, n70)")
            if engine == "topdown":
                for answer in (unreach, reach):
                    assert not answer.clean and not answer.cached
                    assert "depth bound" in answer.incident
                assert not unreach.proved
            else:
                assert unreach.clean and not unreach.proved
                assert reach.clean and reach.proved
        assert ("depth bound" in str(session.processor.report()["unreach^(b)"])
                ) == (engine == "topdown")

    def test_mixed_workload(self):
        rules = parse_program("""
            @Rp instructor(X) :- prof(X).
            @Rg instructor(X) :- grad(X).
            senior(X) :- prof(X), tenured(X).
        """)
        qp = SelfOptimizingQueryProcessor(rules)
        database = Database.from_program(
            "prof(russ). grad(manolis). tenured(russ)."
        )
        learned = qp.query(parse_query("instructor(russ)"), database)
        fallback = qp.query(parse_query("senior(russ)"), database)
        assert learned.learned and fallback.proved and not fallback.learned
