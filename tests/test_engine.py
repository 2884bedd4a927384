"""Unit tests for the top-down SLD satisficing engine."""

import pytest

from repro.datalog.bottomup import BottomUpEngine
from repro.datalog.database import Database
from repro.datalog.engine import CostModel, TopDownEngine
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.terms import Atom, Constant, Variable


def make_engine(rules_text, **kwargs):
    return TopDownEngine(parse_program(rules_text), **kwargs)


class TestBasicResolution:
    def test_edb_only_query(self):
        engine = make_engine("")
        db = Database.from_program("p(a).")
        assert engine.holds(parse_query("p(a)"), db)
        assert not engine.holds(parse_query("p(b)"), db)

    def test_single_reduction(self):
        engine = make_engine("instructor(X) :- prof(X).")
        db = Database.from_program("prof(russ).")
        assert engine.holds(parse_query("instructor(russ)"), db)
        assert not engine.holds(parse_query("instructor(manolis)"), db)

    def test_disjunction_order(self):
        engine = make_engine("""
            @Rp instructor(X) :- prof(X).
            @Rg instructor(X) :- grad(X).
        """)
        db = Database.from_program("prof(russ). grad(manolis).")
        assert engine.holds(parse_query("instructor(russ)"), db)
        assert engine.holds(parse_query("instructor(manolis)"), db)

    def test_conjunction(self):
        engine = make_engine("both(X) :- p(X), q(X).")
        db = Database.from_program("p(a). p(b). q(b).")
        assert engine.holds(parse_query("both(b)"), db)
        assert not engine.holds(parse_query("both(a)"), db)

    def test_answer_bindings(self):
        engine = make_engine("instructor(X) :- prof(X).")
        db = Database.from_program("prof(russ).")
        answer = engine.prove(parse_query("instructor(X)"), db)
        assert answer.proved
        assert answer.substitution[Variable("X")] == Constant("russ")

    def test_chain_of_reductions(self):
        engine = make_engine("a(X) :- b(X). b(X) :- c(X). c(X) :- d(X).")
        db = Database.from_program("d(v).")
        assert engine.holds(parse_query("a(v)"), db)

    def test_join_variable_propagation(self):
        engine = make_engine("gp(X, Z) :- parent(X, Y), parent(Y, Z).")
        db = Database.from_program(
            "parent(a, b). parent(b, c). parent(b, d)."
        )
        answers = list(engine.answers(parse_query("gp(a, W)"), db))
        values = {a.substitution[Variable("W")] for a in answers}
        assert values == {Constant("c"), Constant("d")}


class TestRecursion:
    def test_transitive_closure(self):
        engine = make_engine("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """, max_depth=32)
        db = Database.from_program("edge(a, b). edge(b, c). edge(c, d).")
        assert engine.holds(parse_query("path(a, d)"), db)
        assert not engine.holds(parse_query("path(d, a)"), db)

    def test_depth_bound_prevents_runaway(self):
        engine = make_engine("loop(X) :- loop(X).", max_depth=16)
        db = Database()
        assert not engine.holds(parse_query("loop(a)"), db)

    def test_variant_loop_check_handles_cycles(self):
        # A cyclic edge relation would blow up plain SLD; the variant
        # loop check keeps it polynomial even with a deep bound.
        engine = make_engine("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """, max_depth=64)
        db = Database.from_program(
            "edge(a, b). edge(b, a). edge(b, c)."
        )
        assert engine.holds(parse_query("path(a, a)"), db)
        assert engine.holds(parse_query("path(a, c)"), db)
        assert not engine.holds(parse_query("path(c, a)"), db)

    def test_loop_check_does_not_prune_sibling_repeats(self):
        # The same subgoal may legitimately appear on *parallel*
        # branches (conjunction siblings); only ancestor repeats prune.
        engine = make_engine("twice(X) :- p(X), p(X).")
        db = Database.from_program("p(a).")
        assert engine.holds(parse_query("twice(a)"), db)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            make_engine("", max_depth=0)


class TestNegationAsFailure:
    def setup_method(self):
        self.engine = make_engine("""
            pauper(X) :- person(X), not owns(X, Y).
        """)
        self.db = Database.from_program("""
            person(fred). person(russ).
            owns(russ, car).
        """)

    def test_negation_succeeds_when_no_proof(self):
        assert self.engine.holds(parse_query("pauper(fred)"), self.db)

    def test_negation_fails_when_proof_exists(self):
        assert not self.engine.holds(parse_query("pauper(russ)"), self.db)

    def test_negation_is_satisficing(self):
        # Many possessions: the refutation must stop at the first one.
        for index in range(50):
            self.db.add(Atom("owns", [Constant("russ"), Constant(f"item{index}")]))
        answer = self.engine.prove(parse_query("pauper(russ)"), self.db)
        # person retrieval + one owns retrieval (+ the reduction).
        assert len(answer.trace.retrievals) <= 3

    def test_goals_after_negation_are_still_solved(self):
        # Regression: a successful negation used to yield its bindings
        # directly, silently dropping every literal after the negated
        # one in the rule body.
        engine = make_engine("""
            cleared(X) :- item(X), not banned(X), verified(X).
        """)
        db = Database.from_program("item(a). item(b). verified(b).")
        assert not engine.holds(parse_query("cleared(a)"), db)
        assert engine.holds(parse_query("cleared(b)"), db)
        db.add(Atom("banned", [Constant("b")]))
        assert not engine.holds(parse_query("cleared(b)"), db)


class TestCostAccounting:
    def test_unit_costs_match_paper(self):
        engine = make_engine("""
            @Rp instructor(X) :- prof(X).
            @Rg instructor(X) :- grad(X).
        """)
        db = Database.from_program("prof(russ). grad(manolis).")
        # I1 = instructor(manolis): Rp + failed Dp + Rg + successful Dg = 4.
        answer = engine.prove(parse_query("instructor(manolis)"), db)
        assert answer.proved and answer.trace.cost == 4.0
        # I2 = instructor(russ): Rp + successful Dp = 2.
        answer = engine.prove(parse_query("instructor(russ)"), db)
        assert answer.proved and answer.trace.cost == 2.0

    def test_failed_search_costs_whole_space(self):
        engine = make_engine("""
            @Rp instructor(X) :- prof(X).
            @Rg instructor(X) :- grad(X).
        """)
        db = Database.from_program("prof(russ). grad(manolis).")
        answer = engine.prove(parse_query("instructor(fred)"), db)
        assert not answer.proved and answer.trace.cost == 4.0

    def test_custom_cost_model(self):
        model = CostModel(
            reduction_cost=0.5,
            per_predicate_retrieval={"prof": 10.0},
            retrieval_cost=2.0,
        )
        engine = make_engine(
            "instructor(X) :- prof(X).", cost_model=model
        )
        db = Database.from_program("prof(russ).")
        answer = engine.prove(parse_query("instructor(russ)"), db)
        assert answer.trace.cost == 10.5

    def test_trace_success_counts(self):
        engine = make_engine("""
            @Rp instructor(X) :- prof(X).
            @Rg instructor(X) :- grad(X).
        """)
        db = Database.from_program("grad(manolis).")
        answer = engine.prove(parse_query("instructor(manolis)"), db)
        counts = answer.trace.success_counts()
        assert counts[("prof", 1)] == (1, 0)
        assert counts[("grad", 1)] == (1, 1)

    def test_success_counts_distinguish_arities(self):
        # Regression: counters used to key by predicate name only, so
        # p/1 and p/2 retrieval statistics collided into one entry —
        # poison for PIB's per-retrieval success frequencies.
        engine = make_engine("""
            goal(X) :- p(X), p(X, X).
        """)
        db = Database.from_program("p(a). p(b). p(a, a).")
        answer = engine.prove(parse_query("goal(a)"), db)
        counts = answer.trace.success_counts()
        assert set(counts) == {("p", 1), ("p", 2)}
        assert counts[("p", 1)] == (1, 1)
        assert counts[("p", 2)] == (1, 1)


class TestRuleOrderPolicy:
    def test_reversed_rule_order_changes_costs(self):
        rules = """
            @Rp instructor(X) :- prof(X).
            @Rg instructor(X) :- grad(X).
        """
        db = Database.from_program("grad(manolis).")
        default = make_engine(rules)
        reversed_order = make_engine(rules, rule_order=lambda goal, rs: list(rs)[::-1])
        q = parse_query("instructor(manolis)")
        assert default.prove(q, db).trace.cost == 4.0
        assert reversed_order.prove(q, db).trace.cost == 2.0


class TestFirstK:
    def test_answers_are_distinct(self):
        engine = make_engine("p(X) :- q(X). p(X) :- r(X).")
        db = Database.from_program("q(a). r(a). r(b).")
        answers = list(engine.answers(parse_query("p(X)"), db))
        values = [a.substitution[Variable("X")] for a in answers]
        assert values.count(Constant("a")) == 1

    def test_limit_stops_early(self):
        engine = make_engine("")
        db = Database.from_program("p(a). p(b). p(c).")
        answers = list(engine.answers(parse_query("p(X)"), db, limit=2))
        assert len(answers) == 2


CHAIN_RULES = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
"""

#: A negation whose refutation needs a search past the default bound.
DEEP_NEGATION_RULE = """
    unreach(X) :- node(X), not tc(X, n70).
"""


def chain_db(edges):
    return Database.from_program(
        " ".join(f"e(n{i}, n{i + 1})." for i in range(edges))
    )


class TestFreshVariables:
    def test_proving_leaves_the_intern_table_unchanged(self, monkeypatch):
        # An empty table, so names interned by earlier tests cannot
        # hide a fresh variable entering it.
        monkeypatch.setattr(Variable, "_intern", {})
        learn = make_engine("""
            @Rp instructor(X) :- prof(X).
            @Rg instructor(X) :- grad(X).
            senior(X) :- instructor(X), tenured(X, Y).
        """)
        chain = make_engine(CHAIN_RULES)
        db = Database.from_program(
            "prof(russ). grad(manolis). tenured(russ, y1). "
            "e(n0, n1). e(n1, n2). e(n2, n3)."
        )
        goals = [
            (learn, "instructor(manolis)"), (learn, "instructor(W)"),
            (learn, "senior(russ)"), (learn, "senior(manolis)"),
            (chain, "tc(n0, n3)"), (chain, "tc(n0, W)"), (chain, "tc(n3, n0)"),
        ]
        parsed = [(engine, parse_query(text)) for engine, text in goals]
        before = len(Variable._intern)
        proved = [engine.prove(goal, db).proved for engine, goal in parsed]
        assert proved == [True, True, True, False, True, True, False]
        assert len(Variable._intern) == before


class TestDepthBound:
    def test_deep_chain_goal_holds_bottom_up(self):
        model = BottomUpEngine(parse_program(CHAIN_RULES)).model(chain_db(96))
        assert model.succeeds(parse_query("tc(n0, n96)"))

    def test_deep_chain_goal_is_truncated_top_down(self):
        # The default bound of 64 cannot reach n96: the search says it
        # was cut instead of passing its "no" off as a refutation.
        engine = make_engine(CHAIN_RULES)
        answer = engine.prove(parse_query("tc(n0, n96)"), chain_db(96))
        assert not answer.proved
        assert answer.trace.truncations > 0

    def test_shallow_goal_is_not_truncated(self):
        engine = make_engine(CHAIN_RULES)
        for text in ("tc(n0, n24)", "tc(n24, n0)"):
            answer = engine.prove(parse_query(text), chain_db(24))
            assert answer.trace.truncations == 0, text

    def test_negation_over_a_truncated_search_fails(self):
        # not tc(n0, n70) must not succeed because the bound hid the
        # 70-hop proof.
        engine = make_engine(CHAIN_RULES + DEEP_NEGATION_RULE)
        database = chain_db(70)
        database.add(parse_query("node(n0)"))
        for text in ("unreach(n0)", "unreach(X)"):
            answer = engine.prove(parse_query(text), database)
            assert not answer.proved, text
            assert answer.trace.truncations > 0, text
        assert list(engine.answers(parse_query("unreach(X)"), database)) == []
