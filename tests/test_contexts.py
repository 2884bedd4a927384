"""Unit tests for contexts and Datalog compilation."""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rules import QueryForm
from repro.errors import GraphError
from repro.graphs.builder import build_inference_graph
from repro.graphs.contexts import Context, context_from_datalog


def ga():
    from repro.workloads import g_a

    return g_a()


class TestContext:
    def test_traversable_and_blocked(self):
        graph = ga()
        context = Context(graph, {"Dp": True, "Dg": False})
        assert context.traversable(graph.arc("Dp"))
        assert context.blocked(graph.arc("Dg"))

    def test_non_blockable_always_traversable(self):
        graph = ga()
        context = Context(graph, {"Dp": False, "Dg": False})
        assert context.traversable(graph.arc("Rp"))

    def test_missing_status_rejected(self):
        graph = ga()
        with pytest.raises(GraphError):
            Context(graph, {"Dp": True})

    def test_extra_status_rejected(self):
        graph = ga()
        with pytest.raises(GraphError):
            Context(graph, {"Dp": True, "Dg": True, "Rp": True})

    def test_equivalence_class_key(self):
        graph = ga()
        context = Context(graph, {"Dp": False, "Dg": True})
        assert context.unblocked_set() == frozenset({"Dg"})

    def test_equality_and_hash(self):
        graph = ga()
        a = Context(graph, {"Dp": True, "Dg": False})
        b = Context(graph, {"Dp": True, "Dg": False})
        c = Context(graph, {"Dp": False, "Dg": False})
        assert a == b and hash(a) == hash(b) and a != c


class TestDatalogCompilation:
    def setup_method(self):
        from repro.workloads import db1, g_a

        self.graph = g_a()
        self.db = db1()

    def test_manolis_blocks_dp(self):
        context = context_from_datalog(
            self.graph, parse_atom("instructor(manolis)"), self.db
        )
        assert context.blocked(self.graph.arc("Dp"))
        assert context.traversable(self.graph.arc("Dg"))

    def test_russ_blocks_dg(self):
        context = context_from_datalog(
            self.graph, parse_atom("instructor(russ)"), self.db
        )
        assert context.traversable(self.graph.arc("Dp"))
        assert context.blocked(self.graph.arc("Dg"))

    def test_unknown_individual_blocks_both(self):
        context = context_from_datalog(
            self.graph, parse_atom("instructor(fred)"), self.db
        )
        assert context.unblocked_set() == frozenset()

    def test_query_must_match_root_goal(self):
        with pytest.raises(GraphError):
            context_from_datalog(
                self.graph, parse_atom("professor(russ)"), self.db
            )

    def test_blockable_reduction_status(self):
        rules = parse_program("""
            @Rg grad(X) :- enrolled(X).
            @Rf grad(fred) :- admitted(fred, Y).
        """)
        graph = build_inference_graph(rules, QueryForm("grad", "b"))
        db = Database.from_program("enrolled(sue). admitted(fred, cs).")
        fred = context_from_datalog(graph, parse_atom("grad(fred)"), db)
        sue = context_from_datalog(graph, parse_atom("grad(sue)"), db)
        assert fred.traversable(graph.arc("Rf"))
        assert sue.blocked(graph.arc("Rf"))

    def test_retrieval_with_free_variable_goal(self):
        rules = parse_program("""
            @Rg grad(X) :- enrolled(X).
            @Rf grad(fred) :- admitted(fred, Y).
        """)
        graph = build_inference_graph(rules, QueryForm("grad", "b"))
        db = Database.from_program("admitted(fred, cs).")
        fred = context_from_datalog(graph, parse_atom("grad(fred)"), db)
        # admitted(fred, Y) succeeds existentially.
        d_admitted = [a for a in graph.retrieval_arcs()
                      if a.goal.predicate == "admitted"][0]
        assert fred.traversable(d_admitted)
