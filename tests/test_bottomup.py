"""Unit tests for naive and semi-naive bottom-up evaluation."""


from repro.datalog.bottomup import (
    BottomUpEngine,
    naive_evaluate,
    seminaive_evaluate,
)
from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.terms import Atom, Constant


def model_facts(model, predicate, arity):
    return {fact for fact in model.relation(predicate, arity)}


class TestNaive:
    def test_single_rule(self):
        base = parse_program("instructor(X) :- prof(X).")
        db = Database.from_program("prof(russ). prof(ada).")
        model = naive_evaluate(base, db)
        assert model_facts(model, "instructor", 1) == {
            Atom("instructor", ["russ"]), Atom("instructor", ["ada"]),
        }

    def test_transitive_closure(self):
        base = parse_program("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        db = Database.from_program("edge(a, b). edge(b, c). edge(c, d).")
        model = naive_evaluate(base, db)
        assert Atom("path", ["a", "d"]) in model
        assert Atom("path", ["d", "a"]) not in model
        assert len(model.relation("path", 2)) == 6

    def test_edb_preserved(self):
        base = parse_program("p(X) :- q(X).")
        db = Database.from_program("q(a).")
        model = naive_evaluate(base, db)
        assert Atom("q", ["a"]) in model

    def test_input_database_untouched(self):
        base = parse_program("p(X) :- q(X).")
        db = Database.from_program("q(a).")
        naive_evaluate(base, db)
        assert len(db) == 1


class TestSemiNaive:
    def test_agrees_with_naive_on_closure(self):
        base = parse_program("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        db = Database.from_program(
            "edge(a, b). edge(b, c). edge(c, a). edge(c, d)."
        )
        naive = naive_evaluate(base, db)
        semi = seminaive_evaluate(base, db)
        assert set(naive) == set(semi)

    def test_cyclic_graph_terminates(self):
        base = parse_program("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        db = Database()
        for index in range(10):
            db.add(Atom("edge", [Constant(f"n{index}"),
                                 Constant(f"n{(index + 1) % 10}")]))
        model = seminaive_evaluate(base, db)
        assert len(model.relation("path", 2)) == 100


class TestStratifiedNegation:
    def test_negation_on_lower_stratum(self):
        base = parse_program("""
            reachable(X) :- start(X).
            reachable(Y) :- reachable(X), edge(X, Y).
            isolated(X) :- node(X), not reachable(X).
        """)
        db = Database.from_program("""
            start(a). edge(a, b). node(a). node(b). node(c).
        """)
        model = seminaive_evaluate(base, db)
        assert model_facts(model, "isolated", 1) == {Atom("isolated", ["c"])}

    def test_existential_negation(self):
        base = parse_program(
            "pauper(X) :- person(X), not owns(X, Y)."
        )
        db = Database.from_program(
            "person(fred). person(russ). owns(russ, car)."
        )
        model = seminaive_evaluate(base, db)
        assert model_facts(model, "pauper", 1) == {Atom("pauper", ["fred"])}


class TestBottomUpEngine:
    def test_holds_and_answers(self):
        engine = BottomUpEngine(parse_program("p(X) :- q(X)."))
        db = Database.from_program("q(a). q(b).")
        assert engine.holds(parse_query("p(a)"), db)
        assert len(engine.answers(parse_query("p(X)"), db)) == 2

    def test_model_cached_per_database(self):
        engine = BottomUpEngine(parse_program("p(X) :- q(X)."))
        db = Database.from_program("q(a).")
        first = engine.model(db)
        assert engine.model(db) is first

    def test_mutation_invalidates_cached_model(self):
        # Regression: the model cache used to key on ``id(database)``
        # alone, so a database mutated after its first query kept
        # serving the stale pre-mutation model until an explicit
        # ``invalidate`` call.
        engine = BottomUpEngine(parse_program("p(X) :- q(X)."))
        db = Database.from_program("q(a).")
        assert engine.holds(parse_query("p(a)"), db)
        assert not engine.holds(parse_query("p(b)"), db)
        db.add(Atom("q", ["b"]))
        assert engine.holds(parse_query("p(b)"), db)
        db.remove(Atom("q", ["a"]))
        assert not engine.holds(parse_query("p(a)"), db)

    def test_unmutated_database_stays_cached(self):
        engine = BottomUpEngine(parse_program("p(X) :- q(X)."))
        db = Database.from_program("q(a).")
        first = engine.model(db)
        db.add(Atom("q", ["b"]))
        second = engine.model(db)
        assert second is not first
        assert engine.model(db) is second

    def test_naive_mode(self):
        engine = BottomUpEngine(
            parse_program("p(X) :- q(X)."), seminaive=False
        )
        db = Database.from_program("q(a).")
        assert engine.holds(parse_query("p(a)"), db)
