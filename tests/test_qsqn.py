"""The QSQN engine: semantics, tabling, billing, and the registry."""

import pytest

from repro.datalog.bottomup import BottomUpEngine
from repro.datalog.database import Database
from repro.datalog.engine import TopDownEngine
from repro.datalog.parser import parse_atom, parse_program, parse_query
from repro.datalog.qsqn import QSQNEngine
from repro.errors import StrategyError
from repro.serving.config import SessionConfig
from repro.strategies.engines import (
    ENGINE_NAMES,
    BottomUpProofAdapter,
    make_engine,
)

CLOSURE = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""

SAME_GENERATION = """
sib(X, Y) :- par(X, P), par(Y, P).
sg(X, Y) :- sib(X, Y).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
"""


def chain_db(length, prefix="n"):
    db = Database()
    for index in range(length):
        db.add(parse_atom(f"edge({prefix}{index}, {prefix}{index + 1})"))
    return db


def instances(engine, query, db):
    return {
        query.substitute(answer.substitution)
        for answer in engine.answers(query, db)
    }


class TestClosureSemantics:
    def test_open_query_matches_topdown(self):
        rules = parse_program(CLOSURE)
        db = chain_db(8)
        query = parse_query("path(X, Y)?")
        assert instances(QSQNEngine(rules), query, db) == instances(
            TopDownEngine(rules), query, db
        )

    def test_longest_path_derived(self):
        # Regression: the version memo used to record the
        # post-activation version, so a self-recursive activation that
        # was the last to emit never re-ran and the deepest transitive
        # answer went missing.
        rules = parse_program(CLOSURE)
        db = chain_db(3)
        query = parse_query("path(n0, n3)?")
        assert QSQNEngine(rules).holds(query, db)

    def test_ground_failure(self):
        rules = parse_program(CLOSURE)
        db = chain_db(4)
        assert not QSQNEngine(rules).holds(parse_query("path(n3, n0)?"), db)

    def test_bound_second_argument(self):
        rules = parse_program(CLOSURE)
        db = chain_db(5)
        query = parse_query("path(X, n5)?")
        got = instances(QSQNEngine(rules), query, db)
        assert got == {parse_atom(f"path(n{i}, n5)") for i in range(5)}

    def test_repeated_variable_query(self):
        # path(X, X) must be empty on an acyclic chain even though the
        # relaxed subquery key collapses it with path(X, Y).
        rules = parse_program(CLOSURE)
        db = chain_db(6)
        assert instances(QSQNEngine(rules), parse_query("path(X, X)?"),
                         db) == set()

    def test_answer_enumeration_is_deterministic(self):
        rules = parse_program(CLOSURE)
        db = chain_db(6)
        query = parse_query("path(X, Y)?")
        first = [
            str(query.substitute(a.substitution))
            for a in QSQNEngine(rules).answers(query, db)
        ]
        second = [
            str(query.substitute(a.substitution))
            for a in QSQNEngine(rules).answers(query, db)
        ]
        assert first == second
        assert len(first) == len(set(first))


class TestSameGenerationAndNegation:
    def test_same_generation_matches_bottom_up(self):
        rules = parse_program(SAME_GENERATION)
        db = Database.from_program("""
            par(c1, r). par(c2, r).
            par(g1, c1). par(g2, c1). par(g3, c2).
        """)
        query = parse_query("sg(X, Y)?")
        qn = instances(QSQNEngine(rules), query, db)
        bu = {
            query.substitute(s)
            for s in BottomUpEngine(rules).answers(query, db)
        }
        assert qn == bu
        assert parse_atom("sg(g1, g3)") in qn

    def test_stratified_negation(self):
        rules = parse_program("""
            linked(X) :- edge(X, Y).
            linked(Y) :- edge(X, Y).
            isolated(X) :- node(X), not linked(X).
        """)
        db = Database.from_program(
            "edge(a, b). node(a). node(b). node(c)."
        )
        query = parse_query("isolated(X)?")
        assert instances(QSQNEngine(rules), query, db) == {
            parse_atom("isolated(c)")
        }

    def test_goals_after_negation_still_checked(self):
        # Regression for the SLD engine bug this PR's three-way oracle
        # caught: literals after a successful negation were dropped.
        # All three engines must refuse p when the trailing literal
        # has no facts.
        rules = parse_program("""
            base(X) :- item(X), not banned(X), evidence(X, Y).
        """)
        db = Database.from_program("item(a).")
        query = parse_query("base(X)?")
        for engine in (TopDownEngine(rules), QSQNEngine(rules)):
            assert instances(engine, query, db) == set()
        assert not BottomUpEngine(rules).holds(parse_query("base(a)?"), db)

    def test_mixed_predicate_sees_stored_and_derived_facts(self):
        rules = parse_program("reach(X) :- edge(a, X).")
        db = Database.from_program("edge(a, b). reach(z).")
        query = parse_query("reach(X)?")
        assert instances(QSQNEngine(rules), query, db) == {
            parse_atom("reach(z)"), parse_atom("reach(b)"),
        }


class TestTablingAndBilling:
    def test_cold_prove_bills_warm_prove_is_free(self):
        rules = parse_program(CLOSURE)
        db = chain_db(6)
        engine = QSQNEngine(rules)
        query = parse_query("path(n0, n6)?")
        cold = engine.prove(query, db)
        assert cold.proved and cold.trace.cost > 0
        warm = engine.prove(query, db)
        assert warm.proved and warm.trace.cost == 0.0

    @pytest.mark.parametrize("length, billed", [
        (24, (3504.0, 1752, 1752)),
        (48, (13920.0, 6960, 6960)),
    ])
    def test_bound_chain_billing(self, length, billed):
        # Pinned at the global-version memo: each new answer re-runs
        # every activation, so activations grow about 3N^2.  A
        # semi-naive net bills less and changes these on purpose.
        rules = parse_program(CLOSURE)
        trace = QSQNEngine(rules).prove(
            parse_query(f"path(n0, n{length})?"), chain_db(length)
        ).trace
        assert (trace.cost, trace.reductions, len(trace.retrievals)) == billed

    def test_mutation_invalidates_tabled_state(self):
        rules = parse_program(CLOSURE)
        db = chain_db(3)
        engine = QSQNEngine(rules)
        query = parse_query("path(n0, n9)?")
        assert not engine.holds(query, db)
        for index in range(3, 9):
            db.add(parse_atom(f"edge(n{index}, n{index + 1})"))
        assert engine.holds(query, db)
        db.remove(parse_atom("edge(n5, n6)"))
        assert not engine.holds(query, db)


class TestEngineRegistry:
    def test_names(self):
        assert ENGINE_NAMES == ("topdown", "bottomup", "qsqn")

    def test_make_engine_types(self):
        rules = parse_program(CLOSURE)
        assert isinstance(make_engine("topdown", rules), TopDownEngine)
        assert isinstance(make_engine("bottomup", rules),
                          BottomUpProofAdapter)
        assert isinstance(make_engine("qsqn", rules), QSQNEngine)

    def test_make_engine_rejects_unknown(self):
        with pytest.raises(StrategyError):
            make_engine("magic", parse_program(CLOSURE))

    def test_engines_share_the_prove_protocol(self):
        rules = parse_program(CLOSURE)
        db = chain_db(5)
        query = parse_query("path(n1, X)?")
        expected = instances(TopDownEngine(rules), query, db)
        for name in ENGINE_NAMES:
            engine = make_engine(name, rules)
            assert instances(engine, query, db) == expected
            assert engine.prove(query, db).proved
            assert engine.holds(query, db)

    def test_session_config_validates_engine(self):
        assert SessionConfig(engine="qsqn").engine == "qsqn"
        with pytest.raises(ValueError):
            SessionConfig(engine="magic")
