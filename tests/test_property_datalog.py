"""Property-based tests for the Datalog substrate.

Key cross-engine invariants: semi-naive ≡ naive bottom-up, the
top-down satisficing engine agrees with the bottom-up model on ground
queries (for positive, non-recursive-unbounded programs), and the
processor's learned path agrees with both.
"""


import hypothesis.strategies as st
from hypothesis import given, settings

from repro.datalog.bottomup import naive_evaluate, seminaive_evaluate
from repro.datalog.database import Database
from repro.datalog.engine import TopDownEngine
from repro.datalog.parser import parse_program
from repro.datalog.terms import Atom, Constant, Variable
from repro.datalog.unify import match
from repro.system import SelfOptimizingQueryProcessor

NODES = [Constant(f"n{i}") for i in range(6)]

edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    max_size=12,
)

CLOSURE_RULES = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
"""

#: Two disjunctive rules, so every query form compiles to a learned
#: graph; the second reverses the argument order.
SWAPPED_RULES = """
    r(X, Y) :- edge(X, Y).
    r(X, Y) :- back(Y, X).
"""

#: Query terms: constants, plain variables, and variables named like
#: the root prototype's (``B<i>`` bound, ``F<i>`` free).
QUERY_TERMS = NODES[:4] + [
    Variable(name) for name in ("X", "Y", "B0", "B1", "F0", "F1")
]

#: Rule heads that specialize the goal, so their reductions are
#: blockable: constants (``s(F1, n0)``, ``t(n2, Y)``) and a repeated
#: variable (``s(X, X)``), one under another through ``t``.  The rule
#: variables are named like the queries' (``X``, ``Y``) and like the
#: root prototype's (``F1``, ``B0``).
SPECIALIZING_RULES = """
    s(F1, n0) :- edge(F1, B0).
    s(X, X) :- back(X, n1).
    s(X, Y) :- edge(Y, X).
    t(n2, Y) :- s(Y, Y).
    t(X, Y) :- back(Y, X).
"""

LAYERED_RULES = """
    top(X) :- mid(X).
    mid(X) :- low(X).
    mid(X) :- alt(X).
"""


def edge_db(pairs):
    database = Database()
    for src, dst in pairs:
        database.add(Atom("edge", [src, dst]))
    return database


class TestBottomUpAgreement:
    @settings(deadline=None)
    @given(edges)
    def test_seminaive_equals_naive(self, pairs):
        base = parse_program(CLOSURE_RULES)
        database = edge_db(pairs)
        assert set(naive_evaluate(base, database)) == set(
            seminaive_evaluate(base, database)
        )

    @settings(deadline=None)
    @given(edges)
    def test_closure_matches_networkx_reachability(self, pairs):
        import networkx as nx

        base = parse_program(CLOSURE_RULES)
        database = edge_db(pairs)
        model = seminaive_evaluate(base, database)
        graph = nx.DiGraph()
        graph.add_nodes_from(str(n) for n in NODES)
        graph.add_edges_from((str(s), str(d)) for s, d in pairs)
        for source in NODES:
            # path(s, t) holds iff a walk of ≥ 1 edge reaches t from s:
            # t is a successor of s, or a descendant of a successor.
            reachable = set()
            for successor in graph.successors(str(source)):
                reachable.add(successor)
                reachable |= set(nx.descendants(graph, successor))
            derived = {
                str(fact.args[1])
                for fact in model.relation("path", 2)
                if fact.args[0] == source
            }
            assert derived == reachable

    @settings(deadline=None)
    @given(edges)
    def test_topdown_agrees_with_bottomup_on_ground_queries(self, pairs):
        base = parse_program(CLOSURE_RULES)
        database = edge_db(pairs)
        model = seminaive_evaluate(base, database)
        engine = TopDownEngine(base, max_depth=30)
        for source in NODES[:3]:
            for target in NODES[:3]:
                query = Atom("path", [source, target])
                assert engine.holds(query, database) == (query in model)


class TestLearnedPathAgreement:
    @settings(deadline=None)
    @given(
        edges,
        edges,
        st.lists(
            st.tuples(st.sampled_from(QUERY_TERMS), st.sampled_from(QUERY_TERMS)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_learned_answers_match_topdown_and_bottomup(
        self, forward, backward, queries
    ):
        base = parse_program(SWAPPED_RULES)
        database = Database()
        for src, dst in forward:
            database.add(Atom("edge", [src, dst]))
        for src, dst in backward:
            database.add(Atom("back", [src, dst]))
        model = seminaive_evaluate(base, database)
        engine = TopDownEngine(base)
        processor = SelfOptimizingQueryProcessor(base)
        for args in queries:
            query = Atom("r", args)
            answer = processor.query(query, database)
            assert answer.learned
            assert answer.proved == engine.prove(query, database).proved
            if answer.proved:
                assert query.substitute(answer.substitution) in model


class TestLearnedPathSpecializingHeads:
    @settings(deadline=None)
    @given(
        edges,
        edges,
        st.lists(
            st.tuples(
                st.sampled_from(["s", "t"]),
                st.sampled_from(QUERY_TERMS),
                st.sampled_from(QUERY_TERMS),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_learned_answers_are_model_facts(self, forward, backward, queries):
        base = parse_program(SPECIALIZING_RULES)
        database = Database()
        for src, dst in forward:
            database.add(Atom("edge", [src, dst]))
        for src, dst in backward:
            database.add(Atom("back", [src, dst]))
        model = seminaive_evaluate(base, database)
        processor = SelfOptimizingQueryProcessor(base)
        for predicate, *args in queries:
            query = Atom(predicate, args)
            answer = processor.query(query, database)
            assert answer.learned
            if answer.proved:
                fact = query.substitute(answer.substitution)
                assert fact.is_ground and fact in model, (query, fact)
            else:
                assert not any(
                    match(query, fact) is not None
                    for fact in model.relation(predicate, 2)
                ), query


class TestLayeredAgreement:
    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from(NODES), max_size=5),
        st.lists(st.sampled_from(NODES), max_size=5),
    )
    def test_disjunctive_layers(self, lows, alts):
        base = parse_program(LAYERED_RULES)
        database = Database()
        for item in lows:
            database.add(Atom("low", [item]))
        for item in alts:
            database.add(Atom("alt", [item]))
        model = seminaive_evaluate(base, database)
        engine = TopDownEngine(base)
        members = {str(c) for c in lows} | {str(c) for c in alts}
        for node in NODES:
            expected = str(node) in members
            assert engine.holds(Atom("top", [node]), database) == expected
            assert (Atom("top", [node]) in model) == expected


class TestDatabaseRoundTrip:
    @settings(deadline=None)
    @given(edges)
    def test_add_remove_roundtrip(self, pairs):
        database = Database()
        facts = [Atom("edge", [s, d]) for s, d in pairs]
        for fact in facts:
            database.add(fact)
        assert len(database) == len(set(facts))
        for fact in set(facts):
            assert database.remove(fact)
        assert len(database) == 0
        # Indexes fully cleaned: no pattern matches anything.
        assert not database.succeeds(Atom("edge", ["X", "Y"]))
