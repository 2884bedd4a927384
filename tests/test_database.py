"""Unit tests for the indexed fact database."""

import pytest

from repro.datalog.database import Database
from repro.datalog.terms import Atom, Constant, Variable
from repro.errors import DatalogError


def atom(pred, *args):
    return Atom(pred, list(args))


class TestMutation:
    def test_add_and_contains(self):
        db = Database()
        assert db.add(atom("p", "a"))
        assert atom("p", "a") in db
        assert atom("p", "b") not in db

    def test_duplicate_add_returns_false(self):
        db = Database([atom("p", "a")])
        assert not db.add(atom("p", "a"))
        assert len(db) == 1

    def test_non_ground_fact_rejected(self):
        with pytest.raises(DatalogError):
            Database().add(atom("p", "X"))

    def test_remove(self):
        db = Database([atom("p", "a"), atom("p", "b")])
        assert db.remove(atom("p", "a"))
        assert not db.remove(atom("p", "a"))
        assert len(db) == 1
        assert not db.succeeds(atom("p", "a"))

    def test_remove_updates_indexes(self):
        db = Database([atom("p", "a", "b")])
        db.remove(atom("p", "a", "b"))
        assert list(db.retrieve(atom("p", "a", "X"))) == []

    def test_update_counts_new(self):
        db = Database([atom("p", "a")])
        assert db.update([atom("p", "a"), atom("p", "b")]) == 1

    def test_copy_is_independent(self):
        db = Database([atom("p", "a")])
        clone = db.copy()
        clone.add(atom("p", "b"))
        assert len(db) == 1 and len(clone) == 2


class TestRetrieval:
    def setup_method(self):
        self.db = Database([
            atom("edge", "a", "b"),
            atom("edge", "a", "c"),
            atom("edge", "b", "c"),
            atom("node", "a"),
        ])

    def test_ground_hit(self):
        assert self.db.succeeds(atom("edge", "a", "b"))

    def test_ground_miss(self):
        assert not self.db.succeeds(atom("edge", "c", "a"))

    def test_bound_first_argument(self):
        results = list(self.db.retrieve(atom("edge", "a", "X")))
        values = {binding[Variable("X")] for binding in results}
        assert values == {Constant("b"), Constant("c")}

    def test_bound_second_argument(self):
        results = list(self.db.retrieve(atom("edge", "X", "c")))
        values = {binding[Variable("X")] for binding in results}
        assert values == {Constant("a"), Constant("b")}

    def test_all_free(self):
        assert len(list(self.db.retrieve(atom("edge", "X", "Y")))) == 3

    def test_repeated_variable_pattern(self):
        self.db.add(atom("edge", "d", "d"))
        results = list(self.db.retrieve(atom("edge", "X", "X")))
        assert len(results) == 1

    def test_unknown_relation(self):
        assert list(self.db.retrieve(atom("missing", "X"))) == []

    def test_relation_listing(self):
        assert len(self.db.relation("edge", 2)) == 3
        assert self.db.relation("edge", 3) == []

    def test_counts(self):
        assert self.db.count("edge", 2) == 3
        assert self.db.count("edge") == 3
        assert self.db.count("nothing") == 0

    def test_signatures(self):
        assert self.db.signatures() == {("edge", 2), ("node", 1)}

    def test_iteration_order_is_insertion(self):
        facts = list(self.db)
        assert facts[0] == atom("edge", "a", "b")

    def test_index_bucket_enumeration_is_insertion_order(self):
        # Regression: the per-argument index used to keep ``set``
        # buckets, so enumeration through a bound position ran in hash
        # order — nondeterministic across PYTHONHASHSEED values.  The
        # buckets are insertion-ordered dicts now; a bound-position
        # retrieval must replay insertion order exactly.
        db = Database()
        targets = [f"n{index}" for index in range(50)]
        for target in targets:
            db.add(atom("edge", "hub", target))
        db.add(atom("edge", "other", "n0"))  # forces the indexed path
        seen = [
            binding[Variable("X")].value
            for binding in db.retrieve(atom("edge", "hub", "X"))
        ]
        assert seen == targets
        facts = [fact.args[1].value
                 for fact in db.facts_matching(atom("edge", "hub", "X"))]
        assert facts == targets

    def test_facts_matching_yields_stored_facts(self):
        hits = list(self.db.facts_matching(atom("edge", "a", "X")))
        assert hits == [atom("edge", "a", "b"), atom("edge", "a", "c")]
        assert list(self.db.facts_matching(atom("edge", "a", "b"))) == [
            atom("edge", "a", "b")
        ]
        assert list(self.db.facts_matching(atom("edge", "z", "X"))) == []


class TestFromProgram:
    def test_loads_facts(self):
        db = Database.from_program("prof(russ). grad(manolis).")
        assert db.succeeds(atom("prof", "russ"))
        assert len(db) == 2

    def test_rejects_rules(self):
        with pytest.raises(DatalogError):
            Database.from_program("p(X) :- q(X).")


class TestIndexSelectivity:
    def test_most_selective_index_used(self):
        # Functional check: heavily skewed relation still answers
        # bound-position lookups correctly.
        db = Database()
        for index in range(500):
            db.add(atom("r", "hub", f"n{index}"))
        db.add(atom("r", "leaf", "n0"))
        hits = list(db.retrieve(atom("r", "leaf", "X")))
        assert len(hits) == 1

    def test_two_bound_positions(self):
        db = Database([atom("t", "a", "b", "c"), atom("t", "a", "b", "d")])
        hits = list(db.retrieve(atom("t", "a", "X", "d")))
        assert len(hits) == 1
        assert hits[0][Variable("X")] == Constant("b")

    def test_only_relations_of_arity_two_or_more_get_buckets(self):
        # A unary pattern is either ground (a membership test) or has
        # no constant, so no probe would open a unary bucket.
        db = Database([atom("p", "a"), atom("p", "b"), atom("flag")])
        assert len(db._arg_index) == 0
        db.add(atom("e", "a", "b"))
        assert sorted(key[2] for key in db._arg_index) == [0, 1]
        assert all(key[0] == "e" for key in db._arg_index)
        assert [dict(s) for s in db.retrieve(atom("p", "X"))] == [
            {Variable("X"): Constant("a")}, {Variable("X"): Constant("b")},
        ]
        assert db.succeeds(atom("p", "b"))
        assert db.remove(atom("p", "a"))
        assert not db.succeeds(atom("p", "a"))
        assert list(db.facts_matching(atom("p", "X"))) == [atom("p", "b")]
