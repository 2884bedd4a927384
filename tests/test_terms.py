"""Unit tests for the term language (constants, variables, atoms,
substitutions)."""

import pytest

from repro.datalog import terms
from repro.datalog.terms import (
    Atom,
    Constant,
    Substitution,
    Variable,
    make_term,
    variables_of,
)


class TestConstant:
    def test_equality_by_value_and_type(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")
        assert Constant(1) != Constant("1")
        assert Constant(1) != Constant(1.0)

    def test_interned_per_value_type_under_one_cap(self, monkeypatch):
        """Equal values of different types (``1``, ``1.0``, ``True``,
        ``"1"``) intern as distinct constants, and the cap bounds the
        constants of every type together."""
        monkeypatch.setattr(Constant, "_intern", {})
        values = [1, 1.0, True, "1"]
        constants = [Constant(value) for value in values]
        assert [type(constant.value) for constant in constants] == [
            int, float, bool, str]
        assert len(set(constants)) == len({id(c) for c in constants}) == 4
        assert all(Constant(value) is constant
                   for value, constant in zip(values, constants))
        monkeypatch.setattr(terms, "_INTERN_LIMIT", 5)
        assert Constant(2) is Constant(2)
        assert Constant(2.0) is not Constant(2.0) == Constant(2.0)
        assert Constant("2") is not Constant("2")
        assert sum(map(len, Constant._intern.values())) == 5

    def test_is_ground(self):
        assert Constant("a").is_ground

    def test_hashable(self):
        assert len({Constant("a"), Constant("a"), Constant("b")}) == 2

    def test_substitute_is_identity(self):
        c = Constant("a")
        assert c.substitute(Substitution({Variable("X"): Constant("b")})) is c

    def test_rejects_term_values(self):
        with pytest.raises(TypeError):
            Constant(Variable("X"))

    def test_str(self):
        assert str(Constant("russ")) == "russ"
        assert str(Constant(42)) == "42"


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_not_ground(self):
        assert not Variable("X").is_ground

    def test_substitute_bound(self):
        subst = Substitution({Variable("X"): Constant("a")})
        assert Variable("X").substitute(subst) == Constant("a")

    def test_substitute_unbound_is_identity(self):
        subst = Substitution({Variable("Y"): Constant("a")})
        assert Variable("X").substitute(subst) == Variable("X")

    def test_rejects_empty_name(self):
        with pytest.raises(TypeError):
            Variable("")


class TestMakeTerm:
    def test_uppercase_is_variable(self):
        assert make_term("X") == Variable("X")
        assert make_term("Xyz") == Variable("Xyz")

    def test_underscore_is_variable(self):
        assert make_term("_anon") == Variable("_anon")

    def test_lowercase_is_constant(self):
        assert make_term("abc") == Constant("abc")

    def test_numbers_are_constants(self):
        assert make_term(7) == Constant(7)

    def test_terms_pass_through(self):
        v = Variable("X")
        assert make_term(v) is v


class TestAtom:
    def test_coerces_arguments(self):
        atom = Atom("p", ["X", "a", 3])
        assert atom.args == (Variable("X"), Constant("a"), Constant(3))

    def test_signature_and_arity(self):
        assert Atom("p", ["a", "b"]).signature == ("p", 2)
        assert Atom("p").arity == 0

    def test_groundness(self):
        assert Atom("p", ["a"]).is_ground
        assert not Atom("p", ["X"]).is_ground

    def test_binding_pattern(self):
        assert Atom("p", ["a", "X", "b"]).binding_pattern() == "bfb"
        assert Atom("p").binding_pattern() == ""

    def test_variables(self):
        atom = Atom("p", ["X", "a", "X", "Y"])
        assert list(atom.variables()) == [
            Variable("X"), Variable("X"), Variable("Y")
        ]

    def test_substitute(self):
        atom = Atom("p", ["X", "Y"])
        subst = Substitution({Variable("X"): Constant("a")})
        assert atom.substitute(subst) == Atom("p", ["a", "Y"])

    def test_empty_substitution_returns_self(self):
        atom = Atom("p", ["X"])
        assert atom.substitute(Substitution()) is atom

    def test_equality_and_hash(self):
        assert Atom("p", ["a"]) == Atom("p", ["a"])
        assert Atom("p", ["a"]) != Atom("q", ["a"])
        assert len({Atom("p", ["a"]), Atom("p", ["a"])}) == 1

    def test_str(self):
        assert str(Atom("p", ["X", "a"])) == "p(X, a)"
        assert str(Atom("nullary")) == "nullary"


class TestSubstitution:
    def test_mapping_protocol(self):
        subst = Substitution({Variable("X"): Constant("a")})
        assert subst[Variable("X")] == Constant("a")
        assert len(subst) == 1
        assert Variable("X") in subst

    def test_resolves_chains_at_construction(self):
        subst = Substitution({
            Variable("X"): Variable("Y"),
            Variable("Y"): Constant("c"),
        })
        assert subst[Variable("X")] == Constant("c")

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            Substitution({
                Variable("X"): Variable("Y"),
                Variable("Y"): Variable("X"),
            })

    def test_rejects_self_binding(self):
        with pytest.raises(ValueError):
            Substitution({Variable("X"): Variable("X")})

    def test_rejects_non_variable_keys(self):
        with pytest.raises(TypeError):
            Substitution({Constant("a"): Constant("b")})

    def test_compose_applies_sequentially(self):
        first = Substitution({Variable("X"): Variable("Y")})
        second = Substitution({Variable("Y"): Constant("c")})
        composed = first.compose(second)
        assert composed[Variable("X")] == Constant("c")
        assert composed[Variable("Y")] == Constant("c")

    def test_compose_matches_sequential_application(self):
        atom = Atom("p", ["X", "Y", "Z"])
        first = Substitution({Variable("X"): Variable("Y")})
        second = Substitution({
            Variable("Y"): Constant("c"),
            Variable("Z"): Constant("d"),
        })
        assert atom.substitute(first).substitute(second) == atom.substitute(
            first.compose(second)
        )

    def test_restrict(self):
        subst = Substitution({
            Variable("X"): Constant("a"),
            Variable("Y"): Constant("b"),
        })
        restricted = subst.restrict([Variable("X")])
        assert dict(restricted) == {Variable("X"): Constant("a")}

    def test_is_ground(self):
        assert Substitution({Variable("X"): Constant("a")}).is_ground()
        assert not Substitution({Variable("X"): Variable("Y")}).is_ground()

    def test_application_is_idempotent(self):
        subst = Substitution({
            Variable("X"): Variable("Y"),
            Variable("Y"): Constant("c"),
        })
        atom = Atom("p", ["X", "Y"])
        once = atom.substitute(subst)
        assert once.substitute(subst) == once


class TestVariablesOf:
    def test_collects_across_items(self):
        found = variables_of(Atom("p", ["X", "a"]), Variable("Z"))
        assert found == {Variable("X"), Variable("Z")}

    def test_empty(self):
        assert variables_of(Atom("p", ["a"])) == set()
