"""Unit tests for unification, matching, and variable renaming."""


from repro.datalog.terms import Atom, Constant, Variable
from repro.datalog.unify import (
    fresh_variable_factory,
    match,
    rename_apart,
    unify,
)


class TestUnify:
    def test_identical_ground_atoms(self):
        unifier = unify(Atom("p", ["a"]), Atom("p", ["a"]))
        assert unifier is not None and len(unifier) == 0

    def test_different_constants_fail(self):
        assert unify(Atom("p", ["a"]), Atom("p", ["b"])) is None

    def test_different_predicates_fail(self):
        assert unify(Atom("p", ["a"]), Atom("q", ["a"])) is None

    def test_different_arity_fail(self):
        assert unify(Atom("p", ["a"]), Atom("p", ["a", "b"])) is None

    def test_binds_left_variable(self):
        unifier = unify(Atom("p", ["X"]), Atom("p", ["a"]))
        assert unifier[Variable("X")] == Constant("a")

    def test_binds_right_variable(self):
        unifier = unify(Atom("p", ["a"]), Atom("p", ["X"]))
        assert unifier[Variable("X")] == Constant("a")

    def test_variable_to_variable(self):
        unifier = unify(Atom("p", ["X"]), Atom("p", ["Y"]))
        assert unifier is not None
        # Applying the unifier makes the atoms equal.
        assert Atom("p", ["X"]).substitute(unifier) == Atom("p", ["Y"]).substitute(unifier)

    def test_repeated_variables_constrain(self):
        # p(X, X) with p(a, b) must fail.
        assert unify(Atom("p", ["X", "X"]), Atom("p", ["a", "b"])) is None
        # p(X, X) with p(a, a) binds X=a.
        unifier = unify(Atom("p", ["X", "X"]), Atom("p", ["a", "a"]))
        assert unifier[Variable("X")] == Constant("a")

    def test_cross_bindings(self):
        unifier = unify(Atom("p", ["X", "b"]), Atom("p", ["a", "Y"]))
        assert unifier[Variable("X")] == Constant("a")
        assert unifier[Variable("Y")] == Constant("b")

    def test_transitive_variable_chain(self):
        # p(X, X) ~ p(Y, a) forces X=Y=a.
        unifier = unify(Atom("p", ["X", "X"]), Atom("p", ["Y", "a"]))
        assert Atom("p", ["X", "X"]).substitute(unifier) == Atom("p", ["a", "a"])

    def test_mgu_makes_atoms_equal(self):
        left = Atom("r", ["X", "b", "Z"])
        right = Atom("r", ["a", "Y", "Y"])
        unifier = unify(left, right)
        assert left.substitute(unifier) == right.substitute(unifier)


class TestMatch:
    def test_pattern_variable_binds(self):
        binding = match(Atom("p", ["X"]), Atom("p", ["a"]))
        assert binding[Variable("X")] == Constant("a")

    def test_target_variables_never_bind(self):
        # match is one-sided: a constant pattern cannot match a variable target.
        assert match(Atom("p", ["a"]), Atom("p", ["X"])) is None

    def test_constant_mismatch(self):
        assert match(Atom("p", ["a"]), Atom("p", ["b"])) is None

    def test_repeated_pattern_variables(self):
        assert match(Atom("p", ["X", "X"]), Atom("p", ["a", "b"])) is None
        binding = match(Atom("p", ["X", "X"]), Atom("p", ["a", "a"]))
        assert binding[Variable("X")] == Constant("a")

    def test_match_result_instantiates_pattern(self):
        pattern = Atom("p", ["X", "b", "Y"])
        target = Atom("p", ["a", "b", "c"])
        binding = match(pattern, target)
        assert pattern.substitute(binding) == target


class TestRenameApart:
    def test_freshens_all_variables(self):
        factory = fresh_variable_factory()
        atoms = (Atom("p", ["X", "Y"]),)
        renamed = rename_apart(atoms, factory)
        new_vars = set(renamed[0].variables())
        assert new_vars.isdisjoint({Variable("X"), Variable("Y")})

    def test_shared_variables_stay_shared(self):
        factory = fresh_variable_factory()
        head, body = rename_apart(
            (Atom("p", ["X"]), Atom("q", ["X", "Y"])), factory
        )
        assert head.args[0] == body.args[0]
        assert body.args[0] != body.args[1]

    def test_successive_renamings_disjoint(self):
        factory = fresh_variable_factory()
        first = rename_apart((Atom("p", ["X"]),), factory)
        second = rename_apart((Atom("p", ["X"]),), factory)
        assert set(first[0].variables()).isdisjoint(second[0].variables())

    def test_fresh_names_cannot_collide_with_user_names(self):
        factory = fresh_variable_factory()
        fresh = factory("X")
        assert "#" in fresh.name

    def test_constants_untouched(self):
        factory = fresh_variable_factory()
        (renamed,) = rename_apart((Atom("p", ["a", "X"]),), factory)
        assert renamed.args[0] == Constant("a")

    def test_fresh_variables_equal_their_named_twins(self):
        fresh = fresh_variable_factory()("X")
        named = Variable(fresh.name)
        assert fresh == named and named == fresh
        assert hash(fresh) == hash(named)
        assert {named: 1}[fresh] == 1

    def test_fresh_variables_skip_the_intern_table(self):
        factory = fresh_variable_factory()
        atoms = (Atom("p", ["X", "Y"]), Atom("q", ["Y", "Y"]))
        before = len(Variable._intern)
        head, body = rename_apart(atoms, factory)
        assert len(Variable._intern) == before
        assert all(Variable._intern.get(var.name) is not var
                   for var in head.variables())
        # Still one object per renamed variable, distinct from the
        # originals.
        assert head.args[1] is body.args[0] is body.args[1]
        assert set(head.variables()).isdisjoint(atoms[0].variables())
