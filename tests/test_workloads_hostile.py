"""Hostile workload generators: shapes, cadence, determinism."""

from collections import Counter

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program, parse_query
from repro.errors import ReproError
from repro.verify.worldgen import WorldSpec, build_kb_world
from repro.workloads.hostile import (
    KB_SHAPES,
    deep_recursion_program,
    hot_key_stream,
    mutation_storm,
    negation_mix_program,
    same_generation_program,
    specializing_heads_program,
)

ITEMS = [f"q{index}(X)?" for index in range(5)]


class TestHotKeyStream:
    def test_skew_ratio_is_exact(self):
        stream = hot_key_stream(7, ITEMS, hot_fraction=0.8, length=40)
        assert len(stream) == 40
        counts = Counter(stream)
        # Exactly round(0.8 * 40) positions carry the hot key; the
        # cold fill never re-draws it, so the ratio is assertable.
        assert max(counts.values()) == 32
        assert set(counts) <= set(ITEMS)

    def test_default_length_and_single_item(self):
        assert len(hot_key_stream(0, ITEMS)) == 10
        only = hot_key_stream(3, ["solo(X)?"], hot_fraction=0.5, length=6)
        assert only == ("solo(X)?",) * 6

    def test_byte_determinism_and_seed_sensitivity(self):
        assert hot_key_stream(11, ITEMS) == hot_key_stream(11, ITEMS)
        streams = {hot_key_stream(seed, ITEMS, length=30)
                   for seed in range(8)}
        assert len(streams) > 1

    def test_empty_and_invalid_inputs(self):
        assert hot_key_stream(0, []) == ()
        with pytest.raises(ValueError):
            hot_key_stream(0, ITEMS, hot_fraction=0.0)
        with pytest.raises(ValueError):
            hot_key_stream(0, ITEMS, hot_fraction=1.5)


class TestMutationStorm:
    FACTS = [f"e(c{index}, c{index + 1})." for index in range(6)]

    def test_cadence_one_op_per_step(self):
        for steps in (0, 1, 5, 20):
            assert len(mutation_storm(3, self.FACTS, steps)) == steps

    def test_byte_determinism(self):
        assert mutation_storm(9, self.FACTS, 12) == mutation_storm(
            9, self.FACTS, 12
        )
        assert mutation_storm(9, self.FACTS, 12) != mutation_storm(
            10, self.FACTS, 12
        )

    def test_ops_are_consistent_with_database_state(self):
        db = Database.from_program("\n".join(self.FACTS))
        generations = {db.generation}
        for op, text in mutation_storm(4, self.FACTS, 25):
            fact = parse_atom(text)
            if op == "add":
                assert db.add(fact), f"add of live fact {text}"
            else:
                assert db.remove(fact), f"remove of absent fact {text}"
            assert db.generation not in generations
            generations.add(db.generation)

    def test_normalizes_and_handles_empty(self):
        ops = mutation_storm(0, [" e(a, b). "], 2)
        assert ops[0] == ("remove", "e(a, b)")
        assert mutation_storm(0, [], 5) == ()
        assert mutation_storm(0, ["  "], 5) == ()


class TestProgramGenerators:
    @pytest.mark.parametrize("generator", [
        deep_recursion_program,
        same_generation_program,
        negation_mix_program,
        specializing_heads_program,
    ])
    def test_deterministic_and_parseable(self, generator):
        first = generator(5)
        assert first == generator(5)
        assert first != generator(6)
        rules, facts, queries = first
        base = parse_program("\n".join(rules))
        Database.from_program("\n".join(facts))
        assert queries
        for text in queries:
            parse_query(text)
        # Stratification must succeed: these worlds feed engines that
        # require it.
        base.stratification()

    def test_deep_recursion_includes_the_deepest_goal(self):
        rules, facts, queries = deep_recursion_program(0, depth=24)
        assert queries[0] == "tc(n0, n24)?"
        chain = [line for line in facts if line.startswith("e(")]
        assert len(chain) >= 24

    def test_deep_recursion_depth_is_clamped(self):
        _, facts, queries = deep_recursion_program(0, depth=500)
        assert queries[0] == "tc(n0, n24)?"

    def test_same_generation_pairs_grow_quadratically(self):
        from repro.datalog.bottomup import BottomUpEngine

        rules, facts, _ = same_generation_program(0, depth=3, fanout=2)
        base = parse_program("\n".join(rules))
        db = Database.from_program("\n".join(facts))
        query = parse_query("sg(X, Y)?")
        pairs = sum(1 for _ in BottomUpEngine(base).answers(query, db))
        # 8 leaves alone contribute 64 same-generation pairs; the
        # linear fact count (14 par tuples) must fan out quadratically.
        assert pairs > 4 * len(facts)

    def test_negation_mix_negates_in_every_rule(self):
        rules, _, _ = negation_mix_program(3)
        derived = [line for line in rules if line.startswith("p")]
        assert derived
        assert all("not " in line for line in derived)


    def test_specializing_heads_compile_and_specialize(self):
        from repro.datalog.rules import QueryForm
        from repro.system import SelfOptimizingQueryProcessor

        for seed in range(6):
            rules, _, queries = specializing_heads_program(seed)
            base = parse_program("\n".join(rules))
            heads = [rule.head for rule in base]
            assert any(any(arg.is_ground for arg in head.args)
                       for head in heads)
            assert any(len(set(head.args)) < len(head.args)
                       for head in heads)
            assert any(literal.atom.predicate == "s" for rule in base
                       if rule.head.predicate == "t" for literal in rule.body)
            processor = SelfOptimizingQueryProcessor(base)
            assert all(processor.ensure_compiled(QueryForm.of(parse_query(q)))
                       for q in queries)


class TestWorldgenIntegration:
    def test_kb_shape_dispatch(self):
        for shape in KB_SHAPES:
            spec = WorldSpec(seed=2, profile="qsqn", kb_shape=shape)
            world = build_kb_world(spec)
            assert world.queries, shape
        deep = build_kb_world(
            WorldSpec(seed=2, profile="qsqn", kb_shape="deep-recursion")
        )
        assert any(r.startswith("tc") for r in deep.rule_text)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ReproError):
            WorldSpec(seed=0, profile="qsqn", kb_shape="cyclic")

    def test_hot_key_skew_expands_the_stream(self):
        plain = build_kb_world(WorldSpec(seed=4, profile="qsqn"))
        skewed = build_kb_world(
            WorldSpec(seed=4, profile="qsqn", hot_key_skew=0.75)
        )
        # Same base text (the shrinker's edit surface), bigger stream.
        assert skewed.query_text == plain.query_text
        assert len(skewed.queries) > len(plain.queries)
        counts = Counter(str(query) for query in skewed.queries)
        assert max(counts.values()) >= round(0.75 * len(skewed.queries))

    def test_shape_defaults_leave_existing_profiles_untouched(self):
        spec = WorldSpec(seed=1, profile="engine")
        assert spec.kb_shape == "layered"
        assert spec.mutation_steps == 0
        assert spec.hot_key_skew == 0.0
        assert "kb_shape" not in spec.to_dict()
