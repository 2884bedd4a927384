"""Property suite: QSQN vs. top-down vs. bottom-up must always agree.

Two generators drive the comparison: hypothesis-built edge/fact sets
over fixed stratified rule skeletons (closure + negation layers), and
seed-driven :class:`WorldSpec` worlds across the whole hostile shape
zoo.  Any disagreement is shrunk with the verify shrinker and dumped
as a replayable ``worldspec-*.json`` artifact before the test fails,
so a red run always leaves a one-line repro behind.
"""

import json
import os
import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.datalog.bottomup import BottomUpEngine
from repro.datalog.database import Database
from repro.datalog.engine import TopDownEngine
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.qsqn import QSQNEngine
from repro.datalog.terms import Atom, Constant
from repro.verify.oracles import check_three_way_equivalence
from repro.verify.worldgen import WorldSpec, build_kb_world, shrink
from repro.workloads.hostile import KB_SHAPES

NODES = [Constant(f"n{i}") for i in range(6)]

edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    max_size=12,
)

STRATIFIED_RULES = """
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- edge(X, Z), reach(Z, Y).
    linked(X) :- edge(X, Y).
    linked(Y) :- edge(X, Y).
    isolated(X) :- node(X), not linked(X).
    deadend(X) :- linked(X), not source(X).
    source(X) :- edge(X, Y).
"""

QUERIES = [
    "reach(X, Y)?", "reach(n0, X)?", "reach(X, n3)?", "reach(n0, n5)?",
    "linked(X)?", "isolated(X)?", "deadend(X)?", "isolated(n2)?",
]


def _engines(rules):
    return (
        ("top-down", TopDownEngine(rules)),
        ("qsqn", QSQNEngine(rules)),
    )


def _artifact_dir():
    return os.environ.get("REPRO_ARTIFACT_DIR", tempfile.gettempdir())


def fail_with_artifact(spec, message):
    """Shrink the failing spec, save it as JSON, and raise."""
    try:
        spec = shrink(
            spec, lambda s: check_three_way_equivalence(s) is not None
        )
        message = check_three_way_equivalence(spec) or message
    except Exception:
        pass
    path = os.path.join(
        _artifact_dir(), f"worldspec-qsqn-diff-{spec.kb_shape}-{spec.seed}.json"
    )
    spec.save(path)
    raise AssertionError(
        f"{message}\nshrunk WorldSpec saved to {path}\n"
        f"replay: {spec.to_json()}"
    )


class TestHypothesisPrograms:
    @settings(deadline=None)
    @given(edges)
    def test_three_way_agreement_on_stratified_programs(self, pairs):
        rules = parse_program(STRATIFIED_RULES)
        db = Database()
        for node in NODES:
            db.add(Atom("node", [node]))
        for src, dst in pairs:
            db.add(Atom("edge", [src, dst]))
        bottom_up = BottomUpEngine(rules)
        for text in QUERIES:
            query = parse_query(text)
            reference = {
                query.substitute(s)
                for s in bottom_up.answers(query, db)
            }
            for name, engine in _engines(rules):
                got = {
                    query.substitute(a.substitution)
                    for a in engine.answers(query, db)
                }
                assert got == reference, (
                    f"{name} diverges from bottom-up on {text}: "
                    f"{sorted(map(str, got ^ reference))}"
                )
                assert engine.prove(query, db).proved == bool(reference)

    @settings(deadline=None)
    @given(edges)
    def test_answers_are_ground_instances(self, pairs):
        rules = parse_program(STRATIFIED_RULES)
        db = Database()
        for node in NODES:
            db.add(Atom("node", [node]))
        for src, dst in pairs:
            db.add(Atom("edge", [src, dst]))
        for text in QUERIES:
            query = parse_query(text)
            for name, engine in _engines(rules):
                for answer in engine.answers(query, db):
                    instance = query.substitute(answer.substitution)
                    assert instance.is_ground, (
                        f"{name} produced a non-ground answer "
                        f"{instance} for {text}"
                    )


class TestWorldSpecZoo:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=4095),
        shape=st.sampled_from(KB_SHAPES),
        storm=st.booleans(),
    )
    def test_three_way_oracle_green_across_shapes(self, seed, shape, storm):
        spec = WorldSpec(
            seed=seed,
            profile="qsqn",
            kb_shape=shape,
            negation_rate=0.2 if shape == "layered" else 0.0,
            mutation_steps=4 if storm else 0,
        )
        message = check_three_way_equivalence(spec)
        if message is not None:
            fail_with_artifact(spec, message)


class TestArtifactDump:
    def test_failing_spec_is_shrunk_and_saved(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        # Break QSQN deliberately: swallow the whole answer stream.
        monkeypatch.setattr(
            QSQNEngine, "answers",
            lambda self, query, database, limit=None: iter(()),
        )
        spec = WorldSpec(seed=1, profile="qsqn", kb_shape="deep-recursion")
        message = check_three_way_equivalence(spec)
        assert message is not None and "qsqn" in message
        try:
            fail_with_artifact(spec, message)
        except AssertionError as error:
            text = str(error)
        else:
            raise AssertionError("fail_with_artifact did not raise")
        artifacts = list(tmp_path.glob("worldspec-qsqn-diff-*.json"))
        assert len(artifacts) == 1
        assert str(artifacts[0]) in text
        saved = WorldSpec.from_dict(
            json.loads(artifacts[0].read_text())
        )
        # The shrinker materialized the world: the artifact replays
        # without the generator.
        assert saved.kb_rules is not None
        assert build_kb_world(saved).queries
