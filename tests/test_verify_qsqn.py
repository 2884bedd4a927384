"""The qsqn verify profile: three-way oracle passes, and catches bugs."""

import io

from repro.cli import main
from repro.datalog.qsqn import QSQNEngine
from repro.storage.interface import FactStore
from repro.verify.oracles import check_three_way_equivalence
from repro.verify.runner import (
    PROFILE_CHECKS,
    PROFILES,
    run_profile,
    specs_for,
)
from repro.verify.worldgen import WorldSpec, shrink


class TestQSQNProfile:
    def test_registered(self):
        assert "qsqn" in PROFILES
        assert PROFILE_CHECKS["qsqn"] == ["qsqn-three-way-equivalence"]

    def test_spec_family_cycles_the_hostile_zoo(self):
        family = specs_for("qsqn", 8)
        assert {spec.kb_shape for spec in family} == {
            "layered", "deep-recursion", "same-generation", "negation-mix",
        }
        assert {spec.mutation_steps for spec in family} == {0, 6}
        assert any(spec.hot_key_skew > 0 for spec in family)
        assert any(spec.negation_rate > 0 for spec in family)

    def test_oracle_green_on_seed_family(self):
        for spec in specs_for("qsqn", 8):
            assert check_three_way_equivalence(spec) is None

    def test_run_profile_reports_the_check(self):
        report = run_profile("qsqn", seeds=4)
        assert [r.name for r in report.reports] == PROFILE_CHECKS["qsqn"]
        assert report.ok

    def test_cli_accepts_the_profile(self):
        out = io.StringIO()
        code = main(
            ["verify", "--seeds", "2", "--profile", "qsqn"], out=out
        )
        assert code == 0
        assert "profile qsqn:" in out.getvalue()
        assert "qsqn-three-way-equivalence" in out.getvalue()


class TestOracleCatchesBrokenEngines:
    """The three-way check must reject seeded misbehaviour, not just pass."""

    def test_dropped_qsqn_answers_detected(self, monkeypatch):
        real = QSQNEngine._answer_rows

        def lossy(self, query, database, trace):
            rows = list(real(self, query, database, trace))
            return iter(rows[:-1])  # swallow the last derived answer

        monkeypatch.setattr(QSQNEngine, "_answer_rows", lossy)
        messages = [
            check_three_way_equivalence(spec)
            for spec in specs_for("qsqn", 8)
        ]
        assert any(
            message is not None and "qsqn" in message
            for message in messages
        )

    def test_stale_cache_detected_by_mutation_storms(self, monkeypatch):
        # A registry that never invalidates QSQN's net: pin every
        # lookup to the first state it built by ignoring the
        # generation the entry was built at.
        real = FactStore._derived_state

        def sticky(self, owner, build):
            entry = self._derived.get(owner)
            if entry is not None and isinstance(owner, QSQNEngine):
                return entry[1]
            return real(self, owner, build)

        monkeypatch.setattr(FactStore, "_derived_state", sticky)
        stormy = [
            spec for spec in specs_for("qsqn", 8) if spec.mutation_steps
        ]
        messages = [check_three_way_equivalence(spec) for spec in stormy]
        assert any(
            message is not None and "storm step" in message
            for message in messages
        )

    def test_failures_shrink_to_materialized_worlds(self, monkeypatch):
        monkeypatch.setattr(
            QSQNEngine, "answers",
            lambda self, query, database, limit=None: iter(()),
        )
        spec = WorldSpec(seed=1, profile="qsqn", kb_shape="same-generation")
        assert check_three_way_equivalence(spec) is not None
        small = shrink(
            spec, lambda s: check_three_way_equivalence(s) is not None
        )
        assert small.kb_rules is not None
        assert small.kb_queries
        assert len(small.kb_queries) <= spec.n_queries
