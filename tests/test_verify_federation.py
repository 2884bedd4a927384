"""The federation verify profile: oracles pass, and catch seeded bugs."""

from repro.storage.federation import FederatedStore, ProbeWindow
from repro.storage.interface import _FactRows
from repro.storage.sqlite import SQLiteFactStore
from repro.verify.federation import (
    check_federation_clean_answers,
    check_federation_determinism,
    check_federation_equivalence,
    check_federation_partial,
)
from repro.verify.runner import PROFILE_CHECKS, PROFILES, run_profile, specs_for
from repro.verify.worldgen import WorldSpec


class TestFederationProfile:
    def test_registered(self):
        assert "federation" in PROFILES
        assert WorldSpec(seed=0, profile="federation").n_shards == 3

    def test_spec_family_varies_topology(self):
        family = specs_for("federation", 6)
        assert {spec.n_shards for spec in family} == {2, 3, 4}
        assert {spec.shard_replicas for spec in family} == {True, False}
        assert all(spec.fault_rate > 0 for spec in family)

    def test_all_checks_green_on_seed_family(self):
        for spec in specs_for("federation", 3):
            assert check_federation_equivalence(spec) is None
            assert check_federation_partial(spec) is None
            assert check_federation_determinism(spec) is None
            assert check_federation_clean_answers(spec) is None

    def test_run_profile_reports_every_check(self):
        report = run_profile("federation", seeds=2)
        assert [r.name for r in report.reports] == (
            PROFILE_CHECKS["federation"]
        )
        assert report.ok


class TestFederationOraclesCatchBugs:
    """Each oracle must reject a seeded misbehaviour, not just pass."""

    def test_dishonest_complete_verdict_detected(self, monkeypatch):
        # A store that always claims completeness while shards go dark.
        monkeypatch.setattr(
            FederatedStore, "end_probe_window",
            lambda self: ProbeWindow(),
        )
        messages = [
            check_federation_partial(spec)
            for spec in specs_for("federation", 6)
        ]
        assert any(
            message is not None and "claims" in message
            for message in messages
        )

    def test_backend_enumeration_divergence_detected(self, monkeypatch):
        real = SQLiteFactStore.retrieve

        def reversed_retrieve(self, pattern):
            return iter(list(real(self, pattern))[::-1])

        monkeypatch.setattr(SQLiteFactStore, "retrieve", reversed_retrieve)
        messages = [
            check_federation_equivalence(spec)
            for spec in specs_for("federation", 4)
        ]
        assert any(
            message is not None and "sqlite" in message
            for message in messages
        )

    def test_memoized_dark_no_detected(self, monkeypatch):
        # A context that cannot see the dark shards memoizes their "no".
        monkeypatch.setattr(
            FederatedStore, "probe_window_missing", lambda self: frozenset()
        )
        messages = [
            check_federation_clean_answers(spec)
            for spec in specs_for("federation", 8)
        ]
        assert any(
            message is not None and "clean answer" in message
            for message in messages
        )

    def test_model_missing_facts_detected_on_the_engine_leg(self, monkeypatch):
        # A bottom-up model that loses the federated store's facts, as
        # one built by probing a copy of the store through dark shards
        # did, serves a clean "no" to an uncompilable form.
        monkeypatch.setattr(FederatedStore, "_relations", lambda self: _FactRows())
        messages = [
            check_federation_clean_answers(spec)
            for spec in specs_for("federation", 10)
        ]
        assert any(
            message is not None and "bottomup" in message
            for message in messages
        )
