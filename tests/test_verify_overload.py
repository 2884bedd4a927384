"""The overload verify profile's cache-coherence check: it passes, and
it catches an admission path that serves stale or queued hits."""

import pytest

from repro.serving.server import QueryServer
from repro.verify.overload import check_overload_cache_coherence
from repro.verify.runner import PROFILE_CHECKS, run_profile, specs_for


def failures(family=10):
    return [
        message
        for message in map(check_overload_cache_coherence,
                           specs_for("overload", family))
        if message is not None
    ]


class TestOverloadCacheCoherence:
    def test_green_on_seed_family(self):
        assert failures() == []

    def test_run_profile_reports_every_check(self):
        report = run_profile("overload", seeds=2)
        assert [r.name for r in report.reports] == PROFILE_CHECKS["overload"]
        assert "overload-cache-coherence" in PROFILE_CHECKS["overload"]
        assert report.ok

    def test_version_blind_admission_lookup_detected(self, monkeypatch):
        # Admission keys its lookup on version 0, so it never sees a
        # write; dispatch lookups stay correct.
        real = QueryServer._cached

        def blind(self, query, plan, database, count_miss=True):
            if count_miss:
                return real(self, query, plan, database)
            return self.answer_cache.lookup(query, database, 0,
                                            count_miss=False), 0

        monkeypatch.setattr(QueryServer, "_cached", blind)
        messages = failures()
        assert messages
        assert all("model" in message for message in messages)

    def test_hits_queued_behind_misses_detected(self, monkeypatch):
        # Admission never answers from the cache, so every hit queues.
        real = QueryServer._cached

        def queued(self, query, plan, database, count_miss=True):
            if count_miss:
                return real(self, query, plan, database)
            return None, 0

        monkeypatch.setattr(QueryServer, "_cached", queued)
        assert any("waited" in message for message in failures())

    @pytest.mark.parametrize("bug", ["dropped_head_test",
                                     "dropped_head_bindings"])
    def test_learned_path_bugs_are_caught(self, bug, request):
        # Seed 1 is a specializing-heads world: its rule heads reject
        # or bind the queries the bugs answer wrongly.
        request.getfixturevalue(bug)
        messages = failures(family=4)
        assert messages
        assert all("model" in message for message in messages)
