"""Admission control: queues, quotas, shedding, health, determinism.

Unit-level coverage of the :mod:`repro.serving.admission` pieces plus
the server-level contracts the overload verify profile checks at
scale:

* every request gets exactly one typed outcome — the hot path never
  raises;
* the outcome sequence is byte-identical across reruns and worker
  counts;
* under ``reject-over-quota`` a noisy neighbour loses its own queue
  slots rather than starving a small tenant;
* with ``admission=None`` (the default) the server's batch path is
  byte-identical to the pre-admission serving layer.
"""

import json

import pytest

from repro import (
    AdmissionConfig,
    CacheConfig,
    Request,
    SelfOptimizingQueryProcessor,
    ServerHealth,
    ServingConfig,
    SessionConfig,
    Tracer,
    open_session,
)
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program, parse_query
from repro.serving.admission import (
    REASON_DEADLINE,
    REASON_DRAINING,
    REASON_EVICTED,
    REASON_OVER_QUOTA,
    REASON_QUEUE_FULL,
    AdmissionQueue,
    HealthTracker,
    LoadShedder,
    TenantQuota,
    coerce_requests,
)
from repro.serving.server import QueryServer

RULES = """
@Rp instructor(X) :- prof(X).
@Rg instructor(X) :- grad(X).
@Sp senior(X) :- prof(X).
@Sd senior(X) :- dean(X).
"""

FACTS = "prof(russ). grad(manolis). grad(lena). dean(ullman)."


def make_db() -> Database:
    return Database.from_program(FACTS)


def make_server(admission, workers=1, cache=None, recorder=None):
    processor = SelfOptimizingQueryProcessor(
        parse_program(RULES),
        config=SessionConfig(),
        recorder=recorder,
    )
    return QueryServer(
        processor,
        serving=ServingConfig(workers=workers, admission=admission),
        cache=cache or CacheConfig(),
    )


def burst(count: int, tenants: int = 1):
    queries = [
        parse_query(f"instructor({'russ' if i % 2 else 'lena'})")
        for i in range(count)
    ]
    return coerce_requests(queries, tenants=tenants)


def fingerprint(outcomes):
    return json.dumps([
        (o.request.tenant, o.status, o.reason, round(o.latency, 9),
         None if o.answer is None else (o.answer.proved,
                                        round(o.answer.cost, 9)))
        for o in outcomes
    ])


class TestAdmissionQueue:
    def test_fifo_among_equal_deadlines(self):
        queue = AdmissionQueue(4)
        requests = [Request(parse_query(f"instructor(p{i})"))
                    for i in range(3)]
        for seq, request in enumerate(requests):
            queue.push(request, seq, None)
        assert [queue.pop()[0] for _ in range(3)] == [0, 1, 2]
        assert queue.pop() is None

    def test_earliest_deadline_first(self):
        queue = AdmissionQueue(4)
        relaxed = Request(parse_query("instructor(a)"), deadline=90.0)
        urgent = Request(parse_query("instructor(b)"), deadline=5.0)
        unbounded = Request(parse_query("instructor(c)"))
        queue.push(relaxed, 0, None)
        queue.push(unbounded, 1, None)
        queue.push(urgent, 2, None)
        order = [queue.pop()[1] for _ in range(3)]
        assert order == [urgent, relaxed, unbounded]

    def test_config_default_deadline_applies(self):
        queue = AdmissionQueue(4)
        defaulted = Request(parse_query("instructor(a)"))
        explicit = Request(parse_query("instructor(b)"), deadline=50.0)
        queue.push(defaulted, 0, 10.0)
        queue.push(explicit, 1, 10.0)
        assert queue.pop()[1] is defaulted

    def test_evict_tenant_drops_newest(self):
        queue = AdmissionQueue(4)
        for seq in range(3):
            queue.push(Request(parse_query(f"instructor(p{seq})"),
                               tenant="hog"), seq, None)
        seq, victim = queue.evict_tenant("hog")
        assert seq == 2
        assert queue.evict_tenant("absent") is None
        assert len(queue) == 2

    def test_bookkeeping(self):
        queue = AdmissionQueue(2)
        assert not queue.full
        queue.push(Request(parse_query("instructor(a)")), 0, None)
        queue.push(Request(parse_query("instructor(b)")), 1, None)
        assert queue.full
        assert queue.offered == 2
        assert queue.peak_depth == 2
        assert queue.tenant_depths() == {"default": 2}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


class TestTenantQuota:
    def test_rate_zero_never_limits(self):
        quota = TenantQuota(rate=0.0, burst=1)
        for _ in range(100):
            quota.tick()
            assert quota.try_acquire("t0")

    def test_burst_then_refill(self):
        quota = TenantQuota(rate=0.5, burst=2)
        quota.tick()
        assert quota.try_acquire("t0")
        assert quota.try_acquire("t0")
        assert not quota.try_acquire("t0")  # bucket empty
        quota.tick()
        quota.tick()  # two ticks x 0.5 = one token back
        assert quota.try_acquire("t0")
        assert not quota.try_acquire("t0")

    def test_tokens_cap_at_burst(self):
        quota = TenantQuota(rate=1.0, burst=2)
        quota.tick()
        assert quota.try_acquire("t0")
        for _ in range(50):
            quota.tick()
        assert quota.try_acquire("t0")
        assert quota.try_acquire("t0")
        assert not quota.try_acquire("t0")

    def test_tenants_are_independent(self):
        quota = TenantQuota(rate=0.1, burst=1)
        quota.tick()
        assert quota.try_acquire("t0")
        assert not quota.try_acquire("t0")
        assert quota.try_acquire("t1")


class TestLoadShedder:
    def test_reject_newest_names_no_victim(self):
        shedder = LoadShedder("reject-newest")
        queue = AdmissionQueue(1)
        queue.push(Request(parse_query("instructor(a)"), tenant="hog"),
                   0, None)
        incoming = Request(parse_query("instructor(b)"), tenant="small")
        assert shedder.overflow_victim(queue, incoming) is None
        assert not shedder.wants_degrade

    def test_reject_over_quota_evicts_the_hog(self):
        shedder = LoadShedder("reject-over-quota")
        queue = AdmissionQueue(3)
        for seq in range(3):
            queue.push(Request(parse_query(f"instructor(p{seq})"),
                               tenant="hog"), seq, None)
        incoming = Request(parse_query("instructor(x)"), tenant="small")
        seq, victim = shedder.overflow_victim(queue, incoming)
        assert victim.tenant == "hog"
        assert seq == 2  # the hog's newest

    def test_reject_over_quota_spares_equal_tenants(self):
        shedder = LoadShedder("reject-over-quota")
        queue = AdmissionQueue(2)
        queue.push(Request(parse_query("instructor(a)"), tenant="t0"),
                   0, None)
        queue.push(Request(parse_query("instructor(b)"), tenant="t1"),
                   1, None)
        incoming = Request(parse_query("instructor(c)"), tenant="t0")
        # t1 holds no more slots than t0: reject the newcomer instead.
        assert shedder.overflow_victim(queue, incoming) is None

    def test_shed_counts(self):
        shedder = LoadShedder("reject-newest")
        shedder.note(REASON_QUEUE_FULL)
        shedder.note(REASON_QUEUE_FULL)
        assert shedder.snapshot()["shed"] == {REASON_QUEUE_FULL: 2}


class TestHealthTracker:
    def test_shed_and_recover_thresholds(self):
        tracker = HealthTracker(shed_threshold=0.8, recover_threshold=0.5)
        assert tracker.update(7, 10) is None
        assert tracker.update(8, 10) == ("healthy", "shedding")
        assert tracker.update(6, 10) is None  # above recover threshold
        assert tracker.update(5, 10) == ("shedding", "healthy")

    def test_breaker_forces_shedding(self):
        tracker = HealthTracker(shed_threshold=0.8, recover_threshold=0.5)
        assert tracker.update(0, 10, breaker_open=True) == \
            ("healthy", "shedding")
        assert tracker.update(0, 10, breaker_open=True) is None
        assert tracker.update(0, 10) == ("shedding", "healthy")

    def test_draining_is_sticky(self):
        tracker = HealthTracker(shed_threshold=0.8, recover_threshold=0.5)
        assert tracker.drain() == ("healthy", "draining")
        assert tracker.update(0, 10) is None
        assert tracker.state is ServerHealth.DRAINING


class TestServerAdmission:
    def test_every_request_gets_one_typed_outcome(self):
        server = make_server(AdmissionConfig(queue_capacity=2))
        outcomes = server.run_requests(burst(10), make_db())
        assert len(outcomes) == 10
        assert all(o.status in ("served", "rejected", "degraded")
                   for o in outcomes)
        served = [o for o in outcomes if o.served]
        rejected = [o for o in outcomes if o.rejected]
        assert len(served) == 2 and len(rejected) == 8
        assert all(o.answer is None and o.reason == REASON_QUEUE_FULL
                   for o in rejected)

    def test_byte_identity_across_reruns_and_workers(self):
        def run(workers):
            server = make_server(
                AdmissionConfig(queue_capacity=3, tenant_rate=0.5),
                workers=workers,
            )
            return server.run_requests(burst(12, tenants=3), make_db())

        first, second, parallel = run(1), run(1), run(4)
        assert fingerprint(first) == fingerprint(second)
        assert fingerprint(first) == fingerprint(parallel)

    def test_quota_fairness_protects_the_small_tenant(self):
        server = make_server(
            AdmissionConfig(queue_capacity=3,
                            shed_policy="reject-over-quota"),
        )
        hog = [Request(parse_query(f"instructor(p{i})"), tenant="hog")
               for i in range(3)]
        small = [Request(parse_query("instructor(russ)"), tenant="small")]
        outcomes = server.run_requests(hog + small, make_db())
        by_tenant = {}
        for outcome in outcomes:
            by_tenant.setdefault(outcome.request.tenant, []).append(outcome)
        assert by_tenant["small"][0].served
        evicted = [o for o in by_tenant["hog"]
                   if o.reason == REASON_EVICTED]
        assert len(evicted) == 1
        assert evicted[0].request is hog[-1]  # the hog's newest slot

    def test_degrade_to_cached_serves_stale_answers(self):
        admission = AdmissionConfig(queue_capacity=1,
                                    shed_policy="degrade-to-cached")
        server = make_server(admission,
                             cache=CacheConfig(answer_capacity=8))
        db = make_db()
        warm = server.run_requests(burst(1), db)
        assert warm[0].served
        # A write under lena's read set: the warm entry is now stale,
        # so the storm's lena requests miss and queue.
        db.add(parse_atom("prof(lena)"))
        stormy = server.run_requests(burst(4), db)
        degraded = [o for o in stormy if o.degraded]
        assert degraded, "overflow should salvage the cached answer"
        for outcome in degraded:
            assert outcome.answer is not None
            assert outcome.answer.degraded
            assert outcome.reason == REASON_QUEUE_FULL
            assert "admission" in outcome.answer.incident

    def test_deadline_expires_in_queue(self):
        server = make_server(
            AdmissionConfig(queue_capacity=16, deadline=0.5),
        )
        outcomes = server.run_requests(burst(6), make_db())
        # The form's virtual clock exceeds 0.5 after the first serve,
        # so later queued requests expire without running.
        assert outcomes[0].served
        expired = [o for o in outcomes
                   if o.reason == "deadline-expired-in-queue"]
        assert expired and all(o.rejected for o in expired)

    def test_drain_refuses_new_requests(self):
        server = make_server(AdmissionConfig(queue_capacity=4))
        server.drain()
        assert server.health is ServerHealth.DRAINING
        outcomes = server.run_requests(burst(2), make_db())
        assert all(o.rejected and o.reason == REASON_DRAINING
                   for o in outcomes)

    def test_health_transitions_recorded_in_snapshot(self):
        server = make_server(AdmissionConfig(queue_capacity=2))
        server.run_requests(burst(8), make_db())
        admission = server.snapshot()["admission"]
        assert admission["health"]["state"] == "healthy"
        assert "healthy->shedding" in admission["health"]["transitions"]
        assert admission["rejected"] == 6

    def test_run_batch_returns_answers_under_admission(self):
        server = make_server(AdmissionConfig(queue_capacity=2))
        answers = server.run_batch(
            [parse_query("instructor(russ)")] * 5, make_db()
        )
        assert len(answers) == 5
        assert answers[0].proved
        synthesized = [a for a in answers if a.degraded]
        assert len(synthesized) == 3
        assert all(not a.proved and a.cost == 0.0 for a in synthesized)


class TestCacheHitsAtAdmission:
    """A coherent answer-cache hit is answered at admission, at one
    overhead tick: it takes no queue slot, so it is never shed or
    expired in a queue, while draining and tenant quotas still apply
    to it and a write under its read set still makes it a miss."""

    RULES = """
    instructor(X) :- prof(X).
    instructor(X) :- grad(X).
    """
    LENA = parse_query("instructor(lena)")

    def warm(self, admission, recorder=None):
        """A server whose cache holds ``instructor(lena)``, and its
        store."""
        processor = SelfOptimizingQueryProcessor(
            parse_program(self.RULES), config=SessionConfig(),
            recorder=recorder,
        )
        server = QueryServer(
            processor,
            serving=ServingConfig(admission=admission),
            cache=CacheConfig(answer_capacity=8),
        )
        db = Database.from_program("prof(russ). grad(lena).")
        warm = server.run_requests([self.LENA], db)
        assert warm[0].served and not warm[0].answer.cached
        return server, db

    @pytest.mark.parametrize("policy", [
        "reject-newest", "reject-over-quota", "degrade-to-cached",
    ])
    def test_cached_answer_is_never_shed(self, policy):
        server, db = self.warm(
            AdmissionConfig(queue_capacity=1, shed_policy=policy)
        )
        outcomes = server.run_requests([self.LENA] * 3, db)
        assert [o.status for o in outcomes] == ["served"] * 3
        assert all(o.answer.cached and o.answer.proved
                   and o.latency == 1.0 for o in outcomes)
        admission = server.snapshot()["admission"]
        assert admission["rejected"] == admission["degraded"] == 0

    def test_draining_refuses_a_cached_answer(self):
        server, db = self.warm(AdmissionConfig(queue_capacity=1))
        server.drain()
        outcomes = server.run_requests([self.LENA] * 2, db)
        assert all(o.rejected and o.reason == REASON_DRAINING
                   for o in outcomes)

    def test_tenant_over_quota_is_shed_though_cached(self):
        server, db = self.warm(
            AdmissionConfig(queue_capacity=1, tenant_rate=0.01)
        )
        outcomes = server.run_requests([self.LENA] * 10, db)
        # The warm request spent one of the bucket's eight tokens.
        assert [o.status for o in outcomes] == \
            ["served"] * 7 + ["rejected"] * 3
        assert all(o.reason == REASON_OVER_QUOTA for o in outcomes[7:])
        assert all(o.answer.cached for o in outcomes[:7])

    def test_short_deadline_never_expires_a_hit(self):
        server, db = self.warm(
            AdmissionConfig(queue_capacity=8, deadline=0.5)
        )
        russ = parse_query("instructor(russ)")
        outcomes = server.run_requests(
            [russ, self.LENA, russ, self.LENA], db
        )
        # The miss runs at clock 0; its repeat waits past the deadline.
        assert outcomes[0].served and not outcomes[0].answer.cached
        assert outcomes[2].reason == REASON_DEADLINE
        for hit in (outcomes[1], outcomes[3]):
            assert hit.served and hit.answer.cached
            assert hit.latency == 1.0

    def test_write_under_the_read_set_makes_a_miss(self):
        server, db = self.warm(AdmissionConfig(queue_capacity=4))
        db.remove(parse_atom("grad(lena)"))
        outcome = server.run_requests([self.LENA], db)[0]
        assert outcome.served
        assert not outcome.answer.cached
        assert not outcome.answer.proved
        assert outcome.latency > 1.0

    def test_outcomes_identical_across_workers(self):
        def run(workers):
            server = make_server(
                AdmissionConfig(queue_capacity=2, tenant_rate=0.5),
                workers=workers, cache=CacheConfig(answer_capacity=8),
            )
            db = make_db()
            queries = [parse_query(f"{name}({who})")
                       for name in ("instructor", "senior")
                       for who in ("russ", "lena", "ullman")]
            requests = coerce_requests(queries * 3, tenants=2)
            return [fingerprint(server.run_requests(requests, db))
                    for _ in range(2)]

        serial = run(1)
        assert serial == run(3)
        assert '"served"' in serial[1]

    def test_each_request_counts_once(self):
        tracer = Tracer()
        server, db = self.warm(AdmissionConfig(queue_capacity=8),
                               recorder=tracer)
        russ = parse_query("instructor(russ)")
        # lena hits at admission; russ misses there, and its repeat
        # hits at dispatch, behind the first russ.
        outcomes = server.run_requests([self.LENA, russ, russ], db)
        assert [o.answer.cached for o in outcomes] == [True, False, True]
        assert outcomes[2].latency > 1.0
        stats = server.answer_cache.stats
        assert (stats.hits, stats.misses) == (2, 2)
        assert stats.lookups == 1 + len(outcomes)
        # The warm burst's miss is counted too.
        actions = [e["action"] for e in tracer.events_of("cache")
                   if e["cache"] == "answer"]
        assert actions.count("hit") == 2 and actions.count("miss") == 2
        served = [e for e in tracer.events_of("admission")
                  if e["action"] == "served"]
        assert served[1]["latency"] == 1.0  # lena, at admission
        # The warm request and the two russes queued; lena did not.
        assert len(tracer.events_of("queue_depth")) == 3

    def test_no_stale_table_under_a_policy_that_never_reads_it(self):
        for policy in ("reject-newest", "reject-over-quota"):
            server, db = self.warm(AdmissionConfig(
                queue_capacity=1, shed_policy=policy))
            server.run_requests(
                [parse_query("instructor(russ)"), self.LENA], db
            )
            assert len(server.answer_cache._stale) == 0
        kept, _ = self.warm(AdmissionConfig(
            queue_capacity=1, shed_policy="degrade-to-cached"))
        assert len(kept.answer_cache._stale) == 1


@pytest.mark.serving_determinism
class TestAdmissionBackcompat:
    """``admission=None`` (the default) must leave PR 5's serving layer
    byte-identical — trace and answers."""

    def run_plain(self):
        tracer = Tracer()
        processor = SelfOptimizingQueryProcessor(
            parse_program(RULES), config=SessionConfig(), recorder=tracer
        )
        db = make_db()
        answers = [
            processor.query(r.query, db) for r in burst(8, tenants=2)
        ]
        return answers, tracer.events

    def run_served(self):
        tracer = Tracer()
        db = make_db()
        with open_session(
            parse_program(RULES), db,
            config=SessionConfig(),
            serving=ServingConfig(workers=1),
            recorder=tracer,
        ) as session:
            answers = session.query_batch(
                [r.query for r in burst(8, tenants=2)]
            )
        return answers, tracer.events

    def test_default_serving_matches_plain_loop(self):
        plain_answers, plain_events = self.run_plain()
        served_answers, served_events = self.run_served()
        assert [(a.proved, a.cost) for a in plain_answers] == \
            [(a.proved, a.cost) for a in served_answers]
        assert json.dumps(plain_events) == json.dumps(served_events)

    def test_default_snapshot_has_no_admission_section(self):
        server = make_server(None)
        server.run_batch([parse_query("instructor(russ)")], make_db())
        assert "admission" not in server.snapshot()
        assert server.health is ServerHealth.HEALTHY


class TestDegradeToCachedPartialAnswers:
    """A stale entry warmed by a *partial* answer (dark federated
    shard) may be served under shedding — but always flagged partial
    and degraded, never laundered into a complete answer."""

    def dark_grad_store(self):
        from repro.resilience.faults import FaultSpec
        from repro.storage import FederatedStore

        probe = FederatedStore(make_db(), shards=2, seed=0)
        owner = probe.shard_for(("grad", 1)).name
        return owner, FederatedStore(
            make_db(), shards=2, seed=0,
            per_shard={owner: FaultSpec(fault_rate=1.0)},
        )

    def test_stale_partial_served_flagged_never_complete(self):
        owner, store = self.dark_grad_store()
        admission = AdmissionConfig(queue_capacity=1,
                                    shed_policy="degrade-to-cached")
        server = make_server(admission,
                             cache=CacheConfig(answer_capacity=8))
        warm = server.run_requests(burst(1), store)
        assert warm[0].served
        assert warm[0].answer is not None
        assert warm[0].answer.completeness.partial
        stormy = server.run_requests(burst(4), store)
        degraded = [o for o in stormy if o.degraded]
        assert degraded, "overflow should salvage the stale answer"
        for outcome in degraded:
            assert outcome.answer.degraded
            assert outcome.answer.completeness.partial
            assert owner in outcome.answer.completeness.missing_shards

    def test_partial_warm_never_feeds_coherent_cache(self):
        _, store = self.dark_grad_store()
        admission = AdmissionConfig(queue_capacity=4,
                                    shed_policy="degrade-to-cached")
        server = make_server(admission,
                             cache=CacheConfig(answer_capacity=8))
        first = server.run_requests(burst(1), store)
        second = server.run_requests(burst(1), store)
        # Same query, same generation: a complete answer would have
        # been a coherent hit; the partial one must re-execute.
        assert first[0].served and second[0].served
        assert not second[0].answer.cached
