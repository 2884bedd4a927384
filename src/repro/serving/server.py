"""`QueryServer`: batched, form-sharded, cached query execution.

The paper's learner state is *per query form* — each form owns its
inference graph, PIB learner, breakers, and drift epoch (Theorem 1's
guarantee is quantified per form), which makes the form the natural
sharding key for concurrency: queries of different forms never touch
shared learner state, so they can run on different worker threads,
while queries of the same form are serialized under the form's lock so
the Δ̃ accumulation and Equation 6 sequential test keep exactly the
paper's serial semantics.

Layered in front of execution sit the two cache tiers of
:mod:`repro.serving.cache`: the answer cache short-circuits repeated
queries whose read set no write has touched, and the subgoal memo
(installed into the processor as its context seam) shares settled
database-probe results across queries and threads, over stores whose
probes are I/O.  Under admission control the answer cache is read at
admission, so a hit never waits in its form's queue: the queue keeps
PIB's samples in serial order, and a hit feeds PIB no sample.

Determinism contract (asserted by the ``serving_determinism`` tests):

* with ``workers == 1`` and caches disabled, a batch run is
  byte-identical — trace and report — to calling
  ``processor.query(...)`` in a plain loop;
* under parallel execution, each form still sees its queries in
  submission order, so per-form climb decisions are identical to the
  sequential run's.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from dataclasses import replace

from ..datalog.database import Database
from ..datalog.rules import QueryForm
from ..datalog.terms import Atom, Substitution
from ..graphs.contexts import ReadPlan
from ..system import SelfOptimizingQueryProcessor, SystemAnswer
from .admission import (
    REASON_DEADLINE,
    REASON_DRAINING,
    REASON_EVICTED,
    REASON_OVER_QUOTA,
    REASON_QUEUE_FULL,
    RECOVER_THRESHOLD,
    SHED_THRESHOLD,
    TENANT_BURST,
    AdmissionQueue,
    HealthTracker,
    LoadShedder,
    Request,
    RequestOutcome,
    ServerHealth,
    TenantQuota,
    coerce_requests,
)
from .cache import AnswerCache, SubgoalMemo
from .config import CacheConfig, ServingConfig

__all__ = ["QueryServer"]


class QueryServer:
    """Serve batches of queries against a self-optimizing processor.

    Parameters
    ----------
    processor:
        The :class:`~repro.system.SelfOptimizingQueryProcessor` that
        owns all per-form learner state.  The server installs its
        subgoal memo (when configured) as the processor's context
        seam; otherwise the processor is used unmodified.
    serving:
        Worker-pool shape (:class:`~repro.serving.config.ServingConfig`).
    cache:
        Cache-tier bounds (:class:`~repro.serving.config.CacheConfig`);
        both tiers default to disabled.
    """

    def __init__(
        self,
        processor: SelfOptimizingQueryProcessor,
        serving: Optional[ServingConfig] = None,
        cache: Optional[CacheConfig] = None,
    ):
        self.processor = processor
        self.serving = serving or ServingConfig()
        self.cache_config = cache or CacheConfig()
        recorder = processor.recorder
        admission = self.serving.admission
        self._shedder: Optional[LoadShedder] = (
            LoadShedder(admission.shed_policy)
            if admission is not None else None
        )
        # Only the degrade-to-cached shed policy reads the stale table,
        # so only a server shedding by it keeps one.
        self.answer_cache: Optional[AnswerCache] = (
            AnswerCache(
                self.cache_config.answer_capacity,
                recorder,
                keep_stale=(self._shedder is not None
                            and self._shedder.wants_degrade),
            )
            if self.cache_config.answer_capacity
            else None
        )
        self.subgoal_memo: Optional[SubgoalMemo] = (
            SubgoalMemo(self.cache_config.subgoal_capacity, recorder)
            if self.cache_config.subgoal_capacity
            else None
        )
        if self.subgoal_memo is not None:
            processor.subgoal_memo = self.subgoal_memo
        #: The thread pool class, loaded only by a server with more than
        #: one worker, and when it is built, so no batch pays the import.
        self._pool_class = None
        if self.serving.workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._pool_class = ThreadPoolExecutor
        self.batches = 0
        self.queries_served = 0
        self.cached_answers = 0
        self.requests_rejected = 0
        self.requests_degraded = 0
        self._admin_lock = threading.Lock()
        self._shards: Dict[QueryForm, Tuple[threading.Lock, ReadPlan]] = {}
        if admission is not None:
            self._quota: Optional[TenantQuota] = TenantQuota(
                admission.tenant_rate, TENANT_BURST
            )
            self._health: Optional[HealthTracker] = HealthTracker(
                SHED_THRESHOLD, RECOVER_THRESHOLD
            )
            self._queues: Dict[QueryForm, AdmissionQueue] = {}
            #: Guards shedder and counter mutations reachable from
            #: dispatch worker threads.
            self._admission_lock = threading.Lock()
        else:
            self._quota = None
            self._health = None
            self._queues = {}

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------

    def _shard_for(
        self, form: QueryForm
    ) -> Tuple[threading.Lock, ReadPlan]:
        """The form's serialization lock and read plan (created on
        first use).

        Creation happens under the admin lock, which also guards the
        processor's lazy per-form compilation: two threads racing on a
        brand-new form must not both build its graph and learner.  The
        read plan comes from the compiled form, so a form compiles
        before its first answer-cache lookup.
        """
        shard = self._shards.get(form)
        if shard is None:
            with self._admin_lock:
                shard = self._shards.get(form)
                if shard is None:
                    plan = self.processor.read_plan(form)
                    shard = self._shards[form] = (threading.Lock(), plan)
        return shard

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def submit(self, query: Atom, database: Database) -> SystemAnswer:
        """Answer one query: answer cache, then the learned processor.

        The answer cache is keyed on the store's version of the query's
        read set (:meth:`SelfOptimizingQueryProcessor.read_plan`), read
        once before the lookup and reused to store the fresh answer:
        a write that lands while the answer is computed leaves the
        entry under the pre-write version, where no later lookup finds
        it.

        Thread-safe: any number of threads may call this concurrently;
        queries of one form are serialized in arrival order.
        """
        return self._serve(query, QueryForm.of(query), database)

    def _cached(
        self,
        query: Atom,
        plan: ReadPlan,
        database: Database,
        count_miss: bool = True,
    ) -> Tuple[Optional[SystemAnswer], int]:
        """The coherent cached answer (``None`` on a miss) and the
        read-set version it was looked up under; a hit counts as a
        served query.  Requires an answer cache."""
        version = database.version(plan.keys(query))
        cached = self.answer_cache.lookup(query, database, version,
                                          count_miss=count_miss)
        if cached is not None:
            with self._admin_lock:
                self.queries_served += 1
                self.cached_answers += 1
        return cached, version

    def _serve(
        self, query: Atom, form: QueryForm, database: Database
    ) -> SystemAnswer:
        lock, plan = self._shard_for(form)
        cache = self.answer_cache
        if cache is not None:
            cached, version = self._cached(query, plan, database)
            if cached is not None:
                return cached
        with lock:
            answer = self.processor.query(query, database)
        if cache is not None:
            cache.store(query, database, answer, version)
        with self._admin_lock:
            self.queries_served += 1
        return answer

    # ------------------------------------------------------------------
    # Admission-controlled serving
    # ------------------------------------------------------------------

    @property
    def health(self) -> ServerHealth:
        """The overload state machine (HEALTHY when admission is off)."""
        return (self._health.state if self._health is not None
                else ServerHealth.HEALTHY)

    def drain(self) -> None:
        """Enter DRAINING: refuse every new request from now on.

        Queued work in an in-flight ``run_requests`` still completes;
        later submissions are rejected with reason ``draining``.
        No-op when admission is off.
        """
        if self._health is None:
            return
        edge = self._health.drain()
        recorder = self.processor.recorder
        if edge is not None and recorder.enabled:
            recorder.health_transition(*edge)

    def _breaker_open(self) -> bool:
        """Whether any circuit breaker on the processor is not closed."""
        policy = self.processor.resilience
        if policy is None:
            return False
        return any(
            state.get("state") != "closed"
            for state in policy.breakers.snapshot().values()
        )

    def _queue_for(self, form: QueryForm) -> AdmissionQueue:
        queue = self._queues.get(form)
        if queue is None:
            assert self.serving.admission is not None
            queue = self._queues[form] = AdmissionQueue(
                self.serving.admission.queue_capacity
            )
        return queue

    def _update_health(self) -> None:
        assert self._health is not None and self.serving.admission is not None
        depth = sum(len(queue) for queue in self._queues.values())
        capacity = (self.serving.admission.queue_capacity
                    * max(1, len(self._queues)))
        edge = self._health.update(depth, capacity,
                                   breaker_open=self._breaker_open())
        recorder = self.processor.recorder
        if edge is not None and recorder.enabled:
            recorder.health_transition(*edge)

    def _shed(
        self, request: Request, reason: str, database: Database
    ) -> RequestOutcome:
        """Turn one request away: stale-cache degrade when the policy
        allows and a stale answer exists, typed rejection otherwise.
        Never raises; never touches the processor (learner isolation).
        """
        assert self._shedder is not None
        recorder = self.processor.recorder
        with self._admission_lock:
            self._shedder.note(reason)
        if self._shedder.wants_degrade and self.answer_cache is not None:
            stale = self.answer_cache.lookup_stale(request.query, database)
            if stale is not None:
                answer = replace(stale, incident=f"admission: {reason}")
                with self._admission_lock:
                    self.requests_degraded += 1
                if recorder.enabled:
                    recorder.request_degraded(request.tenant, reason)
                return RequestOutcome(request, "degraded", answer=answer,
                                      reason=reason)
        with self._admission_lock:
            self.requests_rejected += 1
        if recorder.enabled:
            recorder.request_rejected(request.tenant, reason)
        return RequestOutcome(request, "rejected", reason=reason)

    def submit_request(
        self, request: Request, database: Database
    ) -> RequestOutcome:
        """Admission-controlled :meth:`submit` for one request."""
        return self.run_requests([request], database)[0]

    def run_requests(
        self, requests: Sequence, database: Database
    ) -> List[RequestOutcome]:
        """Serve a burst of :class:`~repro.serving.admission.Request`
        objects (plain :class:`Atom` queries are wrapped) through
        admission control; outcomes align with the input order.

        The run has two deterministic phases:

        *Admission* walks the arrival sequence once — each arrival
        advances the quota clock one tick, DRAINING and per-tenant
        limits shed first, then a coherent answer-cache hit is served
        on the spot at latency 1.0 (one overhead tick, its billed cost
        being 0), and only a miss reaches the form's bounded queue,
        which admits it or lets the shed policy pick a victim.  A hit
        takes no queue slot, form lock or place on the form's clock,
        so it is never shed or expired in a queue.  All admission
        state is a pure function of the arrival sequence (never wall
        time), so outcomes are byte-identical across worker counts and
        replays.

        *Dispatch* drains each form's queue in (deadline, arrival)
        order on the form's *virtual cost clock*: each serve advances
        the clock by the answer's billed cost plus one overhead tick,
        and a request whose latency budget is already exhausted when
        its turn comes is shed as ``deadline-expired-in-queue``.  The
        request-level budget bounds *queue wait*; the per-execution
        :class:`~repro.resilience.deadline.CostDeadline` (when the
        processor has one) still bounds each run's own cost, so the
        two compose.  Forms are independent — with ``workers > 1``
        they drain in parallel with unchanged outcomes.

        Dispatch re-reads the read-set version and re-checks the
        cache, so a repeat of an earlier miss in the same burst hits
        there, and a write between admission and dispatch is seen.

        Shed requests never reach the processor: they contribute no
        PIB sample, so Theorem 1's per-form schedule over the served
        requests equals a plain sequential run over those requests.
        """
        requests = coerce_requests(requests)
        admission = self.serving.admission
        recorder = self.processor.recorder
        if admission is None:
            outcomes = []
            for request in requests:
                answer = self.submit(request.query, database)
                outcomes.append(RequestOutcome(
                    request, "served", answer=answer, latency=answer.cost
                ))
            return outcomes

        assert (self._quota is not None and self._shedder is not None
                and self._health is not None)
        quota, shedder, health = self._quota, self._shedder, self._health
        cache = self.answer_cache
        slots: List[Optional[RequestOutcome]] = [None] * len(requests)

        # -- Phase 1: admission, strictly in arrival order -------------
        for index, request in enumerate(requests):
            quota.tick()
            tenant = request.tenant
            if health.state is ServerHealth.DRAINING:
                slots[index] = self._shed(request, REASON_DRAINING, database)
                continue
            if not quota.try_acquire(tenant):
                slots[index] = self._shed(request, REASON_OVER_QUOTA,
                                          database)
                continue
            form = QueryForm.of(request.query)
            if cache is not None:
                # A coherent hit runs no strategy and feeds PIB no
                # sample, so it needs no place in the form's serial
                # order: it is answered here, at one overhead tick.  A
                # miss is counted once, by its lookup at dispatch.
                cached, _ = self._cached(request.query,
                                         self._shard_for(form)[1],
                                         database, count_miss=False)
                if cached is not None:
                    slots[index] = RequestOutcome(
                        request, "served", answer=cached, latency=1.0
                    )
                    if recorder.enabled:
                        recorder.request_served(tenant, 1.0)
                    continue
            queue = self._queue_for(form)
            # Proactive backpressure: in SHEDDING, a tenant that already
            # holds queue slots is shed before the queue is hard-full —
            # tenants with nothing queued are spared, so light tenants
            # keep getting through while heavy ones drain.
            proactive = (health.state is ServerHealth.SHEDDING
                         and not queue.full
                         and len(queue)
                         >= SHED_THRESHOLD * queue.capacity
                         and queue.tenant_depths().get(tenant, 0) > 0)
            if proactive or queue.full:
                victim = (None if proactive
                          else shedder.overflow_victim(queue, request))
                if victim is not None:
                    victim_seq, victim_request = victim
                    slots[victim_seq] = self._shed(
                        victim_request, REASON_EVICTED, database
                    )
                    queue.push(request, index, admission.deadline)
                else:
                    slots[index] = self._shed(request, REASON_QUEUE_FULL,
                                              database)
            else:
                queue.push(request, index, admission.deadline)
            if recorder.enabled:
                recorder.queue_depth(str(form), len(queue))
            self._update_health()

        # -- Phase 2: dispatch, per-form virtual cost clocks -----------
        def drain_queue(form: QueryForm, queue: AdmissionQueue) -> None:
            clock = 0.0
            while True:
                item = queue.pop()
                if item is None:
                    return
                seq, request = item
                deadline = (request.deadline
                            if request.deadline is not None
                            else admission.deadline)
                if deadline is not None and clock >= deadline:
                    slots[seq] = self._shed(request, REASON_DEADLINE,
                                            database)
                    continue
                answer = self._serve(request.query, form, database)
                clock += answer.cost + 1.0
                slots[seq] = RequestOutcome(
                    request, "served", answer=answer, latency=clock
                )
                if recorder.enabled:
                    recorder.request_served(request.tenant, clock)

        pending = [(form, queue) for form, queue in self._queues.items()
                   if len(queue)]
        if self.serving.workers == 1 or len(pending) <= 1:
            for form, queue in pending:
                drain_queue(form, queue)
        else:
            workers = min(self.serving.workers, len(pending))
            with self._pool_class(max_workers=workers) as pool:
                list(pool.map(lambda pair: drain_queue(*pair), pending))

        self._update_health()
        return slots  # type: ignore[return-value]

    def _answer_for(self, outcome: RequestOutcome) -> SystemAnswer:
        """An outcome as a SystemAnswer (for the batch API): rejected
        requests become degraded unproved answers, never exceptions."""
        if outcome.answer is not None:
            return outcome.answer
        return SystemAnswer(
            proved=False,
            substitution=Substitution(),
            cost=0.0,
            learned=False,
            incident=f"admission: {outcome.reason}",
        )

    def run_batch(
        self, queries: Sequence[Atom], database: Database
    ) -> List[SystemAnswer]:
        """Answer a batch; results align with the input order.

        With one worker the batch runs strictly sequentially in
        submission order (the byte-identity path).  With more, queries
        are grouped by form and each group — internally ordered — runs
        as one pool task, so forms proceed in parallel while per-form
        order (and therefore every climb decision) is preserved.
        """
        queries = list(queries)
        self.batches += 1
        if self.serving.admission is not None:
            outcomes = self.run_requests(queries, database)
            return [self._answer_for(outcome) for outcome in outcomes]
        if self.serving.workers == 1:
            return [self.submit(query, database) for query in queries]

        groups: Dict[QueryForm, List[int]] = {}
        for index, query in enumerate(queries):
            groups.setdefault(QueryForm.of(query), []).append(index)
        results: List[Optional[SystemAnswer]] = [None] * len(queries)
        workers = min(self.serving.workers, max(len(groups), 1))

        def run_group(indexes: List[int]) -> List[Tuple[int, SystemAnswer]]:
            return [
                (index, self.submit(queries[index], database))
                for index in indexes
            ]

        with self._pool_class(max_workers=workers) as pool:
            for chunk in pool.map(run_group, groups.values()):
                for index, answer in chunk:
                    results[index] = answer
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Serving + cache counters, JSON-ready (for ``report()``)."""
        summary: Dict[str, object] = {
            "workers": self.serving.workers,
            "batches": self.batches,
            "queries_served": self.queries_served,
            "cached_answers": self.cached_answers,
            "forms": len(self._shards),
        }
        if self.answer_cache is not None:
            summary["answer_cache"] = self.answer_cache.snapshot()
        if self.subgoal_memo is not None:
            summary["subgoal_memo"] = self.subgoal_memo.snapshot()
        if (self._health is not None and self._shedder is not None
                and self._quota is not None):
            summary["admission"] = {
                "health": self._health.snapshot(),
                "shedder": self._shedder.snapshot(),
                "quota": self._quota.snapshot(),
                "rejected": self.requests_rejected,
                "degraded": self.requests_degraded,
                "queues": {
                    str(form): {
                        "offered": queue.offered,
                        "peak_depth": queue.peak_depth,
                    }
                    for form, queue in sorted(
                        self._queues.items(), key=lambda pair: str(pair[0])
                    )
                },
            }
        return summary
