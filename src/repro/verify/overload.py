"""Overload verification: seeded burst worlds through admission control.

The ``overload`` profile drives the real
:class:`~repro.serving.server.QueryServer` — not a simulator — because
admission control was *built* deterministic: token buckets tick per
arrival, dispatch latency runs on per-form virtual cost clocks, and
shed decisions are pure functions of the arrival sequence.  That makes
the full stack (quota → queue → shed policy → dispatch → learner)
replayable byte-for-byte from a :class:`~repro.verify.worldgen.WorldSpec`,
and these oracles hold it to that:

* :func:`check_overload_determinism` — two fresh runs of one spec
  produce identical outcome fingerprints and identical tracer events;
* :func:`check_overload_worker_parity` — outcomes are identical across
  worker counts (forms dispatch independently, so parallelism must not
  change a single admission or latency figure);
* :func:`check_overload_conservation` — every request gets exactly one
  typed outcome, statuses partition, queue peaks stay within capacity,
  rejected outcomes carry no answer, degraded ones are flagged;
* :func:`check_overload_isolation` — the learner-isolation invariant:
  replaying only the *served* queries per form through a fresh
  processor reproduces the admission run's answers and climbs exactly
  (shed requests contributed no PIB sample);
* :func:`check_overload_fairness` — under the ``reject-over-quota``
  policy no demanding tenant starves, and with a rate quota no tenant
  exceeds its token-bucket ceiling;
* :func:`check_overload_cache_coherence` — with an answer cache, under
  each fallback engine, the burst is served again after each step of
  a mutation storm, and every answer, including those answered at
  admission, is judged against the bottom-up model of the store at
  that moment (:func:`~repro.verify.oracles.judge_served`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..datalog.bottomup import BottomUpEngine
from ..datalog.parser import parse_atom
from ..datalog.rules import QueryForm
from ..observability import Tracer
from ..serving.admission import TENANT_BURST, Request, RequestOutcome
from ..serving.config import AdmissionConfig, CacheConfig, ServingConfig, \
    SessionConfig
from ..serving.server import QueryServer
from ..strategies.engines import ENGINE_NAMES
from ..system import SelfOptimizingQueryProcessor
from ..workloads.hostile import mutation_storm
from .oracles import first_divergence, judge_served
from .worldgen import KBWorld, WorldSpec, build_kb_world

__all__ = [
    "OverloadRun",
    "simulate_overload",
    "check_overload_determinism",
    "check_overload_worker_parity",
    "check_overload_conservation",
    "check_overload_isolation",
    "check_overload_fairness",
    "check_overload_cache_coherence",
]

#: Storm steps of the cache-coherence check when the spec sets none.
STORM_STEPS = 6


@dataclass
class OverloadRun:
    """One admission-controlled burst: outcomes + trace + server state."""

    spec: WorldSpec
    requests: List[Request]
    outcomes: List[RequestOutcome]
    server: QueryServer
    tracer: Tracer

    def fingerprint(self) -> str:
        """The determinism fingerprint: one JSON line per outcome."""
        lines = []
        for index, outcome in enumerate(self.outcomes):
            answer = outcome.answer
            lines.append(json.dumps({
                "i": index,
                "tenant": outcome.request.tenant,
                "status": outcome.status,
                "reason": outcome.reason,
                "latency": round(outcome.latency, 9),
                "proved": answer.proved if answer is not None else None,
                "cost": (round(answer.cost, 9)
                         if answer is not None else None),
            }, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines)

    def trace_bytes(self) -> str:
        return json.dumps(self.tracer.events, sort_keys=True)


def _burst_requests(spec: WorldSpec, world: KBWorld) -> List[Request]:
    """The spec's burst: the query stream repeated ``burst_factor``
    times, tenants assigned round-robin — every tenant demands."""
    requests: List[Request] = []
    tenants = max(spec.tenants, 1)
    index = 0
    for _ in range(max(spec.burst_factor, 1)):
        for query in world.queries:
            requests.append(Request(query, tenant=f"t{index % tenants}"))
            index += 1
    return requests


def _overload_server(
    spec: WorldSpec,
    world: KBWorld,
    tracer: Optional[Tracer] = None,
    workers: int = 1,
    engine: str = "topdown",
) -> QueryServer:
    """A fresh admission-controlled server for the spec's world."""
    processor = SelfOptimizingQueryProcessor(
        world.rules, config=SessionConfig(delta=spec.delta, engine=engine),
        recorder=tracer,
    )
    admission = AdmissionConfig(
        queue_capacity=spec.queue_capacity,
        tenant_rate=spec.tenant_rate,
        shed_policy=spec.shed_policy,
        deadline=spec.request_deadline,
    )
    return QueryServer(
        processor,
        serving=ServingConfig(workers=workers, admission=admission),
        cache=CacheConfig(
            answer_capacity=spec.answer_cache,
            subgoal_capacity=spec.subgoal_memo,
        ) if (spec.answer_cache or spec.subgoal_memo) else CacheConfig(),
    )


def simulate_overload(
    spec: WorldSpec, workers: Optional[int] = None
) -> OverloadRun:
    """Run the spec's burst through a fresh admission-controlled server."""
    world = build_kb_world(spec)
    tracer = Tracer(margin_events=False)
    server = _overload_server(spec, world, tracer,
                              workers if workers is not None else 1)
    requests = _burst_requests(spec, world)
    outcomes = server.run_requests(requests, world.database)
    return OverloadRun(spec, requests, outcomes, server, tracer)


# ----------------------------------------------------------------------
# Checks (each returns an error message or None)
# ----------------------------------------------------------------------


def check_overload_determinism(spec: WorldSpec) -> Optional[str]:
    """Two fresh runs must match byte-for-byte: outcomes and trace."""
    first = simulate_overload(spec)
    second = simulate_overload(spec)
    problem = first_divergence("overload replay",
                               first.fingerprint().splitlines(),
                               second.fingerprint().splitlines())
    if problem is not None:
        return problem
    if first.trace_bytes() != second.trace_bytes():
        return "overload replay produced a different event trace"
    return None


def check_overload_worker_parity(spec: WorldSpec) -> Optional[str]:
    """Outcomes must be identical across worker counts.

    Admission happens before dispatch and dispatch runs per-form
    virtual clocks, so threading the form queues over a pool must not
    change a single status, reason, or latency.
    """
    return first_divergence(
        "workers=3 against workers=1",
        simulate_overload(spec, workers=1).fingerprint().splitlines(),
        simulate_overload(spec, workers=3).fingerprint().splitlines(),
    )


def check_overload_conservation(spec: WorldSpec) -> Optional[str]:
    """Typed-outcome bookkeeping: nothing lost, nothing invented."""
    run = simulate_overload(spec)
    if len(run.outcomes) != len(run.requests):
        return (f"{len(run.requests)} requests produced "
                f"{len(run.outcomes)} outcomes")
    for index, outcome in enumerate(run.outcomes):
        if outcome.status not in ("served", "degraded", "rejected"):
            return f"outcome #{index} has unknown status {outcome.status!r}"
        if outcome.rejected and outcome.answer is not None:
            return f"rejected outcome #{index} carries an answer"
        if outcome.served and outcome.answer is None:
            return f"served outcome #{index} carries no answer"
        if outcome.degraded:
            if outcome.answer is None:
                return f"degraded outcome #{index} carries no answer"
            if not outcome.answer.degraded:
                return (f"degraded outcome #{index}'s answer is not "
                        f"flagged degraded")
        if not outcome.served and outcome.reason is None:
            return f"shed outcome #{index} carries no reason"
    snapshot = run.server.snapshot()
    admission = snapshot["admission"]
    for form, info in admission["queues"].items():  # type: ignore[index]
        if info["peak_depth"] > spec.queue_capacity:
            return (f"queue {form} peaked at {info['peak_depth']} "
                    f"with capacity {spec.queue_capacity}")
    shed_total = sum(
        admission["shedder"]["shed"].values()  # type: ignore[index]
    )
    not_served = sum(1 for o in run.outcomes if not o.served)
    if shed_total != not_served:
        return (f"shedder counted {shed_total} sheds but "
                f"{not_served} outcomes were not served")
    return None


def check_overload_isolation(spec: WorldSpec) -> Optional[str]:
    """Shed requests leave no trace in the learner.

    A fresh processor replaying only the served queries — per form, in
    dispatch order — must reproduce the admission run's answers and
    per-form climb counts exactly.  If a shed or degraded request had
    fed PIB a sample, the Δ̃ evidence (and eventually a climb decision)
    would differ.
    """
    # Caches off: an answer-cache hit legitimately bypasses the
    # learner, which would make the served-query replay ambiguous.
    bare = spec.replace(answer_cache=0, subgoal_memo=0)
    run = simulate_overload(bare)
    served: Dict[QueryForm, List[RequestOutcome]] = {}
    for outcome in run.outcomes:
        if outcome.served and not outcome.answer.cached:
            form = QueryForm.of(outcome.request.query)
            served.setdefault(form, []).append(outcome)
    # Dispatch order within a form is monotone in latency (the form's
    # virtual clock only advances), so sorting recovers it.
    world = build_kb_world(bare)
    reference = SelfOptimizingQueryProcessor(
        world.rules, config=SessionConfig(delta=bare.delta)
    )
    for form in served:
        ordered = sorted(served[form], key=lambda o: o.latency)
        for outcome in ordered:
            answer = reference.query(outcome.request.query, world.database)
            if (answer.proved, round(answer.cost, 9)) != (
                outcome.answer.proved, round(outcome.answer.cost, 9)
            ):
                return (
                    f"learner isolation broken for {form}: served query "
                    f"{outcome.request.query} answered "
                    f"({outcome.answer.proved}, {outcome.answer.cost}) "
                    f"under admission but ({answer.proved}, {answer.cost}) "
                    f"in the sequential replay"
                )
    admission_report = run.server.processor.report()
    reference_report = reference.report()
    for form_name, info in reference_report.items():
        admission_info = admission_report.get(form_name)
        if admission_info is None:
            return f"form {form_name} missing from the admission report"
        if info.get("climbs") != admission_info.get("climbs"):
            return (
                f"climb parity broken for {form_name}: sequential replay "
                f"of served queries climbed {info.get('climbs')} times, "
                f"admission run {admission_info.get('climbs')}"
            )
    return None


def check_overload_fairness(spec: WorldSpec) -> Optional[str]:
    """No starvation under the fairness policy; quotas actually bind."""
    fair_spec = spec.replace(shed_policy="reject-over-quota")
    run = simulate_overload(fair_spec)
    tenants = max(fair_spec.tenants, 1)
    demanded: Dict[str, int] = {}
    progressed: Dict[str, int] = {}
    for outcome in run.outcomes:
        tenant = outcome.request.tenant
        demanded[tenant] = demanded.get(tenant, 0) + 1
        if not outcome.rejected:
            progressed[tenant] = progressed.get(tenant, 0) + 1
    if fair_spec.queue_capacity >= tenants:
        for tenant, count in sorted(demanded.items()):
            if count > 0 and progressed.get(tenant, 0) == 0:
                return (
                    f"tenant {tenant} demanded {count} requests and was "
                    f"served none — starvation under reject-over-quota"
                )
    if fair_spec.tenant_rate > 0:
        ticks = len(run.outcomes)
        ceiling = (TENANT_BURST
                   + fair_spec.tenant_rate * ticks)
        for outcome_tenant, count in sorted(progressed.items()):
            if count > ceiling:
                return (
                    f"tenant {outcome_tenant} progressed {count} requests, "
                    f"over the token-bucket ceiling {ceiling:.1f}"
                )
    return None


def check_overload_cache_coherence(spec: WorldSpec) -> Optional[str]:
    """Answers served through admission stay true while the store
    mutates.

    Under each fallback engine, the burst is served through an
    admission server with an answer cache, then the world's mutation
    storm is applied one step at a time, with the burst served again
    after each step.  Every served answer is judged against the
    bottom-up model of the store at that moment.  A cached answer is
    served at admission at latency 1.0, unless an earlier request of
    the same burst asked the same query: that repeat hits at dispatch,
    after its wait.
    """
    cached_spec = spec.replace(answer_cache=spec.answer_cache or 32)
    for engine in ENGINE_NAMES:
        world = build_kb_world(cached_spec)
        server = _overload_server(cached_spec, world, engine=engine)
        database = world.database
        requests = _burst_requests(cached_spec, world)
        truth = BottomUpEngine(world.rules)

        def serve(label: str) -> Optional[str]:
            model = truth.model(database)
            asked = set()
            outcomes = server.run_requests(requests, database)
            for request, outcome in zip(requests, outcomes):
                query, answer = request.query, outcome.answer
                repeat = query in asked
                asked.add(query)
                if answer is None:
                    continue
                if (answer.cached and outcome.served
                        and outcome.latency != 1.0 and not repeat):
                    return (f"{label}: the cached answer to {query} "
                            f"waited until {outcome.latency:g} though no "
                            f"earlier request of the burst asked it")
                problem = judge_served(query, answer, model)
                if problem is not None:
                    return f"{label}: {engine} {problem}"
            return None

        problem = serve("first burst")
        if problem is not None:
            return problem
        ops = mutation_storm(spec.seed, world.fact_text,
                             spec.mutation_steps or STORM_STEPS)
        for number, (op, text) in enumerate(ops):
            getattr(database, op)(parse_atom(text))
            problem = serve(f"after storm step #{number} ({op} {text})")
            if problem is not None:
                return problem
    return None
