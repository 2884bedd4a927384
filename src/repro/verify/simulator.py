"""Virtual-clock, single-threaded replay of serving-layer batches.

The real :class:`~repro.serving.server.QueryServer` runs batches over
an OS thread pool; its determinism contract (per-form submission
order ⇒ per-form climb parity) is asserted by the
``serving_determinism`` tests, but thread scheduling itself is not
reproducible.  This simulator replays the same sharded execution with
**simulated** workers under a virtual clock:

* queries are grouped by form (exactly the server's sharding key) and
  assigned round-robin to ``spec.workers`` simulated workers;
* a single-threaded event loop always advances the worker whose
  virtual clock is lowest (ties broken by worker index), charging each
  query's billed cost as its service time;
* every serve is logged as one JSON line (virtual time, worker, form,
  query, outcome, cost, cache status) — the whole trace is
  byte-deterministic from the :class:`~repro.verify.worldgen.WorldSpec`.

Because scheduling is a pure function of the spec, two simulations of
the same spec must produce identical bytes; and because per-form order
is preserved, a run with caches disabled must agree answer-for-answer
with a plain sequential loop over the processor.  Both properties are
checked by :func:`check_byte_determinism` / :func:`check_sequential_parity`;
:func:`check_cache_effects` adds the cache tiers and asserts hits only
ever change cost accounting, never answers,
:func:`check_generation_coherence` asserts mutation invalidates, and
:func:`check_mutation_transparency` replays a mutation storm between
passes, under each fallback engine, and holds every served answer to
the bottom-up model of the store at that moment
(:func:`~repro.verify.oracles.judge_served`) and the answer cache to
each query's read set.  A model, unlike a second processor, shares no
code with the server, so a bug both would make is still caught.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bench.experiments import LatencyDatabase
from ..datalog.bottomup import BottomUpEngine
from ..datalog.parser import parse_atom
from ..datalog.rules import QueryForm
from ..datalog.terms import Atom
from ..serving.cache import AnswerCache
from ..serving.config import CacheConfig, ServingConfig, SessionConfig
from ..serving.server import QueryServer
from ..storage.interface import bucket_keys
from ..strategies.engines import ENGINE_NAMES
from ..system import SelfOptimizingQueryProcessor, SystemAnswer
from ..workloads.hostile import mutation_storm
from .invariants import InvariantViolation, check_cache_generation_coherence
from .oracles import first_divergence, judge_served
from .worldgen import KBWorld, WorldSpec, build_kb_world

__all__ = [
    "SimulatedBatch",
    "simulate",
    "check_byte_determinism",
    "check_sequential_parity",
    "check_cache_effects",
    "check_generation_coherence",
    "check_mutation_transparency",
]


@dataclass
class SimulatedBatch:
    """One simulated serving run: answers (input order) + JSONL trace."""

    spec: WorldSpec
    answers: List[SystemAnswer]
    trace: str
    virtual_time: float
    report: Dict[str, Dict[str, object]]


def _build_server(
    spec: WorldSpec, world: KBWorld, caches: bool, engine: str = "topdown"
) -> QueryServer:
    processor = SelfOptimizingQueryProcessor(
        world.rules, config=SessionConfig(delta=spec.delta, engine=engine)
    )
    cache = (
        CacheConfig(
            answer_capacity=spec.answer_cache,
            subgoal_capacity=spec.subgoal_memo,
        )
        if caches
        else CacheConfig()
    )
    # workers=1: the simulator owns the schedule, the server just
    # serves submissions (its thread pool is never used).
    return QueryServer(processor, serving=ServingConfig(workers=1), cache=cache)


def _store_for(spec: WorldSpec, world: KBWorld):
    """The store the server probes: the world's own, or, when the spec
    sets a subgoal memo, its facts in a zero-latency
    :class:`~repro.bench.experiments.LatencyDatabase`, whose probes
    count as I/O.  The memo fronts only such a store, so this is what
    puts it under the cache oracles, over a :class:`Database`'s
    bucket-level versions."""
    if not spec.subgoal_memo:
        return world.database
    return LatencyDatabase(world.database, latency=0.0)


def simulate(spec: WorldSpec, caches: Optional[bool] = None) -> SimulatedBatch:
    """Run the spec's query batch under the virtual-clock scheduler.

    ``caches`` overrides the spec's cache configuration (``None``
    keeps it).  The batch is replayed ``spec.repeats`` times against
    one server — the second pass is where a configured answer cache
    starts hitting.
    """
    world = build_kb_world(spec)
    use_caches = (
        caches
        if caches is not None
        else bool(spec.answer_cache or spec.subgoal_memo)
    )
    server = _build_server(spec, world, use_caches)
    database = _store_for(spec, world)

    # Shard by form in first-appearance order, exactly like the server.
    groups: Dict[QueryForm, List[int]] = {}
    for index, query in enumerate(world.queries):
        groups.setdefault(QueryForm.of(query), []).append(index)
    workers = max(1, spec.workers)
    assignments: List[List[QueryForm]] = [[] for _ in range(workers)]
    for position, form in enumerate(groups):
        assignments[position % workers].append(form)

    events: List[Dict[str, object]] = []
    answers: List[Optional[SystemAnswer]] = [None] * len(world.queries)
    clock = [0.0] * workers
    total_time = 0.0

    for pass_number in range(1, max(spec.repeats, 1) + 1):
        pending: List[Tuple[int, List[int]]] = [
            (worker, [i for form in forms for i in groups[form]])
            for worker, forms in enumerate(assignments)
            if forms
        ]
        cursors = {worker: 0 for worker, _ in pending}
        queue = {worker: indexes for worker, indexes in pending}
        while True:
            # The worker with the lowest virtual clock serves next —
            # deterministic simulated parallelism, one real thread.
            ready = [
                worker
                for worker, indexes in queue.items()
                if cursors[worker] < len(indexes)
            ]
            if not ready:
                break
            worker = min(ready, key=lambda w: (clock[w], w))
            index = queue[worker][cursors[worker]]
            cursors[worker] += 1
            query = world.queries[index]
            answer = server.submit(query, database)
            service = max(answer.cost, 0.0)
            started = clock[worker]
            clock[worker] = started + service + 1.0  # +1: fixed overhead tick
            answers[index] = answer
            events.append(
                {
                    "t": round(started, 9),
                    "pass": pass_number,
                    "worker": worker,
                    "form": str(QueryForm.of(query)),
                    "query": str(query),
                    "proved": answer.proved,
                    "cost": round(answer.cost, 9),
                    "cached": answer.cached,
                    "degraded": answer.degraded,
                    "climbed": answer.climbed,
                }
            )
        total_time = max(total_time, max(clock) if workers else 0.0)

    trace = "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events
    )
    return SimulatedBatch(
        spec,
        [answer for answer in answers if answer is not None],
        trace,
        total_time,
        server.processor.report(),
    )


# ----------------------------------------------------------------------
# Checks (each returns an error message or None)
# ----------------------------------------------------------------------


def check_byte_determinism(spec: WorldSpec) -> Optional[str]:
    """Two fresh simulations of one spec must be byte-identical.

    This is the serving layer's JSONL-trace identity check transplanted
    onto the simulator: everything — scheduling, caching, learning —
    must derive from the spec alone.
    """
    return first_divergence("simulated trace",
                            simulate(spec).trace.splitlines(),
                            simulate(spec).trace.splitlines())


def check_sequential_parity(spec: WorldSpec) -> Optional[str]:
    """With caches off, simulated sharding must equal a plain loop.

    Per-form submission order is preserved by construction, so every
    answer (provability, bindings, billed cost) and every per-form
    climb count must match the strictly sequential reference run.
    """
    bare = spec.replace(answer_cache=0, subgoal_memo=0, repeats=1)
    simulated = simulate(bare, caches=False)

    world = build_kb_world(bare)
    processor = SelfOptimizingQueryProcessor(
        world.rules, config=SessionConfig(delta=bare.delta)
    )
    reference = [
        processor.query(query, world.database) for query in world.queries
    ]
    problem = first_divergence(
        "simulated answers against a plain loop",
        *([(a.proved, repr(a.substitution), round(a.cost, 9)) for a in run]
          for run in (reference, simulated.answers)))
    if problem is not None:
        return problem
    for form, info in processor.report().items():
        simulated_info = simulated.report.get(form)
        if simulated_info is None:
            return f"form {form} missing from the simulated report"
        if info.get("climbs") != simulated_info.get("climbs"):
            return (
                f"climb parity broken for {form}: sequential "
                f"{info.get('climbs')} vs simulated "
                f"{simulated_info.get('climbs')}"
            )
    return None


def check_cache_effects(spec: WorldSpec) -> Optional[str]:
    """Caches may change cost accounting, never answers.

    Runs the batch with the spec's cache tiers enabled and with both
    disabled; per query, provability and bindings must agree, a cached
    answer must be billed zero, and only a clean answer may be served
    from cache.
    """
    cached_spec = (
        spec
        if spec.answer_cache or spec.subgoal_memo
        else spec.replace(answer_cache=64, subgoal_memo=256)
    )
    with_caches = simulate(cached_spec, caches=True)
    without = simulate(cached_spec.replace(repeats=1), caches=False)

    batch = len(without.answers)
    if len(with_caches.answers) != batch:
        return "cache run served a different number of queries"
    for index, cached_answer in enumerate(with_caches.answers):
        reference = without.answers[index % batch]
        if (cached_answer.proved, repr(cached_answer.substitution)) != (
            reference.proved,
            repr(reference.substitution),
        ):
            return (
                f"cache changed answer #{index}: "
                f"({cached_answer.proved}, {cached_answer.substitution}) "
                f"vs uncached ({reference.proved}, {reference.substitution})"
            )
        if cached_answer.cached and cached_answer.cost != 0.0:
            return (
                f"cached answer #{index} billed {cached_answer.cost} "
                f"instead of zero"
            )
        if cached_answer.cached and not cached_answer.clean:
            return f"unclean answer #{index} was served from cache"
    return None


def check_generation_coherence(spec: WorldSpec) -> Optional[str]:
    """A warm answer cache must go cold when the database mutates."""
    world = build_kb_world(spec)
    cache = AnswerCache(capacity=64)
    processor = SelfOptimizingQueryProcessor(
        world.rules, config=SessionConfig(delta=spec.delta)
    )
    query = world.queries[0] if world.queries else None
    if query is None:
        return None
    answer = processor.query(query, world.database)
    cache.store(query, world.database, answer)
    try:
        check_cache_generation_coherence(cache, query, world.database)
    except InvariantViolation as violation:
        return str(violation)
    return None


def check_mutation_transparency(
    spec: WorldSpec, tally: Optional[Counter] = None
) -> Optional[str]:
    """Caches stay transparent while the store mutates.

    Under each fallback engine, the batch is served twice to warm both
    tiers, then the spec's mutation storm is applied one step at a
    time with the batch served again after each step.  Every served
    answer must hold in the bottom-up model of the store at that
    moment, and the answer cache must honour each query's read set in
    both directions: after a write to a key in the read set the
    query's first lookup misses; after a write elsewhere it may hit,
    and the hit is judged too.  ``tally``, when given, counts those
    first serves as ``inside-miss``, ``outside-hit`` and
    ``outside-miss``.
    """
    if tally is None:
        tally = Counter()
    cached_spec = spec.replace(answer_cache=spec.answer_cache or 64,
                               subgoal_memo=spec.subgoal_memo or 256)
    for engine in ENGINE_NAMES:
        world = build_kb_world(spec)
        server = _build_server(cached_spec, world, True, engine)
        processor, database = server.processor, _store_for(cached_spec, world)
        truth = BottomUpEngine(world.rules)

        def serve(label: str, inside: Dict[Atom, bool]) -> Optional[str]:
            model = truth.model(database)
            first = set()
            for query in world.queries:
                served = server.submit(query, database)
                if inside and query not in first:
                    first.add(query)
                    side = "inside" if inside[query] else "outside"
                    if served.cached and side == "inside":
                        return (f"{label}: {query} hit the answer cache "
                                f"after a write inside its read set")
                    tally[f"{side}-{'hit' if served.cached else 'miss'}"] += 1
                problem = judge_served(query, served, model)
                if problem is not None:
                    return f"{label}: {engine} {problem}"
            return None

        for warm in ("cold pass", "warm pass"):
            problem = serve(warm, {})
            if problem is not None:
                return problem
        ops = mutation_storm(spec.seed, world.fact_text, spec.mutation_steps)
        for number, (op, text) in enumerate(ops):
            fact = parse_atom(text)
            touched = {fact.signature, *bucket_keys(fact)}
            inside = {
                query: not touched.isdisjoint(
                    processor.read_plan(QueryForm.of(query)).keys(query))
                for query in world.queries
            }
            getattr(database, op)(fact)
            problem = serve(f"after storm step #{number} ({op} {text})",
                            inside)
            if problem is not None:
                return problem
    return None
