"""Federation oracles: cross-backend equivalence, partial soundness.

Four deterministic checks close the loop on the pluggable-storage
refactor (DESIGN §13):

* **Backend equivalence** — the same seeded knowledge base answered
  through the in-memory :class:`~repro.datalog.database.Database`, the
  :class:`~repro.storage.sqlite.SQLiteFactStore`, and a *healthy*
  :class:`~repro.storage.federation.FederatedStore` must produce the
  same answers **in the same order** (the enumeration-order contract,
  not just set equality).
* **Partial soundness** — under injected shard faults, every answer
  the federated store yields must belong to the complete answer set
  (shards hide facts, never invent them); a lost answer must be
  accompanied by a partial :class:`~repro.storage.interface.Completeness`
  verdict naming real shards, and — for base-relation queries, whose
  facts live on exactly one shard — naming the owning shard; a
  ``complete`` verdict must mean the full answer set.  The probe path
  must never raise.
* **Byte determinism** — replaying the same faulty federated world
  (same spec, fresh store) reproduces the same answers, verdicts,
  billed latencies, probe counts, and final breaker states.
* **Clean cached answers** — a session with both cache tiers on serves
  the faulty world's queries twice, once per fallback engine, and
  every answer, fresh or replayed, is judged against the program's
  bottom-up model (:func:`~repro.verify.oracles.judge_served`).  A
  dark shard's "no" must never come back as clean, whichever engine
  answers an uncompilable form.

Federation worlds keep ``negation_rate`` at 0: under
negation-as-failure a hidden fact could *flip a negated subgoal to
true*, so partial retrieval is only guaranteed to under-approximate on
positive programs.  That boundary is part of the contract and is
documented in DESIGN §13.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..datalog.bottomup import BottomUpEngine
from ..datalog.engine import TopDownEngine
from ..resilience.faults import FaultSpec
from ..storage.federation import FederatedStore
from ..storage.sqlite import SQLiteFactStore
from .oracles import engine_sessions, first_divergence, serve_judged
from .worldgen import KBWorld, WorldSpec, build_kb_world

__all__ = [
    "check_federation_equivalence",
    "check_federation_partial",
    "check_federation_determinism",
    "check_federation_clean_answers",
]


def _answers(engine: TopDownEngine, query, store) -> Tuple:
    """The query's ground answer instances, in enumeration order."""
    return tuple(
        query.substitute(answer.substitution)
        for answer in engine.answers(query, store)
    )


def _faulty_store(spec: WorldSpec, world: KBWorld) -> FederatedStore:
    """The spec's faulty federated backend over the world's facts."""
    return FederatedStore.from_program(
        "\n".join(world.fact_text),
        shards=max(spec.n_shards, 1),
        seed=spec.seed,
        fault=FaultSpec(
            fault_rate=spec.fault_rate, timeout_rate=spec.timeout_rate
        ),
        replicas=spec.shard_replicas,
        retry_budget=max(spec.retries - 1, 0),
    )


def check_federation_equivalence(spec: WorldSpec) -> Optional[str]:
    """Memory vs SQLite vs healthy-federated: same answers, same order."""
    world = build_kb_world(spec)
    engine = TopDownEngine(world.rules)
    facts = "\n".join(world.fact_text)
    sqlite = SQLiteFactStore.from_program(facts)
    federated = FederatedStore.from_program(
        facts,
        shards=max(spec.n_shards, 1),
        seed=spec.seed,
        replicas=spec.shard_replicas,
    )
    try:
        for query in world.queries:
            baseline = _answers(engine, query, world.database)
            for label, store in (("sqlite", sqlite), ("federated", federated)):
                got = _answers(engine, query, store)
                if got != baseline:
                    return (
                        f"{label} backend diverges on {query}: "
                        f"{[str(a) for a in got]} != "
                        f"{[str(a) for a in baseline]}"
                    )
        if federated.dark_probes:
            return (
                f"healthy federated store went dark "
                f"{federated.dark_probes} times with no faults configured"
            )
    finally:
        sqlite.close()
    return None


def check_federation_partial(spec: WorldSpec) -> Optional[str]:
    """Partial answers under shard faults: subset, attributed, no raise."""
    world = build_kb_world(spec)
    engine = TopDownEngine(world.rules)
    store = _faulty_store(spec, world)
    shard_names = set(store.shard_names())
    base_signatures = set(world.database.signatures())
    for query in world.queries:
        complete_set = {
            query.substitute(answer.substitution)
            for answer in engine.answers(query, world.database)
        }
        store.begin_probe_window()
        try:
            got = {
                query.substitute(answer.substitution)
                for answer in engine.answers(query, store)
            }
        except Exception as error:  # the probe path must never raise
            return f"federated retrieval raised on {query}: {error!r}"
        finally:
            window = store.end_probe_window()
        verdict = window.completeness
        missing = set(verdict.missing_shards)
        if not missing <= shard_names:
            return (
                f"verdict for {query} names unknown shards "
                f"{sorted(missing - shard_names)}"
            )
        invented = got - complete_set
        if invented:
            return (
                f"partial answer invented bindings on {query}: "
                f"{sorted(str(a) for a in invented)}"
            )
        if got != complete_set:
            if verdict.complete:
                return (
                    f"answers lost on {query} but the verdict claims "
                    f"completeness"
                )
            if query.signature in base_signatures:
                owner = store.shard_for(query.signature).name
                if owner not in missing:
                    return (
                        f"lost base-relation answers on {query} but owning "
                        f"shard {owner} is not attributed (missing="
                        f"{sorted(missing)})"
                    )
        if window.billed_cost < 0.0:
            return f"negative billed latency {window.billed_cost} on {query}"
    return None


def _federation_fingerprint(spec: WorldSpec) -> List[Tuple]:
    """One faulty run's byte-determinism fingerprint."""
    world = build_kb_world(spec)
    engine = TopDownEngine(world.rules)
    store = _faulty_store(spec, world)
    rows: List[Tuple] = []
    for query in world.queries:
        store.begin_probe_window()
        try:
            got = tuple(
                str(query.substitute(answer.substitution))
                for answer in engine.answers(query, store)
            )
        finally:
            window = store.end_probe_window()
        rows.append(
            (
                str(query),
                got,
                window.completeness.missing_shards,
                round(window.billed_cost, 9),
                window.probes,
            )
        )
    rows.append(
        (
            "telemetry",
            store.probes,
            store.dark_probes,
            store.hedged_reads,
            round(store.billed_cost, 9),
            tuple(sorted(store.breaker_states().items())),
        )
    )
    return rows


def check_federation_determinism(spec: WorldSpec) -> Optional[str]:
    """Same spec, fresh store: the faulty replay must be byte-identical."""
    try:
        first = _federation_fingerprint(spec)
        second = _federation_fingerprint(spec)
    except Exception as error:
        return f"federated replay raised: {error!r}"
    return first_divergence("federated replay", first, second)


def check_federation_clean_answers(spec: WorldSpec) -> Optional[str]:
    """Both cache tiers over shard faults, through every fallback
    engine: every clean answer is true."""
    world = build_kb_world(spec)
    return serve_judged(
        engine_sessions(spec, world.rules, lambda: _faulty_store(spec, world)),
        world.queries,
        BottomUpEngine(world.rules).model(world.database),
        passes=2,
    )
