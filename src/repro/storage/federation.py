"""Federated fact storage: relations partitioned over faulty shards.

The paper's Section 5.2 setting — scans over horizontally distributed
segments with non-uniform access cost — is where learned strategies
beat static ones.  This backend makes that setting real *below* the
engine: a :class:`FederatedStore` partitions whole relations over
simulated remote shards, each with

* its own seeded fault stream (one :class:`~repro.resilience.faults.FaultPlan`
  per store, drawing per-shard keys, so replaying the same probe
  sequence reproduces the same injections exactly);
* a latency/cost model (every probe bills ``latency × multiplier``,
  timeouts billing :data:`~repro.resilience.faults.TIMEOUT_COST_MULTIPLIER`);
* an optional replica (mutations are applied to both copies) used for
  deterministic **hedged reads**: a probe hedges to the replica when
  the primary times out, exhausts its retry budget, or is shed by an
  open breaker;
* a per-shard :class:`~repro.resilience.circuit.CircuitBreaker`
  (attempt-event time, same machine as the executor's per-arc
  breakers) so a dark shard is probed at cooldown rate, not hammered.

**The hot path never raises.**  When primary and hedge both fail, the
probe *degrades to a partial answer*: retrieval yields nothing for
that relation, and the shard's name is recorded in the current *probe
window*.  The query processor brackets each query with
``begin_probe_window()`` / ``end_probe_window()`` (part of every
:class:`~repro.storage.interface.FactStore`; this backend overrides the
always-complete defaults) and threads the resulting
:class:`~repro.storage.interface.Completeness` verdict — and the billed
remote latency — into the answer.  Partial answers are
always a *subset* of the complete answer set: shards can hide facts,
never invent them.

Routing is by relation signature through ``crc32`` — stable across
processes and ``PYTHONHASHSEED`` — and all facts of a relation live on
one shard, so healthy-federated enumeration order is byte-identical to
the in-memory store's (relations in first-insertion order, facts in
insertion order within each relation).

Mutations and catalog reads (``signatures``/``count``/``relation``/
``__iter__``/``__contains__``) are *administrative*: they model the
control plane, which in this simulation is always reachable, and never
draw from the fault streams.  Only the probing entry points
(``retrieve``, ``facts_matching``, ``succeeds``) touch the simulated
network.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..datalog.database import Database
from ..datalog.terms import Atom, Substitution
from ..errors import DatalogError
from ..resilience.circuit import CircuitBreaker
from ..resilience.faults import FaultPlan, FaultSpec
from .interface import Completeness, FactStore, ProbeWindow, next_store_id

__all__ = ["ShardSpec", "Shard", "ProbeWindow", "FederatedStore"]


@dataclass(frozen=True)
class ShardSpec:
    """Static description of one simulated remote shard.

    ``latency`` is the cost billed per primary probe attempt (the
    remote round-trip in paper cost units); ``replica_latency``
    defaults to 1.5× the primary's (a hedge is assumed to go to a
    farther copy).  ``fault`` governs the primary's injection stream;
    ``replica_fault`` the replica's (clean by default — an independent
    copy is the reason hedging helps).
    """

    name: str
    fault: FaultSpec = field(default_factory=FaultSpec)
    latency: float = 1.0
    replica: bool = False
    replica_fault: FaultSpec = field(default_factory=FaultSpec)
    replica_latency: Optional[float] = None

    @property
    def hedge_latency(self) -> float:
        if self.replica_latency is not None:
            return self.replica_latency
        return self.latency * 1.5


class Shard:
    """One live shard: spec + primary/replica stores + breaker."""

    def __init__(
        self,
        spec: ShardSpec,
        failure_threshold: int,
        cooldown: int,
    ):
        self.spec = spec
        self.name = spec.name
        self.primary = Database()
        self.replica: Optional[Database] = Database() if spec.replica else None
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            cooldown=cooldown,
            name=f"shard:{spec.name}",
        )


class FederatedStore(FactStore):
    """Relations partitioned over simulated faulty shards.

    ``shards`` is either a count (shards named ``shard0`` …, all using
    the shared ``fault``/``latency``/``replicas`` knobs, with
    ``per_shard`` overriding individual fault specs by name) or an
    explicit sequence of :class:`ShardSpec`.  ``seed`` drives every
    injection stream; two stores built with the same arguments and
    probed with the same sequence behave identically.

    ``retry_budget`` is the number of *extra* primary attempts after
    the first before hedging; ``failure_threshold``/``cooldown``
    configure the per-shard breakers.
    """

    def __init__(
        self,
        facts: Iterable[Atom] = (),
        *,
        shards: Union[int, Sequence[ShardSpec]] = 2,
        seed: int = 0,
        fault: Optional[FaultSpec] = None,
        per_shard: Optional[Mapping[str, FaultSpec]] = None,
        latency: float = 1.0,
        replicas: bool = False,
        replica_fault: Optional[FaultSpec] = None,
        replica_latency: Optional[float] = None,
        retry_budget: int = 1,
        failure_threshold: int = 3,
        cooldown: int = 4,
    ):
        if isinstance(shards, int):
            if shards < 1:
                raise ValueError("a federated store needs at least one shard")
            base = fault or FaultSpec()
            overrides = dict(per_shard or {})
            specs = [
                ShardSpec(
                    name=f"shard{i}",
                    fault=overrides.get(f"shard{i}", base),
                    latency=latency,
                    replica=replicas,
                    replica_fault=replica_fault or FaultSpec(),
                    replica_latency=replica_latency,
                )
                for i in range(shards)
            ]
        else:
            specs = list(shards)
            if not specs:
                raise ValueError("a federated store needs at least one shard")
        if retry_budget < 0:
            raise ValueError("retry_budget cannot be negative")
        self.specs: Tuple[ShardSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self.retry_budget = retry_budget
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.shards: List[Shard] = [
            Shard(spec, failure_threshold, cooldown) for spec in self.specs
        ]
        #: One plan for the whole store; shard names (and
        #: ``name::replica``) are the draw keys, so each shard's
        #: injection stream is independent and seed-stable.
        self.plan = FaultPlan(
            seed=self.seed,
            per_arc={
                key: spec
                for shard in self.specs
                for key, spec in (
                    (shard.name, shard.fault),
                    (f"{shard.name}::replica", shard.replica_fault),
                )
            },
        )
        # -- catalog (administrative, never faults) --------------------
        self._relation_order: List[Tuple[str, int]] = []
        self._signatures: Set[Tuple[str, int]] = set()
        self._counts: Dict[Tuple[str, int], int] = {}
        self._size = 0
        self._id = next_store_id()
        self._generation = 0
        # -- telemetry -------------------------------------------------
        self.billed_cost = 0.0
        self.probes = 0
        self.dark_probes = 0
        self.hedged_reads = 0
        self._window = threading.local()
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------
    # Identity & coherence
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def cache_key(self) -> Tuple[int, int]:
        return (self._id, self._generation)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_for(self, signature: Tuple[str, int]) -> Shard:
        """The shard owning a relation — ``crc32`` keeps the placement
        stable across processes and hash seeds."""
        predicate, arity = signature
        digest = zlib.crc32(f"{predicate}/{arity}".encode())
        return self.shards[digest % len(self.shards)]

    def shard_names(self) -> Tuple[str, ...]:
        return tuple(shard.name for shard in self.shards)

    # ------------------------------------------------------------------
    # Probe windows
    # ------------------------------------------------------------------

    def begin_probe_window(self) -> None:
        """Start collecting missing shards / billed latency for one
        query (thread-local; the serving pool gives each worker its
        own window)."""
        window = self._window
        window.active = True
        window.missing: Set[str] = set()
        window.billed = 0.0
        window.probes = 0

    def probe_window_missing(self) -> frozenset:
        """The shards seen dark so far in the current window (peek)."""
        if not getattr(self._window, "active", False):
            return frozenset()
        return frozenset(self._window.missing)

    def end_probe_window(self) -> ProbeWindow:
        """Close the current window and return its collected verdict."""
        window = self._window
        if not getattr(window, "active", False):
            return ProbeWindow()
        window.active = False
        return ProbeWindow(
            completeness=Completeness.missing(window.missing),
            billed_cost=window.billed,
            probes=window.probes,
        )

    # ------------------------------------------------------------------
    # The probe path (faultable — never raises)
    # ------------------------------------------------------------------

    def _source_for(self, signature: Tuple[str, int]) -> Optional[Database]:
        """Resolve one probe to a live copy of the owning shard.

        Primary first (through its breaker, within the retry budget),
        then a single deterministic hedge to the replica.  Returns
        ``None`` — and records the shard as missing in the current
        probe window — when every copy is dark.
        """
        shard = self.shard_for(signature)
        billed = 0.0
        source: Optional[Database] = None
        for _attempt in range(self.retry_budget + 1):
            if not shard.breaker.allow():
                break
            injection = self.plan.draw(shard.name)
            billed += shard.spec.latency * injection.cost_multiplier
            if not injection.faulted:
                shard.breaker.record_success()
                source = shard.primary
                break
            shard.breaker.record_fault()
            if injection.timeout:
                break  # hedge immediately rather than retry into a stall
        if source is None and shard.replica is not None:
            self.hedged_reads += 1
            injection = self.plan.draw(f"{shard.name}::replica")
            billed += shard.spec.hedge_latency * injection.cost_multiplier
            if not injection.faulted:
                source = shard.replica
        self.billed_cost += billed
        self.probes += 1
        window = getattr(self._window, "active", False)
        if window:
            self._window.billed += billed
            self._window.probes += 1
        if source is None:
            self.dark_probes += 1
            if window:
                self._window.missing.add(shard.name)
        return source

    def retrieve(self, pattern: Atom) -> Iterator[Substitution]:
        source = self._source_for(pattern.signature)
        if source is None:
            return iter(())
        return source.retrieve(pattern)

    def facts_matching(self, pattern: Atom) -> Iterator[Atom]:
        source = self._source_for(pattern.signature)
        if source is None:
            return iter(())
        return source.facts_matching(pattern)

    def succeeds(self, pattern: Atom) -> bool:
        source = self._source_for(pattern.signature)
        if source is None:
            return False
        return source.succeeds(pattern)

    # ------------------------------------------------------------------
    # Mutation (administrative)
    # ------------------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        if not isinstance(fact, Atom):
            raise TypeError("facts must be Atoms")
        if not fact.is_ground:
            raise DatalogError(f"facts must be ground, got {fact}")
        signature = fact.signature
        shard = self.shard_for(signature)
        if not shard.primary.add(fact):
            return False
        if shard.replica is not None:
            shard.replica.add(fact)
        if signature not in self._counts:
            self._relation_order.append(signature)
            self._counts[signature] = 0
        self._signatures.add(signature)
        self._counts[signature] += 1
        self._size += 1
        self._generation += 1
        return True

    def remove(self, fact: Atom) -> bool:
        signature = fact.signature
        shard = self.shard_for(signature)
        if not shard.primary.remove(fact):
            return False
        if shard.replica is not None:
            shard.replica.remove(fact)
        count = self._counts[signature] - 1
        self._counts[signature] = count
        if count == 0:
            self._signatures.discard(signature)
        self._size -= 1
        self._generation += 1
        return True

    # ------------------------------------------------------------------
    # Catalog (administrative)
    # ------------------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        if not isinstance(fact, Atom) or not fact.is_ground:
            return False
        return fact in self.shard_for(fact.signature).primary

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        for signature in self._relation_order:
            yield from self.shard_for(signature).primary.relation(*signature)

    def relation(self, predicate: str, arity: int) -> List[Atom]:
        return self.shard_for((predicate, arity)).primary.relation(
            predicate, arity
        )

    def count(self, predicate: str, arity: Optional[int] = None) -> int:
        if arity is not None:
            return self._counts.get((predicate, arity), 0)
        return sum(
            count
            for (name, _arity), count in self._counts.items()
            if name == predicate
        )

    def signatures(self) -> Set[Tuple[str, int]]:
        return self._signatures

    # ------------------------------------------------------------------
    # Whole-store operations
    # ------------------------------------------------------------------

    @classmethod
    def from_program(cls, text: str, **kwargs) -> "FederatedStore":
        from ..datalog.parser import parse_program

        store = cls(**kwargs)
        for rule in parse_program(text):
            if not rule.is_fact:
                raise DatalogError(f"not a fact: {rule}")
            store.add(rule.head)
        return store

    def copy(self) -> "FederatedStore":
        """An equivalent store: same topology, same seed, *fresh* fault
        streams and breakers, same facts in the same insertion order."""
        return FederatedStore(
            self,
            shards=self.specs,
            seed=self.seed,
            retry_budget=self.retry_budget,
            failure_threshold=self.failure_threshold,
            cooldown=self.cooldown,
        )

    def breaker_states(self) -> Dict[str, str]:
        """Shard name -> breaker state (for reports and tests)."""
        return {
            shard.name: shard.breaker.state.value for shard in self.shards
        }

    def summary(self) -> Dict[str, object]:
        """Probe/fault telemetry for reports and bench tables."""
        return {
            "shards": len(self.shards),
            "probes": self.probes,
            "dark_probes": self.dark_probes,
            "hedged_reads": self.hedged_reads,
            "billed_cost": self.billed_cost,
            "injections": self.plan.summary(),
            "breakers": self.breaker_states(),
        }

    def __repr__(self) -> str:
        return (
            f"FederatedStore({self._size} facts over "
            f"{len(self.shards)} shards)"
        )
