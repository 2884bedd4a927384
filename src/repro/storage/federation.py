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
:class:`~repro.storage.interface.FactStore`; this backend keeps the
windows it shares with the flaky test store in place of the
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
``__iter__``/``__contains__``, and the row hook ``_rows`` behind the
views and ``copy``) are *administrative*: they model the control
plane, which in this simulation is always reachable, and never draw
from the fault streams.  Only the probing entry points (``retrieve``,
``facts_matching``, ``succeeds``, and the row probe QSQN uses) touch
the simulated network: they all run the base's one match loop, whose
``_matching`` this backend overrides to route the probe to a shard
first.  Read versions are the base's, stamped by this store's writes;
a shard's copies keep their catalog but stamp nothing, since no
reader versions a copy.
"""

from __future__ import annotations

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
    Tuple,
    Union,
)

from ..datalog.database import Database
from ..datalog.terms import Atom
from ..resilience.circuit import CircuitBreaker
from ..resilience.faults import FaultPlan, FaultSpec
from .interface import (
    FactStore,
    ProbeWindow,
    _check_fact,
    _fact_rows,
    _FactRows,
    _WindowedProbes,
)

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


class _ShardCopy(Database):
    """A shard's primary or replica.  Readers take their versions from
    the federated store, which stamps every write it routes, and never
    from a copy: a copy's write keeps its catalog and stamps no read
    key."""

    def _record_write(self, fact: Atom, delta: int, keys=None) -> None:
        self._count_write(fact.signature, delta)


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
        self.primary = _ShardCopy()
        self.replica: Optional[Database] = _ShardCopy() if spec.replica else None
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            cooldown=cooldown,
            name=f"shard:{spec.name}",
        )


class FederatedStore(_WindowedProbes, FactStore):
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

    #: Every probe is a (simulated) remote round trip that bills shard
    #: latency, so the subgoal memo fronts this store.
    probes_are_io = True

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
        # The catalog is administrative: it never faults.
        super().__init__()
        # -- telemetry -------------------------------------------------
        self.billed_cost = 0.0
        self.probes = 0
        self.dark_probes = 0
        self.hedged_reads = 0
        self._load(facts)

    def _load(self, facts: Iterable) -> None:
        """Build every shard in one pass: each shard's relations, as
        they come, go to ``_ShardCopy(relations)`` for its primary, its
        replica is built from the primary's, so the two share their row
        tuples, and the catalog is recorded once."""
        relations = _fact_rows(facts)
        relations_of: Dict[Shard, _FactRows] = {}
        for signature, rows in relations.items():
            shard = self.shard_for(signature)
            relations_of.setdefault(shard, _FactRows())[signature] = rows
        for shard, shard_relations in relations_of.items():
            shard.primary = _ShardCopy(shard_relations)
            if shard.replica is not None:
                shard.replica = _ShardCopy(shard.primary._relations())
        self._record_load({
            signature: self.shard_for(signature).primary.count(*signature)
            for signature in relations
        })

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
        if source is None:
            self.dark_probes += 1
            self._bill_probe(billed, shard.name)
        else:
            self._bill_probe(billed)
        return source

    def _matching(self, pattern: Atom, form: int) -> Iterator:
        """Every probe entry point — ``retrieve``, ``facts_matching``,
        ``succeeds`` and the row probe — resolves its shard here, once
        per call, and matches on the live copy; a dark shard yields
        nothing."""
        source = self._source_for(pattern.signature)
        if source is None:
            return iter(())
        return source._matching(pattern, form)

    # ------------------------------------------------------------------
    # Mutation (administrative)
    # ------------------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        _check_fact(fact)
        shard = self.shard_for(fact.signature)
        if not shard.primary.add(fact):
            return False
        if shard.replica is not None:
            shard.replica.add(fact)
        self._record_write(fact, 1)
        return True

    def remove(self, fact: Atom) -> bool:
        shard = self.shard_for(fact.signature)
        if not shard.primary.remove(fact):
            return False
        if shard.replica is not None:
            shard.replica.remove(fact)
        self._record_write(fact, -1)
        return True

    # ------------------------------------------------------------------
    # Catalog (administrative)
    # ------------------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        if not isinstance(fact, Atom) or not fact.is_ground:
            return False
        return fact in self.shard_for(fact.signature).primary

    def _rows(self, signature: Tuple[str, int]) -> Iterable[tuple]:
        return self.shard_for(signature).primary._rows(signature)

    # ------------------------------------------------------------------
    # Whole-store operations
    # ------------------------------------------------------------------

    def copy(self) -> "FederatedStore":
        """An equivalent store: same topology, same seed, *fresh* fault
        streams and breakers, same facts in the same insertion order."""
        return FederatedStore(
            self._relations(),
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
