"""The ``FactStore`` contract: what every fact backend must provide.

The paper's unit operation is the *attempted retrieval*; everything
above the storage layer — the inference-graph contexts, the engines,
the serving caches — only ever touches a database through a small
probing-and-mutation surface.  This module names that surface so it
can be implemented by more than one backend:

* :class:`repro.datalog.database.Database` — the original in-memory
  dict-indexed store (the reference implementation of the contract);
* :class:`repro.storage.sqlite.SQLiteFactStore` — the same facts in
  SQLite tables, one per relation, with per-argument-column indexes;
* :class:`repro.storage.federation.FederatedStore` — relations
  partitioned over simulated remote shards with per-shard fault
  plans, latency, replicas and circuit breakers.

**The enumeration-order guarantee.**  Every conforming backend must
enumerate ``retrieve``/``facts_matching``/``__iter__`` results in
*fact insertion order* (relations in first-insertion order for
``__iter__``), never in hash order or backend-internal order.  This is
what makes answer enumeration, billed proof costs, and every BENCH
metric byte-identical across backends and ``PYTHONHASHSEED`` values.
A removed-then-re-added fact enumerates at the *end*, in all backends.

**Partial answers.**  A backend whose physical sources can be
unavailable (today: the federated store) reports *what it could not
see* through a typed :class:`Completeness` verdict instead of raising:
retrieval yields whatever the live sources hold, and the probe window
(``begin_probe_window`` / ``end_probe_window``, part of
:class:`FactStore`) lets the query processor collect the missing-source
set and billed remote latency for one query.  Backends that are always
complete keep the defaults: an empty, trivially :data:`COMPLETE` window
that bills nothing.

**Read keys and versions.**  What a probe can observe is named in one
vocabulary, shared by every backend's :meth:`FactStore.version` and by
the serving caches' read sets:

* a *relation* key ``(predicate, arity)`` — every fact of the relation;
* a *bucket* key ``(predicate, arity, position, constant)`` — the facts
  of the relation holding ``constant`` at ``position``.

A probe's key is :func:`probe_key` of its pattern.  ``version(keys)``
is a number that differs from every earlier reading as soon as a fact
under any of ``keys`` has been added or removed since; a cache entry
keyed on the version of everything its computation probed stays valid
exactly as long as that version does.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from ..datalog.terms import Atom, Substitution

__all__ = [
    "Completeness",
    "COMPLETE",
    "FactStore",
    "ProbeWindow",
    "ReadKey",
    "bucket_keys",
    "next_store_id",
    "probe_key",
]

#: A relation key ``(predicate, arity)`` or a bucket key
#: ``(predicate, arity, position, constant)`` (see the module notes).
ReadKey = Tuple


def bucket_keys(fact: "Atom") -> List[ReadKey]:
    """The bucket keys holding ``fact``, one per argument position.  A
    write of ``fact`` changes exactly these and its relation key
    ``fact.signature``."""
    predicate, arity = fact.signature
    keys = []
    for position, arg in enumerate(fact.args):
        keys.append((predicate, arity, position, arg))
    return keys


def probe_key(pattern: "Atom") -> ReadKey:
    """The read key covering every fact a probe of ``pattern`` can see.

    A matching fact carries the pattern's constant at every bound
    position, so the bucket at the *first* bound position holds all of
    them.  A pattern with no constant — all variables, repeated or
    not — reads its whole relation.
    """
    predicate, arity = pattern.signature
    for position, arg in enumerate(pattern.args):
        if arg.is_ground:
            return (predicate, arity, position, arg)
    return (predicate, arity)


#: Process-wide store identities, shared by *all* backends, so cache
#: keys from two different stores can never collide even at equal
#: generations (and regardless of backend type).
_next_store_id = itertools.count(1)


def next_store_id() -> int:
    """The next process-wide unique store identity."""
    return next(_next_store_id)


@dataclass(frozen=True)
class Completeness:
    """How much of the fact base a query's retrievals actually saw.

    The verdict is the sorted names of the shards that stayed dark
    past their retry/hedge budget.  With none it is ``complete``:
    every probed relation was served by a live source, so the answer
    (including a "no") reflects the whole stored fact set.  With any
    it is *partial*: the answer is a sound subset of the complete
    answer (facts are only ever hidden, never invented), but a "no"
    is not trustworthy.
    """

    missing_shards: Tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.missing_shards

    @property
    def partial(self) -> bool:
        return bool(self.missing_shards)

    @classmethod
    def missing(cls, shards: Iterable[str]) -> "Completeness":
        """The verdict over the given dark shard names: partial when
        any are named, else the shared :data:`COMPLETE`."""
        if not shards:  # the common complete case skips the sort
            return COMPLETE
        names = tuple(sorted(set(shards)))
        return cls(names) if names else COMPLETE

    def describe(self) -> str:
        if self.complete:
            return "complete"
        return "partial (missing: " + ", ".join(self.missing_shards) + ")"


#: The shared trivially-complete verdict (every in-memory answer).
COMPLETE = Completeness()


@dataclass(frozen=True)
class ProbeWindow:
    """What one query's probes saw: the collected completeness verdict,
    the billed remote latency, and how many probes ran."""

    completeness: Completeness = COMPLETE
    billed_cost: float = 0.0
    probes: int = 0


#: The window of a store that never goes partial (shared: it is frozen,
#: and the processor closes one window per query).
_EMPTY_WINDOW = ProbeWindow()


class FactStore(ABC):
    """Abstract base for ground-fact storage backends.

    Subclasses must preserve the module-level contract above —
    especially the enumeration-order guarantee — and bump
    :attr:`generation` on every *effective* mutation, since the
    serving caches key on ``cache_key = (identity, generation)`` or on
    :meth:`version`.
    """

    # -- identity & coherence ------------------------------------------

    @property
    @abstractmethod
    def generation(self) -> int:
        """Mutation counter: bumped by every effective add/remove."""

    @property
    @abstractmethod
    def cache_key(self) -> Tuple[int, int]:
        """``(identity, generation)`` — the token cache entries rely on."""

    def version(self, keys: Iterable[ReadKey]) -> int:
        """A version of the facts under ``keys`` (see the module notes).

        The default is the whole-store :attr:`generation`: coherent for
        any backend, but every mutation anywhere changes it.  A backend
        that tracks per-key stamps returns the newest stamp among
        ``keys`` instead, so writes elsewhere leave it unchanged.
        """
        return self.generation

    # -- mutation ------------------------------------------------------

    @abstractmethod
    def add(self, fact: "Atom") -> bool:
        """Add a ground fact; ``False`` when already present."""

    @abstractmethod
    def remove(self, fact: "Atom") -> bool:
        """Remove a fact; ``False`` when it was absent."""

    def update(self, facts: Iterable["Atom"]) -> int:
        """Add many facts; returns how many were new."""
        return sum(1 for fact in facts if self.add(fact))

    # -- retrieval -----------------------------------------------------

    @abstractmethod
    def retrieve(self, pattern: "Atom") -> Iterator["Substitution"]:
        """One substitution per matching fact, in insertion order."""

    @abstractmethod
    def facts_matching(self, pattern: "Atom") -> Iterator["Atom"]:
        """The stored facts matching ``pattern``, in insertion order."""

    def succeeds(self, pattern: "Atom") -> bool:
        """Whether at least one fact matches ``pattern`` (satisficing)."""
        for _ in self.retrieve(pattern):
            return True
        return False

    # -- probe windows -------------------------------------------------

    def begin_probe_window(self) -> None:
        """Start collecting one query's completeness verdict and billed
        latency (a no-op for an always-complete store)."""

    def probe_window_missing(self) -> frozenset:
        """The sources seen dark so far in the current window (peek)."""
        return frozenset()

    def end_probe_window(self) -> ProbeWindow:
        """Close the current window and return what it collected."""
        return _EMPTY_WINDOW

    # -- catalog -------------------------------------------------------

    @abstractmethod
    def signatures(self) -> Set[Tuple[str, int]]:
        """All relation signatures with at least one fact."""

    @abstractmethod
    def relation(self, predicate: str, arity: int) -> List["Atom"]:
        """All facts of one relation, in insertion order."""

    @abstractmethod
    def count(self, predicate: str, arity: Optional[int] = None) -> int:
        """Fact count for a relation (all arities when ``arity=None``)."""

    # -- whole-store operations ----------------------------------------

    @abstractmethod
    def copy(self) -> "FactStore":
        """An independent same-backend copy of the store."""

    @abstractmethod
    def __contains__(self, fact: "Atom") -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __iter__(self) -> Iterator["Atom"]: ...
