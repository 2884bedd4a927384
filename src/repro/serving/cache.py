"""The serving layer's two-tier cache: answers and subgoal memos.

Query-Subquery Nets eliminate re-derivation by *tabling*: once a
ground subgoal's status is known, later queries reuse it instead of
re-proving.  The serving layer applies the same idea at two levels:

* :class:`SubgoalMemo` — a memo table over *database probes*.  The
  executor's unit operation is "does any fact match this retrieval
  pattern?"; the memo records the answer per (pattern, version of the
  probed bucket) so that concurrent and repeated queries skip the
  physical probe.  It fronts only stores whose probes bill latency
  (:attr:`~repro.storage.interface.FactStore.probes_are_io`): tabling
  pays where a probe is dear, and an index that answers at no latency
  answers a probe faster than the memo looks one up.  The strategy's
  cost accounting is untouched — an attempted arc is billed its
  ``f(arc)`` either way — so learning statistics are identical with
  and without the memo; what a hit spares is the probe's latency (on
  the federated store, the billed shard latency added to the answer).
* :class:`AnswerCache` — whole-query results.  A repeated query whose
  read set is unchanged is answered straight from cache (billed zero:
  no retrieval work happens) and **bypasses the learner**: a cache hit
  executes no strategy, so it contributes no sample to PIB's Δ̃
  accumulators.

Coherence is by construction, not by invalidation walks: every key
embeds the store's identity and a *version* —
:meth:`~repro.storage.interface.FactStore.version` of the entry's read
set (the query's read keys, or the probe's bucket), read once before
the work.  A store's version, per key in every backend, only grows and
changes as soon as a fact under the read set is added or removed, so
an entry computed before a relevant write stops matching and ages out
of the LRU bound, while entries that never read the written keys keep
hitting.  A caller that
passes no version gets the whole-store generation (the store's
``cache_key``), so any write invalidates every such entry.

Both tiers are thread-safe (one lock per table) and report
hit/miss/eviction counters through :class:`CacheStats` and, when a
recorder is attached, through the observability layer's ``cache``
events and ``*_cache_*_total`` metrics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from sys import intern
from typing import Any, Dict, Hashable, Optional, Tuple, TYPE_CHECKING

from ..datalog.terms import Atom, _variant_key
from ..observability.recorder import NULL_RECORDER, Recorder

if TYPE_CHECKING:
    from ..datalog.database import Database
    from ..system import SystemAnswer

__all__ = ["CacheStats", "LRUTable", "SubgoalMemo", "AnswerCache"]

#: Distinguishes "cached as False/None" from "not cached".
_MISS = object()

#: At most this many shared served-from-cache answers (see
#: :meth:`AnswerCache._served_form`); past it, new values are stored
#: unshared.
_SHARED_LIMIT = 64


class CacheStats:
    """Hit/miss/eviction counters for one cache tier."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class LRUTable:
    """A bounded, thread-safe LRU map with observability counters.

    ``kind`` names the tier in recorder events (``"answer"`` /
    ``"subgoal"``).  Lookups and stores are O(1); eviction drops the
    least-recently-used entry once ``capacity`` is exceeded.
    """

    def __init__(
        self,
        capacity: int,
        kind: str,
        recorder: Recorder = NULL_RECORDER,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.kind = kind
        self.recorder = recorder
        self.stats = CacheStats()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, count_miss: bool = True) -> Any:
        """The cached value, or the module-private miss sentinel.

        A hit is always counted; a miss only with ``count_miss``, for a
        caller that will look the same request up again and count it
        then, so each request counts once.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.stats.hits += 1
                value = self._data[key]
                hit = True
            else:
                if count_miss:
                    self.stats.misses += 1
                value = _MISS
                hit = False
        if self.recorder.enabled:
            if hit:
                self.recorder.cache_hit(self.kind)
            elif count_miss:
                self.recorder.cache_miss(self.kind)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.stats.evictions += 1
                evicted += 1
        if evicted and self.recorder.enabled:
            for _ in range(evicted):
                self.recorder.cache_evict(self.kind)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class SubgoalMemo:
    """Tabling for ground-subgoal probes (the QSQN idea).

    Implements the ``memo`` seam of
    :class:`~repro.graphs.contexts.LazyDatalogContext`:
    :meth:`lookup` returns the remembered status of a retrieval
    pattern at a store version (``None`` when unknown), :meth:`store`
    records a settled probe.  The context passes the version of the
    probe's bucket, read before probing; without one the entry is
    keyed on the store's generation.  Only the storage layer's settled
    truth enters the table: a probe that faults raises before anything
    is stored, and the context stores nothing once the store's probe
    window has seen a dark shard, whose "no" only means "unreachable".
    """

    def __init__(self, capacity: int, recorder: Recorder = NULL_RECORDER):
        self._table = LRUTable(capacity, "subgoal", recorder)

    @property
    def stats(self) -> CacheStats:
        return self._table.stats

    def __len__(self) -> int:
        return len(self._table)

    @staticmethod
    def _key(
        pattern: Atom, database: "Database", version: Optional[int]
    ) -> Tuple:
        """One flat key, ``(identity, version, predicate, *args)``.

        Whether *any* fact matches a pattern depends on the constants
        at bound positions and on which variable positions must be
        *equal* — ``e2(X, X)`` only matches facts with identical
        arguments, so it must not share an entry with ``e2(X, Y)``.
        The pattern part is therefore its variant key, which numbers
        the variables by first occurrence; the tuple's length carries
        the arity.
        """
        identity, generation = database.cache_key
        if version is None:
            version = generation
        return (identity, version) + _variant_key(pattern)

    def lookup(
        self,
        pattern: Atom,
        database: "Database",
        version: Optional[int] = None,
    ) -> Optional[bool]:
        value = self._table.get(self._key(pattern, database, version))
        return None if value is _MISS else value

    def store(
        self,
        pattern: Atom,
        database: "Database",
        status: bool,
        version: Optional[int] = None,
    ) -> None:
        self._table.put(self._key(pattern, database, version), bool(status))

    def snapshot(self) -> Dict[str, float]:
        return self._table.stats.snapshot()


class AnswerCache:
    """Whole-answer cache keyed by (store, read-set version, query).

    The query is keyed by its predicate and argument terms (see
    :meth:`_key`), never its text: ``n(1)`` and ``n("1")`` print alike
    but are different queries.  ``version`` is the store's version of the
    query's read set, read by the caller *before* computing the answer
    and passed to both :meth:`lookup` and :meth:`store`; without one,
    entries key on the store's generation.

    Only :attr:`~repro.system.SystemAnswer.clean` answers enter the
    coherent table: degraded answers (deadline expiries, fault
    escapes, shed arcs) reflect infrastructure state at one instant,
    not the database, so replaying them would be wrong, and a coherent
    hit must reflect the whole fact base.  A stored answer is
    normalized to its served-from-cache form once — zero billed cost,
    ``cached=True`` — so hits share one immutable object.  An answer
    with an empty substitution (every ground query's) is one of a few
    values, so equal ones share one object across entries too: the
    cache's "yes" and "no" to thousands of ground queries are two
    objects.

    ``keep_stale=False`` leaves the stale table empty: a server builds
    its cache that way unless it sheds by ``degrade-to-cached``, the
    only reader of that table.
    """

    def __init__(
        self,
        capacity: int,
        recorder: Recorder = NULL_RECORDER,
        keep_stale: bool = True,
    ):
        self._table = LRUTable(capacity, "answer", recorder)
        #: Last clean answer per (database identity, query) — any
        #: version.  Only the admission layer's ``degrade-to-cached``
        #: shed policy reads this, and only through
        #: :meth:`lookup_stale`; coherent lookups never see it.  Bounded
        #: by the same capacity as the main table, and filled only with
        #: ``keep_stale``.
        self._stale: "OrderedDict[Tuple, SystemAnswer]" = OrderedDict()
        self._stale_lock = threading.Lock()
        self._keep_stale = keep_stale
        self.stale_hits = 0
        #: Served forms with an empty substitution, each its own key.
        self._shared: Dict["SystemAnswer", "SystemAnswer"] = {}
        self._shared_lock = threading.Lock()

    @property
    def stats(self) -> CacheStats:
        return self._table.stats

    def __len__(self) -> int:
        return len(self._table)

    @staticmethod
    def _key(
        query: Atom, database: "Database", version: Optional[int]
    ) -> Tuple:
        """One flat key, ``(identity, version, predicate, *args)``.

        It holds the query's terms but not the query: an entry keeps
        no parsed :class:`Atom` of a request alive, and its predicate
        is interned, so no request's predicate string either.  Unlike
        :class:`SubgoalMemo`'s, the key keeps the variables' names: a
        cached substitution binds the query's own variables, so
        ``p(X)`` and ``p(Y)`` are separate entries.
        """
        identity, generation = database.cache_key
        if version is None:
            version = generation
        return (identity, version, intern(query.predicate)) + query.args

    @staticmethod
    def _stale_key(query: Atom, database: "Database") -> Tuple:
        return (database.cache_key[0], intern(query.predicate)) + query.args

    def lookup(
        self,
        query: Atom,
        database: "Database",
        version: Optional[int] = None,
        count_miss: bool = True,
    ) -> Optional["SystemAnswer"]:
        """The coherent answer, or ``None``.  ``count_miss=False``
        leaves a miss uncounted (see :meth:`LRUTable.get`)."""
        value = self._table.get(self._key(query, database, version),
                                count_miss)
        return None if value is _MISS else value

    def store(
        self,
        query: Atom,
        database: "Database",
        answer: "SystemAnswer",
        version: Optional[int] = None,
    ) -> bool:
        """Cache an answer; returns whether it entered the coherent
        table, i.e. whether it is clean.

        Degraded answers are never cached.  *Partial* answers (a
        federated backend with dark shards) are not clean, so they
        never enter the coherent table, but they do refresh the stale
        table when one is kept, where the preserved ``completeness``
        verdict guarantees a later degrade-to-cached shed serves them
        flagged partial, never as complete.
        """
        if answer.degraded:
            return False
        normalized = self._served_form(answer)
        clean = answer.clean
        if clean:
            self._table.put(self._key(query, database, version), normalized)
        if not self._keep_stale:
            return clean
        with self._stale_lock:
            key = self._stale_key(query, database)
            existing = self._stale.get(key)
            # A partial answer never displaces a clean stale entry:
            # under shedding, an older complete answer beats a fresher
            # partial one.
            if clean or existing is None or not existing.clean:
                self._stale[key] = normalized
                self._stale.move_to_end(key)
                while len(self._stale) > self._table.capacity:
                    self._stale.popitem(last=False)
        return clean

    def _served_form(self, answer: "SystemAnswer") -> "SystemAnswer":
        """``answer`` as a hit serves it: zero billed cost, not climbed,
        ``cached``.  With an empty substitution it is the one shared
        object of its value; a substitution's bindings vary per query,
        so such an answer is never shared."""
        normalized = replace(answer, cost=0.0, climbed=False, cached=True)
        if normalized.substitution:
            return normalized
        with self._shared_lock:
            shared = self._shared.get(normalized)
            if shared is not None:
                return shared
            if len(self._shared) < _SHARED_LIMIT:
                self._shared[normalized] = normalized
        return normalized

    def lookup_stale(
        self, query: Atom, database: "Database"
    ) -> Optional["SystemAnswer"]:
        """The last clean answer for this query against this database
        *object*, whatever its version was — possibly stale.

        This is the ``degrade-to-cached`` shed policy's escape hatch:
        under overload, a stale answer explicitly marked degraded beats
        no answer.  Never consulted on the coherent path.
        """
        with self._stale_lock:
            answer = self._stale.get(self._stale_key(query, database))
            if answer is not None:
                self.stale_hits += 1
        return answer

    def snapshot(self) -> Dict[str, float]:
        stats = self._table.stats.snapshot()
        if self.stale_hits:
            stats["stale_hits"] = self.stale_hits
        return stats
