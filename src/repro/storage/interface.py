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

**What a stored fact is.**  A fact is stored as its argument tuple,
a *row*: the relation it belongs to is where it is stored, so no
backend keeps an :class:`Atom` per fact.  The read hooks ``_rows``
and ``_candidates`` yield rows, and an :class:`Atom` is built —
sharing one signature tuple for the call — only where an entry point
must return one: ``facts_matching``, ``__iter__`` and ``relation``.
A constructor takes its facts as rows grouped by relation
(:class:`_FactRows`): the fact scan returns them so, given atoms are
grouped after the ground-fact check (:func:`_fact_rows`), and a
backend stores a relation at a time, with no :class:`Atom` per fact.

**What the base owns.**  :class:`FactStore` keeps everything the
backends share: the store identity and :attr:`~FactStore.generation`,
the relation catalog (``signatures``, ``count``, ``__len__`` and the
relations' first-insertion order), the read stamps behind
:meth:`~FactStore.version`, the row views (``relation``, ``__iter__``
and ``_relations``, which a copy is built from), the engines' derived
state (:meth:`~FactStore._derived_state`), :meth:`~FactStore.from_program`,
the one ground-fact check every stored fact passes, and the one loop
that matches a pattern against rows, :meth:`~FactStore._matching`,
behind ``retrieve``, ``facts_matching``, ``succeeds`` and the row
probe ``_rows_matching`` that the bottom-up join and QSQN use.  A
backend implements only its physical storage — ``add``/``remove``,
``__contains__`` (which answers ground probes), ``copy`` and two read
hooks: ``_rows``, which yields a relation's rows in insertion order,
and ``_candidates``, which yields them pruned by a pattern's bound
positions — and reports every *effective* insert or delete through
one base call, :meth:`~FactStore._record_write`, so one method sees
every write of every backend.  A store whose probes go elsewhere
first (a fault draw, a shard route) overrides ``_matching`` alone, so
every probe entry point takes that path; ``_rows`` is the control
plane, which never faults.  Construction is not a write: a backend
that builds its initial facts in one pass records them once, through
:meth:`~FactStore._record_load`.

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
exactly as long as that version does.  In every backend it is the
newest *stamp* among ``keys``: the generation of a key's last write.
Versions count writes, and the facts a store was constructed with are
not writes: a key that no write has touched since construction has no
stamp and reads 0, "as constructed", which no reader can have cached
before the constructor returned.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

# ``repro.datalog.terms`` imports nothing from the package, so this is
# safe while ``repro.datalog.database`` is importing this module.
from ..datalog.terms import EMPTY_SUBSTITUTION, Atom, Substitution, Variable
from ..errors import DatalogError

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


def _check_fact(fact: Atom) -> None:
    """Raise unless ``fact`` can be stored: every backend checks each
    fact it loads or adds here, so all raise the same errors."""
    if not isinstance(fact, Atom):
        raise TypeError("facts must be Atoms")
    if not fact.is_ground:
        raise DatalogError(f"facts must be ground, got {fact}")


class _FactRows(dict):
    """Facts grouped by relation, already storable: each signature
    ``(predicate, arity)`` maps to a non-empty iterable of its rows,
    tuples of ``arity`` constants, which a constructor reads once.
    Relations come in first-insertion order and each one's rows in fact
    order, duplicates included.  The fact scan returns one, and so does
    :meth:`FactStore._relations`; the constructor loads a relation at a
    time, with no :class:`Atom` per fact."""

    __slots__ = ()


def _fact_rows(facts: Iterable) -> _FactRows:
    """A constructor's ``facts`` as rows grouped by relation: a
    :class:`_FactRows` as it is, anything else fact by fact through
    :func:`_check_fact`, every fact checked before any is stored."""
    if type(facts) is _FactRows:
        return facts
    groups = _FactRows()
    for fact in facts:
        _check_fact(fact)
        rows = groups.get(fact.signature)
        if rows is None:
            rows = groups[fact.signature] = []
        rows.append(fact.args)
    return groups


def bucket_keys(fact: Atom) -> List[ReadKey]:
    """The bucket keys holding ``fact``, one per argument position.  A
    write of ``fact`` changes exactly these and its relation key
    ``fact.signature``."""
    predicate, arity = fact.signature
    keys = []
    for position, arg in enumerate(fact.args):
        keys.append((predicate, arity, position, arg))
    return keys


def probe_key(pattern: Atom) -> ReadKey:
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


class _WindowedProbes:
    """Probe windows that collect something: the billed latency of a
    store whose probes bill it, and the sources a store could not reach.

    Mixed in ahead of :class:`FactStore` by the federated store and the
    flaky test store; every other store keeps the base's no-op windows.
    Each thread has its own window, as each serving worker answers its
    own query.  A probe reports itself through :meth:`_bill_probe`.
    """

    def __init__(self, *args, **kwargs) -> None:
        import threading  # only stores that keep windows need it

        super().__init__(*args, **kwargs)
        self._window = threading.local()

    def begin_probe_window(self) -> None:
        window = self._window
        window.active = True
        window.missing = set()
        window.billed = 0.0
        window.probes = 0

    def probe_window_missing(self) -> frozenset:
        if not getattr(self._window, "active", False):
            return frozenset()
        return frozenset(self._window.missing)

    def end_probe_window(self) -> ProbeWindow:
        window = self._window
        if not getattr(window, "active", False):
            return _EMPTY_WINDOW
        window.active = False
        return ProbeWindow(
            completeness=Completeness.missing(window.missing),
            billed_cost=window.billed,
            probes=window.probes,
        )

    def _bill_probe(self, billed: float, dark: Optional[str] = None) -> None:
        """Count one probe in the open window, if any: charge it
        ``billed``, and note ``dark``, the source it could not reach."""
        window = self._window
        if getattr(window, "active", False):
            window.billed += billed
            window.probes += 1
            if dark is not None:
                window.missing.add(dark)

#: What :meth:`FactStore._matching` yields per match: the bindings
#: (``retrieve``), the fact (``facts_matching``) or its row
#: (``_rows_matching``).
_BINDINGS, _FACTS, _ROWS = range(3)


class FactStore(ABC):
    """Abstract base for ground-fact storage backends.

    A subclass calls ``super().__init__()`` before loading facts, keeps
    the module-level contract — especially the enumeration-order
    guarantee — and calls :meth:`_record_write` once per *effective*
    mutation, since the serving caches key on ``cache_key = (identity,
    generation)`` or on :meth:`version`, and derived state on the
    generation.  Its constructor may load its initial facts through
    ``add`` or build them in one pass and record them with
    :meth:`_record_load`.  It takes atoms, or the rows grouped by
    relation that :meth:`from_program` and :meth:`_relations` give
    (:func:`_fact_rows` reads either as the latter).
    """

    #: Whether a probe bills or blocks on latency, as a remote round
    #: trip would: the federated store bills each probe its shard's
    #: latency, the S1 bench's latency store sleeps.  Only such a
    #: store is fronted by the serving layer's subgoal memo: an index
    #: that answers at no latency answers a probe faster than the memo
    #: can look one up (DESIGN §9).
    probes_are_io = False

    def __init__(self) -> None:
        self._id = next_store_id()
        self._generation = 0
        #: Facts per relation, in relation first-insertion order.  An
        #: emptied relation keeps its entry, and so its ``__iter__`` slot.
        self._counts: Dict[Tuple[str, int], int] = {}
        #: The relations holding at least one fact.
        self._signatures: Set[Tuple[str, int]] = set()
        self._size = 0
        #: Read key -> generation of its last effective write.
        self._stamps: Dict[ReadKey, int] = {}
        #: Owner -> (generation, the state it derived at it).
        self._derived: Dict[object, Tuple[int, object]] = {}

    # -- identity & coherence ------------------------------------------

    @property
    def generation(self) -> int:
        """Mutation counter: bumped by every effective add/remove.  A
        freshly constructed store's is its number of facts."""
        return self._generation

    @property
    def cache_key(self) -> Tuple[int, int]:
        """A token identifying this store *state*: ``(identity,
        generation)``.  Two equal tokens guarantee identical retrieval
        behaviour, which is what cache entries are allowed to rely on.
        The identity is a process-wide counter shared by every backend,
        not ``id(self)``, which can be reused after garbage collection
        and alias two distinct stores."""
        return (self._id, self._generation)

    def version(self, keys: Iterable[ReadKey]) -> int:
        """The newest stamp among ``keys`` (see the module notes): a
        write elsewhere leaves it unchanged, and a key no write has
        touched since construction reads 0."""
        stamp_of = self._stamps.get
        newest = 0
        for key in keys:
            stamp = stamp_of(key, 0)
            if stamp > newest:
                newest = stamp
        return newest

    def _derived_state(self, owner: object, build: Callable[[], object]):
        """The state ``owner`` (an engine) derives from this store: the
        one built at the current generation, else a fresh ``build()``,
        which replaces it.  Any write makes an entry stale; an entry
        lives as long as the store."""
        generation = self._generation
        entry = self._derived.get(owner)
        if entry is None or entry[0] != generation:
            entry = self._derived[owner] = (generation, build())
        return entry[1]

    def _drop_derived(self, owner: object) -> None:
        """Forget ``owner``'s state, so its next read builds afresh."""
        self._derived.pop(owner, None)

    # -- mutation ------------------------------------------------------

    @abstractmethod
    def add(self, fact: Atom) -> bool:
        """Add a ground fact; ``False`` when already present."""

    @abstractmethod
    def remove(self, fact: Atom) -> bool:
        """Remove a fact; ``False`` when it was absent."""

    def update(self, facts: Iterable[Atom]) -> int:
        """Add many facts; returns how many were new."""
        return sum(1 for fact in facts if self.add(fact))

    def _record_load(self, counts: Dict[Tuple[str, int], int]) -> None:
        """Record the catalog of a store built in one pass: ``counts``
        maps each relation, in first-insertion order, to its (positive)
        number of distinct facts.

        The constructor calls this once, after its facts are stored and
        before it returns.  Loading is not a write — no reader can have
        seen the store yet — but :attr:`generation` still ends at the
        number of facts, as if each had been added.
        """
        self._counts = counts
        self._signatures = set(counts)
        self._size = self._generation = sum(counts.values())

    def _record_write(self, fact: Atom, delta: int, keys: Optional[List] = None) -> None:
        """Record one effective physical insert (``delta=1``) or delete
        (``delta=-1``) of ``fact``: update the catalog, bump the
        generation, and stamp the relation key and each bucket key of
        ``fact`` with the new generation.

        Every backend calls this exactly once per write that changed
        its stored fact set, after the write is visible to every probe
        and through every index — every write after construction (see
        :meth:`_record_load`) — so a reader that sees a new stamp sees
        the write.  A backend that computed ``keys``, the fact's
        :func:`bucket_keys`, for its own index passes them, so the
        index and the stamps share one tuple per key.
        """
        signature = fact.signature
        generation = self._count_write(signature, delta)
        stamps = self._stamps
        stamps[signature] = generation
        for key in bucket_keys(fact) if keys is None else keys:
            stamps[key] = generation

    def _count_write(self, signature: Tuple[str, int], delta: int) -> int:
        """The catalog half of :meth:`_record_write`: the relation's
        count, the live signatures and the size move by ``delta``, and
        the generation is bumped and returned."""
        counts = self._counts
        count = counts.get(signature, 0) + delta
        counts[signature] = count
        if count:
            self._signatures.add(signature)
        else:
            self._signatures.discard(signature)
        self._size += delta
        self._generation = generation = self._generation + 1
        return generation

    # -- retrieval -----------------------------------------------------

    def retrieve(self, pattern: Atom) -> Iterator[Substitution]:
        """Yield one substitution per fact matching ``pattern``.

        A ground pattern yields at most one (empty) substitution; a
        pattern with variables yields their bindings.  This is the
        "attempted database retrieval" of the paper: the retrieval
        *succeeds* iff the iterator is non-empty.  Enumeration order is
        fact insertion order.
        """
        return self._matching(pattern, _BINDINGS)

    def facts_matching(self, pattern: Atom) -> Iterator[Atom]:
        """Yield the stored facts matching ``pattern``, in insertion
        order: :meth:`retrieve`'s matches as the facts themselves."""
        return self._matching(pattern, _FACTS)

    def _rows_matching(self, pattern: Atom) -> Iterator[tuple]:
        """Yield the rows (argument tuples) of the stored facts matching
        ``pattern``, in insertion order: :meth:`facts_matching` with no
        :class:`Atom` per fact.  The bottom-up join and QSQN bind their
        slot arrays straight from these."""
        return self._matching(pattern, _ROWS)

    def _matching(self, pattern: Atom, form: int) -> Iterator:
        """The one match loop behind every probe; ``form`` says what it
        yields per match (see :data:`_BINDINGS`).

        A ground pattern is a membership test.  Otherwise a candidate
        row matches when it carries the pattern's constants and binds
        each repeated variable to one value.  The bindings are built
        inside the loop: this is the SLD engine's probe, so it adds no
        call or generator per row.  A fact is built only for
        ``facts_matching``, on the pattern's signature tuple.
        """
        if pattern.is_ground:
            if pattern in self:
                if form == _BINDINGS:
                    yield EMPTY_SUBSTITUTION
                else:
                    yield pattern if form == _FACTS else pattern.args
            return
        pattern_args = pattern.args
        signature = pattern.signature
        for row in self._candidates(pattern):
            bindings = {}
            for p_arg, f_arg in zip(pattern_args, row):
                if type(p_arg) is Variable:
                    bound = bindings.get(p_arg)
                    if bound is None:
                        bindings[p_arg] = f_arg
                    elif bound != f_arg:
                        break
                elif p_arg != f_arg:
                    break
            else:
                if form == _BINDINGS:
                    yield Substitution._resolved(bindings)
                elif form == _FACTS:
                    yield Atom._ground(signature, row)
                else:
                    yield row

    def _candidates(self, pattern: Atom) -> Iterable[tuple]:
        """The rows of ``pattern``'s relation that could match it, in
        insertion order — a backend's one retrieval hook.  It may prune
        by the pattern's bound positions (an index, a ``WHERE`` clause)
        but never reorder; the match loop checks the rest.  ``pattern``
        is never ground."""
        raise NotImplementedError

    def succeeds(self, pattern: Atom) -> bool:
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

    def signatures(self) -> Set[Tuple[str, int]]:
        """All relation signatures with at least one fact.

        Returns the live set (maintained by :meth:`_record_write`) —
        treat it as read-only.  The engine checks it once per attempted
        retrieval, so rebuilding it per call was a top profile frame.
        """
        return self._signatures

    @abstractmethod
    def _rows(self, signature: Tuple[str, int]) -> Iterable[tuple]:
        """One relation's rows in insertion order, the hook behind the
        row views; it reads the control plane, so it never faults."""

    def relation(self, predicate: str, arity: int) -> List[Atom]:
        """All facts of one relation, in insertion order."""
        signature = (predicate, arity)
        ground = Atom._ground
        return [ground(signature, args) for args in self._rows(signature)]

    def count(self, predicate: str, arity: Optional[int] = None) -> int:
        """Number of facts for a relation.

        With ``arity=None`` the counts of all arities of ``predicate``
        are summed; this is the statistic the [Smi89] heuristic uses
        (e.g. "2,000 facts of the form ``prof^(b)``").
        """
        if arity is not None:
            return self._counts.get((predicate, arity), 0)
        return sum(
            count
            for (name, _arity), count in self._counts.items()
            if name == predicate
        )

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        """Every fact: relations in first-insertion order, facts in
        insertion order within each, each built as it is consumed."""
        ground = Atom._ground
        for signature in self._counts:
            for args in self._rows(signature):
                yield ground(signature, args)

    def _relations(self) -> _FactRows:
        """The non-empty relations as rows grouped by relation, which a
        copy or the bottom-up model is built from, with no :class:`Atom`."""
        rows = self._rows
        return _FactRows(
            (signature, rows(signature))
            for signature, count in self._counts.items()
            if count
        )

    # -- whole-store operations ----------------------------------------

    @classmethod
    def from_program(cls, text: str, **kwargs) -> "FactStore":
        """Build a store from Datalog source containing only facts:
        ``cls(facts, **kwargs)``.

        Fact-only text is scanned straight to rows grouped by relation
        (a :class:`_FactRows`); any other text goes through
        :func:`~repro.datalog.parser.parse_program`, which reports its
        errors, and reaches the constructor as atoms.  Either way the
        whole text is read before the store is constructed, so a
        malformed text builds nothing.
        """
        from ..datalog import parser

        return cls(parser._read_facts(text), **kwargs)

    @abstractmethod
    def copy(self) -> "FactStore":
        """An independent same-backend copy of the store, built from
        :meth:`_relations`."""

    @abstractmethod
    def __contains__(self, fact: Atom) -> bool: ...
