"""The extensional database: a store of ground atomic facts.

Retrieval is the unit operation the whole paper is built around — a
strategy is an ordering of *attempted retrievals* (plus the rule
reductions that reach them), and PIB/PAO's statistics count how often
each retrieval succeeds.  This module provides an indexed fact store:

* a per-relation index (``signature -> facts``), and
* per-argument hash indexes (``signature, position, constant -> facts``)
  so that bound positions of a retrieval pattern prune the scan, the
  way any real EDB access path would.

Both index levels are backed by **insertion-ordered** dicts: every
enumeration a query can observe — full relation scans and per-argument
index buckets alike — runs in insertion order, never in hash order, so
multi-answer enumeration is byte-identical across ``PYTHONHASHSEED``
values.  (The argument index originally used ``set`` buckets, which
leaked hash ordering into answer enumeration; the serving layer's
byte-identity guarantees forbid that.)

The store also keeps simple relation statistics (fact counts per
relation), which the [Smi89] fact-distribution heuristic baseline
(:mod:`repro.optimal.smith`) consumes, and caches the set of live
relation signatures so the engine's per-retrieval "is this relation
extensional?" check is O(1) instead of rebuilding a set per call.

For the serving caches it keeps one *stamp* per read key (see
:mod:`repro.storage.interface`): the generation of the last effective
mutation under that relation or index bucket.  :meth:`Database.version`
of a read set is the newest stamp in it, so a write changes the
version of exactly the read sets that can observe it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import DatalogError
from ..storage.interface import FactStore, ReadKey, bucket_keys, next_store_id
from .terms import EMPTY_SUBSTITUTION, Atom, Constant, Substitution, Variable

__all__ = ["Database"]

class Database(FactStore):
    """An indexed collection of ground facts.

    Databases are mutable (facts can be added and removed) but the
    stored atoms themselves are immutable.  Iteration order is
    insertion order — including enumeration through the per-argument
    indexes — which keeps retrieval enumeration deterministic.

    Every mutation that actually changes the stored fact set bumps
    :attr:`generation` and then stamps the relation and index buckets
    it touched with the new generation.  Stamps only grow and are
    never deleted — a bucket that empties keeps its stamp — so
    :meth:`version` over a read set changes exactly when a fact under
    it is added or removed.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        self._facts: Dict[Tuple[str, int], Dict[Atom, None]] = defaultdict(dict)
        # Insertion-ordered buckets (dict-as-ordered-set): enumeration
        # through an index bucket must match insertion order.
        self._arg_index: Dict[
            Tuple[str, int, int, Constant], Dict[Atom, None]
        ] = defaultdict(dict)
        self._signatures: Set[Tuple[str, int]] = set()
        self._size = 0
        self._id = next_store_id()
        self._generation = 0
        #: Read key -> generation of its last effective mutation.
        self._stamps: Dict[ReadKey, int] = {}
        for fact in facts:
            self.add(fact)

    @property
    def generation(self) -> int:
        """Mutation counter: bumped by every effective add/remove."""
        return self._generation

    @property
    def cache_key(self) -> Tuple[int, int]:
        """A token identifying this database *state*: (identity,
        generation).  Two equal tokens guarantee identical retrieval
        behaviour, which is what cache entries are allowed to rely on.
        The identity component is a process-wide monotonic counter, not
        ``id(self)`` — ``id()`` values can be reused after garbage
        collection and alias two distinct databases."""
        return (self._id, self._generation)

    def version(self, keys: Iterable[ReadKey]) -> int:
        """The newest stamp among ``keys`` (0 for keys never mutated)."""
        stamp_of = self._stamps.get
        newest = 0
        for key in keys:
            stamp = stamp_of(key, 0)
            if stamp > newest:
                newest = stamp
        return newest

    def _stamp(self, signature: Tuple[str, int], keys: List[ReadKey]) -> None:
        """Bump the generation and stamp one mutation's relation and
        bucket keys with it.

        Called only once the relation and *every* index bucket show the
        mutation: a probe may enumerate through any bound position's
        bucket, so a reader that sees the new stamp on one key must
        already see the new facts through all of them.  A reader that
        reads the old stamp and then sees new facts merely caches a
        fresh answer under a version no later reader will look up.
        """
        self._generation = generation = self._generation + 1
        stamps = self._stamps
        stamps[signature] = generation
        for key in keys:
            stamps[key] = generation

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_program(cls, text: str) -> "Database":
        """Build a database from Datalog source containing only facts."""
        from .parser import parse_program

        database = cls()
        for rule in parse_program(text):
            if not rule.is_fact:
                raise DatalogError(f"not a fact: {rule}")
            database.add(rule.head)
        return database

    def copy(self) -> "Database":
        """An independent copy of the database."""
        return Database(self)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        """Add a ground fact; returns ``False`` when already present."""
        if not isinstance(fact, Atom):
            raise TypeError("facts must be Atoms")
        if not fact.is_ground:
            raise DatalogError(f"facts must be ground, got {fact}")
        signature = fact.signature
        relation = self._facts[signature]
        if fact in relation:
            return False
        relation[fact] = None
        keys = bucket_keys(fact)
        arg_index = self._arg_index
        for key in keys:
            arg_index[key][fact] = None
        self._signatures.add(signature)
        self._size += 1
        self._stamp(signature, keys)
        return True

    def remove(self, fact: Atom) -> bool:
        """Remove a fact; returns ``False`` when it was absent."""
        signature = fact.signature
        relation = self._facts.get(signature)
        if not relation or fact not in relation:
            return False
        del relation[fact]
        keys = bucket_keys(fact)
        for key in keys:
            bucket = self._arg_index.get(key)
            if bucket is not None:
                bucket.pop(fact, None)
                if not bucket:
                    del self._arg_index[key]
        if not relation:
            self._signatures.discard(signature)
        self._size -= 1
        self._stamp(signature, keys)
        return True

    def update(self, facts: Iterable[Atom]) -> int:
        """Add many facts; returns how many were new."""
        return sum(1 for fact in facts if self.add(fact))

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        relation = self._facts.get(fact.signature)
        return bool(relation) and fact in relation

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        for relation in self._facts.values():
            yield from relation

    def relation(self, predicate: str, arity: int) -> List[Atom]:
        """All facts of one relation, in insertion order."""
        return list(self._facts.get((predicate, arity), ()))

    def count(self, predicate: str, arity: Optional[int] = None) -> int:
        """Number of facts for a relation.

        With ``arity=None`` the counts of all arities of ``predicate``
        are summed; this is the statistic the [Smi89] heuristic uses
        (e.g. "2,000 facts of the form ``prof^(b)``").
        """
        if arity is not None:
            return len(self._facts.get((predicate, arity), ()))
        return sum(
            len(facts)
            for (name, _arity), facts in self._facts.items()
            if name == predicate
        )

    def signatures(self) -> Set[Tuple[str, int]]:
        """All relation signatures with at least one fact.

        Returns the live cached set (maintained incrementally by
        ``add``/``remove``) — treat it as read-only.  The engine checks
        it once per attempted retrieval, so rebuilding it per call was
        a top profile frame.
        """
        return self._signatures

    def _candidates(self, pattern: Atom) -> Iterable[Atom]:
        """Facts that could match ``pattern``, using the tightest index.

        Returns an insertion-ordered mapping view, so enumeration is
        deterministic regardless of which index bucket is chosen.
        """
        relation = self._facts.get(pattern.signature)
        if not relation:
            return ()
        predicate, arity = pattern.signature
        best: Optional[Dict[Atom, None]] = None
        for position, arg in enumerate(pattern.args):
            if type(arg) is Variable:
                continue
            bucket = self._arg_index.get((predicate, arity, position, arg))
            if bucket is None:
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        return relation if best is None else best

    def retrieve(self, pattern: Atom) -> Iterator[Substitution]:
        """Yield one substitution per fact matching ``pattern``.

        A ground pattern yields at most one (empty) substitution; a
        pattern with variables yields their bindings.  This is the
        "attempted database retrieval" of the paper: the retrieval
        *succeeds* iff the iterator is non-empty.  Enumeration order is
        fact insertion order.
        """
        if pattern.is_ground:
            if pattern in self:
                yield EMPTY_SUBSTITUTION
            return
        pattern_args = pattern.args
        for fact in self._candidates(pattern):
            bindings = {}
            for p_arg, f_arg in zip(pattern_args, fact.args):
                if type(p_arg) is Variable:
                    bound = bindings.get(p_arg)
                    if bound is None:
                        bindings[p_arg] = f_arg
                    elif bound != f_arg:
                        break
                elif p_arg != f_arg:
                    break
            else:
                yield Substitution._resolved(bindings)

    def facts_matching(self, pattern: Atom) -> Iterator[Atom]:
        """Yield the stored facts matching ``pattern``, in insertion
        order.

        Like :meth:`retrieve` but yields the facts themselves instead
        of substitutions — the bottom-up join binds its slot array
        straight from the fact argument tuples.
        """
        if pattern.is_ground:
            if pattern in self:
                yield pattern
            return
        pattern_args = pattern.args
        for fact in self._candidates(pattern):
            bindings = {}
            for p_arg, f_arg in zip(pattern_args, fact.args):
                if type(p_arg) is Variable:
                    bound = bindings.get(p_arg)
                    if bound is None:
                        bindings[p_arg] = f_arg
                    elif bound != f_arg:
                        break
                elif p_arg != f_arg:
                    break
            else:
                yield fact

    def succeeds(self, pattern: Atom) -> bool:
        """Whether at least one fact matches ``pattern`` (satisficing)."""
        for _ in self.retrieve(pattern):
            return True
        return False

    def __repr__(self) -> str:
        return f"Database({self._size} facts)"
