"""The extensional database: a store of ground atomic facts.

Retrieval is the unit operation the whole paper is built around — a
strategy is an ordering of *attempted retrievals* (plus the rule
reductions that reach them), and PIB/PAO's statistics count how often
each retrieval succeeds.  This module provides an indexed fact store:

* a per-relation index (``signature -> facts``), and
* per-argument hash indexes (``signature, position, constant -> facts``)
  so that bound positions of a retrieval pattern prune the scan, the
  way any real EDB access path would.  Only relations of arity two or
  more get them: a probe opens a bucket only for a non-ground pattern
  with a constant, which a unary pattern never is (a ground pattern is
  a membership test on the relation index).

Both index levels are backed by **insertion-ordered** dicts: every
enumeration a query can observe — full relation scans and per-argument
index buckets alike — runs in insertion order, never in hash order, so
multi-answer enumeration is byte-identical across ``PYTHONHASHSEED``
values.  (The argument index originally used ``set`` buckets, which
leaked hash ordering into answer enumeration; the serving layer's
byte-identity guarantees forbid that.)

The relation catalog — fact counts per relation, which the [Smi89]
fact-distribution heuristic baseline (:mod:`repro.optimal.smith`)
consumes, and the live signature set behind the engine's O(1)
per-retrieval "is this relation extensional?" check — belongs to the
:class:`~repro.storage.interface.FactStore` base, which every
effective write reports to.

The constructor builds its initial facts in one pass: it fills the
relation dicts and the argument buckets, then records the catalog once
with the base (:meth:`~repro.storage.interface.FactStore._record_load`).

For the serving caches it keeps one *stamp* per read key written since
construction (see :mod:`repro.storage.interface`): the generation of
the last effective mutation under that relation or bucket key, for
every arity (a unary fact's bucket key is stamped though it has no
bucket).  A key with no stamp reads 0: the constructor writes none,
since no reader can exist before it returns.  :meth:`Database.version`
of a read set is the newest stamp in it, so a write changes the
version of exactly the read sets that can observe it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..storage.interface import FactStore, ReadKey, _check_fact, bucket_keys
from .terms import Atom, Constant, Variable

__all__ = ["Database"]

class Database(FactStore):
    """An indexed collection of ground facts.

    Databases are mutable (facts can be added and removed) but the
    stored atoms themselves are immutable.  Iteration order is
    insertion order — including enumeration through the per-argument
    indexes — which keeps retrieval enumeration deterministic.

    ``facts`` are stored in one pass, duplicates skipped, with no
    stamps: construction is not a mutation, and :attr:`generation`
    ends at the number of distinct facts.  Every later mutation that
    actually changes the stored fact set is recorded with the base,
    which bumps :attr:`generation`, and then stamps the relation and
    index buckets it touched with the new generation.  Stamps only grow
    and are never deleted — a bucket that empties keeps its stamp — so
    :meth:`version` over a read set changes exactly when a fact under
    it is added or removed.

    Stamps are written only once the relation and *every* index bucket
    show the mutation: a probe may enumerate through any bound
    position's bucket, so a reader that sees the new stamp on one key
    must already see the new facts through all of them.  A reader that
    reads the old stamp and then sees new facts merely caches a fresh
    answer under a version no later reader will look up.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        super().__init__()
        self._facts: Dict[Tuple[str, int], Dict[Atom, None]] = defaultdict(dict)
        # Insertion-ordered buckets (dict-as-ordered-set): enumeration
        # through an index bucket must match insertion order.  Filled
        # for arity >= 2 only (see the module notes).
        self._arg_index: Dict[
            Tuple[str, int, int, Constant], Dict[Atom, None]
        ] = defaultdict(dict)
        #: Read key -> generation of its last effective mutation.
        self._stamps: Dict[ReadKey, int] = {}
        relations, arg_index = self._facts, self._arg_index
        for fact in facts:
            _check_fact(fact)
            relation = relations[fact.signature]
            if fact in relation:
                continue
            relation[fact] = None
            if len(fact.args) > 1:
                for key in bucket_keys(fact):
                    arg_index[key][fact] = None
        self._record_load(
            {signature: len(relation) for signature, relation in relations.items()}
        )

    def version(self, keys: Iterable[ReadKey]) -> int:
        """The newest stamp among ``keys`` (0 for keys not mutated since
        construction)."""
        stamp_of = self._stamps.get
        newest = 0
        for key in keys:
            stamp = stamp_of(key, 0)
            if stamp > newest:
                newest = stamp
        return newest

    def copy(self) -> "Database":
        """An independent copy of the database."""
        return Database(self)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        """Add a ground fact; returns ``False`` when already present."""
        _check_fact(fact)
        signature = fact.signature
        relation = self._facts[signature]
        if fact in relation:
            return False
        relation[fact] = None
        keys = bucket_keys(fact)
        if len(keys) > 1:
            arg_index = self._arg_index
            for key in keys:
                arg_index[key][fact] = None
        generation = self._record_write(fact, 1)
        stamps = self._stamps
        stamps[signature] = generation
        for key in keys:
            stamps[key] = generation
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
        generation = self._record_write(fact, -1)
        stamps = self._stamps
        stamps[signature] = generation
        for key in keys:
            stamps[key] = generation
        return True

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        try:
            relation = self._facts.get(fact.signature)
        except AttributeError:  # not an Atom, so never stored
            return False
        return bool(relation) and fact in relation

    def __iter__(self) -> Iterator[Atom]:
        for relation in self._facts.values():
            yield from relation

    def relation(self, predicate: str, arity: int) -> List[Atom]:
        """All facts of one relation, in insertion order."""
        return list(self._facts.get((predicate, arity), ()))

    def _candidates(self, pattern: Atom) -> Iterable[Atom]:
        """Facts that could match ``pattern``, using the tightest index
        (the hook behind the base's ``retrieve``/``facts_matching``).

        Returns an insertion-ordered dict — a bucket is an ordered
        subset of its relation — so enumeration is deterministic
        regardless of which index bucket is chosen.
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

    def __repr__(self) -> str:
        return f"Database({self._size} facts)"
