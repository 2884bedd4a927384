"""The extensional database: a store of ground atomic facts.

Retrieval is the unit operation the whole paper is built around — a
strategy is an ordering of *attempted retrievals* (plus the rule
reductions that reach them), and PIB/PAO's statistics count how often
each retrieval succeeds.  This module provides an indexed fact store.

**A stored fact is its argument tuple** (its *row*), the paper's
extensional database as a set of ground tuples per relation.  The
relation a row is filed under names its predicate, so the store keeps
no :class:`Atom` per fact: it has

* a per-relation index (``signature -> rows``), and
* per-argument hash indexes (``signature, position, constant -> rows``)
  so that bound positions of a retrieval pattern prune the scan, the
  way any real EDB access path would.  Only relations of arity two or
  more get them: a probe opens a bucket only for a non-ground pattern
  with a constant, which a unary pattern never is (a ground pattern is
  a membership test on the relation index).

Membership, ``add`` and ``remove`` take atoms and look their rows up.
The read hooks :meth:`Database._rows` (a relation dict) and
:meth:`Database._candidates` (its tightest bucket) yield rows, which
the :class:`~repro.storage.interface.FactStore` base matches and
views; an :class:`Atom` is rebuilt, on one signature tuple per call,
only where ``__iter__``, ``relation`` or ``facts_matching`` must
return one.

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
per-retrieval "is this relation extensional?" check — and the read
stamps behind ``version`` belong to the
:class:`~repro.storage.interface.FactStore` base, which every
effective write reports to.

The constructor builds its initial facts in one pass, a relation at a
time, from rows grouped by relation: the fact scan's as they are, or
the given atoms' after the one ground-fact check.  Each relation dict
is built in one ``dict.fromkeys`` call, which keeps each row's first
occurrence in order, and its argument buckets are filled from it; the
catalog is then recorded once with the base
(:meth:`~repro.storage.interface.FactStore._record_load`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple

from ..storage.interface import FactStore, _check_fact, _fact_rows, bucket_keys
from .terms import Atom, Constant, Variable

__all__ = ["Database"]

class Database(FactStore):
    """An indexed collection of ground facts.

    Databases are mutable (facts can be added and removed) but each
    stored fact is an immutable row, its argument tuple.  Iteration
    order is insertion order — including enumeration through the
    per-argument indexes — which keeps retrieval enumeration
    deterministic.

    ``facts`` (atoms, or rows grouped by relation) are stored in one
    pass, duplicates skipped: construction is not a mutation, and
    :attr:`generation` ends at the number of distinct facts.  Every
    later mutation that actually changes the stored fact set is
    recorded with the base once the relation and *every* index bucket
    show it, since the base then stamps the fact's read keys: a probe
    may enumerate through any bound position's bucket, so a reader that
    sees the new stamp on one key must already see the new facts
    through all of them.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        super().__init__()
        #: Relation -> its rows, as an insertion-ordered dict.
        self._facts: Dict[Tuple[str, int], Dict[tuple, None]] = defaultdict(dict)
        # Insertion-ordered buckets (dict-as-ordered-set): enumeration
        # through an index bucket must match insertion order.  Filled
        # for arity >= 2 only (see the module notes).
        self._arg_index: Dict[
            Tuple[str, int, int, Constant], Dict[tuple, None]
        ] = defaultdict(dict)
        relations, arg_index = self._facts, self._arg_index
        counts = {}
        for signature, rows in _fact_rows(facts).items():
            relations[signature] = relation = dict.fromkeys(rows)
            counts[signature] = len(relation)
            predicate, arity = signature
            if arity > 1:
                for args in relation:
                    for position, arg in enumerate(args):
                        arg_index[predicate, arity, position, arg][args] = None
        self._record_load(counts)

    def copy(self) -> "Database":
        """An independent copy of the database, built from its relations.
        An emptied relation is left out: the copy's ``signatures()``
        equal the source's, while its catalog has no zero-count slot."""
        return Database(self._relations())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        """Add a ground fact; returns ``False`` when already present."""
        _check_fact(fact)
        signature, args = fact.signature, fact.args
        relation = self._facts[signature]
        if args in relation:
            return False
        relation[args] = None
        keys = bucket_keys(fact)
        if len(keys) > 1:
            arg_index = self._arg_index
            for key in keys:
                arg_index[key][args] = None
        self._record_write(fact, 1, keys)
        return True

    def remove(self, fact: Atom) -> bool:
        """Remove a fact; returns ``False`` when it was absent."""
        signature, args = fact.signature, fact.args
        relation = self._facts.get(signature)
        if not relation or args not in relation:
            return False
        del relation[args]
        keys = bucket_keys(fact)
        for key in keys:
            bucket = self._arg_index.get(key)
            if bucket is not None:
                bucket.pop(args, None)
                if not bucket:
                    del self._arg_index[key]
        self._record_write(fact, -1, keys)
        return True

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        try:
            relation = self._facts.get(fact.signature)
        except AttributeError:  # not an Atom, so never stored
            return False
        return bool(relation) and fact.args in relation

    def _rows(self, signature: Tuple[str, int]) -> Iterable[tuple]:
        """One relation's rows: its insertion-ordered dict."""
        return self._facts.get(signature, ())

    def _candidates(self, pattern: Atom) -> Iterable[tuple]:
        """Rows that could match ``pattern``, using the tightest index
        (the hook behind the base's probes).

        Returns an insertion-ordered dict of rows — a bucket is an
        ordered subset of its relation — so enumeration is deterministic
        regardless of which index bucket is chosen.
        """
        relation = self._facts.get(pattern.signature)
        if not relation:
            return ()
        predicate, arity = pattern.signature
        best: Optional[Dict[tuple, None]] = None
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
