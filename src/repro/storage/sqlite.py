"""A SQLite-backed :class:`~repro.storage.interface.FactStore`.

Each relation gets its own table (``r1``, ``r2``, …, mapped through a
python-side catalog since predicate names are not valid SQL
identifiers) with one TEXT column per argument position, a UNIQUE
index over the full row (duplicate-fact detection) and, for arity two
or more, a secondary index per argument column (the access-path
analogue of the in-memory store's per-argument hash indexes; a unary
table's UNIQUE index is already one).

**Enumeration order.**  SQLite's implicit ``rowid`` is monotonically
assigned per insert, so ``ORDER BY rowid`` reproduces fact insertion
order exactly — including the removed-then-re-added-goes-last rule,
because a re-insert allocates a fresh, larger rowid.  Relation order
for ``__iter__`` is the :class:`~repro.storage.interface.FactStore`
catalog's first-insertion order.
Together these make every enumeration byte-identical to
:class:`~repro.datalog.database.Database` on the same mutation
history, which is what keeps the BENCH metrics backend-independent.

**Value encoding.**  :class:`~repro.datalog.terms.Constant` values may
be uninterpreted symbols *or* interpreted literals (``42`` and ``"42"``
are distinct constants).  Arguments are therefore stored as
``"<typename>:<repr>"`` strings — injective for every type the parser
produces — and decoded through a python-side table that remembers the
exact :class:`Constant` each encoding came from, so round-trips are
identity-exact even for exotic hashable values.  Only stored facts
fill that table: probes and removes encode without registering, so
asking about constants never stored does not grow it.

**Loading.**  The constructor stores its initial facts in one
transaction, with one ``executemany`` per relation in first-insertion
order, straight from the rows grouped by relation that every
constructor takes (read once: a copy streams its source's select),
and records the catalog once
(:meth:`~repro.storage.interface.FactStore._record_load`).  The
``UNIQUE`` index skips duplicates, and each relation's count is the
rows its ``executemany`` inserted, so :attr:`generation` ends at the
number of distinct facts, as after one ``add`` per fact.  Rowids
within a relation follow the facts' order, which is all the
enumeration-order guarantee reads.

Matching (bound positions, repeated variables), the row views and
read versions are the :class:`~repro.storage.interface.FactStore`
base's; this backend only supplies its rows, decoded from a select
whose ``WHERE`` clauses on bound columns *prune* a probe's scan,
exactly like ``Database._candidates`` picking the tightest index
bucket.  No :class:`Atom` is built per row unless an entry point
returns facts.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..datalog.terms import Atom, Constant, Variable
from .interface import FactStore, _check_fact, _fact_rows, _FactRows

__all__ = ["SQLiteFactStore"]


def _encode(constant: Constant) -> str:
    value = constant.value
    return f"{type(value).__name__}:{value!r}"


class SQLiteFactStore(FactStore):
    """Ground facts in SQLite, one indexed table per relation.

    ``path`` defaults to ``":memory:"``; pass a filename for an
    on-disk store.  The connection is private to the store and opened
    with ``check_same_thread=False`` guarded by SQLite's own
    serialized mode, matching the serving layer's thread-pool use.
    """

    def __init__(self, facts: Iterable[Atom] = (), path: str = ":memory:"):
        self._conn = sqlite3.connect(
            path, check_same_thread=False, isolation_level=None
        )
        self._conn.execute("PRAGMA synchronous=OFF")
        self._tables: Dict[Tuple[str, int], str] = {}
        #: encoding -> the exact Constant it came from.
        self._constants: Dict[str, Constant] = {}
        super().__init__()
        self._load(_fact_rows(facts))

    def _load(self, relations: _FactRows) -> None:
        """Store a fresh store's rows in one transaction (see the module
        notes).  Every fact was checked before the first table is
        made."""
        counts: Dict[Tuple[str, int], int] = {}
        constants = self._constants
        conn = self._conn
        conn.execute("BEGIN")
        try:
            for signature, relation in relations.items():
                encoded = []
                for args in relation:
                    row = self._row_for(args)
                    encoded.append(row)
                    for cell, arg in zip(row, args):
                        constants.setdefault(cell, arg)
                table = self._table_for(signature)
                cursor = conn.executemany(
                    f"INSERT OR IGNORE INTO {table} VALUES "
                    f"({', '.join('?' for _ in encoded[0])})",
                    encoded,
                )
                counts[signature] = cursor.rowcount
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        self._record_load(counts)

    def copy(self) -> "SQLiteFactStore":
        """An independent in-memory copy, preserving enumeration order."""
        return SQLiteFactStore(self._relations())

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def _table_for(self, signature: Tuple[str, int]) -> str:
        table = self._tables.get(signature)
        if table is None:
            table = f"r{len(self._tables) + 1}"
            _predicate, arity = signature
            if arity:
                columns = ", ".join(f"c{i} TEXT" for i in range(arity))
                unique = ", ".join(f"c{i}" for i in range(arity))
            else:
                # SQL needs at least one column; arity-0 relations hold
                # a single sentinel row.
                columns, unique = "c0 TEXT", "c0"
            self._conn.execute(f"CREATE TABLE {table} ({columns})")
            self._conn.execute(
                f"CREATE UNIQUE INDEX {table}_uq ON {table} ({unique})"
            )
            if arity > 1:
                # A unary table's UNIQUE index already covers its column.
                for i in range(arity):
                    self._conn.execute(
                        f"CREATE INDEX {table}_i{i} ON {table} (c{i})"
                    )
            self._tables[signature] = table
        return table

    @staticmethod
    def _row_for(args: tuple) -> Tuple[str, ...]:
        """The encoded table row of a fact's arguments."""
        if not args:
            return ("()",)
        return tuple(map(_encode, args))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        _check_fact(fact)
        table = self._table_for(fact.signature)
        row = self._row_for(fact.args)
        placeholders = ", ".join("?" for _ in row)
        cursor = self._conn.execute(
            f"INSERT OR IGNORE INTO {table} VALUES ({placeholders})", row
        )
        if cursor.rowcount == 0:
            return False
        # Only a stored fact's constants enter the decode table: a
        # membership probe or a remove of unseen constants must not grow it.
        for encoded, arg in zip(row, fact.args):
            self._constants.setdefault(encoded, arg)
        self._record_write(fact, 1)
        return True

    def remove(self, fact: Atom) -> bool:
        table = self._tables.get(fact.signature)
        if table is None or not fact.is_ground:
            return False
        row = self._row_for(fact.args)
        where = " AND ".join(f"c{i} = ?" for i in range(len(row)))
        cursor = self._conn.execute(
            f"DELETE FROM {table} WHERE {where}", row
        )
        if cursor.rowcount == 0:
            return False
        self._record_write(fact, -1)
        return True

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        if not isinstance(fact, Atom) or not fact.is_ground:
            return False
        table = self._tables.get(fact.signature)
        if table is None:
            return False
        row = self._row_for(fact.args)
        where = " AND ".join(f"c{i} = ?" for i in range(len(row)))
        cursor = self._conn.execute(
            f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", row
        )
        return cursor.fetchone() is not None

    def _scan(
        self, signature: Tuple[str, int], pattern: Optional[Atom] = None
    ) -> Iterator[tuple]:
        """Rows of one relation in insertion (rowid) order, decoded,
        pruned by the bound positions of ``pattern`` when given."""
        table = self._tables.get(signature)
        if table is None:
            return
        arity = signature[1]
        clauses: List[str] = []
        params: List[str] = []
        if pattern is not None:
            for i, arg in enumerate(pattern.args):
                if type(arg) is not Variable:
                    clauses.append(f"c{i} = ?")
                    params.append(_encode(arg))
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        columns = ", ".join(f"c{i}" for i in range(max(arity, 1)))
        cursor = self._conn.execute(
            f"SELECT {columns} FROM {table}{where} ORDER BY rowid", params
        )
        if arity == 0:
            for _row in cursor:
                yield ()
            return
        decode = self._constants.__getitem__
        for row in cursor:
            yield tuple(map(decode, row))

    def _rows(self, signature: Tuple[str, int]) -> Iterator[tuple]:
        return self._scan(signature)

    def _candidates(self, pattern: Atom) -> Iterator[tuple]:
        return self._scan(pattern.signature, pattern)

    def __repr__(self) -> str:
        return f"SQLiteFactStore({self._size} facts)"
