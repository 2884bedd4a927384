"""Pluggable fact-storage backends behind one :class:`FactStore` contract.

Every name loads on first use (:mod:`repro._lazy`), so that
:mod:`repro.datalog.database` can subclass :class:`FactStore` without
a circular import — the federation backend itself builds on
:class:`~repro.datalog.database.Database` shards — and a process that
never opens SQLite never imports ``sqlite3``.
"""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".config": ("STORE_BACKENDS", "StoreConfig"),
    ".interface": ("COMPLETE", "Completeness", "FactStore", "ProbeWindow",
                   "next_store_id"),
    ".sqlite": ("SQLiteFactStore",),
    ".federation": ("FederatedStore", "ShardSpec"),
})
