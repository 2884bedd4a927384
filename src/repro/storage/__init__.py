"""Pluggable fact-storage backends behind one :class:`FactStore` contract.

The interface is imported eagerly; the concrete backends load lazily
(PEP 562) so that :mod:`repro.datalog.database` can subclass
:class:`FactStore` without a circular import — the federation backend
itself builds on :class:`~repro.datalog.database.Database` shards.
"""

from .config import STORE_BACKENDS, StoreConfig
from .interface import (
    COMPLETE,
    Completeness,
    FactStore,
    ProbeWindow,
    next_store_id,
)

__all__ = [
    "COMPLETE",
    "Completeness",
    "FactStore",
    "next_store_id",
    "SQLiteFactStore",
    "FederatedStore",
    "ShardSpec",
    "ProbeWindow",
    "StoreConfig",
    "STORE_BACKENDS",
]

_LAZY = {
    "SQLiteFactStore": ("repro.storage.sqlite", "SQLiteFactStore"),
    "FederatedStore": ("repro.storage.federation", "FederatedStore"),
    "ShardSpec": ("repro.storage.federation", "ShardSpec"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
