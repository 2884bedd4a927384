"""Saving and restoring learned state as JSON.

The paper's guarantees rest on a *stationary* context distribution
(assumption [3], Section 5.1) — which makes everything the learners
accumulate durable across sessions: per-retrieval counters, the
``Δ̃`` sums per candidate transformation, the sequential-test counter
``i`` (which must keep growing across restarts or the δ-budget
accounting breaks), and the current strategy.

Formats are plain JSON — no pickling, so state files are inspectable
and safe to load.  Graphs themselves are *not* serialized: state is
restored against a freshly built graph, and every arc/transformation
reference is validated against it.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Optional

from .errors import CheckpointError, LearningError
from .graphs.inference_graph import InferenceGraph
from .learning.drift import DriftAlarm, DriftAwarePIB, DriftConfig
from .learning.pib import ClimbRecord, PIB
from .strategies.strategy import Strategy
from .strategies.transformations import (
    PathPromotion,
    SiblingSwap,
    Transformation,
)

__all__ = [
    "strategy_to_dict",
    "strategy_from_dict",
    "transformation_from_name",
    "pib_to_dict",
    "pib_from_dict",
    "migrate_payload",
    "save_pib",
    "load_pib",
    "backup_path",
    "payload_checksum",
]

_SWAP_RE = re.compile(r"^swap\(([^,()]+),([^,()]+)\)$")
_PROMOTE_RE = re.compile(r"^promote\(([^()]+)\)$")

#: v1: the PR 1 format (plain PIB state, no drift key).
#: v2: adds the nullable ``drift`` key carrying the epoch protocol's
#: state for :class:`~repro.learning.drift.DriftAwarePIB` checkpoints;
#: v1 files load through :func:`migrate_payload`.
_FORMAT_VERSION = 2

#: Payload keys :func:`pib_from_dict` indexes; validated up front so a
#: truncated or hand-edited file fails with one clear error instead of
#: a raw ``KeyError`` deep in the restore.
_REQUIRED_KEYS = (
    "version",
    "delta",
    "test_every",
    "total_tests",
    "contexts_processed",
    "strategy",
    "transformations",
    "retrieval_statistics",
    "accumulators",
    "history",
    "drift",
)


def strategy_to_dict(strategy: Strategy) -> Dict[str, object]:
    """A JSON-ready description of a strategy (arc names in order)."""
    return {"arcs": list(strategy.arc_names())}


def strategy_from_dict(
    graph: InferenceGraph, payload: Dict[str, object]
) -> Strategy:
    """Rebuild a strategy against ``graph``; legality is re-validated."""
    arcs = payload.get("arcs")
    if not isinstance(arcs, list):
        raise LearningError("strategy payload needs an 'arcs' list")
    return Strategy(graph, [str(name) for name in arcs])


def transformation_from_name(name: str) -> Transformation:
    """Reconstruct a transformation from its display name.

    Supports the two built-in operator families (``swap(a,b)`` and
    ``promote(r)``); custom transformation classes need their own
    persistence.
    """
    swap = _SWAP_RE.match(name)
    if swap:
        return SiblingSwap(swap.group(1), swap.group(2))
    promotion = _PROMOTE_RE.match(name)
    if promotion:
        return PathPromotion(promotion.group(1))
    raise LearningError(f"unknown transformation name {name!r}")


def _drift_to_dict(pib: PIB) -> Optional[Dict[str, object]]:
    """The v2 ``drift`` key: epoch state for drift-aware learners.

    ``None`` for vanilla PIB.  Detector windows are deliberately *not*
    serialized: they refill within ``max_window`` samples of a restart,
    whereas the epoch counter, alarm log, and last-known-good strategy
    are irrecoverable and must survive.
    """
    if not isinstance(pib, DriftAwarePIB):
        return None
    return {
        "config": pib.drift_config.to_dict(),
        "epoch": pib.epoch,
        "rollbacks": pib.rollbacks,
        "epoch_started_at": pib._epoch_started_at,
        "alarms": [
            {
                "epoch": alarm.epoch,
                "context_number": alarm.context_number,
                "sources": list(alarm.sources),
            }
            for alarm in pib.drift_alarms
        ],
        "last_known_good": (
            strategy_to_dict(pib.last_known_good)
            if pib.last_known_good is not None else None
        ),
    }


def pib_to_dict(pib: PIB) -> Dict[str, object]:
    """Serialize a PIB learner's full resumable state."""
    if pib.seeding:
        raise CheckpointError(
            "a learner still sampling its seed has no PIB state to save"
        )
    return {
        "version": _FORMAT_VERSION,
        "drift": _drift_to_dict(pib),
        "delta": pib.delta,
        "test_every": pib.test_every,
        "total_tests": pib.total_tests,
        "contexts_processed": pib.contexts_processed,
        "strategy": strategy_to_dict(pib.strategy),
        "transformations": [t.name for t in pib.transformations],
        "retrieval_statistics": {
            "attempts": dict(pib.retrieval_statistics.attempts),
            "successes": dict(pib.retrieval_statistics.successes),
        },
        "accumulators": [
            {
                "transformation": accumulator.transformation.name,
                "total": accumulator.total,
                "samples": accumulator.samples,
            }
            for accumulator in pib._accumulators
        ],
        "history": [
            {
                "step": record.step,
                "context_number": record.context_number,
                "transformation": record.transformation,
                "samples": record.samples,
                "estimated_gain": record.estimated_gain,
                "threshold": record.threshold,
                "from_arcs": list(record.from_arcs),
                "to_arcs": list(record.to_arcs),
            }
            for record in pib.history
        ],
    }


def migrate_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Upgrade an older-format payload to the current version.

    v1 → v2: the ``drift`` key did not exist (v1 predates the drift
    layer), so the migrated learner is a vanilla PIB — exactly what the
    v1 file described.  Migration never mutates its input; unknown or
    future versions raise :class:`~repro.errors.CheckpointError` (a
    newer build's file is not something this one can safely guess at).
    """
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"PIB state payload must be an object, got {type(payload).__name__}"
        )
    version = payload.get("version")
    if version == _FORMAT_VERSION:
        return payload
    if version == 1:
        upgraded = dict(payload)
        upgraded["version"] = 2
        upgraded["drift"] = None
        return upgraded
    raise CheckpointError(
        f"unsupported PIB state version {version!r} "
        f"(this build reads versions 1..{_FORMAT_VERSION})"
    )


def pib_from_dict(
    graph: InferenceGraph,
    payload: Dict[str, object],
    drift: Optional[DriftConfig] = None,
) -> PIB:
    """Rebuild a PIB learner on ``graph`` from :func:`pib_to_dict` output.

    The restored learner continues exactly where the saved one stopped:
    same strategy, same ``Δ̃`` sums, same sequential-test counter — so
    Theorem 1's budget keeps holding across the save/load boundary.

    Older format versions are upgraded via :func:`migrate_payload`
    first.  ``drift`` requests a
    :class:`~repro.learning.drift.DriftAwarePIB` with that config even
    when the checkpoint has no drift state (e.g. a migrated v1 file in
    a system that has since turned drift awareness on) — the learned
    strategy and statistics carry over, the epoch protocol starts
    fresh.  When the checkpoint itself carries drift state, it wins.
    """
    payload = migrate_payload(payload)
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise CheckpointError(
            "PIB state payload is missing required keys: "
            + ", ".join(missing)
        )
    try:
        return _pib_from_validated(graph, payload, drift)
    except LearningError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointError(
            f"malformed PIB state payload: {error!r}"
        ) from error


def _pib_from_validated(
    graph: InferenceGraph,
    payload: Dict[str, object],
    drift: Optional[DriftConfig] = None,
) -> PIB:
    transformations = [
        transformation_from_name(str(name))
        for name in payload["transformations"]
    ]
    drift_state = payload["drift"]
    if drift_state is not None:
        config = DriftConfig.from_dict(drift_state.get("config", {}))
    elif drift is not None:
        config = drift
    else:
        config = None

    if config is None:
        pib = PIB(
            graph,
            delta=float(payload["delta"]),
            initial_strategy=strategy_from_dict(graph, payload["strategy"]),
            transformations=transformations,
            test_every=int(payload["test_every"]),
        )
    else:
        pib = DriftAwarePIB(
            graph,
            delta=float(payload["delta"]),
            initial_strategy=strategy_from_dict(graph, payload["strategy"]),
            transformations=transformations,
            test_every=int(payload["test_every"]),
            drift=config,
        )
        if drift_state is not None:
            pib.epoch = int(drift_state["epoch"])
            pib.rollbacks = int(drift_state["rollbacks"])
            pib._epoch_started_at = int(drift_state["epoch_started_at"])
            pib.drift_alarms = [
                DriftAlarm(
                    epoch=int(alarm["epoch"]),
                    context_number=int(alarm["context_number"]),
                    sources=tuple(str(s) for s in alarm["sources"]),
                )
                for alarm in drift_state["alarms"]
            ]
            saved_good = drift_state["last_known_good"]
            if saved_good is not None:
                pib.last_known_good = strategy_from_dict(graph, saved_good)
            # Re-derive the neighbourhood now that last-known-good is
            # known: a differing snapshot re-adds the standing rollback
            # candidate, whose saved Δ̃ evidence is mapped back below.
            pib._rebuild_neighbourhood()
    pib.total_tests = int(payload["total_tests"])
    pib.contexts_processed = int(payload["contexts_processed"])

    stats = payload["retrieval_statistics"]
    for name, value in stats["attempts"].items():
        if name not in pib.retrieval_statistics.attempts:
            raise LearningError(f"saved counters name unknown arc {name!r}")
        pib.retrieval_statistics.attempts[name] = int(value)
    for name, value in stats["successes"].items():
        pib.retrieval_statistics.successes[name] = int(value)

    saved_accumulators = {
        str(item["transformation"]): item for item in payload["accumulators"]
    }
    for accumulator in pib._accumulators:
        saved = saved_accumulators.pop(accumulator.transformation.name, None)
        if saved is not None:
            accumulator.total = float(saved["total"])
            accumulator.samples = int(saved["samples"])
    if saved_accumulators:
        raise LearningError(
            "saved state has accumulators for unknown transformations: "
            + ", ".join(sorted(saved_accumulators))
        )

    pib.history = [
        ClimbRecord(
            step=int(item["step"]),
            context_number=int(item["context_number"]),
            transformation=str(item["transformation"]),
            samples=int(item["samples"]),
            estimated_gain=float(item["estimated_gain"]),
            threshold=float(item["threshold"]),
            from_arcs=tuple(item["from_arcs"]),
            to_arcs=tuple(item["to_arcs"]),
        )
        for item in payload["history"]
    ]
    return pib


def payload_checksum(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of ``payload`` sans checksum.

    Canonical form (sorted keys, tight separators) makes the digest a
    pure function of the *state*, independent of how the file was
    pretty-printed — so a byte-level comparison of two checkpoints can
    use the checksum alone.
    """
    import hashlib  # only checkpoint writes and reads need it

    body = {key: value for key, value in payload.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def backup_path(path: str) -> str:
    """Where :func:`write_checked_json` parks the previous good file."""
    return path + ".bak"


def write_checked_json(path: str, payload: Dict[str, object]) -> None:
    """Atomically write ``payload``, stamped with its checksum, to
    ``path`` — the one write protocol of every state file (learner
    checkpoints, the experience store).

    Crash-safety contract (exercised in ``tests/test_crash_recovery``):
    the payload is written to a temporary sibling, flushed and fsynced,
    and only then swapped in with :func:`os.replace`; the previously
    good file is first swapped to ``path + ".bak"``.  A crash at *any*
    step leaves either the old file, the backup, or both intact —
    never a world with only a torn file: the file and its backup are
    untouched until the temp write has fully synced, a write that dies
    mid-stream (full disk, kill) removes its own torn temp file, and
    the directory is fsynced after the renames so the swap itself
    survives power loss.  The SHA-256 ``checksum`` lets
    :func:`read_checked_json` detect torn or edited files, so loaders
    fall back to the backup.
    """
    payload = dict(payload, checksum=payload_checksum(payload))
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        # The write died mid-stream: the real file and its backup were
        # never touched, so just clear the torn temp file (a later
        # recovery scan must never mistake it for state).
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if os.path.exists(path):
        os.replace(path, backup_path(path))
    os.replace(tmp_path, path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. Windows: directories are not fsyncable
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_checked_json(path: str, what: str) -> Dict[str, object]:
    """One file's payload, checksum-verified; a
    :class:`~repro.errors.CheckpointError` naming ``what`` and ``path``
    on any missing/torn/corrupt condition."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError as error:
        raise CheckpointError(f"{what} not found", path) from error
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        raise CheckpointError(
            f"{what} is not readable JSON: {error}", path
        ) from error
    if not isinstance(payload, dict):
        raise CheckpointError(f"{what} is not a JSON object", path)
    recorded = payload.get("checksum")
    if recorded is not None and recorded != payload_checksum(payload):
        raise CheckpointError(f"{what} checksum mismatch", path)
    return payload


def save_pib(pib: PIB, path: str) -> None:
    """Atomically write a learner's state to ``path`` as JSON, under
    :func:`write_checked_json`'s crash-safety contract; :func:`load_pib`
    verifies the checksum and falls back to the ``.bak`` backup."""
    write_checked_json(path, pib_to_dict(pib))


def load_pib(
    graph: InferenceGraph,
    path: str,
    drift: Optional[DriftConfig] = None,
) -> PIB:
    """Restore a learner saved by :func:`save_pib` against ``graph``.

    Recovery order: ``path`` itself, then — if ``path`` is missing,
    torn, or fails its checksum — the ``path + ".bak"`` backup that
    :func:`save_pib` keeps.  Only when both are unusable does the
    :class:`~repro.errors.CheckpointError` propagate, describing both
    failures.  Older format versions (v1) upgrade transparently via
    :func:`migrate_payload`; ``drift`` is forwarded to
    :func:`pib_from_dict` for callers that want a drift-aware learner
    regardless of what the checkpoint recorded.
    """
    try:
        return pib_from_dict(
            graph, read_checked_json(path, "checkpoint"), drift
        )
    except CheckpointError as primary:
        fallback = backup_path(path)
        if not os.path.exists(fallback):
            raise
        try:
            return pib_from_dict(
                graph, read_checked_json(fallback, "checkpoint"), drift
            )
        except CheckpointError as secondary:
            raise CheckpointError(
                f"checkpoint and backup both unusable: {primary}; {secondary}",
                path,
            ) from secondary
