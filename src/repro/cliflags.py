"""The shared argparse ↔ typed-config bridge.

Every CLI flag family used to be parsed by a hand-rolled
``_<family>_from_args`` helper inside ``cli.py``; each one is now a
declarative :class:`FlagAdapter`: the flag declarations and the
builder that folds a parsed namespace into the family's typed config
live together, and every subcommand builds its configs the same way —
``ADAPTER.install(parser)`` at parser-construction time,
``ADAPTER.build(args)`` at dispatch time.

An adapter's builder returns the family's config dataclass (or
``None`` when the family's flags are all at their "off" defaults, for
families whose absence means a byte-identical legacy path).  Builders
contain no policy of their own — validation lives in the config
dataclasses' ``__post_init__``.  The one rule an adapter keeps is
which switch a sub-flag needs: ``--drift-delta`` means nothing without
``--drift``, so :meth:`FlagAdapter.check` refuses it rather than drop
it without a word.
"""

from __future__ import annotations

import argparse
from importlib import import_module
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from .serving.config import (
    SHED_POLICIES,
    AdmissionConfig,
    CacheConfig,
    ExperienceConfig,
    SessionConfig,
)
from .storage.config import STORE_BACKENDS, StoreConfig
from .strategies.engines import ENGINE_NAMES

__all__ = [
    "FlagAdapter",
    "ADMISSION_FLAGS",
    "CACHE_FLAGS",
    "EXPERIENCE_FLAGS",
    "SESSION_FLAGS",
    "STORE_FLAGS",
]


class FlagAdapter:
    """One flag family: declarations plus the namespace→config fold.

    ``flags`` is a sequence of ``(flag, add_argument_kwargs)`` pairs;
    ``build`` takes the parsed :class:`argparse.Namespace` and returns
    the family's typed config.  Missing attributes (an adapter whose
    flags were never installed on this subcommand) read as each flag's
    declared ``default``, so a builder can be shared across
    subcommands that install different subsets.  ``requires`` maps a
    sub-flag to the switches that turn its family on; given without
    any of them, the sub-flag is an error (:meth:`check`).
    """

    def __init__(
        self,
        name: str,
        flags: Sequence[Tuple[str, Dict[str, Any]]],
        build: Callable[["FlagAdapter", argparse.Namespace], Any],
        requires: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.name = name
        self.flags = tuple((flag, dict(kwargs)) for flag, kwargs in flags)
        self._build = build
        self.requires = dict(requires or {})
        self._defaults = {
            self.dest(flag): kwargs.get(
                "default", False if kwargs.get("action") else None
            )
            for flag, kwargs in self.flags
        }

    @staticmethod
    def dest(flag: str) -> str:
        """argparse's attribute name for a ``--flag-name``."""
        return flag.lstrip("-").replace("-", "_")

    def install(self, parser: argparse.ArgumentParser) -> None:
        """Declare every flag of the family on ``parser``."""
        for flag, kwargs in self.flags:
            if flag in self.requires:
                kwargs = dict(kwargs, action=_NoteGiven)
            parser.add_argument(flag, **kwargs)

    def check(self, args: argparse.Namespace) -> None:
        """Refuse a sub-flag given without any switch of its family,
        before anything runs (the CLI reports the ``ValueError`` and
        exits 2)."""
        given = getattr(args, _GIVEN, ())
        for flag, switches in self.requires.items():
            if self.dest(flag) in given and not any(
                self.get(args, switch) for switch in switches
            ):
                raise ValueError(f"{flag} needs {' or '.join(switches)}")

    def get(self, args: argparse.Namespace, flag: str) -> Any:
        """The parsed value of one flag (its default when the flag was
        not installed on this subcommand's parser)."""
        return getattr(args, self.dest(flag), self._defaults[self.dest(flag)])

    def build(self, args: argparse.Namespace) -> Any:
        """Fold the namespace into the family's typed config."""
        return self._build(self, args)


#: The namespace attribute that collects the sub-flags given.
_GIVEN = "_given_sub_flags"


class _NoteGiven(argparse.Action):
    """argparse's ``store``, noting the flag as given: its value alone
    cannot tell a given default from an omitted flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, _GIVEN,
                getattr(namespace, _GIVEN, frozenset()) | {self.dest})


class _LazyChoices:
    """An argparse ``choices`` read from the keys of ``module``'s table
    ``name``, plus ``extra``, when they are read: when a given value is
    checked, when an error names them and when ``--help`` lists them.
    Declaring the flag imports nothing, provided it has a ``metavar``:
    without one argparse formats the choices as the flag is declared."""

    def __init__(self, module: str, name: str, *extra: str) -> None:
        self._table = (module, name)
        self._extra = extra

    def _choices(self) -> Tuple[str, ...]:
        module, name = self._table
        return (*getattr(import_module(module), name), *self._extra)

    def __contains__(self, value: object) -> bool:
        return value in self._choices()

    def __iter__(self) -> Iterator[str]:
        return iter(self._choices())


# ----------------------------------------------------------------------
# Experience (cross-session warm-start)
# ----------------------------------------------------------------------


def _build_experience(
    adapter: FlagAdapter, args: argparse.Namespace
) -> Optional[ExperienceConfig]:
    enabled = adapter.get(args, "--experience")
    path = adapter.get(args, "--experience-path")
    if not enabled and path is None:
        return None
    return ExperienceConfig(
        path=path, neighbour_k=adapter.get(args, "--experience-neighbours")
    )


EXPERIENCE_FLAGS = FlagAdapter(
    "experience",
    [
        ("--experience", dict(
            action="store_true",
            help="warm-start each form's learner from the cross-session "
                 "experience store (priors only; Theorem 1 untouched)",
        )),
        ("--experience-path", dict(
            default=None,
            help="JSON experience-store file (implies --experience; "
                 "omit for a memory-only store)",
        )),
        ("--experience-neighbours", dict(
            type=int, default=3,
            help="structural neighbours considered per form "
                 "(needs --experience or --experience-path)",
        )),
    ],
    _build_experience,
    requires={"--experience-neighbours": ("--experience",
                                          "--experience-path")},
)


# ----------------------------------------------------------------------
# Session (learning knobs)
# ----------------------------------------------------------------------


def _build_session(
    adapter: FlagAdapter, args: argparse.Namespace
) -> SessionConfig:
    config = SessionConfig.from_options(
        delta=adapter.get(args, "--delta"),
        max_depth=adapter.get(args, "--max-depth"),
        retries=adapter.get(args, "--retries"),
        deadline=adapter.get(args, "--deadline"),
        checkpoint_dir=adapter.get(args, "--checkpoint-dir"),
        checkpoint_every=adapter.get(args, "--checkpoint-every"),
        drift=adapter.get(args, "--drift"),
        drift_delta=adapter.get(args, "--drift-delta"),
        drift_detector=adapter.get(args, "--drift-detector"),
        engine=adapter.get(args, "--engine"),
    )
    experience = EXPERIENCE_FLAGS.build(args)
    if experience is not None:
        config = config.with_overrides(experience=experience)
    return config


SESSION_FLAGS = FlagAdapter(
    "session",
    [
        ("--delta", dict(
            type=float, default=0.05,
            help="PIB mistake budget (Theorem 1)",
        )),
        ("--max-depth", dict(type=int, default=None)),
        ("--engine", dict(
            default="topdown", choices=ENGINE_NAMES,
            help="fallback evaluation engine for unlearnable forms "
                 "(topdown SLD, bottomup fixpoint, or qsqn nets)",
        )),
        ("--retries", dict(
            type=int, default=0,
            help="retry faulted retrievals up to N attempts "
                 "(enables the resilience layer)",
        )),
        ("--deadline", dict(
            type=float, default=None,
            help="per-query cost budget; over-budget queries degrade "
                 "to the SLD fallback",
        )),
        ("--checkpoint-dir", dict(
            default=None,
            help="directory for crash-safe per-form PIB checkpoints "
                 "(resumes automatically)",
        )),
        ("--checkpoint-every", dict(
            type=int, default=25,
            help="checkpoint each form every N queries "
                 "(needs --checkpoint-dir)",
        )),
        ("--drift", dict(
            action="store_true",
            help="drift-aware learning: detect distribution shifts and "
                 "restart the guarantee per epoch",
        )),
        ("--drift-delta", dict(
            type=float, default=0.05,
            help="detector false-alarm budget (needs --drift)",
        )),
        ("--drift-detector", dict(
            default="window", metavar="KIND",
            choices=_LazyChoices("repro.learning.drift", "_DETECTORS"),
            help="change detector: %(choices)s (default: %(default)s; "
                 "needs --drift)",
        )),
    ],
    _build_session,
    requires={"--checkpoint-every": ("--checkpoint-dir",),
              "--drift-delta": ("--drift",),
              "--drift-detector": ("--drift",)},
)


# ----------------------------------------------------------------------
# Cache (two-tier serving cache)
# ----------------------------------------------------------------------


def _build_cache(
    adapter: FlagAdapter, args: argparse.Namespace
) -> CacheConfig:
    base = (
        CacheConfig.default_enabled()
        if adapter.get(args, "--cache")
        else CacheConfig()
    )
    answers = adapter.get(args, "--cache-answers")
    subgoals = adapter.get(args, "--cache-subgoals")
    return CacheConfig(
        answer_capacity=(
            answers if answers is not None else base.answer_capacity
        ),
        subgoal_capacity=(
            subgoals if subgoals is not None else base.subgoal_capacity
        ),
    )


CACHE_FLAGS = FlagAdapter(
    "cache",
    [
        ("--cache", dict(
            action="store_true",
            help="enable both cache tiers at default capacities",
        )),
        ("--cache-answers", dict(
            type=int, default=None,
            help="ground-answer cache capacity (0 disables)",
        )),
        ("--cache-subgoals", dict(
            type=int, default=None,
            help="subgoal memo capacity (0 disables); the memo fronts "
                 "only stores whose probes bill latency "
                 "(--store federated)",
        )),
    ],
    _build_cache,
)


# ----------------------------------------------------------------------
# Admission (overload protection)
# ----------------------------------------------------------------------


def _build_admission(
    adapter: FlagAdapter, args: argparse.Namespace
) -> Optional[AdmissionConfig]:
    queue_cap = adapter.get(args, "--queue-cap")
    tenants = adapter.get(args, "--tenants")
    quota = adapter.get(args, "--quota")
    deadline = adapter.get(args, "--request-deadline")
    wanted = (
        queue_cap is not None or tenants > 0 or quota > 0
        or deadline is not None
    )
    if not wanted:
        return None
    return AdmissionConfig(
        queue_capacity=queue_cap if queue_cap is not None else 64,
        tenant_rate=quota,
        shed_policy=adapter.get(args, "--shed-policy"),
        deadline=deadline,
    )


ADMISSION_FLAGS = FlagAdapter(
    "admission",
    [
        ("--tenants", dict(
            type=int, default=0,
            help="model N synthetic tenants (round-robin over the "
                 "stream); implies admission control",
        )),
        ("--quota", dict(
            type=float, default=0.0,
            help="per-tenant token-bucket rate "
                 "(tokens per arrival; 0 = unlimited)",
        )),
        ("--queue-cap", dict(
            type=int, default=None,
            help="per-form admission queue capacity "
                 "(setting it enables admission control)",
        )),
        ("--shed-policy", dict(
            default="reject-newest", choices=SHED_POLICIES,
            help="who loses under overload",
        )),
        ("--request-deadline", dict(
            type=float, default=None,
            help="per-request latency budget in cost units "
                 "(queue wait + service on the form clock)",
        )),
    ],
    _build_admission,
)


# ----------------------------------------------------------------------
# Store (fact-storage backend)
# ----------------------------------------------------------------------


def _build_store(
    adapter: FlagAdapter, args: argparse.Namespace
) -> StoreConfig:
    return StoreConfig(
        backend=adapter.get(args, "--store"),
        shards=adapter.get(args, "--store-shards"),
        seed=adapter.get(args, "--store-seed"),
        fault_rate=adapter.get(args, "--store-fault-rate"),
        timeout_rate=adapter.get(args, "--store-timeout-rate"),
        replicas=adapter.get(args, "--store-replicas"),
    )


STORE_FLAGS = FlagAdapter(
    "store",
    [
        ("--store", dict(
            default="memory", choices=STORE_BACKENDS,
            help="fact-storage backend for --facts",
        )),
        ("--store-shards", dict(
            type=int, default=3,
            help="shard count for --store federated",
        )),
        ("--store-seed", dict(
            type=int, default=0,
            help="fault-plan seed for --store federated",
        )),
        ("--store-fault-rate", dict(
            type=float, default=0.0,
            help="per-shard fault rate for --store federated",
        )),
        ("--store-timeout-rate", dict(
            type=float, default=0.0,
            help="per-shard timeout rate for --store federated",
        )),
        ("--store-replicas", dict(
            action="store_true",
            help="give every federated shard a clean replica for "
                 "hedged reads",
        )),
    ],
    _build_store,
)
