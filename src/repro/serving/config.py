"""Typed configuration for the session/serving API.

Until now the processor's knobs lived as loose keyword arguments on
:class:`~repro.system.SelfOptimizingQueryProcessor` and as ad-hoc
flag-parsing helpers buried in the CLI.  This module gathers them into
three small dataclasses:

* :class:`SessionConfig` — everything that shapes *learning and
  answering* (the paper's ``δ``, the Equation 6 test cadence, the
  resilience policy, checkpoints, drift handling);
* :class:`CacheConfig` — the serving layer's two-tier cache: the
  answer cache and the QSQN-style subgoal memo table, both LRU
  bounded and both disabled by default (capacity 0), because caching
  changes which queries reach the learner;
* :class:`ServingConfig` — the concurrency shape of a
  :class:`~repro.serving.server.QueryServer` (worker count; work is
  always sharded by query form, the unit that owns its PIB learner);
* :class:`AdmissionConfig` — overload protection: bounded per-form
  queues, per-tenant token-bucket quotas, load-shedding policy, and
  request deadlines.  ``None``/absent means admission control is off
  and the server accepts everything (the pre-admission behaviour).

The old processor keywords have been removed: passing one is a
:class:`TypeError`, and ``config=SessionConfig(...)`` is the only
spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, TYPE_CHECKING

from ..learning.drift import DriftConfig
from ..resilience.policy import ResiliencePolicy
from ..resilience.retry import RetryPolicy

if TYPE_CHECKING:
    from ..graphs.inference_graph import InferenceGraph
    from ..strategies.transformations import Transformation

__all__ = [
    "SessionConfig",
    "CacheConfig",
    "ServingConfig",
    "AdmissionConfig",
    "ExperienceConfig",
]

#: The load-shedding policies :class:`AdmissionConfig` accepts.
SHED_POLICIES = ("reject-newest", "reject-over-quota", "degrade-to-cached")


@dataclass(frozen=True)
class ExperienceConfig:
    """Cross-session experience store + warm-start knobs.

    Experience is *priors only*: with ``SessionConfig.experience=None``
    (the default) nothing in the session touches the store and every
    output is byte-identical to a build without the experience
    subsystem; with a config set, a new form's learner starts at its
    nearest structural neighbour's settled strategy instead of
    depth-first — the Theorem 1 per-run schedule still starts cold
    either way.  A neighbour needs a blended similarity of at least
    :data:`~repro.experience.warmstart.SIMILARITY_FLOOR` to be used.
    """

    #: JSON store location (``None``: memory-only, dies with the
    #: session — still useful for repeated forms within one session).
    path: Optional[str] = None
    #: How many nearest neighbours to consider per form.
    neighbour_k: int = 3

    def __post_init__(self) -> None:
        if self.neighbour_k < 1:
            raise ValueError("neighbour_k must be at least 1")


@dataclass
class SessionConfig:
    """Everything a query session's processor needs to know.

    The fields subsume the removed keyword arguments of
    :class:`~repro.system.SelfOptimizingQueryProcessor` of the same
    names (``delta``, ``test_every``, ..., ``experience``).
    """

    #: Per-form mistake budget (Theorem 1's ``δ``).
    delta: float = 0.05
    #: Run Equation 6 only every ``k``-th context.
    test_every: int = 1
    #: Graph-unfolding / SLD recursion bound (``None``: defaults).
    max_depth: Optional[int] = None
    #: Operator set factory (``None``: every sibling swap).
    transformations_factory: Optional[
        Callable[["InferenceGraph"], Sequence["Transformation"]]
    ] = None
    #: Retries/breakers/deadlines for the learned path (``None``: off).
    resilience: Optional[ResiliencePolicy] = None
    #: Directory for crash-safe per-form PIB checkpoints (``None``: off).
    checkpoint_dir: Optional[str] = None
    #: Checkpoint each form every N queries (and after every climb).
    checkpoint_every: int = 25
    #: Drift-aware learning configuration (``None``: stationary mode).
    drift: Optional[DriftConfig] = None
    #: Cross-session warm-start configuration (``None``: off — the
    #: byte-identical legacy path; see :class:`ExperienceConfig`).
    experience: Optional[ExperienceConfig] = None
    #: Fallback evaluation engine for forms learning does not apply to
    #: (one of :data:`repro.strategies.engines.ENGINE_NAMES`).
    engine: str = "topdown"

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.test_every < 1:
            raise ValueError("test_every must be at least 1")
        # Imported lazily: the registry lives above the serving layer.
        from ..strategies.engines import ENGINE_NAMES

        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of "
                + ", ".join(ENGINE_NAMES)
            )

    @classmethod
    def from_options(
        cls,
        *,
        delta: float = 0.05,
        test_every: int = 1,
        max_depth: Optional[int] = None,
        retries: int = 0,
        deadline: Optional[float] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 25,
        drift: bool = False,
        drift_delta: float = 0.05,
        drift_detector: str = "window",
        experience: bool = False,
        experience_path: Optional[str] = None,
        experience_neighbours: int = 3,
        engine: str = "topdown",
    ) -> "SessionConfig":
        """Build a config from scalar options (the CLI's flag set).

        This is the public home of what used to be the CLI-only
        ``_resilience_from_args`` / ``_drift_from_args`` helpers:
        ``retries``/``deadline`` turn into a
        :class:`~repro.resilience.policy.ResiliencePolicy` (either one
        being set enables the resilience layer), and the ``drift*``
        flags into a :class:`~repro.learning.drift.DriftConfig`.
        Library users get exactly the capability the shell had.
        """
        resilience = None
        if retries or deadline:
            resilience = ResiliencePolicy(
                retry=RetryPolicy(max_attempts=retries or 3),
                deadline=deadline,
            )
        drift_config = (
            DriftConfig(delta=drift_delta, detector=drift_detector)
            if drift
            else None
        )
        experience_config = None
        if experience or experience_path is not None:
            experience_config = ExperienceConfig(
                path=experience_path, neighbour_k=experience_neighbours
            )
        return cls(
            delta=delta,
            test_every=test_every,
            max_depth=max_depth,
            resilience=resilience,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            drift=drift_config,
            experience=experience_config,
            engine=engine,
        )

    def with_overrides(self, **changes) -> "SessionConfig":
        """A copy with some fields replaced (``dataclasses.replace``)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class CacheConfig:
    """The serving layer's two-tier cache bounds (0 = tier disabled).

    Both tiers key on the store's identity plus its
    :meth:`~repro.storage.interface.FactStore.version` of what the
    entry read: a fact added or removed invalidates exactly the
    entries whose read set covers it, *implicitly* — their keys simply
    stop being looked up and age out of the LRU — while every other
    entry keeps hitting.  Stores without per-key versions (SQLite,
    federated) fall back to the whole-store generation.
    """

    #: Answer cache entries, keyed by (query, version of the query's
    #: read set: its retrieval arcs' buckets, or its rule cone).
    answer_capacity: int = 0
    #: Subgoal memo entries, keyed by (probe pattern, version of the
    #: probed bucket).
    subgoal_capacity: int = 0

    def __post_init__(self) -> None:
        if self.answer_capacity < 0:
            raise ValueError("answer_capacity cannot be negative")
        if self.subgoal_capacity < 0:
            raise ValueError("subgoal_capacity cannot be negative")

    @property
    def enabled(self) -> bool:
        return self.answer_capacity > 0 or self.subgoal_capacity > 0

    @classmethod
    def default_enabled(cls) -> "CacheConfig":
        """The capacities behind the CLI's bare ``--cache`` flag."""
        return cls(answer_capacity=4096, subgoal_capacity=16384)


@dataclass(frozen=True)
class AdmissionConfig:
    """Overload protection for a :class:`~repro.serving.server.QueryServer`.

    Everything is denominated in the simulation's deterministic units —
    token buckets refill per *arrival tick* and deadlines are measured
    on the per-form virtual cost clock — so admission decisions are a
    pure function of the request sequence: equal request streams shed
    and serve identically, regardless of threads or wall time.

    The three shed policies differ only in what happens when a request
    cannot be admitted (queue full, tenant over quota, or the server is
    SHEDDING):

    * ``reject-newest`` — the incoming request is rejected;
    * ``reject-over-quota`` — queue overflow evicts the queued request
      of the *most-queued* tenant instead (protecting in-quota tenants
      from a noisy neighbour); quota violations still reject;
    * ``degrade-to-cached`` — before rejecting, try to serve a stale
      :class:`~repro.serving.cache.AnswerCache` entry (any version)
      as a *degraded* answer — availability over freshness.
    """

    #: Bounded per-form queue capacity (the backpressure bound).
    queue_capacity: int = 64
    #: Token-bucket refill per arrival tick (tokens a tenant earns each
    #: time *any* request arrives).  ``0`` disables rate limiting.  The
    #: bucket holds at most :data:`~repro.serving.admission.TENANT_BURST`.
    tenant_rate: float = 0.0
    #: What to do with the overflow (see class docstring).
    shed_policy: str = "reject-newest"
    #: Default per-request latency budget in cost units (wait + service
    #: on the form's virtual clock); ``None`` = no deadline.  Composes
    #: with the resilience layer's :class:`CostDeadline`, which bounds
    #: the *execution* alone.
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.tenant_rate < 0:
            raise ValueError("tenant_rate cannot be negative")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed_policy {self.shed_policy!r}; expected one "
                f"of {', '.join(SHED_POLICIES)}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")


@dataclass(frozen=True)
class ServingConfig:
    """Concurrency shape of a :class:`~repro.serving.server.QueryServer`.

    Work is sharded by query form: each form owns its PIB learner,
    strategy, breakers, and drift epoch, so forms are independent and
    embarrassingly parallel, while *within* a form queries run
    serially under the form's lock — preserving exactly the paper's
    sequential Δ̃ accumulation and Equation 6 test order.  With
    ``workers == 1`` the server never touches a thread pool and is
    byte-identical to the plain sequential processor loop.

    ``admission`` (``None`` by default — admission control off, the
    byte-identical legacy path) bounds what a server will accept under
    overload; see :class:`AdmissionConfig`.
    """

    #: Worker threads for batch execution (1 = strictly sequential).
    workers: int = 1
    #: Overload protection (``None``: accept everything, legacy path).
    admission: Optional[AdmissionConfig] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
