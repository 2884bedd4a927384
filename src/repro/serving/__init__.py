"""The serving layer: sessions, batched parallel execution, caching.

Public surface:

* :func:`~repro.serving.session.open_session` /
  :class:`~repro.serving.session.QuerySession` — the unified entry
  point (query, batches, learn-from-stream, report, checkpoint);
* :class:`~repro.serving.server.QueryServer` — form-sharded worker
  pool with the two-tier cache;
* :class:`~repro.serving.config.SessionConfig` /
  :class:`~repro.serving.config.CacheConfig` /
  :class:`~repro.serving.config.ServingConfig` /
  :class:`~repro.serving.config.AdmissionConfig` /
  :class:`~repro.serving.config.ExperienceConfig` — typed configuration;
* :class:`~repro.serving.cache.AnswerCache` /
  :class:`~repro.serving.cache.SubgoalMemo` — the cache tiers;
* :class:`~repro.serving.admission.Request` /
  :class:`~repro.serving.admission.RequestOutcome` /
  :class:`~repro.serving.admission.ServerHealth` — the admission
  control surface (bounded queues, quotas, shedding, health).

Every name loads on first use (:mod:`repro._lazy`), which also keeps
the import graph acyclic: ``server``/``session`` import
:mod:`repro.system`, which itself uses this package's config module.
"""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".admission": ("Request", "RequestOutcome", "ServerHealth"),
    ".cache": ("AnswerCache", "CacheStats", "SubgoalMemo"),
    ".config": ("AdmissionConfig", "CacheConfig", "ExperienceConfig",
                "ServingConfig", "SessionConfig"),
    ".server": ("QueryServer",),
    ".session": ("QuerySession", "StreamReport", "open_session"),
})
