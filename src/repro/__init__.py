"""repro — a full reproduction of Greiner, *Learning Efficient Query
Processing Strategies* (PODS 1992).

The package is layered bottom-up:

* :mod:`repro.datalog` — the knowledge-base substrate: facts, rules,
  unification, a top-down satisficing SLD engine, and a bottom-up
  semi-naive oracle;
* :mod:`repro.graphs` — inference graphs (Section 2.1), contexts and
  their arc-blocking equivalence classes, graph compilation from rule
  bases, and the and-or hypergraph extension (Note 4);
* :mod:`repro.strategies` — strategies, satisficing execution and the
  cost ``c(Θ, I)``, expected cost ``C[Θ]``, transformations, and the
  adaptive query processor ``QP^A``;
* :mod:`repro.optimal` — the ``Υ`` optimizers: exact ratio-merge
  ``Υ_AOT`` for trees, brute force, a polynomial approximation, and
  the [Smi89] fact-count heuristic baseline;
* :mod:`repro.learning` — the paper's contribution: PIB₁, the anytime
  PIB (Theorem 1), PALO, and PAO (Theorems 2–3), with the Chernoff
  machinery and Lemma 1's sensitivity analysis;
* :mod:`repro.workloads` — context distributions and the paper's
  concrete scenarios (Figure 1's university KB, Figure 2's ``G_B``,
  segmented-scan and negation-as-failure applications);
* :mod:`repro.serving` — the deployment surface: query sessions,
  form-sharded parallel batch serving, and the two-tier result cache;
* :mod:`repro.experience` — the cross-session experience store:
  structural form fingerprints, settled-outcome records, and the
  priors-only warm-start that seeds a new learner's Θ₀ from its
  nearest structural neighbours;
* :mod:`repro.bench` — the experiment harness behind ``benchmarks/``.

Quickstart (serving)::

    import repro

    with repro.open_session("kb.dl", "facts.dl") as session:
        answer = session.query("instructor(manolis)?")
        report = session.learn_from_stream("stream.txt")

Quickstart (learning internals)::

    from repro.workloads import g_a, theta_1, intended_probabilities
    from repro.workloads import IndependentDistribution
    from repro.learning import PIB
    import random

    graph = g_a()
    dist = IndependentDistribution(graph, intended_probabilities())
    learner = PIB(graph, delta=0.05, initial_strategy=theta_1(graph))
    learner.run(dist.sampler(random.Random(0)), contexts=500)
    print(learner.strategy)          # climbs to Θ₂ = ⟨Rg Dg Rp Dp⟩
"""

from . import (
    datalog,
    graphs,
    observability,
    strategies,
    optimal,
    learning,
    resilience,
    workloads,
)
from .observability import (
    MetricsRegistry,
    NULL_RECORDER,
    Recorder,
    Tracer,
)
from .system import SelfOptimizingQueryProcessor, SystemAnswer
from . import experience
from .experience import (
    ExperienceRecord,
    ExperienceStore,
    FormProfile,
    WarmStart,
    form_fingerprint,
    form_profile,
    warm_start,
)
from . import serving
from .serving import (
    AdmissionConfig,
    CacheConfig,
    ExperienceConfig,
    QueryServer,
    QuerySession,
    Request,
    RequestOutcome,
    ServerHealth,
    ServingConfig,
    SessionConfig,
    StreamReport,
    open_session,
)
from . import storage
from .storage import (
    COMPLETE,
    Completeness,
    FactStore,
    FederatedStore,
    ShardSpec,
    SQLiteFactStore,
)
from .persistence import load_pib, pib_from_dict, pib_to_dict, save_pib
from .resilience import (
    FaultPlan,
    FaultSpec,
    FlakyContext,
    FlakyDatabase,
    ResiliencePolicy,
    RetryPolicy,
)
from .errors import (
    CheckpointError,
    DatalogError,
    DistributionError,
    EvaluationError,
    GraphError,
    IllegalStrategyError,
    LearningError,
    ParseError,
    QueryDeadlineExceeded,
    RecursionLimitError,
    ReproError,
    ResilienceError,
    RetrievalFaultError,
    SampleBudgetExceeded,
    StrategyError,
    StratificationError,
)

#: Source of truth for the released version is ``pyproject.toml``;
#: installed builds read it back through package metadata so the two
#: can never drift.  The literal below is only the fallback for
#: source-tree runs (``PYTHONPATH=src``) where no distribution
#: metadata exists — ``tests/test_version.py`` asserts it matches
#: ``pyproject.toml``.
_FALLBACK_VERSION = "1.0.0"


def _resolve_version() -> str:
    try:
        from importlib import metadata
    except ImportError:  # pragma: no cover - Python < 3.8 only
        return _FALLBACK_VERSION
    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        return _FALLBACK_VERSION


__version__ = _resolve_version()

__all__ = [
    "SelfOptimizingQueryProcessor",
    "SystemAnswer",
    "AdmissionConfig",
    "CacheConfig",
    "ExperienceConfig",
    "ExperienceRecord",
    "ExperienceStore",
    "FormProfile",
    "WarmStart",
    "experience",
    "form_fingerprint",
    "form_profile",
    "warm_start",
    "QueryServer",
    "QuerySession",
    "Request",
    "RequestOutcome",
    "ServerHealth",
    "ServingConfig",
    "SessionConfig",
    "StreamReport",
    "open_session",
    "serving",
    "MetricsRegistry",
    "NULL_RECORDER",
    "Recorder",
    "Tracer",
    "observability",
    "load_pib",
    "pib_from_dict",
    "pib_to_dict",
    "save_pib",
    "datalog",
    "graphs",
    "strategies",
    "optimal",
    "learning",
    "resilience",
    "workloads",
    "storage",
    "COMPLETE",
    "Completeness",
    "FactStore",
    "FederatedStore",
    "ShardSpec",
    "SQLiteFactStore",
    "FaultPlan",
    "FaultSpec",
    "FlakyContext",
    "FlakyDatabase",
    "ResiliencePolicy",
    "RetryPolicy",
    "CheckpointError",
    "DatalogError",
    "DistributionError",
    "EvaluationError",
    "GraphError",
    "IllegalStrategyError",
    "LearningError",
    "ParseError",
    "QueryDeadlineExceeded",
    "RecursionLimitError",
    "ReproError",
    "ResilienceError",
    "RetrievalFaultError",
    "SampleBudgetExceeded",
    "StrategyError",
    "StratificationError",
    "__version__",
]
