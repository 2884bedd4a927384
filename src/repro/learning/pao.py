"""PAO: probably approximately optimal strategies (Section 4).

PAO's pipeline has three stages:

1. **Budgeting** — compute, per experiment, how many samples suffice:
   Theorem 2's ``m(d_i)`` (Equation 7) when every experiment is a
   retrieval the adaptive processor can always reach, or Theorem 3's
   attempts-to-reach budget ``m'(e_i)`` (Equation 8) when arcs may be
   unreachable in some contexts (the *aiming* variant).
2. **Sampling** — run the adaptive query processor ``QP^A``
   (Section 4.1) over oracle-drawn contexts until every counter is
   satisfied, producing the frequency vector ``p̂``.
3. **Optimizing** — hand ``⟨G, p̂⟩`` to ``Υ_AOT`` and return
   ``Θ_pao = Υ_AOT(G, p̂)``.

Theorems 2 and 3 then guarantee
``Pr[C[Θ_pao] ≤ C[Θ_opt] + ε] ≥ 1 − δ``; the benchmark
``benchmarks/bench_theorem2_pao.py`` measures exactly that frequency.

The Equation 7/8 budgets are worst-case and grow as ``(n·F¬/ε)²``; the
``sample_scale`` knob lets benchmarks and applications trade guarantee
slack for wall-clock (documented deviation — scaling below 1 voids the
theorem but is useful for exploring how conservative the bound is,
which ``bench_theorem2_pao.py`` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..errors import LearningError, SampleBudgetExceeded
from ..graphs.contexts import Context
from ..graphs.inference_graph import InferenceGraph
from ..observability.recorder import NULL_RECORDER, Recorder
from ..strategies.execution import execute
from ..strategies.strategy import Strategy
from .chernoff import aiming_sample_size, pao_sample_size

if TYPE_CHECKING:
    from ..strategies.adaptive import AdaptiveQueryProcessor

__all__ = ["SEED_SAMPLES", "PAOResult", "sample_requirements", "seed_sampler",
           "pao"]

#: Samples per experiment that seed a newly compiled form's learner
#: (:func:`seed_sampler`): 32 reaches, or 32 attempts-to-reach where
#: reductions can block.
SEED_SAMPLES = 32


@dataclass
class PAOResult:
    """Everything the PAO run produced.

    ``estimates`` is the frequency vector ``p̂`` handed to ``Υ``;
    ``requirements`` the per-experiment budgets; ``contexts_used`` how
    many oracle draws the adaptive processor consumed; ``reached`` and
    ``attempts`` the per-experiment counts of Theorem 3 (``k(e_i)`` and
    the attempts-to-reach).
    """

    strategy: Strategy
    estimates: Dict[str, float]
    requirements: Dict[str, int]
    contexts_used: int
    reached: Dict[str, int]
    attempts: Dict[str, int]


def sample_requirements(
    graph: InferenceGraph,
    epsilon: float,
    delta: float,
    aiming: bool = False,
    sample_scale: float = 1.0,
) -> Dict[str, int]:
    """Per-experiment sample budgets: Equation 7, or Equation 8 when
    ``aiming``."""
    if epsilon <= 0:
        raise LearningError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise LearningError(f"delta must be in (0, 1), got {delta}")
    if sample_scale <= 0:
        raise LearningError(f"sample_scale must be positive, got {sample_scale}")
    experiments = graph.experiments()
    size = aiming_sample_size if aiming else pao_sample_size
    budgets: Dict[str, int] = {}
    for arc in experiments:
        raw = size(len(experiments), graph.f_not(arc), epsilon, delta)
        budgets[arc.name] = math.ceil(raw * sample_scale)
    return budgets


def _adaptive(
    graph: InferenceGraph, requirements: Dict[str, int], aiming: bool
) -> "AdaptiveQueryProcessor":
    """``QP^A`` counting attempts-to-reach when ``aiming`` (Theorem 3),
    else reaches (Theorem 2)."""
    # Late: every session imports this module with PIB, and only PAO
    # and a seeding learner run QP^A.
    from ..strategies.adaptive import AdaptiveQueryProcessor

    return AdaptiveQueryProcessor(
        graph, requirements, count="attempts" if aiming else "reached"
    )


def seed_sampler(graph: InferenceGraph) -> "AdaptiveQueryProcessor":
    """``QP^A`` wanting :data:`SEED_SAMPLES` of every experiment: the
    sampling phase that seeds a PIB learner.

    Feed it runs of :meth:`~AdaptiveQueryProcessor.next_strategy` until
    it is :meth:`~AdaptiveQueryProcessor.done`; then
    ``upsilon_aot(graph, sampler.frequency_estimates())`` is the
    learner's ``Θ₀``.  On a simple disjunctive graph every aimed run
    reaches its target, so the counters count reaches; where
    reductions can block they count Theorem 3's attempts-to-reach.

    The seed is a heuristic: Theorems 2–3 bound ``Θ₀``'s cost only at
    the Equation 7/8 budgets, which are orders of magnitude above
    ``SEED_SAMPLES``.  Theorem 1 holds for the climbs PIB takes from
    any ``Θ₀``.
    """
    return _adaptive(
        graph,
        {arc.name: SEED_SAMPLES for arc in graph.experiments()},
        aiming=not graph.is_simple_disjunctive(),
    )


def pao(
    graph: InferenceGraph,
    epsilon: float,
    delta: float,
    oracle: Callable[[], Context],
    aiming: bool = False,
    upsilon: Optional[Callable[[InferenceGraph, Dict[str, float]], Strategy]] = None,
    max_contexts: Optional[int] = None,
    sample_scale: float = 1.0,
    recorder: Recorder = NULL_RECORDER,
) -> PAOResult:
    """Run the full PAO pipeline and return ``Θ_pao`` with its evidence.

    ``oracle`` draws contexts from the stationary distribution (for a
    deployed system: the stream of user queries).  The plain variant
    (Theorem 2) requires a graph whose only experiments are retrievals
    — when reductions can block, some retrievals may be unreachable and
    the fixed per-retrieval quota unattainable, which is precisely why
    Theorem 3 exists; pass ``aiming=True`` for such graphs.

    ``max_contexts`` bounds the sampling phase;
    :class:`SampleBudgetExceeded` reports the outstanding counters when
    the bound is hit.
    """
    if not aiming and not graph.is_simple_disjunctive():
        raise LearningError(
            "plain PAO (Theorem 2) requires every experiment to be a "
            "retrieval; use aiming=True (Theorem 3) for graphs with "
            "blockable reductions"
        )
    if upsilon is None:
        from ..optimal.upsilon import upsilon_aot as upsilon  # late: avoid cycle
    requirements = sample_requirements(
        graph, epsilon, delta, aiming=aiming, sample_scale=sample_scale
    )
    if recorder.enabled:
        recorder.pao_budget(requirements)
    processor = _adaptive(graph, requirements, aiming)
    while not processor.done():
        if max_contexts is not None and processor.contexts_processed >= max_contexts:
            outstanding = {
                name: count
                for name, count in processor.counters().items()
                if count > 0
            }
            raise SampleBudgetExceeded(
                f"PAO sampling exceeded {max_contexts} contexts with "
                f"counters outstanding: {outstanding}"
            )
        result = execute(processor.next_strategy(), oracle())
        processor.record(result)

    estimates = processor.frequency_estimates(fallback=0.5)
    if recorder.enabled:
        recorder.pao_complete(processor.contexts_processed, estimates)
    strategy = upsilon(graph, estimates)
    return PAOResult(
        strategy=strategy,
        estimates=estimates,
        requirements=requirements,
        contexts_used=processor.contexts_processed,
        reached=dict(processor.reached),
        attempts=dict(processor.attempts),
    )
