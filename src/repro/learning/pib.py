"""The anytime PIB algorithm (Figure 3, Theorem 1).

PIB monitors a query processor as it solves contexts drawn from the
(unknown, stationary) distribution.  For every neighbour
``Θ' ∈ T(Θ_j)`` of the current strategy it accumulates the
conservative under-estimates ``Δ̃[Θ_j, Θ', S]``; after each context (or
each batch of ``test_every`` contexts) it applies Equation 6's
sequential Chernoff test,

    Δ̃[Θ_j, Θ', S] ≥ Λ[Θ_j, Θ'] · sqrt(|S|/2 · ln(i²π²/(6δ))),

where ``i`` counts every comparison ever made, so that the union over
all neighbours *and* all re-tests of the false-positive probability
telescopes below ``δ`` (Theorem 1: the chance that *any* climb ever
taken is not a true improvement is at most ``δ``).

When a neighbour passes, PIB climbs — the query processor switches
strategies mid-stream — and statistics restart for the new
neighbourhood (Figure 3's ``L1``).  The process is *anytime*: it never
needs to stop, and the longer it runs the better (with probability
``1 − δ``) its current strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import LearningError
from ..graphs.contexts import Context
from ..graphs.inference_graph import InferenceGraph
from ..observability.recorder import NULL_RECORDER, Recorder
from ..strategies.execution import ExecutionResult, execute
from ..strategies.strategy import Strategy
from ..strategies.transformations import (
    Transformation,
    all_sibling_swaps,
    neighbours,
)
from .chernoff import pib_sequential_thresholds
from .pao import seed_sampler
from .statistics import DeltaAccumulator, RetrievalStatistics

__all__ = ["ClimbRecord", "PIB"]

#: Test-only fault injection: when True, :meth:`PIB._maybe_climb`
#: accepts a neighbour exactly when its evidence FAILS Equation 6 (the
#: inequality is flipped) — the canonical "climbs on insufficient
#: evidence" bug class Theorem 1 exists to prevent.  The verify
#: subsystem's PIB contract oracle must catch this
#: (``tests/test_verify_oracles.py``); never set it outside tests.
FLIP_EQ6_FOR_TESTING = False


@dataclass(frozen=True)
class ClimbRecord:
    """One hill-climbing step taken by PIB."""

    step: int                  # 1 for Θ₀→Θ₁, 2 for Θ₁→Θ₂, …
    context_number: int        # how many contexts had been processed
    transformation: str        # the operator that fired
    samples: int               # |S| backing the decision
    estimated_gain: float      # Δ̃[Θ_j, Θ_{j+1}, S] at the climb
    threshold: float           # Equation 6's right side at the climb
    from_arcs: tuple
    to_arcs: tuple


class PIB:
    """Anytime strategy improvement by probabilistic hill-climbing.

    Parameters
    ----------
    graph:
        The inference graph being searched.
    delta:
        Overall mistake budget: Theorem 1 bounds the probability of
        *ever* climbing to a worse strategy by ``delta``.
    initial_strategy:
        Starting point ``Θ₀`` (default: depth-first left-to-right).
    seeded:
        Take ``Θ₀`` from a PAO seed instead: the first runs are the
        adaptive processor ``QP^A``'s (:attr:`strategy` is its aimed
        strategy, and :meth:`record` counts its samples), until every
        experiment has :data:`~repro.learning.pao.SEED_SAMPLES`
        samples; then ``Θ₀ = Υ_AOT(G, p̂)``, and PIB starts with cold
        Δ̃ accumulators and a fresh δ-schedule.  A heuristic seed (see
        :func:`~repro.learning.pao.seed_sampler`); Theorem 1 covers
        the climbs from any ``Θ₀``.
    transformations:
        The operator set ``T`` (default: every sibling swap).
    test_every:
        Run Equation 6 after every ``k``-th context only; Theorem 1 is
        insensitive to the test frequency (Section 3.2's first closing
        comment).
    recorder:
        Observability hook (null by default): receives one
        ``learner_sample`` event per monitored run (with the Δ̃ each
        neighbour accumulated), one ``margin`` event per Equation 6
        evaluation, and one ``climb`` event per strategy switch; a
        seeded learner's ``pao_budget`` and ``pao_complete`` events
        bracket its seed, whose runs emit no ``learner_sample``.
        Recording never feeds back into decisions.
    """

    def __init__(
        self,
        graph: InferenceGraph,
        delta: float = 0.05,
        initial_strategy: Optional[Strategy] = None,
        transformations: Optional[Sequence[Transformation]] = None,
        test_every: int = 1,
        recorder: Recorder = NULL_RECORDER,
        seeded: bool = False,
    ):
        if not 0.0 < delta < 1.0:
            raise LearningError(f"delta must be in (0, 1), got {delta}")
        if test_every < 1:
            raise LearningError("test_every must be at least 1")
        if seeded and initial_strategy is not None:
            raise LearningError("a seeded learner takes its Θ₀ from the seed")
        self.graph = graph
        self.delta = delta
        self.test_every = test_every
        self.recorder = recorder
        self.transformations: List[Transformation] = list(
            transformations if transformations is not None
            else all_sibling_swaps(graph)
        )
        #: Figure 3's ``i``: total number of candidate comparisons made.
        self.total_tests = 0
        #: Contexts processed over the whole run (across climbs).
        self.contexts_processed = 0
        self.history: List[ClimbRecord] = []
        #: The light per-retrieval counters of Section 5.1 (kept for
        #: inspection and for seeding PAO-style estimates).
        self.retrieval_statistics = RetrievalStatistics(graph)
        self._accumulators: List[DeltaAccumulator] = []
        self._since_last_test = 0
        #: ``QP^A`` while the seed samples (``None`` otherwise).
        self.sampler = None
        #: The finished seed's ``p̂`` and the runs it took.
        self.seed_estimates: Optional[Dict[str, float]] = None
        self.seed_contexts = 0
        if seeded:
            self.sampler = seed_sampler(graph)
            self.strategy = self.sampler.next_strategy()
            if recorder.enabled:
                recorder.pao_budget(self.sampler.counters())
        else:
            self.strategy = initial_strategy or Strategy.depth_first(graph)
            self._rebuild_neighbourhood()

    def _rebuild_neighbourhood(self) -> None:
        """Figure 3's ``L1``: fresh sample set for the current strategy."""
        self._accumulators = [
            DeltaAccumulator(
                transformation,
                candidate,
                transformation.chernoff_range(self.graph),
            )
            for transformation, candidate in neighbours(
                self.strategy, self.transformations
            )
        ]
        self._since_last_test = 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def process(self, context: Context) -> ExecutionResult:
        """Answer one context with the current strategy; maybe climb.

        This is the unobtrusive monitoring loop: the caller gets the
        execution result (its answer and cost) exactly as if no learner
        were attached.
        """
        result = execute(self.strategy, context, recorder=self.recorder)
        self.record(result)
        return result

    @property
    def seeding(self) -> bool:
        """Whether the runs are still the seed's (``QP^A``'s)."""
        return self.sampler is not None

    def record(self, result: ExecutionResult) -> None:
        """Learn from an externally executed run of the current strategy.

        This is :meth:`process` minus the execution — the hook the
        resilient execution layer uses: it runs the strategy itself
        (through retries, breakers, and deadlines) and hands PIB the
        *settled* :class:`ExecutionResult`, so the Δ̃ accumulators only
        ever see the stationary context distribution.  The result must
        come from a run of ``self.strategy``; feeding a stale result
        recorded before a climb would corrupt the accumulators.  While
        the learner is :attr:`seeding`, the run counts toward the seed
        only, and only if it is not
        :attr:`~repro.strategies.execution.ExecutionResult.degraded`:
        an arc that never settled is no sample of its experiment.
        """
        if result.strategy is not self.strategy and tuple(
            result.strategy.arc_names()
        ) != tuple(self.strategy.arc_names()):
            raise LearningError(
                "recorded result was not produced by the current strategy"
            )
        if self.sampler is not None:
            if not result.degraded:
                self._sample(result)
            return
        self.contexts_processed += 1
        self.retrieval_statistics.record(result)
        if self.recorder.enabled:
            deltas = {
                accumulator.transformation.name: accumulator.update(result)
                for accumulator in self._accumulators
            }
            self.recorder.learner_sample(
                self.contexts_processed, result.cost, deltas
            )
        else:
            for accumulator in self._accumulators:
                accumulator.update(result)
        self.total_tests += len(self._accumulators)
        self._since_last_test += 1
        if self._accumulators and self._since_last_test >= self.test_every:
            self._since_last_test = 0
            self._maybe_climb()

    def _sample(self, result: ExecutionResult) -> None:
        """Count one run toward the seed; once every experiment has its
        samples, start PIB at ``Θ₀ = Υ_AOT(G, p̂)``."""
        sampler = self.sampler
        sampler.record(result)
        if not sampler.done():
            self.strategy = sampler.next_strategy()
            return
        from ..optimal.upsilon import upsilon_aot  # late: seeded learners only

        self.sampler = None
        self.seed_contexts = sampler.contexts_processed
        self.seed_estimates = sampler.frequency_estimates()
        self.strategy = upsilon_aot(self.graph, self.seed_estimates)
        self._rebuild_neighbourhood()
        if self.recorder.enabled:
            self.recorder.pao_complete(self.seed_contexts, self.seed_estimates)

    def run(
        self,
        oracle: Callable[[], Context],
        contexts: int,
    ) -> Strategy:
        """Process ``contexts`` oracle draws; return the final strategy."""
        for _ in range(contexts):
            self.process(oracle())
        return self.strategy

    # ------------------------------------------------------------------
    # Climbing
    # ------------------------------------------------------------------

    def _maybe_climb(self) -> None:
        best: Optional[DeltaAccumulator] = None
        best_margin = 0.0
        best_threshold = 0.0
        threshold_for = pib_sequential_thresholds(self.total_tests, self.delta)
        for accumulator in self._accumulators:
            threshold = threshold_for(
                accumulator.samples, accumulator.value_range
            )
            margin = accumulator.total - threshold
            if self.recorder.enabled:
                self.recorder.chernoff_margin(
                    accumulator.transformation.name,
                    accumulator.samples,
                    accumulator.total,
                    threshold,
                )
            accepts = (
                margin < 0.0 if FLIP_EQ6_FOR_TESTING else margin >= 0.0
            )
            if accepts and (best is None or margin > best_margin):
                best = accumulator
                best_margin = margin
                best_threshold = threshold
        if best is None:
            return
        self.history.append(
            ClimbRecord(
                step=len(self.history) + 1,
                context_number=self.contexts_processed,
                transformation=best.transformation.name,
                samples=best.samples,
                estimated_gain=best.total,
                threshold=best_threshold,
                from_arcs=self.strategy.arc_names(),
                to_arcs=best.candidate.arc_names(),
            )
        )
        if self.recorder.enabled:
            self.recorder.climb(self.history[-1])
        self.strategy = best.candidate
        self._rebuild_neighbourhood()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def climbs(self) -> int:
        """How many hill-climbing steps have been taken."""
        return len(self.history)

    def seed_report(self) -> Optional[Dict[str, object]]:
        """The seed, JSON-ready: the runs it took and ``p̂``, or while
        :attr:`seeding` the sample counts still outstanding; ``None``
        for a learner that was not seeded."""
        if self.sampler is not None:
            return {"outstanding": {
                name: count
                for name, count in self.sampler.counters().items()
                if count > 0
            }}
        if self.seed_estimates is None:
            return None
        return {"contexts_used": self.seed_contexts,
                "estimates": dict(self.seed_estimates)}

    def neighbourhood_report(self) -> List[dict]:
        """Current ``Δ̃`` totals and thresholds, one row per neighbour."""
        rows = []
        threshold_for = pib_sequential_thresholds(
            max(self.total_tests, 1), self.delta
        )
        for accumulator in self._accumulators:
            threshold = (
                threshold_for(accumulator.samples, accumulator.value_range)
                if accumulator.samples
                else float("inf")
            )
            rows.append(
                {
                    "transformation": accumulator.transformation.name,
                    "samples": accumulator.samples,
                    "delta_tilde_sum": accumulator.total,
                    "threshold": threshold,
                }
            )
        return rows
