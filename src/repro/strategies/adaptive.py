"""The adaptive query processor ``QP^A`` of Section 4.1.

A fixed strategy cannot guarantee samples of every retrieval — if
``D_p`` always succeeds, ``Θ₁`` never attempts ``D_g``.  ``QP^A``
therefore re-plans per context: it keeps one counter per experiment,
initialized to the required sample count, always *aims for* the
experiment whose counter is largest (Definition 1: follow ``Π(e)`` as
far as possible), and decrements a counter every time its experiment is
attempted-or-aimed-at.  Sampling ends when all counters are ≤ 0.

The module also provides :func:`classify_attempt`, which decides from
an execution trace whether a run counts as an "attempt to reach" an
experiment (and whether it reached it) — the statistic Theorem 3's
``m'(e_i)`` counts.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional, Tuple

from ..errors import LearningError
from ..graphs.contexts import Context
from ..graphs.inference_graph import Arc, InferenceGraph
from .execution import ExecutionResult, execute
from .strategy import Strategy

__all__ = ["AttemptOutcome", "classify_attempt", "AdaptiveQueryProcessor"]


class AttemptOutcome(enum.Enum):
    """How one run relates to one experiment (Definition 1)."""

    REACHED = "reached"            # the experiment itself was attempted
    BLOCKED_ON_PATH = "blocked"    # followed Π(e) maximally, but an arc blocked
    NOT_ATTEMPTED = "not-attempted"  # the run never headed for e


def classify_attempt(result: ExecutionResult, experiment: Arc) -> AttemptOutcome:
    """Did this run attempt to reach ``experiment``, and did it get there?

    A run "attempted to reach e" iff it followed ``Π(e)`` as far as the
    context allowed: every path arc was either attempted-and-unblocked
    (continue) or attempted-and-blocked (the attempt ends there, still
    counting).  A path arc that was never attempted means the processor
    never headed for ``e``.
    """
    graph = result.strategy.graph
    attempted = {arc.name for arc in result.attempted}
    for path_arc in graph.ancestors(experiment):
        if path_arc.name not in attempted:
            return AttemptOutcome.NOT_ATTEMPTED
        if path_arc.blockable and not result.observations[path_arc.name]:
            return AttemptOutcome.BLOCKED_ON_PATH
    if experiment.name in attempted:
        return AttemptOutcome.REACHED
    return AttemptOutcome.NOT_ATTEMPTED


class AdaptiveQueryProcessor:
    """Counter-driven strategy switching, as prescribed by Section 4.1.

    ``requirements`` maps experiment arc names to the number of
    attempts still wanted (Theorem 2's ``m(d_i)`` or Theorem 3's
    ``m'(e_i)``).  :meth:`next_strategy` is the strategy aimed at the
    neediest experiment, and :meth:`record` updates the counters from
    a run's trace; :meth:`process` does both around one
    :func:`~repro.strategies.execution.execute` call.

    The processor records, per experiment, the counts Theorem 3 names:
    ``k(e)`` (times reached) and ``n(e)`` (times found unblocked), plus
    ``attempts(e)`` (times aimed at, reached or not).
    """

    def __init__(
        self,
        graph: InferenceGraph,
        requirements: Mapping[str, int],
        count: str = "attempts",
    ):
        if count not in ("attempts", "reached"):
            raise ValueError("count must be 'attempts' or 'reached'")
        self.graph = graph
        #: Which event drives a counter down: "attempts" (Theorem 3's
        #: attempted-to-reach semantics) or "reached" (Theorem 2 needs
        #: actual samples of each retrieval).
        self.count_mode = count
        # Declaration order, not a set: counter (and therefore
        # estimate) dictionaries must iterate identically across
        # processes regardless of PYTHONHASHSEED.
        names = [arc.name for arc in graph.experiments()]
        unknown = set(requirements) - set(names)
        if unknown:
            raise LearningError(
                f"requirements name non-experiment arcs: {sorted(unknown)}"
            )
        self._counters: Dict[str, int] = {name: 0 for name in names}
        self._counters.update({k: int(v) for k, v in requirements.items()})
        self.reached: Dict[str, int] = {name: 0 for name in names}
        self.unblocked: Dict[str, int] = {name: 0 for name in names}
        self.attempts: Dict[str, int] = {name: 0 for name in names}
        self.contexts_processed = 0
        self._declaration_rank = {
            arc.name: index for index, arc in enumerate(graph.arcs())
        }

    # ------------------------------------------------------------------
    # Strategy selection
    # ------------------------------------------------------------------

    def done(self) -> bool:
        """Whether every counter has been driven to zero or below."""
        return all(count <= 0 for count in self._counters.values())

    def counters(self) -> Dict[str, int]:
        """A copy of the remaining-requirements counters."""
        return dict(self._counters)

    def _target(self) -> Optional[Arc]:
        """The experiment with the largest positive counter (ties: first
        declared)."""
        best: Optional[Tuple[int, int, str]] = None
        for name, count in self._counters.items():
            if count <= 0:
                continue
            key = (-count, self._declaration_rank[name], name)
            if best is None or key < best:
                best = key
        return self.graph.arc(best[2]) if best else None

    def strategy_for_target(self, target: Optional[Arc]) -> Strategy:
        """A complete strategy that aims at ``target`` first.

        The strategy visits the retrievals below (or at) ``target``
        first — so the run starts by descending ``Π(target)`` — then
        orders the remaining retrievals by how needy their own path
        experiments are, so by-product samples accrue where they help.
        """
        def neediness(retrieval: Arc) -> Tuple[int, int]:
            path = self.graph.ancestors(retrieval) + [retrieval]
            need = sum(
                max(0, self._counters.get(arc.name, 0))
                for arc in path
                if arc.blockable
            )
            return (-need, self._declaration_rank[retrieval.name])

        retrievals = self.graph.retrieval_arcs()
        if target is None:
            ordered = sorted(retrievals, key=neediness)
        else:
            subtree = {arc.name for arc in self.graph.subtree_arcs(target)}
            first = [r for r in retrievals if r.name in subtree]
            rest = sorted(
                (r for r in retrievals if r.name not in subtree), key=neediness
            )
            ordered = first + rest
        return Strategy.from_retrieval_order(self.graph, ordered)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def next_strategy(self) -> Strategy:
        """The strategy for the next context: aimed at the neediest
        experiment.  Asking moves no counter."""
        return self.strategy_for_target(self._target())

    def record(self, result: ExecutionResult) -> None:
        """Update every counter from one run.

        Any run counts, aimed by :meth:`next_strategy` or not: every
        experiment it attempted to reach (Definition 1) is a sample.
        """
        self.contexts_processed += 1
        for experiment in self.graph.experiments():
            outcome = classify_attempt(result, experiment)
            if outcome is AttemptOutcome.NOT_ATTEMPTED:
                continue
            name = experiment.name
            self.attempts[name] += 1
            if self.count_mode == "attempts":
                self._counters[name] -= 1
            if outcome is AttemptOutcome.REACHED:
                self.reached[name] += 1
                if self.count_mode == "reached":
                    self._counters[name] -= 1
                if result.observations[name]:
                    self.unblocked[name] += 1

    def process(self, context: Context) -> ExecutionResult:
        """Answer one context with an aimed strategy; update all counters."""
        result = execute(self.next_strategy(), context)
        self.record(result)
        return result

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    def frequency_estimates(self, fallback: float = 0.5) -> Dict[str, float]:
        """``p̂_i = n(e_i)/k(e_i)``, or ``fallback`` when never reached.

        The 0.5 fallback is Theorem 3's prescription for experiments
        with ``k(e_i) = 0`` — their reach probability ``ρ`` is then so
        small that any estimate suffices (Lemma 1 weighs the error by
        ``ρ``).
        """
        estimates: Dict[str, float] = {}
        for name in self._counters:
            if self.reached[name] > 0:
                estimates[name] = self.unblocked[name] / self.reached[name]
            else:
                estimates[name] = fallback
        return estimates
