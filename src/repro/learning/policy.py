"""PIB-style hill-climbing over and-or hypergraph *policies* (Note 4).

The paper's strategies order the arcs of a simple inference graph; on
the hypergraph extension the corresponding object is a
:class:`~repro.graphs.hypergraph.Policy` — an ordering of each goal's
alternatives.  :class:`PolicyPIB` climbs that space with the same
sequential Chernoff discipline as :class:`repro.learning.pib.PIB`:

* the operator set swaps two alternatives of one goal (the hypergraph
  analogue of a sibling swap);
* per context, each neighbour's cost is evaluated exactly (hypergraph
  contexts carry all retrieval statuses, so this is the
  full-information [CG91] setting — evaluating a candidate is a cheap
  simulation, not extra database work);
* a climb fires only when Equation 6's threshold clears, so with
  probability ≥ 1 − δ every climb over the whole run is a true
  improvement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import LearningError
from ..graphs.hypergraph import AndOrGraph, HyperContext, Policy, evaluate
from .chernoff import pib_sequential_thresholds

__all__ = ["PolicySwap", "all_policy_swaps", "PolicyPIB"]


@dataclass(frozen=True)
class PolicySwap:
    """Swap the positions of two alternatives at one goal."""

    goal: str
    first: str
    second: str

    @property
    def name(self) -> str:
        return f"policy-swap({self.goal}:{self.first},{self.second})"

    def apply(self, policy: Policy) -> Policy:
        order = [arc.name for arc in policy.alternatives(self.goal)]
        try:
            i, j = order.index(self.first), order.index(self.second)
        except ValueError as error:
            raise LearningError(
                f"{self.name}: alternative missing at goal {self.goal!r}"
            ) from error
        order[i], order[j] = order[j], order[i]
        return policy.with_order(self.goal, order)


def all_policy_swaps(graph: AndOrGraph) -> List[PolicySwap]:
    """Every unordered pair of alternatives at every goal."""
    swaps: List[PolicySwap] = []
    for goal, alternatives in graph.alternatives.items():
        names = [arc.name for arc in alternatives]
        for first, second in itertools.combinations(sorted(names), 2):
            swaps.append(PolicySwap(goal, first, second))
    return swaps


class _PolicyAccumulator:
    __slots__ = ("swap", "policy", "total", "samples")

    def __init__(self, swap: PolicySwap, policy: Policy):
        self.swap = swap
        self.policy = policy
        self.total = 0.0
        self.samples = 0


class PolicyPIB:
    """Anytime policy improvement for and-or graphs.

    Mirrors :class:`repro.learning.pib.PIB`: feed contexts through
    :meth:`process` (the returned
    :class:`~repro.graphs.hypergraph.EvalResult` is the query answer);
    the learner climbs when confident and :attr:`policy` always holds
    the current best.
    """

    def __init__(
        self,
        graph: AndOrGraph,
        delta: float = 0.05,
        initial_policy: Optional[Policy] = None,
        swaps: Optional[Sequence[PolicySwap]] = None,
        test_every: int = 1,
    ):
        if not 0.0 < delta < 1.0:
            raise LearningError(f"delta must be in (0, 1), got {delta}")
        self.graph = graph
        self.delta = delta
        self.test_every = max(1, test_every)
        self.policy = initial_policy or Policy(graph)
        self.swaps: List[PolicySwap] = list(
            swaps if swaps is not None else all_policy_swaps(graph)
        )
        #: Δ ranges over ±(total arc cost): each arc is charged at most
        #: once per evaluation (goal results are memoized).
        self.value_range = 2.0 * sum(arc.cost for arc in graph.arcs())
        self.total_tests = 0
        self.contexts_processed = 0
        self.history: List[Tuple[int, str]] = []
        self._accumulators: List[_PolicyAccumulator] = []
        self._since_last_test = 0
        self._rebuild()

    def _rebuild(self) -> None:
        self._accumulators = [
            _PolicyAccumulator(swap, swap.apply(self.policy))
            for swap in self.swaps
        ]
        self._since_last_test = 0

    def process(self, context: HyperContext):
        """Answer one context with the current policy; maybe climb."""
        result = evaluate(self.policy, context)
        self.contexts_processed += 1
        for accumulator in self._accumulators:
            candidate_cost = evaluate(accumulator.policy, context).cost
            accumulator.total += result.cost - candidate_cost
            accumulator.samples += 1
        self.total_tests += len(self._accumulators)
        self._since_last_test += 1
        if self._accumulators and self._since_last_test >= self.test_every:
            self._since_last_test = 0
            self._maybe_climb()
        return result

    def run(self, oracle: Callable[[], HyperContext], contexts: int) -> Policy:
        """Process ``contexts`` oracle draws; return the final policy."""
        for _ in range(contexts):
            self.process(oracle())
        return self.policy

    def _maybe_climb(self) -> None:
        best: Optional[_PolicyAccumulator] = None
        best_margin = 0.0
        threshold_for = pib_sequential_thresholds(self.total_tests, self.delta)
        for accumulator in self._accumulators:
            threshold = threshold_for(accumulator.samples, self.value_range)
            margin = accumulator.total - threshold
            if margin >= 0.0 and (best is None or margin > best_margin):
                best = accumulator
                best_margin = margin
        if best is None:
            return
        self.history.append((self.contexts_processed, best.swap.name))
        self.policy = best.policy
        self._rebuild()

    @property
    def climbs(self) -> int:
        return len(self.history)
