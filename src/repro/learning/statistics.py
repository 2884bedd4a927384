"""Statistics collectors: the counters PIB and PAO maintain.

Section 5.1 stresses how light the bookkeeping is: "recording (at most)
the number of times a query processor attempts each database retrieval
and how often that retrieval succeeds … one or two counters per
retrieval".  :class:`RetrievalStatistics` is that pair of counters;
:class:`DeltaAccumulator` is the per-candidate running sum of the
conservative difference estimates ``Δ̃`` that PIB compares against the
Equation 6 threshold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict

from ..graphs.inference_graph import InferenceGraph
from ..strategies.execution import ExecutionResult, pessimistic_cost
from ..strategies.strategy import Strategy
from ..strategies.transformations import Transformation

__all__ = [
    "RetrievalStatistics",
    "WindowedRetrievalStatistics",
    "DeltaAccumulator",
    "delta_tilde",
]


class RetrievalStatistics:
    """Per-experiment (attempts, successes) counters.

    ``frequency(arc, fallback)`` returns the empirical success rate,
    or ``fallback`` for never-attempted arcs (Theorem 3 uses 0.5).
    """

    def __init__(self, graph: InferenceGraph):
        self.graph = graph
        self.attempts: Dict[str, int] = {
            arc.name: 0 for arc in graph.experiments()
        }
        self.successes: Dict[str, int] = {
            arc.name: 0 for arc in graph.experiments()
        }

    def record(self, result: ExecutionResult) -> None:
        """Fold one run's observations into the counters."""
        for name, unblocked in result.observations.items():
            self.attempts[name] += 1
            if unblocked:
                self.successes[name] += 1

    def frequency(self, arc_name: str, fallback: float = 0.5) -> float:
        attempts = self.attempts[arc_name]
        if attempts == 0:
            return fallback
        return self.successes[arc_name] / attempts

    def frequencies(self, fallback: float = 0.5) -> Dict[str, float]:
        """The full ``p̂`` vector."""
        return {name: self.frequency(name, fallback) for name in self.attempts}

    def total_attempts(self) -> int:
        return sum(self.attempts.values())


def delta_tilde(
    result: ExecutionResult, candidate: Strategy
) -> float:
    """The conservative under-estimate ``Δ̃[Θ, Θ', I]`` of Section 3.

    ``result`` is the monitored run of the *current* strategy on ``I``;
    the candidate's cost is evaluated against the pessimistic
    completion of the run's observations (unexplored retrievals
    blocked, unexplored reductions traversable), which can only
    over-state it.  Hence the returned value never exceeds the true
    ``Δ = c(Θ, I) − c(Θ', I)``.
    """
    return result.cost - pessimistic_cost(candidate, result.observations)


@dataclass
class DeltaAccumulator:
    """Running ``Δ̃[Θ, Θ', S]`` for one candidate transformation.

    ``value_range`` caches ``Λ[Θ, Θ']``, the Chernoff range of the
    per-sample differences.
    """

    transformation: Transformation
    candidate: Strategy
    value_range: float
    total: float = 0.0
    samples: int = 0

    def update(self, result: ExecutionResult) -> float:
        """Add one run's ``Δ̃`` and return it."""
        estimate = delta_tilde(result, self.candidate)
        self.total += estimate
        self.samples += 1
        return estimate

    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0


class WindowedRetrievalStatistics(RetrievalStatistics):
    """Per-arc counters whose *frequencies* track a sliding window.

    The stationarity assumption behind Theorems 1–3 makes lifetime
    counters sufficient; under a drifting workload they average over
    regimes and go stale.  This variant keeps the lifetime ``attempts``
    / ``successes`` dicts (persistence and Section 5.1's bookkeeping
    story are unchanged) but answers :meth:`frequency` from only the
    most recent ``window`` observations per arc — the current-regime
    ``p̂`` the drift layer wants.
    """

    def __init__(self, graph: InferenceGraph, window: int = 200):
        super().__init__(graph)
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        self.window = window
        self._recent: Dict[str, Deque[bool]] = {
            name: deque(maxlen=window) for name in self.attempts
        }

    def record(self, result: ExecutionResult) -> None:
        super().record(result)
        for name, unblocked in result.observations.items():
            self._recent[name].append(unblocked)

    def frequency(self, arc_name: str, fallback: float = 0.5) -> float:
        recent = self._recent[arc_name]
        if not recent:
            return fallback
        return sum(recent) / len(recent)

    def window_size(self, arc_name: str) -> int:
        """How many observations currently back ``frequency(arc_name)``."""
        return len(self._recent[arc_name])

    def reset_window(self) -> None:
        """Forget the windows (epoch boundary); lifetime counters stay."""
        for recent in self._recent.values():
            recent.clear()

