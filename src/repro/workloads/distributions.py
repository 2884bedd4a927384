"""Context distributions: the stationary ``Pr : I → [0,1]`` of §2.1.

Every learner in this library consumes contexts through an *oracle* —
"this oracle could simply be the system's user, who is posing queries"
(Section 3.1).  A :class:`ContextDistribution` is that oracle plus
whatever exact structure it can expose:

* :class:`IndependentDistribution` — each experiment arc blocks
  independently (footnote 8's assumption, required by ``Υ``); exposes
  the probability vector, so expected costs are exact and fast;
* :class:`ExplicitDistribution` — an explicit weighted list of
  contexts, allowing *arbitrary correlations* between arcs (PIB's
  setting: it "does not require that the success probabilities of the
  retrievals be independent", Section 5.3);
* :class:`MixtureDistribution` — a convex mixture of distributions
  (correlated even when the components are independent);
* :class:`DatalogDistribution` — the concrete level: sample a
  ``⟨query, DB⟩`` pair and compile it to a context through the engine.

All classes implement ``sampler(rng)`` (a zero-argument oracle bound to
a generator) and ``expected_cost(strategy)`` using the best available
evaluation route.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import DistributionError
from ..datalog.database import Database
from ..datalog.terms import Atom
from ..graphs.contexts import Context, context_from_datalog
from ..graphs.inference_graph import InferenceGraph
from ..strategies.expected_cost import (
    expected_cost_exact,
    expected_cost_explicit,
    expected_cost_monte_carlo,
)
from ..strategies.strategy import Strategy

__all__ = [
    "ContextDistribution",
    "IndependentDistribution",
    "ExplicitDistribution",
    "MixtureDistribution",
    "DatalogDistribution",
    "PiecewiseStationaryDistribution",
]


class ContextDistribution:
    """Abstract stationary distribution over contexts."""

    graph: InferenceGraph

    def sample(self, rng: random.Random) -> Context:
        """Draw one context."""
        raise NotImplementedError

    def sampler(self, rng: random.Random) -> Callable[[], Context]:
        """A zero-argument oracle bound to ``rng`` — what PIB/PAO take."""
        return lambda: self.sample(rng)

    def support(self) -> Optional[List[Tuple[float, Context]]]:
        """The weighted support, when finite and enumerable (else None)."""
        return None

    def arc_probabilities(self) -> Optional[Dict[str, float]]:
        """Marginal success probabilities, when the arcs are independent."""
        return None

    def expected_cost(
        self,
        strategy: Strategy,
        samples: int = 20_000,
        rng: Optional[random.Random] = None,
    ) -> float:
        """``C[Θ]`` by the most exact available route.

        Independent distributions use the closed form, enumerable ones
        the explicit sum, anything else a Monte-Carlo estimate with
        ``samples`` draws.
        """
        probs = self.arc_probabilities()
        if probs is not None:
            return expected_cost_exact(strategy, probs)
        weighted = self.support()
        if weighted is not None:
            return expected_cost_explicit(strategy, weighted)
        rng = rng or random.Random(0)
        return expected_cost_monte_carlo(strategy, self.sampler(rng), samples)


class IndependentDistribution(ContextDistribution):
    """Independent per-arc blocking with a fixed probability vector."""

    #: Above this many experiments the support is no longer enumerated.
    ENUMERATION_LIMIT = 16

    def __init__(self, graph: InferenceGraph, probs: Mapping[str, float]):
        self.graph = graph
        self.probs: Dict[str, float] = {}
        for arc in graph.experiments():
            if arc.name not in probs:
                raise DistributionError(
                    f"missing probability for experiment {arc.name!r}"
                )
            p = float(probs[arc.name])
            if not 0.0 <= p <= 1.0:
                raise DistributionError(f"p({arc.name}) = {p} not in [0, 1]")
            self.probs[arc.name] = p
        extra = set(probs) - set(self.probs)
        if extra:
            raise DistributionError(
                f"probabilities given for non-experiments: {sorted(extra)}"
            )

    def sample(self, rng: random.Random) -> Context:
        statuses = {
            name: rng.random() < p for name, p in self.probs.items()
        }
        return Context(self.graph, statuses)

    def arc_probabilities(self) -> Dict[str, float]:
        return dict(self.probs)

    def support(self) -> Optional[List[Tuple[float, Context]]]:
        names = sorted(self.probs)
        if len(names) > self.ENUMERATION_LIMIT:
            return None
        weighted: List[Tuple[float, Context]] = []
        for outcome in itertools.product((True, False), repeat=len(names)):
            weight = 1.0
            statuses = {}
            for name, ok in zip(names, outcome):
                weight *= self.probs[name] if ok else 1.0 - self.probs[name]
                statuses[name] = ok
            if weight > 0.0:
                weighted.append((weight, Context(self.graph, statuses)))
        return weighted


class ExplicitDistribution(ContextDistribution):
    """A finite weighted list of contexts; correlations unrestricted."""

    def __init__(
        self,
        graph: InferenceGraph,
        weighted: Sequence[Tuple[float, Mapping[str, bool]]],
    ):
        self.graph = graph
        self._weighted: List[Tuple[float, Context]] = []
        total = 0.0
        for weight, statuses in weighted:
            if weight < 0:
                raise DistributionError(f"negative weight {weight}")
            total += weight
            context = (
                statuses
                if isinstance(statuses, Context)
                else Context(graph, statuses)
            )
            self._weighted.append((weight, context))
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"weights sum to {total}, expected 1")

    def sample(self, rng: random.Random) -> Context:
        roll = rng.random()
        cumulative = 0.0
        for weight, context in self._weighted:
            cumulative += weight
            if roll < cumulative:
                return context
        return self._weighted[-1][1]

    def support(self) -> List[Tuple[float, Context]]:
        return list(self._weighted)

    def arc_probabilities(self) -> Optional[Dict[str, float]]:
        """Marginals — returned only when the arcs really are independent."""
        marginals: Dict[str, float] = {}
        for arc in self.graph.experiments():
            marginals[arc.name] = sum(
                weight
                for weight, context in self._weighted
                if context.traversable(arc)
            )
        # Verify independence: joint == product of marginals on support.
        for weight, context in self._weighted:
            product = 1.0
            for arc in self.graph.experiments():
                p = marginals[arc.name]
                product *= p if context.traversable(arc) else 1.0 - p
            if abs(product - self._joint(context)) > 1e-9:
                return None
        return marginals

    def _joint(self, context: Context) -> float:
        return sum(
            weight
            for weight, candidate in self._weighted
            if candidate == context
        )


class MixtureDistribution(ContextDistribution):
    """A convex mixture of component distributions over one graph."""

    def __init__(
        self,
        components: Sequence[Tuple[float, ContextDistribution]],
    ):
        if not components:
            raise DistributionError("a mixture needs at least one component")
        self.graph = components[0][1].graph
        total = 0.0
        for weight, component in components:
            if weight < 0:
                raise DistributionError(f"negative mixture weight {weight}")
            if component.graph is not self.graph:
                raise DistributionError(
                    "all mixture components must share one graph"
                )
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"mixture weights sum to {total}")
        self._components = list(components)

    def sample(self, rng: random.Random) -> Context:
        roll = rng.random()
        cumulative = 0.0
        for weight, component in self._components:
            cumulative += weight
            if roll < cumulative:
                return component.sample(rng)
        return self._components[-1][1].sample(rng)

    def support(self) -> Optional[List[Tuple[float, Context]]]:
        merged: Dict[Context, float] = {}
        for weight, component in self._components:
            inner = component.support()
            if inner is None:
                return None
            for inner_weight, context in inner:
                merged[context] = merged.get(context, 0.0) + weight * inner_weight
        return [(weight, context) for context, weight in merged.items()]


class PiecewiseStationaryDistribution(ContextDistribution):
    """Abrupt regime changes: a schedule of stationary segments.

    The §2.1 stationarity assumption, deliberately broken: the
    distribution is ``regimes[0]`` for its ``duration`` draws, then
    ``regimes[1]``, and so on; the last regime runs forever (its
    duration may be ``None`` to say so explicitly).  This is the
    *piecewise-stationary* model drift detection is analysed under —
    within a segment every Chernoff argument applies, across a boundary
    none do.

    The wrapper is **stateful**: every :meth:`sample` advances an
    internal draw counter, and the introspection surface
    (:meth:`arc_probabilities`, :meth:`support`, :meth:`expected_cost`)
    describes the *current* regime — what a drift-aware learner is
    trying to track.  Usable standalone (hand its :meth:`sampler` to
    any learner) as well as by ``bench_drift``.
    """

    def __init__(
        self,
        graph: InferenceGraph,
        regimes: Sequence[Tuple[Optional[int], ContextDistribution]],
    ):
        if not regimes:
            raise DistributionError("need at least one regime")
        self.graph = graph
        self._regimes: List[Tuple[Optional[int], ContextDistribution]] = []
        for index, (duration, distribution) in enumerate(regimes):
            if distribution.graph is not graph:
                raise DistributionError(
                    "all regimes must share the wrapper's graph"
                )
            last = index == len(regimes) - 1
            if duration is None and not last:
                raise DistributionError(
                    "only the final regime may have unbounded duration"
                )
            if duration is not None and duration < 1:
                raise DistributionError(
                    f"regime {index} duration must be >= 1, got {duration}"
                )
            self._regimes.append((duration, distribution))
        self.draws = 0

    def regime_at(self, draw: int) -> int:
        """Index of the regime governing the given 0-based draw."""
        remaining = draw
        for index, (duration, _) in enumerate(self._regimes):
            if duration is None or remaining < duration:
                return index
            remaining -= duration
        return len(self._regimes) - 1

    @property
    def regime_index(self) -> int:
        """Which regime the *next* draw comes from."""
        return self.regime_at(self.draws)

    def current_regime(self) -> ContextDistribution:
        """The stationary distribution governing the next draw."""
        return self._regimes[self.regime_index][1]

    def change_points(self) -> List[int]:
        """The draw numbers at which each later regime begins."""
        points: List[int] = []
        total = 0
        for duration, _ in self._regimes[:-1]:
            total += duration
            points.append(total)
        return points

    def sample(self, rng: random.Random) -> Context:
        regime = self.current_regime()
        self.draws += 1
        return regime.sample(rng)

    def arc_probabilities(self) -> Optional[Dict[str, float]]:
        """The current regime's marginals (the drifting target)."""
        return self.current_regime().arc_probabilities()

    def support(self) -> Optional[List[Tuple[float, Context]]]:
        return self.current_regime().support()

    def expected_cost(
        self,
        strategy: Strategy,
        samples: int = 20_000,
        rng: Optional[random.Random] = None,
    ) -> float:
        """``C[Θ]`` under the *current* regime (per-regime optimum)."""
        return self.current_regime().expected_cost(strategy, samples, rng)

    def reset(self) -> None:
        """Rewind to the first regime (for repeated benchmark runs)."""
        self.draws = 0


class DatalogDistribution(ContextDistribution):
    """Concrete contexts: sample ``⟨query, DB⟩`` and compile to arc statuses.

    ``pair_sampler(rng)`` returns the next query atom and the database
    it runs against (databases "can vary from one query processing
    context to another", Section 2.1 — though a fixed database is the
    common case).
    """

    def __init__(
        self,
        graph: InferenceGraph,
        pair_sampler: Callable[[random.Random], Tuple[Atom, Database]],
    ):
        self.graph = graph
        self._pair_sampler = pair_sampler

    def sample(self, rng: random.Random) -> Context:
        query, database = self._pair_sampler(rng)
        return context_from_datalog(self.graph, query, database)
