"""Strategy transformations: the operator set ``T`` PIB hill-climbs with.

Section 3.2 parameterizes PIB by a set of transformations
``T = {τ_j}``, "each … perhaps re-ordering a particular pair of arcs
that descend from a common node".  :class:`SiblingSwap` is that
operator (``τ_{d,c}(Θ_ABCD) = Θ_ABDC``); :func:`all_sibling_swaps`
builds the full operator set for a graph, and :func:`neighbours`
produces ``T(Θ)``, the neighbour strategies of a given ``Θ``.

Each transformation knows its Chernoff range ``Λ[Θ, τ(Θ)]`` — "never
more than the sum of the costs of the arcs under the node where Θ
deviates from Θ_j", i.e. ``f*(r₁) + f*(r₂)`` for a sibling swap.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Tuple

from ..graphs.inference_graph import InferenceGraph
from .strategy import Strategy

__all__ = [
    "Transformation",
    "SiblingSwap",
    "PathPromotion",
    "all_sibling_swaps",
    "all_path_promotions",
    "neighbours",
]


class Transformation:
    """Base class: a named mapping from strategies to strategies."""

    name: str = "transformation"

    def apply(self, strategy: Strategy) -> Strategy:
        """Return the transformed strategy."""
        raise NotImplementedError

    def chernoff_range(self, graph: InferenceGraph) -> float:
        """``Λ``: the width of the support of ``Δ_i = c(Θ,I) − c(τ(Θ),I)``.

        The default is the sound but loose ``2·Σ_a f(a)`` (each cost
        lies in ``[0, total]``); subclasses tighten it.
        """
        return 2.0 * graph.total_cost

    def __repr__(self) -> str:
        return self.name


class SiblingSwap(Transformation):
    """Interchange two sibling arcs (and their subtrees) in a strategy.

    The operator is an involution: applying it twice restores the
    original strategy, so one unordered pair ``{r₁, r₂}`` covers both
    climb directions.
    """

    def __init__(self, first: str, second: str):
        if first == second:
            raise ValueError("a swap needs two distinct arcs")
        # Normalize so that SiblingSwap("a","b") == SiblingSwap("b","a").
        self.first, self.second = sorted((first, second))
        self.name = f"swap({self.first},{self.second})"

    def apply(self, strategy: Strategy) -> Strategy:
        return strategy.with_swap(self.first, self.second)

    def chernoff_range(self, graph: InferenceGraph) -> float:
        """``Λ = f*(r₁) + f*(r₂)`` (Section 3.1 and the Eq 5 examples)."""
        return graph.f_star(graph.arc(self.first)) + graph.f_star(
            graph.arc(self.second)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SiblingSwap)
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self) -> int:
        return hash((SiblingSwap, self.first, self.second))


class PathPromotion(Transformation):
    """Move one retrieval's whole root path to the front of the strategy.

    The §3.2 closing comments note that PIB "can use (almost) arbitrary
    sets of transformations to hill-climb", e.g. macro-operators: a
    path promotion is the macro move the ``Θ_ABCD → Θ_DABC``-style
    re-orderings need, which single sibling swaps reach only through
    intermediate strategies that may not individually test as
    improvements.

    The result is the path-structured strategy visiting the promoted
    retrieval first and the remaining retrievals in their prior order.
    The conservative ``Δ̃`` under-estimate stays sound for this (and
    any) transformation because the pessimistic completion *maximizes*
    the candidate's cost over all contexts consistent with the
    monitored run (see :func:`~repro.strategies.execution.pessimistic_cost`).
    """

    def __init__(self, retrieval: str):
        self.retrieval = retrieval
        self.name = f"promote({retrieval})"

    def apply(self, strategy: Strategy) -> Strategy:
        order = [arc.name for arc in strategy.retrieval_order()]
        if self.retrieval not in order:
            raise ValueError(
                f"{self.retrieval!r} is not a retrieval of the strategy's graph"
            )
        order.remove(self.retrieval)
        return Strategy.from_retrieval_order(
            strategy.graph, [self.retrieval] + order
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PathPromotion) and self.retrieval == other.retrieval

    def __hash__(self) -> int:
        return hash((PathPromotion, self.retrieval))


def all_path_promotions(graph: InferenceGraph) -> List[PathPromotion]:
    """One promotion operator per retrieval arc."""
    return [PathPromotion(arc.name) for arc in graph.retrieval_arcs()]


def all_sibling_swaps(graph: InferenceGraph) -> List[SiblingSwap]:
    """Every unordered pair of sibling arcs in the graph.

    This is the transformation set the paper's examples use: for
    ``G_A`` it is the single ``swap(R_p, R_g)``; for ``G_B`` it
    includes ``τ_{d,c}`` (reorder ``R_td``/``R_tc`` under ``T``),
    the ``R_sb``/``R_st`` reorder under ``S``, and the top-level
    ``R_ga``/``R_gs`` swap.
    """
    swaps: List[SiblingSwap] = []
    for node in graph.nodes():
        children = graph.children(node)
        for left, right in combinations(children, 2):
            swaps.append(SiblingSwap(left.name, right.name))
    return swaps


def neighbours(
    strategy: Strategy, transformations: Iterable[Transformation]
) -> List[Tuple[Transformation, Strategy]]:
    """``T(Θ) = {τ(Θ) | τ ∈ T}`` with the generating operator attached.

    Transformations that leave the strategy unchanged are dropped —
    a no-op neighbour could never satisfy Equation 6 but would inflate
    the union bound.
    """
    result: List[Tuple[Transformation, Strategy]] = []
    for transformation in transformations:
        candidate = transformation.apply(strategy)
        if candidate.arc_names() != strategy.arc_names():
            result.append((transformation, candidate))
    return result
