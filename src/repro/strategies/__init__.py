"""Strategies: legal arc orderings, execution, costs, and operators.

Implements Section 2.1's strategy machinery: the sequence view of a
strategy, satisficing execution with the cost accounting ``c(Θ, I)``,
expected cost ``C[Θ]`` over context distributions, the sibling-swap
transformations PIB climbs with, exhaustive enumeration for ground
truth, and the adaptive query processor ``QP^A`` of Section 4.1.
"""

from .strategy import Strategy
from .execution import ExecutionResult, cost_of, execute, pessimistic_cost
from .expected_cost import (
    attempt_probabilities,
    expected_cost_exact,
    expected_cost_explicit,
    expected_cost_monte_carlo,
    reach_probability,
    success_probability,
)
from .transformations import (
    PathPromotion,
    SiblingSwap,
    Transformation,
    all_path_promotions,
    all_sibling_swaps,
    neighbours,
)
from .enumeration import (
    all_legal_strategies,
    all_path_structured_strategies,
    count_path_structured,
)
from .adaptive import AdaptiveQueryProcessor, AttemptOutcome, classify_attempt
from .engines import ENGINE_NAMES, BottomUpProofAdapter, make_engine

__all__ = [
    "Strategy",
    "ExecutionResult",
    "cost_of",
    "execute",
    "pessimistic_cost",
    "attempt_probabilities",
    "expected_cost_exact",
    "expected_cost_explicit",
    "expected_cost_monte_carlo",
    "reach_probability",
    "success_probability",
    "PathPromotion",
    "SiblingSwap",
    "Transformation",
    "all_path_promotions",
    "all_sibling_swaps",
    "neighbours",
    "all_legal_strategies",
    "all_path_structured_strategies",
    "count_path_structured",
    "AdaptiveQueryProcessor",
    "AttemptOutcome",
    "classify_attempt",
    "ENGINE_NAMES",
    "BottomUpProofAdapter",
    "make_engine",
]
