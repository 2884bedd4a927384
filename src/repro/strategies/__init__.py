"""Strategies: legal arc orderings, execution, costs, and operators.

Implements Section 2.1's strategy machinery: the sequence view of a
strategy, satisficing execution with the cost accounting ``c(Θ, I)``,
expected cost ``C[Θ]`` over context distributions, the sibling-swap
transformations PIB climbs with, exhaustive enumeration for ground
truth, and the adaptive query processor ``QP^A`` of Section 4.1.
"""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".strategy": ("Strategy",),
    ".execution": ("ExecutionResult", "cost_of", "execute",
                   "pessimistic_cost"),
    ".expected_cost": ("attempt_probabilities", "expected_cost_exact",
                       "expected_cost_explicit", "expected_cost_monte_carlo",
                       "reach_probability", "success_probability"),
    ".transformations": ("PathPromotion", "SiblingSwap", "Transformation",
                         "all_path_promotions", "all_sibling_swaps",
                         "neighbours"),
    ".enumeration": ("all_legal_strategies",
                     "all_path_structured_strategies",
                     "count_path_structured"),
    ".adaptive": ("AdaptiveQueryProcessor", "AttemptOutcome",
                  "classify_attempt"),
    ".engines": ("ENGINE_NAMES", "BottomUpProofAdapter", "make_engine"),
})
