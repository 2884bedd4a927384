"""Optimal-strategy algorithms: ``Υ_AOT``, brute force, ``Υ̃``, [Smi89].

Section 4's ``Υ_G`` functions: the exact ratio-merge optimizer for
tree-shaped graphs, the brute-force ground truth for small graphs (the
general problem is NP-hard, [Gre91]), a polynomial approximation, and
the fact-distribution heuristic baseline of [Smi89].
"""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".ratio": ("Block", "block_statistics"),
    ".upsilon": ("upsilon_aot", "upsilon_ot"),
    ".brute_force": ("optimal_strategy_brute_force",
                     "optimal_strategy_explicit", "path_structured_suffices"),
    ".approximate": ("path_ratio", "upsilon_greedy"),
    ".smith": ("smith_estimates", "smith_strategy"),
})
