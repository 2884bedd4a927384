"""Workloads: context distributions and the paper's concrete scenarios."""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".distributions": ("ContextDistribution", "DatalogDistribution",
                       "ExplicitDistribution", "IndependentDistribution",
                       "MixtureDistribution",
                       "PiecewiseStationaryDistribution"),
    ".university": ("db1", "db2", "g_a", "g_a_from_rules",
                    "intended_probabilities", "intended_query_mix",
                    "minors_only_mix", "printed_query_mix",
                    "query_distribution", "section4_estimates",
                    "section4_probabilities", "theta_1", "theta_2",
                    "university_rule_base"),
    ".figure2": ("figure2_probabilities", "g_b", "tau_dc", "theta_abcd",
                 "theta_abdc", "theta_acdb"),
    ".distributed": ("FlakySegmentAccessDistribution", "FlakySegmentedTable",
                     "SegmentAccessDistribution", "SegmentedTable",
                     "segment_scan_graph"),
    ".naf": ("OWNERSHIP_CATEGORIES", "OwnershipDistribution", "first_k_cost",
             "ownership_database", "pauper_rule_base", "refutation_graph"),
    ".generators": ("chain_rule_base", "disjunctive_rule_base",
                    "query_stream", "random_database"),
    ".hostile": ("KB_SHAPES", "deep_recursion_program", "hot_key_stream",
                 "mutation_storm", "negation_mix_program",
                 "same_generation_program", "specializing_heads_program"),
})
