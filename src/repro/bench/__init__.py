"""Benchmark harness: experiment implementations and reporting."""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".harness": ("ExperimentResult",),
    ".reporting": ("banner", "format_series", "format_table"),
    ".stats": ("clopper_pearson", "rate_with_interval"),
    ".ablations": ("experiment_ablation_adaptive",
                   "experiment_ablation_delta",
                   "experiment_ablation_sequential"),
    ".experiments": ("experiment_comparison", "experiment_learning_curve",
                     "experiment_distributed",
                     "experiment_distributed_faulty", "experiment_drift",
                     "experiment_engine", "experiment_experience_warmstart",
                     "experiment_federation", "experiment_figure1",
                     "experiment_figure2_pib", "experiment_lemma1",
                     "experiment_naf", "experiment_overload",
                     "experiment_pib1_filter", "experiment_qsqn",
                     "experiment_serving", "experiment_smith_vs_learned",
                     "experiment_theorem1", "experiment_theorem2",
                     "experiment_theorem3", "experiment_upsilon_scaling"),
})
