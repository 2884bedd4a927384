"""Inference graphs, contexts, and graph construction (Section 2.1)."""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".inference_graph": ("Arc", "ArcKind", "GraphBuilder", "InferenceGraph",
                         "Node"),
    ".contexts": ("Context", "LazyDatalogContext", "context_from_datalog"),
    ".builder": ("build_inference_graph",),
    ".random_graphs": ("random_instance", "random_probabilities",
                       "random_tree_graph"),
    ".hypergraph": ("AndOrGraph", "EvalResult", "HyperArc", "HyperContext",
                    "Policy", "build_and_or_graph", "evaluate",
                    "sibling_orderings"),
})
