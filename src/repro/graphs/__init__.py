"""Inference graphs, contexts, and graph construction (Section 2.1)."""

from .inference_graph import Arc, ArcKind, GraphBuilder, InferenceGraph, Node
from .contexts import Context, LazyDatalogContext, context_from_datalog
from .builder import build_inference_graph
from .random_graphs import random_instance, random_probabilities, random_tree_graph
from .hypergraph import (
    AndOrGraph,
    EvalResult,
    HyperArc,
    HyperContext,
    Policy,
    build_and_or_graph,
    evaluate,
    sibling_orderings,
)

__all__ = [
    "Arc",
    "ArcKind",
    "GraphBuilder",
    "InferenceGraph",
    "Node",
    "Context",
    "LazyDatalogContext",
    "context_from_datalog",
    "build_inference_graph",
    "random_instance",
    "random_probabilities",
    "random_tree_graph",
    "AndOrGraph",
    "EvalResult",
    "HyperArc",
    "HyperContext",
    "Policy",
    "build_and_or_graph",
    "evaluate",
    "sibling_orderings",
]
