"""Structural fingerprints for query forms and their inference graphs.

A *form fingerprint* identifies what the learner actually learns
about: not the query text, but the shape of the search space — the
predicate/arity skeleton of the goals, the query form's adornment
(binding) pattern, and the rule-dependency shape of the compiled
inference graph (which reductions hang under which goals, where the
retrievals sit).  Two sessions that compile structurally identical
graphs for ``instructor^(b)`` get the same fingerprint, whatever the
constants in the concrete queries were — which is exactly the unit
across which a learned strategy preference transfers.

Everything here is a pure function of the graph's declared structure.
Iteration uses declaration order and every unordered collection is
sorted before hashing, so fingerprints and similarity rankings are
stable across processes and ``PYTHONHASHSEED`` values.

Similarity between two profiles follows the blend that querytorque's
knowledge engine uses to rank prior outcomes: a *pattern* component
(does the rule-dependency skeleton match?) weighted 0.7 against a
*feature* component (how close are the coarse structural statistics?)
weighted 0.3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..datalog.rules import QueryForm
from ..datalog.terms import Atom
from ..graphs.inference_graph import Arc, InferenceGraph, Node

__all__ = [
    "FormProfile",
    "form_profile",
    "form_fingerprint",
    "similarity",
]

#: querytorque's hybrid ranking blend: 0.7 x pattern + 0.3 x similarity.
DEFAULT_PATTERN_WEIGHT = 0.7
DEFAULT_SIMILARITY_WEIGHT = 0.3


def _goal_signature(goal: Optional[Atom]) -> str:
    """``predicate/arity`` of a goal literal, ``-`` for synthetic arcs."""
    if goal is None:
        return "-"
    return f"{goal.predicate}/{goal.arity}"


def _arc_label(arc: Arc) -> str:
    """The arc's structural role, independent of its generated name."""
    parts = [arc.kind.value, _goal_signature(arc.goal)]
    if arc.blockable and arc.kind.value != "retrieval":
        parts.append("blockable")
    return ":".join(parts)


def _shape(graph: InferenceGraph, node: Node) -> str:
    """Canonical serialization of the subtree under ``node``.

    Children keep declaration order — sibling order is part of the
    graph's identity (it fixes the default strategy) — and each arc is
    rendered by its structural role, never its generated name, so the
    shape matches across sessions that rebuilt the graph from the same
    rules.
    """
    rendered = [
        f"{_arc_label(arc)}({_shape(graph, arc.target)})"
        for arc in graph.children(node)
    ]
    return ",".join(rendered)


@dataclass(frozen=True)
class FormProfile:
    """Everything the experience store keys and ranks a form by.

    ``fingerprint`` is a SHA-256 over the canonical serialization of
    the other structural fields; two profiles compare equal exactly
    when their graphs are structurally indistinguishable to the
    learner.  ``labels`` and ``features`` survive serialization so
    *similarity* can be computed against stored records without
    rebuilding their graphs.
    """

    fingerprint: str
    #: Root predicate (the query form's relation, or the root node's
    #: name for synthetic graphs).
    predicate: str
    arity: int
    #: The form's adornment (binding) pattern over ``{b, f}``.
    pattern: str
    #: The rule-dependency skeleton (see :func:`_shape`).
    shape: str
    #: Sorted multiset of arc structural labels.
    labels: Tuple[str, ...]
    #: Coarse structural statistics: (arcs, retrievals, reductions,
    #: depth, max branching, blockable reductions, total cost).
    features: Tuple[float, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "predicate": self.predicate,
            "arity": self.arity,
            "pattern": self.pattern,
            "shape": self.shape,
            "labels": list(self.labels),
            "features": list(self.features),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FormProfile":
        return cls(
            fingerprint=str(payload["fingerprint"]),
            predicate=str(payload["predicate"]),
            arity=int(payload["arity"]),
            pattern=str(payload["pattern"]),
            shape=str(payload["shape"]),
            labels=tuple(str(label) for label in payload["labels"]),
            features=tuple(float(x) for x in payload["features"]),
        )


def _features(graph: InferenceGraph) -> Tuple[float, ...]:
    arcs = graph.arcs()
    retrievals = graph.retrieval_arcs()
    reductions = [a for a in arcs if a.kind.value == "reduction"]
    depth = max((len(graph.ancestors(a)) + 1 for a in arcs), default=0)
    branching = max(
        (len(graph.children(node)) for node in graph.nodes()), default=0
    )
    blockable_reductions = sum(1 for a in reductions if a.blockable)
    return (
        float(len(arcs)),
        float(len(retrievals)),
        float(len(reductions)),
        float(depth),
        float(branching),
        float(blockable_reductions),
        float(graph.total_cost),
    )


def form_profile(
    graph: InferenceGraph, form: Optional[QueryForm] = None
) -> FormProfile:
    """Profile a compiled form (``form=None`` for synthetic graphs)."""
    import hashlib  # only the experience subsystem profiles forms

    if form is not None:
        predicate, arity, pattern = form.predicate, form.arity, form.pattern
    else:
        predicate = graph.root.name
        arity = 0
        pattern = ""
    shape = _shape(graph, graph.root)
    labels = tuple(sorted(_arc_label(arc) for arc in graph.arcs()))
    features = _features(graph)
    canonical = json.dumps(
        {
            "predicate": predicate,
            "arity": arity,
            "pattern": pattern,
            "shape": shape,
            "labels": list(labels),
            "features": list(features),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    fingerprint = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return FormProfile(
        fingerprint=fingerprint,
        predicate=predicate,
        arity=arity,
        pattern=pattern,
        shape=shape,
        labels=labels,
        features=features,
    )


def form_fingerprint(
    graph: InferenceGraph, form: Optional[QueryForm] = None
) -> str:
    """Shorthand for ``form_profile(graph, form).fingerprint``."""
    return form_profile(graph, form).fingerprint


def _dice(left: Tuple[str, ...], right: Tuple[str, ...]) -> float:
    """Sørensen–Dice coefficient over two sorted label multisets."""
    if not left and not right:
        return 1.0
    overlap = 0
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            overlap += 1
            i += 1
            j += 1
        elif left[i] < right[j]:
            i += 1
        else:
            j += 1
    return 2.0 * overlap / (len(left) + len(right))


def _feature_closeness(
    left: Tuple[float, ...], right: Tuple[float, ...]
) -> float:
    """Mean per-feature min/max ratio (1.0 when identical)."""
    if len(left) != len(right) or not left:
        return 0.0
    total = 0.0
    for x, y in zip(left, right):
        lo, hi = min(x, y), max(x, y)
        total += 1.0 if hi == 0.0 else (0.0 if lo < 0.0 else lo / hi)
    return total / len(left)


def similarity(left: FormProfile, right: FormProfile) -> float:
    """The blended structural similarity of two profiles in [0, 1].

    The *pattern* component is 1.0 on an exact skeleton match
    (identical shape and adornment) and degrades to the Dice overlap
    of the arc-label multisets otherwise; the *feature* component is
    the closeness of the coarse structural statistics.  The blend is
    querytorque's ``0.7 * pattern + 0.3 * similarity``.
    """
    if left.fingerprint == right.fingerprint:
        return 1.0
    if left.shape == right.shape and left.pattern == right.pattern:
        pattern_component = 1.0
    else:
        pattern_component = _dice(left.labels, right.labels)
        if left.pattern != right.pattern:
            pattern_component *= 0.9
    feature_component = _feature_closeness(left.features, right.features)
    return (
        DEFAULT_PATTERN_WEIGHT * pattern_component
        + DEFAULT_SIMILARITY_WEIGHT * feature_component
    )
