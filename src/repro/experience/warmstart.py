"""Warm-starting a fresh learner from stored experience — priors only.

The whole contract of this module fits in one sentence: a warm start
may choose *where the hill-climb begins*, never *how it proceeds*.
:func:`warm_start` returns an initial strategy Θ₀; the learner's Δ̃
accumulators, ``total_tests`` counter, and the Theorem 1 δ_i schedule
all start cold, exactly as they would without experience.  Theorem 1
is indifferent to Θ₀ (the anytime guarantee holds from any legal
starting strategy), so correctness is untouched and the only effect
of a good prior is fewer samples spent climbing ground the previous
session already covered.

Strategy transfer works at two fidelities:

* **Exact fingerprint match** — the recorded retrieval-arc names all
  exist in the new graph, so the settled strategy is replayed
  verbatim via :meth:`Strategy.from_retrieval_order`.
* **Structural neighbour** — arc names differ, but the recorded
  *positional* ranks (declaration-order indices of the retrievals, in
  visit order) map onto the new graph's retrievals.  Indices past the
  new graph's retrieval count are dropped and unranked retrievals
  append in declaration order, so the result is always a legal
  permutation.

Either way the result is a legal path-structured strategy for the new
graph — :meth:`Strategy.from_retrieval_order` validates that — or the
warm start is skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..graphs.inference_graph import InferenceGraph
from ..strategies.strategy import Strategy
from .fingerprint import FormProfile
from .store import ExperienceRecord, ExperienceStore

__all__ = [
    "WarmStart",
    "warm_start",
    "record_from_learner",
]

#: Minimum blended similarity for a stored record to seed a session's
#: learner; below it the form starts cold.
SIMILARITY_FLOOR = 0.5


@dataclass(frozen=True)
class WarmStart:
    """A prior the store produced for one form: Θ₀ plus provenance."""

    strategy: Strategy
    #: Fingerprint of the contributing record (the neighbour, not
    #: necessarily this form).
    source_fingerprint: str
    source_form: str
    similarity: float
    exact: bool

    @property
    def distance(self) -> float:
        """``1 - similarity``; what the observability layer histograms."""
        return max(0.0, 1.0 - self.similarity)


def _strategy_from_record(
    graph: InferenceGraph, record: ExperienceRecord, exact: bool
) -> Optional[Strategy]:
    retrievals = graph.retrieval_arcs()
    if not retrievals:
        return None
    names = [arc.name for arc in retrievals]
    if exact and set(record.retrieval_names) == set(names):
        order = list(record.retrieval_names)
    else:
        order = [
            names[rank]
            for rank in record.retrieval_ranks
            if rank < len(names)
        ]
        seen = set(order)
        order.extend(name for name in names if name not in seen)
    try:
        return Strategy.from_retrieval_order(graph, order)
    except ValueError:
        return None


def warm_start(
    store: ExperienceStore,
    profile: FormProfile,
    graph: InferenceGraph,
    k: int = 3,
    floor: float = 0.0,
) -> Optional[WarmStart]:
    """The best applicable prior for ``profile``, or ``None``.

    Neighbours are tried best-first (the store's ordering is
    deterministic); the first whose recorded strategy maps onto
    ``graph`` as a legal path-structured strategy wins.  Returning
    ``None`` means "start cold" — never an error.
    """
    for neighbour in store.nearest(profile, k=k, floor=floor):
        strategy = _strategy_from_record(
            graph, neighbour.record, exact=neighbour.exact
        )
        if strategy is not None:
            return WarmStart(
                strategy=strategy,
                source_fingerprint=neighbour.record.fingerprint,
                source_form=neighbour.record.form,
                similarity=neighbour.score,
                exact=neighbour.exact,
            )
    return None


def record_from_learner(
    profile: FormProfile,
    form: str,
    learner,
    regime: int = 0,
) -> Optional[ExperienceRecord]:
    """Distil a finished learner's settled outcome into a record.

    ``learner`` is a :class:`~repro.learning.pib.PIB` (duck-typed so
    drift-aware subclasses and test doubles work).  A learner that
    never processed a context has nothing to teach and yields
    ``None``.
    """
    contexts = getattr(learner, "contexts_processed", 0)
    if contexts <= 0:
        return None
    strategy = learner.strategy
    graph = learner.graph
    declaration = {
        arc.name: index
        for index, arc in enumerate(graph.retrieval_arcs())
    }
    visit = strategy.retrieval_order()
    if not visit or any(arc.name not in declaration for arc in visit):
        return None
    delta_tilde = sum(
        climb.estimated_gain for climb in getattr(learner, "history", ())
    )
    return ExperienceRecord(
        fingerprint=profile.fingerprint,
        form=form,
        regime=regime,
        retrieval_names=tuple(arc.name for arc in visit),
        retrieval_ranks=tuple(declaration[arc.name] for arc in visit),
        delta_tilde=delta_tilde,
        sample_count=contexts,
        profile=profile,
    )

