"""The evaluation-engine registry: one name per strategy substrate.

The paper's query processor is top-down, but the repo now carries
three independently-derived evaluation strategies over the same rule
base — top-down SLD resolution, bottom-up semi-naive fixpoints, and
query-subquery nets — and the session layer, the CLI (``--engine``),
and the 3-way differential oracle all select between them by name.
This module is that seam: :data:`ENGINE_NAMES` enumerates the
registry, :func:`make_engine` constructs an engine behind the common
``prove`` / ``answers`` / ``holds`` protocol.

The bottom-up engine natively answers with bare substitutions (it is
a model oracle, not a proof search), so :func:`make_engine` wraps it
in :class:`BottomUpProofAdapter`, which bills one retrieval per query
against the materialized model and returns the same
:class:`~repro.datalog.engine.Answer` objects the other two engines
produce.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..datalog.bottomup import BottomUpEngine
from ..datalog.database import Database
from ..datalog.engine import Answer, CostModel, ProofTrace, TopDownEngine
from ..datalog.qsqn import QSQNEngine
from ..datalog.rules import RuleBase
from ..datalog.terms import Atom, Substitution
from ..errors import StrategyError

__all__ = ["ENGINE_NAMES", "BottomUpProofAdapter", "make_engine"]

#: The registered evaluation strategies, in documentation order.
ENGINE_NAMES = ("topdown", "bottomup", "qsqn")


class BottomUpProofAdapter:
    """:class:`BottomUpEngine` behind the proof-engine protocol.

    Each query is answered from the (cached) materialized model; the
    trace bills one retrieval per query — the model lookup — so the
    session layer's cost accounting stays well-defined even though
    bottom-up evaluation has no per-derivation cost story.
    """

    def __init__(
        self,
        rule_base: RuleBase,
        cost_model: Optional[CostModel] = None,
    ):
        self.rule_base = rule_base
        self.cost_model = cost_model or CostModel()
        self._engine = BottomUpEngine(rule_base)

    def prove(self, query: Atom, database: Database) -> Answer:
        trace = ProofTrace()
        cost = self.cost_model.retrieval(query)
        for binding in self._engine.model(database).retrieve(query):
            trace.record_retrieval(query, True, cost)
            return Answer(True, binding, trace)
        trace.record_retrieval(query, False, cost)
        return Answer(False, Substitution(), trace)

    def answers(
        self, query: Atom, database: Database, limit: Optional[int] = None
    ) -> Iterator[Answer]:
        trace = ProofTrace()
        cost = self.cost_model.retrieval(query)
        produced = 0
        for binding in self._engine.model(database).retrieve(query):
            if produced == 0:
                trace.record_retrieval(query, True, cost)
            yield Answer(True, binding, trace)
            produced += 1
            if limit is not None and produced >= limit:
                return
        if produced == 0:
            trace.record_retrieval(query, False, cost)

    def holds(self, query: Atom, database: Database) -> bool:
        return self._engine.holds(query, database)


def make_engine(
    name: str,
    rule_base: RuleBase,
    *,
    max_depth: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
):
    """Construct the named evaluation engine over ``rule_base``.

    ``max_depth`` only applies to the top-down engine (the other two
    need no depth bound: bottom-up is a fixpoint, QSQN tables its
    subqueries); passing it for them is accepted and ignored so
    callers can thread one configuration through uniformly.
    """
    if name == "topdown":
        return TopDownEngine(
            rule_base, cost_model=cost_model, max_depth=max_depth or 64
        )
    if name == "bottomup":
        return BottomUpProofAdapter(rule_base, cost_model=cost_model)
    if name == "qsqn":
        return QSQNEngine(rule_base, cost_model=cost_model)
    raise StrategyError(
        f"unknown engine {name!r}; expected one of {', '.join(ENGINE_NAMES)}"
    )
