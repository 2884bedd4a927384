"""Top-down SLD resolution: the paper's query processor substrate.

The query processor of the paper "uses the rules in a rule base to
reduce a given query to a series of attempted retrievals from a
database of facts".  This module implements that reduction:

* :class:`TopDownEngine` performs SLD resolution with the leftmost
  literal selection rule, negation-as-failure for ground negated
  subgoals, a depth bound (whose cuts the trace counts, so a truncated
  search is never mistaken for a refutation), and a pluggable
  *rule-ordering policy* (the ordering is exactly the strategic choice
  PIB and PAO learn);
* :class:`CostModel` charges each rule reduction and each attempted
  retrieval, reproducing the paper's unit-cost accounting
  ("assume that each reduction … and each atomic retrieval costs 1
  unit");
* :class:`ProofTrace` records every attempted retrieval and its
  outcome — the only statistics PIB and PAO ever need (Section 5.1:
  "recording (at most) the number of times a query processor attempts
  each database retrieval and how often that retrieval succeeds").

The satisficing entry point is :meth:`TopDownEngine.prove`; the
all-answers generator :meth:`TopDownEngine.answers` supports the
substrate tests and the first-``k`` variant of Section 5.2.

Reduction attempts run over the compiled
:class:`~repro.datalog.rules.RulePlan` of each rule: the goal is
unified against the plan's positional head slots directly, and fresh
variables are minted only for body slots the goal left unbound.  This
replaces the original per-attempt ``rename_apart`` + ``unify`` +
``Substitution`` churn, which dominated the engine profile, while
charging the identical cost and producing the identical trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .database import Database
from .rules import Rule, RuleBase
from .terms import (
    EMPTY_SUBSTITUTION,
    Atom,
    Substitution,
    Term,
    Variable,
    _variant_key,
    variables_of,
)
from .unify import fresh_variable_factory

__all__ = ["CostModel", "RetrievalEvent", "ProofTrace", "Answer", "TopDownEngine"]

#: A rule-ordering policy: given the goal and the candidate rules, return
#: the rules in the order they should be tried.  The default preserves
#: rule-base order (the paper's depth-first left-to-right strategies).
RuleOrder = Callable[[Atom, Sequence[Rule]], Sequence[Rule]]


@dataclass(frozen=True)
class CostModel:
    """Charges for the two unit operations of the paper's cost model.

    ``reduction_cost`` is paid each time a rule is used to reduce a
    goal to its body; ``retrieval_cost`` is paid for each *attempted*
    database retrieval, successful or not.  Both default to the paper's
    1 unit.  ``retrieval_cost`` may be a mapping from predicate name to
    cost for non-uniform access paths.
    """

    reduction_cost: float = 1.0
    retrieval_cost: float = 1.0
    per_predicate_retrieval: Optional[Dict[str, float]] = None

    def reduction(self, rule: Rule) -> float:
        return self.reduction_cost

    def retrieval(self, goal: Atom) -> float:
        if self.per_predicate_retrieval is not None:
            return self.per_predicate_retrieval.get(
                goal.predicate, self.retrieval_cost
            )
        return self.retrieval_cost


@dataclass(frozen=True)
class RetrievalEvent:
    """One attempted retrieval: the instantiated goal and its outcome."""

    goal: Atom
    succeeded: bool
    cost: float


@dataclass
class ProofTrace:
    """Everything observed while processing one query.

    ``cost`` is the total charged cost; ``retrievals`` lists each
    attempted retrieval in order; ``reductions`` counts rule uses;
    ``truncations`` counts the branches the engine's depth bound cut.
    A search with any truncation is *truncated*: its "no" (and any
    answer set it enumerated) may miss what a deeper search finds.
    """

    cost: float = 0.0
    retrievals: List[RetrievalEvent] = field(default_factory=list)
    reductions: int = 0
    truncations: int = 0

    def record_retrieval(self, goal: Atom, succeeded: bool, cost: float) -> None:
        self.retrievals.append(RetrievalEvent(goal, succeeded, cost))
        self.cost += cost

    def record_reduction(self, cost: float) -> None:
        self.reductions += 1
        self.cost += cost

    def success_counts(self) -> Dict[Tuple[str, int], Tuple[int, int]]:
        """Per-signature ``(attempts, successes)`` counters.

        These are exactly the counters PIB maintains per retrieval.
        Counters are keyed by the full ``(predicate, arity)``
        signature: ``p/1`` and ``p/2`` are distinct retrievals and
        their statistics must never collide.
        """
        counts: Dict[Tuple[str, int], Tuple[int, int]] = {}
        for event in self.retrievals:
            signature = event.goal.signature
            attempts, successes = counts.get(signature, (0, 0))
            counts[signature] = (
                attempts + 1,
                successes + (1 if event.succeeded else 0),
            )
        return counts


@dataclass(frozen=True)
class Answer:
    """A satisficing answer: the binding found and the trace behind it.

    ``substitution`` is restricted to the query's own variables;
    ``proved`` is ``False`` for the "no" answer (trace still populated:
    a failed search has a cost, which is what the learners care about).
    """

    proved: bool
    substitution: Substitution
    trace: ProofTrace


#: A pending subgoal on the resolution stack: the (possibly non-ground)
#: atom, its polarity, and the canonical keys of its branch ancestors.
_Goal = Tuple[Atom, bool, FrozenSet[tuple]]


def _deref(term: Term, outer: Dict[Variable, Term]) -> Term:
    """Follow goal-variable bindings made during one head unification."""
    while type(term) is Variable:
        bound = outer.get(term)
        if bound is None:
            return term
        term = bound
    return term


class TopDownEngine:
    """SLD resolution over a rule base with pluggable rule ordering.

    The engine treats predicates with no defining rules as extensional
    (database retrievals); predicates defined by rules are reduced.  A
    predicate that has both rules and facts is tried against the rules
    *and* the database, rules first, mirroring the inference-graph view
    where a goal node can have both reduction and retrieval arcs.
    """

    def __init__(
        self,
        rule_base: RuleBase,
        cost_model: Optional[CostModel] = None,
        rule_order: Optional[RuleOrder] = None,
        max_depth: int = 64,
    ):
        self.rule_base = rule_base
        self.cost_model = cost_model or CostModel()
        self.rule_order = rule_order or (lambda goal, rules: rules)
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        # One factory for the engine's lifetime: fresh variables must
        # never collide across recursion depths of a single proof.
        self._factory = fresh_variable_factory()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def prove(self, query: Atom, database: Database) -> Answer:
        """Satisficing search: return the first answer found, with trace.

        This is the paper's query-processor run: follow rules and
        attempt retrievals, in strategy order, until one derivation
        succeeds or the space is exhausted.
        """
        trace = ProofTrace()
        for substitution in self._solve(
            [(query, True, frozenset())],
            EMPTY_SUBSTITUTION, database, trace, self.max_depth,
        ):
            answer = substitution.restrict(variables_of(query))
            return Answer(True, answer, trace)
        return Answer(False, EMPTY_SUBSTITUTION, trace)

    def answers(
        self, query: Atom, database: Database, limit: Optional[int] = None
    ) -> Iterator[Answer]:
        """Yield up to ``limit`` distinct answers (first-k of Section 5.2).

        Each yielded :class:`Answer` shares one cumulative trace, so the
        trace cost after consuming ``k`` answers is the cost of the
        first-``k`` search.
        """
        trace = ProofTrace()
        seen = set()
        produced = 0
        for substitution in self._solve(
            [(query, True, frozenset())],
            EMPTY_SUBSTITUTION, database, trace, self.max_depth,
        ):
            answer = substitution.restrict(variables_of(query))
            key = answer.apply(query)
            if key in seen:
                continue
            seen.add(key)
            yield Answer(True, answer, trace)
            produced += 1
            if limit is not None and produced >= limit:
                return

    def holds(self, query: Atom, database: Database) -> bool:
        """Boolean convenience wrapper over :meth:`prove`."""
        return self.prove(query, database).proved

    # ------------------------------------------------------------------
    # Resolution core
    # ------------------------------------------------------------------

    def _reduce(
        self, rule: Rule, goal: Atom, ancestry: FrozenSet[tuple]
    ) -> Optional[Tuple[Substitution, List[_Goal]]]:
        """Attempt one rule reduction of ``goal`` via the compiled plan.

        Returns ``None`` when the head does not unify; otherwise the
        unifier restricted to the *goal's* variables plus the
        instantiated body as new pending goals.  Fresh variables are
        created only for plan slots the goal left unbound.
        """
        plan = rule.plan
        slots: List[Optional[Term]] = [None] * plan.nslots
        outer: Dict[Variable, Term] = {}

        for spec, garg in zip(plan.head_args, goal.args):
            if outer and type(garg) is Variable:
                garg = _deref(garg, outer)
            if type(spec) is int:
                cur = slots[spec]
                if cur is None:
                    slots[spec] = garg
                    continue
                if outer and type(cur) is Variable:
                    cur = _deref(cur, outer)
                if cur is garg or cur == garg:
                    continue
                if type(garg) is Variable:
                    outer[garg] = cur
                elif type(cur) is Variable:
                    outer[cur] = garg
                    slots[spec] = garg
                else:
                    return None  # two distinct constants
            else:  # head position is a constant
                if type(garg) is Variable:
                    outer[garg] = spec
                elif garg != spec:
                    return None

        if outer:
            for var, term in outer.items():
                while type(term) is Variable and term in outer:
                    term = outer[term]
                outer[var] = term
            unifier = Substitution._resolved(outer)
        else:
            unifier = EMPTY_SUBSTITUTION

        factory = self._factory
        body: List[_Goal] = []
        for lp in plan.body:
            args: List[Term] = []
            for spec in lp.args:
                if type(spec) is int:
                    value = slots[spec]
                    if value is None:
                        # First body occurrence of an unbound slot:
                        # mint one fresh variable, shared thereafter.
                        value = slots[spec] = factory(plan.slot_vars[spec].name)
                    args.append(value)
                else:
                    args.append(spec)
            body.append((Atom._make(lp.predicate, tuple(args)), lp.positive,
                         ancestry))
        return unifier, body

    def _solve(
        self,
        goals: List[_Goal],
        bindings: Substitution,
        database: Database,
        trace: ProofTrace,
        depth: int,
    ) -> Iterator[Substitution]:
        """Prove the conjunction ``goals`` under ``bindings`` (generator).

        Each pending goal carries the variant keys of its *branch
        ancestors*; a selected subgoal that is a variant of one of them
        is pruned (the standard Datalog loop check — any proof through
        a repeated variant subgoal has a shorter proof without it), so
        recursive rule bases terminate without relying on the depth
        bound.
        """
        if not goals:
            yield bindings
            return
        if depth <= 0:
            # The bound cuts this branch: say so on the trace, so the
            # caller can tell a truncated "no" from a refutation.
            trace.truncations += 1
            return

        pending, positive, ancestry = goals[0]
        goal = pending.substitute(bindings)
        rest = goals[1:]

        if not positive:
            yield from self._solve_negation(
                goal, rest, bindings, database, trace, depth
            )
            return

        key = _variant_key(goal)
        if key in ancestry:
            return  # variant loop: this branch cannot make progress
        child_ancestry = ancestry | {key}
        rules = self.rule_base.rules_for(goal)

        # Rule reductions first (inference-graph order: reduction arcs
        # above retrieval arcs), then the database retrieval if the
        # relation is extensional or mixed.
        for rule in self.rule_order(goal, rules):
            reduced = self._reduce(rule, goal, child_ancestry)
            if reduced is None:
                continue
            unifier, body = reduced
            trace.record_reduction(self.cost_model.reduction(rule))
            yield from self._solve(
                body + rest, bindings.compose(unifier), database, trace,
                depth - 1,
            )

        if not rules or goal.signature in database.signatures():
            cost = self.cost_model.retrieval(goal)
            found = False
            compose = bindings.compose
            for fact_binding in database.retrieve(goal):
                if not found:
                    trace.record_retrieval(goal, True, cost)
                    found = True
                yield from self._solve(
                    rest, compose(fact_binding), database, trace, depth
                )
            if not found:
                trace.record_retrieval(goal, False, cost)

    def _solve_negation(
        self,
        atom: Atom,
        rest: List[_Goal],
        bindings: Substitution,
        database: Database,
        trace: ProofTrace,
        depth: int,
    ) -> Iterator[Substitution]:
        """Negation-as-failure: succeed iff the subgoal has no proof.

        Free variables remaining in the subgoal are read as
        existentially quantified *inside* the negation (the rule safety
        check guarantees they are local to the literal), so
        ``not owns(x, Y)`` succeeds iff ``x`` owns nothing.  The inner
        satisficing search is itself the pattern Section 5.2
        highlights — one owned item suffices to refute pauperhood.  An
        inner search the depth bound cut proves nothing either way, so
        the negation fails then too: it never succeeds on a truncated
        refutation.
        """
        cut = trace.truncations
        for _ in self._solve(
            [(atom, True, frozenset())],
            EMPTY_SUBSTITUTION, database, trace, depth - 1,
        ):
            return  # a proof exists, so the negation fails
        if trace.truncations == cut:
            yield from self._solve(rest, bindings, database, trace, depth)
