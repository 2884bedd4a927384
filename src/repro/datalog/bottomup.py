"""Bottom-up Datalog evaluation: naive and semi-naive, with stratified
negation.

The paper's query processor is top-down, but a reproduction needs a
ground-truth oracle: bottom-up evaluation computes the *complete* model
of the program, so the substrate tests can check that the satisficing
top-down engine answers "yes" exactly when the model contains a
matching fact, and the benchmarks can report the engine-level speedup
satisficing search buys over exhaustive evaluation.

Semi-naive evaluation is the standard delta-driven fixpoint [BR86]; the
naive fixpoint is retained both as the correctness oracle for the
semi-naive one (property-tested equal) and as a baseline in the engine
bench.

Rule joins run over the compiled
:class:`~repro.datalog.rules.RulePlan`: body literals are joined
through the database's per-argument hash indexes into a positional
slot array (no ``Substitution`` objects, no per-level atom
re-substitution), and the join order is chosen greedily by
bound-position selectivity — most bound positions first, smaller
relation on ties — which is deterministic and independent of hash
seeds.  The join reads only a matched fact's arguments, so it probes
through the store's row probe and builds no :class:`Atom` per match.

The model is an in-memory :class:`Database` seeded from the store's
rows (``FactStore._relations``), its control plane: building it never
probes the store, so no fault or dark shard can drop a fact from it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import EvaluationError
from ..storage.interface import FactStore
from .database import Database
from .rules import LiteralPlan, Rule, RuleBase
from .terms import Atom

__all__ = ["naive_evaluate", "seminaive_evaluate", "BottomUpEngine"]


def _join_order(
    positives: Tuple[LiteralPlan, ...], facts: Database
) -> Tuple[LiteralPlan, ...]:
    """Greedy bound-position-selectivity join order.

    Repeatedly pick the literal with the most bound argument positions
    (constants, or slots bound by already-ordered literals); break ties
    toward the smaller relation, then original body order.  Fully
    deterministic: no hash-order input reaches the choice.
    """
    if len(positives) <= 1:
        return positives
    remaining = list(enumerate(positives))
    bound_slots: set = set()
    ordered: List[LiteralPlan] = []
    while remaining:
        best_at = 0
        best_key: Optional[Tuple[int, int, int]] = None
        for at, (index, lp) in enumerate(remaining):
            bound = sum(
                1 for spec in lp.args
                if type(spec) is not int or spec in bound_slots
            )
            key = (-bound, facts.count(*lp.signature), index)
            if best_key is None or key < best_key:
                best_key = key
                best_at = at
        _, chosen = remaining.pop(best_at)
        ordered.append(chosen)
        for spec in chosen.args:
            if type(spec) is int:
                bound_slots.add(spec)
    return tuple(ordered)


def _join_rule(rule: Rule, facts: Database, required: Optional[Database] = None,
               negatives: Optional[Database] = None) -> Iterator[Atom]:
    """All head instances derivable from ``rule`` over ``facts``.

    When ``required`` is given (semi-naive delta, a :class:`Database`),
    at least one positive body literal must match a fact in it.
    Negated literals are checked against ``negatives`` (the finished
    lower strata) — callers guarantee stratification, so this is
    sound.
    """
    negatives = negatives if negatives is not None else facts
    plan = rule.plan
    positives = _join_order(plan.positive, facts)
    negateds = plan.negated
    slots: List[Optional[object]] = [None] * plan.nslots
    slot_vars = plan.slot_vars
    n_positive = len(positives)
    rows_matching = facts._rows_matching
    # The delta's rows of each positive literal's relation (``required``
    # is a plain Database, unchanged while the join runs).
    delta_rows = None if required is None else [
        required._facts.get(lp.signature, ()) for lp in positives
    ]

    def blocked_by_negation() -> bool:
        for lp in negateds:
            args: List[object] = []
            ground = True
            for spec in lp.args:
                if type(spec) is int:
                    value = slots[spec]
                    if value is None:
                        # Existential local variable: blocked iff any
                        # fact matches the partially bound goal.
                        value = slot_vars[spec]
                        ground = False
                    args.append(value)
                else:
                    args.append(spec)
            goal = Atom._make(lp.predicate, tuple(args))
            if not ground:
                if negatives.succeeds(goal):
                    return True
            elif goal in negatives:
                return True
        return False

    def join(level: int, used_delta: bool) -> Iterator[bool]:
        if level == n_positive:
            if required is not None and not used_delta:
                return
            if not blocked_by_negation():
                yield True
            return
        lp = positives[level]
        specs = lp.args
        args = []
        for spec in specs:
            if type(spec) is int:
                value = slots[spec]
                args.append(value if value is not None else slot_vars[spec])
            else:
                args.append(spec)
        pattern = Atom._make(lp.predicate, tuple(args))
        for row in rows_matching(pattern):
            bound_here: List[int] = []
            for spec, f_arg in zip(specs, row):
                if type(spec) is int and slots[spec] is None:
                    slots[spec] = f_arg
                    bound_here.append(spec)
            in_delta = used_delta or (
                delta_rows is not None and row in delta_rows[level])
            yield from join(level + 1, in_delta)
            for spec in bound_here:
                slots[spec] = None

    head_predicate = rule.head.predicate
    head_args = plan.head_args
    for _ in join(0, False):
        args = []
        for spec in head_args:
            if type(spec) is int:
                value = slots[spec]
                if value is None:
                    raise EvaluationError(
                        f"derived non-ground head from {rule}"
                    )
                args.append(value)
            else:
                args.append(spec)
        yield Atom._make(head_predicate, tuple(args))


def _strata_rules(rule_base: RuleBase) -> List[List[Rule]]:
    """Group rules by the stratum of their head predicate."""
    strata = rule_base.stratification()
    level_of: Dict[Tuple[str, int], int] = {}
    for level, signatures in enumerate(strata):
        for signature in signatures:
            level_of[signature] = level
    grouped: List[List[Rule]] = [[] for _ in strata]
    for rule in rule_base:
        grouped[level_of[rule.head.signature]].append(rule)
    return grouped


def naive_evaluate(rule_base: RuleBase, database: FactStore) -> Database:
    """Naive fixpoint: repeat all rules until nothing new derives.

    Returns a new database containing the EDB facts plus every
    derivable IDB fact, stratum by stratum.
    """
    model = Database(database._relations())
    for rules in _strata_rules(rule_base):
        changed = True
        while changed:
            changed = False
            for rule in rules:
                for head in list(_join_rule(rule, model)):
                    if model.add(head):
                        changed = True
    return model


def seminaive_evaluate(rule_base: RuleBase, database: FactStore) -> Database:
    """Semi-naive fixpoint: only re-derive through last round's deltas."""
    model = Database(database._relations())
    for rules in _strata_rules(rule_base):
        # Seed round: full join within the stratum.
        delta = Database()
        for rule in rules:
            for head in list(_join_rule(rule, model)):
                if head not in model:
                    delta.add(head)
        model.update(delta)
        while len(delta):
            new_delta = Database()
            for rule in rules:
                for head in list(_join_rule(rule, model, required=delta)):
                    if head not in model:
                        new_delta.add(head)
            model.update(new_delta)
            delta = new_delta
    return model


class BottomUpEngine:
    """Query interface over a materialized bottom-up model.

    Evaluation is lazy and kept per store *state*: the first query
    against a store pays for the fixpoint, later ones are index
    lookups.  The model is the store's derived state for this engine
    (``FactStore._derived_state``), built at one generation: a mutated
    store is re-evaluated on its next query instead of returning a
    stale model, and the model lives as long as the store.
    """

    def __init__(self, rule_base: RuleBase, seminaive: bool = True):
        self.rule_base = rule_base
        self.seminaive = seminaive

    def model(self, database: FactStore) -> Database:
        """The full model of the program over ``database`` (kept)."""
        evaluate = seminaive_evaluate if self.seminaive else naive_evaluate
        return database._derived_state(
            self, lambda: evaluate(self.rule_base, database)
        )

    def holds(self, query: Atom, database: Database) -> bool:
        """Whether any instance of ``query`` is in the model."""
        return self.model(database).succeeds(query)

    def answers(self, query: Atom, database: Database) -> List["object"]:
        """All bindings of ``query``'s variables in the model."""
        return list(self.model(database).retrieve(query))
