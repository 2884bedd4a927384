"""Query-Subquery Nets: goal-directed set-at-a-time evaluation.

The third evaluation strategy, after top-down SLD resolution
(:mod:`repro.datalog.engine`) and bottom-up fixpoints
(:mod:`repro.datalog.bottomup`).  QSQ-nets [arXiv:1201.2564] evaluate a
query *goal-directedly* like the top-down engine — only subqueries
reachable from the user's query are ever explored — but
*set-at-a-time* like the bottom-up engine: every derived fact is
tabled in a global answer relation per predicate, so recursion
terminates without loop checks or depth bounds.

The net:

* an **input relation** per predicate holds the registered subqueries
  (goal patterns), canonicalized so that variants collapse to one
  entry — the adornment structure of the QSQ literature;
* an **answer relation** per predicate tables every derived fact, all
  of them held in one indexed :class:`Database` per net state;
* per rule, a compiled :class:`_RuleNet` of edges — one per body
  literal, classified once as extensional or intensional, positive or
  negated — through which an *activation* propagates a subquery
  left-to-right, joining each edge against the database (extensional)
  or the answer relation (intensional) and registering child
  subqueries as it goes.

Evaluation drains a fixpoint: activations run until no activation
derives a new answer or registers a new subquery.  Stratified negation
falls back to tuple-at-a-time: when an activation reaches a negated
edge, the (partially) bound goal's *own* subquery is registered and
the strictly-lower strata are drained to completion before the
emptiness test — sound because stratification guarantees the negated
predicate's stratum lies strictly below the head's.

Everything rides the hot-path machinery of the other engines: rules
are joined through their compiled
:class:`~repro.datalog.rules.RulePlan` slot arrays, stored facts and
tabled answers alike are enumerated as argument rows through the
store's row probe (``_rows_matching``, the match loop behind
:meth:`Database.facts_matching` with no :class:`Atom` per fact) — so an
intensional edge probes the answers' tightest index bucket, not the
whole relation — and atoms are built with the trusted
:meth:`Atom._make` constructor.  All iteration
runs over insertion-ordered dicts, so answer enumeration order and
billed probe counts are byte-identical across ``PYTHONHASHSEED``
values.  Answer-relation probes are the net's own bookkeeping and are
never billed.

Like the bottom-up model, net state is kept in the store, built at
one generation (``FactStore._derived_state``): repeat queries against
an unmutated store reuse the tabled answers, a mutation invalidates
the whole net.  A drain whose probes saw a dark shard filled partial
tables, so the net is dropped after it, whether or not a probe window
was open: the store's count of dark probes moved during the drain.
Inside a window the answer is already flagged partial by the window.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .database import Database
from .engine import Answer, CostModel, ProofTrace
from .rules import LiteralPlan, Rule, RuleBase
from .terms import Atom, Constant, Substitution, Term, Variable

__all__ = ["QSQNEngine"]

#: Edge kinds, fixed at net-compile time from the rule base alone.
_EDB = 0       # extensional: join against the fact database
_IDB = 1       # intensional: register subquery, join against answers
_NEG_EDB = 2   # negated extensional: satisficing database probe
_NEG_IDB = 3   # negated intensional: drain lower strata, then test


class _RuleNet:
    """One rule compiled to net edges: the per-rule node/edge structure.

    ``edges`` lists the body literals in processing order — positive
    literals first (original body order), then negated literals — each
    tagged with its compile-time kind.  Processing negations after all
    positives mirrors the bottom-up join, so a negated literal's
    non-local variables are bound before the emptiness test no matter
    where the literal sits in the source rule.
    """

    __slots__ = ("rule", "plan", "edges")

    def __init__(self, rule: Rule, idb) -> None:
        self.rule = rule
        self.plan = rule.plan
        edges: List[Tuple[int, LiteralPlan]] = []
        for lp in self.plan.positive:
            edges.append((_IDB if lp.signature in idb else _EDB, lp))
        for lp in self.plan.negated:
            edges.append((_NEG_IDB if lp.signature in idb else _NEG_EDB, lp))
        self.edges = tuple(edges)


class _NetState:
    """The mutable net state for one database state.

    ``input`` maps each predicate signature to its registered
    subqueries (canonical key -> representative pattern atom), in
    insertion-ordered dicts; ``ans`` is a :class:`Database` tabling the
    derived facts of every predicate, so its probes enumerate in
    insertion order and prune by bound positions.
    ``version`` counts net growth events (new answer or new subquery);
    ``processed`` memoizes, per (signature, key, rule index), the
    version at which the activation last ran, so the fixpoint loop
    skips activations whose inputs cannot have changed.
    """

    __slots__ = ("input", "ans", "version", "processed", "activations")

    def __init__(self) -> None:
        self.input: Dict[Tuple[str, int], Dict[tuple, Atom]] = {}
        self.ans = Database()
        self.version = 0
        self.processed: Dict[Tuple[Tuple[str, int], tuple, int], int] = {}
        self.activations = 0


class QSQNEngine:
    """Goal-directed set-at-a-time evaluation over a QSQ-net.

    The public surface matches the other two engines — :meth:`prove`,
    :meth:`answers`, :meth:`holds` — and bills the same unit-cost
    model: one reduction per rule activation, one retrieval per
    database probe.  Mixed predicates (rules *and* stored facts) take
    answers from both sources, matching the inference-graph view the
    top-down engine and the bottom-up model share.
    """

    def __init__(
        self,
        rule_base: RuleBase,
        cost_model: Optional[CostModel] = None,
    ):
        self.rule_base = rule_base
        self.cost_model = cost_model or CostModel()
        self._idb = rule_base.idb_predicates()
        # Net compilation: one _RuleNet per rule, grouped by head
        # signature in rule-base order.
        self._net: Dict[Tuple[str, int], List[_RuleNet]] = {}
        for rule in rule_base:
            self._net.setdefault(rule.head.signature, []).append(
                _RuleNet(rule, self._idb)
            )
        # Stratum levels gate the nested drains under negation.  The
        # stratification raises on non-stratifiable rule bases, the
        # same contract the bottom-up engine enforces.
        self._level: Dict[Tuple[str, int], int] = {}
        for level, signatures in enumerate(rule_base.stratification()):
            for signature in signatures:
                self._level[signature] = level
        self._top_level = max(self._level.values(), default=0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def prove(self, query: Atom, database: Database) -> Answer:
        """Satisficing entry point: the first tabled answer, with trace."""
        trace = ProofTrace()
        for row in self._answer_rows(query, database, trace):
            return Answer(True, self._binding(query, row), trace)
        return Answer(False, Substitution(), trace)

    def answers(
        self, query: Atom, database: Database, limit: Optional[int] = None
    ) -> Iterator[Answer]:
        """Yield up to ``limit`` distinct answers, sharing one trace."""
        trace = ProofTrace()
        produced = 0
        for row in self._answer_rows(query, database, trace):
            yield Answer(True, self._binding(query, row), trace)
            produced += 1
            if limit is not None and produced >= limit:
                return

    def holds(self, query: Atom, database: Database) -> bool:
        """Boolean convenience wrapper over :meth:`prove`."""
        return self.prove(query, database).proved

    # ------------------------------------------------------------------
    # Net evaluation
    # ------------------------------------------------------------------

    def _answer_rows(
        self, query: Atom, database: Database, trace: ProofTrace
    ) -> Iterator[tuple]:
        """The argument rows of the ground instances of ``query``:
        database facts first (for extensional and mixed predicates),
        then tabled answers, both in insertion order, deduplicated."""
        signature = query.signature
        state = database._derived_state(self, _NetState)
        if signature in self._idb:
            self._register(state, signature, query)
            # A store with no shard to go dark counts no dark probe.
            dark = getattr(database, "dark_probes", 0)
            self._drain(state, database, trace, self._top_level)
            if getattr(database, "dark_probes", 0) != dark:
                database._drop_derived(self)
        seen: Dict[tuple, None] = {}
        if signature not in self._net or signature in database.signatures():
            cost = self.cost_model.retrieval(query)
            found = False
            for row in database._rows_matching(query):
                if not found:
                    trace.record_retrieval(query, True, cost)
                    found = True
                seen[row] = None
                yield row
            if not found:
                trace.record_retrieval(query, False, cost)
        for row in list(state.ans._rows_matching(query)):
            if row not in seen:
                seen[row] = None
                yield row

    @staticmethod
    def _binding(query: Atom, row: tuple) -> Substitution:
        """The substitution sending ``query`` to the fact with arguments
        ``row``, restricted to the query's variables (consistency
        already checked)."""
        bindings: Dict[Variable, Term] = {}
        for q_arg, f_arg in zip(query.args, row):
            if type(q_arg) is Variable and q_arg not in bindings:
                bindings[q_arg] = f_arg
        return Substitution._resolved(bindings)

    @staticmethod
    def _canonical(pattern: Atom) -> tuple:
        """The relaxed canonical subquery key: constants stay, every
        variable position becomes the free marker.

        Relaxation (dropping repeated-variable constraints from the
        *subquery*, never from the rule) is sound — any fact derived
        under the relaxed goal is still a valid consequence of the
        program — and complete, since the relaxed goal subsumes the
        original.  It collapses ``p(X, Y)`` and ``p(X, X)`` into one
        input-relation entry, which is exactly the adorned form."""
        return (pattern.predicate, pattern.arity) + tuple(
            arg if type(arg) is Constant else None for arg in pattern.args
        )

    def _register(
        self, state: _NetState, signature: Tuple[str, int], pattern: Atom
    ) -> None:
        """Add a subquery to the input relation (variant-deduplicated)."""
        key = self._canonical(pattern)
        inputs = state.input.get(signature)
        if inputs is None:
            inputs = state.input[signature] = {}
        if key not in inputs:
            inputs[key] = pattern
            state.version += 1

    def _drain(
        self,
        state: _NetState,
        database: Database,
        trace: ProofTrace,
        upto: int,
    ) -> None:
        """Run activations at strata ``<= upto`` to a fixpoint.

        Deterministic sweep order: registered signatures in insertion
        order, subqueries in registration order, rules in rule-base
        order.  The per-activation version memo keeps the sweep from
        re-running activations whose inputs cannot have grown."""
        changed = True
        while changed:
            changed = False
            for signature in list(state.input):
                if self._level.get(signature, 0) > upto:
                    continue
                nets = self._net.get(signature)
                if not nets:
                    continue
                for key in list(state.input[signature]):
                    pattern = state.input[signature][key]
                    for index, net in enumerate(nets):
                        memo = (signature, key, index)
                        if state.processed.get(memo) == state.version:
                            continue
                        before = state.version
                        self._activate(state, net, pattern, database, trace)
                        # Memoize the version the activation *started*
                        # from: an activation that grew the relations
                        # (even if only through its own emissions) must
                        # run again, since its joins snapshotted the
                        # answer relations before those facts landed.
                        state.processed[memo] = before
                        if state.version != before:
                            changed = True

    def _activate(
        self,
        state: _NetState,
        net: _RuleNet,
        subquery: Atom,
        database: Database,
        trace: ProofTrace,
    ) -> None:
        """Propagate one subquery through one rule's net edges.

        The subquery is unified (relaxed) against the head's slot
        array; the supplementary tuples then flow through the edges by
        a backtracking join that binds slots straight from fact
        argument tuples — the same representation the bottom-up join
        uses, but seeded by the subquery's constants."""
        plan = net.plan
        slots: List[Optional[Term]] = [None] * plan.nslots
        for spec, q_arg in zip(plan.head_args, subquery.args):
            if type(q_arg) is Variable:
                continue  # relaxed: a subquery variable binds nothing
            if type(spec) is int:
                current = slots[spec]
                if current is None:
                    slots[spec] = q_arg
                elif current != q_arg:
                    return  # repeated head slot vs. distinct constants
            elif spec != q_arg:
                return  # head constant conflicts with subquery constant
        state.activations += 1
        trace.record_reduction(self.cost_model.reduction(net.rule))

        slot_vars = plan.slot_vars
        edges = net.edges
        n_edges = len(edges)
        signatures = database.signatures()
        head_predicate = net.rule.head.predicate
        head_args = plan.head_args
        retrieval = self.cost_model.retrieval

        def pattern_for(lp: LiteralPlan) -> Atom:
            args: List[Term] = []
            for spec in lp.args:
                if type(spec) is int:
                    value = slots[spec]
                    args.append(value if value is not None
                                else slot_vars[spec])
                else:
                    args.append(spec)
            return Atom._make(lp.predicate, tuple(args))

        def emit() -> None:
            args: List[Term] = []
            for spec in head_args:
                if type(spec) is int:
                    value = slots[spec]
                    if value is None:
                        # Unreachable for safe rules: every head
                        # variable occurs in a positive body literal.
                        return
                    args.append(value)
                else:
                    args.append(spec)
            if state.ans.add(Atom._make(head_predicate, tuple(args))):
                state.version += 1

        def walk(level: int) -> None:
            if level == n_edges:
                emit()
                return
            kind, lp = edges[level]
            if kind >= _NEG_EDB:
                goal = pattern_for(lp)
                if not self._negation_blocked(
                    state, goal, kind, database, trace
                ):
                    walk(level + 1)
                return
            pattern = pattern_for(lp)
            specs = lp.args

            def extend(row: tuple) -> None:
                bound_here: List[int] = []
                for spec, f_arg in zip(specs, row):
                    if type(spec) is int and slots[spec] is None:
                        slots[spec] = f_arg
                        bound_here.append(spec)
                walk(level + 1)
                for spec in bound_here:
                    slots[spec] = None

            stored = kind == _EDB or lp.signature in signatures
            if stored:
                cost = retrieval(pattern)
                found = False
                for row in database._rows_matching(pattern):
                    if not found:
                        trace.record_retrieval(pattern, True, cost)
                        found = True
                    extend(row)
                if not found:
                    trace.record_retrieval(pattern, False, cost)
            if kind == _IDB:
                self._register(state, lp.signature, pattern)
                # A snapshot: the join may table new answers.
                for row in list(state.ans._rows_matching(pattern)):
                    if stored and Atom._ground(
                            pattern.signature, row) in database:
                        continue  # already joined from the database
                    extend(row)

        walk(0)

    def _negation_blocked(
        self,
        state: _NetState,
        goal: Atom,
        kind: int,
        database: Database,
        trace: ProofTrace,
    ) -> bool:
        """Tuple-at-a-time negation test for one supplementary tuple.

        Unbound positions of ``goal`` are the literal-local existential
        variables the safety check licenses: the negation is blocked
        iff *any* matching instance holds.  For intensional predicates
        the goal's own subquery is registered and the strictly-lower
        strata are drained to completion first, so the answer relation
        is complete for this goal before the emptiness test."""
        if kind == _NEG_IDB:
            signature = goal.signature
            self._register(state, signature, goal)
            self._drain(
                state, database, trace, self._level.get(signature, 0)
            )
            if state.ans.succeeds(goal):
                return True
            if signature not in database.signatures():
                return False
        cost = self.cost_model.retrieval(goal)
        blocked = database.succeeds(goal)
        trace.record_retrieval(goal, blocked, cost)
        return blocked
