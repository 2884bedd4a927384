"""Query-processing contexts and their arc-blocking view.

A context is a pair ``I = ⟨q, DB⟩`` (Section 2.1).  What a strategy's
cost depends on, though, is only *which arcs the context blocks*
(Note 2: contexts partition into equivalence classes identified with
the subset of unblocked arcs).  This module provides:

* :class:`Context` — the symbolic equivalence-class representative: a
  frozen map from blockable arc to blocked/unblocked, optionally
  carrying the concrete query and database it came from;
* :func:`context_from_datalog` — compile a concrete ``⟨query, DB⟩``
  pair into its :class:`Context` by checking every retrieval pattern
  (and blockable reduction) against the database;
* :class:`PartialContext` — what a monitored run actually *observed*
  (PIB sees only the arcs the current strategy attempted), plus the
  pessimistic completion used to compute the under-estimates
  ``Δ̃`` of Section 3;
* :class:`ReadPlan` / :func:`compile_read_plan` — the store read keys
  behind a compiled form's retrieval arcs.  By Note 2 a concrete
  context matters only through those arcs' statuses, so an answer
  computed on the graph stays valid while no fact under the keys
  changes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..errors import GraphError
from ..datalog.database import Database
from ..datalog.rules import QueryForm
from ..datalog.terms import Atom
from ..datalog.unify import unify
from ..storage.interface import ReadKey, probe_key
from .inference_graph import Arc, ArcKind, InferenceGraph

__all__ = [
    "Context",
    "PartialContext",
    "LazyDatalogContext",
    "MemoizedDatalogContext",
    "ReadPlan",
    "context_from_datalog",
    "compile_read_plan",
]


class Context:
    """Blocking statuses for every blockable arc of a graph.

    ``statuses`` maps arc name to ``True`` (traversable) or ``False``
    (blocked).  Non-blockable arcs are implicitly always traversable.
    ``query`` and ``database`` optionally record the concrete context
    the statuses were derived from.
    """

    __slots__ = ("_statuses", "query", "database")

    def __init__(
        self,
        graph: InferenceGraph,
        statuses: Mapping[str, bool],
        query: Optional[Atom] = None,
        database: Optional[Database] = None,
    ):
        resolved: Dict[str, bool] = {}
        for arc in graph.experiments():
            if arc.name not in statuses:
                raise GraphError(
                    f"context is missing a status for blockable arc {arc.name!r}"
                )
            resolved[arc.name] = bool(statuses[arc.name])
        unknown = set(statuses) - set(resolved)
        if unknown:
            raise GraphError(
                f"context assigns statuses to non-blockable arcs: {sorted(unknown)}"
            )
        self._statuses = resolved
        self.query = query
        self.database = database

    def traversable(self, arc: Arc) -> bool:
        """Whether the context lets the query processor traverse ``arc``."""
        if not arc.blockable:
            return True
        return self._statuses[arc.name]

    def attempt(self, arc: Arc) -> Tuple[bool, float]:
        """One attempt at ``arc``: ``(traversable, cost multiplier)``.

        The hook :func:`~repro.strategies.execution.execute` drives
        under a resilience policy: a plain context always answers
        cleanly at unit charge, while
        :class:`~repro.resilience.faults.FlakyContext` overrides this
        to raise :class:`~repro.errors.RetrievalFaultError` transiently
        or to attach a latency (cost) spike.
        """
        return self.traversable(arc), 1.0

    def blocked(self, arc: Arc) -> bool:
        """Whether ``arc`` is blocked in this context."""
        return not self.traversable(arc)

    def statuses(self) -> Dict[str, bool]:
        """A copy of the explicit status map."""
        return dict(self._statuses)

    def unblocked_set(self) -> frozenset:
        """Note 2's equivalence-class key: the set of unblocked arc names."""
        return frozenset(name for name, ok in self._statuses.items() if ok)

    def __eq__(self, other) -> bool:
        return isinstance(other, Context) and self._statuses == other._statuses

    def __hash__(self) -> int:
        return hash(frozenset(self._statuses.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={'ok' if ok else 'blocked'}"
            for name, ok in sorted(self._statuses.items())
        )
        return f"Context({inner})"


class PartialContext:
    """The arc statuses one monitored run revealed.

    PIB watches the *current* strategy only (Section 3: "without
    building Θ₂"), so it knows the status of exactly the arcs that run
    attempted.  :meth:`pessimistic_completion` fills in the unobserved
    arcs the way Section 3.2 prescribes for the under-estimate ``Δ̃``:
    assume the unexplored parts of the graph yield no solution at
    maximal cost — unobserved retrievals blocked, unobserved
    reductions traversable.
    """

    __slots__ = ("graph", "_observed")

    def __init__(self, graph: InferenceGraph,
                 observed: Optional[Mapping[str, bool]] = None):
        self.graph = graph
        self._observed: Dict[str, bool] = {}
        if observed:
            for name, status in observed.items():
                self.observe(graph.arc(name), status)

    def observe(self, arc: Arc, traversable: bool) -> None:
        """Record the observed status of one attempted arc."""
        if not arc.blockable:
            if not traversable:
                raise GraphError(f"non-blockable arc {arc.name!r} cannot block")
            return
        previous = self._observed.get(arc.name)
        if previous is not None and previous != bool(traversable):
            raise GraphError(f"contradictory observations for arc {arc.name!r}")
        self._observed[arc.name] = bool(traversable)

    def observed(self, arc: Arc) -> Optional[bool]:
        """The known status of ``arc``, or ``None`` if unobserved."""
        if not arc.blockable:
            return True
        return self._observed.get(arc.name)

    def is_observed(self, arc: Arc) -> bool:
        return not arc.blockable or arc.name in self._observed

    def pessimistic_completion(self) -> Context:
        """Complete unobserved arcs adversarially for candidate strategies.

        Unobserved retrieval arcs are assumed *blocked* (the unexplored
        subtree holds no solution) and unobserved blockable reductions
        assumed *traversable* (the candidate pays the full traversal
        cost before failing).

        This completion *maximizes* ``c(Θ', ·)`` over every context
        consistent with the observations, for **any** candidate ``Θ'``:
        blocking a retrieval removes a stopping opportunity without
        changing its attempt charge (in the symmetric-cost model;
        asymmetric arcs are bounded by their Chernoff-range
        ``max(f, f_blocked)``), and opening a reduction only adds
        traversal below it.  Meanwhile the monitored strategy's own
        cost is unchanged (it attempted exactly the observed arcs), so
        ``Δ̃ = c(Θ, I) − c(Θ', pessimistic) ≤ Δ`` — the soundness PIB's
        Theorem 1 rests on (property-tested in
        ``tests/test_property_costs.py``).
        """
        statuses: Dict[str, bool] = {}
        for arc in self.graph.experiments():
            known = self._observed.get(arc.name)
            if known is not None:
                statuses[arc.name] = known
            else:
                statuses[arc.name] = arc.kind is not ArcKind.RETRIEVAL
        return Context(self.graph, statuses)

    def consistent_with(self, context: Context) -> bool:
        """Whether ``context`` agrees with every observation."""
        return all(
            context._statuses[name] == status
            for name, status in self._observed.items()
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={'ok' if ok else 'blocked'}"
            for name, ok in sorted(self._observed.items())
        )
        return f"PartialContext({inner})"


def _instantiate(goal: Atom, query: Atom, root_goal: Optional[Atom]) -> Atom:
    """Bind a prototype arc goal with the concrete query's constants.

    Graphs built from a query form use prototype variables (``B0`` …)
    in the root goal; unifying the root prototype against the concrete
    query yields the bindings to push down to each arc's goal pattern.
    """
    if root_goal is None:
        return goal
    unifier = unify(root_goal, query)
    if unifier is None:
        raise GraphError(
            f"query {query} does not match the graph's root goal {root_goal}"
        )
    return goal.substitute(unifier)


class LazyDatalogContext(Context):
    """A concrete ``⟨query, DB⟩`` context whose arc statuses are
    computed *on demand*.

    :func:`context_from_datalog` probes the database for every
    blockable arc up front — fine for analysis, but a deployed monitor
    must stay unobtrusive (Section 5.1): the query processor should
    touch exactly the retrievals its strategy attempts.  This class
    resolves each arc's status the first time the execution asks for
    it, caching the answer, so a satisficing run performs the same
    database work it would have performed unmonitored.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: InferenceGraph, query: Atom, database: Database):
        # Deliberately skip Context.__init__: statuses fill in lazily.
        self._graph = graph
        self._statuses = {}
        self.query = query
        self.database = database

    def traversable(self, arc: Arc) -> bool:
        if not arc.blockable:
            return True
        cached = self._statuses.get(arc.name)
        if cached is None:
            cached = self._resolve(arc)
            self._statuses[arc.name] = cached
        return cached

    def _resolve(self, arc: Arc) -> bool:
        if arc.kind is ArcKind.RETRIEVAL:
            if arc.goal is None:
                raise GraphError(
                    f"retrieval arc {arc.name!r} has no goal pattern"
                )
            pattern = _instantiate(arc.goal, self.query, self._graph.root.goal)
            return self.database.succeeds(pattern)
        if arc.rule is None or arc.source.goal is None:
            raise GraphError(
                f"blockable reduction arc {arc.name!r} needs a rule and a "
                "source-goal pattern"
            )
        goal = _instantiate(arc.source.goal, self.query, self._graph.root.goal)
        return unify(arc.rule.head, goal) is not None

    def probed(self) -> Dict[str, bool]:
        """The statuses resolved so far (for asserting unobtrusiveness)."""
        return dict(self._statuses)


class MemoizedDatalogContext(LazyDatalogContext):
    """A :class:`LazyDatalogContext` that shares retrieval-probe
    results *across queries* through a memo table (QSQN-style tabling).

    ``memo`` is any object with ``lookup(pattern, database, version)``
    → ``Optional[bool]`` and ``store(pattern, database, status,
    version)`` — typically a :class:`repro.serving.cache.SubgoalMemo`.
    ``version`` is the store's :meth:`~repro.storage.interface.FactStore.version`
    of the probe's :func:`~repro.storage.interface.probe_key`, read
    once *before* the probe, so a write to the probed bucket
    invalidates the entry and a write anywhere else does not.

    Only *retrieval* arcs are memoized: their status is a pure
    function of (pattern, database state).  Blockable reduction arcs
    stay on the inherited unification path — it touches no database.
    The strategy's cost accounting is unchanged either way: attempting
    an arc bills ``f(arc)`` whether the status came from the memo or
    from a physical probe.
    """

    __slots__ = ("_memo",)

    def __init__(
        self,
        graph: InferenceGraph,
        query: Atom,
        database: Database,
        memo,
    ):
        super().__init__(graph, query, database)
        self._memo = memo

    def _resolve(self, arc: Arc) -> bool:
        if arc.kind is not ArcKind.RETRIEVAL or arc.goal is None:
            return super()._resolve(arc)
        pattern = _instantiate(arc.goal, self.query, self._graph.root.goal)
        database = self.database
        version = database.version((probe_key(pattern),))
        remembered = self._memo.lookup(pattern, database, version)
        if remembered is not None:
            return remembered
        status = database.succeeds(pattern)
        self._memo.store(pattern, database, status, version)
        return status


class ReadPlan:
    """The store read keys a query form's answers can depend on.

    ``static`` keys are the same for every query of the form;
    each ``(predicate, arity, position, index)`` template becomes the
    bucket key holding the query's ``index``-th argument at
    ``position``.  :meth:`keys` only fills query constants into
    tuples — no unification per request.
    """

    __slots__ = ("_static", "_templates")

    def __init__(
        self,
        static: Iterable[ReadKey],
        templates: Iterable[Tuple[str, int, int, int]] = (),
    ):
        self._static = tuple(dict.fromkeys(static))
        self._templates = tuple(dict.fromkeys(templates))

    def keys(self, query: Atom) -> Tuple[ReadKey, ...]:
        """The read set of one concrete query of the form."""
        if not self._templates:
            return self._static
        args = query.args
        return self._static + tuple([
            (predicate, arity, position, args[index])
            for predicate, arity, position, index in self._templates
        ])


def compile_read_plan(graph: InferenceGraph, form: QueryForm) -> ReadPlan:
    """Precompile the read keys of ``form``'s graph.

    One key per retrieval arc: the :func:`probe_key` its goal gets once
    :func:`_instantiate` binds the form's bound positions (the root
    prototype's ``B<i>`` variables) to query constants.  These are the
    only probes :class:`LazyDatalogContext` and the processor's binding
    recovery make, so the plan covers the learned path.
    """
    root_args = graph.root.goal.args
    query_index = {
        arg: index
        for index, (arg, mode) in enumerate(zip(root_args, form.pattern))
        if mode == "b"
    }
    static = []
    templates = []
    for arc in graph.retrieval_arcs():
        predicate, arity = arc.goal.signature
        for position, arg in enumerate(arc.goal.args):
            if arg.is_ground:
                static.append((predicate, arity, position, arg))
                break
            index = query_index.get(arg)
            if index is not None:
                templates.append((predicate, arity, position, index))
                break
        else:
            static.append((predicate, arity))
    return ReadPlan(static, templates)


def context_from_datalog(
    graph: InferenceGraph, query: Atom, database: Database
) -> Context:
    """Compile a concrete ``⟨query, DB⟩`` pair into a :class:`Context`.

    Every blockable arc must carry a ``goal`` pattern: a retrieval arc
    is unblocked iff the instantiated pattern matches at least one fact
    of ``database``; a blockable reduction arc is unblocked iff its
    rule head unifies with the instantiated goal of its *source* node's
    pattern — exactly the ``grad(fred) :- admitted(fred, X)`` situation
    of Section 4.1, where the arc is traversable only for the query
    constant ``fred``.
    """
    root_goal = graph.root.goal
    statuses: Dict[str, bool] = {}
    for arc in graph.experiments():
        if arc.kind is ArcKind.RETRIEVAL:
            if arc.goal is None:
                raise GraphError(
                    f"retrieval arc {arc.name!r} has no goal pattern; "
                    "cannot derive its status from a database"
                )
            pattern = _instantiate(arc.goal, query, root_goal)
            statuses[arc.name] = database.succeeds(pattern)
        else:
            if arc.rule is None or arc.source.goal is None:
                raise GraphError(
                    f"blockable reduction arc {arc.name!r} needs a rule and a "
                    "source-goal pattern to derive its status"
                )
            goal = _instantiate(arc.source.goal, query, root_goal)
            statuses[arc.name] = unify(arc.rule.head, goal) is not None
    return Context(graph, statuses, query=query, database=database)
