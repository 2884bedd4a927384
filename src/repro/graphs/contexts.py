"""Query-processing contexts and their arc-blocking view.

A context is a pair ``I = ⟨q, DB⟩`` (Section 2.1).  What a strategy's
cost depends on, though, is only *which arcs the context blocks*
(Note 2: contexts partition into equivalence classes identified with
the subset of unblocked arcs).  This module provides:

* :class:`Context` — the symbolic equivalence-class representative: a
  frozen map from blockable arc to blocked/unblocked, optionally
  carrying the concrete query and database it came from;
* :class:`LazyDatalogContext` — a concrete ``⟨query, DB⟩`` pair whose
  arc statuses are probed on demand, each through the probe the graph
  compiled for the arc, optionally through a memo of probe results;
* :func:`context_from_datalog` — compile a concrete ``⟨query, DB⟩``
  pair into its :class:`Context` by checking every retrieval pattern
  (and blockable reduction) against the database;
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
    "LazyDatalogContext",
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


class LazyDatalogContext(Context):
    """A concrete ``⟨query, DB⟩`` context whose arc statuses are
    computed *on demand*.

    :func:`context_from_datalog` probes the database for every
    blockable arc up front — fine for analysis, but a deployed monitor
    must stay unobtrusive (Section 5.1): the query processor should
    touch exactly the retrievals its strategy attempts.  This class
    resolves each arc's status the first time the execution asks for
    it, caching the answer, so a satisficing run performs the same
    database work it would have performed unmonitored.  Each arc tests
    :meth:`InferenceGraph.probe` — the graph's compiled template with
    the query's arguments filled in.

    ``memo`` shares retrieval-probe results *across queries*
    (QSQN-style tabling): any object with ``lookup(pattern, database,
    version)`` → ``Optional[bool]`` and ``store(pattern, database,
    status, version)``, typically a
    :class:`repro.serving.cache.SubgoalMemo`.  ``version`` is the
    store's :meth:`~repro.storage.interface.FactStore.version` of the
    probe's :func:`~repro.storage.interface.probe_key`, read once
    *before* the probe, so a write to the probed bucket invalidates the
    entry and a write anywhere else does not.  A status is stored only
    while the store's probe window has seen no dark source: a "no" from
    a shard that could not be reached is not the store's answer, and a
    memoized one would be replayed as clean.  Blockable reductions
    touch no database and are never memoized.  Cost accounting is the
    same either way: attempting an arc bills ``f(arc)`` whether its
    status came from the memo or from a physical probe.  The processor
    passes a memo only for a store whose probes are I/O
    (:attr:`~repro.storage.interface.FactStore.probes_are_io`).
    """

    __slots__ = ("_graph", "_memo")

    def __init__(
        self,
        graph: InferenceGraph,
        query: Atom,
        database: Database,
        memo=None,
    ):
        root_goal = graph.root.goal
        if root_goal is not None and query.signature != root_goal.signature:
            raise GraphError(
                f"query {query} does not match the graph's root goal {root_goal}"
            )
        # Deliberately skip Context.__init__: statuses fill in lazily.
        self._graph = graph
        self._memo = memo
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
        graph, query = self._graph, self.query
        heads = graph.probe_template(arc)[2]
        if heads is not None:
            unifier = unify(heads, query)
            if unifier is None:
                return False  # a rule head on the arc's path rejects it
        if arc.kind is not ArcKind.RETRIEVAL:
            if arc.rule is None:
                raise GraphError(
                    f"blockable reduction arc {arc.name!r} needs a rule"
                )
            return True
        probe = graph.probe(arc, query)
        if heads is not None:
            probe = probe.substitute(unifier)
        database = self.database
        memo = self._memo
        if memo is None:
            return database.succeeds(probe)
        version = database.version((probe_key(probe),))
        remembered = memo.lookup(probe, database, version)
        if remembered is not None:
            return remembered
        status = database.succeeds(probe)
        if not database.probe_window_missing():
            memo.store(probe, database, status, version)
        return status

    def probed(self) -> Dict[str, bool]:
        """The statuses resolved so far (for asserting unobtrusiveness)."""
        return dict(self._statuses)


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

    One key per retrieval arc, read off its
    :meth:`~InferenceGraph.probe_template`: the bucket at the first
    position holding a constant or a bound query argument, else the
    relation — the :func:`probe_key` of every probe the template makes
    for a query of ``form``.  :class:`LazyDatalogContext` and the
    processor's binding recovery probe nothing else, so the plan covers
    the learned path.
    """
    static = []
    templates = []
    for arc in graph.retrieval_arcs():
        predicate, specs, _heads = graph.probe_template(arc)
        arity = len(specs)
        for position, spec in enumerate(specs):
            if type(spec) is int:
                if form.pattern[spec] == "b":
                    templates.append((predicate, arity, position, spec))
                    break
            elif spec.is_ground:
                static.append((predicate, arity, position, spec))
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
    rule head, renamed apart, unifies with the instantiated goal of its
    *source* node's pattern — exactly the ``grad(fred) :- admitted(fred,
    X)`` situation of Section 4.1, where the arc is traversable only for
    the query constant ``fred``.  Below such an arc the head's bindings
    instantiate the pattern too, and an arc a head on its path rejects
    is blocked (see
    :data:`~repro.graphs.inference_graph.ProbeTemplate`).  The statuses
    are those a :class:`LazyDatalogContext` resolves, probed in
    experiment order.
    """
    lazy = LazyDatalogContext(graph, query, database)
    statuses = {arc.name: lazy.traversable(arc) for arc in graph.experiments()}
    return Context(graph, statuses, query=query, database=database)
