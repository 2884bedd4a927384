"""The integrated self-optimizing query processor (Figure 4).

Figure 4 of the paper sketches the overall architecture: queries flow
through the query processor, PIB watches the executions, and every so
often it tells the processor to switch strategies.  This module wires
the whole stack together behind one call:

    >>> qp = SelfOptimizingQueryProcessor(rule_base)
    >>> answer = qp.query(parse_query("instructor(manolis)"), database)

Per *query form* (``instructor^(b)``, ``age^(bf)``, …) the processor
lazily compiles an inference graph, attaches a PIB learner, and
executes incoming queries by walking the graph in the current
strategy's order against a :class:`LazyDatalogContext` — so the
database sees exactly the retrievals the strategy attempts, monitored
or not (Section 5.1's unobtrusiveness).  Successful runs return the
binding produced by the winning retrieval.

Queries whose form cannot be compiled to a (disjunctive, acyclic)
inference graph fall back to the plain SLD engine; learning simply
does not apply to them, matching the paper's scope.

For the serving caches each form also gets a *read plan*
(:meth:`SelfOptimizingQueryProcessor.read_plan`): the store keys its
answers can depend on — one per retrieval arc of a compiled graph, or
every relation in an uncompilable form's rule-dependency cone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from .datalog.database import Database
from .experience.fingerprint import FormProfile, form_profile
from .experience.store import ExperienceStore
from .experience.warmstart import (
    SIMILARITY_FLOOR,
    WarmStart,
    record_from_learner,
    warm_start,
)
from .datalog.rules import QueryForm, RuleBase
from .datalog.terms import Atom, Substitution
from .errors import (
    CheckpointError,
    GraphError,
    RecursionLimitError,
    ResilienceError,
)
from .graphs.builder import build_inference_graph
from .graphs.contexts import (
    LazyDatalogContext,
    MemoizedDatalogContext,
    ReadPlan,
    _instantiate,
    compile_read_plan,
)
from .graphs.inference_graph import InferenceGraph
from .learning.drift import DriftAwarePIB
from .learning.pib import ClimbRecord, PIB
from .observability.recorder import NULL_RECORDER, Recorder
from .persistence import load_pib, save_pib
from .serving.config import SessionConfig
from .storage.interface import COMPLETE, Completeness
from .strategies.engines import make_engine
from .strategies.execution import execute
from .strategies.strategy import Strategy
from .strategies.transformations import all_sibling_swaps

__all__ = ["SystemAnswer", "FormState", "SelfOptimizingQueryProcessor"]


@dataclass(frozen=True)
class SystemAnswer:
    """The processor's reply to one query.

    ``cost`` is the charged strategy-execution cost (the paper's
    ``c(Θ, I)``); ``learned`` is true when this query came through a
    compiled, PIB-monitored graph (as opposed to the SLD fallback);
    ``climbed`` reports whether answering this very query triggered a
    strategy switch.
    """

    proved: bool
    substitution: Substitution
    cost: float
    learned: bool
    climbed: bool = False
    #: Why this is not the learned path's own result (deadline expiry,
    #: fault escape, a faulted fallback, an admission shed), or
    #: ``None``.  Set exactly when the answer is :attr:`degraded`.
    incident: Optional[str] = None
    #: True when the serving layer answered from its ground-answer
    #: cache: no strategy ran, no cost was charged, no PIB sample.
    cached: bool = False
    #: Whether the answer reflects the whole fact base.  A *partial*
    #: verdict (federated backend, shards dark past their retry/hedge
    #: budget) carries the missing shard names: the bindings are a
    #: sound subset of the complete answer set, but a "no" is not
    #: trustworthy, and the learner saw no sample from this run.
    completeness: Completeness = COMPLETE

    @property
    def degraded(self) -> bool:
        """Whether an ``incident`` kept this answer off the learned
        path (its "no" is not a trusted refutation)."""
        return self.incident is not None

    @property
    def clean(self) -> bool:
        """Whether the answer can be trusted as it stands: no incident
        and a complete view of the fact base.  The coherent answer
        cache admits exactly the clean answers."""
        return self.incident is None and self.completeness.complete


@dataclass
class FormState:
    """Everything the processor keeps per query form."""

    form: QueryForm
    graph: InferenceGraph
    learner: PIB
    queries: int = 0
    #: Path of this form's checkpoint file (``None``: checkpointing off).
    checkpoint_path: Optional[str] = None
    #: Whether the learner was restored from a checkpoint at creation.
    restored: bool = False
    checkpoints_written: int = 0
    #: Structural profile of the form's graph (set only when the
    #: experience subsystem is enabled).
    profile: Optional[FormProfile] = None
    #: The prior this form's learner was started from, if any.
    warmstart: Optional[WarmStart] = None


class SelfOptimizingQueryProcessor:
    """A query processor that gets faster on the forms it is asked.

    Configuration arrives as ``config=`` (a
    :class:`~repro.serving.config.SessionConfig`, whose fields are
    described below).  ``recorder`` is a keyword of its own: it is an
    observer wired across objects, not a session setting.

    Field meanings mirror :class:`repro.learning.pib.PIB`; ``delta`` is
    the *per-form* mistake budget (each form's learner runs its own
    Theorem 1 guarantee).  ``max_depth`` bounds graph unfolding for
    recursive rule bases and the SLD fallback's recursion depth.

    ``resilience`` (a :class:`~repro.resilience.policy.ResiliencePolicy`)
    is handed to every learned-path
    :func:`~repro.strategies.execution.execute`: transient
    retrieval faults are retried (and billed), persistently down arcs
    are shed by circuit breakers, and a query that raises or blows its
    deadline degrades gracefully to the SLD fallback — returning a
    *degraded* :class:`SystemAnswer` instead of raising, with the
    incident recorded in :meth:`report`.

    ``checkpoint_dir`` turns on crash-safe learner checkpoints: every
    ``checkpoint_every`` queries (and after every climb) each form's
    PIB state is atomically written to
    ``<checkpoint_dir>/<predicate>_<pattern>.json``; a new processor
    pointed at the same directory resumes each learner exactly where
    it stopped — same Δ̃ sums, same sequential-test counter, same
    strategy — so Theorem 1's δ-budget accounting survives restarts.

    ``drift`` (a :class:`~repro.learning.drift.DriftConfig`) switches
    every form's learner to a
    :class:`~repro.learning.drift.DriftAwarePIB`: per-arc success
    frequencies and per-query costs are watched by online change
    detectors, and a confirmed alarm opens a new learning epoch —
    evidence reset, δ-schedule restarted, last-known-good strategy kept
    as a statistically-guarded rollback candidate.  On a stationary
    workload the drift-aware processor behaves identically to the
    vanilla one (up to false alarms, bounded by the detector's δ).
    Checkpoints written with or without drift interoperate: ``load_pib``
    upgrades either kind to the configured mode.

    ``recorder`` (any :class:`~repro.observability.recorder.Recorder`,
    typically a :class:`~repro.observability.tracer.Tracer`) observes
    the whole stack: it is threaded into every learner and strategy
    execution, bound to the resilience policy's breaker board, and its
    metrics snapshot — when it has one — appears under
    :meth:`report`'s ``"metrics"`` key.  Recording is strictly one-way;
    the processor's answers, costs, and climbs are identical with and
    without it.
    """

    def __init__(
        self,
        rule_base: RuleBase,
        *,
        config: Optional[SessionConfig] = None,
        recorder: Optional[Recorder] = None,
    ):
        if config is None:
            config = SessionConfig()
        self.config = config
        self.rule_base = rule_base
        self.delta = config.delta
        self.test_every = config.test_every
        self.max_depth = config.max_depth
        self.resilience = config.resilience
        self.checkpoint_dir = config.checkpoint_dir
        self.checkpoint_every = config.checkpoint_every
        self.drift = config.drift
        self.experience = config.experience
        #: The open cross-session store (``None``: experience off — no
        #: store is ever opened and behaviour is byte-identical to a
        #: build without the subsystem).
        self.experience_store: Optional[ExperienceStore] = None
        self.experience_writes = 0
        if self.experience is not None:
            self.experience_store = ExperienceStore.open(
                self.experience.path
            )
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if (
            self.experience_store is not None
            and self.experience_store.recovered
            and self.recorder.enabled
        ):
            self.recorder.incident(
                "experience store unreadable (and backup); starting empty"
            )
        if self.resilience is not None and self.recorder.enabled:
            self.resilience.bind_recorder(self.recorder)
        self._transformations_factory = (
            config.transformations_factory or all_sibling_swaps
        )
        #: Seam for the serving layer: when a
        #: :class:`~repro.serving.cache.SubgoalMemo` is installed here,
        #: learned-path executions run against a
        #: :class:`MemoizedDatalogContext` that consults it before
        #: probing the database.  ``None`` (the default) keeps the
        #: plain lazy context, byte-identical to pre-serving behaviour.
        self.subgoal_memo = None
        self._states: Dict[QueryForm, FormState] = {}
        self._uncompilable: Dict[QueryForm, str] = {}
        #: Per form, compiled or not: every incident noted against it.
        self._incidents: Dict[QueryForm, List[str]] = {}
        #: Per form, compiled or not: the read keys behind its answers.
        self._read_plans: Dict[QueryForm, ReadPlan] = {}
        #: The configured fallback engine (``config.engine``): answers
        #: every query whose form is not compiled/learnable.
        self.engine_name = config.engine
        self._fallback = make_engine(
            config.engine, rule_base, max_depth=self.max_depth or 64
        )

    # ------------------------------------------------------------------
    # Per-form state
    # ------------------------------------------------------------------

    def _checkpoint_path(self, form: QueryForm) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(
            self.checkpoint_dir, f"{form.predicate}_{form.pattern or 'p'}.json"
        )

    def _state_for(self, form: QueryForm) -> Optional[FormState]:
        if form in self._uncompilable:
            return None
        state = self._states.get(form)
        if state is None:
            try:
                graph = build_inference_graph(
                    self.rule_base, form, max_depth=self.max_depth
                )
            except (GraphError, RecursionLimitError) as reason:
                self._uncompilable[form] = str(reason)
                cone = self.rule_base.dependency_cone(form.signature)
                self._read_plans[form] = ReadPlan(sorted(cone))
                return None
            self._read_plans[form] = compile_read_plan(graph, form)
            state = FormState(
                form=form,
                graph=graph,
                learner=None,  # filled in below
                checkpoint_path=self._checkpoint_path(form),
            )
            self._recover_or_init(state)
            self._states[form] = state
        return state

    def _recover_or_init(self, state: FormState) -> None:
        """Restore the form's learner from its checkpoint, else start
        fresh (recording why recovery failed, if it was attempted)."""
        path = state.checkpoint_path
        if path is not None and (
            os.path.exists(path) or os.path.exists(path + ".bak")
        ):
            try:
                state.learner = load_pib(state.graph, path, drift=self.drift)
                state.learner.recorder = self.recorder
                state.restored = True
                if self.recorder.enabled:
                    self.recorder.checkpoint_restored(path)
                return
            except CheckpointError as reason:
                self._note_incident(
                    state.form, f"checkpoint recovery failed: {reason}"
                )
        kwargs = dict(
            delta=self.delta,
            transformations=list(
                self._transformations_factory(state.graph)
            ),
            test_every=self.test_every,
            recorder=self.recorder,
        )
        warm = self._warm_start_for(state)
        if warm is not None:
            # Priors only: the neighbour's settled winner becomes Θ₀,
            # nothing else — Δ̃ accumulators, total_tests, and the
            # Theorem 1 δ-schedule start cold exactly as without it.
            kwargs["initial_strategy"] = warm.strategy
            state.warmstart = warm
            if self.recorder.enabled:
                self.recorder.warmstart(
                    str(state.form),
                    warm.source_form,
                    warm.distance,
                    warm.exact,
                )
        if self.drift is not None:
            state.learner = DriftAwarePIB(
                state.graph, drift=self.drift, **kwargs
            )
        else:
            state.learner = PIB(state.graph, **kwargs)

    def _profile_for(self, state: FormState) -> FormProfile:
        if state.profile is None:
            state.profile = form_profile(state.graph, state.form)
        return state.profile

    def _warm_start_for(self, state: FormState) -> Optional[WarmStart]:
        """The store's best prior for a *freshly initialised* learner.

        Checkpoint-restored learners never reach here: a checkpoint is
        this very form's own mid-run state and always outranks a
        neighbour's prior.
        """
        if self.experience_store is None:
            return None
        return warm_start(
            self.experience_store,
            self._profile_for(state),
            state.graph,
            k=self.experience.neighbour_k,
            floor=SIMILARITY_FLOOR,
        )

    def contribute_experience(self) -> int:
        """Distil every form's settled outcome into the store and save.

        Called at session close (see
        :meth:`repro.serving.session.QuerySession.close`).  Each form
        that processed at least one context contributes one record;
        the record's ``regime`` is the learner's current drift epoch,
        so a regime reset automatically versions what was learned
        under the old cost distribution (higher regimes supersede
        lower ones at insert).  Returns how many records were written.
        """
        if self.experience_store is None:
            return 0
        written = 0
        for state in self._states.values():
            regime = getattr(state.learner, "epoch", 0)
            record = record_from_learner(
                self._profile_for(state),
                str(state.form),
                state.learner,
                regime=regime,
            )
            if record is None:
                continue
            if self.experience_store.add(record):
                written += 1
                if self.recorder.enabled:
                    self.recorder.experience_write(
                        record.fingerprint, record.sample_count
                    )
        self.experience_store.save()
        self.experience_writes += written
        return written

    def _note_incident(self, form: QueryForm, description: str) -> None:
        """Log an incident on the form's log and the recorder."""
        self._incidents.setdefault(form, []).append(description)
        if self.recorder.enabled:
            self.recorder.incident(description)

    def _maybe_checkpoint(self, state: FormState, climbed: bool) -> None:
        """Periodic + on-climb crash-safe checkpointing of PIB state."""
        if state.checkpoint_path is None:
            return
        if not climbed and state.queries % self.checkpoint_every != 0:
            return
        os.makedirs(os.path.dirname(state.checkpoint_path) or ".",
                    exist_ok=True)
        save_pib(state.learner, state.checkpoint_path)
        state.checkpoints_written += 1
        if self.recorder.enabled:
            self.recorder.checkpoint_saved(state.checkpoint_path)

    def checkpoint_now(self) -> int:
        """Force a checkpoint of every compiled form; returns how many."""
        written = 0
        for state in self._states.values():
            if state.checkpoint_path is not None:
                os.makedirs(
                    os.path.dirname(state.checkpoint_path) or ".",
                    exist_ok=True,
                )
                save_pib(state.learner, state.checkpoint_path)
                state.checkpoints_written += 1
                written += 1
                if self.recorder.enabled:
                    self.recorder.checkpoint_saved(state.checkpoint_path)
        return written

    def ensure_compiled(self, form: QueryForm) -> bool:
        """Compile the form's graph and learner now (idempotent).

        Returns whether the form is learnable; uncompilable forms keep
        using the SLD fallback.
        """
        return self._state_for(form) is not None

    def read_plan(self, form: QueryForm) -> ReadPlan:
        """The store read keys the form's answers can depend on;
        ``read_plan(form).keys(query)`` is one query's read set.

        A compiled form reads exactly its retrieval arcs' probe keys
        (the learned path and its binding recovery probe nothing
        else); an uncompilable form's fallback engine may read any
        relation in the query predicate's dependency cone, negated
        literals included.  Compiles the form on first use; the
        serving layer calls this under its admin lock so lazy
        compilation never races between workers.
        """
        plan = self._read_plans.get(form)
        if plan is None:
            self._state_for(form)
            plan = self._read_plans[form]
        return plan

    def _make_context(self, graph, query, database):
        """The execution context for one learned-path run: memoized
        when the serving layer installed a subgoal memo, plain lazy
        otherwise."""
        if self.subgoal_memo is not None:
            return MemoizedDatalogContext(
                graph, query, database, memo=self.subgoal_memo
            )
        return LazyDatalogContext(graph, query, database)

    def strategy_for(self, form: QueryForm) -> Optional[Strategy]:
        """The current strategy for a form (``None`` if never compiled)."""
        state = self._states.get(form)
        return state.learner.strategy if state else None

    def climb_history(self, form: QueryForm) -> List[ClimbRecord]:
        """All strategy switches taken for this form."""
        state = self._states.get(form)
        return list(state.learner.history) if state else []

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------

    def query(self, query: Atom, database: Database) -> SystemAnswer:
        """Answer one query, learning from the execution as a side effect.

        The whole query is bracketed in one probe window of
        ``database``: a backend that can go partial (the federated
        store) threads its collected
        :class:`~repro.storage.interface.Completeness` verdict and the
        billed remote latency onto the returned answer, and a partial
        run contributes **no** sample to the learner — Δ̃ must only
        accumulate over the stationary, fully-observed context
        distribution.  Local stores' windows are always complete and
        bill nothing.
        """
        database.begin_probe_window()
        try:
            answer = self._query_inner(query, database)
        finally:
            window = database.end_probe_window()
        if window.completeness.complete and not window.billed_cost:
            return answer
        return replace(
            answer,
            completeness=window.completeness,
            cost=answer.cost + window.billed_cost,
        )

    def _query_inner(self, query: Atom, database: Database) -> SystemAnswer:
        """The learned path, or the fallback for uncompilable forms.

        The strategy runs through :func:`execute` under the configured
        resilience policy (if any); every retry and backoff is billed
        to this query's ``cost``.  The learner is shown only the
        *settled*, complete execution view.  Under a policy, when the
        learned path cannot deliver — the deadline expired, a fault
        escaped the retry layer, or faults masked a would-be answer —
        the processor degrades to the fallback engine and reports the
        incident instead of raising.  Without a policy, storage faults
        propagate unchanged.
        """
        form = QueryForm.of(query)
        state = self._state_for(form)
        if state is None:
            return self._fallback_answer(query, database, form)

        state.queries += 1
        climbs_before = state.learner.climbs
        context = self._make_context(state.graph, query, database)
        try:
            result = execute(
                state.learner.strategy, context,
                recorder=self.recorder, policy=self.resilience,
            )
        except ResilienceError as fault:
            if self.resilience is None:
                raise
            return self._fallback_answer(
                query, database, form, f"learned path raised: {fault}"
            )

        if result.deadline_expired:
            # Censored run: do not feed it to PIB (a truncated cost is
            # not a sample of c(Θ, I)); answer via the fallback.
            return self._fallback_answer(
                query, database, form,
                f"deadline expired after cost {result.cost:g}",
                spent=result.cost,
            )

        completeness = Completeness.missing(database.probe_window_missing())
        if completeness.complete:
            # Settled *and* complete: the only outcomes PIB trains on.
            state.learner.record(result.settled_result())
        else:
            self._note_incident(
                form, f"partial execution: {completeness.describe()}"
            )
        climbed = state.learner.climbs > climbs_before
        self._maybe_checkpoint(state, climbed)

        if not result.succeeded and result.degraded:
            # Faults (unsettled or shed arcs) may have hidden the
            # answer; a "no" is only trustworthy from a clean run.
            return self._fallback_answer(
                query, database, form,
                "degraded no-answer: unsettled="
                f"{result.unsettled} shed={result.skipped_open}",
                spent=result.cost,
                climbed=climbed,
            )

        substitution = Substitution()
        if result.succeeded and result.success_arc is not None:
            try:
                substitution = self._binding_for(
                    state.graph, result.success_arc, query, database
                )
            except ResilienceError:
                if self.resilience is None:
                    raise
                # Binding recovery re-probes the database, which may
                # itself fault; the proof already settled, so answer
                # "yes" without bindings rather than fail the query.
                self._note_incident(form, "binding recovery faulted")
        return SystemAnswer(
            proved=result.succeeded,
            substitution=substitution,
            cost=result.cost,
            learned=True,
            climbed=climbed,
        )

    def _prove_fallback(self, query: Atom, database: Database):
        """SLD-prove ``query``, retrying through transient faults.

        Returns ``(answer, incident)`` where ``answer`` is ``None``
        only when every attempt faulted (possible only against a
        faulty database under a resilience policy — without one,
        exceptions propagate unchanged).
        """
        if self.resilience is None:
            return self._fallback.prove(query, database), None
        attempts = self.resilience.retry.max_attempts
        last_fault = None
        for _ in range(attempts):
            try:
                return self._fallback.prove(query, database), None
            except ResilienceError as fault:
                last_fault = fault
                self.resilience.total_faults += 1
        return None, f"fallback faulted {attempts}x: {last_fault}"

    def _fallback_answer(
        self,
        query: Atom,
        database: Database,
        form: QueryForm,
        incident: Optional[str] = None,
        spent: float = 0.0,
        climbed: bool = False,
    ) -> SystemAnswer:
        """Answer ``query`` (of ``form``) with the fallback engine;
        every degraded answer comes through here.

        ``incident`` says why the form's learned path gave up after
        billing ``spent``; it is logged on the form and the answer is
        degraded.  Without one the form is uncompilable and the
        fallback is its normal path.  A fallback whose every attempt
        faulted is logged as an incident too, and answers a degraded
        "no".
        """
        if incident is not None:
            self._note_incident(form, incident)
        answer, fallback_incident = self._prove_fallback(query, database)
        if answer is None:
            self._note_incident(form, fallback_incident)
            if incident is not None:
                fallback_incident = f"{incident}; {fallback_incident}"
            return SystemAnswer(
                proved=False,
                substitution=Substitution(),
                cost=spent,
                learned=False,
                climbed=climbed,
                incident=fallback_incident,
            )
        return SystemAnswer(
            proved=answer.proved,
            substitution=answer.substitution,
            cost=spent + answer.trace.cost,
            learned=False,
            climbed=climbed,
            incident=incident,
        )

    @staticmethod
    def _binding_for(
        graph: InferenceGraph, success_arc, query: Atom, database: Database
    ) -> Substitution:
        """Recover the query-variable bindings behind a winning retrieval."""
        if success_arc.goal is None:
            return Substitution()
        pattern = _instantiate(success_arc.goal, query, graph.root.goal)
        for binding in database.retrieve(pattern):
            return binding.restrict(set(query.variables()))
        return Substitution()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def report(self) -> Dict[str, Dict[str, object]]:
        """Per-form learning status, keyed by the printed form.

        Every form with incidents — compiled or uncompilable — lists
        them under ``"incidents"`` (degradations, partial executions,
        faulted fallbacks, checkpoint-recovery failures); compiled
        forms also report their checkpoint activity, and the
        policy-wide health counters live under the ``"resilience"``
        key.
        """
        summary: Dict[str, Dict[str, object]] = {}
        for form, state in self._states.items():
            entry: Dict[str, object] = {
                "queries": state.queries,
                "climbs": state.learner.climbs,
                "strategy": " ".join(state.learner.strategy.arc_names()),
                "retrieval_frequencies":
                    state.learner.retrieval_statistics.frequencies(),
            }
            if isinstance(state.learner, DriftAwarePIB):
                entry["drift"] = state.learner.drift_report()
            if form in self._incidents:
                entry["incidents"] = list(self._incidents[form])
            if state.checkpoint_path is not None:
                entry["checkpoint"] = {
                    "path": state.checkpoint_path,
                    "restored": state.restored,
                    "written": state.checkpoints_written,
                }
            if state.warmstart is not None:
                entry["warmstart"] = {
                    "source": state.warmstart.source_form,
                    "similarity": state.warmstart.similarity,
                    "exact": state.warmstart.exact,
                }
            summary[str(form)] = entry
        for form, reason in self._uncompilable.items():
            summary[str(form)] = {"fallback": reason}
            if form in self._incidents:
                summary[str(form)]["incidents"] = list(self._incidents[form])
        if self.resilience is not None:
            summary["resilience"] = self.resilience.snapshot()
        if self.experience_store is not None:
            summary["experience"] = {
                "path": self.experience_store.path,
                "records": len(self.experience_store),
                "writes": self.experience_writes,
                "warmstarts": sum(
                    1
                    for state in self._states.values()
                    if state.warmstart is not None
                ),
                "recovered": self.experience_store.recovered,
            }
        if self.recorder.metrics is not None:
            summary["metrics"] = self.recorder.metrics.snapshot()
        return summary
