"""Executing a strategy on a context: the cost ``c(Θ, I)``.

The query processor traverses the inference graph in strategy order,
beginning at the root, searching for a success node (Section 2.1).
Operationally:

* an arc is *attempted* when its turn comes up and its source node has
  been reached; attempting an arc always costs ``f(arc)``, whether or
  not the context blocks it (Figure 1's worked example charges the
  failed ``prof(manolis)`` retrieval its full unit);
* a blocked arc does not extend the reached set (its subtree stays
  unreachable), an unblocked arc does;
* the search stops at the first success node reached — satisficing
  search [SK75] — and the remaining subsequence of the strategy is
  ignored.

:func:`execute` returns an :class:`ExecutionResult` carrying the cost,
the outcome, and the *observations* the run made — exactly the
information PIB is allowed to learn from (it never sees the statuses of
arcs the run did not attempt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set

from ..errors import RetrievalFaultError
from ..graphs.contexts import Context
from ..graphs.inference_graph import Arc, ArcKind
from ..observability.recorder import NULL_RECORDER, Recorder
from .strategy import Strategy

if TYPE_CHECKING:
    from ..resilience.policy import ResiliencePolicy

__all__ = [
    "ExecutionResult",
    "execute",
    "cost_of",
    "pessimistic_cost",
]


@dataclass
class ExecutionResult:
    """The outcome of running one strategy on one context.

    ``attempted`` lists arcs in attempt order; ``observations`` records
    each attempted blockable arc's revealed status.  ``success_arc`` is
    the retrieval that answered the query, or ``None`` when the whole
    graph was searched without success (the "no" answer).

    A run under a :class:`~repro.resilience.policy.ResiliencePolicy`
    also carries the resilience fields, and has two views:

    * ``cost`` is the caller-facing bill — every attempt, every retry,
      every jittered backoff, every latency spike.  This is the
      ``c(Θ, I)`` the paper's cost accounting charges the query.
    * :meth:`settled_result` is the learner-facing view — the settled
      outcome of each arc at its fault-free charge, exactly what an
      unmonitored fault-free run would have produced.  PIB must learn
      from *this* one: feeding retry noise into the Δ̃ accumulators
      would poison the under-estimates with non-stationary
      infrastructure noise (the fault process is not part of the
      context distribution Theorem 1 quantifies over).

    Arcs whose status never settled (retry budget exhausted, circuit
    open) appear in ``unsettled`` / ``skipped_open`` and are *absent*
    from ``observations`` — PIB then treats them exactly like arcs the
    run never attempted, which is sound (pessimistic completion).
    ``settled_cost`` is ``None`` exactly when no policy ran: the bill
    is then already the settled view.
    """

    strategy: Strategy
    context: Context
    cost: float
    succeeded: bool
    success_arc: Optional[Arc]
    attempted: List[Arc] = field(default_factory=list)
    observations: Dict[str, bool] = field(default_factory=dict)
    settled_cost: Optional[float] = None
    retries: Dict[str, int] = field(default_factory=dict)
    backoff_cost: float = 0.0
    deadline_expired: bool = False
    skipped_open: List[str] = field(default_factory=list)
    unsettled: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether the run deviated from a clean fault-free execution
        (always ``False`` without a policy)."""
        return bool(
            self.deadline_expired or self.skipped_open or self.unsettled
        )

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def settled_result(self) -> "ExecutionResult":
        """The fault-free-equivalent view PIB learns from: the run
        itself without a policy, else a copy billed at ``settled_cost``
        that still names the arcs that never settled."""
        if self.settled_cost is None:
            return self
        return ExecutionResult(
            self.strategy,
            self.context,
            self.settled_cost,
            self.succeeded,
            self.success_arc,
            list(self.attempted),
            dict(self.observations),
            skipped_open=list(self.skipped_open),
            unsettled=list(self.unsettled),
        )


def execute(
    strategy: Strategy,
    context: Context,
    required_successes: int = 1,
    recorder: Recorder = NULL_RECORDER,
    policy: Optional["ResiliencePolicy"] = None,
) -> ExecutionResult:
    """Run ``strategy`` against ``context`` and account its cost.

    ``required_successes`` implements Section 5.2's first-``k`` variant
    ("one set of variants seek the first k answers to a query"): the
    search stops at the ``k``-th success node instead of the first.
    ``success_arc`` reports the stopping retrieval; with ``k > 1`` the
    run counts as succeeded only if all ``k`` successes were found.

    ``recorder`` observes the run (span + per-attempt events) without
    influencing it.

    Without a ``policy`` each arc settles in one
    ``context.traversable(arc)`` call, and a
    :class:`~repro.errors.RetrievalFaultError` raised by a faulty
    context propagates to the caller.  With one:

    * Each attempt goes through ``context.attempt(arc)``; a raised
      :class:`~repro.errors.RetrievalFaultError` charges the wasted
      attempt at the arc's *worst-case* rate (``max(f, f_blocked)``
      times the fault's multiplier — the caller paid for the attempt
      without learning the outcome), then backs off per the retry
      policy (the jittered wait is charged too) and tries again.
    * An arc whose retry budget is exhausted stays **unsettled**: it is
      reported blocked to the search (its subtree is unreachable this
      run) but *no observation is recorded*, so the learner never
      mistakes a fault for a blocked arc.
    * Per-arc circuit breakers persist on ``policy``: enough
      consecutive exhausted arcs trip the breaker and later queries
      shed the arc outright (``skipped_open``) until the cooldown's
      half-open probe succeeds.
    * A :class:`~repro.resilience.deadline.CostDeadline` on the policy
      bounds the total charge; when the next attempt cannot fit, the
      run stops early with ``deadline_expired=True`` and whatever
      answer it has (a degraded "no" if none) — it never raises.

    On a fault-free context a policy run bills exactly what the plain
    run bills: same cost, same observations, same outcome.
    """
    if required_successes < 1:
        raise ValueError("required_successes must be at least 1")
    tracing = recorder.enabled
    span = recorder.begin_query(strategy, resilient=policy is not None) \
        if tracing else 0
    reached: Set[str] = {strategy.graph.root.name}
    cost = 0.0
    successes = 0
    success_arc: Optional[Arc] = None
    attempted: List[Arc] = []
    observations: Dict[str, bool] = {}
    if policy is not None:
        retry = policy.retry
        deadline = policy.deadline
        settled_cost = 0.0
        backoff_total = 0.0
        deadline_expired = False
        retries: Dict[str, int] = {}
        skipped_open: List[str] = []
        unsettled: List[str] = []

    for arc in strategy:
        if arc.source.name not in reached:
            continue  # tail never reached: the arc is silently skipped
        if policy is None:
            settled = context.traversable(arc)
            charge = arc.cost if settled else arc.blocked_cost
            cost += charge
            if tracing:
                recorder.arc_attempt(
                    span, arc.name, "ok" if settled else "blocked", charge
                )
        else:
            breaker = policy.breaker_for(arc.name) if arc.blockable else None
            if breaker is not None and not breaker.allow():
                skipped_open.append(arc.name)
                if tracing:
                    recorder.breaker_shed(span, arc.name)
                continue

            worst_attempt = max(arc.cost, arc.blocked_cost)
            settled = None
            for attempt in range(1, retry.max_attempts + 1):
                if deadline is not None and deadline.would_exceed(
                    cost, worst_attempt
                ):
                    deadline_expired = True
                    policy.deadline_expiries += 1
                    if breaker is not None:
                        # A half-open probe this run may still be
                        # pending; abandoning it un-settled must not
                        # wedge the breaker in its single-probe gate.
                        breaker.release_probe()
                    if tracing:
                        recorder.deadline_expired(span, cost)
                    break
                try:
                    traversable, multiplier = context.attempt(arc)
                except RetrievalFaultError as fault:
                    policy.total_faults += 1
                    charge = worst_attempt * fault.cost_multiplier
                    cost += charge
                    if tracing:
                        recorder.arc_attempt(span, arc.name, "fault",
                                             charge, attempt)
                    if breaker is None or retry.exhausted(attempt):
                        break
                    retries[arc.name] = retries.get(arc.name, 0) + 1
                    policy.total_retries += 1
                    wait = retry.backoff_cost(attempt, policy.rng)
                    cost += wait
                    backoff_total += wait
                    if tracing:
                        recorder.arc_retry(span, arc.name, attempt, wait)
                else:
                    settled = traversable
                    base = arc.cost if traversable else arc.blocked_cost
                    cost += base * multiplier
                    settled_cost += base
                    if tracing:
                        recorder.arc_attempt(
                            span, arc.name,
                            "ok" if traversable else "blocked",
                            base * multiplier, attempt,
                        )
                    break
            if deadline_expired:
                break
            if settled is None:
                # Retry budget exhausted without a settled outcome: the
                # arc contributes nothing the learner may see, and its
                # subtree is unreachable this run.
                unsettled.append(arc.name)
                policy.unsettled_arcs += 1
                if tracing:
                    recorder.arc_unsettled(span, arc.name, attempt)
                if breaker is not None:
                    breaker.record_fault()
                continue
            if breaker is not None:
                breaker.record_success()

        attempted.append(arc)
        if arc.blockable:
            observations[arc.name] = settled
        if not settled:
            continue
        reached.add(arc.target.name)
        if arc.target.is_success:
            successes += 1
            if successes >= required_successes:
                success_arc = arc
                break

    succeeded = success_arc is not None
    if policy is None:
        if tracing:
            recorder.end_query(span, cost=cost, succeeded=succeeded)
        return ExecutionResult(
            strategy, context, cost, succeeded, success_arc, attempted,
            observations,
        )
    if tracing:
        recorder.end_query(
            span,
            cost=cost,
            succeeded=succeeded,
            settled_cost=settled_cost,
            retries=sum(retries.values()),
            backoff_cost=backoff_total,
            degraded=bool(deadline_expired or skipped_open or unsettled),
        )
    return ExecutionResult(
        strategy,
        context,
        cost,
        succeeded,
        success_arc,
        attempted,
        observations,
        settled_cost=settled_cost,
        retries=retries,
        backoff_cost=backoff_total,
        deadline_expired=deadline_expired,
        skipped_open=skipped_open,
        unsettled=unsettled,
    )


def cost_of(strategy: Strategy, context: Context) -> float:
    """Shorthand for ``execute(strategy, context).cost`` — ``c(Θ, I)``."""
    return execute(strategy, context).cost


def pessimistic_cost(
    strategy: Strategy, observations: Mapping[str, bool]
) -> float:
    """An upper bound on ``c(strategy, I)`` over every context ``I``
    consistent with ``observations`` (a monitored run's
    :attr:`ExecutionResult.observations`).

    This is the evaluation behind PIB's under-estimate ``Δ̃``
    (Section 3.2): arcs the monitored run observed are charged their
    actual outcome; unobserved arcs are charged their *worst-case*
    attempt ``max(f, f_blocked)`` and completed adversarially —
    retrievals blocked (no early stop), reductions traversable (full
    subtree exposure).

    This completion *maximizes* ``c(Θ', ·)`` over every context
    consistent with the observations, for **any** candidate ``Θ'``:
    blocking a retrieval removes a stopping opportunity without
    changing its attempt charge, and opening a reduction only adds
    traversal below it.  The monitored strategy's own cost is
    unchanged (it attempted exactly the observed arcs), so
    ``Δ̃ = c(Θ, I) − pessimistic_cost(Θ', ·) ≤ Δ`` — the soundness
    PIB's Theorem 1 rests on (property-tested in
    ``tests/test_property_costs.py``).
    """
    graph = strategy.graph
    reached: Set[str] = {graph.root.name}
    cost = 0.0
    for arc in strategy:
        if arc.source.name not in reached:
            continue
        observed = observations.get(arc.name) if arc.blockable else True
        if observed is None:
            cost += max(arc.cost, arc.blocked_cost)
            traversable = arc.kind is not ArcKind.RETRIEVAL
        else:
            cost += arc.cost if observed else arc.blocked_cost
            traversable = observed
        if not traversable:
            continue
        reached.add(arc.target.name)
        if arc.target.is_success:
            return cost
    return cost
