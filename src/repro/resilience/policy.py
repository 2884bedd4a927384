"""The combined :class:`ResiliencePolicy` the executor runs under.

One policy object bundles the three mechanisms —
:class:`~repro.resilience.retry.RetryPolicy` (exponential backoff,
full jitter), a persistent
:class:`~repro.resilience.circuit.CircuitBreakerBoard`, and an
optional per-query :class:`~repro.resilience.deadline.CostDeadline` —
plus the seeded RNG that makes every jittered backoff reproducible.

The policy is the *stateful* half of the resilience layer: breakers
and incident counters persist across queries, which is why the
self-optimizing processor holds one policy for its lifetime and passes
it as ``policy=`` to every :func:`~repro.strategies.execution.execute`
call.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..observability.recorder import NULL_RECORDER, Recorder
from .circuit import CircuitBreaker, CircuitBreakerBoard
from .deadline import CostDeadline
from .retry import RetryPolicy

__all__ = ["ResiliencePolicy"]


class ResiliencePolicy:
    """Everything a policy run of :func:`execute` needs, in one object.

    Parameters
    ----------
    retry:
        The per-arc retry schedule (default: 3 attempts, exponential
        backoff with full jitter).
    deadline:
        Per-query cost budget; ``None`` (default) means unbounded.
        A bare number is accepted and wrapped in a
        :class:`CostDeadline`.
    failure_threshold / cooldown:
        Circuit-breaker tuning, applied per arc.
    seed:
        Seeds the jitter RNG — two runs under equal-seeded policies
        charge identical backoff.
    rng:
        An explicit ``random.Random`` for the jitter stream, taking
        precedence over ``seed``.  Callers that thread one seeded
        generator through a whole experiment (the verify subsystem,
        the benchmarks) pass it here instead of coordinating seeds.
    recorder:
        Observability hook handed to every breaker the board creates,
        so state transitions show up in traces; the null recorder by
        default.  :meth:`bind_recorder` attaches one after the fact.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[object] = None,
        failure_threshold: int = 5,
        cooldown: int = 10,
        seed: int = 0,
        recorder: Recorder = NULL_RECORDER,
        rng: Optional[random.Random] = None,
    ):
        self.retry = retry or RetryPolicy()
        if deadline is not None and not isinstance(deadline, CostDeadline):
            deadline = CostDeadline(float(deadline))
        self.deadline = deadline
        self.recorder = recorder
        self.breakers = CircuitBreakerBoard(
            failure_threshold, cooldown, recorder=recorder
        )
        self.seed = int(seed)
        self.rng = rng if rng is not None else random.Random(seed)
        #: Lifetime counters, aggregated over every execution run under
        #: this policy.
        self.total_retries = 0
        self.total_faults = 0
        self.deadline_expiries = 0
        self.unsettled_arcs = 0

    def breaker_for(self, arc_name: str) -> CircuitBreaker:
        return self.breakers.breaker(arc_name)

    def bind_recorder(self, recorder: Recorder) -> None:
        """Attach a recorder to the policy and its breaker board.

        The self-optimizing processor calls this so a policy built
        before the tracer existed still reports breaker transitions.
        """
        self.recorder = recorder
        self.breakers.bind_recorder(recorder)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready health summary for ``report()`` surfaces."""
        return {
            "retries": self.total_retries,
            "faults": self.total_faults,
            "deadline_expiries": self.deadline_expiries,
            "unsettled_arcs": self.unsettled_arcs,
            "breakers": self.breakers.snapshot(),
        }
