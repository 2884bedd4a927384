"""Always-on runtime invariants, assertable in any test or verify run.

Four families, each a structural truth the paper (or a subsystem's
documented state machine) promises unconditionally — not a statistical
contract, so a single violation is a bug:

* **Δ̃ conservatism** (Section 3.2) — the per-sample under-estimate
  ``Δ̃[Θ, Θ', I]`` never exceeds the true ``c(Θ, I) − c(Θ', I)``; the
  :class:`ConservatismWatcher` recomputes both on every monitored run
  against the *full* context the verifier (unlike PIB) can see.
* **Equation 6 schedule monotonicity** — the sequential threshold is
  strictly increasing in both the sample count and the test index, so
  within one neighbourhood (between climbs/epoch resets) the recorded
  thresholds per transformation must be non-decreasing.
* **Breaker state legality** — the only legal circuit transitions are
  closed→open, open→half-open, half-open→closed and half-open→open.
* **Cache generation coherence** — a cache keyed on
  ``Database.cache_key`` must miss the instant the database mutates.

:class:`InvariantMonitor` is a :class:`~repro.observability.recorder.Recorder`
(chainable in front of a real tracer), so the checks ride the existing
observability seam without touching any hot path.  Use it through the
:func:`verify_invariants` context manager::

    with verify_invariants() as monitor:
        pib = PIB(graph, recorder=monitor)
        ...
    # exiting raises InvariantViolation when anything was illegal
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Mapping

from ..datalog.database import Database
from ..datalog.terms import Atom
from ..learning.statistics import delta_tilde
from ..observability.recorder import NULL_RECORDER, Recorder
from ..strategies.execution import ExecutionResult, cost_of
from ..strategies.transformations import neighbours

__all__ = [
    "InvariantViolation",
    "InvariantMonitor",
    "ConservatismWatcher",
    "check_cache_generation_coherence",
    "verify_invariants",
]

#: Numeric slack for cost comparisons.
TOLERANCE = 1e-9

#: The legal circuit-breaker transitions (closed→open, open→half-open,
#: half-open→closed, half-open→open).
LEGAL_BREAKER_TRANSITIONS = {
    ("closed", "open"),
    ("open", "half-open"),
    ("half-open", "closed"),
    ("half-open", "open"),
}


class InvariantViolation(AssertionError):
    """A runtime invariant was violated — always a bug, never noise."""


class InvariantMonitor(Recorder):
    """A recorder that checks invariants as events stream through it.

    Wraps an ``inner`` recorder (the null one by default) and forwards
    every event after checking, so it can sit in front of a
    :class:`~repro.observability.tracer.Tracer` without losing the
    trace.  Violations accumulate in :attr:`violations`;
    :meth:`check` raises the first one.
    """

    enabled = True

    def __init__(self, inner: Recorder = NULL_RECORDER):
        self.inner = inner
        self.metrics = inner.metrics
        self.violations: List[str] = []
        #: Last Equation 6 threshold seen per transformation, reset on
        #: every climb / epoch reset (new neighbourhood, new schedule).
        self._last_threshold: Dict[str, float] = {}
        #: Last known breaker state per arc (assumed closed at birth).
        self._breaker_state: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def _violate(self, message: str) -> None:
        self.violations.append(message)

    def check(self) -> None:
        """Raise :class:`InvariantViolation` if anything was illegal."""
        if self.violations:
            raise InvariantViolation(
                f"{len(self.violations)} invariant violation(s); first: "
                f"{self.violations[0]}"
            )

    # ------------------------------------------------------------------
    # Learner events
    # ------------------------------------------------------------------

    def chernoff_margin(
        self,
        transformation: str,
        samples: int,
        delta_sum: float,
        threshold: float,
    ) -> None:
        if threshold < 0.0:
            self._violate(
                f"Equation 6 threshold negative for {transformation}: "
                f"{threshold}"
            )
        previous = self._last_threshold.get(transformation)
        if previous is not None and threshold < previous - TOLERANCE:
            self._violate(
                f"Equation 6 schedule not monotone for {transformation}: "
                f"threshold fell {previous:.6g} -> {threshold:.6g} "
                f"within one neighbourhood"
            )
        self._last_threshold[transformation] = threshold
        if self.inner.enabled:
            self.inner.chernoff_margin(
                transformation, samples, delta_sum, threshold
            )

    def climb(self, record: Any) -> None:
        self._last_threshold.clear()
        if self.inner.enabled:
            self.inner.climb(record)

    def epoch_reset(self, epoch: int, context_number: int, strategy) -> None:
        self._last_threshold.clear()
        if self.inner.enabled:
            self.inner.epoch_reset(epoch, context_number, strategy)

    def rollback(self, epoch, context_number, from_arcs, to_arcs) -> None:
        self._last_threshold.clear()
        if self.inner.enabled:
            self.inner.rollback(epoch, context_number, from_arcs, to_arcs)

    def learner_sample(
        self, contexts_processed: int, cost: float, deltas: Mapping[str, float]
    ) -> None:
        if self.inner.enabled:
            self.inner.learner_sample(contexts_processed, cost, deltas)

    # ------------------------------------------------------------------
    # Breaker events
    # ------------------------------------------------------------------

    def breaker_transition(
        self, arc_name: str, old_state: str, new_state: str
    ) -> None:
        known = self._breaker_state.get(arc_name, "closed")
        if old_state != known:
            self._violate(
                f"breaker {arc_name} transitioned from {old_state!r} but "
                f"its last known state was {known!r}"
            )
        if (old_state, new_state) not in LEGAL_BREAKER_TRANSITIONS:
            self._violate(
                f"illegal breaker transition on {arc_name}: "
                f"{old_state} -> {new_state}"
            )
        self._breaker_state[arc_name] = new_state
        if self.inner.enabled:
            self.inner.breaker_transition(arc_name, old_state, new_state)

    # ------------------------------------------------------------------
    # Forwarding (every other hook is generated below the class)
    # ------------------------------------------------------------------

    def begin_query(self, strategy: Any, resilient: bool = False) -> int:
        return self.inner.begin_query(strategy, resilient)

    def snapshot(self) -> Dict[str, object]:
        return {
            "violations": list(self.violations),
            "breaker_states": dict(self._breaker_state),
        }


def _forward(name: str):
    """A hook that hands one unchecked event to ``inner`` unchanged."""

    def forward(self: InvariantMonitor, *args: Any, **fields: Any) -> None:
        if self.inner.enabled:
            getattr(self.inner, name)(*args, **fields)

    forward.__name__ = name
    forward.__qualname__ = f"InvariantMonitor.{name}"
    return forward


# Every Recorder hook the monitor neither checks nor answers itself
# (``begin_query`` returns the span id) is forwarded, so a hook added
# to Recorder reaches the inner tracer without an edit here.
for _name, _hook in vars(Recorder).items():
    if (callable(_hook) and not _name.startswith("_")
            and _name not in vars(InvariantMonitor)):
        setattr(InvariantMonitor, _name, _forward(_name))
del _name, _hook


class ConservatismWatcher:
    """Checks Δ̃ conservatism against the full context, per sample.

    PIB only ever sees the monitored run's observations; the verifier
    also holds the *complete* context, so it can compute the true
    ``c(Θ, I) − c(Θ', I)`` for every neighbour and assert that the
    conservative estimate never exceeds it.  Call :meth:`observe` with
    the result *before* feeding it to ``pib.record`` (both read the
    current neighbourhood).
    """

    def __init__(self, tolerance: float = TOLERANCE):
        self.tolerance = tolerance
        self.samples_checked = 0

    def observe(self, learner, result: ExecutionResult) -> None:
        base_cost = cost_of(learner.strategy, result.context)
        for transformation, candidate in neighbours(
            learner.strategy, learner.transformations
        ):
            estimate = delta_tilde(result, candidate)
            true_delta = base_cost - cost_of(candidate, result.context)
            if estimate > true_delta + self.tolerance:
                raise InvariantViolation(
                    f"delta-tilde not conservative for "
                    f"{transformation.name}: estimate {estimate:.6g} > "
                    f"true {true_delta:.6g}"
                )
            self.samples_checked += 1


def check_cache_generation_coherence(
    cache, query: Atom, database: Database
) -> None:
    """Assert a cache keyed on ``Database.cache_key`` honours mutation.

    ``cache`` is an :class:`~repro.serving.cache.AnswerCache` (or any
    object with the same ``lookup(query, database)`` shape).  The
    database's generation counter must make any entry stored before the
    last mutation unreachable; a hit against a freshly mutated database
    is a stale read.
    """
    generation_before = database.generation
    marker = Atom("__verify_coherence__", ["probe"])
    database.add(marker)
    try:
        if database.generation == generation_before:
            raise InvariantViolation(
                "database generation did not advance on mutation"
            )
        if cache.lookup(query, database) is not None:
            raise InvariantViolation(
                f"cache served {query} from a stale generation after "
                f"the database mutated"
            )
    finally:
        database.remove(marker)


@contextmanager
def verify_invariants(inner: Recorder = NULL_RECORDER):
    """Context manager: run with an :class:`InvariantMonitor` attached,
    raise :class:`InvariantViolation` on exit if anything was illegal.

    On an exceptional exit the original exception propagates unchanged
    (the monitor's findings stay inspectable on the instance).
    """
    monitor = InvariantMonitor(inner)
    yield monitor
    monitor.check()
