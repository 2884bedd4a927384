"""Drift-aware learning: change detection, epochs, and safe rollback.

Theorem 1 (PIB) and Theorems 2–3 (PAO) are proved under an *unknown
but stationary* context distribution (§2.1).  A deployment whose query
mix shifts silently invalidates every Chernoff guarantee: the Δ̃ sums
mix evidence from different regimes, and the system can stay pinned to
a strategy that is now arbitrarily bad.  This module makes the
learners degrade *gracefully instead of wrongly*:

* :class:`AdaptiveWindowDetector` — an ADWIN-style adaptive window
  over a bounded stream with a Hoeffding split test.  Every split test
  spends confidence from the same ``δ_i = δ·6/(π²·i²)`` schedule PIB's
  sequential test uses (:func:`~repro.learning.chernoff.sequential_confidence`),
  so under stationarity the probability of *ever* alarming is at most
  the configured ``δ`` — the false-alarm analogue of Theorem 1.
* :class:`PageHinkleyDetector` — the classic cumulative-deviation test,
  kept as the cheap O(1)-memory alternative; its threshold reuses
  Equation 2's sum bound (:func:`~repro.learning.chernoff.pib_sum_threshold`)
  at confidence ``δ/n²`` but is calibrated rather than anytime-valid
  (documented deviation).
* :class:`DriftAwarePIB` — PIB plus the **epoch protocol**: detectors
  watch per-query settled costs and per-arc settled success outcomes;
  on a confirmed alarm the learner snapshots the current strategy as
  *last-known-good*, resets every Δ̃ accumulator and the
  sequential-test index ``i`` (restarting the ``δ_i`` schedule so
  Theorem 1 holds *per-epoch*), and keeps a standing rollback
  candidate: if post-drift climbing leaves the learner on a strategy
  the new regime makes statistically worse than the last-known-good
  one, the same Equation 6 test that justifies climbs justifies the
  roll back.

Resilience interplay: detectors must only ever see **settled**
outcomes (the fault-free-equivalent
:meth:`~repro.strategies.execution.ExecutionResult.settled_result`
view of a policy run).  A
breaker-open storm changes what a *billed* run looks like but not the
settled observations, so infrastructure trouble cannot masquerade as
distribution drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import LearningError
from ..graphs.inference_graph import InferenceGraph
from ..observability.recorder import NULL_RECORDER, Recorder
from ..strategies.execution import ExecutionResult
from ..strategies.strategy import Strategy
from ..strategies.transformations import Transformation
from .chernoff import pib_sum_threshold, sequential_confidence
from .pib import PIB
from .statistics import DeltaAccumulator, WindowedRetrievalStatistics

__all__ = [
    "ROLLBACK_NAME",
    "AdaptiveWindowDetector",
    "PageHinkleyDetector",
    "DriftAlarm",
    "DriftConfig",
    "RollbackTransformation",
    "DriftAwarePIB",
    "make_detector",
]

#: The transformation name rollback steps carry in ``ClimbRecord``s.
ROLLBACK_NAME = "rollback"

#: Samples a Page–Hinkley detector sees before it may alarm: the
#: adaptive window's ``min_side``, not PH's own default of 30.
PH_MIN_SAMPLES = 20

#: Contexts at the start of a fresh epoch during which alarms are
#: suppressed, so one regime change cannot trigger a reset storm while
#: the detectors' windows still straddle the boundary.
EPOCH_COOLDOWN = 50


# ----------------------------------------------------------------------
# Change detectors
# ----------------------------------------------------------------------

class AdaptiveWindowDetector:
    """ADWIN-style drift detection with a Hoeffding split test.

    The detector keeps a window of the most recent values (bounded by
    ``max_window``) and, every ``check_every`` updates, tests a
    geometric family of suffix splits: the window ``W = W₀ · W₁`` is
    declared drifted when the sub-window means differ by more than

        ε_cut = Λ · sqrt( ln(4/δ_i) / (2·m) ),   1/m = 1/|W₀| + 1/|W₁|,

    the two-sided two-window Hoeffding radius at confidence ``δ_i``.
    Each performed split test consumes the next term of the
    ``δ_i = δ·6/(π²·i²)`` schedule (shared with PIB's sequential test),
    so the union over *all tests ever made* bounds the stationary
    false-alarm probability by ``δ`` — for any stream of values in a
    range of width ``value_range``, by the same footnote-5 generality
    as Equation 1.

    On an alarm the pre-split (stale) half of the window is dropped, so
    the surviving window describes the new regime.
    """

    def __init__(
        self,
        value_range: float,
        delta: float = 0.05,
        max_window: int = 400,
        check_every: int = 8,
        min_side: int = 20,
    ):
        if value_range <= 0:
            raise LearningError(
                f"value_range must be positive, got {value_range}"
            )
        if not 0.0 < delta < 1.0:
            raise LearningError(f"delta must be in (0, 1), got {delta}")
        if max_window < 2 * min_side:
            raise LearningError(
                "max_window must hold two min_side sub-windows "
                f"({max_window} < {2 * min_side})"
            )
        if check_every < 1 or min_side < 1:
            raise LearningError("check_every and min_side must be >= 1")
        self.value_range = value_range
        self.delta = delta
        self.max_window = max_window
        self.check_every = check_every
        self.min_side = min_side
        #: Split tests performed over the detector's lifetime — the
        #: index ``i`` of the confidence schedule.  Deliberately *not*
        #: cleared by :meth:`reset`: the δ-budget is spent once.
        self.tests_performed = 0
        self.alarms = 0
        self.samples = 0
        self._window: List[float] = []
        self._since_check = 0

    def update(self, value: float) -> bool:
        """Fold one value in; ``True`` when a drift alarm fires."""
        self.samples += 1
        self._window.append(float(value))
        if len(self._window) > self.max_window:
            del self._window[0]
        self._since_check += 1
        if self._since_check < self.check_every:
            return False
        self._since_check = 0
        return self._check_splits()

    def _check_splits(self) -> bool:
        window = self._window
        total = len(window)
        if total < 2 * self.min_side:
            return False
        suffix = self.min_side
        while suffix <= total - self.min_side:
            n_old = total - suffix
            n_new = suffix
            mean_old = math.fsum(window[:n_old]) / n_old
            mean_new = math.fsum(window[n_old:]) / n_new
            self.tests_performed += 1
            local = sequential_confidence(self.tests_performed, self.delta)
            harmonic = (n_old * n_new) / (n_old + n_new)
            cut = self.value_range * math.sqrt(
                math.log(4.0 / local) / (2.0 * harmonic)
            )
            if abs(mean_new - mean_old) > cut:
                self.alarms += 1
                # Keep only the new-regime suffix.
                del self._window[:n_old]
                return True
            suffix *= 2
        return False

    def mean(self) -> float:
        """Mean of the current (post-shrink) window; 0.0 when empty."""
        if not self._window:
            return 0.0
        return math.fsum(self._window) / len(self._window)

    def reset(self) -> None:
        """Drop the window (epoch boundary); the test index survives."""
        self._window.clear()
        self._since_check = 0


class PageHinkleyDetector:
    """Two-sided Page–Hinkley test over a bounded stream.

    Tracks the cumulative deviation of each value from the running
    mean, in both directions, and alarms when either random walk rises
    more than a threshold above its running minimum.  The threshold at
    ``n`` samples reuses Equation 2's sum bound with the confidence
    split over horizons, ``λ_n = Λ·sqrt(n/2 · ln(n²/δ))`` — the
    ``n²`` keeps the walk's excursion statistic (a maximum over
    segment sums, not one fixed sum) from alarming spuriously as the
    horizon grows.  Unlike :class:`AdaptiveWindowDetector` the bound
    is calibrated, not proved — PH is kept as the cheap O(1)-memory
    alternative, so treat ``delta`` as a tuning rate, not an anytime
    budget (documented deviation).  ``tolerance`` is the classic PH
    dead-band: drifts smaller than it are ignored.
    """

    def __init__(
        self,
        value_range: float,
        delta: float = 0.05,
        tolerance: float = 0.0,
        min_samples: int = 30,
    ):
        if value_range <= 0:
            raise LearningError(
                f"value_range must be positive, got {value_range}"
            )
        if not 0.0 < delta < 1.0:
            raise LearningError(f"delta must be in (0, 1), got {delta}")
        if tolerance < 0:
            raise LearningError(
                f"tolerance must be non-negative, got {tolerance}"
            )
        if min_samples < 2:
            raise LearningError("min_samples must be at least 2")
        self.value_range = value_range
        self.delta = delta
        self.tolerance = tolerance
        self.min_samples = min_samples
        self.alarms = 0
        self.reset()
        self.samples = 0  # lifetime, not cleared by reset()

    def update(self, value: float) -> bool:
        value = float(value)
        self.samples += 1
        self._n += 1
        self._mean += (value - self._mean) / self._n
        deviation = value - self._mean
        self._up += deviation - self.tolerance
        self._down += -deviation - self.tolerance
        self._min_up = min(self._min_up, self._up)
        self._min_down = min(self._min_down, self._down)
        if self._n < self.min_samples:
            return False
        threshold = pib_sum_threshold(
            self._n, self.delta / (self._n * self._n), self.value_range
        )
        if (self._up - self._min_up > threshold
                or self._down - self._min_down > threshold):
            self.alarms += 1
            samples = self.samples
            self.reset()
            self.samples = samples
            return True
        return False

    def mean(self) -> float:
        """The running mean of the current segment."""
        return self._mean

    def reset(self) -> None:
        """Restart the test (epoch boundary or post-alarm)."""
        self._n = 0
        self._mean = 0.0
        self._up = 0.0
        self._down = 0.0
        self._min_up = 0.0
        self._min_down = 0.0


#: Each detector kind's constructor, from the value range it watches
#: and the :class:`DriftConfig` that tunes it.  :func:`make_detector`,
#: :class:`DriftConfig`'s check and the CLI's ``--drift-detector``
#: choices read it.
_DETECTORS: Dict[str, Callable[[float, "DriftConfig"], object]] = {
    "window": lambda value_range, config: AdaptiveWindowDetector(
        value_range, delta=config.delta
    ),
    "page-hinkley": lambda value_range, config: PageHinkleyDetector(
        value_range, delta=config.delta, min_samples=PH_MIN_SAMPLES
    ),
}


def make_detector(kind: str, value_range: float, config: "DriftConfig"):
    """Build one detector of ``config``'s flavour for a given range."""
    build = _DETECTORS.get(kind)
    if build is None:
        raise LearningError(
            f"unknown detector kind {kind!r} "
            f"(use {' or '.join(map(repr, _DETECTORS))})"
        )
    return build(value_range, config)


# ----------------------------------------------------------------------
# Drift-aware PIB: epochs, last-known-good, rollback
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DriftAlarm:
    """One confirmed drift alarm and the epoch it opened."""

    epoch: int               # the epoch the alarm *started* (1-based)
    context_number: int      # contexts_processed when it fired
    sources: Tuple[str, ...]  # e.g. ("cost", "arc:Dp")


@dataclass(frozen=True)
class DriftConfig:
    """Tuning for :class:`DriftAwarePIB`'s detectors and epoch protocol.

    ``delta`` is each detector's false-alarm budget (the property the
    false-alarm tests measure); ``detector`` picks the flavour
    (``"window"`` is the default and the one with the anytime ``δ``
    bound).
    """

    delta: float = 0.05
    detector: str = "window"

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise LearningError(
                f"drift delta must be in (0, 1), got {self.delta}"
            )
        if self.detector not in _DETECTORS:
            raise LearningError(
                f"unknown detector kind {self.detector!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the v2 checkpoint's ``drift.config``)."""
        return {"delta": self.delta, "detector": self.detector}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DriftConfig":
        """Inverse of :meth:`to_dict`.  Unknown keys are ignored, so
        checkpoints that carry more tuning keys than these two load."""
        known = {f: payload[f] for f in ("delta", "detector") if f in payload}
        return cls(**known)


class RollbackTransformation(Transformation):
    """The pseudo-operator behind the standing rollback candidate.

    It maps *any* strategy to the epoch's last-known-good one, so the
    ordinary Equation 6 machinery — a :class:`DeltaAccumulator` plus
    the sequential threshold — decides the roll back with exactly the
    statistical force of a climb: rolling back requires confident
    evidence that the last-known-good strategy beats the current one
    *in the current regime*.
    """

    def __init__(self, target: Strategy):
        self.target = target
        self.name = ROLLBACK_NAME

    def apply(self, strategy: Strategy) -> Strategy:
        return self.target

    # chernoff_range: the base class's sound 2·Σ_a max(f, f_blocked) —
    # the two strategies may differ everywhere, so no tighter Λ exists.


class DriftAwarePIB(PIB):
    """PIB under a possibly-drifting context distribution.

    Behaviour is *identical* to :class:`~repro.learning.pib.PIB` until
    a detector confirms drift (the no-drift no-op guarantee: same
    climbs, same strategies, same Equation 6 tests, in the same order).
    On a confirmed alarm the epoch protocol runs:

    1. the current strategy is snapshotted as **last-known-good** — it
       was, with probability ``1 − δ``, the best strategy found for the
       old regime;
    2. every Δ̃ accumulator is discarded and the sequential-test index
       ``i`` restarts, so within the new epoch the ``δ_i = δ·6/(π²i²)``
       schedule telescopes to ``δ`` again — Theorem 1 holds *per
       epoch* (the cross-epoch union is forfeited; see DESIGN.md);
    3. detectors and the windowed frequency estimates reset to the new
       regime;
    4. while the post-drift strategy differs from last-known-good, a
       standing rollback candidate rides in the neighbourhood: if the
       new regime makes the current strategy statistically worse, the
       learner rolls back (recorded as a ``rollback`` step in
       ``history`` and counted separately).

    ``drift`` configures the detectors (a default
    :class:`DriftConfig` when omitted); all other parameters are
    PIB's.  Feed :meth:`record` **settled** results only — under the
    resilience layer that is ``ExecutionResult.settled_result()`` — so
    breaker-open storms and retry noise never register as drift.
    """

    def __init__(
        self,
        graph: InferenceGraph,
        delta: float = 0.05,
        initial_strategy: Optional[Strategy] = None,
        transformations: Optional[Sequence[Transformation]] = None,
        test_every: int = 1,
        recorder: Recorder = NULL_RECORDER,
        drift: Optional[DriftConfig] = None,
        seeded: bool = False,
    ):
        self.drift_config = drift if drift is not None else DriftConfig()
        super().__init__(
            graph,
            delta=delta,
            initial_strategy=initial_strategy,
            transformations=transformations,
            test_every=test_every,
            recorder=recorder,
            seeded=seeded,
        )
        config = self.drift_config
        self.retrieval_statistics = WindowedRetrievalStatistics(graph)
        #: Epoch counter: 0 until the first confirmed drift.
        self.epoch = 0
        self.rollbacks = 0
        self.drift_alarms: List[DriftAlarm] = []
        self.last_known_good: Optional[Strategy] = None
        self._epoch_started_at = 0
        self._cost_detector = make_detector(
            config.detector, graph.total_cost, config
        )
        self._arc_detectors: Dict[str, object] = {
            arc.name: make_detector(config.detector, 1.0, config)
            for arc in graph.experiments()
        }

    # -- monitoring ----------------------------------------------------

    def record(self, result: ExecutionResult) -> None:
        # The seed's runs follow QP^A, not the learner's strategy: no
        # detector sees them.
        seeding = self.seeding
        super().record(result)
        if seeding:
            return
        sources = self._detect(result)
        if sources:
            self._begin_epoch(sources)

    def _detect(self, result: ExecutionResult) -> List[str]:
        """Feed one settled result to every detector; alarm sources."""
        sources: List[str] = []
        if self._cost_detector.update(result.cost):
            sources.append("cost")
        for name, unblocked in result.observations.items():
            if self._arc_detectors[name].update(1.0 if unblocked else 0.0):
                sources.append(f"arc:{name}")
        if not sources:
            return []
        epoch_age = self.contexts_processed - self._epoch_started_at
        if self.epoch > 0 and epoch_age < EPOCH_COOLDOWN:
            return []  # alarm storm damping right after a reset
        return sources

    # -- epoch protocol ------------------------------------------------

    def _begin_epoch(self, sources: Sequence[str]) -> None:
        """A confirmed drift alarm: snapshot, reset, re-arm."""
        self.epoch += 1
        alarm = DriftAlarm(
            epoch=self.epoch,
            context_number=self.contexts_processed,
            sources=tuple(sources),
        )
        self.drift_alarms.append(alarm)
        self.last_known_good = self.strategy
        self._epoch_started_at = self.contexts_processed
        # Restart the sequential-test schedule: within the new epoch
        # the δ_i series telescopes to δ afresh (Theorem 1 per-epoch).
        self.total_tests = 0
        self._cost_detector.reset()
        for detector in self._arc_detectors.values():
            detector.reset()
        self.retrieval_statistics.reset_window()
        self._rebuild_neighbourhood()
        if self.recorder.enabled:
            self.recorder.drift_alarm(
                alarm.epoch, alarm.context_number, list(alarm.sources)
            )
            self.recorder.epoch_reset(
                alarm.epoch,
                alarm.context_number,
                list(self.strategy.arc_names()),
            )

    def _rebuild_neighbourhood(self) -> None:
        super()._rebuild_neighbourhood()
        # During PIB.__init__ the drift attributes do not exist yet.
        target = getattr(self, "last_known_good", None)
        if target is None:
            return
        if tuple(target.arc_names()) == tuple(self.strategy.arc_names()):
            return
        transformation = RollbackTransformation(target)
        self._accumulators.append(
            DeltaAccumulator(
                transformation,
                target,
                transformation.chernoff_range(self.graph),
            )
        )

    def _maybe_climb(self) -> None:
        steps_before = len(self.history)
        super()._maybe_climb()
        if len(self.history) == steps_before:
            return
        record = self.history[-1]
        if record.transformation == ROLLBACK_NAME:
            self.rollbacks += 1
            if self.recorder.enabled:
                self.recorder.rollback(
                    self.epoch,
                    record.context_number,
                    list(record.from_arcs),
                    list(record.to_arcs),
                )

    # -- introspection -------------------------------------------------

    def drift_report(self) -> Dict[str, object]:
        """JSON-ready drift status (mirrored into ``System.report()``)."""
        return {
            "epoch": self.epoch,
            "alarms": [
                {
                    "epoch": alarm.epoch,
                    "context_number": alarm.context_number,
                    "sources": list(alarm.sources),
                }
                for alarm in self.drift_alarms
            ],
            "rollbacks": self.rollbacks,
            "last_known_good": (
                list(self.last_known_good.arc_names())
                if self.last_known_good is not None else None
            ),
        }

