"""Deterministic, seedable fault injection.

The paper's Section 5.2 application — ordering scans over horizontally
segmented *distributed* databases — is exactly the setting where real
retrievals misbehave: a segment times out, a connection drops, a scan
takes ten times longer than budgeted.  This module simulates those
failure modes reproducibly, so every resilience property in the test
suite and the chaos benches is a deterministic function of a seed:

* :class:`FaultSpec` — the per-arc failure profile: transient-fault
  and timeout probabilities, latency (cost) spikes, and an optional
  deterministic burst of failures on the first attempts;
* :class:`FaultPlan` — a seeded injector mapping arc names to specs
  and drawing one :class:`Injection` per attempt;
* :class:`FlakyContext` — wraps a :class:`~repro.graphs.contexts.Context`
  so that attempting an arc may raise
  :class:`~repro.errors.RetrievalFaultError` (transiently — the
  underlying blocked/unblocked truth is unchanged);
* :class:`FlakyDatabase` — a Datalog
  :class:`~repro.datalog.database.Database` whose probes first draw
  from a plan keyed by predicate name, so the self-optimizing
  processor's lazy retrievals fault at the storage layer.

Faults are *transient* by construction: retrying the same attempt
re-draws from the plan, and the settled outcome always reflects the
wrapped context or the stored facts.  Nothing here ever changes an
answer — only whether (and at what cost) the answer is reachable on a
given attempt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ..datalog.database import Database
from ..datalog.terms import Atom
from ..storage.interface import _WindowedProbes
from ..errors import DistributionError, RetrievalFaultError
from ..graphs.contexts import Context
from ..graphs.inference_graph import Arc, ArcKind

__all__ = [
    "FaultSpec",
    "Injection",
    "FaultPlan",
    "FlakyContext",
    "FlakyDatabase",
]

#: Cost multiplier charged for a simulated timeout: the caller waited
#: for the full (worst-case) attempt and then some before giving up.
TIMEOUT_COST_MULTIPLIER = 2.0


@dataclass(frozen=True)
class FaultSpec:
    """One arc's (or predicate's) failure profile.

    ``fault_rate``
        Probability that an attempt raises a plain transient fault.
    ``timeout_rate``
        Probability that an attempt raises a simulated timeout, which
        charges ``TIMEOUT_COST_MULTIPLIER`` times the attempt cost.
    ``latency_rate`` / ``latency_factor``
        Probability that an otherwise-successful attempt suffers a
        cost spike, and the multiplier it is charged.
    ``fail_first``
        Deterministically fail this many *initial* attempts before the
        probabilistic regime starts — the knob tests use to exercise
        retry exhaustion and circuit opening without relying on rates.
    """

    fault_rate: float = 0.0
    timeout_rate: float = 0.0
    latency_rate: float = 0.0
    latency_factor: float = 1.0
    fail_first: int = 0

    def __post_init__(self):
        for name in ("fault_rate", "timeout_rate", "latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise DistributionError(f"{name} must be in [0, 1], got {rate}")
        if self.fault_rate + self.timeout_rate > 1.0 + 1e-9:
            raise DistributionError("fault_rate + timeout_rate exceeds 1")
        if self.latency_factor < 1.0:
            raise DistributionError("latency_factor must be at least 1")
        if self.fail_first < 0:
            raise DistributionError("fail_first cannot be negative")


@dataclass(frozen=True)
class Injection:
    """What the plan decided for one attempt.

    ``faulted`` means the attempt raises; ``timeout`` refines the kind;
    ``cost_multiplier`` scales the attempt's charge either way (timeout
    waits, latency spikes).
    """

    faulted: bool = False
    timeout: bool = False
    cost_multiplier: float = 1.0

    def raise_if_faulted(self, arc_name: str) -> None:
        if self.faulted:
            raise RetrievalFaultError(
                arc_name,
                timeout=self.timeout,
                cost_multiplier=self.cost_multiplier,
            )


_CLEAN = Injection()


class FaultPlan:
    """A seeded map from arc name to failure behaviour.

    Draws are deterministic given the seed *and* the sequence of
    attempts: each arc consumes its own RNG stream (seeded from the
    plan seed and the arc name), so injecting faults on one arc never
    perturbs the draws of another, and re-running the same attempt
    sequence reproduces the same injections exactly.
    """

    def __init__(
        self,
        seed: int = 0,
        default: Optional[FaultSpec] = None,
        per_arc: Optional[Mapping[str, FaultSpec]] = None,
    ):
        self.seed = int(seed)
        self.default = default or FaultSpec()
        self.per_arc: Dict[str, FaultSpec] = dict(per_arc or {})
        self._rngs: Dict[str, random.Random] = {}
        self._attempts: Dict[str, int] = {}
        self.injected_faults = 0
        self.injected_timeouts = 0
        self.injected_spikes = 0

    def spec_for(self, arc_name: str) -> FaultSpec:
        return self.per_arc.get(arc_name, self.default)

    def _rng_for(self, arc_name: str) -> random.Random:
        rng = self._rngs.get(arc_name)
        if rng is None:
            rng = random.Random(f"{self.seed}:{arc_name}")
            self._rngs[arc_name] = rng
        return rng

    def draw(self, arc_name: str) -> Injection:
        """One attempt's injection for ``arc_name`` (advances the stream)."""
        spec = self.spec_for(arc_name)
        attempt = self._attempts.get(arc_name, 0)
        self._attempts[arc_name] = attempt + 1
        if attempt < spec.fail_first:
            self.injected_faults += 1
            return Injection(faulted=True)
        if (
            spec.fault_rate == 0.0
            and spec.timeout_rate == 0.0
            and spec.latency_rate == 0.0
        ):
            return _CLEAN
        roll = self._rng_for(arc_name).random()
        if roll < spec.fault_rate:
            self.injected_faults += 1
            return Injection(faulted=True)
        if roll < spec.fault_rate + spec.timeout_rate:
            self.injected_timeouts += 1
            return Injection(
                faulted=True,
                timeout=True,
                cost_multiplier=TIMEOUT_COST_MULTIPLIER,
            )
        if roll < spec.fault_rate + spec.timeout_rate + spec.latency_rate:
            self.injected_spikes += 1
            return Injection(cost_multiplier=spec.latency_factor)
        return _CLEAN

    def reset(self) -> None:
        """Rewind every stream to the seed (for reproducing a run)."""
        self._rngs.clear()
        self._attempts.clear()
        self.injected_faults = 0
        self.injected_timeouts = 0
        self.injected_spikes = 0

    def summary(self) -> Dict[str, int]:
        """Injection counts so far (for reports and assertions)."""
        return {
            "faults": self.injected_faults,
            "timeouts": self.injected_timeouts,
            "latency_spikes": self.injected_spikes,
        }


class FlakyContext(Context):
    """A context whose arc attempts may transiently fault.

    Wraps an inner :class:`Context`; the blocked/unblocked *truth* is
    the inner context's, but each attempt first consults the plan,
    which may raise :class:`RetrievalFaultError` or attach a cost
    spike.  :func:`~repro.strategies.execution.execute` without a
    policy therefore crashes on the first injected fault —
    demonstrating why the ``policy=`` path exists — while a policy run
    retries through to the settled outcome.
    """

    __slots__ = ("_inner", "plan")

    def __init__(self, inner: Context, plan: FaultPlan):
        # Deliberately skip Context.__init__ — truth lives in ``inner``.
        self._inner = inner
        self.plan = plan
        self.query = inner.query
        self.database = inner.database

    @property
    def inner(self) -> Context:
        return self._inner

    def attempt(self, arc: Arc) -> Tuple[bool, float]:
        """One attempt: (settled status, cost multiplier) or a raise.

        Only retrieval arcs touch storage, so only they fault;
        reduction arcs are in-memory rule applications and always
        settle cleanly.
        """
        if arc.kind is not ArcKind.RETRIEVAL:
            return self._inner.traversable(arc), 1.0
        injection = self.plan.draw(arc.name)
        injection.raise_if_faulted(arc.name)
        return self._inner.traversable(arc), injection.cost_multiplier

    def traversable(self, arc: Arc) -> bool:
        return self.attempt(arc)[0]

    def blocked(self, arc: Arc) -> bool:
        return not self.traversable(arc)

    def statuses(self) -> Dict[str, bool]:
        return self._inner.statuses()

    def unblocked_set(self) -> frozenset:
        return self._inner.unblocked_set()

    def __eq__(self, other) -> bool:
        if isinstance(other, FlakyContext):
            return self._inner == other._inner
        return self._inner == other

    def __hash__(self) -> int:
        return hash(self._inner)

    def __repr__(self) -> str:
        return f"Flaky({self._inner!r})"


class FlakyDatabase(_WindowedProbes, Database):
    """A database whose probes transiently fault, keyed by predicate.

    Meant for use behind :class:`~repro.graphs.contexts.LazyDatalogContext`:
    the self-optimizing processor's own retrievals then fault at the
    storage layer, exactly where a deployed system would see them.
    ``facts`` are built in one pass in enumeration order, as by
    :class:`Database`, so ``FlakyDatabase(Database.from_program(text),
    plan)`` and ``FlakyDatabase.from_program(text, plan=plan)`` hold the
    same facts at the same generation.  Only the probing entry points
    draw from ``plan`` first — ``retrieve``, ``facts_matching``,
    ``succeeds`` and the row probe, all through the one match loop
    :meth:`_matching`; mutation, iteration, the catalog, read versions
    and :meth:`copy` never draw.

    A latency spike on a probe that does not fault is billed through
    the store's probe window, as the federated store bills its
    latency: the caller bills the probe's unit cost, and the window
    the spike's excess over it, which the processor adds to the
    answer.  A faulted probe's whole multiplier is billed by the
    executor from the raised error, so nothing is counted twice.
    """

    def __init__(self, facts: Iterable[Atom], plan: FaultPlan):
        super().__init__(facts)
        self.plan = plan
        #: Optional injection log for parity assertions: when set to a
        #: list, every probe appends ``(predicate, faulted, timeout,
        #: cost_multiplier)``.  ``None`` (default) keeps the hot path
        #: allocation-free.
        self.probe_log: Optional[list] = None

    def _inject(self, pattern) -> None:
        """One injection draw, billed identically for every probing
        entry point — ``retrieve``, ``facts_matching``, ``succeeds`` and
        the row probe draw eagerly from the same predicate-keyed
        stream, so the same pattern sequence produces the same
        injections and the same billed cost regardless of which entry
        point ran it."""
        predicate = pattern.predicate
        injection = self.plan.draw(predicate)
        if self.probe_log is not None:
            self.probe_log.append(
                (
                    predicate,
                    injection.faulted,
                    injection.timeout,
                    injection.cost_multiplier,
                )
            )
        # The window bills a spike's excess over the probe's unit cost,
        # which the caller bills; a faulted probe's whole multiplier is
        # billed by the executor from the raised error.
        self._bill_probe(
            0.0 if injection.faulted else injection.cost_multiplier - 1.0
        )
        injection.raise_if_faulted(predicate)

    def _matching(self, pattern, form: int) -> Iterator:
        self._inject(pattern)
        return super()._matching(pattern, form)

    def copy(self) -> "FlakyDatabase":
        return FlakyDatabase(self._relations(), self.plan)

    def __repr__(self) -> str:
        return f"FlakyDatabase({len(self)} facts)"
