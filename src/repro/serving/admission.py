"""Admission control: bounded queues, quotas, shedding, server health.

PR 1 made a *single execution* resilient (retries, breakers, cost
deadlines) and the serving layer made batches fast; this module
protects the :class:`~repro.serving.server.QueryServer` itself from
overload.  An unbounded burst must not queue without limit, starve
tenants, or blow every deadline at once — instead the server admits
what fits, sheds the rest by an explicit policy, and reports typed
outcomes rather than raising on the hot path.

Everything here is deterministic by construction, in the same spirit
as the resilience and verify layers:

* the :class:`TenantQuota` token buckets refill per *arrival tick*
  (each request arrival advances the clock by one), never wall time;
* the :class:`AdmissionQueue` orders by (deadline, arrival) — FIFO
  among equals, earliest-deadline-first when deadlines are set — and
  its capacity bound is enforced at offer time;
* dispatch latency is accounted on a per-form *virtual cost clock*
  (each serve advances the form's clock by its billed cost plus one
  overhead tick), so admission outcomes and latency percentiles are
  byte-identical across worker counts and replays.  An answer-cache
  hit is served at admission for that one tick and never queues.

The learner-isolation invariant (checked by the ``overload`` verify
profile): a shed, rejected, or cache-degraded request never reaches
the processor, so it contributes **no** sample to PIB — Theorem 1's
per-form schedule over the *served* requests is exactly what a plain
sequential run over those requests would produce.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..datalog.terms import Atom

if TYPE_CHECKING:
    from ..system import SystemAnswer

__all__ = [
    "Request",
    "RequestOutcome",
    "AdmissionQueue",
    "TenantQuota",
    "LoadShedder",
    "ServerHealth",
    "HealthTracker",
    "DEFAULT_TENANT",
    "coerce_requests",
    "REASON_QUEUE_FULL",
    "REASON_OVER_QUOTA",
    "REASON_DEADLINE",
    "REASON_DRAINING",
    "REASON_EVICTED",
]

#: Tenant attributed to plain (non-request) submissions.
DEFAULT_TENANT = "default"

#: A server's token-bucket burst size (max tokens a tenant accumulates).
TENANT_BURST = 8
#: Queue-depth fraction at which a server's health enters SHEDDING.
SHED_THRESHOLD = 0.8
#: Queue-depth fraction at which a server's health returns to HEALTHY.
RECOVER_THRESHOLD = 0.5


@dataclass(frozen=True)
class Request:
    """One admission-controlled query submission."""

    query: Atom
    tenant: str = DEFAULT_TENANT
    #: Latency budget in cost units on the form's virtual clock
    #: (queue wait + service); ``None`` inherits the config default.
    deadline: Optional[float] = None


@dataclass(frozen=True)
class RequestOutcome:
    """What the server did with one :class:`Request` — never an
    exception.

    ``status`` is one of:

    * ``"served"`` — the request ran (or hit the coherent cache);
      ``answer`` is the normal :class:`~repro.system.SystemAnswer`;
    * ``"degraded"`` — admission could not run it but salvaged a stale
      cache entry (``degrade-to-cached``); ``answer`` carries it,
      flagged degraded and keeping its completeness verdict (shedding
      never upgrades a partial answer to complete), and ``reason``
      says why it could not run;
    * ``"rejected"`` — shed without an answer; ``reason`` is one of
      the :class:`LoadShedder` reason strings and ``answer`` is None.

    ``latency`` is wait + service in cost units on the form's virtual
    clock.  A coherent answer-cache hit is answered at admission, with
    no queue wait, at latency 1.0: one overhead tick, its billed cost
    being 0.  A rejected request's latency is 0.0: it never waited in
    a served queue slot.
    """

    request: Request
    status: str
    answer: Optional["SystemAnswer"] = None
    reason: Optional[str] = None
    latency: float = 0.0

    @property
    def served(self) -> bool:
        return self.status == "served"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"


# ----------------------------------------------------------------------
# Queueing
# ----------------------------------------------------------------------


def _order_key(request: Request, seq: int,
               default_deadline: Optional[float]) -> Tuple:
    """Deadline-aware FIFO: finite deadlines first (earliest first),
    arrival order among equals."""
    deadline = request.deadline if request.deadline is not None \
        else default_deadline
    if deadline is None:
        return (1, 0.0, seq)
    return (0, float(deadline), seq)


@dataclass
class _Entry:
    key: Tuple
    seq: int
    request: Request

    def __lt__(self, other: "_Entry") -> bool:
        return self.key < other.key


class AdmissionQueue:
    """A bounded, deadline-aware FIFO for one query form.

    ``offer`` never raises: it returns the evicted entry (the incoming
    request itself when there is no better victim), or ``None`` when
    the request fit.  Victim selection is the shedder's job — the
    queue only knows its bound.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self._entries: List[_Entry] = []
        self.offered = 0
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def tenant_depths(self) -> Dict[str, int]:
        depths: Dict[str, int] = {}
        for entry in self._entries:
            depths[entry.request.tenant] = \
                depths.get(entry.request.tenant, 0) + 1
        return depths

    def push(self, request: Request, seq: int,
             default_deadline: Optional[float]) -> None:
        """Insert (caller has already checked/made room)."""
        self.offered += 1
        entry = _Entry(_order_key(request, seq, default_deadline), seq,
                       request)
        bisect.insort(self._entries, entry)
        self.peak_depth = max(self.peak_depth, len(self._entries))

    def evict_tenant(self, tenant: str) -> Optional[Tuple[int, Request]]:
        """Drop the *newest* queued request of one tenant; returns its
        (arrival seq, request) so the caller can attribute the
        outcome."""
        for index in range(len(self._entries) - 1, -1, -1):
            if self._entries[index].request.tenant == tenant:
                entry = self._entries.pop(index)
                return (entry.seq, entry.request)
        return None

    def pop(self) -> Optional[Tuple[int, Request]]:
        """The next (arrival seq, request) in (deadline, arrival)
        order."""
        if not self._entries:
            return None
        entry = self._entries.pop(0)
        return (entry.seq, entry.request)

    def head_key(self) -> Optional[Tuple]:
        return self._entries[0].key if self._entries else None


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------


class TenantQuota:
    """Per-tenant token buckets on the arrival-tick clock.

    Every arrival (admitted or not) advances the global tick; each
    tenant's bucket refills ``rate`` tokens per tick up to ``burst``
    and admission spends one token.  ``rate == 0`` disables rate
    limiting (every acquire succeeds).

    Deterministic: state is a pure function of the arrival sequence.
    """

    def __init__(self, rate: float, burst: int):
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens: Dict[str, float] = {}
        self._last_tick: Dict[str, int] = {}
        self._tick = 0

    def tick(self) -> int:
        """Advance the arrival clock; returns the new tick."""
        self._tick += 1
        return self._tick

    def _refill(self, tenant: str) -> float:
        last = self._last_tick.get(tenant)
        tokens = self._tokens.get(tenant, float(self.burst))
        if last is not None and self.rate > 0:
            tokens = min(float(self.burst),
                         tokens + (self._tick - last) * self.rate)
        self._last_tick[tenant] = self._tick
        self._tokens[tenant] = tokens
        return tokens

    def try_acquire(self, tenant: str) -> bool:
        """Spend one token."""
        if self.rate <= 0:
            return True
        tokens = self._refill(tenant)
        if tokens < 1.0:
            return False
        self._tokens[tenant] = tokens - 1.0
        return True

    def snapshot(self) -> Dict[str, object]:
        return {
            "rate": self.rate,
            "burst": self.burst,
            "tick": self._tick,
            "tokens": {name: round(self._tokens[name], 6)
                       for name in sorted(self._tokens)},
        }


# ----------------------------------------------------------------------
# Shedding
# ----------------------------------------------------------------------

#: Reason strings carried by rejected/degraded outcomes.
REASON_QUEUE_FULL = "queue-full"
REASON_OVER_QUOTA = "over-quota"
REASON_DEADLINE = "deadline-expired-in-queue"
REASON_DRAINING = "draining"
REASON_EVICTED = "evicted-over-quota"


class LoadShedder:
    """Applies one of the three shed policies at admission points.

    The shedder decides *who* loses when something must give; the
    server decides *when* something must give (queue full, quota
    exhausted, draining, deadline expired).  The ``degrade-to-cached``
    policy is expressed by :meth:`wants_degrade` — the server owns the
    cache, so it performs the stale lookup itself.
    """

    def __init__(self, policy: str):
        self.policy = policy
        self.shed_counts: Dict[str, int] = {}

    def note(self, reason: str) -> str:
        self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        return reason

    @property
    def wants_degrade(self) -> bool:
        return self.policy == "degrade-to-cached"

    def overflow_victim(
        self, queue: AdmissionQueue, incoming: Request
    ) -> Optional[Tuple[int, Request]]:
        """Who to evict so ``incoming`` can be queued — the victim's
        (arrival seq, request) — or ``None`` to reject the incoming
        request itself.

        ``reject-over-quota`` evicts from the tenant hogging the most
        queue slots — but only when that tenant holds strictly more
        slots than the incoming request's tenant, so a fair queue
        rejects the newcomer rather than churning.
        """
        if self.policy != "reject-over-quota":
            return None
        depths = queue.tenant_depths()
        if not depths:
            return None
        hog = max(sorted(depths), key=lambda name: depths[name])
        if depths[hog] <= depths.get(incoming.tenant, 0):
            return None
        return queue.evict_tenant(hog)

    def snapshot(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "shed": {name: self.shed_counts[name]
                     for name in sorted(self.shed_counts)},
        }


# ----------------------------------------------------------------------
# Health
# ----------------------------------------------------------------------


class ServerHealth(Enum):
    """The server's overload state machine.

    HEALTHY → SHEDDING when aggregate queue depth crosses the shed
    threshold (or a circuit breaker is open); SHEDDING → HEALTHY when
    depth falls back under the recover threshold and no breaker is
    open.  DRAINING is terminal-ish: entered explicitly via
    ``server.drain()``, it refuses every new request while queued work
    finishes.
    """

    HEALTHY = "healthy"
    SHEDDING = "shedding"
    DRAINING = "draining"


@dataclass
class HealthTracker:
    """Tracks the state machine and its transition history."""

    shed_threshold: float
    recover_threshold: float
    state: ServerHealth = ServerHealth.HEALTHY
    transitions: List[Tuple[str, str]] = field(default_factory=list)

    def _move(self, new_state: ServerHealth) -> Optional[Tuple[str, str]]:
        if new_state is self.state:
            return None
        edge = (self.state.value, new_state.value)
        self.state = new_state
        self.transitions.append(edge)
        return edge

    def drain(self) -> Optional[Tuple[str, str]]:
        return self._move(ServerHealth.DRAINING)

    def update(self, depth: int, capacity: int,
               breaker_open: bool = False) -> Optional[Tuple[str, str]]:
        """Re-evaluate from queue depth; returns the transition edge
        taken (or ``None``).  DRAINING never leaves via ``update``."""
        if self.state is ServerHealth.DRAINING:
            return None
        fraction = depth / capacity if capacity else 0.0
        if self.state is ServerHealth.HEALTHY:
            if breaker_open or fraction >= self.shed_threshold:
                return self._move(ServerHealth.SHEDDING)
        elif self.state is ServerHealth.SHEDDING:
            if not breaker_open and fraction <= self.recover_threshold:
                return self._move(ServerHealth.HEALTHY)
        return None

    def snapshot(self) -> Dict[str, object]:
        return {
            "state": self.state.value,
            "transitions": ["->".join(edge) for edge in self.transitions],
        }


def coerce_requests(queries, tenants: int = 0) -> List[Request]:
    """Wrap plain queries as :class:`Request` objects.

    ``tenants > 0`` assigns synthetic tenants round-robin (``t0``,
    ``t1``, …) — the CLI's ``--tenants`` flag and the burst worlds use
    this to model multi-tenant traffic over a single query stream.
    """
    requests: List[Request] = []
    for index, query in enumerate(queries):
        if isinstance(query, Request):
            requests.append(query)
        elif tenants > 0:
            requests.append(Request(query, tenant=f"t{index % tenants}"))
        else:
            requests.append(Request(query))
    return requests
