"""Resilient execution: fault injection, retries, breakers, deadlines.

The paper's architecture (Figure 4) is a long-running, self-optimizing
query processor; its Section 5.2 application scans *distributed*
segmented databases.  Both outlive transient infrastructure failures,
so this package supplies the machinery to (a) simulate those failures
deterministically and (b) execute strategies through them without
corrupting what PIB learns:

* :mod:`~repro.resilience.faults` — seeded fault injection
  (:class:`FaultPlan`, :class:`FlakyContext`, :class:`FlakyDatabase`);
* :mod:`~repro.resilience.retry` — exponential backoff with full
  jitter, charged in cost units;
* :mod:`~repro.resilience.circuit` — per-arc closed/open/half-open
  circuit breakers;
* :mod:`~repro.resilience.deadline` — per-query cost deadlines;
* :mod:`~repro.resilience.policy` — the :class:`ResiliencePolicy`
  bundle that :func:`~repro.strategies.execution.execute` runs under
  when passed ``policy=``.

The learning-theoretic contract (see DESIGN.md, "Resilience & fault
model"): every retry and backoff is charged into the caller-facing
``c(Θ, I)``, while PIB is shown only the *settled* outcome of each
arc — so the Δ̃ under-estimates of Theorem 1 see the stationary
blocked/unblocked distribution, never the fault noise.
"""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".circuit": ("CircuitBreaker", "CircuitBreakerBoard", "CircuitState"),
    ".deadline": ("CostDeadline",),
    ".faults": ("FaultPlan", "FaultSpec", "FlakyContext", "FlakyDatabase",
                "Injection"),
    ".policy": ("ResiliencePolicy",),
    ".retry": ("RetryPolicy",),
})
