"""The verification subsystem: deterministic simulation + differential oracles.

Nothing in a hand-written unit test hunts for the *statistical*
failures the paper's theorems forbid — a PIB climb that makes the
strategy worse, a PAO output more than ``ε`` from ``Υ_AOT``'s optimum,
a serving batch whose answers depend on thread timing.  This package
generates whole seeded worlds (knowledge base + inference graph +
context distribution + fault plan + query stream), runs the system
end-to-end, and differentially checks every result against the
brute-force oracles in :mod:`repro.optimal`:

* :mod:`repro.verify.worldgen` — the :class:`WorldSpec` (a compact,
  JSON-round-tripping description of one world; any failure is a
  one-line repro) plus a delta-debugging shrinker;
* :mod:`repro.verify.oracles` — exhaustive-enumeration cost checks,
  top-down vs. bottom-up answer-set equivalence, the three-way
  top-down/bottom-up/QSQN oracle over the hostile world zoo, and
  Clopper–Pearson contract checkers for Theorem 1 (PIB) and
  Theorems 2/3 (PAO);
* :mod:`repro.verify.simulator` — a virtual-clock, single-threaded
  replay of serving-layer batches, byte-deterministic from the seed,
  plus a mutation-storm replay holding cached answers to an uncached
  processor and to each query's read set;
* :mod:`repro.verify.invariants` — always-on runtime invariants
  (Δ̃ conservatism, Equation 6 schedule monotonicity, breaker state
  legality, cache generation coherence) assertable in any test;
* :mod:`repro.verify.overload` — seeded burst worlds through the real
  admission-controlled server: outcome byte-determinism, worker-count
  parity, learner isolation, no-starvation and quota ceilings;
* :mod:`repro.verify.federation` — cross-backend answer equivalence
  (memory vs SQLite vs healthy-federated), partial-answer soundness
  under shard faults, and faulty-replay byte-determinism;
* :mod:`repro.verify.runner` — the profile runner behind
  ``repro verify --seeds N --profile
  {engine,qsqn,pib,pao,serving,chaos,overload,federation}``.
"""

from ..bench.stats import clopper_pearson
from .invariants import (
    ConservatismWatcher,
    InvariantMonitor,
    InvariantViolation,
    check_cache_generation_coherence,
    verify_invariants,
)
from .oracles import (
    OracleFailure,
    OracleReport,
    check_answer_equivalence,
    check_cost_oracle,
    check_three_way_equivalence,
    pao_contract,
    pib_contract,
)
from .federation import (
    check_federation_determinism,
    check_federation_equivalence,
    check_federation_partial,
)
from .overload import OverloadRun, simulate_overload
from .runner import PROFILES, VerifyReport, replay_spec, run_verify
from .simulator import SimulatedBatch, simulate
from .worldgen import GraphWorld, KBWorld, WorldSpec, build_graph_world, build_kb_world, shrink

__all__ = [
    "ConservatismWatcher",
    "GraphWorld",
    "InvariantMonitor",
    "InvariantViolation",
    "KBWorld",
    "OracleFailure",
    "OracleReport",
    "OverloadRun",
    "PROFILES",
    "SimulatedBatch",
    "VerifyReport",
    "WorldSpec",
    "build_graph_world",
    "build_kb_world",
    "check_answer_equivalence",
    "check_cache_generation_coherence",
    "check_cost_oracle",
    "check_federation_determinism",
    "check_federation_equivalence",
    "check_federation_partial",
    "check_three_way_equivalence",
    "clopper_pearson",
    "pao_contract",
    "pib_contract",
    "replay_spec",
    "run_verify",
    "shrink",
    "simulate",
    "simulate_overload",
    "verify_invariants",
]
