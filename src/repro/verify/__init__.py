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
  under shard faults, faulty-replay byte-determinism, and clean
  cached answers over a faulty store;
* :mod:`repro.verify.experience` — the warm-start priors-only
  contract and corrupt-store recovery of the experience store;
* :mod:`repro.verify.runner` — the profile runner behind
  ``repro verify --seeds N --profile P``: its profile table names each
  profile's world family and checks, and every list of the profiles
  is read from it.
"""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    "..bench.stats": ("clopper_pearson",),
    ".invariants": ("ConservatismWatcher", "InvariantMonitor",
                    "InvariantViolation", "check_cache_generation_coherence",
                    "verify_invariants"),
    ".oracles": ("OracleFailure", "OracleReport", "check_cost_oracle",
                 "check_three_way_equivalence", "pao_contract",
                 "pib_contract"),
    ".federation": ("check_federation_clean_answers",
                    "check_federation_determinism",
                    "check_federation_equivalence",
                    "check_federation_partial"),
    ".overload": ("OverloadRun", "simulate_overload"),
    ".runner": ("PROFILES", "VerifyReport", "replay_spec", "run_verify"),
    ".simulator": ("SimulatedBatch", "simulate"),
    ".worldgen": ("GraphWorld", "KBWorld", "WorldSpec", "build_graph_world",
                  "build_kb_world", "shrink"),
})
