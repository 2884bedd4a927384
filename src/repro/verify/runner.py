"""The verify runner: profiles, chaos checks, artifacts, replay.

``repro verify --seeds N --profile P`` funnels here.  A *profile* is a
named family of seeded worlds plus the oracles that judge them:

=========  ==========================================================
profile    what is checked
=========  ==========================================================
engine     top-down vs. bottom-up answer-set equivalence on random
           stratified knowledge bases (with negation)
qsqn       three-way answer-set equivalence (top-down vs. bottom-up
           vs. QSQN nets) over the hostile world zoo: layered,
           deep-recursion, same-generation, and negation-mix shapes,
           with hot-key-skewed query streams and cache-busting
           mutation storms on alternating seeds
pib        the Υ/brute-force cost oracle per world, then Theorem 1 as
           a Clopper–Pearson contract (plus Δ̃ conservatism and
           Equation 6 monotonicity invariants on every run)
pao        Theorems 2/3 as a Clopper–Pearson contract against the
           brute-force optimum (plain and aiming worlds alternate)
serving    the virtual-clock simulator: trace byte-determinism,
           sequential parity, cache transparency, generation coherence
chaos      fault-plan worlds through the resilient executor: settled
           observations match ground truth, billed ≥ settled cost,
           byte-deterministic reruns, breaker state legality; every
           fourth seed is a combined drift+faults+burst world (the
           distribution shifts mid-run and contexts repeat in bursts)
overload   seeded burst worlds through admission control: outcome and
           trace byte-determinism, worker-count parity, typed-outcome
           conservation, learner isolation (shed requests feed no PIB
           sample), no-starvation and quota ceilings under
           reject-over-quota
federation cross-backend answer equivalence (memory vs SQLite vs
           healthy-federated, same answers in the same order), partial
           answers under shard faults are sound subsets with
           correctly-attributed missing shards, and faulty federated
           replays are byte-deterministic
experience the warm-start priors-only contract: identical answers and
           Equation 6 test schedule with/without warm-start, exact
           self-matches, insertion-order/hash-seed-independent
           nearest-neighbour rankings, and corrupt-store recovery
           through the ``.bak`` ladder
=========  ==========================================================

Deterministic failures are shrunk (``worldgen.shrink``) before being
reported, and every reported failure carries a `WorldSpec`; with
``--artifacts DIR`` each one is also written as ``worldspec-*.json``
for ``repro verify --replay``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..resilience.faults import FlakyContext
from ..resilience.policy import ResiliencePolicy
from ..resilience.retry import RetryPolicy
from ..serving.config import ExperienceConfig
from ..strategies.execution import execute
from ..strategies.strategy import Strategy
from .experience import (
    check_experience_determinism,
    check_experience_priors,
    check_experience_recovery,
)
from .federation import (
    check_federation_determinism,
    check_federation_equivalence,
    check_federation_partial,
)
from .invariants import InvariantMonitor
from .oracles import (
    OracleFailure,
    OracleReport,
    check_answer_equivalence,
    check_cost_oracle,
    check_three_way_equivalence,
    pao_contract,
    pib_contract,
)
from .overload import (
    check_overload_conservation,
    check_overload_determinism,
    check_overload_fairness,
    check_overload_isolation,
    check_overload_worker_parity,
)
from .simulator import (
    check_byte_determinism,
    check_cache_effects,
    check_generation_coherence,
    check_sequential_parity,
)
from .worldgen import (
    WorldSpec,
    build_graph_world,
    context_rng,
    shifted_distribution,
    shrink,
)

__all__ = ["PROFILES", "VerifyReport", "specs_for", "run_profile",
           "run_verify", "replay_spec"]

PROFILES = (
    "engine", "qsqn", "pib", "pao", "serving", "chaos", "overload",
    "federation", "experience",
)

#: Coverage floor (percent) enforced by ``make coverage`` and CI's
#: coverage job.  Calibrated against the 88.0% line coverage measured
#: by ``tools/approx_coverage.py`` at the floor's introduction, minus
#: a margin for collector differences (coverage.py counts some lines
#: the settrace approximation cannot, and vice versa).
COVERAGE_FLOOR = 85


@dataclass
class VerifyReport:
    """Everything one ``repro verify`` invocation produced."""

    profile: str
    reports: List[OracleReport] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def failures(self) -> List[OracleFailure]:
        return [f for report in self.reports for f in report.failures]

    def summary_lines(self) -> List[str]:
        lines = [f"profile {self.profile}:"]
        for report in self.reports:
            lines.append(f"  {report.summary()}")
            for failure in report.failures:
                lines.append(f"    {failure}")
                lines.append(f"    replay: {failure.spec.to_json()}")
        for path in self.artifacts:
            lines.append(f"  wrote {path}")
        return lines


# ----------------------------------------------------------------------
# Seeded spec families
# ----------------------------------------------------------------------


def specs_for(
    profile: str, seeds: int, base_seed: int = 0
) -> List[WorldSpec]:
    """The profile's world family for seeds ``base_seed … base_seed+N-1``."""
    specs: List[WorldSpec] = []
    for offset in range(seeds):
        seed = base_seed + offset
        if profile == "engine":
            specs.append(
                WorldSpec(
                    seed=seed,
                    profile="engine",
                    negation_rate=0.15 if seed % 2 else 0.0,
                )
            )
        elif profile == "qsqn":
            # Cycle the hostile shapes; alternate seeds add cache-
            # busting storms, and the layered worlds get skewed query
            # streams plus rule-level negation.
            shape = ("layered", "deep-recursion", "same-generation",
                     "negation-mix")[seed % 4]
            specs.append(
                WorldSpec(
                    seed=seed,
                    profile="qsqn",
                    kb_shape=shape,
                    negation_rate=0.2 if shape == "layered" else 0.0,
                    hot_key_skew=0.75 if shape == "layered" else 0.0,
                    mutation_steps=6 if seed % 2 else 0,
                )
            )
        elif profile == "pib":
            specs.append(
                WorldSpec(
                    seed=seed,
                    profile="pib",
                    blockable_reduction_rate=0.3 if seed % 3 == 2 else 0.0,
                )
            )
        elif profile == "pao":
            specs.append(
                WorldSpec(
                    seed=seed,
                    profile="pao",
                    n_internal=2,
                    n_retrievals=3,
                    prob_low=0.3,
                    prob_high=0.9,
                    blockable_reduction_rate=0.5 if seed % 2 else 0.0,
                )
            )
        elif profile == "serving":
            specs.append(
                WorldSpec(
                    seed=seed,
                    profile="serving",
                    workers=2 + seed % 3,
                    answer_cache=32,
                    subgoal_memo=128,
                    repeats=2,
                )
            )
        elif profile == "chaos":
            # Every fourth seed is the combined drift+faults+burst
            # world: the blocking distribution shifts at the midpoint
            # and each sampled context arrives as a burst.
            combined = seed % 4 == 3
            specs.append(
                WorldSpec(
                    seed=seed,
                    profile="chaos",
                    contexts=40,
                    fault_rate=0.15,
                    timeout_rate=0.05,
                    retries=3,
                    drift_shift=0.6 if combined else 0.0,
                    burst_factor=3 if combined else 1,
                )
            )
        elif profile == "overload":
            specs.append(
                WorldSpec(
                    seed=seed,
                    profile="overload",
                    n_queries=10,
                    burst_factor=4,
                    tenants=2 + seed % 3,
                    queue_capacity=4 + seed % 5,
                    tenant_rate=0.5 if seed % 2 else 0.0,
                    shed_policy=(
                        "degrade-to-cached" if seed % 3 == 2
                        else "reject-over-quota" if seed % 3 == 1
                        else "reject-newest"
                    ),
                    request_deadline=40.0 if seed % 5 == 4 else None,
                    answer_cache=32 if seed % 3 == 2 else 0,
                )
            )
        elif profile == "federation":
            specs.append(
                WorldSpec(
                    seed=seed,
                    profile="federation",
                    n_queries=10,
                    n_shards=2 + seed % 3,
                    shard_replicas=bool(seed % 2),
                    fault_rate=0.2,
                    timeout_rate=0.05,
                    retries=2,
                )
            )
        elif profile == "experience":
            # PIB-style worlds with varied skeletons so the structural
            # fingerprints genuinely differ across the family.
            specs.append(
                WorldSpec(
                    seed=seed,
                    profile="experience",
                    n_internal=2 + seed % 2,
                    n_retrievals=3 + seed % 3,
                    blockable_reduction_rate=0.3 if seed % 3 == 2 else 0.0,
                )
            )
        else:
            raise ValueError(f"unknown profile {profile!r}")
    return specs


# ----------------------------------------------------------------------
# Chaos checks
# ----------------------------------------------------------------------


def _chaos_outcomes(spec: WorldSpec, monitor: InvariantMonitor):
    """One seeded chaos run: the resilient executor over flaky contexts.

    Returns the per-context outcome tuples (the determinism
    fingerprint) or raises on a soundness violation.
    """
    world = build_graph_world(spec)
    assert world.fault_plan is not None
    strategy = Strategy.depth_first(world.graph)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=max(spec.retries, 1)),
        failure_threshold=3,
        cooldown=4,
        seed=spec.seed,
        recorder=monitor,
    )
    rng = context_rng(spec)
    # Combined drift+faults+burst worlds: at the midpoint the blocking
    # distribution shifts toward a second seeded draw, and every
    # sampled context arrives burst_factor times in a row (the same
    # storage state hammered back-to-back, the breaker stress case).
    drifted = (shifted_distribution(spec, world)
               if spec.drift_shift > 0.0 else None)
    midpoint = spec.contexts // 2
    burst = max(spec.burst_factor, 1)
    outcomes = []
    contexts = []
    for number in range(spec.contexts):
        source = (drifted if drifted is not None and number >= midpoint
                  else world.distribution)
        contexts.extend([source.sample(rng)] * burst)
    for number, inner in enumerate(contexts):
        result = execute(
            strategy, FlakyContext(inner, world.fault_plan), policy=policy
        )
        truth = inner.statuses()
        for name, settled in result.observations.items():
            if name in truth and settled != truth[name]:
                raise AssertionError(
                    f"context #{number}: settled observation for {name} is "
                    f"{settled} but the ground truth is {truth[name]} — "
                    f"a fault leaked into the learner's view"
                )
        if result.settled_cost > result.cost + 1e-9:
            raise AssertionError(
                f"context #{number}: settled cost {result.settled_cost} "
                f"exceeds billed cost {result.cost}"
            )
        outcomes.append(
            (
                round(result.cost, 9),
                round(result.settled_cost, 9),
                result.succeeded,
                result.degraded,
                tuple(sorted(result.observations.items())),
                tuple(result.skipped_open),
                tuple(result.unsettled),
            )
        )
    return outcomes


def check_chaos(spec: WorldSpec) -> Optional[str]:
    """Soundness + determinism of the resilience layer on one world."""
    try:
        monitor = InvariantMonitor()
        first = _chaos_outcomes(spec, monitor)
        monitor.check()
        rerun_monitor = InvariantMonitor()
        second = _chaos_outcomes(spec, rerun_monitor)
        rerun_monitor.check()
    except AssertionError as error:
        return str(error)
    if first != second:
        for number, (left, right) in enumerate(zip(first, second)):
            if left != right:
                return (
                    f"chaos replay diverged at context #{number}: "
                    f"{left} != {right}"
                )
        return "chaos replay produced different context counts"
    return None


# ----------------------------------------------------------------------
# Profile execution
# ----------------------------------------------------------------------


def _run_deterministic(
    name: str,
    specs: Sequence[WorldSpec],
    check: Callable[[WorldSpec], Optional[str]],
    shrink_failures: bool = True,
) -> OracleReport:
    """Run a deterministic (per-world pass/fail) check, shrinking any
    failing spec before reporting it."""
    report = OracleReport(name)
    for spec in specs:
        report.worlds += 1
        message = check(spec)
        if message is None:
            continue
        reported = spec
        if shrink_failures:
            try:
                reported = shrink(spec, lambda s: check(s) is not None)
                message = check(reported) or message
            except Exception:
                reported = spec
        report.failures.append(OracleFailure(reported, message))
    return report


def run_profile(
    profile: str,
    seeds: int = 20,
    base_seed: int = 0,
    specs: Optional[Sequence[WorldSpec]] = None,
    shrink_failures: bool = True,
    experience: Optional[ExperienceConfig] = None,
) -> VerifyReport:
    """Run one profile's full oracle battery.

    ``experience`` carries the CLI's ``--experience-*`` knobs into the
    experience profile's checks; other profiles ignore it.
    """
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {PROFILES}"
        )
    family = list(specs) if specs is not None else specs_for(
        profile, seeds, base_seed
    )
    verify = VerifyReport(profile)
    if profile == "engine":
        verify.reports.append(
            _run_deterministic(
                "engine-equivalence", family, check_answer_equivalence,
                shrink_failures,
            )
        )
    elif profile == "qsqn":
        verify.reports.append(
            _run_deterministic(
                "qsqn-three-way-equivalence", family,
                check_three_way_equivalence, shrink_failures,
            )
        )
    elif profile == "pib":
        verify.reports.append(
            _run_deterministic(
                "cost-oracle", family, check_cost_oracle, shrink_failures
            )
        )
        verify.reports.append(pib_contract(family))
    elif profile == "pao":
        verify.reports.append(
            _run_deterministic(
                "cost-oracle", family, check_cost_oracle, shrink_failures
            )
        )
        verify.reports.append(pao_contract(family))
    elif profile == "serving":
        for name, check in (
            ("serving-byte-determinism", check_byte_determinism),
            ("serving-sequential-parity", check_sequential_parity),
            ("serving-cache-transparency", check_cache_effects),
            ("serving-generation-coherence", check_generation_coherence),
        ):
            verify.reports.append(
                _run_deterministic(name, family, check, shrink_failures)
            )
    elif profile == "chaos":
        verify.reports.append(
            _run_deterministic("chaos-resilience", family, check_chaos,
                               shrink_failures)
        )
    elif profile == "overload":
        for name, check in (
            ("overload-byte-determinism", check_overload_determinism),
            ("overload-worker-parity", check_overload_worker_parity),
            ("overload-conservation", check_overload_conservation),
            ("overload-learner-isolation", check_overload_isolation),
            ("overload-fairness", check_overload_fairness),
        ):
            verify.reports.append(
                _run_deterministic(name, family, check, shrink_failures)
            )
    elif profile == "federation":
        for name, check in (
            ("federation-backend-equivalence", check_federation_equivalence),
            ("federation-partial-soundness", check_federation_partial),
            ("federation-byte-determinism", check_federation_determinism),
        ):
            verify.reports.append(
                _run_deterministic(name, family, check, shrink_failures)
            )
    elif profile == "experience":
        for name, check in (
            ("experience-priors-only", check_experience_priors),
            ("experience-nn-determinism", check_experience_determinism),
            ("experience-store-recovery", check_experience_recovery),
        ):
            verify.reports.append(
                _run_deterministic(
                    name,
                    family,
                    lambda s, _check=check: _check(s, experience),
                    shrink_failures,
                )
            )
    return verify


def _write_artifacts(
    verify: VerifyReport, artifact_dir: str
) -> None:
    os.makedirs(artifact_dir, exist_ok=True)
    for report in verify.reports:
        for index, failure in enumerate(report.failures):
            path = os.path.join(
                artifact_dir,
                f"worldspec-{verify.profile}-{report.name}-"
                f"{failure.spec.seed}-{index}.json",
            )
            failure.spec.save(path)
            verify.artifacts.append(path)


def run_verify(
    profiles: Sequence[str],
    seeds: int = 20,
    base_seed: int = 0,
    artifact_dir: Optional[str] = None,
    out=None,
    shrink_failures: bool = True,
    experience: Optional[ExperienceConfig] = None,
) -> int:
    """Run several profiles; print summaries; return a process exit code."""
    exit_code = 0
    for profile in profiles:
        verify = run_profile(
            profile, seeds, base_seed, shrink_failures=shrink_failures,
            experience=experience,
        )
        if artifact_dir is not None and not verify.ok:
            _write_artifacts(verify, artifact_dir)
        if out is not None:
            for line in verify.summary_lines():
                print(line, file=out)
        if not verify.ok:
            exit_code = 1
    return exit_code


def replay_spec(
    spec: WorldSpec, out=None, shrink_failures: bool = False
) -> int:
    """Re-run every check of the spec's profile on exactly this world —
    the ``repro verify --replay world.json`` path."""
    verify = run_profile(
        spec.profile, specs=[spec], shrink_failures=shrink_failures
    )
    if out is not None:
        for line in verify.summary_lines():
            print(line, file=out)
    return 0 if verify.ok else 1


#: Check names per profile, for documentation and the CLI help text.
PROFILE_CHECKS: Dict[str, List[str]] = {
    "engine": ["engine-equivalence"],
    "qsqn": ["qsqn-three-way-equivalence"],
    "pib": ["cost-oracle", "pib-contract"],
    "pao": ["cost-oracle", "pao-contract"],
    "serving": [
        "serving-byte-determinism",
        "serving-sequential-parity",
        "serving-cache-transparency",
        "serving-generation-coherence",
    ],
    "chaos": ["chaos-resilience"],
    "overload": [
        "overload-byte-determinism",
        "overload-worker-parity",
        "overload-conservation",
        "overload-learner-isolation",
        "overload-fairness",
    ],
    "federation": [
        "federation-backend-equivalence",
        "federation-partial-soundness",
        "federation-byte-determinism",
    ],
    "experience": [
        "experience-priors-only",
        "experience-nn-determinism",
        "experience-store-recovery",
    ],
}
