"""Differential oracles: brute force, engine equivalence, contracts.

Three families of checks, all driven by :class:`~repro.verify.worldgen.WorldSpec`:

* **Exhaustive cost oracle** — on small graphs the optimal strategy is
  computable by enumeration (:mod:`repro.optimal.brute_force`); the
  oracle cross-checks ``Υ_AOT`` against it exactly.
* **Answer-set equivalence** — the top-down SLD engine and the
  semi-naive bottom-up engine implement the same semantics by two
  unrelated algorithms; on every generated knowledge base and query
  their answer sets must coincide.
* **Statistical contracts** — Theorem 1 (every PIB climb is a true
  improvement w.p. ≥ 1−δ) and Theorems 2/3 (PAO lands within ε of the
  optimum w.p. ≥ 1−δ) are probabilistic: a single bad run proves
  nothing.  The contract checkers run N seeded worlds, count the bad
  ones, and reject only when the Clopper–Pearson *lower* confidence
  bound on the bad-run rate exceeds δ — so a correct implementation
  essentially never fails, while a seeded bug (e.g. the flipped
  Equation 6 test) is caught in a handful of worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.stats import clopper_pearson
from ..datalog.bottomup import BottomUpEngine
from ..datalog.engine import TopDownEngine
from ..datalog.parser import parse_atom
from ..datalog.qsqn import QSQNEngine
from ..errors import SampleBudgetExceeded
from ..learning import pib as pib_module
from ..learning.pao import pao, sample_requirements
from ..optimal.brute_force import optimal_strategy_brute_force
from ..optimal.upsilon import upsilon_aot
from ..strategies.engines import BottomUpProofAdapter
from ..strategies.execution import execute
from ..strategies.expected_cost import expected_cost_exact
from ..strategies.strategy import Strategy
from ..workloads.hostile import mutation_storm
from .invariants import ConservatismWatcher, InvariantMonitor, InvariantViolation
from .worldgen import WorldSpec, build_graph_world, build_kb_world, context_rng

__all__ = [
    "OracleFailure",
    "OracleReport",
    "check_cost_oracle",
    "check_answer_equivalence",
    "check_three_way_equivalence",
    "pib_run_world",
    "pib_contract",
    "pao_contract",
]

#: Cost-equality slack for exact expected-cost comparisons.
TOLERANCE = 1e-9


@dataclass
class OracleFailure:
    """One verified failure, always carrying a replayable spec."""

    spec: WorldSpec
    message: str

    def __str__(self) -> str:
        return f"seed {self.spec.seed}: {self.message}"


@dataclass
class OracleReport:
    """The outcome of one oracle over a batch of worlds."""

    name: str
    worlds: int = 0
    skipped: int = 0
    failures: List[OracleFailure] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"FAIL ({len(self.failures)})"
        extra = "".join(
            f", {key}={value}" for key, value in sorted(self.stats.items())
        )
        skipped = f", skipped {self.skipped}" if self.skipped else ""
        return f"{self.name}: {verdict} over {self.worlds} worlds{skipped}{extra}"


# ----------------------------------------------------------------------
# Exhaustive cost oracle
# ----------------------------------------------------------------------


def check_cost_oracle(spec: WorldSpec) -> Optional[str]:
    """``Υ_AOT`` against the exhaustive path-structured enumeration.

    Returns an error message, or ``None`` when the world passes.
    """
    world = build_graph_world(spec)
    upsilon = upsilon_aot(world.graph, world.probs)
    upsilon_cost = expected_cost_exact(upsilon, world.probs)
    _, brute_cost = optimal_strategy_brute_force(world.graph, world.probs)
    if upsilon_cost > brute_cost + max(TOLERANCE, 1e-7 * abs(brute_cost)):
        return (
            f"upsilon_aot cost {upsilon_cost:.9g} exceeds brute-force "
            f"optimum {brute_cost:.9g} "
            f"(strategy {' '.join(upsilon.arc_names())})"
        )
    return None


# ----------------------------------------------------------------------
# Top-down vs. bottom-up answer-set equivalence
# ----------------------------------------------------------------------


def check_answer_equivalence(spec: WorldSpec) -> Optional[str]:
    """The SLD engine against semi-naive bottom-up evaluation.

    For every query in the world both engines must agree on provability
    *and* produce the same set of ground answer instances.
    """
    world = build_kb_world(spec)
    top_down = TopDownEngine(world.rules)
    bottom_up = BottomUpEngine(world.rules)
    for query in world.queries:
        td_instances = {
            query.substitute(answer.substitution)
            for answer in top_down.answers(query, world.database)
        }
        bu_instances = {
            query.substitute(substitution)
            for substitution in bottom_up.answers(query, world.database)
        }
        if td_instances != bu_instances:
            only_td = sorted(str(a) for a in td_instances - bu_instances)
            only_bu = sorted(str(a) for a in bu_instances - td_instances)
            return (
                f"answer sets differ on {query}: "
                f"top-down-only={only_td} bottom-up-only={only_bu}"
            )
        proved = top_down.prove(query, world.database).proved
        holds = bottom_up.holds(query, world.database)
        if proved != holds or proved != bool(td_instances):
            return (
                f"provability disagrees on {query}: "
                f"prove={proved} holds={holds} answers={len(td_instances)}"
            )
    return None


# ----------------------------------------------------------------------
# Three-way equivalence (top-down vs. bottom-up vs. QSQN)
# ----------------------------------------------------------------------


def _answer_sets_agree(engines, queries, database) -> Optional[str]:
    """All engines must produce the same ground answer-instance set and
    the same provability verdict for every query.  ``engines`` is a
    sequence of ``(name, engine)`` pairs sharing the prove/answers
    protocol of :mod:`repro.strategies.engines`."""
    for query in queries:
        results = []
        for name, engine in engines:
            instances = frozenset(
                query.substitute(answer.substitution)
                for answer in engine.answers(query, database)
            )
            results.append((name, instances, engine.prove(query, database).proved))
        base_name, base_instances, _ = results[0]
        for name, instances, _ in results[1:]:
            if instances != base_instances:
                only_base = sorted(str(a) for a in base_instances - instances)
                only_other = sorted(str(a) for a in instances - base_instances)
                return (
                    f"answer sets differ on {query}: "
                    f"{base_name}-only={only_base} {name}-only={only_other}"
                )
        for name, instances, proved in results:
            if proved != bool(base_instances):
                return (
                    f"provability disagrees on {query}: {name} "
                    f"prove={proved} but answers={len(base_instances)}"
                )
    return None


def check_three_way_equivalence(spec: WorldSpec) -> Optional[str]:
    """SLD vs. semi-naive bottom-up vs. QSQN on one world.

    The three engines implement the same stratified semantics by three
    unrelated algorithms (tuple-at-a-time resolution, blind saturation,
    goal-directed set-at-a-time nets); any pairwise disagreement on
    ground answer instances or provability is a bug in at least one of
    them.  With ``mutation_steps > 0`` the world's database is then
    mutated one seeded storm step at a time and the full comparison
    re-run after every step against the *same* engine objects — so
    state cached across a generation bump fails loudly rather than
    silently serving stale answers.
    """
    world = build_kb_world(spec)
    engines = (
        ("top-down", TopDownEngine(world.rules)),
        ("bottom-up", BottomUpProofAdapter(world.rules)),
        ("qsqn", QSQNEngine(world.rules)),
    )
    message = _answer_sets_agree(engines, world.queries, world.database)
    if message is not None:
        return message
    if spec.mutation_steps > 0:
        ops = mutation_storm(spec.seed, world.fact_text, spec.mutation_steps)
        for number, (op, text) in enumerate(ops):
            fact = parse_atom(text)
            if op == "add":
                world.database.add(fact)
            else:
                world.database.remove(fact)
            message = _answer_sets_agree(engines, world.queries,
                                         world.database)
            if message is not None:
                return f"after storm step #{number} ({op} {text}): {message}"
    return None


# ----------------------------------------------------------------------
# PIB contract (Theorem 1)
# ----------------------------------------------------------------------


@dataclass
class PIBWorldResult:
    """One seeded PIB run, judged against exact expected costs."""

    spec: WorldSpec
    climbs: int
    bad_climbs: int
    detail: Optional[str] = None
    invariant_error: Optional[str] = None


def pib_run_world(
    spec: WorldSpec, check_invariants: bool = True
) -> PIBWorldResult:
    """Run PIB on one world and judge every climb it takes.

    The world's distribution is independent, so the true expected cost
    of any strategy is exact (:func:`expected_cost_exact`) — a climb
    from ``Θ`` to ``Θ'`` is *bad* iff ``C[Θ'] > C[Θ]``.  When
    ``check_invariants`` is on, the run also asserts Δ̃ conservatism
    per sample and Equation 6 schedule monotonicity per neighbour.
    """
    world = build_graph_world(spec)
    monitor = InvariantMonitor() if check_invariants else None
    learner = pib_module.PIB(
        world.graph,
        delta=spec.delta,
        recorder=monitor if monitor is not None else pib_module.NULL_RECORDER,
    )
    watcher = ConservatismWatcher() if check_invariants else None
    sampler = world.distribution.sampler(context_rng(spec))
    climbs = 0
    bad = 0
    detail: Optional[str] = None
    invariant_error: Optional[str] = None
    try:
        for _ in range(spec.contexts):
            context = sampler()
            before = learner.strategy
            result = execute(before, context)
            if watcher is not None:
                watcher.observe(learner, result)
            learner.record(result)
            if learner.strategy is not before:
                climbs += 1
                gain = expected_cost_exact(
                    before, world.probs
                ) - expected_cost_exact(learner.strategy, world.probs)
                if gain < -TOLERANCE:
                    bad += 1
                    if detail is None:
                        detail = (
                            f"climb #{climbs} worsened expected cost by "
                            f"{-gain:.6g} "
                            f"({' '.join(before.arc_names())} -> "
                            f"{' '.join(learner.strategy.arc_names())})"
                        )
        if monitor is not None:
            monitor.check()
    except InvariantViolation as violation:
        invariant_error = str(violation)
    return PIBWorldResult(spec, climbs, bad, detail, invariant_error)


def pib_contract(
    specs: Sequence[WorldSpec],
    confidence: float = 0.999,
    check_invariants: bool = True,
) -> OracleReport:
    """Theorem 1 as a falsifiable contract over many seeded worlds.

    A world is *bad* when any of its climbs worsened the true expected
    cost.  Theorem 1 bounds the per-run probability of that event by
    the run's δ, so the contract rejects only when the Clopper–Pearson
    lower bound on the bad-run rate exceeds δ.  Invariant violations
    (Δ̃ conservatism, Equation 6 monotonicity) are deterministic bugs
    and fail immediately.
    """
    report = OracleReport("pib-contract")
    if not specs:
        return report
    delta = specs[0].delta
    bad_runs = 0
    total_climbs = 0
    first_bad: Optional[PIBWorldResult] = None
    for spec in specs:
        outcome = pib_run_world(spec, check_invariants=check_invariants)
        report.worlds += 1
        total_climbs += outcome.climbs
        if outcome.invariant_error is not None:
            report.failures.append(
                OracleFailure(spec, f"invariant: {outcome.invariant_error}")
            )
            continue
        if outcome.bad_climbs:
            bad_runs += 1
            if first_bad is None:
                first_bad = outcome
    lower, upper = clopper_pearson(bad_runs, max(report.worlds, 1), confidence)
    report.stats.update(
        climbs=total_climbs,
        bad_runs=bad_runs,
        delta=delta,
        bad_rate_interval=(round(lower, 4), round(upper, 4)),
    )
    if lower > delta and first_bad is not None:
        report.failures.append(
            OracleFailure(
                first_bad.spec,
                f"bad-climb rate {bad_runs}/{report.worlds} "
                f"(CP lower bound {lower:.4f}) exceeds delta={delta}; "
                f"first bad world: {first_bad.detail}",
            )
        )
    return report


# ----------------------------------------------------------------------
# PAO contract (Theorems 2/3)
# ----------------------------------------------------------------------


def pao_contract(
    specs: Sequence[WorldSpec],
    confidence: float = 0.999,
    budget_cap: int = 60_000,
) -> OracleReport:
    """Theorems 2/3 as a falsifiable contract over many seeded worlds.

    Per world: fix ``ε`` as ``epsilon_fraction`` of the depth-first
    strategy's true cost, draw PAO's Equation 7/8 budgets, run the
    pipeline, and compare ``C[Θ_pao]`` against the brute-force optimum
    plus ε.  Worlds whose worst-case budget exceeds ``budget_cap``
    oracle draws are skipped (and counted — no silent caps).  The
    ε-violation rate is bounded against δ with Clopper–Pearson.
    """
    report = OracleReport("pao-contract")
    if not specs:
        return report
    delta = specs[0].delta
    violations = 0
    first_bad: Optional[Tuple[WorldSpec, str]] = None
    for spec in specs:
        world = build_graph_world(spec)
        aiming = spec.blockable_reduction_rate > 0.0
        baseline = Strategy.depth_first(world.graph)
        epsilon = max(
            spec.epsilon_fraction
            * expected_cost_exact(baseline, world.probs),
            0.25,
        )
        requirements = sample_requirements(
            world.graph, epsilon, spec.delta, aiming=aiming
        )
        if sum(requirements.values()) > budget_cap:
            report.skipped += 1
            continue
        report.worlds += 1
        try:
            result = pao(
                world.graph,
                epsilon,
                spec.delta,
                world.distribution.sampler(context_rng(spec)),
                aiming=aiming,
                max_contexts=budget_cap * 4,
            )
        except SampleBudgetExceeded as error:
            report.failures.append(
                OracleFailure(spec, f"sampling never converged: {error}")
            )
            continue
        pao_cost = expected_cost_exact(result.strategy, world.probs)
        _, optimal_cost = optimal_strategy_brute_force(
            world.graph, world.probs
        )
        if pao_cost > optimal_cost + epsilon + TOLERANCE:
            violations += 1
            if first_bad is None:
                first_bad = (
                    spec,
                    f"C[PAO]={pao_cost:.6g} > C[opt]+eps="
                    f"{optimal_cost + epsilon:.6g} "
                    f"(contexts used: {result.contexts_used})",
                )
    if report.worlds:
        lower, upper = clopper_pearson(violations, report.worlds, confidence)
        report.stats.update(
            violations=violations,
            delta=delta,
            violation_rate_interval=(round(lower, 4), round(upper, 4)),
        )
        if lower > delta and first_bad is not None:
            report.failures.append(
                OracleFailure(
                    first_bad[0],
                    f"epsilon-violation rate {violations}/{report.worlds} "
                    f"(CP lower bound {lower:.4f}) exceeds delta={delta}; "
                    f"first violating world: {first_bad[1]}",
                )
            )
    return report
