"""Differential oracles: brute force, engine equivalence, contracts.

Four families of checks, all driven by :class:`~repro.verify.worldgen.WorldSpec`:

* **Exhaustive cost oracle** — on small graphs the optimal strategy is
  computable by enumeration (:mod:`repro.optimal.brute_force`); the
  oracle cross-checks ``Υ_AOT`` against it exactly.
* **Answer-set equivalence** — the top-down SLD, semi-naive bottom-up
  and QSQN engines implement the same semantics by three unrelated
  algorithms; on every generated knowledge base and query their
  answer sets must coincide.
* **The served-answer oracle** — :func:`judge_served` is the one test
  of whether an answer a session served is true: a clean proved
  answer binds the query to a fact of the store's bottom-up model,
  and a clean "no" leaves no model fact that matches the query.
  Every knowledge-base profile calls it on every answer it serves.
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bench.stats import clopper_pearson
from ..datalog.bottomup import BottomUpEngine
from ..datalog.engine import TopDownEngine
from ..datalog.parser import parse_atom
from ..datalog.qsqn import QSQNEngine
from ..datalog.terms import Atom
from ..errors import SampleBudgetExceeded
from ..learning import pib as pib_module
from ..learning.pao import pao, sample_requirements
from ..optimal.brute_force import optimal_strategy_brute_force
from ..optimal.upsilon import upsilon_aot
from ..serving.config import CacheConfig, SessionConfig
from ..serving.session import QuerySession
from ..storage.interface import FactStore
from ..strategies.engines import ENGINE_NAMES, BottomUpProofAdapter
from ..strategies.execution import execute
from ..strategies.expected_cost import expected_cost_exact
from ..strategies.strategy import Strategy
from ..system import SystemAnswer
from ..workloads.hostile import mutation_storm
from .invariants import ConservatismWatcher, InvariantMonitor, InvariantViolation
from .worldgen import WorldSpec, build_graph_world, build_kb_world, context_rng

__all__ = [
    "OracleFailure",
    "OracleReport",
    "check_cost_oracle",
    "check_three_way_equivalence",
    "engine_sessions",
    "first_divergence",
    "judge_served",
    "pib_run_world",
    "pib_contract",
    "pao_contract",
    "serve_judged",
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
# The served-answer oracle
# ----------------------------------------------------------------------


def judge_served(
    query: Atom, answer: SystemAnswer, model: FactStore
) -> Optional[str]:
    """How a served answer contradicts ``model``, the bottom-up model of
    the store it was served from at that moment, or ``None``.

    A clean proved answer must bind ``query`` to a model fact; a clean
    "no" must leave no model fact that matches ``query``.  An answer
    that is not clean (an incident or a partial view of the store)
    claims neither, and is not judged.
    """
    if not answer.clean:
        return None
    source = "cached" if answer.cached else "fresh"
    if answer.proved:
        if query.substitute(answer.substitution) not in model:
            return (f"{source} clean answer to {query} binds "
                    f"{answer.substitution}, which is no model fact")
    elif model.succeeds(query):
        return (f"{source} clean answer to {query} is no, but a model "
                f"fact matches it")
    return None


def engine_sessions(
    spec: WorldSpec, rules, store: Callable[[], FactStore]
) -> List[Tuple[str, QuerySession]]:
    """One session per fallback engine, both cache tiers on, each over
    the store ``store()`` returns."""
    cache = CacheConfig(answer_capacity=spec.answer_cache or 64,
                        subgoal_capacity=spec.subgoal_memo or 256)
    return [
        (engine, QuerySession(
            rules, store(),
            config=SessionConfig(delta=spec.delta, engine=engine),
            cache=cache,
        ))
        for engine in ENGINE_NAMES
    ]


def serve_judged(
    sessions: Sequence[Tuple[str, QuerySession]],
    queries: Sequence[Atom],
    model: FactStore,
    passes: int = 1,
) -> Optional[str]:
    """Serve ``queries`` ``passes`` times through each session and judge
    every answer against ``model``; the first contradiction, or
    ``None``."""
    for engine, session in sessions:
        for _ in range(passes):
            for query in queries:
                problem = judge_served(query, session.query(query), model)
                if problem is not None:
                    return f"{engine} {problem}"
    return None


def first_divergence(
    what: str, left: Sequence, right: Sequence
) -> Optional[str]:
    """Where two runs that must match row for row first differ, or
    ``None`` when they match."""
    for number, (one, other) in enumerate(zip(left, right)):
        if one != other:
            return f"{what} diverged at row #{number}: {one} != {other}"
    if len(left) != len(right):
        return f"{what} produced {len(left)} rows, then {len(right)}"
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
    """SLD vs. semi-naive bottom-up vs. QSQN on one world, and what a
    session serves through each of them.

    The three engines implement the same stratified semantics by three
    unrelated algorithms (tuple-at-a-time resolution, blind saturation,
    goal-directed set-at-a-time nets); any pairwise disagreement on
    ground answer instances or provability is a bug in at least one of
    them.  A cache-fronted session per fallback engine then serves the
    query stream twice, and :func:`judge_served` holds every answer,
    learned or fallback, fresh or replayed, to the bottom-up model.
    With ``mutation_steps > 0`` the world's database is then mutated
    one seeded storm step at a time and both comparisons re-run after
    every step against the *same* engine and session objects — so
    state cached across a write fails loudly rather than silently
    serving stale answers.
    """
    world = build_kb_world(spec)
    engines = (
        ("top-down", TopDownEngine(world.rules)),
        ("bottom-up", BottomUpProofAdapter(world.rules)),
        ("qsqn", QSQNEngine(world.rules)),
    )
    truth = BottomUpEngine(world.rules)
    sessions = engine_sessions(spec, world.rules, lambda: world.database)

    def judge(passes: int) -> Optional[str]:
        return _answer_sets_agree(
            engines, world.queries, world.database
        ) or serve_judged(sessions, world.queries,
                          truth.model(world.database), passes)

    message = judge(passes=2)
    if message is not None:
        return message
    ops = mutation_storm(spec.seed, world.fact_text, spec.mutation_steps)
    for number, (op, text) in enumerate(ops):
        getattr(world.database, op)(parse_atom(text))
        message = judge(passes=1)
        if message is not None:
            return f"after storm step #{number} ({op} {text}): {message}"
    return None


# ----------------------------------------------------------------------
# PIB contract (Theorem 1)
# ----------------------------------------------------------------------


@dataclass
class PIBWorldResult:
    """One seeded PIB world, judged against exact expected costs: the
    learner from depth-first, and the learner seeded by PAO, over the
    same context stream."""

    spec: WorldSpec
    climbs: int
    bad_climbs: int
    detail: Optional[str] = None
    invariant_error: Optional[str] = None
    seeded_climbs: int = 0
    seeded_bad_climbs: int = 0
    seeded_detail: Optional[str] = None
    #: True expected cost of each learner's strategy after the stream.
    final_cost: float = 0.0
    seeded_final_cost: float = 0.0


def _judged_run(world, spec: WorldSpec, seeded: bool,
                check_invariants: bool) -> Tuple[int, int, Optional[str], float]:
    """One learner over the world's context stream: ``(climbs, bad
    climbs, first bad climb, final true expected cost)``.

    A seeded learner's switch from QP^A to ``Θ₀`` is not a climb; every
    climb after it is judged.  Raises :class:`InvariantViolation`.
    """
    monitor = InvariantMonitor() if check_invariants else None
    learner = pib_module.PIB(
        world.graph,
        delta=spec.delta,
        recorder=monitor if monitor is not None else pib_module.NULL_RECORDER,
        seeded=seeded,
    )
    watcher = ConservatismWatcher() if check_invariants else None
    sampler = world.distribution.sampler(context_rng(spec))
    climbs = 0
    bad = 0
    detail: Optional[str] = None
    for _ in range(spec.contexts):
        context = sampler()
        before = learner.strategy
        seeding = learner.seeding
        result = execute(before, context)
        if watcher is not None and not seeding:
            watcher.observe(learner, result)
        learner.record(result)
        if seeding or learner.strategy is before:
            continue
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
    return climbs, bad, detail, expected_cost_exact(
        learner.strategy, world.probs
    )


def pib_run_world(
    spec: WorldSpec, check_invariants: bool = True
) -> PIBWorldResult:
    """Run PIB on one world, unseeded and seeded, and judge every climb.

    The world's distribution is independent, so the true expected cost
    of any strategy is exact (:func:`expected_cost_exact`) — a climb
    from ``Θ`` to ``Θ'`` is *bad* iff ``C[Θ'] > C[Θ]``.  The seeded
    learner runs the lifecycle a session's new form runs: QP^A, then
    ``Υ_AOT(p̂)``, then PIB.  When ``check_invariants`` is on, each run
    also asserts Δ̃ conservatism per PIB sample and Equation 6 schedule
    monotonicity per neighbour.
    """
    world = build_graph_world(spec)
    try:
        climbs, bad, detail, final = _judged_run(
            world, spec, False, check_invariants)
        seeded = _judged_run(world, spec, True, check_invariants)
    except InvariantViolation as violation:
        return PIBWorldResult(spec, 0, 0, invariant_error=str(violation))
    return PIBWorldResult(
        spec, climbs, bad, detail,
        seeded_climbs=seeded[0], seeded_bad_climbs=seeded[1],
        seeded_detail=seeded[2], final_cost=final,
        seeded_final_cost=seeded[3],
    )


def pib_contract(
    specs: Sequence[WorldSpec],
    confidence: float = 0.999,
    check_invariants: bool = True,
) -> OracleReport:
    """Theorem 1 as a falsifiable contract over many seeded worlds.

    A run is *bad* when any of its climbs worsened the true expected
    cost.  Theorem 1 bounds the per-run probability of that event by
    the run's δ from any ``Θ₀``, so the contract rejects when the
    Clopper–Pearson lower bound on the bad-run rate of either
    lifecycle (from depth-first, or seeded) exceeds δ.  Invariant
    violations (Δ̃ conservatism, Equation 6 monotonicity) are
    deterministic bugs and fail immediately.  ``seeded_worse`` counts
    the worlds whose seeded learner ends at a higher true expected
    cost than the unseeded one.
    """
    report = OracleReport("pib-contract")
    if not specs:
        return report
    delta = specs[0].delta
    outcomes: List[PIBWorldResult] = []
    for spec in specs:
        outcome = pib_run_world(spec, check_invariants=check_invariants)
        report.worlds += 1
        if outcome.invariant_error is not None:
            report.failures.append(
                OracleFailure(spec, f"invariant: {outcome.invariant_error}")
            )
            continue
        outcomes.append(outcome)
    report.stats.update(
        climbs=sum(outcome.climbs for outcome in outcomes),
        seeded_climbs=sum(outcome.seeded_climbs for outcome in outcomes),
        seeded_worse=sum(
            outcome.seeded_final_cost > outcome.final_cost + TOLERANCE
            for outcome in outcomes
        ),
        delta=delta,
    )
    for name, bad_of, detail_of in (
        ("", lambda o: o.bad_climbs, lambda o: o.detail),
        ("seeded_", lambda o: o.seeded_bad_climbs,
         lambda o: o.seeded_detail),
    ):
        bad = [outcome for outcome in outcomes if bad_of(outcome)]
        lower, upper = clopper_pearson(
            len(bad), max(report.worlds, 1), confidence
        )
        report.stats[f"{name}bad_runs"] = len(bad)
        report.stats[f"{name}bad_rate_interval"] = (
            round(lower, 4), round(upper, 4))
        if lower > delta and bad:
            report.failures.append(
                OracleFailure(
                    bad[0].spec,
                    f"{name.replace('_', ' ')}bad-climb rate "
                    f"{len(bad)}/{report.worlds} "
                    f"(CP lower bound {lower:.4f}) exceeds delta={delta}; "
                    f"first bad world: {detail_of(bad[0])}",
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
