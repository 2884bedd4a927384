"""The reproduction experiments, one function per DESIGN.md row.

Each function is deterministic given its seed, returns an
:class:`~repro.bench.harness.ExperimentResult`, and is invoked both by
the ``benchmarks/`` suite (which times it and asserts its checks) and
by the integration tests (with smaller parameters).

The paper has no measured tables — it is a PODS theory paper — so the
"shape" being reproduced is: the worked examples' exact numbers, the
direction of every comparison (who wins), and the frequency with which
the probabilistic guarantees of Theorems 1–3 and Lemma 1 hold.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.database import Database
from ..datalog.parser import parse_atom, parse_program, parse_query
from ..graphs.contexts import Context
from ..graphs.inference_graph import GraphBuilder, InferenceGraph
from ..graphs.random_graphs import random_instance
from ..learning.pao import pao
from ..learning.pib import PIB
from ..learning.pib1 import PIB1
from ..learning.palo import PALO
from ..learning.sensitivity import excess_cost, lemma1_bound
from ..optimal.brute_force import optimal_strategy_brute_force
from ..optimal.smith import smith_estimates, smith_strategy
from ..optimal.upsilon import upsilon_aot
from ..observability import NULL_RECORDER, Tracer, summarize_trace
from ..optimal.approximate import upsilon_greedy
from ..strategies.execution import execute
from ..strategies.expected_cost import expected_cost_exact
from ..strategies.strategy import Strategy
from ..workloads import university
from ..workloads import figure2
from ..persistence import pib_from_dict, pib_to_dict
from ..resilience import ResiliencePolicy, RetryPolicy
from ..resilience.faults import FaultPlan, FaultSpec, FlakyDatabase
from ..workloads.distributed import (
    FlakySegmentAccessDistribution,
    FlakySegmentedTable,
    SegmentAccessDistribution,
    SegmentedTable,
    segment_scan_graph,
)
from ..learning.drift import DriftAwarePIB, DriftConfig
from ..serving import (
    AdmissionConfig,
    CacheConfig,
    ServingConfig,
    SessionConfig,
    open_session,
)
from ..serving.admission import coerce_requests
from ..serving.server import QueryServer
from ..system import SelfOptimizingQueryProcessor
from ..workloads.distributions import (
    IndependentDistribution,
    PiecewiseStationaryDistribution,
)
from ..workloads.naf import OWNERSHIP_CATEGORIES, OwnershipDistribution, refutation_graph
from .harness import ExperimentResult
from .reporting import format_table
from .stats import rate_with_interval

__all__ = [
    "experiment_learning_curve",
    "experiment_engine",
    "experiment_figure1",
    "experiment_smith_vs_learned",
    "experiment_figure2_pib",
    "experiment_pib1_filter",
    "experiment_theorem1",
    "experiment_theorem2",
    "experiment_theorem3",
    "experiment_lemma1",
    "experiment_distributed",
    "experiment_distributed_faulty",
    "experiment_drift",
    "experiment_experience_warmstart",
    "experiment_federation",
    "experiment_naf",
    "experiment_overload",
    "experiment_serving",
    "experiment_upsilon_scaling",
    "experiment_comparison",
]


# ----------------------------------------------------------------------
# LC: learning curves — per-query cost over the lifetime of the stream
# ----------------------------------------------------------------------

def experiment_learning_curve(
    seed: int = 12,
    contexts: int = 6000,
    window: int = 500,
    delta: float = 0.05,
) -> ExperimentResult:
    """Mean observed query cost per window, for PIB on ``G_A`` and
    ``G_B`` — the learning-curve 'figure' a systems evaluation of the
    paper would plot.  The curve must fall and approach the optimal
    strategy's expected cost."""
    result = ExperimentResult(
        "LC: learning curves (mean observed c(Θ, I) per window)"
    )
    scenarios = [
        (
            "G_A",
            university.g_a(),
            university.theta_1(university.g_a()),
            university.intended_probabilities(),
        ),
        (
            "G_B",
            figure2.g_b(),
            figure2.theta_abcd(figure2.g_b()),
            figure2.figure2_probabilities(),
        ),
    ]
    for label, graph, _initial_on_wrong_graph, probs in scenarios:
        # Rebuild the initial strategy against *this* graph instance.
        initial = Strategy(graph, _initial_on_wrong_graph.arc_names())
        distribution = IndependentDistribution(graph, probs)
        rng = random.Random(seed)
        pib = PIB(graph, delta=delta, initial_strategy=initial)
        window_costs: List[float] = []
        accumulator = 0.0
        for index in range(1, contexts + 1):
            accumulator += pib.process(distribution.sample(rng)).cost
            if index % window == 0:
                window_costs.append(accumulator / window)
                accumulator = 0.0
        _, c_opt = optimal_strategy_brute_force(graph, probs)
        c_init = expected_cost_exact(initial, probs)
        rows = [
            [(i + 1) * window, cost] for i, cost in enumerate(window_costs)
        ]
        result.tables.append(format_table(
            f"{label}: mean observed cost per {window}-query window "
            f"(C[Θ₀] = {c_init:.3f}, C[Θ_opt] = {c_opt:.3f})",
            ["queries seen", "mean cost"],
            rows,
        ))
        result.data[label] = {
            "windows": window_costs,
            "c_init": c_init,
            "c_opt": c_opt,
            "climbs": pib.climbs,
        }
        result.check(
            f"{label}: the curve falls (last window < first window)",
            window_costs[-1] < window_costs[0],
        )
        result.check(
            f"{label}: the tail approaches the optimum (≤ C_opt + 20%)",
            window_costs[-1] <= 1.2 * c_opt,
        )
    return result


# ----------------------------------------------------------------------
# F1: Figure 1 worked example
# ----------------------------------------------------------------------

def experiment_figure1() -> ExperimentResult:
    """Reproduce every number of Section 2's ``G_A`` worked example."""
    result = ExperimentResult("F1: Figure 1 / Section 2 worked example (G_A)")
    graph = university.g_a()
    theta_1 = university.theta_1(graph)
    theta_2 = university.theta_2(graph)
    probs = university.intended_probabilities()

    c1 = expected_cost_exact(theta_1, probs)
    c2 = expected_cost_exact(theta_2, probs)
    i1 = Context(graph, {"Dp": False, "Dg": True})   # instructor(manolis)
    i2 = Context(graph, {"Dp": True, "Dg": False})   # instructor(russ)
    costs = {
        ("Θ1", "I1"): execute(theta_1, i1).cost,
        ("Θ2", "I1"): execute(theta_2, i1).cost,
        ("Θ1", "I2"): execute(theta_1, i2).cost,
        ("Θ2", "I2"): execute(theta_2, i2).cost,
    }

    result.tables.append(format_table(
        "Expected costs on G_A (paper Section 2)",
        ["strategy", "paper C[Θ]", "measured C[Θ]"],
        [["Θ1 = ⟨Rp Dp Rg Dg⟩", 3.7, c1], ["Θ2 = ⟨Rg Dg Rp Dp⟩", 2.8, c2]],
        footer="Υ_AOT picks: " + " ".join(upsilon_aot(graph, probs).arc_names()),
    ))
    result.tables.append(format_table(
        "Per-context costs c(Θ, I) (paper Section 2.1)",
        ["context", "c(Θ1, I)", "paper", "c(Θ2, I)", "paper"],
        [
            ["I1 = ⟨instructor(manolis), DB1⟩", costs[("Θ1", "I1")], 4,
             costs[("Θ2", "I1")], 2],
            ["I2 = ⟨instructor(russ), DB1⟩", costs[("Θ1", "I2")], 2,
             costs[("Θ2", "I2")], 4],
        ],
    ))

    result.data.update({"C1": c1, "C2": c2, "context_costs": costs})
    result.check("C[Θ1] = 3.7 (paper's printed value)", abs(c1 - 3.7) < 1e-9)
    result.check("C[Θ2] = 2.8 (paper's printed value)", abs(c2 - 2.8) < 1e-9)
    result.check("Θ2 preferred (C[Θ2] < C[Θ1])", c2 < c1)
    result.check("c(Θ1,I1)=4, c(Θ2,I1)=2, c(Θ1,I2)=2, c(Θ2,I2)=4",
                 [costs[k] for k in costs] == [4.0, 2.0, 2.0, 4.0])
    result.check(
        "Section 4: Υ_AOT(G_A, ⟨18/30, 10/20⟩) = Θ1",
        upsilon_aot(graph, university.section4_estimates()).arc_names()
        == theta_1.arc_names(),
    )
    result.check(
        "F¬[D_g] = f(R_p)+f(D_p) = 2 and f*(R_p) = 2 (Note 5)",
        graph.f_not(graph.arc("Dg")) == 2.0
        and graph.f_star(graph.arc("Rp")) == 2.0,
    )
    return result


# ----------------------------------------------------------------------
# F1b: the [Smi89] heuristic vs the true query distribution
# ----------------------------------------------------------------------

def experiment_smith_vs_learned(
    seed: int = 0, contexts: int = 4000
) -> ExperimentResult:
    """Section 2's DB_2 example: fact counts mislead, queries don't."""
    result = ExperimentResult(
        "F1b: [Smi89] fact-count heuristic vs learned strategies (DB_2)"
    )
    rng = random.Random(seed)
    graph = university.g_a()
    database = university.db2()
    theta_1 = university.theta_1(graph)
    theta_2 = university.theta_2(graph)

    # The "minors-only" workload: queried individuals are never profs.
    mix = university.minors_only_mix(database)
    distribution = university.query_distribution(graph, mix, database)
    smith = smith_strategy(graph, database)

    pib = PIB(graph, delta=0.05, initial_strategy=theta_1)
    pib.run(distribution.sampler(rng), contexts)

    def measured(strategy: Strategy) -> float:
        # Minors-only: every query has D_p blocked, D_g unblocked.
        return distribution.expected_cost(
            strategy, samples=2000, rng=random.Random(seed + 1)
        )

    rows = [
        ["Θ1 (prof first)", measured(theta_1)],
        ["Θ2 (grad first)", measured(theta_2)],
        ["Smith's pick", measured(smith)],
        ["PIB's final", measured(pib.strategy)],
    ]
    result.tables.append(format_table(
        "Expected cost under the minors-only workload (DB_2: 2000 prof / "
        "500 grad facts)",
        ["strategy", "C[Θ] (measured)"],
        rows,
        footer=(
            "Smith estimates (fact-count ratios): "
            + str({k: round(v, 3) for k, v in
                   smith_estimates(graph, database).items()})
        ),
    ))
    result.data["costs"] = {name: cost for name, cost in rows}
    result.check(
        "Smith picks Θ1 (prof first), as the paper predicts",
        smith.arc_names() == theta_1.arc_names(),
    )
    result.check(
        "the true workload makes Θ2 clearly superior",
        measured(theta_2) < measured(theta_1),
    )
    result.check(
        "PIB learns Θ2 despite the misleading fact counts",
        pib.strategy.arc_names() == theta_2.arc_names(),
    )
    return result


# ----------------------------------------------------------------------
# F2: PIB hill-climbing on Figure 2's G_B
# ----------------------------------------------------------------------

def experiment_figure2_pib(
    seed: int = 1, contexts: int = 4000, delta: float = 0.05
) -> ExperimentResult:
    """Hill-climb from Θ_ABCD on G_B; compare against the brute-force
    optimum and the named transformations of Section 3.2."""
    result = ExperimentResult("F2: PIB on Figure 2's G_B")
    graph = figure2.g_b()
    probs = figure2.figure2_probabilities()
    initial = figure2.theta_abcd(graph)
    distribution = IndependentDistribution(graph, probs)

    # The two named alternative strategies really are improvements
    # under the motivating distribution.
    c_init = expected_cost_exact(initial, probs)
    c_abdc = expected_cost_exact(figure2.theta_abdc(graph), probs)
    c_acdb = expected_cost_exact(figure2.theta_acdb(graph), probs)

    pib = PIB(graph, delta=delta, initial_strategy=initial)
    pib.run(distribution.sampler(random.Random(seed)), contexts)
    c_final = expected_cost_exact(pib.strategy, probs)
    optimum, c_opt = optimal_strategy_brute_force(graph, probs)

    result.tables.append(format_table(
        "Strategies on G_B (retrievals succeed with "
        f"p = {probs})",
        ["strategy", "C[Θ]"],
        [
            ["Θ_ABCD (Equation 4, initial)", c_init],
            ["Θ_ABDC (τ_{d,c} applied)", c_abdc],
            ["Θ_ACDB", c_acdb],
            [f"PIB after {contexts} contexts ({pib.climbs} climbs)", c_final],
            ["global optimum (brute force)", c_opt],
        ],
    ))
    climb_rows = [
        [rec.step, rec.context_number, rec.transformation,
         rec.samples, rec.estimated_gain, rec.threshold]
        for rec in pib.history
    ]
    result.tables.append(format_table(
        "PIB climb trace (Figure 3's loop)",
        ["step", "context#", "transformation", "|S|", "Δ̃ sum", "Eq 6 threshold"],
        climb_rows or [["-", "-", "(no climbs)", "-", "-", "-"]],
    ))

    result.data.update({
        "c_init": c_init, "c_final": c_final, "c_opt": c_opt,
        "climbs": pib.climbs,
        "tau_dc_applies": figure2.tau_dc().apply(initial).arc_names(),
    })
    result.check("τ_{d,c}(Θ_ABCD) = Θ_ABDC (Section 3.2)",
                 result.data["tau_dc_applies"]
                 == figure2.theta_abdc(graph).arc_names())
    result.check("Θ_ABDC and Θ_ACDB improve on Θ_ABCD here",
                 c_abdc < c_init and c_acdb < c_init)
    result.check("every PIB climb strictly improved the true cost",
                 all(
                     expected_cost_exact(Strategy(graph, rec.to_arcs), probs)
                     < expected_cost_exact(Strategy(graph, rec.from_arcs), probs)
                     for rec in pib.history
                 ))
    result.check("PIB improved the initial strategy", c_final < c_init)
    result.check("PIB got within 25% of the global optimum",
                 c_final <= 1.25 * c_opt)
    return result


# ----------------------------------------------------------------------
# E1: the PIB₁ filter's acceptance region (Equation 3)
# ----------------------------------------------------------------------

def experiment_pib1_filter(
    seed: int = 2, trials: int = 400, delta: float = 0.1
) -> ExperimentResult:
    """PIB₁ accepts the Θ₁→Θ₂ swap when it truly helps and keeps quiet
    when it does not."""
    result = ExperimentResult("E1: PIB₁ one-shot filter (Equation 3)")
    graph = university.g_a()
    theta_1 = university.theta_1(graph)

    scenarios = [
        ("grad-heavy (swap is right)", {"Dp": 0.15, "Dg": 0.60}, True),
        ("prof-heavy (swap is wrong)", {"Dp": 0.60, "Dg": 0.15}, False),
        ("balanced (no clear winner)", {"Dp": 0.40, "Dg": 0.40}, None),
    ]
    rows = []
    accept_rates: Dict[str, float] = {}
    for label, probs, _expected in scenarios:
        rng = random.Random(seed)
        distribution = IndependentDistribution(graph, probs)
        accepted = 0
        for _ in range(trials):
            pib1 = PIB1(graph, theta_1, "Rp", "Rg", delta=delta)
            for _ in range(150):
                pib1.observe(execute(theta_1, distribution.sample(rng)))
            if pib1.decide() is not None:
                accepted += 1
        rate = accepted / trials
        accept_rates[label] = rate
        rows.append([label, str(probs), f"{rate:.3f}"])
    result.tables.append(format_table(
        f"PIB₁ acceptance rate over {trials} independent 150-sample runs "
        f"(δ = {delta})",
        ["scenario", "p = (p_p, p_g)", "acceptance rate"],
        rows,
    ))
    result.data["accept_rates"] = accept_rates
    result.check("mostly accepts when the swap truly helps",
                 accept_rates["grad-heavy (swap is right)"] > 0.9)
    result.check("false-positive rate ≤ δ when the swap hurts",
                 accept_rates["prof-heavy (swap is wrong)"] <= delta)
    return result


# ----------------------------------------------------------------------
# T1: Theorem 1 — PIB's mistake probability is below δ
# ----------------------------------------------------------------------

def experiment_theorem1(
    seed: int = 3,
    runs: int = 60,
    contexts_per_run: int = 800,
    delta: float = 0.1,
    graph_size: Tuple[int, int] = (3, 5),
) -> ExperimentResult:
    """Run PIB on many random instances; count runs containing any
    climb that increased the true expected cost."""
    result = ExperimentResult("T1: Theorem 1 — PIB mistake rate ≤ δ")
    rng = random.Random(seed)
    mistakes = 0
    climbs_total = 0
    improvement_sum = 0.0
    for _ in range(runs):
        graph, probs = random_instance(
            rng, n_internal=graph_size[0], n_retrievals=graph_size[1]
        )
        distribution = IndependentDistribution(graph, probs)
        # Start from a deliberately bad ordering (ascending path ratio)
        # so every run has genuine room to climb — otherwise a random
        # depth-first start is often already near-optimal and the
        # mistake-rate measurement has no power.
        from ..optimal.approximate import path_ratio

        worst_first = sorted(
            graph.retrieval_arcs(),
            key=lambda arc: path_ratio(graph, arc, probs),
        )
        initial = Strategy.from_retrieval_order(graph, worst_first)
        pib = PIB(graph, delta=delta, initial_strategy=initial)
        initial_cost = expected_cost_exact(pib.strategy, probs)
        pib.run(distribution.sampler(rng), contexts_per_run)
        made_mistake = False
        for record in pib.history:
            before = expected_cost_exact(Strategy(graph, record.from_arcs), probs)
            after = expected_cost_exact(Strategy(graph, record.to_arcs), probs)
            if after > before + 1e-12:
                made_mistake = True
        climbs_total += pib.climbs
        mistakes += made_mistake
        improvement_sum += initial_cost - expected_cost_exact(pib.strategy, probs)

    mistake_rate = mistakes / runs
    result.tables.append(format_table(
        f"PIB over {runs} random instances "
        f"({graph_size[0]} internal nodes, {graph_size[1]} retrievals, "
        f"{contexts_per_run} contexts each, δ = {delta})",
        ["metric", "value"],
        [
            ["runs with any erroneous climb", mistakes],
            ["measured mistake rate [95% CI]",
             rate_with_interval(mistakes, runs)],
            ["Theorem 1 bound (δ)", delta],
            ["total climbs taken", climbs_total],
            ["mean true improvement per run", improvement_sum / runs],
        ],
    ))
    result.data.update({
        "mistake_rate": mistake_rate, "climbs": climbs_total,
        "mean_improvement": improvement_sum / runs,
    })
    result.check("measured mistake rate ≤ δ", mistake_rate <= delta)
    result.check("PIB actually climbs (the test has power)",
                 climbs_total > runs / 2)
    result.check("strategies improve on average", improvement_sum > 0)
    return result


# ----------------------------------------------------------------------
# T2: Theorem 2 — PAO is probably approximately optimal
# ----------------------------------------------------------------------

def experiment_theorem2(
    seed: int = 4,
    trials: int = 40,
    epsilon: float = 1.0,
    delta: float = 0.1,
    sample_scale: float = 1.0,
    graph_size: Tuple[int, int] = (2, 4),
) -> ExperimentResult:
    """Run PAO on random simple-disjunctive instances and measure how
    often ``C[Θ_pao] ≤ C[Θ_opt] + ε``."""
    result = ExperimentResult(
        "T2: Theorem 2 — PAO ε-optimality frequency (Equation 7 budgets)"
    )
    rng = random.Random(seed)
    successes = 0
    excesses: List[float] = []
    contexts_used: List[int] = []
    for _ in range(trials):
        graph, probs = random_instance(
            rng, n_internal=graph_size[0], n_retrievals=graph_size[1]
        )
        distribution = IndependentDistribution(graph, probs)
        outcome = pao(
            graph, epsilon, delta,
            distribution.sampler(rng),
            sample_scale=sample_scale,
        )
        c_pao = expected_cost_exact(outcome.strategy, probs)
        _, c_opt = optimal_strategy_brute_force(graph, probs)
        excess = c_pao - c_opt
        excesses.append(excess)
        contexts_used.append(outcome.contexts_used)
        if excess <= epsilon + 1e-9:
            successes += 1

    success_rate = successes / trials
    excesses.sort()
    result.tables.append(format_table(
        f"PAO over {trials} random instances (ε = {epsilon}, δ = {delta}, "
        f"sample_scale = {sample_scale})",
        ["metric", "value"],
        [
            ["success rate  Pr[C[Θ_pao] ≤ C[Θ_opt]+ε] [95% CI]",
             rate_with_interval(successes, trials)],
            ["Theorem 2 bound (1 − δ)", 1 - delta],
            ["median excess cost", excesses[len(excesses) // 2]],
            ["max excess cost", excesses[-1]],
            ["median contexts sampled", sorted(contexts_used)[len(contexts_used) // 2]],
        ],
    ))
    result.data.update({
        "success_rate": success_rate,
        "excesses": excesses,
        "contexts_used": contexts_used,
    })
    result.check("success rate ≥ 1 − δ", success_rate >= 1 - delta)
    return result


# ----------------------------------------------------------------------
# T3: Theorem 3 — the aiming variant with hard-to-reach experiments
# ----------------------------------------------------------------------

def _theorem3_graph() -> Tuple[InferenceGraph, Dict[str, float]]:
    """A graph in the ``grad(fred) :- admitted(fred, X)`` mould: a
    valuable retrieval hides behind a rarely-applicable reduction."""
    builder = GraphBuilder("root")
    builder.reduction("R_easy", "root", "easy")
    builder.retrieval("D_easy", "easy")
    # The blockable reduction: applies to few contexts.
    builder.reduction("R_rare", "root", "rare", blockable=True)
    builder.retrieval("D_rare", "rare", cost=0.5)
    builder.reduction("R_mid", "root", "mid")
    builder.retrieval("D_mid", "mid", cost=2.0)
    graph = builder.build()
    probs = {"D_easy": 0.3, "R_rare": 0.15, "D_rare": 0.9, "D_mid": 0.5}
    return graph, probs


def experiment_theorem3(
    seed: int = 5,
    trials: int = 40,
    epsilon: float = 1.0,
    delta: float = 0.1,
    sample_scale: float = 1.0,
) -> ExperimentResult:
    """Aiming PAO on a graph whose best retrieval sits behind a
    low-reach blockable reduction."""
    result = ExperimentResult(
        "T3: Theorem 3 — aiming PAO with unreachable experiments (Equation 8)"
    )
    graph, probs = _theorem3_graph()
    distribution = IndependentDistribution(graph, probs)
    rng = random.Random(seed)

    successes = 0
    excesses: List[float] = []
    reached_rare: List[int] = []
    for _ in range(trials):
        outcome = pao(
            graph, epsilon, delta,
            distribution.sampler(rng),
            aiming=True,
            sample_scale=sample_scale,
        )
        c_pao = expected_cost_exact(outcome.strategy, probs)
        _, c_opt = optimal_strategy_brute_force(graph, probs)
        excess = c_pao - c_opt
        excesses.append(excess)
        reached_rare.append(outcome.reached["D_rare"])
        if excess <= epsilon + 1e-9:
            successes += 1

    success_rate = successes / trials
    excesses.sort()
    result.tables.append(format_table(
        f"Aiming PAO over {trials} runs (ε = {epsilon}, δ = {delta}, "
        f"ρ(D_rare) = {probs['R_rare']})",
        ["metric", "value"],
        [
            ["success rate [95% CI]", rate_with_interval(successes, trials)],
            ["Theorem 3 bound (1 − δ)", 1 - delta],
            ["median excess cost", excesses[len(excesses) // 2]],
            ["max excess cost", excesses[-1]],
            ["median times D_rare was actually reached",
             sorted(reached_rare)[len(reached_rare) // 2]],
        ],
        footer="k(D_rare) ≪ m'(D_rare): the attempts budget tolerates "
               "blocked paths, as Theorem 3 intends.",
    ))
    result.data.update({
        "success_rate": success_rate, "excesses": excesses,
        "reached_rare": reached_rare,
    })
    result.check("success rate ≥ 1 − δ", success_rate >= 1 - delta)
    return result


# ----------------------------------------------------------------------
# L1: Lemma 1's sensitivity bound
# ----------------------------------------------------------------------

def experiment_lemma1(
    seed: int = 6,
    trials: int = 300,
    graph_size: Tuple[int, int] = (3, 5),
    perturbation: float = 0.3,
) -> ExperimentResult:
    """Randomized check that ``C_P[Θ_p̂] − C_P[Θ_P]`` never exceeds the
    Lemma 1 bound, and by how much the bound over-shoots."""
    result = ExperimentResult("L1: Lemma 1 sensitivity bound")
    rng = random.Random(seed)
    violations = 0
    ratios: List[float] = []
    worst_excess = 0.0
    for _ in range(trials):
        graph, p_true = random_instance(
            rng, n_internal=graph_size[0], n_retrievals=graph_size[1],
            blockable_reduction_rate=0.3,
        )
        p_estimate = {
            name: min(1.0, max(0.0, p + rng.uniform(-perturbation, perturbation)))
            for name, p in p_true.items()
        }
        lhs = excess_cost(graph, p_true, p_estimate)
        rhs = lemma1_bound(graph, p_true, p_estimate)
        worst_excess = max(worst_excess, lhs)
        if lhs > rhs + 1e-9:
            violations += 1
        if rhs > 1e-12:
            ratios.append(lhs / rhs)
    ratios.sort()
    result.tables.append(format_table(
        f"Lemma 1 over {trials} random instances "
        f"(|p − p̂| ≤ {perturbation} per experiment)",
        ["metric", "value"],
        [
            ["bound violations", violations],
            ["max observed excess cost", worst_excess],
            ["median tightness  lhs/rhs", ratios[len(ratios) // 2] if ratios else 0.0],
            ["max tightness  lhs/rhs", ratios[-1] if ratios else 0.0],
        ],
    ))
    result.data.update({"violations": violations, "ratios": ratios})
    result.check("the bound never violated", violations == 0)
    return result


# ----------------------------------------------------------------------
# A1: distributed segmented scan ordering
# ----------------------------------------------------------------------

def experiment_distributed(
    seed: int = 7, contexts: int = 6000, delta: float = 0.05
) -> ExperimentResult:
    """PIB learns the optimal scan order over correlated segment hits
    (Section 5.2's horizontally segmented databases)."""
    result = ExperimentResult(
        "A1: horizontally segmented distributed DB scan ordering (§5.2)"
    )
    table = SegmentedTable(
        segments=["na_east", "na_west", "europe", "asia", "archive"],
        scan_costs={"na_east": 2.0, "na_west": 2.0, "europe": 3.0,
                    "asia": 4.0, "archive": 8.0},
        hit_rates={"na_east": 0.10, "na_west": 0.05, "europe": 0.45,
                   "asia": 0.30, "archive": 0.05},
    )
    graph = segment_scan_graph(table)
    distribution = SegmentAccessDistribution(graph, table)
    rng = random.Random(seed)

    declared = list(table.segments)
    initial = distribution.strategy_for_order(declared)
    optimal_order = table.optimal_order()
    optimal = distribution.strategy_for_order(optimal_order)

    pib = PIB(graph, delta=delta, initial_strategy=initial)
    pib.run(distribution.sampler(rng), contexts)

    def cost(strategy: Strategy) -> float:
        return distribution.expected_cost(strategy)

    learned_order = [
        arc.name.replace("scan_", "") for arc in pib.strategy.retrieval_order()
    ]
    result.tables.append(format_table(
        "Scan orders and their exact expected costs (correlated hits: an "
        "individual lives in exactly one segment)",
        ["order", "E[scan cost]"],
        [
            ["declared  " + " > ".join(declared), cost(initial)],
            ["PIB       " + " > ".join(learned_order), cost(pib.strategy)],
            ["optimal   " + " > ".join(optimal_order), cost(optimal)],
        ],
        footer="closed-form check: table.expected_cost(optimal_order) = "
               f"{table.expected_cost(optimal_order):.4g}",
    ))
    result.data.update({
        "learned_order": learned_order,
        "optimal_order": optimal_order,
        "cost_initial": cost(initial),
        "cost_learned": cost(pib.strategy),
        "cost_optimal": cost(optimal),
    })
    result.check(
        "closed-form and graph-level optimal costs agree",
        abs(table.expected_cost(optimal_order) - cost(optimal)) < 1e-9,
    )
    result.check("PIB reaches the optimal scan order",
                 learned_order == optimal_order)
    return result


# ----------------------------------------------------------------------
# A1b: distributed scans under injected faults + crash/restart
# ----------------------------------------------------------------------

def experiment_distributed_faulty(
    seed: int = 7,
    contexts: int = 6000,
    delta: float = 0.05,
    fault_seed: int = 3,
    trace_path: Optional[str] = None,
) -> ExperimentResult:
    """A1 under chaos: transient segment faults, timeouts, retries with
    backoff, and a simulated crash/restart at the halfway point.

    Three properties are checked: (1) PIB behind the resilient executor
    still converges to the provably optimal scan order — the settled-
    outcome reporting keeps fault noise out of the Δ̃ statistics;
    (2) the checkpoint → reload round trip at the crash point is
    byte-identical (same ``total_tests``, Δ̃ sums, strategy); (3) the
    billed cost is never below the settled (fault-free-equivalent)
    cost — retries and backoff only ever add to ``c(Θ, I)``.

    With ``trace_path`` set, the whole run is traced and exported as
    JSONL; a fourth check then asserts the trace's per-query billed and
    settled totals reconcile exactly with the harness accumulators.
    """
    result = ExperimentResult(
        "A1b: segmented scans under injected faults (resilient execution)"
    )
    table = FlakySegmentedTable(
        segments=["na_east", "na_west", "europe", "asia", "archive"],
        scan_costs={"na_east": 2.0, "na_west": 2.0, "europe": 3.0,
                    "asia": 4.0, "archive": 8.0},
        hit_rates={"na_east": 0.10, "na_west": 0.05, "europe": 0.45,
                   "asia": 0.30, "archive": 0.05},
        failure_rates={"na_east": 0.05, "na_west": 0.02, "europe": 0.10,
                       "asia": 0.08, "archive": 0.15},
        timeout_rates={"archive": 0.05},
    )
    graph = segment_scan_graph(table)
    flaky = FlakySegmentAccessDistribution(graph, table, fault_seed)
    declared = list(table.segments)
    optimal_order = table.optimal_order()

    recorder = Tracer(margin_events=False) if trace_path else NULL_RECORDER
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=6, base_backoff=0.25),
        seed=fault_seed,
        recorder=recorder,
    )
    pib = PIB(graph, delta=delta,
              initial_strategy=flaky.strategy_for_order(declared),
              recorder=recorder)
    rng = random.Random(seed)
    billed = 0.0
    settled = 0.0
    crash_at = contexts // 2

    def drive(learner: PIB, budget: int) -> None:
        nonlocal billed, settled
        for _ in range(budget):
            run = execute(learner.strategy, flaky.sample(rng),
                          recorder=recorder, policy=policy)
            billed += run.cost
            settled += run.settled_cost
            learner.record(run.settled_result())

    drive(pib, crash_at)

    # Simulated kill/restart: serialize, reload against a fresh graph
    # walk, and verify the state survived byte-for-byte.  Recorders are
    # deliberately not part of the checkpoint, so the restored learner
    # gets the live one reattached.
    snapshot = pib_to_dict(pib)
    restored = pib_from_dict(graph, snapshot)
    roundtrip_identical = pib_to_dict(restored) == snapshot
    restored.recorder = recorder
    drive(restored, contexts - crash_at)

    learned_order = [
        arc.name.replace("scan_", "")
        for arc in restored.strategy.retrieval_order()
    ]
    result.tables.append(format_table(
        "Scan orders under injected faults "
        f"(faults={flaky.plan.injected_faults}, "
        f"timeouts={flaky.plan.injected_timeouts}, "
        f"retries={policy.total_retries}, "
        f"unsettled={policy.unsettled_arcs})",
        ["order", "E[scan cost]"],
        [
            ["declared  " + " > ".join(declared),
             table.expected_cost(declared)],
            ["PIB       " + " > ".join(learned_order),
             table.expected_cost(learned_order)],
            ["optimal   " + " > ".join(optimal_order),
             table.expected_cost(optimal_order)],
        ],
        footer=f"billed cost {billed:.1f} vs settled cost {settled:.1f} "
               f"(overhead {(billed / settled - 1) * 100:.1f}%)",
    ))
    result.data.update({
        "learned_order": learned_order,
        "optimal_order": optimal_order,
        "billed_cost": billed,
        "settled_cost": settled,
        "faults_injected": flaky.plan.injected_faults,
        "retries": policy.total_retries,
        "roundtrip_identical": roundtrip_identical,
    })
    result.check(
        "checkpoint round trip at the crash point is byte-identical",
        roundtrip_identical,
    )
    result.check(
        "retries only add cost (billed >= settled)",
        billed >= settled,
    )
    result.check(
        "PIB reaches the optimal scan order despite injected faults",
        learned_order == optimal_order,
    )
    if trace_path:
        recorder.export_jsonl(trace_path)
        summary = summarize_trace(recorder.events)
        result.data["trace_summary"] = summary
        result.check(
            "trace billed/settled totals reconcile with the harness "
            "accumulators",
            abs(summary["billed_cost"] - billed) < 1e-9
            and abs(summary["settled_cost"] - settled) < 1e-9,
        )
    return result


# ----------------------------------------------------------------------
# D1: drift recovery — piecewise-stationary workloads
# ----------------------------------------------------------------------

def experiment_drift(
    seed: int = 11,
    regime_contexts: int = 2500,
    delta: float = 0.05,
    drift_delta: float = 0.05,
    window: int = 250,
) -> ExperimentResult:
    """Recovery from a regime change that §2.1's stationarity forbids.

    ``G_A``'s success probabilities flip halfway through the stream
    (grad-heavy → prof-heavy), so the regime-A optimum ``Θ₂`` becomes
    the regime-B pessimum.  Three learners see identical context
    streams:

    * **frozen** — the strategy PIB had learned when the regime
      changed, never updated again (the deployment that stopped
      learning);
    * **vanilla PIB** — keeps learning, but its Δ̃ evidence and δ_i
      schedule straddle the change, so adaptation is slow at best;
    * **drift-aware PIB** — detects the change, opens a new epoch, and
      re-climbs under a fresh Theorem 1 budget.

    The headline check is the issue's acceptance criterion: after the
    change, drift-aware PIB gets within 10% of the *regime-B* optimum
    while the frozen strategy stays worse than that band.  The
    no-drift no-op property is asserted on the way: until the regime
    changes, vanilla and drift-aware PIB take byte-identical climb
    sequences.
    """
    result = ExperimentResult(
        "D1: drift recovery on G_A (piecewise-stationary workload)"
    )
    graph = university.g_a()
    probs_a = university.intended_probabilities()          # Θ₂ optimal
    probs_b = {"Dp": probs_a["Dg"], "Dg": probs_a["Dp"]}   # Θ₁ optimal
    contexts = 2 * regime_contexts

    def stream():
        return PiecewiseStationaryDistribution(graph, [
            (regime_contexts, IndependentDistribution(graph, probs_a)),
            (None, IndependentDistribution(graph, probs_b)),
        ])

    initial = university.theta_1(graph)
    vanilla = PIB(graph, delta=delta,
                  initial_strategy=Strategy(graph, initial.arc_names()))
    aware = DriftAwarePIB(
        graph, delta=delta,
        initial_strategy=Strategy(graph, initial.arc_names()),
        drift=DriftConfig(delta=drift_delta),
    )

    frozen_arcs: Dict[str, Sequence[str]] = {}
    histories_at_change: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {}
    curves: Dict[str, List[float]] = {}
    for label, learner in (("vanilla", vanilla), ("drift-aware", aware)):
        distribution = stream()
        rng = random.Random(seed)
        accumulator = 0.0
        windows: List[float] = []
        for index in range(1, contexts + 1):
            accumulator += learner.process(distribution.sample(rng)).cost
            if index % window == 0:
                windows.append(accumulator / window)
                accumulator = 0.0
            if index == regime_contexts:
                frozen_arcs[label] = learner.strategy.arc_names()
                histories_at_change[label] = [
                    (rec.transformation, tuple(rec.to_arcs))
                    for rec in learner.history
                ]
        curves[label] = windows

    frozen = Strategy(graph, frozen_arcs["vanilla"])
    _, c_opt_a = optimal_strategy_brute_force(graph, probs_a)
    _, c_opt_b = optimal_strategy_brute_force(graph, probs_b)

    def cost_b(strategy: Strategy) -> float:
        return expected_cost_exact(strategy, probs_b)

    result.tables.append(format_table(
        f"Regime B expected costs (change after {regime_contexts} "
        f"contexts; p flips {probs_a} → {probs_b})",
        ["strategy", "C_B[Θ]"],
        [
            ["frozen at the change  " + " ".join(frozen.arc_names()),
             cost_b(frozen)],
            ["vanilla PIB, final    " + " ".join(vanilla.strategy.arc_names()),
             cost_b(vanilla.strategy)],
            ["drift-aware, final    " + " ".join(aware.strategy.arc_names()),
             cost_b(aware.strategy)],
            ["regime-B optimum", c_opt_b],
        ],
        footer=f"regime-A optimum C_A = {c_opt_a:.3f}; drift report: "
               f"{aware.drift_report()}",
    ))
    result.tables.append(format_table(
        f"Mean observed cost per {window}-context window",
        ["window end", "vanilla", "drift-aware"],
        [
            [(i + 1) * window, v, a]
            for i, (v, a) in enumerate(
                zip(curves["vanilla"], curves["drift-aware"])
            )
        ],
    ))
    result.data.update({
        "c_opt_a": c_opt_a,
        "c_opt_b": c_opt_b,
        "cost_frozen": cost_b(frozen),
        "cost_vanilla": cost_b(vanilla.strategy),
        "cost_aware": cost_b(aware.strategy),
        "alarms": len(aware.drift_alarms),
        "epoch": aware.epoch,
        "rollbacks": aware.rollbacks,
        "curves": curves,
    })
    result.check(
        "no-drift no-op: identical climb sequences until the change",
        histories_at_change["vanilla"] == histories_at_change["drift-aware"],
    )
    result.check(
        "the change was detected (≥ 1 alarm, ≥ 1 epoch)",
        len(aware.drift_alarms) >= 1 and aware.epoch >= 1,
    )
    result.check(
        "drift-aware PIB recovers to within 10% of the regime-B optimum",
        cost_b(aware.strategy) <= 1.10 * c_opt_b,
    )
    result.check(
        "the frozen strategy stays worse than that band",
        cost_b(frozen) > 1.10 * c_opt_b,
    )
    return result


# ----------------------------------------------------------------------
# A2: negation-as-failure refutation ordering
# ----------------------------------------------------------------------

def experiment_naf(
    seed: int = 8, contexts: int = 6000, delta: float = 0.05
) -> ExperimentResult:
    """Order the ownership scans inside ``not owns(x, Y)`` (§5.2)."""
    result = ExperimentResult(
        "A2: negation-as-failure refutation ordering (pauper rule, §5.2)"
    )
    graph = refutation_graph()
    distribution = OwnershipDistribution(graph)
    probs = distribution.arc_probabilities()
    rng = random.Random(seed)

    initial = Strategy.depth_first(graph)
    pib = PIB(graph, delta=delta, initial_strategy=initial)
    pib.run(distribution.sampler(rng), contexts)

    optimal, c_opt = optimal_strategy_brute_force(graph, probs)
    c_init = expected_cost_exact(initial, probs)
    c_learned = expected_cost_exact(pib.strategy, probs)

    rows = [
        [category, cost, rate, rate / (cost + 1.0)]
        for category, (cost, rate) in OWNERSHIP_CATEGORIES.items()
    ]
    result.tables.append(format_table(
        "Ownership categories (scan cost, ownership rate, rate per unit "
        "path cost)",
        ["category", "scan cost", "rate", "ratio p/(c+1)"],
        rows,
    ))
    result.tables.append(format_table(
        "Refutation search cost (one refuting item suffices)",
        ["strategy", "C[Θ]"],
        [
            ["declared order", c_init],
            [f"PIB after {contexts} contexts", c_learned],
            ["optimal", c_opt],
        ],
    ))
    result.data.update({
        "cost_initial": c_init, "cost_learned": c_learned, "cost_opt": c_opt,
    })
    result.check("PIB improves the declared order", c_learned < c_init)
    result.check("PIB within 10% of optimal", c_learned <= 1.1 * c_opt)
    return result


# ----------------------------------------------------------------------
# S1: Υ_AOT scaling
# ----------------------------------------------------------------------

def experiment_upsilon_scaling(
    seed: int = 9,
    sizes: Sequence[int] = (10, 20, 40, 80, 160),
    repeats: int = 3,
) -> ExperimentResult:
    """Empirical runtime of ``Υ_AOT`` vs graph size (the §4 efficiency
    claim: polynomial whenever Υ is)."""
    result = ExperimentResult("S1: Υ_AOT runtime scaling")
    rng = random.Random(seed)
    rows = []
    timings: List[Tuple[int, float]] = []
    for size in sizes:
        graph, probs = random_instance(
            rng,
            n_internal=max(2, size // 3),
            n_retrievals=size,
        )
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            strategy = upsilon_aot(graph, probs)
            best = min(best, time.perf_counter() - start)
        greedy_cost = expected_cost_exact(upsilon_greedy(graph, probs), probs)
        exact_cost = expected_cost_exact(strategy, probs)
        rows.append([size, len(graph.arcs()), best * 1e3,
                     exact_cost, greedy_cost])
        timings.append((len(graph.arcs()), best))
    result.tables.append(format_table(
        "Υ_AOT runtime and the greedy Υ̃'s cost gap",
        ["retrievals", "arcs", "Υ_AOT ms", "C[Υ_AOT]", "C[Υ̃ greedy]"],
        rows,
    ))
    result.data["timings"] = timings
    # Polynomial (roughly cubic) growth: doubling size should not blow
    # the time up by more than ~16x; allow wide noise margins.
    grew_ok = all(
        later / max(earlier, 1e-7) < 40.0
        for (_, earlier), (_, later) in zip(timings, timings[1:])
    )
    result.check("runtime grows polynomially (no blow-up between sizes)",
                 grew_ok)
    result.check("greedy Υ̃ never beats exact Υ_AOT",
                 all(row[4] >= row[3] - 1e-9 for row in rows))
    return result


# ----------------------------------------------------------------------
# C1: head-to-head comparison
# ----------------------------------------------------------------------

def experiment_comparison(
    seed: int = 10,
    instances: int = 25,
    contexts: int = 1500,
    delta: float = 0.1,
) -> ExperimentResult:
    """Initial vs Smith-style static guess vs PIB vs PALO vs PAO vs
    optimal, averaged over random instances."""
    result = ExperimentResult(
        "C1: head-to-head expected cost (normalized to the optimum)"
    )
    rng = random.Random(seed)
    totals: Dict[str, float] = {
        "initial": 0.0, "greedy Υ̃ on true p": 0.0, "PIB": 0.0,
        "PALO": 0.0, "PAO (scaled budget)": 0.0, "optimal": 0.0,
    }
    pib_never_regressed = True
    for _ in range(instances):
        graph, probs = random_instance(rng, n_internal=3, n_retrievals=5)
        distribution = IndependentDistribution(graph, probs)
        initial = Strategy.depth_first(graph)
        _, c_opt = optimal_strategy_brute_force(graph, probs)

        pib = PIB(graph, delta=delta, initial_strategy=initial)
        pib.run(distribution.sampler(rng), contexts)

        palo = PALO(graph, epsilon=0.5, delta=delta, initial_strategy=initial)
        try:
            palo.run(distribution.sampler(rng), contexts * 4)
            palo_strategy = palo.strategy
        except Exception:
            palo_strategy = palo.strategy

        pao_result = pao(
            graph, epsilon=1.0, delta=delta,
            oracle=distribution.sampler(rng), sample_scale=0.25,
        )

        def normalized(strategy: Strategy) -> float:
            return expected_cost_exact(strategy, probs) / c_opt

        totals["initial"] += normalized(initial)
        totals["greedy Υ̃ on true p"] += normalized(upsilon_greedy(graph, probs))
        totals["PIB"] += normalized(pib.strategy)
        totals["PALO"] += normalized(palo_strategy)
        totals["PAO (scaled budget)"] += normalized(pao_result.strategy)
        totals["optimal"] += 1.0
        if normalized(pib.strategy) > normalized(initial) + 1e-9:
            pib_never_regressed = False

    rows = [
        [name, total / instances] for name, total in totals.items()
    ]
    result.tables.append(format_table(
        f"Mean C[Θ]/C[Θ_opt] over {instances} random instances "
        f"({contexts} contexts per learner)",
        ["method", "mean normalized cost"],
        rows,
        footer="PIB's one-sided Δ̃ test is deliberately conservative "
               "(Theorem 1 trades power for safety): it improves when "
               "the evidence is clear and otherwise stays put.",
    ))
    result.data["normalized"] = {name: t / instances for name, t in totals.items()}
    norm = result.data["normalized"]
    result.check("PIB improves on average and never regresses (Thm 1)",
                 norm["PIB"] < norm["initial"] and pib_never_regressed)
    result.check("PALO within 10% of optimal on average",
                 norm["PALO"] <= 1.10)
    result.check("PAO within 10% of optimal on average",
                 norm["PAO (scaled budget)"] <= 1.10)
    result.check("PAO (sampled p̂) beats the greedy Υ̃ fed the true p, "
                 "or matches it",
                 norm["PAO (scaled budget)"]
                 <= norm["greedy Υ̃ on true p"] + 0.05)
    return result


# ----------------------------------------------------------------------
# S1: serving layer — parallel throughput and cache warm-up
# ----------------------------------------------------------------------

class LatencyDatabase(Database):
    """A database whose probes carry a wall-clock latency.

    The simulation's abstract cost units cannot show a thread-pool
    speedup (pure-Python probe work serializes on the interpreter
    lock), so the serving experiment models what form-sharded workers
    actually overlap in a deployment: retrieval I/O.  ``time.sleep``
    releases the interpreter lock, exactly as a real database call
    would block on the network.  Its probes count as I/O, so the
    subgoal memo fronts it; with ``latency=0`` it never sleeps, which
    lets the serving verify oracles and tests run the memo over a
    :class:`Database`'s bucket-level versions.
    """

    probes_are_io = True

    def __init__(self, facts=(), latency: float = 0.002):
        super().__init__(facts)
        self.latency = latency

    def succeeds(self, pattern) -> bool:
        if self.latency:
            time.sleep(self.latency)
        return super().succeeds(pattern)


def _serving_workload(forms: int, queries_per_form: int):
    """A multi-form rule base plus an interleaved query stream.

    Each form has a rarely-matching rule declared first and a usually-
    matching rule second, so the initial strategy pays one wasted probe
    per query and PIB has a real climb to find.
    """
    rules_lines: List[str] = []
    facts_lines: List[str] = []
    for k in range(forms):
        rules_lines.append(f"task{k}(X) :- rare{k}(X).")
        rules_lines.append(f"task{k}(X) :- common{k}(X).")
        facts_lines.append(f"rare{k}(q0).")
        for person in range(6):
            facts_lines.append(f"common{k}(p{person}).")
    queries = []
    for index in range(queries_per_form):
        for k in range(forms):
            who = "q0" if index % 9 == 8 else f"p{index % 6}"
            queries.append(parse_query(f"task{k}({who})"))
    return "\n".join(rules_lines), "\n".join(facts_lines), queries


#: Fresh sessions per S1 configuration; each timing is their fastest.
SERVING_REPEATS = 3


def experiment_serving(
    forms: int = 6,
    queries_per_form: int = 25,
    latency: float = 0.002,
    workers: int = 4,
    delta: float = 0.05,
) -> ExperimentResult:
    """Throughput and cache behaviour of the form-sharded server.

    Three claims: (1) a parallel batch over independent query forms
    beats the sequential run by >= 2x at 4 workers once probes carry
    I/O latency; (2) a warm answer cache serves a repeated batch >= 5x
    faster than the cold pass, with the hit counters visible in the
    report; (3) parallelism changes *when* forms run, never *what* the
    learners decide — per-form climb histories are identical.

    Each batch takes 2–100 ms, so one timing is at the mercy of the
    host's scheduler: every configuration runs in
    :data:`SERVING_REPEATS` fresh sessions, interleaved, and each
    timing is the fastest of them.
    """
    result = ExperimentResult(
        "S1: form-sharded serving — parallel throughput and caching"
    )
    rules_text, facts_text, queries = _serving_workload(
        forms, queries_per_form
    )

    def fresh_session(workers_count: int, cache: CacheConfig):
        return open_session(
            parse_program(rules_text),
            LatencyDatabase(
                Database.from_program(facts_text), latency=latency
            ),
            config=SessionConfig(delta=delta),
            serving=ServingConfig(workers=workers_count),
            cache=cache,
        )

    def timed_batch(session) -> float:
        start = time.perf_counter()
        session.query_batch(queries)
        return time.perf_counter() - start

    def climbs(session):
        return {
            form: [
                (r.context_number, r.transformation, tuple(r.to_arcs))
                for r in session.processor.climb_history(form)
            ]
            for form in list(session.processor._states)
        }

    sequential_s, parallel_s, cold_s, warm_s = [], [], [], []
    parallel_climbs = []
    for _ in range(SERVING_REPEATS):
        with fresh_session(1, CacheConfig()) as sequential:
            sequential_s.append(timed_batch(sequential))
            sequential_climbs = climbs(sequential)
        with fresh_session(workers, CacheConfig()) as parallel:
            parallel_s.append(timed_batch(parallel))
            parallel_climbs.append(climbs(parallel))
        with fresh_session(
            workers, CacheConfig.default_enabled()
        ) as cached_session:
            cold_s.append(timed_batch(cached_session))
            warm_s.append(timed_batch(cached_session))
            serving_snapshot = cached_session.server.snapshot()
    t_sequential, t_parallel, t_cold, t_warm = map(
        min, (sequential_s, parallel_s, cold_s, warm_s)
    )

    parallel_speedup = t_sequential / t_parallel if t_parallel else 0.0
    warm_speedup = t_cold / t_warm if t_warm else 0.0
    hits = serving_snapshot["answer_cache"]["hits"]

    result.tables.append(format_table(
        f"Batch of {len(queries)} queries over {forms} forms "
        f"({latency * 1000:.1f} ms probe latency)",
        ["configuration", "wall s", "speedup"],
        [
            ["sequential (workers=1)", t_sequential, 1.0],
            [f"parallel (workers={workers})", t_parallel,
             parallel_speedup],
            ["cached, cold pass", t_cold, t_sequential / t_cold
             if t_cold else 0.0],
            ["cached, warm pass", t_warm, warm_speedup],
        ],
        footer=f"answer cache after both passes: {hits} hits / "
               f"{serving_snapshot['answer_cache']['misses']} misses "
               f"/ hit rate "
               f"{serving_snapshot['answer_cache']['hit_rate']:.1%}",
    ))
    result.data.update({
        "queries": len(queries),
        "forms": forms,
        "t_sequential": t_sequential,
        "t_parallel": t_parallel,
        "t_cold": t_cold,
        "t_warm": t_warm,
        "parallel_speedup": parallel_speedup,
        "warm_speedup": warm_speedup,
        "answer_cache": dict(serving_snapshot["answer_cache"]),
        "climbs_per_form": {
            str(form): len(history)
            for form, history in sequential_climbs.items()
        },
    })
    result.check(
        f"parallel batch >= 2x sequential throughput at {workers} workers",
        parallel_speedup >= 2.0,
    )
    result.check(
        "warm answer-cache pass >= 5x faster than the cold pass",
        warm_speedup >= 5.0,
    )
    result.check(
        "per-form climb decisions identical under parallel serving",
        all(run == sequential_climbs for run in parallel_climbs),
    )
    result.check(
        "cache counters visible in the serving report",
        hits > 0 and serving_snapshot["answer_cache"]["hit_rate"] > 0,
    )
    return result


# ----------------------------------------------------------------------
# OV1: overload — admission control bounds tail latency under burst
# ----------------------------------------------------------------------


def _latency_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Exact linear-interpolated quantile of pre-sorted values."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


def experiment_overload(
    forms: int = 4,
    queries_per_form: int = 12,
    burst: int = 10,
    queue_capacity: int = 8,
    tenants: int = 3,
    delta: float = 0.05,
) -> ExperimentResult:
    """Admission control under a 10x burst: bounded tails, typed sheds.

    The load-shedding claim, measured in the serving layer's own
    deterministic latency units (per-form virtual cost clocks): with a
    bounded admission queue, the p99 *served* latency under a 10x
    burst is (1) essentially the p99 at 1x — the queue cannot deepen
    past its capacity, so neither can the wait — and (2) far below the
    unbounded-queue p99, which grows linearly with offered load.
    Meanwhile every request still gets a typed outcome, the outcome
    sequence is byte-deterministic, and under ``reject-over-quota`` no
    tenant starves.
    """
    result = ExperimentResult(
        "OV1: overload — admission control bounds tail latency"
    )
    rules_text, facts_text, queries = _serving_workload(
        forms, queries_per_form
    )
    rules = parse_program(rules_text)
    database = Database.from_program(facts_text)

    def run_burst(burst_factor: int, capacity: int):
        processor = SelfOptimizingQueryProcessor(
            rules, config=SessionConfig(delta=delta)
        )
        server = QueryServer(
            processor,
            serving=ServingConfig(admission=AdmissionConfig(
                queue_capacity=capacity,
                shed_policy="reject-over-quota",
            )),
        )
        requests = coerce_requests(
            list(queries) * burst_factor, tenants=tenants
        )
        return server.run_requests(requests, database)

    def served_latencies(outcomes) -> List[float]:
        return sorted(o.latency for o in outcomes if o.served)

    unbounded_capacity = len(queries) * burst + 1

    calm = run_burst(1, queue_capacity)
    stormy = run_burst(burst, queue_capacity)
    stormy_again = run_burst(burst, queue_capacity)
    unbounded = run_burst(burst, unbounded_capacity)

    calm_p99 = _latency_quantile(served_latencies(calm), 0.99)
    stormy_sorted = served_latencies(stormy)
    stormy_p50 = _latency_quantile(stormy_sorted, 0.50)
    stormy_p95 = _latency_quantile(stormy_sorted, 0.95)
    stormy_p99 = _latency_quantile(stormy_sorted, 0.99)
    unbounded_p99 = _latency_quantile(served_latencies(unbounded), 0.99)

    def tally(outcomes) -> Dict[str, int]:
        counts = {"served": 0, "degraded": 0, "rejected": 0}
        for outcome in outcomes:
            counts[outcome.status] += 1
        return counts

    stormy_counts = tally(stormy)
    goodput = stormy_counts["served"] / len(stormy) if stormy else 0.0
    fingerprint = [
        (o.request.tenant, o.status, o.reason, round(o.latency, 9))
        for o in stormy
    ]
    fingerprint_again = [
        (o.request.tenant, o.status, o.reason, round(o.latency, 9))
        for o in stormy_again
    ]
    progressed_tenants = {
        o.request.tenant for o in stormy if not o.rejected
    }
    demanded_tenants = {o.request.tenant for o in stormy}

    result.tables.append(format_table(
        f"{len(queries)} queries/pass, {forms} forms, "
        f"queue capacity {queue_capacity}, {tenants} tenants "
        f"(latencies in virtual cost units)",
        ["configuration", "offered", "served", "p99 latency"],
        [
            ["bounded, 1x load", len(calm), tally(calm)["served"],
             calm_p99],
            [f"bounded, {burst}x burst", len(stormy),
             stormy_counts["served"], stormy_p99],
            [f"unbounded, {burst}x burst", len(unbounded),
             tally(unbounded)["served"], unbounded_p99],
        ],
        footer=f"{burst}x burst under the bounded queue: "
               f"p50={stormy_p50:.1f} p95={stormy_p95:.1f} "
               f"p99={stormy_p99:.1f}, goodput {goodput:.1%}, "
               f"rejected {stormy_counts['rejected']}",
    ))
    result.data.update({
        "offered": len(stormy),
        "burst": burst,
        "queue_capacity": queue_capacity,
        "served": stormy_counts["served"],
        "rejected": stormy_counts["rejected"],
        "degraded": stormy_counts["degraded"],
        "goodput": goodput,
        "calm_p99": calm_p99,
        "stormy_p50": stormy_p50,
        "stormy_p95": stormy_p95,
        "stormy_p99": stormy_p99,
        "unbounded_p99": unbounded_p99,
        "tail_ratio": (unbounded_p99 / stormy_p99 if stormy_p99 else 0.0),
    })
    result.check(
        f"p99 under {burst}x burst stays within 1.25x of the 1x p99",
        stormy_p99 <= calm_p99 * 1.25,
    )
    result.check(
        "bounded-queue p99 at least 3x below the unbounded queue's",
        unbounded_p99 >= stormy_p99 * 3.0,
    )
    result.check(
        "every request received exactly one typed outcome",
        len(stormy) == sum(stormy_counts.values()),
    )
    result.check(
        "outcome sequence is byte-deterministic across reruns",
        fingerprint == fingerprint_again,
    )
    result.check(
        "no tenant starves under reject-over-quota",
        progressed_tenants == demanded_tenants,
    )

    # The chaos leg: the same bounded burst, but the database both
    # faults (seeded FaultPlan at the storage layer) and drifts (a
    # mid-run mutation moves facts, bumping the cache generation).
    # Admission must still hand back a typed outcome for every request
    # — the hot path never raises even when the storage layer does —
    # and the virtual-latency tail must stay bounded: faults inflate
    # per-serve cost via retries, but the queue bound still caps how
    # many serves any request waits behind.
    plan = FaultPlan(seed=3, per_arc={
        "rare0": FaultSpec(fault_rate=0.3),
        "common0": FaultSpec(fault_rate=0.2),
        "common1": FaultSpec(fault_rate=0.2, fail_first=2),
    })
    chaos_processor = SelfOptimizingQueryProcessor(
        rules,
        config=SessionConfig(
            delta=delta,
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=3, base_backoff=0.1),
                seed=0,
            ),
        ),
    )
    chaos_server = QueryServer(
        chaos_processor,
        serving=ServingConfig(admission=AdmissionConfig(
            queue_capacity=queue_capacity,
            shed_policy="reject-over-quota",
        )),
    )
    flaky = FlakyDatabase(Database.from_program(facts_text), plan)
    requests = coerce_requests(list(queries) * burst, tenants=tenants)
    half = len(requests) // 2
    chaos_outcomes = list(
        chaos_server.run_requests(requests[:half], flaky)
    )
    for k in range(forms):  # the drift: every form's facts move
        flaky.add(parse_atom(f"common{k}(drifted)"))
    chaos_outcomes.extend(
        chaos_server.run_requests(requests[half:], flaky)
    )
    chaos_sorted = served_latencies(chaos_outcomes)
    chaos_p99 = _latency_quantile(chaos_sorted, 0.99)
    chaos_counts = tally(chaos_outcomes)
    result.data.update({
        "chaos_p99": chaos_p99,
        "chaos_served": chaos_counts["served"],
        "chaos_rejected": chaos_counts["rejected"],
        "chaos_faults_injected": plan.injected_faults,
    })
    result.tables.append(format_table(
        "Chaos leg: same burst + storage faults + mid-run data drift",
        ["leg", "offered", "served", "p99 latency"],
        [
            ["clean burst", len(stormy), stormy_counts["served"],
             stormy_p99],
            ["faults + drift", len(chaos_outcomes),
             chaos_counts["served"], chaos_p99],
        ],
        footer=f"{plan.injected_faults} faults injected; "
               f"retries bill extra cost, so the chaos p99 may sit "
               f"above the clean p99 — but the queue bound still "
               f"caps it",
    ))
    result.check(
        "chaos leg: every request still gets a typed outcome",
        len(chaos_outcomes) == len(requests)
        and all(o.status in ("served", "degraded", "rejected")
                for o in chaos_outcomes)
        and plan.injected_faults > 0,
    )
    result.check(
        "chaos leg: p99 stays bounded (within 4x of the clean p99)",
        chaos_p99 <= stormy_p99 * 4.0,
    )
    return result


# ----------------------------------------------------------------------
# F13: raw Datalog engine throughput (the hot-path overhaul)
# ----------------------------------------------------------------------

def experiment_engine(
    nodes: int = 60, proves: int = 200
) -> ExperimentResult:
    """Raw substrate throughput on a transitive-closure workload.

    The learning results ride on the Datalog substrate, so its constant
    factors bound every experiment above: this leg times repeated
    top-down proves, full answer enumeration, and both bottom-up
    fixpoints on an ``nodes``-node chain-with-shortcuts graph, and
    cross-checks the three evaluators against each other (the
    differential oracle of the verify subsystem, inlined).

    The recorded ``metrics`` — model size, answer count, trace cost —
    are machine-independent; the wall time of the whole leg is the
    trajectory's engine-speed trend.
    """
    from ..datalog.bottomup import naive_evaluate, seminaive_evaluate
    from ..datalog.engine import TopDownEngine
    from ..datalog.terms import Atom

    result = ExperimentResult("F13: Datalog engine throughput (engine leg)")
    rules = parse_program("""
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
    """)
    facts = Database()
    for index in range(nodes - 1):
        facts.add(Atom("edge", [f"n{index:03d}", f"n{index + 1:03d}"]))
    for index in range(0, nodes - 5, 5):
        facts.add(Atom("edge", [f"n{index:03d}", f"n{index + 5:03d}"]))

    timings: Dict[str, float] = {}

    start = time.perf_counter()
    seminaive = seminaive_evaluate(rules, facts)
    timings["seminaive"] = time.perf_counter() - start

    start = time.perf_counter()
    naive = naive_evaluate(rules, facts)
    timings["naive"] = time.perf_counter() - start

    engine = TopDownEngine(rules, max_depth=4 * nodes)
    goal = parse_query(f"path(n000, n{nodes - 1:03d})")
    start = time.perf_counter()
    for _ in range(proves):
        answer = engine.prove(goal, facts)
    timings["proves"] = time.perf_counter() - start
    prove_cost = answer.trace.cost

    start = time.perf_counter()
    answers = list(engine.answers(parse_query("path(n000, X)"), facts))
    timings["answers"] = time.perf_counter() - start

    path_facts = len(seminaive.relation("path", 2))
    result.data.update({
        "path_facts": path_facts,
        "answers": len(answers),
        "prove_cost": prove_cost,
        "proves": proves,
        "nodes": nodes,
        "timings": {name: round(value, 4) for name, value in timings.items()},
    })
    result.tables.append(format_table(
        f"Engine throughput, {nodes}-node closure ({len(facts)} edges)",
        ["operation", "wall seconds"],
        [[name, f"{value:.4f}"] for name, value in timings.items()],
        footer=f"{path_facts} path facts; prove cost {prove_cost:g} "
               f"x {proves} proves",
    ))
    result.check(
        "semi-naive and naive fixpoints agree (differential oracle)",
        set(seminaive) == set(naive),
    )
    result.check(
        "top-down succeeds iff the model contains the goal",
        answer.proved and goal in seminaive,
    )
    result.check(
        "every reachable target enumerated exactly once",
        len(answers) == len({a.substitution for a in answers})
        and len(answers) == nodes - 1,
    )
    result.check(
        "prove cost is positive and reproducible across runs",
        prove_cost > 0
        and engine.prove(goal, facts).trace.cost == prove_cost,
    )
    return result


# ----------------------------------------------------------------------
# QS1: QSQN nets vs. SLD vs. bottom-up on goal-directed workloads
# ----------------------------------------------------------------------

def experiment_qsqn(
    nodes: int = 48, proves: int = 100
) -> ExperimentResult:
    """Goal-directed set-at-a-time evaluation against both baselines.

    Two workloads where the evaluation strategies genuinely differ: a
    long transitive-closure chain (deep recursion, one ground goal)
    and the same-generation tree (quadratically many derivable pairs).
    The leg times repeated QSQN proves against the SLD engine and the
    bottom-up fixpoint, cross-checks all three answer sets (the
    three-way oracle of the verify subsystem, inlined), and records
    the machine-independent costs; wall time is the QSQN speed trend.
    """
    from ..datalog.bottomup import BottomUpEngine
    from ..datalog.engine import TopDownEngine
    from ..datalog.qsqn import QSQNEngine
    from ..datalog.terms import Atom
    from ..workloads.hostile import same_generation_program

    result = ExperimentResult("QS1: QSQN three-way throughput (qsqn leg)")
    rules = parse_program("""
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
    """)
    facts = Database()
    for index in range(nodes - 1):
        facts.add(Atom("edge", [f"n{index:03d}", f"n{index + 1:03d}"]))
    for index in range(0, nodes - 5, 5):
        facts.add(Atom("edge", [f"n{index:03d}", f"n{index + 5:03d}"]))

    timings: Dict[str, float] = {}
    qsqn = QSQNEngine(rules)
    top_down = TopDownEngine(rules, max_depth=4 * nodes)
    bottom_up = BottomUpEngine(rules)

    goal = parse_query(f"path(n000, n{nodes - 1:03d})")
    # The first prove drains the net and pays the whole billed cost;
    # warm proves serve from the tabled answer relations for free.
    qsqn_prove_cost = qsqn.prove(goal, facts).trace.cost
    start = time.perf_counter()
    for _ in range(proves):
        answer = qsqn.prove(goal, facts)
    timings["qsqn_proves"] = time.perf_counter() - start

    open_goal = parse_query("path(n000, X)")
    start = time.perf_counter()
    qsqn_answers = {
        open_goal.substitute(a.substitution)
        for a in qsqn.answers(open_goal, facts)
    }
    timings["qsqn_answers"] = time.perf_counter() - start

    start = time.perf_counter()
    td_answers = {
        open_goal.substitute(a.substitution)
        for a in top_down.answers(open_goal, facts)
    }
    timings["topdown_answers"] = time.perf_counter() - start

    start = time.perf_counter()
    bu_answers = {
        open_goal.substitute(s)
        for s in bottom_up.answers(open_goal, facts)
    }
    timings["bottomup_answers"] = time.perf_counter() - start

    sg_rules, sg_facts, _ = same_generation_program(seed=0, depth=3,
                                                    fanout=3)
    sg_base = parse_program("\n".join(sg_rules))
    sg_db = Database.from_program("\n".join(sg_facts))
    sg_query = parse_query("sg(X, Y)?")
    start = time.perf_counter()
    sg_pairs = {
        sg_query.substitute(a.substitution)
        for a in QSQNEngine(sg_base).answers(sg_query, sg_db)
    }
    timings["qsqn_same_generation"] = time.perf_counter() - start
    sg_model = {
        sg_query.substitute(s)
        for s in BottomUpEngine(sg_base).answers(sg_query, sg_db)
    }

    result.data.update({
        "answers": len(qsqn_answers),
        "qsqn_prove_cost": qsqn_prove_cost,
        "sg_pairs": len(sg_pairs),
        "proves": proves,
        "nodes": nodes,
        "timings": {name: round(value, 4) for name, value in timings.items()},
    })
    result.tables.append(format_table(
        f"QSQN three-way, {nodes}-node closure ({len(facts)} edges)",
        ["operation", "wall seconds"],
        [[name, f"{value:.4f}"] for name, value in timings.items()],
        footer=f"{len(qsqn_answers)} answers; QSQN prove cost "
               f"{qsqn_prove_cost:g} x {proves} proves; "
               f"{len(sg_pairs)} same-generation pairs",
    ))
    result.check(
        "three engines agree on the open transitive-closure answer set",
        qsqn_answers == td_answers == bu_answers,
    )
    result.check(
        "QSQN same-generation pairs equal the bottom-up model",
        sg_pairs == sg_model,
    )
    result.check(
        "QSQN cold prove cost is positive and reproducible across runs",
        qsqn_prove_cost > 0
        and QSQNEngine(rules).prove(goal, facts).trace.cost
        == qsqn_prove_cost,
    )
    result.check(
        "warm proves stay proved and bill nothing extra",
        answer.proved and answer.trace.cost == 0.0,
    )
    return result


# ----------------------------------------------------------------------
# FED1: storage backends — memory vs SQLite vs federated (calm / faulty)
# ----------------------------------------------------------------------

def experiment_federation(
    nodes: int = 48,
    queries: int = 120,
    seed: int = 7,
    shards: int = 3,
    fault_rate: float = 0.25,
    timeout_rate: float = 0.05,
) -> ExperimentResult:
    """Storage backends head-to-head on a transitive-closure workload.

    The same chain-with-shortcuts knowledge base is answered through
    the in-memory :class:`Database`, the SQLite backend, a *calm*
    federated store (no faults), and a *faulty* federated store with
    replicas and hedged reads.  The first three must be byte-identical
    (same answers in the same enumeration order, same prove cost); the
    faulty leg exercises degrade-to-partial: every answer it yields is
    checked against the complete set, and its partial/dark/hedge/billed
    telemetry — deterministic in the seed — is the trajectory metric.
    """
    from ..datalog.engine import TopDownEngine
    from ..datalog.terms import Atom
    from ..storage.federation import FederatedStore
    from ..storage.sqlite import SQLiteFactStore

    result = ExperimentResult(
        "FED1: storage backends (memory vs SQLite vs federated)"
    )
    rules = parse_program("""
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
    """)
    facts: List[Atom] = []
    for index in range(nodes - 1):
        facts.append(Atom("edge", [f"n{index:03d}", f"n{index + 1:03d}"]))
    for index in range(0, nodes - 5, 5):
        facts.append(Atom("edge", [f"n{index:03d}", f"n{index + 5:03d}"]))
    for index in range(0, nodes, 3):
        facts.append(Atom("marked", [f"n{index:03d}"]))

    def faulty_store() -> FederatedStore:
        return FederatedStore(
            facts,
            shards=shards,
            seed=seed,
            fault=FaultSpec(fault_rate=fault_rate, timeout_rate=timeout_rate),
            replicas=True,
            # A faulty replica too, else hedging always rescues the
            # probe and the degrade-to-partial path never runs.
            replica_fault=FaultSpec(
                fault_rate=fault_rate, timeout_rate=timeout_rate
            ),
            retry_budget=1,
        )

    backends = [
        ("memory", Database(facts)),
        ("sqlite", SQLiteFactStore(facts)),
        ("federated-calm", FederatedStore(facts, shards=shards, seed=seed)),
    ]
    engine = TopDownEngine(rules, max_depth=4 * nodes)
    goal = parse_query(f"path(n000, n{nodes - 1:03d})")
    wildcard = parse_query("path(n000, X)")
    marked = parse_query("marked(X)")

    timings: Dict[str, float] = {}
    enumerations: Dict[str, Tuple] = {}
    prove_costs: Dict[str, float] = {}
    for name, store in backends:
        start = time.perf_counter()
        enumerations[name] = tuple(
            wildcard.substitute(answer.substitution)
            for answer in engine.answers(wildcard, store)
        )
        prove_costs[name] = engine.prove(goal, store).trace.cost
        timings[name] = time.perf_counter() - start
    complete_marked = {
        marked.substitute(answer.substitution)
        for answer in engine.answers(marked, backends[0][1])
    }

    def run_faulty() -> Tuple[Tuple[int, int, int, int, float], bool]:
        """One seeded faulty pass; returns (fingerprint, sound)."""
        store = faulty_store()
        partials = lost = 0
        sound = True
        for number in range(queries):
            store.begin_probe_window()
            if number % 2:
                got = {
                    marked.substitute(answer.substitution)
                    for answer in engine.answers(marked, store)
                }
                window = store.end_probe_window()
                if not got <= complete_marked:
                    sound = False
                if got != complete_marked:
                    lost += 1
                    if window.completeness.complete:
                        sound = False
            else:
                proved = engine.prove(goal, store).proved
                window = store.end_probe_window()
                if not proved:
                    lost += 1
                    if window.completeness.complete:
                        sound = False
            if window.completeness.partial:
                partials += 1
        fingerprint = (
            partials,
            lost,
            store.dark_probes,
            store.hedged_reads,
            round(store.billed_cost, 6),
        )
        return fingerprint, sound

    start = time.perf_counter()
    first, sound = run_faulty()
    timings["federated-faulty"] = time.perf_counter() - start
    second, _ = run_faulty()
    partials, lost, dark, hedged, billed = first

    result.data.update({
        "answers": len(enumerations["memory"]),
        "prove_cost": prove_costs["memory"],
        "faulty_queries": queries,
        "faulty_partials": partials,
        "faulty_lost": lost,
        "faulty_dark_probes": dark,
        "faulty_hedged_reads": hedged,
        "faulty_billed": billed,
        "timings": {name: round(value, 4) for name, value in timings.items()},
    })
    result.tables.append(format_table(
        f"Backends over {len(facts)} facts, {nodes}-node closure",
        ["backend", "answers", "prove cost", "wall seconds"],
        [[name, len(enumerations[name]), f"{prove_costs[name]:g}",
          f"{timings[name]:.4f}"] for name, _ in backends]
        + [["federated-faulty", f"{partials} partial/{queries}",
            f"billed {billed:g}", f"{timings['federated-faulty']:.4f}"]],
        footer=f"faulty leg: {dark} dark probes, {hedged} hedged reads",
    ))
    result.check(
        "SQLite enumerates byte-identically to memory",
        enumerations["sqlite"] == enumerations["memory"],
    )
    result.check(
        "healthy federated enumerates byte-identically to memory",
        enumerations["federated-calm"] == enumerations["memory"],
    )
    result.check(
        "prove cost identical across healthy backends",
        len(set(prove_costs.values())) == 1,
    )
    result.check(
        "faulty federated answers stay sound (subset + honest verdicts)",
        sound,
    )
    result.check(
        "faults actually bit: at least one partial answer observed",
        partials > 0,
    )
    result.check(
        "faulty federated replay is byte-deterministic",
        first == second,
    )
    return result


# ----------------------------------------------------------------------
# XP1: experience warm-start — repeated forms converge with fewer samples
# ----------------------------------------------------------------------

def experiment_experience_warmstart(
    seeds: Sequence[int] = (7, 11, 23),
    contexts: int = 400,
    delta: float = 0.2,
) -> ExperimentResult:
    """Cross-session warm-start on the paper's university workload.

    Session one starts from the DBA's ``Θ₁`` and hill-climbs under the
    intended distribution; its settled outcome is contributed to an
    experience store.  Session two faces the *same form* and
    warm-starts from the store.  Measured per seed:

    * samples-to-convergence — the context number of the last climb
      (0 when the run never needs to climb): the cost of re-learning
      what a previous session already knew;
    * answer parity — the warm run must prove exactly the contexts the
      cold run proved (priors-only: warm-start changes no answers);
    * strategy parity — both sessions settle on the same strategy.

    The acceptance bar is the ISSUE's: ≥30% fewer samples to
    convergence on repeated forms, with byte-identical answers.
    """
    from ..experience import (
        ExperienceStore,
        form_profile,
        record_from_learner,
        warm_start,
    )

    graph = university.g_a()
    probs = university.intended_probabilities()
    rows: List[List[str]] = []
    reductions: List[float] = []
    parity = True
    strategy_parity = True
    warm_hits = True
    result = ExperimentResult("XP1: experience warm-start (university G_A)")

    for seed in seeds:
        distribution = IndependentDistribution(graph, probs)

        def run(initial: Optional[Strategy]) -> Tuple[PIB, List[bool], int]:
            learner = PIB(
                graph, delta=delta,
                initial_strategy=initial or university.theta_1(graph),
            )
            rng = random.Random(seed)
            proved: List[bool] = []
            for _ in range(contexts):
                proved.append(
                    learner.process(distribution.sample(rng)).succeeded
                )
            settled_at = (
                learner.history[-1].context_number if learner.history else 0
            )
            return learner, proved, settled_at

        cold, cold_proved, cold_settled = run(None)
        store = ExperienceStore()
        profile = form_profile(graph)
        record = record_from_learner(profile, "instructor/1", cold)
        assert record is not None
        store.add(record)
        warm = warm_start(store, profile, graph)
        warm_hits = warm_hits and warm is not None and warm.exact
        warm_learner, warm_proved, warm_settled = run(
            warm.strategy if warm is not None else None
        )
        parity = parity and warm_proved == cold_proved
        strategy_parity = strategy_parity and (
            warm_learner.strategy.arc_names() == cold.strategy.arc_names()
        )
        reduction = (
            1.0 - warm_settled / cold_settled if cold_settled else 1.0
        )
        reductions.append(reduction)
        rows.append([
            str(seed), str(cold_settled), str(warm_settled),
            f"{reduction:.0%}", str(cold.climbs), str(warm_learner.climbs),
        ])

    mean_reduction = sum(reductions) / len(reductions)
    result.data.update(
        seeds=list(seeds),
        contexts=contexts,
        mean_reduction=round(mean_reduction, 4),
        reductions=[round(r, 4) for r in reductions],
        answer_parity=parity,
        strategy_parity=strategy_parity,
    )
    result.tables.append(format_table(
        "samples to convergence, cold vs warm-started",
        ["seed", "cold settles at", "warm settles at", "reduction",
         "cold climbs", "warm climbs"],
        rows,
        footer=f"mean samples-to-convergence reduction: {mean_reduction:.0%}",
    ))
    result.check(
        "warm-start always finds the prior session's record (exact hit)",
        warm_hits,
    )
    result.check(
        "priors only: warm run proves exactly the cold run's contexts",
        parity,
    )
    result.check(
        "both sessions settle on the same strategy",
        strategy_parity,
    )
    result.check(
        ">=30% fewer samples to convergence on the repeated form",
        mean_reduction >= 0.30,
    )
    return result
