"""Unit tests for PAO (Theorems 2 and 3)."""

import random

import pytest

from repro.errors import LearningError, SampleBudgetExceeded
from repro.graphs.inference_graph import GraphBuilder
from repro.learning.chernoff import aiming_sample_size, pao_sample_size
from repro.learning.pao import pao, sample_requirements
from repro.optimal.brute_force import optimal_strategy_brute_force
from repro.strategies.expected_cost import expected_cost_exact
from repro.workloads import (
    IndependentDistribution,
    g_a,
    intended_probabilities,
    theta_2,
)


def blockable_graph():
    builder = GraphBuilder("root")
    builder.reduction("R_easy", "root", "easy")
    builder.retrieval("D_easy", "easy")
    builder.reduction("R_rare", "root", "rare", blockable=True)
    builder.retrieval("D_rare", "rare", cost=0.5)
    return builder.build()


class TestSampleRequirements:
    def test_matches_equation7(self):
        graph = g_a()
        requirements = sample_requirements(graph, epsilon=1.0, delta=0.1)
        n = len(graph.experiments())
        for arc in graph.experiments():
            assert requirements[arc.name] == pao_sample_size(
                n, graph.f_not(arc), 1.0, 0.1
            )

    def test_aiming_matches_equation8(self):
        graph = blockable_graph()
        requirements = sample_requirements(
            graph, epsilon=1.0, delta=0.1, aiming=True
        )
        n = len(graph.experiments())
        for arc in graph.experiments():
            assert requirements[arc.name] == aiming_sample_size(
                n, graph.f_not(arc), 1.0, 0.1
            )

    def test_scale_shrinks_budget(self):
        graph = g_a()
        full = sample_requirements(graph, 1.0, 0.1)
        scaled = sample_requirements(graph, 1.0, 0.1, sample_scale=0.1)
        assert all(scaled[k] <= full[k] for k in full)

    def test_validation(self):
        graph = g_a()
        with pytest.raises(LearningError):
            sample_requirements(graph, epsilon=0.0, delta=0.1)
        with pytest.raises(LearningError):
            sample_requirements(graph, epsilon=1.0, delta=0.0)
        with pytest.raises(LearningError):
            sample_requirements(graph, epsilon=1.0, delta=0.1, sample_scale=0)


class TestPlainPAO:
    def test_returns_optimal_on_ga(self):
        graph = g_a()
        distribution = IndependentDistribution(graph, intended_probabilities())
        outcome = pao(
            graph, epsilon=1.0, delta=0.1,
            oracle=distribution.sampler(random.Random(0)),
        )
        assert outcome.strategy.arc_names() == theta_2(graph).arc_names()

    def test_estimates_near_truth(self):
        graph = g_a()
        probs = intended_probabilities()
        distribution = IndependentDistribution(graph, probs)
        outcome = pao(
            graph, epsilon=1.0, delta=0.1,
            oracle=distribution.sampler(random.Random(1)),
        )
        for name, value in probs.items():
            assert outcome.estimates[name] == pytest.approx(value, abs=0.15)

    def test_requirements_met(self):
        graph = g_a()
        distribution = IndependentDistribution(graph, intended_probabilities())
        outcome = pao(
            graph, epsilon=1.0, delta=0.1,
            oracle=distribution.sampler(random.Random(2)),
        )
        for name, requirement in outcome.requirements.items():
            assert outcome.reached[name] >= requirement

    def test_rejects_blockable_graph_without_aiming(self):
        graph = blockable_graph()
        distribution = IndependentDistribution(
            graph, {"R_rare": 0.1, "D_rare": 0.9, "D_easy": 0.5}
        )
        with pytest.raises(LearningError, match="aiming"):
            pao(graph, 1.0, 0.1, distribution.sampler(random.Random(3)))

    def test_budget_exceeded(self):
        graph = g_a()
        distribution = IndependentDistribution(graph, intended_probabilities())
        with pytest.raises(SampleBudgetExceeded):
            pao(
                graph, epsilon=0.1, delta=0.01,
                oracle=distribution.sampler(random.Random(4)),
                max_contexts=10,
            )

    def test_custom_upsilon(self):
        calls = []

        def fake_upsilon(graph, estimates):
            calls.append(estimates)
            from repro.strategies.strategy import Strategy

            return Strategy.depth_first(graph)

        graph = g_a()
        distribution = IndependentDistribution(graph, intended_probabilities())
        outcome = pao(
            graph, epsilon=2.0, delta=0.2,
            oracle=distribution.sampler(random.Random(5)),
            upsilon=fake_upsilon, sample_scale=0.2,
        )
        assert calls and outcome.strategy.arc_names() == (
            "Rp", "Dp", "Rg", "Dg"
        )


class TestAimingPAO:
    def test_handles_unreachable_retrieval(self):
        graph = blockable_graph()
        # R_rare almost never applies; D_rare is basically unreachable.
        probs = {"R_rare": 0.02, "D_rare": 0.9, "D_easy": 0.6}
        distribution = IndependentDistribution(graph, probs)
        outcome = pao(
            graph, epsilon=1.5, delta=0.1,
            oracle=distribution.sampler(random.Random(6)),
            aiming=True, sample_scale=0.5,
        )
        c_pao = expected_cost_exact(outcome.strategy, probs)
        _, c_opt = optimal_strategy_brute_force(graph, probs)
        assert c_pao <= c_opt + 1.5 + 1e-9

    def test_fallback_estimate_for_never_reached(self):
        graph = blockable_graph()
        probs = {"R_rare": 0.0, "D_rare": 0.9, "D_easy": 0.6}
        distribution = IndependentDistribution(graph, probs)
        outcome = pao(
            graph, epsilon=2.0, delta=0.2,
            oracle=distribution.sampler(random.Random(7)),
            aiming=True, sample_scale=0.2,
        )
        assert outcome.reached["D_rare"] == 0
        assert outcome.estimates["D_rare"] == 0.5

    def test_attempt_counts_exceed_reached(self):
        graph = blockable_graph()
        probs = {"R_rare": 0.3, "D_rare": 0.9, "D_easy": 0.6}
        distribution = IndependentDistribution(graph, probs)
        outcome = pao(
            graph, epsilon=1.5, delta=0.2,
            oracle=distribution.sampler(random.Random(8)),
            aiming=True, sample_scale=0.3,
        )
        assert outcome.attempts["D_rare"] >= outcome.reached["D_rare"]


class TestAdaptiveSplit:
    """``pao()`` drives QP^A through ``next_strategy``/``record``; its
    results are the ones the single ``process`` call produced."""

    # (seed, Θ_pao, p̂, contexts used, reached) from the unsplit run.
    PINNED = [
        (0, ["R1", "D1", "D2", "D0"],
         {"D0": 0.2916666666666667, "D1": 0.15306122448979592,
          "D2": 0.2753623188405797}, 98, {"D0": 72, "D1": 98, "D2": 69}),
        (1, ["D1", "R1", "D2", "D0"],
         {"D0": 0.275, "D1": 0.5414012738853503, "D2": 0.835820895522388},
         161, {"D0": 40, "D1": 157, "D2": 67}),
        (4, ["R1", "D0", "D2", "D1"],
         {"D0": 0.96875, "D1": 0.19607843137254902, "D2": 0.5},
         51, {"D0": 32, "D1": 51, "D2": 18}),
        (5, ["R1", "D1", "D2", "D0"],
         {"D0": 0.24489795918367346, "D1": 0.4936708860759494,
          "D2": 0.5686274509803921}, 112, {"D0": 98, "D1": 79, "D2": 51}),
    ]

    @pytest.mark.parametrize("seed, arcs, estimates, used, reached", PINNED)
    def test_results_are_unchanged(self, seed, arcs, estimates, used,
                                   reached):
        from repro.graphs.random_graphs import random_instance

        graph, probs = random_instance(
            random.Random(seed), n_internal=2, n_retrievals=3,
            blockable_reduction_rate=0.5 if seed % 2 else 0.0,
        )
        result = pao(
            graph, 1.0, 0.2,
            IndependentDistribution(graph, probs).sampler(
                random.Random(100 + seed)),
            aiming=bool(seed % 2), sample_scale=0.05,
        )
        assert list(result.strategy.arc_names()) == arcs
        assert result.estimates == estimates
        assert result.contexts_used == used
        assert result.reached == reached
