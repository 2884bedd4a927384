"""Unit tests for the context-distribution classes."""

import random

import pytest

from repro.errors import DistributionError
from repro.workloads import (
    ExplicitDistribution,
    IndependentDistribution,
    MixtureDistribution,
    PiecewiseStationaryDistribution,
    db1,
    g_a,
    intended_probabilities,
    intended_query_mix,
    query_distribution,
    theta_1,
)


class TestIndependent:
    def test_sampling_frequencies(self):
        graph = g_a()
        probs = {"Dp": 0.25, "Dg": 0.75}
        distribution = IndependentDistribution(graph, probs)
        rng = random.Random(0)
        hits = {"Dp": 0, "Dg": 0}
        n = 8000
        for _ in range(n):
            context = distribution.sample(rng)
            for name in hits:
                hits[name] += context.traversable(graph.arc(name))
        assert hits["Dp"] / n == pytest.approx(0.25, abs=0.03)
        assert hits["Dg"] / n == pytest.approx(0.75, abs=0.03)

    def test_support_weights_sum_to_one(self):
        graph = g_a()
        distribution = IndependentDistribution(graph, intended_probabilities())
        weights = [w for w, _ in distribution.support()]
        assert sum(weights) == pytest.approx(1.0)
        assert len(weights) == 4

    def test_expected_cost_uses_exact_route(self):
        graph = g_a()
        distribution = IndependentDistribution(graph, intended_probabilities())
        assert distribution.expected_cost(theta_1(graph)) == pytest.approx(3.7)

    def test_missing_arc_rejected(self):
        with pytest.raises(DistributionError):
            IndependentDistribution(g_a(), {"Dp": 0.5})

    def test_extra_arc_rejected(self):
        with pytest.raises(DistributionError):
            IndependentDistribution(
                g_a(), {"Dp": 0.5, "Dg": 0.5, "Rp": 0.5}
            )

    def test_large_graph_support_not_enumerated(self):
        from repro.graphs.random_graphs import random_instance

        graph, probs = random_instance(
            random.Random(1), n_internal=5, n_retrievals=20
        )
        distribution = IndependentDistribution(graph, probs)
        assert distribution.support() is None
        # Monte-Carlo route still works.
        strategy_cost = distribution.expected_cost(
            __import__("repro.strategies", fromlist=["Strategy"]).Strategy.depth_first(graph),
            samples=200,
            rng=random.Random(2),
        )
        assert strategy_cost > 0


class TestExplicit:
    def test_correlated_marginals_returns_none(self):
        graph = g_a()
        distribution = ExplicitDistribution(graph, [
            (0.5, {"Dp": True, "Dg": False}),
            (0.5, {"Dp": False, "Dg": True}),
        ])
        assert distribution.arc_probabilities() is None

    def test_independent_explicit_detected(self):
        graph = g_a()
        p, q = 0.3, 0.6
        weighted = []
        for dp in (True, False):
            for dg in (True, False):
                weight = (p if dp else 1 - p) * (q if dg else 1 - q)
                weighted.append((weight, {"Dp": dp, "Dg": dg}))
        distribution = ExplicitDistribution(graph, weighted)
        marginals = distribution.arc_probabilities()
        assert marginals["Dp"] == pytest.approx(p)
        assert marginals["Dg"] == pytest.approx(q)

    def test_weights_validated(self):
        graph = g_a()
        with pytest.raises(DistributionError):
            ExplicitDistribution(graph, [(0.7, {"Dp": True, "Dg": True})])

    def test_sampling_respects_weights(self):
        graph = g_a()
        distribution = ExplicitDistribution(graph, [
            (0.9, {"Dp": True, "Dg": False}),
            (0.1, {"Dp": False, "Dg": True}),
        ])
        rng = random.Random(3)
        dp_hits = sum(
            distribution.sample(rng).traversable(graph.arc("Dp"))
            for _ in range(2000)
        )
        assert dp_hits / 2000 == pytest.approx(0.9, abs=0.03)


class TestMixture:
    def test_mixture_support_merges(self):
        graph = g_a()
        comp_a = ExplicitDistribution(graph, [(1.0, {"Dp": True, "Dg": False})])
        comp_b = ExplicitDistribution(graph, [(1.0, {"Dp": False, "Dg": True})])
        mixture = MixtureDistribution([(0.25, comp_a), (0.75, comp_b)])
        support = dict(
            (context.unblocked_set(), weight)
            for weight, context in mixture.support()
        )
        assert support[frozenset({"Dp"})] == pytest.approx(0.25)
        assert support[frozenset({"Dg"})] == pytest.approx(0.75)

    def test_mixture_weights_validated(self):
        graph = g_a()
        component = ExplicitDistribution(
            graph, [(1.0, {"Dp": True, "Dg": False})]
        )
        with pytest.raises(DistributionError):
            MixtureDistribution([(0.5, component)])

    def test_empty_mixture_rejected(self):
        with pytest.raises(DistributionError):
            MixtureDistribution([])

    def test_mixture_expected_cost_is_convex_combination(self):
        graph = g_a()
        comp_a = IndependentDistribution(graph, {"Dp": 0.9, "Dg": 0.1})
        comp_b = IndependentDistribution(graph, {"Dp": 0.1, "Dg": 0.9})
        mixture = MixtureDistribution([(0.5, comp_a), (0.5, comp_b)])
        strategy = theta_1(graph)
        blended = 0.5 * comp_a.expected_cost(strategy) + \
            0.5 * comp_b.expected_cost(strategy)
        assert mixture.expected_cost(strategy) == pytest.approx(blended)


class TestDatalogDistribution:
    def test_university_distribution_matches_exact(self):
        graph = g_a()
        distribution = query_distribution(
            graph, intended_query_mix(), db1()
        )
        cost = distribution.expected_cost(
            theta_1(graph), samples=30_000, rng=random.Random(4)
        )
        assert cost == pytest.approx(3.7, abs=0.05)

    def test_contexts_carry_query(self):
        graph = g_a()
        distribution = query_distribution(graph, {"manolis": 1.0}, db1())
        context = distribution.sample(random.Random(5))
        assert str(context.query) == "instructor(manolis)"
        assert context.blocked(graph.arc("Dp"))

    def test_bad_mix_rejected(self):
        graph = g_a()
        with pytest.raises(ValueError):
            query_distribution(graph, {"russ": 0.4}, db1())


class TestPiecewiseStationary:
    def regimes(self, graph):
        return [
            (100, IndependentDistribution(graph, {"Dp": 0.15, "Dg": 0.6})),
            (None, IndependentDistribution(graph, {"Dp": 0.6, "Dg": 0.15})),
        ]

    def test_sampling_advances_regimes(self):
        graph = g_a()
        stream = PiecewiseStationaryDistribution(graph, self.regimes(graph))
        rng = random.Random(0)
        assert stream.regime_index == 0
        for _ in range(100):
            stream.sample(rng)
        assert stream.regime_index == 1
        assert stream.change_points() == [100]

    def test_introspection_tracks_current_regime(self):
        graph = g_a()
        stream = PiecewiseStationaryDistribution(graph, self.regimes(graph))
        assert stream.arc_probabilities()["Dp"] == 0.15
        rng = random.Random(1)
        for _ in range(100):
            stream.sample(rng)
        assert stream.arc_probabilities()["Dp"] == 0.6
        # expected_cost delegates to the current (second) regime.
        assert stream.expected_cost(theta_1(graph)) == pytest.approx(
            IndependentDistribution(graph, {"Dp": 0.6, "Dg": 0.15})
            .expected_cost(theta_1(graph))
        )

    def test_last_regime_runs_forever(self):
        graph = g_a()
        stream = PiecewiseStationaryDistribution(graph, self.regimes(graph))
        assert stream.regime_at(10**9) == 1

    def test_reset_rewinds(self):
        graph = g_a()
        stream = PiecewiseStationaryDistribution(graph, self.regimes(graph))
        rng = random.Random(2)
        for _ in range(150):
            stream.sample(rng)
        stream.reset()
        assert stream.regime_index == 0

    def test_validation(self):
        graph = g_a()
        with pytest.raises(DistributionError):
            PiecewiseStationaryDistribution(graph, [])
        with pytest.raises(DistributionError):
            PiecewiseStationaryDistribution(graph, [
                (None, IndependentDistribution(graph, {"Dp": 0.5, "Dg": 0.5})),
                (10, IndependentDistribution(graph, {"Dp": 0.5, "Dg": 0.5})),
            ])
        with pytest.raises(DistributionError):
            PiecewiseStationaryDistribution(graph, [
                (0, IndependentDistribution(graph, {"Dp": 0.5, "Dg": 0.5})),
                (None, IndependentDistribution(graph, {"Dp": 0.5, "Dg": 0.5})),
            ])
        other = g_a()
        with pytest.raises(DistributionError):
            PiecewiseStationaryDistribution(graph, [
                (None, IndependentDistribution(other, {"Dp": 0.5, "Dg": 0.5})),
            ])

