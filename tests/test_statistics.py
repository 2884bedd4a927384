"""Unit tests for the statistics collectors and the Δ̃ under-estimate."""

import random

import pytest

from repro.graphs.contexts import Context
from repro.learning.statistics import (
    DeltaAccumulator,
    RetrievalStatistics,
    WindowedRetrievalStatistics,
    delta_tilde,
)
from repro.strategies.execution import execute
from repro.strategies.transformations import SiblingSwap
from repro.workloads import (
    IndependentDistribution,
    g_a,
    g_b,
    theta_1,
    theta_2,
    theta_abcd,
    theta_abdc,
)


class TestRetrievalStatistics:
    def test_counters_update_from_runs(self):
        graph = g_a()
        stats = RetrievalStatistics(graph)
        stats.record(execute(theta_1(graph), Context(graph, {"Dp": False, "Dg": True})))
        stats.record(execute(theta_1(graph), Context(graph, {"Dp": True, "Dg": True})))
        assert stats.attempts["Dp"] == 2
        assert stats.successes["Dp"] == 1
        assert stats.attempts["Dg"] == 1  # second run stopped at Dp
        assert stats.successes["Dg"] == 1

    def test_frequency_with_fallback(self):
        graph = g_a()
        stats = RetrievalStatistics(graph)
        assert stats.frequency("Dp") == 0.5
        assert stats.frequency("Dp", fallback=0.9) == 0.9

    def test_frequencies_vector(self):
        graph = g_a()
        stats = RetrievalStatistics(graph)
        stats.record(execute(theta_1(graph), Context(graph, {"Dp": True, "Dg": False})))
        assert stats.frequencies() == {"Dp": 1.0, "Dg": 0.5}

    def test_total_attempts(self):
        graph = g_a()
        stats = RetrievalStatistics(graph)
        stats.record(execute(theta_1(graph), Context(graph, {"Dp": False, "Dg": False})))
        assert stats.total_attempts() == 2


class TestDeltaTilde:
    def test_case_analysis_from_section31(self):
        """The paper's three-case analysis of Δ̃ on G_A."""
        graph = g_a()
        theta1, theta2 = theta_1(graph), theta_2(graph)

        # Case 1: no solution under Rp, solution under Rg → Δ̃ = f*(Rp).
        run = execute(theta1, Context(graph, {"Dp": False, "Dg": True}))
        assert delta_tilde(run, theta2) == pytest.approx(2.0)

        # Case 2: no solution anywhere → Δ̃ = 0.
        run = execute(theta1, Context(graph, {"Dp": False, "Dg": False}))
        assert delta_tilde(run, theta2) == pytest.approx(0.0)

        # Case 3: solution under Rp → Δ̃ = −f*(Rg) (pessimistic: Dg
        # unobserved, assumed blocked).
        run = execute(theta1, Context(graph, {"Dp": True, "Dg": True}))
        assert delta_tilde(run, theta2) == pytest.approx(-2.0)

    def test_underestimates_true_delta(self):
        graph = g_a()
        theta1, theta2 = theta_1(graph), theta_2(graph)
        for dp in (True, False):
            for dg in (True, False):
                context = Context(graph, {"Dp": dp, "Dg": dg})
                run = execute(theta1, context)
                true_delta = run.cost - execute(theta2, context).cost
                assert delta_tilde(run, theta2) <= true_delta + 1e-12

    def test_section32_dd_unknown_case(self):
        """Running Θ_ABCD in I_c (first solution at D_c): whether D_d is
        blocked is unknown, so Δ̃[Θ_ABCD, Θ_ABDC, I_c] = −f*(R_td)."""
        graph = g_b()
        for dd in (True, False):
            context = Context(graph, {
                "Da": False, "Db": False, "Dc": True, "Dd": dd,
            })
            run = execute(theta_abcd(graph), context)
            assert "Dd" not in run.observations
            assert delta_tilde(run, theta_abdc(graph)) == pytest.approx(-2.0)

    def test_dd_known_success_gives_positive_estimate(self):
        graph = g_b()
        context = Context(graph, {
            "Da": False, "Db": False, "Dc": False, "Dd": True,
        })
        run = execute(theta_abcd(graph), context)
        # Θ_ABDC saves the wasted f*(R_tc) = 2.
        assert delta_tilde(run, theta_abdc(graph)) == pytest.approx(2.0)


class TestWindowedRetrievalStatistics:
    def run_on(self, graph, dp, dg):
        return execute(theta_1(graph), Context(graph, {"Dp": dp, "Dg": dg}))

    def test_frequency_tracks_window_not_lifetime(self):
        graph = g_a()
        stats = WindowedRetrievalStatistics(graph, window=4)
        for _ in range(10):
            stats.record(self.run_on(graph, dp=True, dg=True))
        for _ in range(4):
            stats.record(self.run_on(graph, dp=False, dg=False))
        # Lifetime counters keep everything; the window forgot the hits.
        assert stats.attempts["Dp"] == 14
        assert stats.successes["Dp"] == 10
        assert stats.frequency("Dp") == 0.0
        assert stats.window_size("Dp") == 4

    def test_fallback_for_unattempted_arcs(self):
        graph = g_a()
        stats = WindowedRetrievalStatistics(graph, window=4)
        assert stats.frequency("Dp") == 0.5
        assert stats.frequency("Dp", fallback=0.9) == 0.9

    def test_reset_window_keeps_lifetime_counters(self):
        graph = g_a()
        stats = WindowedRetrievalStatistics(graph, window=8)
        for _ in range(3):
            stats.record(self.run_on(graph, dp=True, dg=True))
        stats.reset_window()
        assert stats.window_size("Dp") == 0
        assert stats.frequency("Dp") == 0.5  # back to the fallback
        assert stats.attempts["Dp"] == 3
        assert stats.successes["Dp"] == 3

    def test_window_validated(self):
        with pytest.raises(ValueError):
            WindowedRetrievalStatistics(g_a(), window=0)


class TestDeltaAccumulator:
    def test_running_totals(self):
        graph = g_a()
        theta1, theta2 = theta_1(graph), theta_2(graph)
        transformation = SiblingSwap("Rp", "Rg")
        accumulator = DeltaAccumulator(
            transformation, theta2, transformation.chernoff_range(graph)
        )
        accumulator.update(
            execute(theta1, Context(graph, {"Dp": False, "Dg": True}))
        )
        accumulator.update(
            execute(theta1, Context(graph, {"Dp": True, "Dg": True}))
        )
        assert accumulator.samples == 2
        assert accumulator.total == pytest.approx(0.0)  # +2 − 2
        assert accumulator.mean == pytest.approx(0.0)

    def test_randomized_underestimate_property(self):
        graph = g_b()
        probs = {"Da": 0.3, "Db": 0.5, "Dc": 0.4, "Dd": 0.6}
        distribution = IndependentDistribution(graph, probs)
        rng = random.Random(9)
        theta = theta_abcd(graph)
        candidates = [theta_abdc(graph),
                      theta.with_swap("Rsb", "Rst"),
                      theta.with_swap("Rga", "Rgs")]
        for _ in range(200):
            context = distribution.sample(rng)
            run = execute(theta, context)
            for candidate in candidates:
                true_delta = run.cost - execute(candidate, context).cost
                assert delta_tilde(run, candidate) <= true_delta + 1e-12
