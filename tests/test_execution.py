"""Unit tests for satisficing strategy execution and cost accounting."""


from repro.graphs.contexts import Context
from repro.graphs.inference_graph import GraphBuilder
from repro.strategies.execution import cost_of, execute, pessimistic_cost
from repro.strategies.strategy import Strategy
from repro.workloads import g_a, g_b, theta_1, theta_2, theta_abcd


class TestFigure1Examples:
    def setup_method(self):
        self.graph = g_a()
        self.i1 = Context(self.graph, {"Dp": False, "Dg": True})
        self.i2 = Context(self.graph, {"Dp": True, "Dg": False})

    def test_paper_costs(self):
        assert cost_of(theta_1(self.graph), self.i1) == 4.0
        assert cost_of(theta_2(self.graph), self.i1) == 2.0
        assert cost_of(theta_1(self.graph), self.i2) == 2.0
        assert cost_of(theta_2(self.graph), self.i2) == 4.0

    def test_success_arc(self):
        result = execute(theta_1(self.graph), self.i1)
        assert result.succeeded and result.success_arc.name == "Dg"

    def test_failure_searches_everything(self):
        nothing = Context(self.graph, {"Dp": False, "Dg": False})
        result = execute(theta_1(self.graph), nothing)
        assert not result.succeeded
        assert result.cost == self.graph.total_cost
        assert result.success_arc is None

    def test_observations_only_cover_attempted(self):
        result = execute(theta_2(self.graph), self.i1)
        # Θ2 finds Dg immediately; Dp never attempted.
        assert result.observations == {"Dg": True}

    def test_attempted_order(self):
        result = execute(theta_1(self.graph), self.i1)
        assert [a.name for a in result.attempted] == ["Rp", "Dp", "Rg", "Dg"]


class TestBlockedInternalArcs:
    def setup_method(self):
        builder = GraphBuilder("root")
        builder.reduction("Rb", "root", "x", blockable=True, cost=2.0)
        builder.retrieval("Dx", "x", cost=3.0)
        builder.reduction("Rn", "root", "y")
        builder.retrieval("Dy", "y")
        self.graph = builder.build()
        self.strategy = Strategy.depth_first(self.graph)

    def test_blocked_reduction_costs_but_prunes(self):
        context = Context(self.graph, {"Rb": False, "Dx": True, "Dy": True})
        result = execute(self.strategy, context)
        # Pays Rb (2), skips Dx (unreachable), then Rn + Dy (2).
        assert result.cost == 4.0
        assert result.succeeded and result.success_arc.name == "Dy"
        assert "Dx" not in result.observations
        assert result.observations["Rb"] is False

    def test_open_reduction_descends(self):
        context = Context(self.graph, {"Rb": True, "Dx": True, "Dy": True})
        result = execute(self.strategy, context)
        assert result.cost == 5.0  # Rb + Dx
        assert result.success_arc.name == "Dx"


class TestSkippedSubtrees:
    def test_unreached_arcs_cost_nothing(self):
        graph = g_b()
        # Block Rgs's subtree by failing everything; strategy order puts
        # the S subtree after Da.
        context = Context(graph, {
            "Da": True, "Db": False, "Dc": False, "Dd": False,
        })
        result = execute(theta_abcd(graph), context)
        assert result.cost == 2.0  # Rga + Da only
        assert set(result.observations) == {"Da"}

    def test_interleaved_strategy_execution(self):
        graph = g_a()
        strategy = Strategy(graph, ["Rp", "Rg", "Dg", "Dp"])
        context = Context(graph, {"Dp": True, "Dg": False})
        result = execute(strategy, context)
        # Rp + Rg + Dg(fail) + Dp(success) = 4.
        assert result.cost == 4.0
        assert result.success_arc.name == "Dp"


class TestPessimisticCost:
    """Δ̃'s completion of a run's observations: unobserved retrievals
    blocked, unobserved blockable reductions traversable — the costs
    of executing against that completed context."""

    def test_pessimistic_completion_blocks_unseen_retrievals(self):
        graph = g_a()
        completed = Context(graph, {"Dp": True, "Dg": False})
        for strategy in (theta_1(graph), theta_2(graph)):
            assert pessimistic_cost(strategy, {"Dp": True}) \
                == cost_of(strategy, completed)
        assert pessimistic_cost(theta_2(graph), {"Dp": True}) == 4.0

    def test_pessimistic_completion_opens_unseen_reductions(self):
        builder = GraphBuilder("r")
        builder.reduction("Rb", "r", "x", blockable=True)
        builder.retrieval("Dx", "x")
        builder.reduction("Rn", "r", "y")
        builder.retrieval("Dy", "y")
        graph = builder.build()
        strategy = Strategy.depth_first(graph)
        completed = Context(graph, {"Rb": True, "Dx": False, "Dy": False})
        # Rb open (1), Dx blocked (1), then Rn (1) and Dy blocked (1).
        assert pessimistic_cost(strategy, {}) == 4.0
        assert pessimistic_cost(strategy, {}) == cost_of(strategy, completed)
