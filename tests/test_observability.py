"""Tests for the observability layer: metrics, the null recorder, the
tracer, JSONL export, and the zero-feedback (overhead) guarantee."""

import json
import random

import pytest

from repro.errors import ReproError
from repro.learning import PIB
from repro.observability import (
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_RECORDER,
    Recorder,
    Tracer,
    read_trace,
    summarize_trace,
    write_trace,
)
from repro.strategies import execute
from repro.workloads import (
    IndependentDistribution,
    g_a,
    intended_probabilities,
    theta_1,
)


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------

class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("queries_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_accumulates_summary_statistics(self):
        histogram = Histogram("billed_cost")
        for value in (2.0, 4.0, 6.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 12.0
        assert histogram.min == 2.0
        assert histogram.max == 6.0
        assert histogram.mean == 4.0

    def test_empty_histogram_snapshot(self):
        snapshot = Histogram("empty").snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean"] == 0.0


class TestMetricsRegistry:
    def test_lazy_creation_and_reuse(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_count_of_absent_counter_is_zero(self):
        assert MetricsRegistry().count("never_touched") == 0

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("zebra").inc()
        registry.counter("aardvark").inc(2)
        registry.histogram("cost").observe(3.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["aardvark", "zebra"]
        json.dumps(snapshot)  # must not raise


# ----------------------------------------------------------------------
# The null recorder
# ----------------------------------------------------------------------

class TestNullRecorder:
    def test_disabled_with_no_metrics(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.metrics is None
        assert NULL_RECORDER.snapshot() == {}

    def test_every_hook_is_a_no_op(self):
        recorder = Recorder()
        span = recorder.begin_query(None)
        assert span == 0
        recorder.end_query(span, cost=1.0, succeeded=True)
        recorder.arc_attempt(span, "a", "ok", 1.0)
        recorder.arc_retry(span, "a", 1, 0.5)
        recorder.arc_unsettled(span, "a", 3)
        recorder.breaker_shed(span, "a")
        recorder.breaker_transition("a", "closed", "open")
        recorder.deadline_expired(span, 9.0)
        recorder.learner_sample(1, 2.0, {"swap": 0.0})
        recorder.chernoff_margin("swap", 5, 1.0, 2.0)
        recorder.climb(None)
        recorder.checkpoint_saved("/tmp/x")
        recorder.checkpoint_restored("/tmp/x")
        recorder.pao_budget({"a": 10})
        recorder.pao_complete(10, {"a": 0.5})
        recorder.incident("nothing happened")


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_events_are_sequenced_in_order(self):
        tracer = Tracer()
        span = tracer.begin_query(theta_1(g_a()))
        tracer.arc_attempt(span, "Rp", "ok", 1.0)
        tracer.end_query(span, cost=1.0, succeeded=True)
        assert [e["seq"] for e in tracer.events] == [0, 1, 2]
        assert [e["type"] for e in tracer.events] == [
            "query_begin", "attempt", "query_end",
        ]
        assert tracer.events[0]["strategy"] == ["Rp", "Dp", "Rg", "Dg"]

    def test_metrics_fold_in(self):
        tracer = Tracer()
        span = tracer.begin_query(None)
        tracer.arc_attempt(span, "a", "fault", 2.0)
        tracer.arc_retry(span, "a", 1, 0.25)
        tracer.arc_attempt(span, "a", "ok", 2.0, attempt=2)
        tracer.end_query(span, cost=4.25, succeeded=True,
                         settled_cost=2.0, retries=1, backoff_cost=0.25)
        metrics = tracer.metrics
        assert metrics.count("queries_total") == 1
        assert metrics.count("attempts_total") == 2
        assert metrics.count("faults_total") == 1
        assert metrics.count("retries_total") == 1
        assert metrics.histogram("billed_cost").total == 4.25
        assert metrics.histogram("settled_cost").total == 2.0

    def test_margin_events_can_be_suppressed(self):
        quiet = Tracer(margin_events=False)
        quiet.chernoff_margin("swap", 5, 1.0, 2.0)
        assert quiet.events_of("margin") == []
        assert quiet.metrics.count("chernoff_tests_total") == 1
        loud = Tracer()
        loud.chernoff_margin("swap", 5, 1.0, 2.0)
        (event,) = loud.events_of("margin")
        assert event["margin"] == pytest.approx(-1.0)

    def test_clear_keeps_metrics(self):
        tracer = Tracer()
        tracer.begin_query(None)
        tracer.clear()
        assert tracer.events == []
        assert tracer.metrics.count("queries_total") == 1

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        span = tracer.begin_query(None)
        tracer.end_query(span, cost=3.0, succeeded=False)
        path = str(tmp_path / "trace.jsonl")
        written = tracer.export_jsonl(path)
        assert written == 2
        assert read_trace(path) == tracer.events

    def test_snapshot_reports_volume_and_metrics(self):
        tracer = Tracer()
        tracer.incident("x")
        snapshot = tracer.snapshot()
        assert snapshot["events"] == 1
        assert snapshot["metrics"]["counters"]["incidents_total"] == 1


class TestSink:
    def test_write_and_read(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        events = [{"seq": 0, "type": "incident", "description": "hi"}]
        assert write_trace(events, path) == 1
        assert read_trace(path) == events

    def test_read_rejects_garbage_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "ok"}\nnot json\n')
        with pytest.raises(ReproError) as info:
            read_trace(str(path))
        assert "2" in str(info.value)

    def test_read_rejects_untyped_events(self, tmp_path):
        path = tmp_path / "untyped.jsonl"
        path.write_text('{"seq": 0}\n')
        with pytest.raises(ReproError):
            read_trace(str(path))

    def test_summarize_reconciles_costs(self):
        events = [
            {"seq": 0, "type": "query_end", "span": 1, "cost": 5.0,
             "succeeded": True, "settled_cost": 4.0, "retries": 1,
             "backoff_cost": 0.5, "degraded": False},
            {"seq": 1, "type": "query_end", "span": 2, "cost": 2.0,
             "succeeded": False},
        ]
        summary = summarize_trace(events)
        assert summary["queries"] == 2
        assert summary["succeeded"] == 1
        assert summary["billed_cost"] == 7.0
        # the plain run's billed cost doubles as its settled cost
        assert summary["settled_cost"] == 6.0
        assert summary["backoff_cost"] == 0.5
        assert summary["retries"] == 1


# ----------------------------------------------------------------------
# Executor + learner integration
# ----------------------------------------------------------------------

class TestExecuteTracing:
    def test_attempt_costs_sum_to_span_cost(self):
        graph = g_a()
        tracer = Tracer()
        dist = IndependentDistribution(graph, intended_probabilities())
        rng = random.Random(11)
        for _ in range(50):
            execute(theta_1(graph), dist.sample(rng), recorder=tracer)
        ends = tracer.events_of("query_end")
        assert len(ends) == 50
        for end in ends:
            attempts = [
                e for e in tracer.events_of("attempt")
                if e["span"] == end["span"]
            ]
            assert sum(a["cost"] for a in attempts) == pytest.approx(
                end["cost"]
            )
        assert tracer.metrics.histogram("billed_cost").total == (
            pytest.approx(sum(e["cost"] for e in ends))
        )

    @pytest.mark.parametrize("required_successes", [1, 2])
    def test_plain_run_spans_carry_no_resilience_fields(
        self, required_successes
    ):
        graph = g_a()
        tracer = Tracer()
        dist = IndependentDistribution(graph, intended_probabilities())
        rng = random.Random(3)
        for _ in range(20):
            execute(theta_1(graph), dist.sample(rng), required_successes,
                    recorder=tracer)
        begins = tracer.events_of("query_begin")
        assert len(begins) == 20
        assert all(begin["resilient"] is False for begin in begins)
        attempts = tracer.events_of("attempt")
        assert attempts and all(a["attempt"] == 1 for a in attempts)
        settled_fields = {"settled_cost", "retries", "backoff_cost",
                          "degraded"}
        for end in tracer.events_of("query_end"):
            assert not settled_fields & set(end)


class TestPIBTracing:
    def run_learner(self, recorder, contexts=400):
        graph = g_a()
        dist = IndependentDistribution(graph, intended_probabilities())
        learner = PIB(graph, delta=0.05, initial_strategy=theta_1(graph),
                      recorder=recorder)
        learner.run(dist.sampler(random.Random(0)), contexts)
        return learner

    def test_learner_events_recorded(self):
        tracer = Tracer()
        learner = self.run_learner(tracer)
        samples = tracer.events_of("learner_sample")
        assert len(samples) == 400
        assert samples[0]["contexts"] == 1
        assert learner.climbs >= 1
        climbs = tracer.events_of("climb")
        assert len(climbs) == learner.climbs
        first = climbs[0]
        record = learner.history[0]
        assert first["transformation"] == record.transformation
        assert first["samples"] == record.samples
        assert tuple(first["to"]) == record.to_arcs
        # Equation 6 ran once per neighbour per context.
        assert tracer.metrics.count("chernoff_tests_total") == (
            learner.total_tests
        )

    def test_margin_events_match_threshold_semantics(self):
        tracer = Tracer()
        self.run_learner(tracer)
        for event in tracer.events_of("margin"):
            assert event["margin"] == pytest.approx(
                event["delta_sum"] - event["threshold"]
            )

    def test_tracing_never_changes_learning(self):
        """The zero-feedback guarantee: a traced run is byte-identical
        to an untraced one — same costs, same climbs, same strategy."""
        traced = self.run_learner(Tracer())
        plain = self.run_learner(NULL_RECORDER)
        assert traced.history == plain.history
        assert traced.strategy.arc_names() == plain.strategy.arc_names()
        assert traced.total_tests == plain.total_tests
        assert traced.contexts_processed == plain.contexts_processed


class TestSystemIntegration:
    def build(self, recorder=None):
        from repro.datalog.parser import parse_query
        from repro.system import SelfOptimizingQueryProcessor
        from repro.workloads import db1, university_rule_base

        processor = SelfOptimizingQueryProcessor(
            university_rule_base(), recorder=recorder
        )
        db = db1()
        answers = [
            processor.query(parse_query("instructor(manolis)"), db)
            for _ in range(20)
        ]
        return processor, answers

    def test_report_includes_metrics_snapshot(self):
        tracer = Tracer()
        processor, _ = self.build(recorder=tracer)
        report = processor.report()
        assert report["metrics"]["counters"]["queries_total"] == 20
        assert report["metrics"]["histograms"]["billed_cost"]["count"] == 20

    def test_report_without_recorder_has_no_metrics(self):
        processor, _ = self.build()
        assert "metrics" not in processor.report()

    def test_tracing_leaves_answers_identical(self):
        _, traced = self.build(recorder=Tracer())
        _, plain = self.build()
        assert [a.cost for a in traced] == [a.cost for a in plain]
        assert [a.proved for a in traced] == [a.proved for a in plain]
