"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from repro.system import SelfOptimizingQueryProcessor
from workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Metrics that are a pure function of the seed, never of the host.
DETERMINISTIC = (
    "cost_per_request",
    "vlatency_p50",
    "vlatency_p99",
    "ok_share",
    "serving.answer_cache.hit_ratio",
    "serving.subgoal_memo.hit_ratio",
    "serving.queue_peak",
    "serving.shed",
    "learning.eq6_tests",
    "learning.climbs",
    "strategies.execute.calls",
    "datalog.engine.prove.calls",
    "storage.probe.calls",
    "storage.probe.success_ratio",
    "storage.write.calls",
)


def _bench(capsys, workload: str, trace: int, seed: int = 5):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.05", "--trace", str(trace)], sizes=TINY)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, result = _bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert result["metrics"]["ok_share"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_deterministic_metrics(capsys, workload):
    first, second = ({}, {})
    for values in (first, second):
        for trace in (0, 1):
            _code, result = _bench(capsys, workload, trace, seed=11)
            values.update({name: metric["value"]
                           for name, metric in result["metrics"].items()})
    for name in DETERMINISTIC:
        assert first[name] == second[name], name


def test_each_layer_is_bypassed_where_predicted(capsys):
    layers = {workload: _bench(capsys, workload, 1)[1]["metrics"]
              for workload in WORKLOADS}
    plain = {workload: _bench(capsys, workload, 0)[1]["metrics"]
             for workload in ("learn-read", "learn-write")}
    for workload in ("learn-read", "learn-write"):
        assert layers[workload]["datalog.engine.prove.calls"]["value"] == 0
        assert layers[workload]["strategies.execute.calls"]["value"] > 0
    assert layers["recursive-sld"]["strategies.execute.calls"]["value"] == 0
    assert layers["recursive-sld"]["datalog.engine.prove.calls"]["value"] > 0
    assert layers["learn-read"]["storage.write.calls"]["value"] == 0
    assert layers["learn-write"]["storage.write.calls"]["value"] > 0
    hit = "serving.answer_cache.hit_ratio"
    assert layers["learn-write"][hit]["value"] < layers["learn-read"][hit]["value"]
    cost = "cost_per_request"
    assert plain["learn-write"][cost]["value"] > plain["learn-read"][cost]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_answers_fail_the_run(capsys, monkeypatch, workload):
    original = SelfOptimizingQueryProcessor.query

    def wrong_query(self, query, database):
        answer = original(self, query, database)
        return replace(answer, proved=not answer.proved)

    monkeypatch.setattr(SelfOptimizingQueryProcessor, "query", wrong_query)
    code, result = _bench(capsys, workload, 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
