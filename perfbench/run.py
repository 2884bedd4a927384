"""The repository benchmark: one closed-loop client against a query session.

Usage (from the repository root)::

    python3 perfbench/run.py --workload learn-read --seed 1 --seconds 10 --trace 0

One client thread drives the public session API (``open_session`` →
``QuerySession.run_requests``) in fixed-size bursts, sending the next
burst only after every outcome of the previous one has returned.  A
run is a sequence of identical *episodes*: parse the generated rule
and fact text, load the store, open the session (the timed set-up),
then serve the workload's whole request stream.  Episodes repeat until
``--seconds`` of serving time have been measured.

Every outcome is checked against a reference computed outside the
timed region; a wrong answer marks the run incorrect and the command
exits non-zero.

``--trace 0`` prints the end-to-end metrics of an untraced run: set-up
time, the paper's virtual cost and latency, correctness and memory.
``--trace 1`` serves episodes untraced and then the same episodes traced,
and prints the per-layer metrics (see ``tracing.py``), the tracing
overhead, and the session's wall throughput and burst latency from the
untraced half.  Wall throughput and latency are per-layer metrics, not
bounded end-to-end ones, because on a shared host they move with the
host's speed by more than any bound would allow; ``--trace 0`` also
prints them on the line before the result.  The last line of standard
output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

# The benchmark measures the program in its own checkout, never an
# installed copy: without the sources next to it, it refuses to run.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program sources at {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro.datalog.parser  # noqa: E402
from repro import open_session  # noqa: E402
from repro.datalog.database import Database  # noqa: E402
from repro.datalog.parser import parse_atom  # noqa: E402
from tracing import SpanLog, instrument_module_layers, instrument_session  # noqa: E402
from workloads import FULL, WORKLOADS, Sizes, Workload, make_workload  # noqa: E402

#: Set-ups timed per run: one per episode, plus extra sessions opened
#: and discarded until there are at least ``MIN_SETUPS`` of them and
#: they add up to ``SETUP_SHARE`` of the serving time.  ``setup_s`` is
#: their median, so a cheap set-up is sampled often enough to be steady.
MIN_SETUPS = 5
SETUP_SHARE = 0.05


def _percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def host_facts() -> Dict[str, object]:
    """What lets wall numbers from two hosts be compared."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value * value
        samples.append(perf_counter() - start)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "calibration_s": min(samples),
        "calibration_loop": "for i in range(10**6): total += i * i; best of 3",
    }


class Episode:
    """One fresh session answering the workload's whole stream."""

    def __init__(self, workload: Workload):
        self.workload = workload
        start = perf_counter()
        rules = repro.datalog.parser.parse_program(workload.rules)
        database = Database.from_program(workload.facts)
        self.session = open_session(
            rules,
            database,
            config=workload.config,
            cache=workload.cache,
            serving=workload.serving,
        )
        self.setup_s = perf_counter() - start

    def serve(self) -> Dict[str, object]:
        """Serve every burst; returns wall, outcome and cost tallies."""
        workload, session = self.workload, self.session
        reference, database = workload.reference, session.database
        reference.reset()
        burst_ms: List[float] = []
        vlatency: List[float] = []
        busy = cost = 0.0
        served = failed = 0
        for index, burst in enumerate(workload.bursts):
            write = workload.writes.get(index)
            start = perf_counter()
            if write is not None:
                op, fact = write
                getattr(database, op)(parse_atom(fact))
            sent = perf_counter()
            outcomes = session.run_requests(burst)
            done = perf_counter()
            busy += done - start
            burst_ms.append((done - sent) * 1e3)
            if write is not None:
                reference.apply(*write)
            for query, outcome in zip(burst, outcomes):
                answer = outcome.answer
                if (not outcome.served or answer.degraded
                        or not answer.completeness.complete
                        or not reference.check(query, answer)):
                    failed += 1
                    continue
                served += 1
                cost += answer.cost
                vlatency.append(outcome.latency)
        return {
            "busy_s": busy,
            "burst_ms": burst_ms,
            "vlatency": vlatency,
            "cost": cost,
            "served": served,
            "failed": failed,
            "offered": workload.requests,
        }


def _setup_once(workload: Workload) -> float:
    """Open and discard one session; returns its set-up time."""
    episode = Episode(workload)
    episode.session.close()
    return episode.setup_s


def _serve_once(workload: Workload, log: Optional[SpanLog]) -> Dict[str, object]:
    """One episode, whose session is dropped when this returns."""
    episode = Episode(workload)
    if log is not None:
        instrument_session(log, episode.session)
    result = episode.serve()
    result["setup_s"] = episode.setup_s
    result["snapshot"] = episode.session.server.snapshot()
    episode.session.close()
    return result


def _deterministic(result: Dict[str, object]) -> tuple:
    """What must repeat exactly in every episode of one run."""
    return (result["cost"], result["served"], result["failed"],
            tuple(result["vlatency"]))


class Run:
    """What a run keeps of its episodes.

    Only the first episode's result is kept whole.  Each later one is
    checked against it and folded into running totals as soon as it
    ends, so the harness holds one double per burst and per set-up,
    not every episode's per-request lists.
    """

    def __init__(self) -> None:
        self.first: Optional[Dict[str, object]] = None
        self.episodes = self.offered = self.failed = 0
        self.busy_s = 0.0
        self.repeatable = True
        self.setups: List[float] = []
        self.rates: List[float] = []
        self.burst_ms = array("d")

    def add(self, result: Dict[str, object]) -> None:
        if self.first is None:
            self.first = result
        elif _deterministic(result) != _deterministic(self.first):
            self.repeatable = False
        self.episodes += 1
        self.offered += result["offered"]
        self.failed += result["failed"]
        self.busy_s += result["busy_s"]
        self.setups.append(result["setup_s"])
        self.rates.append(result["served"] / result["busy_s"])
        self.burst_ms.extend(result["burst_ms"])

    def wall(self) -> Dict[str, tuple]:
        """Wall throughput and burst latency of the run's episodes."""
        return {
            "requests_per_s": (statistics.median(self.rates), "req/s"),
            "burst_p50_ms": (_percentile(self.burst_ms, 0.50), "ms"),
            "burst_p99_ms": (_percentile(self.burst_ms, 0.99), "ms"),
            "bursts": (len(self.burst_ms), "count"),
        }


def _run_episodes(workload: Workload, seconds: float,
                  episodes: Optional[int] = None, log: Optional[SpanLog] = None,
                  sample_setups: bool = False) -> Run:
    """Episodes until ``seconds`` of serving (or exactly ``episodes``).

    With ``sample_setups``, extra set-ups are taken between episodes
    until there are at least ``MIN_SETUPS`` of them and they add up to
    ``SETUP_SHARE`` of the serving time, so they sample the same
    stretch of the run as everything else.  Each session is collected
    before the next one is built, so the peak memory is that of one.
    """
    run = Run()
    while (run.episodes < episodes if episodes is not None
           else run.busy_s < seconds or not run.episodes):
        # Garbage from the previous session is collected here, not
        # while the next one is timed.
        gc.collect()
        run.add(_serve_once(workload, log))
        while sample_setups and (len(run.setups) < MIN_SETUPS
                                 or sum(run.setups) < SETUP_SHARE * run.busy_s):
            gc.collect()
            run.setups.append(_setup_once(workload))
    return run


def end_to_end(workload: Workload, seconds: float):
    run = _run_episodes(workload, seconds, sample_setups=True)
    first = run.first
    vlatency = first["vlatency"] or [0.0]
    metrics = {
        "setup_s": (statistics.median(run.setups), "s"),
        "cost_per_request": (first["cost"] / max(first["served"], 1), "cost"),
        "vlatency_p50": (_percentile(vlatency, 0.50), "cost"),
        "vlatency_p99": (_percentile(vlatency, 0.99), "cost"),
        "ok_share": ((run.offered - run.failed) / run.offered, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {"episodes": run.episodes, "setups": len(run.setups),
            "repeatable": run.repeatable,
            "wall": {name: {"value": value, "unit": unit}
                     for name, (value, unit) in run.wall().items()}}
    return metrics, run.offered, run.failed, run.repeatable, info


def per_layer(workload: Workload, seconds: float):
    plain = _run_episodes(workload, seconds / 2)
    log = SpanLog()
    with instrument_module_layers(log):
        traced = _run_episodes(workload, 0.0, episodes=plain.episodes, log=log)
    episodes = traced.episodes
    requests = workload.requests
    counts, totals = log.counts, log.totals()

    def per_episode(value: float) -> float:
        return value / episodes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    snapshot = traced.first["snapshot"]
    answer = snapshot.get("answer_cache", {})
    memo = snapshot.get("subgoal_memo", {})
    admission = snapshot.get("admission", {})
    queue_peak = max((queue["peak_depth"]
                      for queue in admission.get("queues", {}).values()),
                     default=0)
    executes = counts["strategies.execute.calls"]
    proves = counts["datalog.engine.prove.calls"]
    probes = counts["storage.probe.calls"]
    writes = counts["storage.write.calls"]
    self_s = {name: per_episode(entry["self_s"]) for name, entry in totals.items()}
    wall = plain.wall()
    metrics = {
        "session.requests_per_s": wall["requests_per_s"],
        "session.burst_p50_ms": wall["burst_p50_ms"],
        "session.burst_p99_ms": wall["burst_p99_ms"],
        "system.query.self_s": (self_s["system.query"], "s"),
        "serving.run_requests.self_s": (self_s["serving.run_requests"], "s"),
        "serving.queue_peak": (queue_peak, "count"),
        "serving.shed": (admission.get("rejected", 0)
                         + admission.get("degraded", 0), "count"),
        "serving.answer_cache.hit_ratio": (answer.get("hit_rate", 0.0), "ratio"),
        "serving.answer_cache.evictions": (answer.get("evictions", 0), "count"),
        "serving.answer_cache.self_s": (self_s["serving.answer_cache"], "s"),
        "serving.subgoal_memo.hit_ratio": (memo.get("hit_rate", 0.0), "ratio"),
        "serving.subgoal_memo.self_s": (self_s["serving.subgoal_memo"], "s"),
        "strategies.execute.calls": (per_episode(executes), "count"),
        "strategies.execute.self_s": (self_s["strategies.execute"], "s"),
        "strategies.execute.arcs_per_call": (
            ratio(counts["strategies.execute.arcs"], executes), "count"),
        "strategies.execute.retrievals_per_call": (
            ratio(counts["strategies.execute.retrievals"], executes), "count"),
        "learning.record.calls": (
            per_episode(counts["learning.record.calls"]), "count"),
        "learning.record.self_s": (self_s["learning.record"], "s"),
        "learning.eq6_tests": (per_episode(counts["learning.eq6_tests"]), "count"),
        "learning.climbs": (per_episode(counts["learning.climbs"]), "count"),
        "graphs.build.calls": (per_episode(counts["graphs.build.calls"]), "count"),
        "graphs.build.s": (per_episode(totals["graphs.build"]["s"]), "s"),
        "datalog.parse.s": (per_episode(totals["datalog.parse"]["s"]), "s"),
        "datalog.engine.prove.calls": (per_episode(proves), "count"),
        "datalog.engine.prove.self_s": (self_s["datalog.engine.prove"], "s"),
        "datalog.engine.prove.reductions_per_call": (
            ratio(counts["datalog.engine.prove.reductions"], proves), "count"),
        "datalog.engine.prove.retrievals_per_call": (
            ratio(counts["datalog.engine.prove.retrievals"], proves), "count"),
        "storage.probe.calls": (per_episode(probes), "count"),
        "storage.probe.self_s": (self_s["storage.probe"], "s"),
        "storage.probe.per_request": (ratio(probes, episodes * requests), "count"),
        "storage.probe.success_ratio": (
            ratio(counts["storage.probe.successes"], probes), "ratio"),
        "storage.write.calls": (per_episode(writes), "count"),
        "storage.write.self_s": (self_s["storage.write"], "s"),
        "trace.overhead": (traced.busy_s / plain.busy_s, "ratio"),
    }
    offered = plain.offered + traced.offered
    failed = plain.failed + traced.failed
    repeatable = (plain.repeatable and traced.repeatable
                  and _deterministic(traced.first) == _deterministic(plain.first))
    info = {"episodes": episodes, "spans": len(log), "repeatable": repeatable}
    return metrics, offered, failed, repeatable, info


def main(argv: Optional[Sequence[str]] = None, sizes: Sizes = FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = make_workload(args.workload, args.seed, sizes)
    measure = per_layer if args.trace else end_to_end
    metrics, offered, failed, repeatable, info = measure(workload, args.seconds)
    print(json.dumps({
        "host": host_facts(),
        "workload": args.workload,
        "seed": args.seed,
        "requests_per_episode": workload.requests,
        **info,
    }))
    correct = failed == 0 and repeatable
    print(json.dumps({
        "correct": correct,
        "attempted": offered,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
