"""Command-line interface: a thin adapter over the session layer.

Seven subcommands::

    python -m repro query  --rules kb.dl --facts db.dl "instructor(manolis)?"
    python -m repro learn  --rules kb.dl --facts db.dl --queries stream.txt
    python -m repro trace  --rules kb.dl --facts db.dl --queries stream.txt \
                           --out trace.jsonl
    python -m repro serve  --rules kb.dl --facts db.dl --queries batch.txt \
                           --workers 4 --cache
    python -m repro stats  trace.jsonl
    python -m repro optimal --rules kb.dl --form instructor/b \
                            --probs D_prof=0.15,D_grad=0.6
    python -m repro verify --seeds 50 --profile pib

* ``query`` answers one query and prints the bindings, the charged
  cost, and the attempted retrievals; ``--engine`` picks the
  evaluation strategy (``topdown`` SLD, ``bottomup`` semi-naive, or
  ``qsqn`` query-subquery nets);
* ``learn`` replays a query stream (one query per line) through the
  self-optimizing processor and prints the per-form learning report;
* ``trace`` is ``learn`` with the observability layer enabled: it
  exports the full JSONL event trace (spans, attempts, retries,
  breaker transitions, Equation 6 margins, climbs) and prints the
  metrics snapshot;
* ``serve`` answers a batch of queries through the serving layer:
  work sharded by query form across ``--workers`` threads, fronted by
  the two-tier cache (``--cache`` or explicit capacities), with the
  cache hit/miss counters printed at the end;
* ``stats`` summarizes a previously exported JSONL trace — event
  volumes, billed vs settled cost, retries, climbs, breaker opens,
  cache traffic;
* ``optimal`` compiles a query form's inference graph and prints
  ``Υ_AOT``'s optimal strategy for a given probability vector;
* ``verify`` runs the deterministic-simulation / differential-oracle
  battery (:mod:`repro.verify`) over seeded random worlds, per profile
  of :data:`repro.verify.runner.PROFILES` or ``all``;
  ``--replay world.json`` re-checks one saved
  :class:`~repro.verify.worldgen.WorldSpec`, ``--artifacts DIR``
  saves failing specs for replay, and ``--coverage`` runs the test
  suite under ``coverage`` with the repo's fail-under floor.

All file formats are plain Datalog (the ``--facts`` file holds ground
facts only); traces are JSON Lines.

Every flag family (session, cache, admission, store, experience) is a
declarative :class:`~repro.cliflags.FlagAdapter`: the flags and the
namespace→typed-config fold live together in :mod:`repro.cliflags`,
every subcommand builds its configs the same way, and everything runs
through :func:`repro.open_session` — the CLI owns no replay or policy
logic of its own.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from .cliflags import (
    ADMISSION_FLAGS,
    CACHE_FLAGS,
    EXPERIENCE_FLAGS,
    SESSION_FLAGS,
    STORE_FLAGS,
    _LazyChoices,
)
from .datalog.database import Database
from .datalog.parser import parse_program, parse_query, strip_comment
from .datalog.rules import QueryForm
from .graphs.builder import build_inference_graph
from .errors import ReproError
from .observability import (
    LATENCY_BUCKETS,
    Histogram,
    Tracer,
    read_trace,
    summarize_trace,
)
from .optimal.upsilon import upsilon_aot
from .serving import ServingConfig, open_session
from .serving.admission import coerce_requests
from .strategies.engines import ENGINE_NAMES, make_engine

__all__ = ["main", "build_parser"]


def _load_rules(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_program(handle.read())


def _load_facts(path: str) -> Database:
    with open(path, encoding="utf-8") as handle:
        return Database.from_program(handle.read())


def _parse_probs(spec: str) -> Dict[str, float]:
    probs: Dict[str, float] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"bad probability entry {item!r}; use arc=p")
        probs[name.strip()] = float(value)
    return probs


def _parse_form(spec: str) -> QueryForm:
    predicate, _, pattern = spec.partition("/")
    if not pattern:
        raise ValueError(f"bad form {spec!r}; use predicate/pattern, e.g. p/bf")
    return QueryForm(predicate, pattern)


def cmd_query(args: argparse.Namespace, out) -> int:
    rules = _load_rules(args.rules)
    facts = _load_facts(args.facts)
    engine = make_engine(args.engine, rules, max_depth=args.max_depth)
    query = parse_query(args.query)
    answer = engine.prove(query, facts)
    print("yes" if answer.proved else "no", file=out)
    if answer.proved and len(answer.substitution):
        for variable in sorted(answer.substitution, key=lambda v: v.name):
            print(f"  {variable} = {answer.substitution[variable]}", file=out)
    print(f"cost: {answer.trace.cost:g}", file=out)
    if answer.trace.truncations:
        print(f"truncated: the depth bound cut {answer.trace.truncations} "
              f"branches, so the answer may be incomplete", file=out)
    if args.trace:
        for event in answer.trace.retrievals:
            status = "hit" if event.succeeded else "miss"
            print(f"  retrieval {event.goal}: {status}", file=out)
    return 0 if answer.proved else 1


def _echo_progress(args: argparse.Namespace, out):
    """The ``on_answer`` callback echoing climbs and degradations."""

    def on_answer(count, text, answer):
        if args.quiet:
            return
        if answer.degraded:
            print(f"[degraded query #{count}: {answer.incident}]", file=out)
        if answer.climbed:
            print(f"[climb after query #{count}: {text}]", file=out)

    return on_answer


def _print_stream_summary(report, out) -> None:
    print(f"processed {report.queries} queries, mean cost "
          f"{report.mean_cost:.3f}", file=out)
    if report.degraded:
        print(f"degraded (fallback) answers: {report.degraded}", file=out)


def _print_form_report(summary, out) -> None:
    for form, info in sorted(summary.items()):
        print(f"form {form}:", file=out)
        for key, value in info.items():
            print(f"  {key}: {value}", file=out)


def cmd_learn(args: argparse.Namespace, out) -> int:
    with open_session(
        args.rules, args.facts, config=SESSION_FLAGS.build(args)
    ) as session:
        report = session.learn_from_stream(
            args.queries, on_answer=_echo_progress(args, out)
        )
        if report.queries == 0:
            print("no queries in the stream", file=out)
            return 1
        _print_stream_summary(report, out)
        _print_form_report(session.processor.report(), out)
    return 0


def cmd_trace(args: argparse.Namespace, out) -> int:
    tracer = Tracer(margin_events=not args.no_margins)
    with open_session(
        args.rules, args.facts,
        config=SESSION_FLAGS.build(args), recorder=tracer,
    ) as session:
        report = session.learn_from_stream(
            args.queries, on_answer=_echo_progress(args, out)
        )
        if report.queries == 0:
            print("no queries in the stream", file=out)
            return 1
        written = tracer.export_jsonl(args.out)
        _print_stream_summary(report, out)
        print(f"wrote {written} events to {args.out}", file=out)
        metrics = tracer.metrics.snapshot()
        print("counters:", file=out)
        for name, value in metrics["counters"].items():
            print(f"  {name}: {value}", file=out)
        print("histograms:", file=out)
        for name, stats in metrics["histograms"].items():
            print(f"  {name}: count={stats['count']} "
                  f"total={stats['total']:g} mean={stats['mean']:g}",
                  file=out)
    return 0


def _load_query_lines(path: str) -> List[str]:
    """The stream format (one query per line, ``%`` comments) as a list."""
    queries: List[str] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = strip_comment(line).strip()
            if text:
                queries.append(text)
    return queries


def cmd_serve(args: argparse.Namespace, out) -> int:
    queries = _load_query_lines(args.queries)
    if not queries:
        print("no queries in the stream", file=out)
        return 1
    admission = ADMISSION_FLAGS.build(args)
    store = STORE_FLAGS.build(args).open(args.facts)
    with open_session(
        args.rules, store,
        config=SESSION_FLAGS.build(args),
        cache=CACHE_FLAGS.build(args),
        serving=ServingConfig(workers=args.workers, admission=admission),
    ) as session:
        for pass_number in range(1, args.repeat + 1):
            if admission is not None:
                parsed = [parse_query(text) for text in queries]
                requests = coerce_requests(parsed, tenants=args.tenants)
                outcomes = session.run_requests(requests)
                served = [o for o in outcomes if o.served]
                answers = [o.answer for o in served]
                line = (f"pass {pass_number}: {len(outcomes)} requests, "
                        f"served {len(served)}, "
                        f"rejected {sum(o.rejected for o in outcomes)}, "
                        f"degraded {sum(o.degraded for o in outcomes)}")
                partial = sum(
                    1 for o in outcomes
                    if o.answer is not None and o.answer.completeness.partial
                )
                if partial:
                    line += f", partial {partial}"
                if answers:
                    total_cost = sum(answer.cost for answer in answers)
                    line += f", mean cost {total_cost / len(answers):.3f}"
                print(line, file=out)
                continue
            answers = session.query_batch(queries)
            total_cost = sum(answer.cost for answer in answers)
            cached = sum(1 for answer in answers if answer.cached)
            degraded = sum(1 for answer in answers if answer.degraded)
            partial = sum(
                1 for answer in answers if answer.completeness.partial
            )
            line = (f"pass {pass_number}: {len(answers)} queries, "
                    f"mean cost {total_cost / len(answers):.3f}, "
                    f"cached {cached}")
            if degraded:
                line += f", degraded {degraded}"
            if partial:
                line += f", partial {partial}"
            print(line, file=out)
        snapshot = session.server.snapshot()
        print(f"workers: {snapshot['workers']}", file=out)
        print(f"forms: {snapshot['forms']}", file=out)
        if hasattr(store, "shard_names"):
            fed = store.summary()
            print(f"federation: shards={fed['shards']} "
                  f"probes={fed['probes']} dark={fed['dark_probes']} "
                  f"hedged={fed['hedged_reads']} "
                  f"billed={fed['billed_cost']:g}", file=out)
        for tier in ("answer_cache", "subgoal_memo"):
            stats = snapshot.get(tier)
            if stats is None:
                continue
            print(f"{tier.replace('_', ' ')}: hits={stats['hits']} "
                  f"misses={stats['misses']} "
                  f"evictions={stats['evictions']} "
                  f"(hit rate {stats['hit_rate']:.1%})", file=out)
        if session.processor.experience_store is not None:
            session.contribute_experience()
            exp = session.processor.report()["experience"]
            print(f"experience: records={exp['records']} "
                  f"warmstarts={exp['warmstarts']} "
                  f"writes={exp['writes']}"
                  + (" (recovered from corrupt store)"
                     if exp["recovered"] else ""), file=out)
        if admission is not None:
            info = snapshot["admission"]
            print(f"health: {info['health']['state']}", file=out)
            shed = info["shedder"]["shed"]
            shed_text = " ".join(f"{name}={count}"
                                 for name, count in shed.items()) or "none"
            print(f"shed ({info['shedder']['policy']}): {shed_text}",
                  file=out)
            latency = Histogram("request_latency", buckets=LATENCY_BUCKETS)
            for outcome in outcomes:
                if outcome.served:
                    latency.observe(outcome.latency)
            if latency.count:
                print("latency (cost units): "
                      f"p50={latency.quantile(0.5):.1f} "
                      f"p95={latency.quantile(0.95):.1f} "
                      f"p99={latency.quantile(0.99):.1f} "
                      f"max={latency.max:.1f}", file=out)
        _print_form_report(session.processor.report(), out)
    return 0


def cmd_stats(args: argparse.Namespace, out) -> int:
    summary = summarize_trace(read_trace(args.trace))
    print(f"trace: {args.trace}", file=out)
    print(f"events: {summary['events']}", file=out)
    for type_, count in summary["event_counts"].items():
        print(f"  {type_}: {count}", file=out)
    print(f"queries: {summary['queries']} "
          f"(succeeded {summary['succeeded']}, "
          f"degraded {summary['degraded']})", file=out)
    print(f"billed cost: {summary['billed_cost']:g}", file=out)
    print(f"settled cost: {summary['settled_cost']:g}", file=out)
    print(f"backoff cost: {summary['backoff_cost']:g}", file=out)
    print(f"retries: {summary['retries']}", file=out)
    print(f"breaker opens: {summary['breaker_opens']}", file=out)
    for name, tier in summary.get("caches", {}).items():
        print(f"cache {name}: hits={tier['hits']} "
              f"misses={tier['misses']} evictions={tier['evictions']}",
              file=out)
    print(f"climbs: {summary['climbs']}", file=out)
    for climb in summary["climb_steps"]:
        print(f"  step {climb['step']} after context "
              f"{climb['context_number']}: {climb['transformation']} "
              f"(|S|={climb['samples']})", file=out)
    admission = summary.get("admission")
    if admission:
        print(f"admission: served={admission['served']} "
              f"rejected={admission['rejected']} "
              f"degraded={admission['degraded']}", file=out)
        for reason, count in admission["shed_reasons"].items():
            print(f"  shed {reason}: {count}", file=out)
        latency = admission.get("latency")
        if latency:
            print(f"  latency: p50={latency['p50']:.1f} "
                  f"p95={latency['p95']:.1f} p99={latency['p99']:.1f} "
                  f"max={latency['max']:.1f}", file=out)
        for edge in admission["health_transitions"]:
            print(f"  health {edge}", file=out)
    print(f"drift alarms: {summary['drift_alarms']}", file=out)
    print(f"epoch resets: {summary['epoch_resets']}", file=out)
    print(f"rollbacks: {summary['rollbacks']}", file=out)
    for rollback in summary["rollback_steps"]:
        print(f"  epoch {rollback['epoch']} after context "
              f"{rollback['context_number']}: rolled back to "
              f"{' '.join(rollback['to'] or [])}", file=out)
    experience = summary.get("experience")
    if experience:
        print(f"experience: warmstarts={experience['warmstart_hits']} "
              f"(exact {experience['exact_hits']}, mean distance "
              f"{experience['mean_distance']:.3f}) "
              f"writes={experience['writes']}", file=out)
    return 0


def cmd_optimal(args: argparse.Namespace, out) -> int:
    rules = _load_rules(args.rules)
    form = _parse_form(args.form)
    graph = build_inference_graph(rules, form, max_depth=args.max_depth)
    probs = _parse_probs(args.probs)
    known = {arc.name for arc in graph.experiments()}
    missing = known - set(probs)
    if missing:
        print(f"missing probabilities for: {', '.join(sorted(missing))}",
              file=out)
        print(f"(the graph's experiments are: {', '.join(sorted(known))})",
              file=out)
        return 2
    strategy = upsilon_aot(graph, probs)
    print("graph:", file=out)
    print(graph.pretty(), file=out)
    print(f"optimal strategy: {' '.join(strategy.arc_names())}", file=out)
    from .strategies.expected_cost import expected_cost_exact

    print(f"expected cost: {expected_cost_exact(strategy, probs):.4g}",
          file=out)
    return 0


def _run_coverage(out) -> int:
    """Run the test suite under ``coverage`` with the repo's floor.

    Gated on ``coverage`` being importable — the package is a CI-only
    dependency, so locally this degrades to a clear message instead of
    an ImportError.
    """
    import importlib.util
    import subprocess

    from .verify.runner import COVERAGE_FLOOR

    if importlib.util.find_spec("coverage") is None:
        print(
            "error: the 'coverage' package is not installed; it is a "
            "CI-only dependency (pip install coverage) — see README "
            "'Coverage gating'",
            file=out,
        )
        return 2
    run = subprocess.run(
        [sys.executable, "-m", "coverage", "run", "--source=src/repro",
         "-m", "pytest", "-q"],
    )
    if run.returncode != 0:
        print("error: test suite failed under coverage", file=out)
        return run.returncode
    report = subprocess.run(
        [sys.executable, "-m", "coverage", "report",
         f"--fail-under={COVERAGE_FLOOR}"],
    )
    if report.returncode != 0:
        print(f"error: coverage fell below the {COVERAGE_FLOOR}% floor",
              file=out)
    return report.returncode


def cmd_verify(args: argparse.Namespace, out) -> int:
    from .verify.runner import PROFILES, replay_spec, run_verify
    from .verify.worldgen import WorldSpec

    if args.coverage:
        return _run_coverage(out)
    if args.replay is not None:
        spec = WorldSpec.load(args.replay)
        print(f"replaying {args.replay} (profile {spec.profile}, "
              f"seed {spec.seed})", file=out)
        return replay_spec(spec, out=out)
    chosen = args.profile or ["all"]
    profiles = (
        list(PROFILES) if "all" in chosen
        else list(dict.fromkeys(chosen))
    )
    return run_verify(
        profiles,
        seeds=args.seeds,
        base_seed=args.base_seed,
        artifact_dir=args.artifacts,
        out=out,
        shrink_failures=not args.no_shrink,
        experience=EXPERIENCE_FLAGS.build(args),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learning efficient query processing strategies "
                    "(Greiner, PODS '92).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="answer one query")
    query.add_argument("--rules", required=True, help="Datalog rule file")
    query.add_argument("--facts", required=True, help="Datalog fact file")
    query.add_argument("--engine", default="topdown", choices=ENGINE_NAMES,
                       help="evaluation strategy (default: top-down SLD)")
    query.add_argument("--max-depth", type=int, default=64)
    query.add_argument("--trace", action="store_true",
                       help="print attempted retrievals")
    query.add_argument("query", help='e.g. "instructor(manolis)?"')
    query.set_defaults(handler=cmd_query)

    def add_learning_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--rules", required=True)
        command.add_argument("--facts", required=True)
        command.add_argument("--queries", required=True,
                             help="file with one query per line "
                                  "(%% comments)")
        command.add_argument("--quiet", action="store_true")
        SESSION_FLAGS.install(command)
        EXPERIENCE_FLAGS.install(command)

    learn = sub.add_parser(
        "learn", help="replay a query stream through the learning processor"
    )
    add_learning_flags(learn)
    learn.set_defaults(handler=cmd_learn)

    trace = sub.add_parser(
        "trace",
        help="replay a query stream with tracing on and export the "
             "JSONL event trace",
    )
    add_learning_flags(trace)
    trace.add_argument("--out", required=True,
                       help="path for the JSONL trace export")
    trace.add_argument("--no-margins", action="store_true",
                       help="drop per-test Equation 6 margin events "
                            "(keeps spans, attempts, and climbs)")
    trace.set_defaults(handler=cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="answer a query batch through the serving layer "
             "(form-sharded workers + two-tier cache)",
    )
    add_learning_flags(serve)
    serve.add_argument("--workers", type=int, default=1,
                       help="worker threads; batches shard by query form")
    serve.add_argument("--repeat", type=int, default=1,
                       help="run the batch N times (warms the caches)")
    CACHE_FLAGS.install(serve)
    ADMISSION_FLAGS.install(serve)
    STORE_FLAGS.install(serve)
    serve.set_defaults(handler=cmd_serve)

    stats = sub.add_parser(
        "stats", help="summarize a JSONL trace exported by 'trace'"
    )
    stats.add_argument("trace", help="path of the JSONL trace file")
    stats.set_defaults(handler=cmd_stats)

    optimal = sub.add_parser(
        "optimal", help="print Υ_AOT's optimal strategy for a query form"
    )
    optimal.add_argument("--rules", required=True)
    optimal.add_argument("--form", required=True,
                         help="query form, e.g. instructor/b")
    optimal.add_argument("--probs", required=True,
                         help="arc=p comma list, e.g. D_prof=0.15,D_grad=0.6")
    optimal.add_argument("--max-depth", type=int, default=None)
    optimal.set_defaults(handler=cmd_optimal)

    verify = sub.add_parser(
        "verify",
        help="run the deterministic-simulation / differential-oracle "
             "battery over seeded random worlds",
    )
    verify.add_argument("--seeds", type=int, default=20,
                        help="worlds per profile (seeds 0..N-1)")
    verify.add_argument("--base-seed", type=int, default=0,
                        help="first seed of the family")
    verify.add_argument("--profile", action="append", metavar="PROFILE",
                        choices=_LazyChoices("repro.verify.runner",
                                             "PROFILES", "all"),
                        default=None,
                        help="profile to run: %(choices)s (repeatable; "
                             "default all)")
    EXPERIENCE_FLAGS.install(verify)
    verify.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write failing WorldSpecs as JSON here "
                             "for --replay")
    verify.add_argument("--replay", default=None, metavar="WORLD_JSON",
                        help="re-run every check of one saved WorldSpec")
    verify.add_argument("--no-shrink", action="store_true",
                        help="report failing specs unshrunk")
    verify.add_argument("--coverage", action="store_true",
                        help="run the test suite under coverage with the "
                             "repo's fail-under floor (CI-only dependency)")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        for adapter in (SESSION_FLAGS, EXPERIENCE_FLAGS):
            adapter.check(args)
        return args.handler(args, out)
    except (OSError, ValueError, ReproError) as error:
        print(f"error: {error}", file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
