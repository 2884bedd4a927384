#!/usr/bin/env python3
"""Batch serving with sessions and the two-tier cache: a quickstart.

:func:`repro.open_session` wraps the self-optimizing processor in a
:class:`~repro.serving.server.QueryServer`: batches are sharded by
query form across a worker pool (each form's PIB learner stays
strictly serial, so the paper's Equation 6 semantics survive
parallelism), and a two-tier cache — ground answers plus QSQN-style
subgoal memos — fronts the whole thing.  The demo shows the three
promises:

1. **Batches parallelise across forms, answers stay aligned** with
   the submitted order.
2. **Warm repeats are free.**  The second pass of the same batch is
   answered from the ground-answer cache at zero cost, without
   feeding the learner a single duplicate PIB sample.
3. **A write invalidates only what read it.**  Every cached answer is
   keyed on the store's version of the query's read set.  Adding
   ``dean(lena)`` moves the version of the one index bucket
   ``senior(lena)`` probes, so only that query recomputes (and flips
   to proved); every other answer stays cached.

Run:  python examples/serving_batch.py
"""

from repro import CacheConfig, ServingConfig, SessionConfig, open_session
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program

RULES = """
@Rp instructor(X) :- prof(X).
@Rg instructor(X) :- grad(X).
@Sp senior(X) :- prof(X).
@Sd senior(X) :- dean(X).
"""

FACTS = "prof(russ). grad(manolis). grad(lena). dean(ullman)."


def batch():
    # Interleave the two forms; repeats inside the batch warm the cache.
    people = ["russ", "manolis", "lena", "ullman"]
    queries = []
    for index in range(8):
        queries.append(f"instructor({people[index % 4]})")
        queries.append(f"senior({people[index % 3]})")
    return queries


def describe(label, answers):
    cached = sum(answer.cached for answer in answers)
    cost = sum(answer.cost for answer in answers)
    print(f"  {label}: {len(answers)} answers, "
          f"{cached} cached, total cost {cost:.1f}")


def main() -> None:
    database = Database.from_program(FACTS)
    with open_session(
        parse_program(RULES),
        database,
        config=SessionConfig(delta=0.1),
        cache=CacheConfig.default_enabled(),
        serving=ServingConfig(workers=4),
    ) as session:
        print("=== 1. one batch, four workers ===")
        answers = session.query_batch(batch())
        describe("cold pass", answers)

        print("\n=== 2. warm repeat ===")
        describe("warm pass", session.query_batch(batch()))
        snapshot = session.server.snapshot()
        tier = snapshot["answer_cache"]
        print(f"  answer cache: hits={tier['hits']} "
              f"misses={tier['misses']} "
              f"(hit rate {tier['hit_rate']:.0%})")

        print("\n=== 3. a write invalidates only what read it ===")
        before = dict(zip(batch(), answers))
        database.add(parse_atom("dean(lena)"))
        after = session.query_batch(batch())
        describe("after add dean(lena)", after)
        for query, answer in zip(batch(), after):
            if not answer.cached:
                print(f"  recomputed {query}: proved "
                      f"{before[query].proved} -> {answer.proved}")

        print("\nper-form report:")
        for form, stats in session.processor.report().items():
            print(f"  {form}: climbs={stats['climbs']} "
                  f"queries={stats['queries']}")


if __name__ == "__main__":
    main()
