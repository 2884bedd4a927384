"""One answer verdict: every source of an untrustworthy answer, one row.

A :class:`~repro.system.SystemAnswer` stores two trust facts —
``incident`` and ``completeness`` — and derives the rest: ``degraded``
is ``incident is not None`` and ``clean`` adds a complete view of the
fact base.  Each row below produces one untrustworthy answer through
a :class:`~repro.serving.server.QueryServer` with an answer cache and
checks where the verdict let it go: whether PIB learned from the run,
which answer-cache tier took it, and whether the processor's per-form
incident log names it.  Admission sheds never reach the processor
(learner isolation), so their incident lives on the answer alone.
"""

from dataclasses import replace

import pytest

import repro.system
from repro import (
    AdmissionConfig,
    CacheConfig,
    FederatedStore,
    Request,
    SelfOptimizingQueryProcessor,
    ServingConfig,
    SessionConfig,
)
from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.rules import QueryForm
from repro.errors import ResilienceError
from repro.learning.pib import PIB
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    FlakyDatabase,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.serving.server import QueryServer

RULES = """
@Rp instructor(X) :- prof(X).
@Rg instructor(X) :- grad(X).
"""
FACTS = "prof(russ). grad(manolis). grad(lena)."
PATH_RULES = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""
PATH_FACTS = "edge(a, b). edge(b, c)."


def make_server(rules=RULES, policy=None, admission=None):
    processor = SelfOptimizingQueryProcessor(
        parse_program(rules), config=SessionConfig(resilience=policy)
    )
    return QueryServer(
        processor,
        serving=ServingConfig(admission=admission),
        cache=CacheConfig(answer_capacity=8),
    )


def two_attempts(deadline=None):
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, base_backoff=1.0),
        deadline=deadline, seed=0,
    )


def flaky(relation, fail_first, facts=FACTS):
    plan = FaultPlan(
        seed=0, per_arc={relation: FaultSpec(fail_first=fail_first)}
    )
    return FlakyDatabase(Database.from_program(facts), plan)


# Each row returns ``(server, database, query, action)``; ``action()``
# produces the row's answer, everything before it is set-up.


def learned_path_raised(monkeypatch):
    def raising(*args, **kwargs):
        raise ResilienceError("injected")

    monkeypatch.setattr(repro.system, "execute", raising)
    server = make_server(policy=two_attempts())
    database = Database.from_program(FACTS)
    query = parse_query("instructor(russ)")
    return server, database, query, lambda: server.submit(query, database)


def deadline_expired(monkeypatch):
    server = make_server(policy=two_attempts(deadline=2.5))
    database = flaky("prof", 2)
    query = parse_query("instructor(russ)")
    return server, database, query, lambda: server.submit(query, database)


def degraded_no_answer(monkeypatch):
    # The learned path loses ``prof`` to two faults and reports "no";
    # the fallback's second attempt gets through and confirms it.
    server = make_server(policy=two_attempts())
    database = flaky("prof", 3)
    query = parse_query("instructor(ghost)")
    return server, database, query, lambda: server.submit(query, database)


def fallback_faulted(monkeypatch):
    server = make_server(policy=two_attempts())
    database = flaky("prof", 99)
    query = parse_query("instructor(ghost)")
    return server, database, query, lambda: server.submit(query, database)


def dark_grad_shard():
    """A federated store whose shard holding ``grad`` is always dark."""
    probe = FederatedStore(Database.from_program(FACTS), shards=2, seed=0)
    owner = probe.shard_for(("grad", 1)).name
    return FederatedStore(
        Database.from_program(FACTS), shards=2, seed=0,
        per_shard={owner: FaultSpec(fault_rate=1.0)},
    )


def dark_shard(monkeypatch):
    # No admission, so nothing could read a stale table: none is kept.
    database = dark_grad_shard()
    server = make_server()
    query = parse_query("instructor(lena)")
    return server, database, query, lambda: server.submit(query, database)


def dark_shard_degrade_to_cached(monkeypatch):
    # The same partial answer, served by a server that sheds to the
    # stale table, lands there (flagged partial) for a later shed.
    database = dark_grad_shard()
    server = make_server(admission=AdmissionConfig(
        queue_capacity=1, shed_policy="degrade-to-cached"
    ))
    query = parse_query("instructor(lena)")

    def serve():
        outcome = server.run_requests([Request(query)], database)[0]
        assert outcome.served
        return outcome.answer

    return server, database, query, serve


def degrade_to_cached(monkeypatch):
    server = make_server(admission=AdmissionConfig(
        queue_capacity=1, shed_policy="degrade-to-cached"
    ))
    database = Database.from_program(FACTS)
    query = parse_query("instructor(russ)")
    assert server.run_requests([Request(query)], database)[0].served
    server.drain()

    def salvage():
        outcome = server.run_requests([Request(query)], database)[0]
        assert outcome.degraded
        return outcome.answer

    return server, database, query, salvage


def run_batch_rejection(monkeypatch):
    server = make_server(admission=AdmissionConfig(queue_capacity=1))
    database = Database.from_program(FACTS)
    query = parse_query("instructor(russ)")
    server.drain()
    return server, database, query, \
        lambda: server.run_batch([query], database)[0]


def uncompilable_fallback_faulted(monkeypatch):
    server = make_server(rules=PATH_RULES, policy=two_attempts())
    database = flaky("edge", 99, facts=PATH_FACTS)
    query = parse_query("path(a, c)")
    return server, database, query, lambda: server.submit(query, database)


# (row, degraded, partial, PIB sampled, coherent tier, stale table,
#  the incident the form's report lists — None: none is listed)
ROWS = [
    (learned_path_raised, True, False, False, False, False,
     "learned path raised: injected"),
    (deadline_expired, True, False, False, False, False,
     "deadline expired after cost"),
    (degraded_no_answer, True, False, True, False, False,
     "degraded no-answer: unsettled="),
    (fallback_faulted, True, False, True, False, False,
     "fallback faulted 2x"),
    (dark_shard, False, True, False, False, False,
     "partial execution: partial (missing: "),
    (dark_shard_degrade_to_cached, False, True, False, False, True,
     "partial execution: partial (missing: "),
    (degrade_to_cached, True, False, False, False, False, None),
    (run_batch_rejection, True, False, False, False, False, None),
    (uncompilable_fallback_faulted, True, False, False, False, False,
     "fallback faulted 2x"),
]


@pytest.fixture
def samples(monkeypatch):
    """Every result PIB records, in order."""
    recorded = []
    record = PIB.record

    def counting(learner, result):
        recorded.append(result)
        return record(learner, result)

    monkeypatch.setattr(PIB, "record", counting)
    return recorded


@pytest.mark.parametrize(
    "row, degraded, partial, sampled, coherent, stale, logged",
    ROWS, ids=[row[0].__name__ for row in ROWS],
)
def test_verdict_table(monkeypatch, samples, row, degraded, partial,
                       sampled, coherent, stale, logged):
    server, database, query, action = row(monkeypatch)
    before = len(samples)
    answer = action()

    assert answer.degraded is degraded
    assert answer.degraded is (answer.incident is not None)
    assert answer.completeness.partial is partial
    assert not answer.clean
    assert (len(samples) > before) is sampled

    form = QueryForm.of(query)
    incidents = server.processor.report().get(str(form), {}).get(
        "incidents", []
    )
    if logged is None:
        assert incidents == []
    else:
        assert any(entry.startswith(logged) for entry in incidents)

    cache = server.answer_cache
    version = database.version(server.processor.read_plan(form).keys(query))
    served_form = replace(answer, cost=0.0, climbed=False, cached=True)
    assert (cache.lookup(query, database, version) == served_form) is coherent
    assert (cache.lookup_stale(query, database) == served_form) is stale
    if server.serving.admission is None:
        # Only the degrade-to-cached shed policy reads the stale table.
        assert len(cache._stale) == 0


def test_clean_answers_enter_the_coherent_tier(samples):
    """The control row: a clean answer is sampled and cached."""
    server = make_server(policy=two_attempts())
    database = Database.from_program(FACTS)
    query = parse_query("instructor(russ)")
    answer = server.submit(query, database)
    assert answer.clean and not answer.degraded
    assert len(samples) == 1
    assert server.submit(query, database).cached
    assert "incidents" not in server.processor.report()["instructor^(b)"]
