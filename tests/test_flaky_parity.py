"""Fault-accounting parity for :class:`FlakyDatabase`.

Two contracts, both load-bearing for the chaos profile's determinism:

* **Entry-point parity** — ``retrieve``, ``facts_matching`` and
  ``succeeds`` draw from the same predicate-keyed injection stream and
  bill identically: replaying the same pattern sequence through any of
  them produces the same injection sequence and the same cost billed
  through the probe window, the excess of each latency spike that
  did not fault.  (Before the shared ``_inject`` seam,
  ``facts_matching`` neither injected nor billed.)
* **Transparency with an empty plan** — a :class:`FlakyDatabase` with
  no configured faults is byte-identical to the plain
  :class:`Database` it wraps, for both entry points, including
  enumeration order.
"""

import random

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.terms import Atom
from repro.errors import RetrievalFaultError
from repro.resilience.faults import FaultPlan, FaultSpec, FlakyDatabase
from repro.resilience.policy import ResiliencePolicy
from repro.serving.config import SessionConfig
from repro.system import SelfOptimizingQueryProcessor


def seeded_db(seed=0, size=12):
    rng = random.Random(seed)
    database = Database()
    for index in range(size):
        database.add(Atom("p", [f"c{rng.randrange(size)}", f"c{index}"]))
        if rng.random() < 0.5:
            database.add(Atom("q", [f"c{index}"]))
    return database


def pattern_stream(seed=0, length=40):
    rng = random.Random(seed + 17)
    patterns = [
        "p(X, Y)", "p(c0, Y)", "p(X, c3)", "q(X)", "q(c1)", "p(X, X)",
    ]
    return [parse_query(rng.choice(patterns)) for _ in range(length)]


def flaky(seed=3):
    plan = FaultPlan(
        seed=seed,
        default=FaultSpec(
            fault_rate=0.25, timeout_rate=0.1,
            latency_rate=0.2, latency_factor=4.0,
        ),
    )
    database = FlakyDatabase(seeded_db(), plan)
    database.probe_log = []
    return database


def drive(database, entry_point, patterns):
    """Push a pattern sequence through one probing entry point in one
    probe window, swallowing (but counting) injected faults; returns
    the fault count and the window's billed cost."""
    faults = 0
    database.begin_probe_window()
    for pattern in patterns:
        try:
            if entry_point == "retrieve":
                list(database.retrieve(pattern))
            elif entry_point == "facts_matching":
                list(database.facts_matching(pattern))
            else:
                database.succeeds(pattern)
        except RetrievalFaultError:
            faults += 1
    window = database.end_probe_window()
    assert window.probes == len(patterns)
    return faults, window.billed_cost


class TestEntryPointParity:
    """Satellite: retrieve and facts_matching inject and bill alike."""

    @pytest.mark.parametrize("other", ["facts_matching", "succeeds"])
    def test_same_injections_and_billed_cost(self, other):
        patterns = pattern_stream()
        left = flaky()
        right = flaky()
        assert drive(left, "retrieve", patterns) == drive(
            right, other, patterns)
        assert left.probe_log == right.probe_log

    def test_billed_cost_covers_spikes_not_faults(self):
        database = flaky()
        _, billed = drive(database, "retrieve", pattern_stream())
        excess = sum(
            multiplier - 1.0
            for _, faulted, _, multiplier in database.probe_log
            if not faulted
        )
        assert billed == excess
        assert billed > 0

    def test_log_records_every_probe(self):
        patterns = pattern_stream(length=25)
        database = flaky()
        drive(database, "facts_matching", patterns)
        assert len(database.probe_log) == len(patterns)


class TestEmptyPlanTransparency:
    """Satellite: an injection-free FlakyDatabase is invisible."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_enumeration_byte_identical(self, seed):
        plain = seeded_db(seed)
        wrapped = FlakyDatabase(plain, FaultPlan(seed=seed))
        for pattern in pattern_stream(seed):
            assert (
                list(wrapped.retrieve(pattern))
                == list(plain.retrieve(pattern))
            )
            assert (
                list(wrapped.facts_matching(pattern))
                == list(plain.facts_matching(pattern))
            )
            assert wrapped.succeeds(pattern) == plain.succeeds(pattern)

    def test_no_cost_billed_without_spikes(self):
        wrapped = FlakyDatabase(seeded_db(), FaultPlan(seed=0))
        # Clean probes bill nothing through the window: the caller's
        # unit cost accounting is unchanged by the wrapper.
        assert drive(wrapped, "retrieve", pattern_stream()) == (0, 0.0)

    def test_iteration_and_catalog_pass_through(self):
        plain = seeded_db()
        wrapped = FlakyDatabase(plain, FaultPlan(seed=0))
        assert list(wrapped) == list(plain)
        assert wrapped.signatures() == plain.signatures()
        assert len(wrapped) == len(plain)


class TestSpikesAreBilled:
    """A latency spike on a probe that did not fault raises the bill
    of the answer it served, on the learned path and the fallback."""

    RULES = """
        instructor(X) :- prof(X).
        instructor(X) :- grad(X).
        senior(X) :- prof(X), tenured(X).
    """
    QUERIES = ["instructor(russ)", "instructor(X)", "senior(manolis)"]

    def serve(self, spec, resilient):
        database = FlakyDatabase(
            Database.from_program("prof(manolis). grad(russ). "
                                  "tenured(manolis)."),
            FaultPlan(seed=1, default=spec),
        )
        processor = SelfOptimizingQueryProcessor(
            parse_program(self.RULES),
            config=SessionConfig(
                resilience=ResiliencePolicy(seed=0) if resilient else None),
        )
        answers = [processor.query(parse_query(text), database)
                   for text in self.QUERIES]
        return answers, database.plan.injected_spikes

    @pytest.mark.parametrize("resilient", [False, True])
    def test_each_spike_bills_its_excess(self, resilient):
        calm, _ = self.serve(FaultSpec(), resilient)
        spiked, spikes = self.serve(
            FaultSpec(latency_rate=1.0, latency_factor=5.0), resilient)
        assert [a.learned for a in spiked] == [True, True, False]
        for before, after in zip(calm, spiked):
            assert (after.proved, after.clean) == (before.proved, True)
            assert after.cost > before.cost
        # Every probe spiked, and each bills 4.0 beyond its unit cost.
        assert sum(a.cost for a in spiked) == (
            sum(a.cost for a in calm) + 4.0 * spikes)
