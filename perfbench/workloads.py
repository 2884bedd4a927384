"""Seeded inputs and reference answers for the benchmark's workloads.

Every generator here is a pure function of ``(seed, sizes)``: the same
seed yields the same rule text, fact text, query stream and write
schedule.  The program under test only ever receives that text; the
reference answers (:class:`LearnReference`, :class:`ModelReference`)
are computed on the benchmark's side, outside the timed region.

Three workloads, chosen so each layer does most of its work in one and
little in another (see ``perfbench/NOTES.md`` for the full record):

* ``learn-read`` — disjunctive query forms that compile to inference
  graphs, so PIB, the executor, the answer cache, the subgoal memo and
  admission do the work and the Datalog engines sit idle;
* ``learn-write`` — the same KB and stream plus a fact add/remove
  before every few bursts, which bumps ``Database.cache_key`` and so
  runs the same layers with cold caches;
* ``recursive-sld`` — a conjunctive recursive program that does not
  compile to an inference graph, so the top-down engine and the store's
  ``retrieve`` are the blocking steps and the learner sits idle.
"""

from __future__ import annotations

import bisect
import itertools
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import AdmissionConfig, CacheConfig, ServingConfig, SessionConfig
from repro.datalog.bottomup import BottomUpEngine
from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.workloads.hostile import same_generation_program

__all__ = ["FULL", "TINY", "WORKLOADS", "Sizes", "Workload", "make_workload"]

WORKLOADS = ("learn-read", "learn-write", "recursive-sld")

#: Selectivities of the learn KB's extensional relations, assigned in
#: this cycle to (form, branch, leaf/alt) in declaration order.  The
#: assignment is the same for every seed — seeds only sample which
#: constants hold each fact and which keys are asked — so every seed
#: is the same amount of work; the depth-first starting order is
#: wrong in a different way for each form, so PIB has climbs to make.
_SELECTIVITIES = (0.01, 0.03, 0.06, 0.12, 0.2, 0.33)

#: Zipf exponent of the hot half of the learn key stream.
_ZIPF_S = 1.2

#: Requests per learn-* burst; the client sends the next burst only
#: after every outcome of this one has returned (closed loop).
LEARN_BURST = 32
#: learn-write applies one fact add/remove before every this many bursts.
WRITE_EVERY = 4
#: Requests per recursive-sld burst.  Smaller than learn-*'s: SLD
#: requests are ~50x dearer, and a run still needs 1000+ bursts for a
#: p99 with ten samples beyond it.
SLD_BURST = 16


@dataclass(frozen=True)
class Sizes:
    """Input shape of every workload (one request = one query)."""

    # -- learn-* ---------------------------------------------------------
    forms: int = 8
    branches: int = 5
    constants: int = 2000
    learn_bursts: int = 512
    answer_capacity: int = 4096
    subgoal_capacity: int = 65536
    # -- recursive-sld -----------------------------------------------------
    chain: int = 40
    shortcuts: int = 6
    sg_depth: int = 4
    sg_fanout: int = 3
    sld_pool: int = 256
    sld_bursts: int = 128


FULL = Sizes()
#: The benchmark's own tests run every workload at this size.
TINY = Sizes(
    forms=2,
    branches=3,
    constants=60,
    learn_bursts=24,
    answer_capacity=32,
    subgoal_capacity=64,
    chain=10,
    shortcuts=2,
    sg_depth=2,
    sg_fanout=2,
    sld_pool=32,
    sld_bursts=12,
)


@dataclass
class Workload:
    """Everything one run of a workload needs.

    ``bursts`` is the request stream of one *episode*: a fresh session
    over a fresh store answers it from the first burst to the last, so
    every episode of a run does identical work.  ``writes`` maps a
    burst index to the ``(op, fact)`` applied to the store just before
    that burst.
    """

    name: str
    rules: str
    facts: str
    bursts: List[List[str]]
    writes: Dict[int, Tuple[str, str]]
    config: SessionConfig
    cache: CacheConfig
    serving: ServingConfig
    #: ``reset()`` per episode, ``apply(op, fact)`` per write and
    #: ``check(query, answer)`` per outcome.
    reference: object = field(repr=False)

    @property
    def requests(self) -> int:
        return sum(len(burst) for burst in self.bursts)


# ----------------------------------------------------------------------
# learn-read / learn-write
# ----------------------------------------------------------------------


class LearnReference:
    """Direct EDB lookups: ``f<k>(c)`` holds iff some ``leaf<k>_<b>(c)``
    or ``alt<k>_<b>(c)`` fact is stored.  Tracks the write schedule."""

    def __init__(self, support: Dict[Tuple[str, str], int],
                 form_of: Dict[str, str]):
        self._initial = dict(support)
        self._support = dict(support)
        self._form_of = form_of

    def reset(self) -> None:
        self._support = dict(self._initial)

    @staticmethod
    def _key(text: str) -> Tuple[str, str]:
        predicate, _, rest = text.partition("(")
        return predicate, rest[: rest.index(")")]

    def apply(self, op: str, fact: str) -> None:
        relation, constant = self._key(fact)
        key = (self._form_of[relation], constant)
        self._support[key] = self._support.get(key, 0) + (
            1 if op == "add" else -1
        )

    def check(self, query: str, answer) -> bool:
        expected = self._support.get(self._key(query), 0) > 0
        return answer.proved == expected


def _zipf_cdf(n: int) -> List[float]:
    weights = list(itertools.accumulate(1.0 / (rank ** _ZIPF_S)
                                        for rank in range(1, n + 1)))
    total = weights[-1]
    return [weight / total for weight in weights]


def _learn(name: str, seed: int, sizes: Sizes) -> Workload:
    rng = random.Random(seed)
    constants = [f"c{index}" for index in range(sizes.constants)]
    rules: List[str] = []
    relations: List[Tuple[str, int]] = []
    for form in range(sizes.forms):
        for branch in range(sizes.branches):
            middle = f"m{form}_{branch}"
            rules.append(f"f{form}(X) :- {middle}(X).")
            for kind in ("leaf", "alt"):
                relation = f"{kind}{form}_{branch}"
                rules.append(f"{middle}(X) :- {relation}(X).")
                relations.append((relation, form))

    rates = [_SELECTIVITIES[index % len(_SELECTIVITIES)]
             for index in range(len(relations))]
    present = set()
    support: Dict[Tuple[str, str], int] = {}
    facts: List[str] = []
    for (relation, form), rate in zip(relations, rates):
        count = max(1, round(rate * len(constants)))
        for constant in rng.sample(constants, count):
            present.add((relation, constant))
            facts.append(f"{relation}({constant}).")
            key = (f"f{form}", constant)
            support[key] = support.get(key, 0) + 1

    # Keys: half Zipf(1.2) over a seeded popularity order, half uniform.
    popularity = list(constants)
    rng.shuffle(popularity)
    cdf = _zipf_cdf(len(popularity))

    def key() -> str:
        if rng.random() < 0.5:
            return popularity[min(bisect.bisect_left(cdf, rng.random()),
                                  len(popularity) - 1)]
        return constants[rng.randrange(len(constants))]

    bursts = [
        [f"f{rng.randrange(sizes.forms)}({key()})"
         for _ in range(LEARN_BURST)]
        for _ in range(sizes.learn_bursts)
    ]
    writes: Dict[int, Tuple[str, str]] = {}
    if name == "learn-write":
        for index in range(WRITE_EVERY - 1, len(bursts), WRITE_EVERY):
            relation, _form = relations[rng.randrange(len(relations))]
            constant = constants[rng.randrange(len(constants))]
            op = "remove" if (relation, constant) in present else "add"
            (present.discard if op == "remove" else present.add)(
                (relation, constant)
            )
            writes[index] = (op, f"{relation}({constant})")

    return Workload(
        name=name,
        rules="\n".join(rules),
        facts="\n".join(facts),
        bursts=bursts,
        writes=writes,
        config=SessionConfig(),
        cache=CacheConfig(
            answer_capacity=sizes.answer_capacity,
            subgoal_capacity=sizes.subgoal_capacity,
        ),
        # One queue slot per request of a burst: admission is on, but a
        # whole burst is always admitted, so nothing is shed.
        serving=ServingConfig(
            workers=1,
            admission=AdmissionConfig(queue_capacity=LEARN_BURST),
        ),
        reference=LearnReference(
            support, {relation: f"f{form}" for relation, form in relations}
        ),
    )


# ----------------------------------------------------------------------
# recursive-sld
# ----------------------------------------------------------------------


class ModelReference:
    """Answers from the bottom-up model of the program, built once."""

    def __init__(self, rules: str, facts: str, queries: List[str]):
        model = BottomUpEngine(parse_program(rules)).model(
            Database.from_program(facts)
        )
        self._model = model
        self._expected: Dict[str, Tuple[object, bool]] = {}
        for text in queries:
            atom = parse_query(text)
            self._expected[text] = (atom, model.succeeds(atom))

    def reset(self) -> None:
        """Nothing to reset: recursive-sld has no writes."""

    def check(self, query: str, answer) -> bool:
        atom, expected = self._expected[query]
        if answer.proved != expected:
            return False
        return not expected or answer.substitution.apply(atom) in self._model


#: The recursive-sld goal mix, as (share of the pool, kind).
#: The cheap half-open goals are just over half of it, so the median
#: request is an ``sg(a, X)`` goal, whose ``a`` is spread evenly over
#: the tree: the median virtual latency does not move with the seed.
_SLD_MIX = (
    (0.25, "tc-true"),
    # Backwards closure goals fail only after SLD has walked every path
    # forward from their first node: the engine's exponential case.
    (0.10, "tc-back"),
    (0.25, "tc-open"),
    (0.10, "tc-open-left"),
    (0.10, "sg-ground"),
    (0.20, "sg-open"),
)


def _query_pool(rng: random.Random, sizes: Sizes, tree: List[str]) -> List[str]:
    """A fixed mix of ground and half-open goals, some failing.

    The node whose cost dominates a goal — the start of a backwards
    closure goal, the first argument of a same-generation goal — runs
    evenly over the nodes instead of being drawn, so seeds change the
    goals but not how much SLD work the pool holds.
    """
    last = sizes.chain - 1
    counts = [round(share * sizes.sld_pool) for share, _ in _SLD_MIX[:-1]]
    counts.append(sizes.sld_pool - sum(counts))
    pool: List[str] = []
    for (_share, kind), count in zip(_SLD_MIX, counts):
        for index in range(count):
            node = 1 + index * last // count          # evenly over 1..last
            member = tree[index * len(tree) // count]
            if kind == "tc-true":
                low = rng.randrange(last)
                pool.append(f"tc(n{low}, n{rng.randrange(low + 1, last + 1)})")
            elif kind == "tc-back":
                pool.append(f"tc(n{node}, n{rng.randrange(node)})")
            elif kind == "tc-open":
                pool.append(f"tc(n{rng.randrange(last + 1)}, X)")
            elif kind == "tc-open-left":
                pool.append(f"tc(X, n{node})")
            elif kind == "sg-ground":
                pool.append(f"sg({member}, {rng.choice(tree)})")
            else:
                pool.append(f"sg({member}, X)")
    return pool


def _recursive(seed: int, sizes: Sizes) -> Workload:
    rng = random.Random(seed)
    last = sizes.chain - 1
    edges = {(index, index + 1) for index in range(last)}
    # One forward shortcut per equal segment of the chain, at a fixed
    # place: how many paths a failing goal walks must not depend on
    # the seed.
    segment = last // sizes.shortcuts
    for part in range(sizes.shortcuts):
        start = part * segment + 1
        edges.add((start, min(start + 3, last)))
    sg_rules, sg_facts, _ = same_generation_program(
        seed, depth=sizes.sg_depth, fanout=sizes.sg_fanout, n_queries=0
    )
    rules = ["tc(X, Y) :- e(X, Y).", "tc(X, Y) :- e(X, Z), tc(Z, Y)."]
    rules.extend(sg_rules)
    facts = [f"e(n{low}, n{high})." for low, high in sorted(edges)]
    facts.extend(sg_facts)
    tree = sorted(set(re.findall(r"t\d+", " ".join(sg_facts))),
                  key=lambda name: int(name[1:]))
    pool = _query_pool(rng, sizes, tree)
    # Deal the pool (grouped by kind, in node order within a kind) into
    # bursts by striding, so every burst carries the same goal mix and
    # the slowest bursts are not an accident of how a seed's shuffle
    # clustered the exponential goals.  Rounds then ask every burst
    # once, in a seeded order.
    per_round = len(pool) // SLD_BURST
    if per_round * SLD_BURST != len(pool):
        raise ValueError("sld_pool must be a multiple of SLD_BURST")
    dealt = [pool[index::per_round] for index in range(per_round)]
    bursts = []
    while len(bursts) < sizes.sld_bursts:
        for burst in rng.sample(dealt, per_round):
            bursts.append(rng.sample(burst, len(burst)))
    del bursts[sizes.sld_bursts:]
    rules_text, facts_text = "\n".join(rules), "\n".join(facts)
    return Workload(
        name="recursive-sld",
        rules=rules_text,
        facts=facts_text,
        bursts=bursts,
        writes={},
        # The default top-down engine answers every form here, because
        # recursive conjunctive rules do not compile to inference graphs.
        config=SessionConfig(engine="topdown"),
        cache=CacheConfig(),
        serving=ServingConfig(workers=1),
        reference=ModelReference(rules_text, facts_text, sorted(set(pool))),
    )


def make_workload(name: str, seed: int, sizes: Optional[Sizes] = None) -> Workload:
    """Generate the named workload's inputs for ``seed``."""
    sizes = sizes or FULL
    if name in ("learn-read", "learn-write"):
        return _learn(name, seed, sizes)
    if name == "recursive-sld":
        return _recursive(seed, sizes)
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     + ", ".join(WORKLOADS))
