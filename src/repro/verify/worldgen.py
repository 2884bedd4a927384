"""Seeded world generation: the :class:`WorldSpec` and its shrinker.

A *world* is everything one end-to-end verification run needs:

* a random tree-shaped inference graph with an independent blocking
  distribution (via :mod:`repro.graphs.random_graphs`) — the symbolic
  level PIB/PAO and the cost oracles run on;
* a random stratified Datalog knowledge base (rules + facts) with a
  query stream — the concrete level the engine-equivalence oracle and
  the serving simulator run on;
* a fault plan — the chaos profile's injected storage failures.

All of it derives deterministically from a :class:`WorldSpec`, a flat
frozen dataclass that round-trips through JSON: a failing seed is a
one-line repro (``repro verify --replay world.json``).  The shrinker
materializes the knowledge base into explicit fact/rule/query text on
the spec and delta-debugs the lists down while the failure reproduces,
so a bug found in a 40-fact world comes back as a handful of lines.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..datalog.database import Database
from ..datalog.parser import parse_program, parse_query
from ..datalog.rules import RuleBase
from ..datalog.terms import Atom
from ..errors import ReproError
from ..graphs.inference_graph import InferenceGraph
from ..graphs.random_graphs import random_probabilities, random_tree_graph
from ..resilience.faults import FaultPlan, FaultSpec
from ..workloads.distributions import IndependentDistribution
from ..workloads.hostile import (
    KB_SHAPES,
    deep_recursion_program,
    hot_key_stream,
    negation_mix_program,
    same_generation_program,
    specializing_heads_program,
)

__all__ = [
    "WorldSpec",
    "GraphWorld",
    "KBWorld",
    "build_graph_world",
    "build_kb_world",
    "materialize",
    "shifted_distribution",
    "shrink",
]


@dataclass(frozen=True)
class WorldSpec:
    """A compact, JSON-round-tripping description of one random world.

    Every stochastic choice in the generated world flows from ``seed``
    through private :class:`random.Random` streams, so equal specs
    build byte-identical worlds.  ``kb_facts`` / ``kb_rules`` /
    ``kb_queries`` are normally ``None`` (the knowledge base is
    generated); the shrinker fills them with explicit Datalog text so
    a minimized failure stays replayable without the generator.
    """

    seed: int
    profile: str = "pib"
    # --- inference graph / distribution ------------------------------
    n_internal: int = 3
    n_retrievals: int = 4
    max_children: int = 3
    blockable_reduction_rate: float = 0.0
    prob_low: float = 0.1
    prob_high: float = 0.9
    # --- learning ------------------------------------------------------
    contexts: int = 120
    delta: float = 0.2
    epsilon_fraction: float = 0.5
    # --- knowledge base ------------------------------------------------
    n_base_relations: int = 3
    n_derived: int = 4
    universe: int = 8
    selectivity: float = 0.45
    max_body: int = 2
    negation_rate: float = 0.0
    n_queries: int = 12
    #: Knowledge-base shape: "layered" is the acyclic generator below;
    #: the hostile shapes ("deep-recursion", "same-generation",
    #: "negation-mix", "specializing-heads") come from
    #: :mod:`repro.workloads.hostile`.
    kb_shape: str = "layered"
    #: Cache-busting storm length: checks that understand it apply this
    #: many seeded add/remove mutations, re-judging after each one.
    mutation_steps: int = 0
    #: Hot-key skew: fraction of the query stream concentrated on one
    #: seeded hot query (0 = the plain generated stream).
    hot_key_skew: float = 0.0
    # --- serving -------------------------------------------------------
    workers: int = 2
    answer_cache: int = 0
    subgoal_memo: int = 0
    repeats: int = 2
    # --- chaos ---------------------------------------------------------
    fault_rate: float = 0.0
    timeout_rate: float = 0.0
    retries: int = 3
    #: Blend factor toward a second seeded probability draw applied at
    #: the run's midpoint (0 = stationary): the combined
    #: drift+faults+burst chaos world.
    drift_shift: float = 0.0
    #: Burst multiplier: chaos repeats each sampled context this many
    #: times; overload repeats the query stream this many times.
    burst_factor: int = 1
    # --- overload ------------------------------------------------------
    tenants: int = 3
    queue_capacity: int = 8
    tenant_rate: float = 0.0
    shed_policy: str = "reject-newest"
    request_deadline: Optional[float] = None
    # --- federation ----------------------------------------------------
    #: Shard count for federation worlds (the shard fault streams reuse
    #: ``fault_rate``/``timeout_rate``; ``retries`` maps to the store's
    #: retry budget).
    n_shards: int = 3
    shard_replicas: bool = False
    # --- explicit overrides (installed by the shrinker) ---------------
    kb_rules: Optional[Tuple[str, ...]] = None
    kb_facts: Optional[Tuple[str, ...]] = None
    kb_queries: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        # The runner's profile table; the runner imports this module.
        from .runner import PROFILES

        if self.profile not in PROFILES:
            raise ReproError(
                f"unknown profile {self.profile!r}; "
                f"expected one of {', '.join(PROFILES)}"
            )
        if self.kb_shape not in KB_SHAPES:
            raise ReproError(
                f"unknown kb_shape {self.kb_shape!r}; "
                f"expected one of {', '.join(KB_SHAPES)}"
            )
        # JSON round-trips lists as tuples-to-be; normalize eagerly so
        # equality (and therefore shrink caching) is structural.
        for field in ("kb_rules", "kb_facts", "kb_queries"):
            value = getattr(self, field)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, field, tuple(value))

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Only the fields that differ from the defaults (plus seed and
        profile) — the one-line repro stays one line."""
        compact: Dict[str, object] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name in ("seed", "profile") or value != field.default:
                compact[field.name] = (
                    list(value) if isinstance(value, tuple) else value
                )
        return compact

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorldSpec":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(f"unknown WorldSpec fields: {sorted(unknown)}")
        if "seed" not in data:
            raise ReproError("WorldSpec JSON must carry a 'seed'")
        return cls(**data)  # type: ignore[arg-type]

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorldSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ReproError("WorldSpec JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "WorldSpec":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def replace(self, **changes: object) -> "WorldSpec":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Graph worlds (PIB / PAO / chaos)
# ----------------------------------------------------------------------


@dataclass
class GraphWorld:
    """The symbolic level: graph, probabilities, distribution, faults."""

    spec: WorldSpec
    graph: InferenceGraph
    probs: Dict[str, float]
    distribution: IndependentDistribution
    fault_plan: Optional[FaultPlan]


def build_graph_world(spec: WorldSpec) -> GraphWorld:
    """Materialize the spec's inference-graph world.

    The graph/probability stream and the context-sampling stream are
    separate ``Random`` instances so the graph shape never depends on
    how many contexts a check draws.
    """
    rng = random.Random(spec.seed)
    graph = random_tree_graph(
        rng,
        n_internal=spec.n_internal,
        n_retrievals=spec.n_retrievals,
        max_children=spec.max_children,
        blockable_reduction_rate=spec.blockable_reduction_rate,
    )
    probs = random_probabilities(
        rng, graph, low=spec.prob_low, high=spec.prob_high
    )
    distribution = IndependentDistribution(graph, probs)
    fault_plan = None
    if spec.fault_rate > 0.0 or spec.timeout_rate > 0.0:
        fault_plan = FaultPlan(
            seed=spec.seed,
            default=FaultSpec(
                fault_rate=spec.fault_rate, timeout_rate=spec.timeout_rate
            ),
        )
    return GraphWorld(spec, graph, probs, distribution, fault_plan)


def context_rng(spec: WorldSpec) -> random.Random:
    """The context-sampling stream, decoupled from world construction."""
    return random.Random((spec.seed << 16) ^ 0x5EED)


def shifted_distribution(
    spec: WorldSpec, world: GraphWorld
) -> IndependentDistribution:
    """The post-drift regime for combined chaos worlds: the world's
    probabilities blended ``drift_shift`` of the way toward a second
    seeded draw.  Deterministic in the spec, like everything else."""
    rng = random.Random((spec.seed << 4) ^ 0xD51F7)
    target = random_probabilities(
        rng, world.graph, low=spec.prob_low, high=spec.prob_high
    )
    blended = {
        name: (1.0 - spec.drift_shift) * prob
        + spec.drift_shift * target[name]
        for name, prob in world.probs.items()
    }
    return IndependentDistribution(world.graph, blended)


# ----------------------------------------------------------------------
# Knowledge-base worlds (engine / serving)
# ----------------------------------------------------------------------


@dataclass
class KBWorld:
    """The concrete level: rules, facts, and a query stream.

    ``rule_text`` / ``fact_text`` / ``query_text`` are the exact lines
    the shrinker edits; parsing them back yields ``rules`` /
    ``database`` / ``queries``.
    """

    spec: WorldSpec
    rules: RuleBase
    database: Database
    queries: List[Atom]
    rule_text: Tuple[str, ...]
    fact_text: Tuple[str, ...]
    query_text: Tuple[str, ...]


def _generate_kb_text(
    spec: WorldSpec,
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    """Random stratified (acyclic, range-restricted) Datalog as text.

    Predicates are generated in dependency order — derived predicate
    ``p_i`` only ever references base relations and earlier ``p_j`` —
    so the program is trivially stratified and the top-down engine
    terminates without leaning on its loop check.  Negated body
    literals (rate-controlled) use only variables already bound by a
    positive literal, keeping rules safe.

    The hostile ``kb_shape`` values dispatch to the seeded generators
    in :mod:`repro.workloads.hostile` instead (same return shape).
    """
    if spec.kb_shape == "deep-recursion":
        return deep_recursion_program(spec.seed, n_queries=spec.n_queries)
    if spec.kb_shape == "same-generation":
        return same_generation_program(spec.seed, n_queries=spec.n_queries)
    if spec.kb_shape == "negation-mix":
        return negation_mix_program(
            spec.seed, universe=spec.universe, n_queries=spec.n_queries
        )
    if spec.kb_shape == "specializing-heads":
        return specializing_heads_program(
            spec.seed, universe=spec.universe, n_queries=spec.n_queries
        )
    rng = random.Random((spec.seed << 8) ^ 0xDA7A)
    universe = [f"c{index}" for index in range(spec.universe)]
    base = [
        (f"e{index}", rng.choice((1, 1, 2)))
        for index in range(spec.n_base_relations)
    ]

    facts: List[str] = []
    for name, arity in base:
        if arity == 1:
            for constant in universe:
                if rng.random() < spec.selectivity:
                    facts.append(f"{name}({constant}).")
        else:
            # Sparser pairs: aim for roughly `selectivity * universe`
            # tuples so binary relations don't dominate the world.
            for left in universe:
                for right in universe:
                    if rng.random() < spec.selectivity / max(len(universe) / 2, 1):
                        facts.append(f"{name}({left}, {right}).")

    available: List[Tuple[str, int]] = list(base)
    rules: List[str] = []
    derived: List[Tuple[str, int]] = []
    for index in range(spec.n_derived):
        head_name = f"p{index}"
        head_arity = 1
        clauses = rng.choice((1, 1, 2))
        for _ in range(clauses):
            body: List[str] = []
            bound = ["X"]
            length = rng.randint(1, max(spec.max_body, 1))
            for position in range(length):
                pred, arity = rng.choice(available)
                if arity == 1:
                    args = [rng.choice(bound)]
                else:
                    first = rng.choice(bound)
                    if rng.random() < 0.5 or len(bound) > 2:
                        second = rng.choice(bound + ["Y"])
                    else:
                        second = "Y"
                    args = [first, second]
                    if "Y" in args and "Y" not in bound:
                        bound.append("Y")
                negate = (
                    position > 0
                    and rng.random() < spec.negation_rate
                    and all(arg in bound[:1] for arg in args)
                )
                literal = f"{pred}({', '.join(args)})"
                body.append(f"not {literal}" if negate else literal)
            # Range restriction: X must occur in a positive literal.
            if not any("X" in part and not part.startswith("not ")
                       for part in body):
                anchor, anchor_arity = rng.choice(base)
                anchor_args = "X" if anchor_arity == 1 else "X, X"
                body.insert(0, f"{anchor}({anchor_args})")
            rules.append(f"{head_name}(X) :- {', '.join(body)}.")
        derived.append((head_name, head_arity))
        available.append((head_name, head_arity))

    queries: List[str] = []
    askable = derived + base
    for _ in range(spec.n_queries):
        pred, arity = rng.choice(askable)
        args = []
        for _ in range(arity):
            if rng.random() < 0.5:
                args.append(rng.choice(universe))
            else:
                args.append("X" if "X" not in args else "Y")
        queries.append(f"{pred}({', '.join(args)})?")
    return tuple(rules), tuple(facts), tuple(queries)


def build_kb_world(spec: WorldSpec) -> KBWorld:
    """Materialize the spec's knowledge-base world.

    Explicit ``kb_*`` overrides (set by the shrinker or a hand-edited
    repro file) win over generation.
    """
    if spec.kb_rules is not None:
        rule_text = tuple(spec.kb_rules)
        fact_text = tuple(spec.kb_facts or ())
        query_text = tuple(spec.kb_queries or ())
    else:
        rule_text, fact_text, query_text = _generate_kb_text(spec)
    rules = parse_program("\n".join(rule_text))
    database = Database.from_program("\n".join(fact_text))
    stream = query_text
    if spec.hot_key_skew > 0.0 and query_text:
        # The skewed stream is derived, not stored: the shrinkable
        # ``query_text`` stays the compact base list.
        stream = hot_key_stream(
            spec.seed, query_text, hot_fraction=spec.hot_key_skew
        )
    queries = [parse_query(text) for text in stream]
    return KBWorld(spec, rules, database, queries, rule_text, fact_text,
                   query_text)


def materialize(spec: WorldSpec) -> WorldSpec:
    """The spec with its knowledge base frozen into explicit text —
    the starting point for shrinking."""
    if spec.kb_rules is not None:
        return spec
    world = build_kb_world(spec)
    return spec.replace(
        kb_rules=world.rule_text,
        kb_facts=world.fact_text,
        kb_queries=world.query_text,
    )


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _shrink_list(
    items: Sequence[str],
    rebuild: Callable[[Tuple[str, ...]], WorldSpec],
    fails: Callable[[WorldSpec], bool],
    keep_at_least: int = 0,
) -> Tuple[str, ...]:
    """Greedy ddmin: drop chunks (halving granularity) while the
    failure reproduces."""
    current = list(items)
    chunk = max(len(current) // 2, 1)
    while True:
        removed_any = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if len(candidate) >= keep_at_least and fails(
                rebuild(tuple(candidate))
            ):
                current = candidate
                removed_any = True
            else:
                index += chunk
        if chunk == 1 and not removed_any:
            return tuple(current)
        chunk = max(chunk // 2, 1)


def _shrink_int(
    spec: WorldSpec,
    field: str,
    floor: int,
    fails: Callable[[WorldSpec], bool],
) -> WorldSpec:
    """Halve an integer field toward ``floor`` while the failure holds."""
    while getattr(spec, field) > floor:
        smaller = max(getattr(spec, field) // 2, floor)
        candidate = spec.replace(**{field: smaller})
        if fails(candidate):
            spec = candidate
        else:
            return spec
    return spec


def shrink(
    spec: WorldSpec,
    fails: Callable[[WorldSpec], bool],
    max_checks: int = 2000,
) -> WorldSpec:
    """Minimize a failing spec while ``fails`` keeps returning True.

    For knowledge-base worlds the facts, rules, and queries are
    materialized into explicit text and delta-debugged line by line;
    for graph worlds the structural sizes (retrievals, internal nodes,
    contexts) are halved.  ``fails`` must be deterministic in the spec
    (all verification checks are — everything derives from the seed).
    Raises :class:`~repro.errors.ReproError` when the input spec does
    not fail to begin with.
    """
    budget = {"left": max_checks}

    def checked_fails(candidate: WorldSpec) -> bool:
        if budget["left"] <= 0:
            return False
        budget["left"] -= 1
        try:
            return bool(fails(candidate))
        except Exception:
            # A crash while checking a *shrunk* candidate is itself a
            # reproduction of "something is wrong with this world".
            return True

    if not checked_fails(spec):
        raise ReproError("shrink() called with a spec that does not fail")

    from .runner import _PROFILE_TABLE  # the runner imports this module

    if _PROFILE_TABLE[spec.profile].kb:
        spec = materialize(spec)
    if spec.kb_rules is not None:
        for field in ("kb_facts", "kb_queries", "kb_rules"):
            value = getattr(spec, field) or ()
            keep = 1 if field == "kb_queries" else 0
            shrunk = _shrink_list(
                value,
                lambda items, f=field: spec.replace(**{f: items}),
                checked_fails,
                keep_at_least=keep,
            )
            candidate = spec.replace(**{field: shrunk})
            if checked_fails(candidate):
                spec = candidate
    else:
        for field, floor in (
            ("n_retrievals", 1),
            ("n_internal", 1),
            ("contexts", 1),
            ("n_queries", 1),
        ):
            spec = _shrink_int(spec, field, floor, checked_fails)
    return spec
