"""Hostile workload generators: skew, storms, adversarial recursion.

The differential oracles are only as good as the worlds they run on,
and the layered acyclic generator in :mod:`repro.verify.worldgen` is
deliberately tame: no recursion, shallow negation, a uniform query
mix.  This module supplies the worlds that stress the engines where
they actually differ:

* **hot-key skew** — a query stream concentrated on one seeded hot
  query, the shape that separates tabling/caching engines from
  re-deriving ones;
* **mutation storms** — seeded add/remove schedules that bump the
  database generation on every step, busting any state keyed on
  ``Database.cache_key``;
* **deep recursion** — right-recursive transitive-closure chains long
  enough to exercise tabled termination while staying inside the SLD
  engine's depth budget (left recursion is excluded on purpose: the
  top-down engine's variant-ancestor check prunes it unsoundly, which
  is a known limitation, not a differential-test target);
* **same generation** — the classic tree-structured ``sg`` program,
  quadratically many derivable pairs from linearly many facts;
* **negation mix** — stratified programs with a negated literal in
  (almost) every rule, hammering the negation boundary of all three
  engines;
* **specializing heads** — rule heads with constants and repeated
  variables, whose reductions only some queries may take, asked with
  variables named like the rules' and like the graph's prototype
  goal: the shape where a learned path can serve an answer the
  program does not entail.

Every generator is a pure function of its seed: equal arguments yield
byte-identical programs, which is what lets ``verify --replay`` and
the shrinker treat these worlds like any other.  The program
generators share one return convention — ``(rules, facts, queries)``
as tuples of Datalog text lines — so :func:`repro.verify.worldgen.build_kb_world`
can consume them directly via ``WorldSpec.kb_shape``.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

__all__ = [
    "KB_SHAPES",
    "deep_recursion_program",
    "hot_key_stream",
    "mutation_storm",
    "negation_mix_program",
    "same_generation_program",
    "specializing_heads_program",
]

#: Knowledge-base shapes a :class:`~repro.verify.worldgen.WorldSpec`
#: can request ("layered" is worldgen's own generator).
KB_SHAPES = ("layered", "deep-recursion", "same-generation", "negation-mix",
             "specializing-heads")

_Program = Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]


# ----------------------------------------------------------------------
# Hot-key skew
# ----------------------------------------------------------------------


def hot_key_stream(
    seed: int,
    items: Sequence[str],
    hot_fraction: float = 0.8,
    length: int = 0,
) -> Tuple[str, ...]:
    """A skewed stream over ``items``: one seeded hot key dominates.

    Exactly ``round(hot_fraction * length)`` positions carry the hot
    item; the rest are drawn uniformly from the other items (from all
    items when there is only one), then the whole stream is shuffled.
    The exact count is what makes the skew ratio assertable in tests.
    """
    if not items:
        return ()
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError(
            f"hot_fraction must be in (0, 1], got {hot_fraction}"
        )
    rng = random.Random((seed << 8) ^ 0x407)
    pool = list(items)
    total = length if length > 0 else max(2 * len(pool), 8)
    hot = pool[rng.randrange(len(pool))]
    cold_pool = [item for item in pool if item != hot] or [hot]
    n_hot = round(hot_fraction * total)
    stream = [hot] * n_hot + [
        cold_pool[rng.randrange(len(cold_pool))] for _ in range(total - n_hot)
    ]
    rng.shuffle(stream)
    return tuple(stream)


# ----------------------------------------------------------------------
# Cache-busting mutation storms
# ----------------------------------------------------------------------


def mutation_storm(
    seed: int, facts: Sequence[str], steps: int
) -> Tuple[Tuple[str, str], ...]:
    """A seeded schedule of ``("remove"|"add", fact_text)`` operations.

    Removals pick a random live fact; additions re-add a previously
    removed one, so the schedule never invents tuples the world's
    generator did not produce (the engines' *answers* may still change
    on every step — that is the point).  Every step emits exactly one
    operation (the cadence tests rely on ``len(ops) == steps``), and
    each one bumps the database generation when applied, invalidating
    anything keyed on ``Database.cache_key``.  Fact text is normalized
    (trailing period stripped) so it parses with ``parse_atom``.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    live = [line.strip().rstrip(".").strip() for line in facts]
    live = [line for line in live if line]
    if not live:
        return ()
    rng = random.Random((seed << 8) ^ 0x570B)
    removed: List[str] = []
    ops: List[Tuple[str, str]] = []
    for _ in range(steps):
        add = bool(removed) and (not live or rng.random() < 0.5)
        if add:
            fact = removed.pop(rng.randrange(len(removed)))
            live.append(fact)
            ops.append(("add", fact))
        else:
            fact = live.pop(rng.randrange(len(live)))
            removed.append(fact)
            ops.append(("remove", fact))
    return tuple(ops)


# ----------------------------------------------------------------------
# Adversarial programs
# ----------------------------------------------------------------------


def deep_recursion_program(
    seed: int, depth: int = 24, n_queries: int = 12
) -> _Program:
    """Right-recursive transitive closure over a long seeded chain.

    A chain ``e(n0, n1) … e(n{d-1}, nd)`` plus a few forward shortcut
    edges, closed by the textbook right-recursive ``tc`` (and a unary
    ``reach`` on top so mixed-arity queries appear).  ``depth`` is
    clamped to 24 so the SLD engine's default depth budget of 64 still
    covers the longest derivation (roughly two frames per chain hop).
    """
    depth = max(2, min(depth, 24))
    rng = random.Random((seed << 8) ^ 0xDEE9)
    nodes = [f"n{index}" for index in range(depth + 1)]
    facts = [f"e({nodes[i]}, {nodes[i + 1]})." for i in range(depth)]
    for _ in range(rng.randrange(3)):
        start = rng.randrange(depth - 1)
        stop = rng.randrange(start + 1, depth + 1)
        shortcut = f"e({nodes[start]}, {nodes[stop]})."
        if shortcut not in facts:
            facts.append(shortcut)
    rules = (
        "tc(X, Y) :- e(X, Y).",
        "tc(X, Y) :- e(X, Z), tc(Z, Y).",
        f"reach(X) :- tc({nodes[0]}, X).",
    )
    # The deepest derivation always appears; the rest of the stream is
    # a seeded mix of open, half-open, and ground (true and false)
    # goals over both predicates.
    queries = [f"tc({nodes[0]}, {nodes[-1]})?"]
    for _ in range(max(n_queries - 1, 0)):
        roll = rng.random()
        if roll < 0.25:
            queries.append(f"tc({rng.choice(nodes)}, X)?")
        elif roll < 0.45:
            queries.append(f"tc(X, {rng.choice(nodes)})?")
        elif roll < 0.6:
            queries.append("tc(X, Y)?")
        elif roll < 0.8:
            left, right = rng.choice(nodes), rng.choice(nodes)
            queries.append(f"tc({left}, {right})?")
        else:
            queries.append("reach(X)?")
    return rules, tuple(facts), tuple(queries)


def same_generation_program(
    seed: int, depth: int = 3, fanout: int = 2, n_queries: int = 12
) -> _Program:
    """The same-generation program over a seeded balanced tree.

    ``par(child, parent)`` facts form a ``fanout``-ary tree of the
    given depth; ``sg`` derives quadratically many same-level pairs
    from them — the canonical workload where goal-directed set-at-a-
    time evaluation (QSQ) beats both tuple-at-a-time SLD and blind
    bottom-up saturation, which is exactly why it belongs in the
    differential family.
    """
    depth = max(1, min(depth, 4))
    fanout = max(2, min(fanout, 3))
    rng = random.Random((seed << 8) ^ 0x5A9E)
    levels: List[List[str]] = [["t0"]]
    counter = 1
    for _ in range(depth):
        next_level = []
        for parent in levels[-1]:
            for _ in range(fanout):
                next_level.append(f"t{counter}")
                counter += 1
        levels.append(next_level)
    facts = []
    for upper, lower in zip(levels, levels[1:]):
        span = len(lower) // len(upper)
        for index, child in enumerate(lower):
            facts.append(f"par({child}, {upper[index // span]}).")
    rules = (
        "sib(X, Y) :- par(X, P), par(Y, P).",
        "sg(X, Y) :- sib(X, Y).",
        "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).",
    )
    everyone = [node for level in levels for node in level]
    leaves = levels[-1]
    queries = [f"sg({leaves[0]}, X)?"]
    for _ in range(max(n_queries - 1, 0)):
        roll = rng.random()
        if roll < 0.3:
            queries.append(f"sg({rng.choice(everyone)}, X)?")
        elif roll < 0.45:
            queries.append(f"sg(X, {rng.choice(leaves)})?")
        elif roll < 0.6:
            queries.append("sg(X, Y)?")
        elif roll < 0.85:
            left, right = rng.choice(everyone), rng.choice(everyone)
            queries.append(f"sg({left}, {right})?")
        else:
            queries.append(f"sib({rng.choice(leaves)}, X)?")
    return rules, tuple(facts), tuple(queries)


def negation_mix_program(
    seed: int, universe: int = 8, n_queries: int = 12
) -> _Program:
    """Stratified layers with a negated literal in every derived rule.

    Each layer ``p_i`` positively anchors on an earlier predicate and
    negates another strictly earlier one (base or derived), so the
    program is stratified by construction while every rule crosses a
    negation boundary — the shape that flushes out engines that bind
    negation too early or drain strata in the wrong order.
    """
    universe = max(2, universe)
    rng = random.Random((seed << 8) ^ 0x90A7)
    constants = [f"c{index}" for index in range(universe)]
    facts = []
    for name, rate in (("e0", 0.6), ("e1", 0.45)):
        for constant in constants:
            if rng.random() < rate:
                facts.append(f"{name}({constant}).")
    for left in constants:
        for right in constants:
            if rng.random() < 1.5 / universe:
                facts.append(f"link({left}, {right}).")
    available = ["e0", "e1"]
    rules = []
    for index in range(4):
        head = f"p{index}"
        for _ in range(rng.choice((1, 1, 2))):
            anchor = rng.choice(available)
            negated = rng.choice([name for name in available
                                  if name != anchor] or [anchor])
            body = [f"{anchor}(X)", f"not {negated}(X)"]
            if rng.random() < 0.5:
                body.insert(1, "link(X, Y)")
            rules.append(f"{head}(X) :- {', '.join(body)}.")
        available.append(head)
    queries = []
    askable = available + ["link"]
    for _ in range(n_queries):
        pred = rng.choice(askable)
        if pred == "link":
            queries.append(f"link({rng.choice(constants)}, X)?")
        elif rng.random() < 0.5:
            queries.append(f"{pred}({rng.choice(constants)})?")
        else:
            queries.append(f"{pred}(X)?")
    return tuple(rules), tuple(facts), tuple(queries)


def specializing_heads_program(
    seed: int, universe: int = 8, n_queries: int = 12
) -> _Program:
    """Rule heads that specialize the goal, over seeded ``edge`` and
    ``back`` facts.

    ``s`` has a head with a constant (``s(F1, c) :- edge(F1, B0).``), a
    repeated head variable (``s(X, X) :- back(X, c).``) and a plain
    head; ``t`` has a head with a constant defined through ``s``
    (``t(c, Y) :- s(Y, Y).``) and a plain one.  Rule and query
    variables are named ``X``/``Y`` and, like the root prototype's,
    ``B<i>``/``F<i>``.  The program is not recursive, so every query
    form compiles to an inference graph and the learned path answers
    it; the constants, the rule order and the facts are seeded.
    """
    universe = max(3, universe)
    rng = random.Random((seed << 8) ^ 0x5BEC)
    nodes = [f"n{index}" for index in range(universe)]
    facts = tuple(
        f"{name}({left}, {right})."
        for name in ("edge", "back")
        for left in nodes
        for right in nodes
        if rng.random() < 1.5 / universe
    )
    first, second, third = rng.sample(nodes, 3)
    s_rules = [f"s(F1, {first}) :- edge(F1, B0).",
               f"s(X, X) :- back(X, {second}).",
               "s(X, Y) :- edge(Y, X)."]
    t_rules = [f"t({third}, Y) :- s(Y, Y).", "t(X, Y) :- back(Y, X)."]
    rng.shuffle(s_rules)
    rng.shuffle(t_rules)
    terms = nodes + ["X", "Y", "B0", "B1", "F0", "F1"]
    queries = tuple(
        f"{rng.choice('st')}({rng.choice(terms)}, {rng.choice(terms)})?"
        for _ in range(n_queries)
    )
    return tuple(s_rules + t_rules), facts, queries
