"""Experience-store checks: the priors-only contract, seeded.

The warm-start layer's whole promise is that it changes *nothing* but
Θ₀: the Theorem 1 schedule, the Equation 6 cadence, and the answers a
query stream produces must be indistinguishable from a cold run.
These checks drive random PIB worlds through the real store and
warm-start code paths and fail on any observable deviation:

``experience-priors-only``
    An empty store warm-starts nobody; a cold run replays
    byte-identically; recording the cold outcome and warm-starting an
    identical world yields an exact hit whose strategy *is* the cold
    winner; the warm run proves exactly the contexts the cold run
    proved, consumes the Equation 6 test schedule at exactly the cold
    run's cadence, and never needs more climbs than the cold run.

``experience-nn-determinism``
    Nearest-neighbour rankings are a pure function of the record set:
    insertion order, dict iteration order, and a JSON round-trip leave
    the ranking untouched, and fingerprints are reproducible from a
    freshly rebuilt world (``PYTHONHASHSEED`` independence).

``experience-store-recovery``
    The crash-safety ladder: a corrupt main file falls back to its
    ``.bak`` with no record loss; corrupting both degrades to an empty
    store flagged ``recovered`` that can immediately save cleanly.

Each check accepts the optional :class:`~repro.serving.config.ExperienceConfig`
the CLI's ``--experience-*`` flags build, so ``repro verify --profile
experience --experience-neighbours 5`` exercises non-default knobs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import List, Optional, Tuple

from ..experience.fingerprint import form_profile
from ..experience.store import ExperienceStore
from ..experience.warmstart import (
    SIMILARITY_FLOOR,
    record_from_learner,
    warm_start,
)
from ..learning.pib import PIB
from ..serving.config import ExperienceConfig
from .worldgen import WorldSpec, build_graph_world, context_rng

__all__ = [
    "check_experience_priors",
    "check_experience_determinism",
    "check_experience_recovery",
]


def _knobs(config: Optional[ExperienceConfig]) -> ExperienceConfig:
    return config if config is not None else ExperienceConfig()


def _run_pib(
    spec: WorldSpec, initial_strategy=None
) -> Tuple[object, PIB, List[bool], List[int]]:
    """One seeded PIB run; returns (world, learner, proved, test schedule).

    ``proved`` is the per-context success verdict (the "final answers"
    of the run); the test schedule is ``total_tests`` sampled after
    every context — the exact cadence at which Equation 6 evidence
    accumulates.
    """
    world = build_graph_world(spec)
    learner = PIB(
        world.graph, delta=spec.delta, initial_strategy=initial_strategy
    )
    rng = context_rng(spec)
    proved: List[bool] = []
    schedule: List[int] = []
    for _ in range(spec.contexts):
        result = learner.process(world.distribution.sample(rng))
        proved.append(result.succeeded)
        schedule.append(learner.total_tests)
    return world, learner, proved, schedule


def _record_for(spec: WorldSpec, contexts: Optional[int] = None):
    """A settled experience record from one cold run of ``spec``."""
    if contexts is not None:
        spec = dataclasses.replace(spec, contexts=contexts)
    world, learner, _, _ = _run_pib(spec)
    profile = form_profile(world.graph)
    return record_from_learner(profile, f"world-{spec.seed}", learner)


def check_experience_priors(
    spec: WorldSpec, config: Optional[ExperienceConfig] = None
) -> Optional[str]:
    """Warm-start must set Θ₀ and nothing else."""
    knobs = _knobs(config)
    world = build_graph_world(spec)
    profile = form_profile(world.graph)

    empty = ExperienceStore()
    if warm_start(empty, profile, world.graph) is not None:
        return "an empty store produced a warm start"

    _, cold, cold_proved, cold_schedule = _run_pib(spec)
    _, rerun, rerun_proved, rerun_schedule = _run_pib(spec)
    if cold_proved != rerun_proved or cold_schedule != rerun_schedule:
        return "cold PIB replay diverged (baseline nondeterminism)"
    if cold.strategy.arc_names() != rerun.strategy.arc_names():
        return "cold PIB replay settled on a different strategy"

    record = record_from_learner(profile, f"world-{spec.seed}", cold)
    if record is None:
        return "cold run produced no contributable record"
    store = ExperienceStore()
    if not store.add(record):
        return "fresh store rejected the cold run's record"

    warm = warm_start(
        store,
        profile,
        world.graph,
        k=knobs.neighbour_k,
        floor=SIMILARITY_FLOOR,
    )
    if warm is None:
        return "identical world missed its own record"
    if not warm.exact or warm.distance != 0.0:
        return (
            f"identical world matched at distance {warm.distance} "
            "instead of exactly"
        )
    cold_final = tuple(a.name for a in cold.strategy.retrieval_order())
    warm_names = tuple(a.name for a in warm.strategy.retrieval_order())
    if warm_names != cold_final:
        return (
            f"exact warm start replayed {warm_names} but the cold run "
            f"settled on {cold_final}"
        )

    _, warm_pib, warm_proved, warm_schedule = _run_pib(
        spec, initial_strategy=warm.strategy
    )
    if warm_proved != cold_proved:
        for number, (left, right) in enumerate(
            zip(cold_proved, warm_proved)
        ):
            if left != right:
                return (
                    f"context #{number}: cold proved={left} but the "
                    "warm-started run disagreed — warm start changed "
                    "an answer"
                )
        return "warm run produced a different number of answers"
    if warm_schedule != cold_schedule:
        return (
            "warm start changed the Equation 6 test schedule "
            f"(cold ends at {cold_schedule[-1]} tests, warm at "
            f"{warm_schedule[-1]})"
        )
    if warm_pib.climbs > cold.climbs:
        return (
            f"warm start from the settled winner climbed "
            f"{warm_pib.climbs} times vs the cold run's {cold.climbs}"
        )
    return None


def check_experience_determinism(
    spec: WorldSpec, config: Optional[ExperienceConfig] = None
) -> Optional[str]:
    """Rankings and fingerprints are pure functions of their inputs."""
    knobs = _knobs(config)
    world = build_graph_world(spec)
    profile = form_profile(world.graph)
    rebuilt = form_profile(build_graph_world(spec).graph)
    if profile != rebuilt or profile.fingerprint != rebuilt.fingerprint:
        return "fingerprint changed across a world rebuild"

    # Shorter sibling runs keep the check cheap; their records only
    # need to exist, not to be well-trained.
    records = []
    for offset in (0, 101, 202, 303):
        sibling = dataclasses.replace(
            spec,
            seed=spec.seed + offset,
            n_retrievals=3 + (spec.seed + offset) % 3,
        )
        record = _record_for(sibling, contexts=20)
        if record is not None:
            records.append(record)
    if not records:
        return "no sibling world produced a record"

    forward, backward = ExperienceStore(), ExperienceStore()
    for record in records:
        forward.add(record)
    for record in reversed(records):
        backward.add(record)
    kwargs = dict(k=max(knobs.neighbour_k, len(records)), floor=0.0)
    first = forward.nearest(profile, **kwargs)
    second = backward.nearest(profile, **kwargs)
    if first != second:
        return "nearest() ranking depends on insertion order"

    roundtrip = ExperienceStore.from_payload(
        json.loads(json.dumps(forward.to_payload()))
    )
    if roundtrip.nearest(profile, **kwargs) != first:
        return "nearest() ranking changed across a JSON round-trip"
    if roundtrip.records() != forward.records():
        return "record set changed across a JSON round-trip"
    return None


def check_experience_recovery(
    spec: WorldSpec, config: Optional[ExperienceConfig] = None
) -> Optional[str]:
    """Corrupt stores degrade gracefully and never lose the backup."""
    del config
    record = _record_for(spec, contexts=20)
    if record is None:
        return "cold run produced no contributable record"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "experience.json")
        store = ExperienceStore(path=path)
        store.add(record)
        store.save()
        store.save()  # rotates the first save into the .bak
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        recovered = ExperienceStore.open(path)
        if recovered.recovered or len(recovered) != 1:
            return "corrupt main file did not fall back to the backup"
        if recovered.records() != store.records():
            return "backup fallback lost or altered records"
        with open(path + ".bak", "w", encoding="utf-8") as handle:
            handle.write("not json either")
        empty = ExperienceStore.open(path)
        if not empty.recovered or len(empty) != 0:
            return (
                "doubly-corrupt store should degrade to empty with "
                "recovered=True"
            )
        empty.add(record)
        if empty.save() != path:
            return "recovered store failed to save"
        reopened = ExperienceStore.open(path)
        if reopened.recovered or reopened.records() != [record]:
            return "store saved after recovery did not reopen cleanly"
    return None
