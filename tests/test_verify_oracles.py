"""Differential oracles: cost, equivalence, and statistical contracts.

Includes the subsystem's own acceptance checks:

* three-way engine equivalence, and the served-answer oracle, over
  100 seeded random KBs;
* the PIB contract passes on healthy code at ``--seeds 50`` scale;
* an intentionally injected bad-climb bug — Equation 6's inequality
  flipped via ``repro.learning.pib.FLIP_EQ6_FOR_TESTING`` — is caught
  by the contract with a replayable :class:`WorldSpec`.
"""

import math

import pytest

from repro.learning import pib as pib_module
from repro.verify.oracles import (
    check_cost_oracle,
    check_three_way_equivalence,
    clopper_pearson,
    pao_contract,
    pib_contract,
    pib_run_world,
)
from repro.verify.runner import run_profile, specs_for
from repro.verify.worldgen import WorldSpec


@pytest.fixture
def flipped_eq6():
    pib_module.FLIP_EQ6_FOR_TESTING = True
    try:
        yield
    finally:
        pib_module.FLIP_EQ6_FOR_TESTING = False


class TestClopperPearson:
    def test_edge_cases(self):
        low, high = clopper_pearson(0, 20)
        assert low == 0.0 and 0.0 < high < 0.5
        low, high = clopper_pearson(20, 20)
        assert 0.5 < low < 1.0 and high == 1.0

    def test_interval_contains_point_estimate(self):
        for k, n in ((3, 10), (7, 50), (49, 50)):
            low, high = clopper_pearson(k, n)
            assert low <= k / n <= high

    def test_tightens_with_samples(self):
        narrow = clopper_pearson(50, 100)
        wide = clopper_pearson(5, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_exact_binomial_consistency(self):
        # At the lower bound, P(X >= k | p=low) equals alpha/2 —
        # spot-check via the complement CDF at a hand-computed point.
        low, _ = clopper_pearson(5, 10, confidence=0.95)
        alpha = 0.05
        tail = sum(
            math.comb(10, i) * low**i * (1 - low) ** (10 - i)
            for i in range(5, 11)
        )
        assert abs(tail - alpha / 2) < 1e-6


class TestCostOracle:
    def test_upsilon_matches_brute_force_over_seeds(self):
        for spec in specs_for("pib", 25):
            assert check_cost_oracle(spec) is None, spec


class TestAnswerEquivalence:
    def test_engines_agree_on_100_seeded_kbs(self):
        failures = [
            (spec.seed, message)
            for spec in specs_for("engine", 100)
            for message in [check_three_way_equivalence(spec)]
            if message is not None
        ]
        assert not failures, failures


class TestPIBContract:
    def test_contract_passes_at_seeds_50(self):
        report = pib_contract(specs_for("pib", 50))
        assert report.ok, report.failures
        assert report.stats["climbs"] > 0, (
            "contract is vacuous: no climbs happened across 50 worlds"
        )

    def test_flipped_eq6_is_caught(self, flipped_eq6):
        report = pib_contract(specs_for("pib", 20))
        assert not report.ok
        failure = report.failures[0]
        # The failing world must be replayable from its JSON spec.
        spec = WorldSpec.from_json(failure.spec.to_json())
        replayed = pib_run_world(spec, check_invariants=False)
        assert replayed.bad_climbs > 0

    def test_flipped_eq6_is_caught_after_the_seed(self, flipped_eq6):
        report = pib_contract(specs_for("pib", 20), check_invariants=False)
        assert report.stats["seeded_bad_runs"] > 0
        seeded = [failure for failure in report.failures
                  if failure.message.startswith("seeded bad-climb rate")]
        assert seeded
        replayed = pib_run_world(seeded[0].spec, check_invariants=False)
        assert replayed.seeded_bad_climbs > 0

    def test_flipped_eq6_caught_through_runner(self, flipped_eq6, tmp_path):
        from repro.verify.runner import run_verify

        exit_code = run_verify(
            ["pib"], seeds=20, artifact_dir=str(tmp_path),
            shrink_failures=False,
        )
        assert exit_code == 1
        artifacts = sorted(tmp_path.glob("worldspec-*.json"))
        assert artifacts, "failing WorldSpec was not written as an artifact"
        # The artifact replays: the recorded world deterministically
        # reproduces the bad climb under the injected bug.
        spec = WorldSpec.load(artifacts[0])
        assert pib_run_world(spec, check_invariants=False).bad_climbs > 0

    def test_healthy_replay_of_same_specs_passes(self):
        assert run_profile("pib", seeds=20, shrink_failures=False).ok


class TestPAOContract:
    def test_contract_passes(self):
        report = pao_contract(specs_for("pao", 20))
        assert report.ok, report.failures
        assert report.worlds - report.skipped > 0

    def test_mixes_plain_and_aiming_worlds(self):
        specs = specs_for("pao", 10)
        rates = {spec.blockable_reduction_rate for spec in specs}
        assert 0.0 in rates and any(rate > 0 for rate in rates)
