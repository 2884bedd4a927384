"""Tests for the Clopper–Pearson interval helper."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.stats import clopper_pearson, rate_with_interval


class TestClopperPearson:
    def test_zero_successes_lower_bound_is_zero(self):
        lower, upper = clopper_pearson(0, 60)
        assert lower == 0.0
        # The classic "rule of three": upper ≈ 3/n  (ln(40)/60 ≈ 0.06).
        assert 0.03 < upper < 0.08

    def test_all_successes_upper_bound_is_one(self):
        lower, upper = clopper_pearson(40, 40)
        assert upper == 1.0
        assert lower > 0.9

    def test_interval_contains_point_estimate(self):
        for successes, trials in ((3, 50), (25, 50), (49, 50)):
            lower, upper = clopper_pearson(successes, trials)
            assert lower <= successes / trials <= upper

    def test_wider_at_higher_confidence(self):
        lower_95, upper_95 = clopper_pearson(10, 40, confidence=0.95)
        lower_99, upper_99 = clopper_pearson(10, 40, confidence=0.99)
        assert lower_99 <= lower_95 and upper_99 >= upper_95

    def test_narrower_with_more_trials(self):
        _, upper_small = clopper_pearson(5, 50)
        _, upper_big = clopper_pearson(50, 500)
        assert upper_big < upper_small

    def test_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(1, 0)
        with pytest.raises(ValueError):
            clopper_pearson(5, 3)

    def test_coverage_simulation(self):
        """The exact interval must cover the true rate ≥ 95% of the time."""
        import random

        rng = random.Random(0)
        true_rate = 0.3
        trials = 40
        covered = 0
        experiments = 400
        for _ in range(experiments):
            successes = sum(rng.random() < true_rate for _ in range(trials))
            lower, upper = clopper_pearson(successes, trials)
            covered += lower <= true_rate <= upper
        assert covered / experiments >= 0.95


class TestRendering:
    def test_format(self):
        text = rate_with_interval(0, 60)
        assert text.startswith("0.000 [0.000, ")
        assert text.endswith("]")


class TestNoUndeclaredDependency:
    def test_imports_with_scipy_blocked(self):
        """The package declares no runtime dependency, so the bench
        reports, the verify contracts and the bench-check tool must
        work where scipy is not installed."""
        repo = Path(__file__).resolve().parent.parent
        probe = (
            "import runpy, sys\n"
            "sys.modules['scipy'] = None\n"
            "import repro.bench, repro.verify\n"
            "assert repro.bench.rate_with_interval(0, 60).startswith('0.000')\n"
            "sys.argv = ['tools/bench_trajectory.py', '--help']\n"
            "runpy.run_path(sys.argv[0], run_name='__main__')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(repo / "src")),
            cwd=str(repo),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "usage: bench_trajectory.py" in result.stdout
