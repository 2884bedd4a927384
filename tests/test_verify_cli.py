"""The ``repro verify`` subcommand."""

import io
import json
import os
import re

import pytest

from repro.cli import main
from repro.learning import pib as pib_module
from repro.verify.runner import PROFILES
from repro.verify.worldgen import WorldSpec

NIGHTLY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), ".github", "workflows", "nightly.yml")
DEEP_CHAIN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "fixtures", "worldspec-deep-chain.json")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestVerifyCommand:
    def test_single_profile_passes(self):
        code, output = run_cli(
            "verify", "--seeds", "3", "--profile", "engine"
        )
        assert code == 0
        assert "profile engine:" in output
        assert "ok over 3 worlds" in output

    def test_multiple_profiles(self):
        code, output = run_cli(
            "verify", "--seeds", "2",
            "--profile", "pib", "--profile", "serving",
        )
        assert code == 0
        assert "profile pib:" in output
        assert "profile serving:" in output

    def test_default_runs_all_profiles(self):
        code, output = run_cli("verify", "--seeds", "1")
        assert code == 0
        for profile in ("engine", "pib", "pao", "serving", "chaos"):
            assert f"profile {profile}:" in output

    def test_federation_profile(self):
        code, output = run_cli(
            "verify", "--seeds", "2", "--profile", "federation"
        )
        assert code == 0
        assert "profile federation:" in output
        assert "federation-backend-equivalence" in output
        assert "federation-partial-soundness" in output
        assert "federation-byte-determinism" in output

    def test_unknown_profile_exits_before_any_world(self):
        with pytest.raises(SystemExit) as exited:
            main(["verify", "--profile", "engine", "--profile", "nope"],
                 out=io.StringIO())
        assert exited.value.code == 2

    def test_base_seed_shifts_the_family(self):
        code, output = run_cli(
            "verify", "--seeds", "2", "--base-seed", "40",
            "--profile", "engine",
        )
        assert code == 0

    def test_replay_round_trip(self, tmp_path):
        path = tmp_path / "world.json"
        WorldSpec(seed=3, profile="engine").save(path)
        code, output = run_cli("verify", "--replay", str(path))
        assert code == 0
        assert "replaying" in output and "seed 3" in output

    def test_replay_rejects_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "bogus": 2}))
        code, output = run_cli("verify", "--replay", str(path))
        assert code == 2
        assert "error:" in output

    def test_failure_writes_artifacts_and_replay_summary(self, tmp_path):
        pib_module.FLIP_EQ6_FOR_TESTING = True
        try:
            code, output = run_cli(
                "verify", "--seeds", "15", "--profile", "pib",
                "--artifacts", str(tmp_path), "--no-shrink",
            )
        finally:
            pib_module.FLIP_EQ6_FOR_TESTING = False
        assert code == 1
        assert "FAIL" in output
        assert "replay:" in output  # inline one-line WorldSpec repro
        artifacts = list(tmp_path.glob("worldspec-*.json"))
        assert artifacts
        # The artifact is a loadable spec.
        spec = WorldSpec.load(artifacts[0])
        assert spec.profile == "pib"

    def test_coverage_flag_degrades_without_coverage_package(self, monkeypatch):
        import importlib.util

        real_find_spec = importlib.util.find_spec
        monkeypatch.setattr(
            importlib.util,
            "find_spec",
            lambda name, *a: None if name == "coverage"
            else real_find_spec(name, *a),
        )
        code, output = run_cli("verify", "--coverage")
        assert code == 2
        assert "coverage" in output and "not installed" in output


class TestDeepChainReplay:
    """The committed world CI replays: ``unreach(X) :- node(X), not
    tc(X, n70).`` over a 70-edge chain, past SLD's depth bound of 64."""

    def test_replay_passes(self):
        from repro.verify.runner import replay_spec

        spec = WorldSpec.load(DEEP_CHAIN)
        assert spec.profile == "engine"
        assert spec.kb_queries == ("unreach(n0)?", "unreach(X)?")
        assert replay_spec(spec) == 0


class TestNightlyMatrix:
    def test_nightly_runs_every_profile_in_order(self):
        """The nightly workflow lists the profiles by hand, since YAML
        cannot read the profile table: its ``profile:`` matrix is
        ``PROFILES``, in order."""
        with open(NIGHTLY, encoding="utf-8") as handle:
            text = handle.read()
        found = re.search(r"^\s*profile:\s*\[([^\]]*)\]", text, re.M)
        assert found is not None, "no profile matrix in nightly.yml"
        assert [name.strip() for name in found.group(1).split(",")] == (
            list(PROFILES))

