"""Backwards compatibility of the processor's configuration surface.

The configuration home is ``config=SessionConfig(...)``.  The loose
processor keywords it replaced were removed after their deprecation
period: each one is now a :class:`TypeError`, and the supported
spellings construct without any warning.
"""

import warnings

import pytest

from repro import SelfOptimizingQueryProcessor, SessionConfig
from repro.datalog.parser import parse_query
from repro.learning.drift import DriftConfig
from repro.resilience import ResiliencePolicy
from repro.serving.config import ExperienceConfig
from repro.strategies.transformations import all_sibling_swaps
from repro.workloads import db1, university_rule_base

#: The removed keywords, each with a value of the type it once took.
FORMER_KEYWORDS = {
    "delta": 0.1,
    "transformations_factory": all_sibling_swaps,
    "test_every": 2,
    "max_depth": 32,
    "resilience": ResiliencePolicy(),
    "checkpoint_dir": "checkpoints",
    "checkpoint_every": 7,
    "drift": DriftConfig(),
    "experience": ExperienceConfig.default_enabled(),
}


class TestDeprecatedKeywords:
    @pytest.mark.parametrize("keyword", sorted(FORMER_KEYWORDS))
    def test_former_keyword_raises(self, keyword):
        legacy = {keyword: FORMER_KEYWORDS[keyword]}
        with pytest.raises(TypeError, match=keyword):
            SelfOptimizingQueryProcessor(university_rule_base(), **legacy)

    def test_legacy_kwargs_warn(self):
        # The deprecation warning ended in removal: the keyword is now
        # a hard error, not a warning that can be filtered away.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match="delta"):
                SelfOptimizingQueryProcessor(
                    university_rule_base(), delta=0.1
                )

    def test_mixing_config_and_legacy_raises(self):
        for keyword, value in FORMER_KEYWORDS.items():
            with pytest.raises(TypeError, match=keyword):
                SelfOptimizingQueryProcessor(
                    university_rule_base(),
                    config=SessionConfig(),
                    **{keyword: value},
                )

    def test_config_only_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SelfOptimizingQueryProcessor(
                university_rule_base(), config=SessionConfig(delta=0.1)
            )

    def test_bare_construction_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            processor = SelfOptimizingQueryProcessor(university_rule_base())
        assert processor.config == SessionConfig()

    def test_recorder_is_not_deprecated(self):
        from repro import Tracer

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SelfOptimizingQueryProcessor(
                university_rule_base(), recorder=Tracer()
            )


class TestSessionConfigValidation:
    def test_checkpoint_every_validated(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            SessionConfig(checkpoint_every=0)

    def test_test_every_validated(self):
        with pytest.raises(ValueError, match="test_every"):
            SessionConfig(test_every=0)

    def test_from_options_builds_resilience(self):
        config = SessionConfig.from_options(retries=5, deadline=9.0)
        assert config.resilience is not None
        assert config.resilience.retry.max_attempts == 5
        assert config.resilience.deadline.budget == 9.0

    def test_from_options_deadline_alone_enables_resilience(self):
        config = SessionConfig.from_options(deadline=4.0)
        assert config.resilience is not None
        assert config.resilience.retry.max_attempts == 3  # default

    def test_from_options_builds_drift(self):
        config = SessionConfig.from_options(
            drift=True, drift_delta=0.01, drift_detector="page-hinkley"
        )
        assert config.drift is not None
        assert config.drift.delta == 0.01
        assert config.drift.detector == "page-hinkley"

    def test_from_options_neutral_by_default(self):
        config = SessionConfig.from_options()
        assert config.resilience is None and config.drift is None

    def test_with_overrides(self):
        config = SessionConfig(delta=0.05)
        changed = config.with_overrides(delta=0.2, test_every=4)
        assert changed.delta == 0.2 and changed.test_every == 4
        assert config.delta == 0.05  # original untouched


class TestExperienceAlongsideCheckpoints:
    """The experience store must coexist with the older persistence
    layers: checkpoints (a form's own mid-run state) always outrank a
    store neighbour's prior, and each on-disk format keeps its own
    versioned header and migration stub."""

    def _config(self, tmp_path):
        return SessionConfig(
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=1,
            experience=ExperienceConfig.default_enabled(
                str(tmp_path / "exp.json")
            ),
        )

    def test_checkpoint_outranks_warmstart(self, tmp_path):
        config = self._config(tmp_path)
        first = SelfOptimizingQueryProcessor(
            university_rule_base(), config=config
        )
        first.query(parse_query("instructor(manolis)"), db1())
        first.checkpoint_now()
        first.contribute_experience()

        second = SelfOptimizingQueryProcessor(
            university_rule_base(), config=config
        )
        second.query(parse_query("instructor(manolis)"), db1())
        report = second.report()
        entry = report["instructor^(b)"]
        # Restored from its own checkpoint; the store's prior is never
        # consulted for a resumed learner.
        assert entry["checkpoint"]["restored"] is True
        assert "warmstart" not in entry

    def test_fresh_form_still_warmstarts_next_to_checkpoints(
        self, tmp_path
    ):
        config = self._config(tmp_path)
        first = SelfOptimizingQueryProcessor(
            university_rule_base(), config=config
        )
        first.query(parse_query("instructor(manolis)"), db1())
        first.contribute_experience()

        # Same store, no checkpoint dir: the rebuilt form is fresh, so
        # the prior applies.
        second = SelfOptimizingQueryProcessor(
            university_rule_base(),
            config=SessionConfig(
                experience=ExperienceConfig.default_enabled(
                    str(tmp_path / "exp.json")
                )
            ),
        )
        second.query(parse_query("instructor(manolis)"), db1())
        entry = second.report()["instructor^(b)"]
        assert entry["warmstart"]["exact"] is True

    def test_formats_keep_separate_version_headers(self, tmp_path):
        import json

        from repro.experience.store import (
            EXPERIENCE_FORMAT,
            EXPERIENCE_VERSION,
            migrate_experience_payload,
        )
        from repro.errors import CheckpointError

        config = self._config(tmp_path)
        processor = SelfOptimizingQueryProcessor(
            university_rule_base(), config=config
        )
        processor.query(parse_query("instructor(manolis)"), db1())
        processor.checkpoint_now()
        processor.contribute_experience()

        store_payload = json.loads((tmp_path / "exp.json").read_text())
        assert store_payload["format"] == EXPERIENCE_FORMAT
        assert store_payload["version"] == EXPERIENCE_VERSION

        ckpts = list((tmp_path / "ckpt").glob("*.json"))
        assert ckpts
        ckpt_payload = json.loads(ckpts[0].read_text())
        assert ckpt_payload.get("format") != EXPERIENCE_FORMAT
        assert "version" in ckpt_payload

        # Cross-feeding one format into the other's loader is refused,
        # not misread.
        with pytest.raises(CheckpointError, match="format"):
            migrate_experience_payload(ckpt_payload)
