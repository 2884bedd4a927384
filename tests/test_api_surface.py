"""The public API surface, pinned to a committed snapshot.

``tests/fixtures/api_surface.txt`` is the contract: one exported name
per line, sorted.  Adding or removing a top-level export is a
deliberate API change — update the snapshot in the same commit and
call it out in the changelog.  The test fails in *both* directions
(new unlisted export, listed-but-missing export) so the snapshot can
never drift silently.
"""

import os

import repro

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "api_surface.txt"
)


def load_snapshot():
    with open(FIXTURE, encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


class TestApiSurface:
    def test_snapshot_matches_exports(self):
        snapshot = load_snapshot()
        exported = sorted(repro.__all__)
        added = sorted(set(exported) - set(snapshot))
        removed = sorted(set(snapshot) - set(exported))
        assert exported == snapshot, (
            f"public API drifted from tests/fixtures/api_surface.txt "
            f"(new exports: {added}; missing exports: {removed}); "
            "update the snapshot deliberately if this is intended"
        )

    def test_snapshot_is_sorted_and_unique(self):
        snapshot = load_snapshot()
        assert snapshot == sorted(set(snapshot))

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing {name!r}"

    def test_serving_entry_points_exported(self):
        # The session facade is the documented entry point; pin the
        # names the README quickstart uses.
        for name in (
            "open_session", "QuerySession", "QueryServer", "SessionConfig",
            "CacheConfig", "ServingConfig", "StreamReport",
        ):
            assert name in repro.__all__
