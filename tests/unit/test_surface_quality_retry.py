"""Regression tests: quality_retry must not rebuild an already-tried spacing.

Before the fix, a ``quality_retry`` attempt at ``k+1`` whose ``adaptive_k``
decay landed back on an already-built effective spacing silently rebuilt
the identical mesh (same landmarks, same CDG/CDM, same triangulation) and
re-scored it -- wasted work that also inflated the attempt counters.  Each
effective spacing must now be constructed at most once per group.
"""

import pytest

from repro.observability.tracer import TickClock, Tracer
from repro.surface.pipeline import SurfaceBuilder, SurfaceConfig


@pytest.fixture
def group(sphere_detection):
    return sphere_detection.groups[0]


def _force_decay_to_k2(monkeypatch):
    """Make every spacing >= 3 elect nothing, so all attempts decay to 2."""
    from repro.surface import landmarks as landmarks_mod

    real_elect = landmarks_mod.elect_landmarks

    def fake_elect(hops, k):
        if k >= 3:
            return []
        return real_elect(hops, k)

    monkeypatch.setattr("repro.surface.pipeline.elect_landmarks", fake_elect)


class TestDuplicateSpacingSkipped:
    def test_each_effective_spacing_constructed_at_most_once(
        self, sphere_network, group, monkeypatch
    ):
        _force_decay_to_k2(monkeypatch)
        # Report every mesh as imperfect so quality_retry always kicks in.
        monkeypatch.setattr(
            SurfaceBuilder, "_two_faced_fraction", staticmethod(lambda record: 0.5)
        )

        built_at = []
        from repro.surface import cdg as cdg_mod

        real_build_cdg = cdg_mod.build_cdg

        def counting_build_cdg(hops, cells):
            built_at.append(len(built_at))
            return real_build_cdg(hops, cells)

        monkeypatch.setattr("repro.surface.pipeline.build_cdg", counting_build_cdg)

        tracer = Tracer(clock=TickClock())
        record = SurfaceBuilder(SurfaceConfig(), tracer=tracer).build_one(
            sphere_network.graph, group
        )

        assert record is not None
        assert record.effective_k == 2
        # The initial attempt decays 4 -> 2 and builds; both quality_retry
        # attempts (requested 5 and 6) decay onto 2 and must be skipped.
        assert len(built_at) == 1

        (group_span,) = tracer.roots
        attempts = [c for c in group_span.children if c.name == "surface.attempt"]
        assert [a.attrs["outcome"] for a in attempts] == [
            "built", "duplicate_spacing", "duplicate_spacing",
        ]
        assert all(a.attrs["effective_k"] == 2 for a in attempts)

    def test_built_effective_spacings_are_unique_per_group(
        self, sphere_network, sphere_detection
    ):
        tracer = Tracer(clock=TickClock())
        builder = SurfaceBuilder(tracer=tracer)
        builder.build_records(sphere_network.graph, sphere_detection.groups)

        for group_span in tracer.roots:
            assert group_span.name == "surface.group"
            built_ks = [
                c.attrs["effective_k"]
                for c in group_span.children
                if c.name == "surface.attempt" and c.attrs.get("outcome") == "built"
            ]
            assert len(built_ks) == len(set(built_ks))

    def test_distinct_spacings_still_tried(self, sphere_network, group, monkeypatch):
        """The dedup must not suppress genuinely new spacings."""
        monkeypatch.setattr(
            SurfaceBuilder, "_two_faced_fraction", staticmethod(lambda record: 0.5)
        )
        tracer = Tracer(clock=TickClock())
        SurfaceBuilder(SurfaceConfig(), tracer=tracer).build_one(
            sphere_network.graph, group
        )
        (group_span,) = tracer.roots
        attempts = [c for c in group_span.children if c.name == "surface.attempt"]
        built_ks = [
            a.attrs["effective_k"] for a in attempts
            if a.attrs.get("outcome") == "built"
        ]
        # Requested spacings 4, 5, 6 all elect enough landmarks on the
        # outer sphere boundary, so no decay collision occurs.
        assert built_ks == [4, 5, 6]

    def test_record_keeps_effective_k(self, sphere_network, group):
        record = SurfaceBuilder().build_one(sphere_network.graph, group)
        assert record is not None
        assert record.effective_k >= 2
