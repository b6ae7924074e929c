"""The distributed protocols compute exactly what the reference code does.

These tests are the proof obligation for DESIGN.md's dual-implementation
claim: every centralized-but-localized computation in repro.core /
repro.surface is the fixed point of a one-hop message-passing protocol.
"""

from collections import defaultdict

import pytest

from repro.core.grouping import group_boundary_nodes
from repro.core.iff import iff_fragment_sizes
from repro.runtime.protocols import (
    distributed_landmark_election,
    run_grouping_distributed,
    run_iff_distributed,
    run_voronoi_distributed,
)
from repro.surface.hops import GroupHops
from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks


@pytest.fixture(scope="module")
def boundary_setup(sphere_network, sphere_detection):
    graph = sphere_network.graph
    candidates = sphere_detection.candidates
    boundary = sphere_detection.boundary
    group = sphere_detection.groups[0]
    return graph, candidates, boundary, group


class TestIFFEquivalence:
    def test_flood_counts_match_bfs(self, boundary_setup):
        graph, candidates, _, _ = boundary_setup
        sizes = iff_fragment_sizes(graph, candidates, ttl=3)
        survivors, result = run_iff_distributed(graph, candidates, theta=20, ttl=3)
        for node, state in result.states.items():
            assert len(state["heard"]) == sizes[node]

    def test_survivor_sets_match(self, boundary_setup):
        graph, candidates, _, _ = boundary_setup
        sizes = iff_fragment_sizes(graph, candidates, ttl=3)
        expected = {n for n, s in sizes.items() if s >= 20}
        survivors, _ = run_iff_distributed(graph, candidates, theta=20, ttl=3)
        assert survivors == expected

    def test_flood_cost_pinned(self, boundary_setup):
        """First arrival wins: under synchronous loss-free delivery every
        copy of an originator reaching a node in one round carries the same
        TTL, so the flood needs no best-TTL map.  The round and message
        counts are those of the best-TTL flood it replaced."""
        graph, candidates, _, _ = boundary_setup
        _, result = run_iff_distributed(graph, candidates, theta=20, ttl=3)
        assert (result.rounds, result.messages_sent) == (3, 133_856)
        assert result.quiesced


class TestGroupingEquivalence:
    def test_labels_encode_components(self, boundary_setup):
        graph, _, boundary, _ = boundary_setup
        expected_groups = group_boundary_nodes(graph, boundary)
        labels, _ = run_grouping_distributed(graph, boundary)
        by_label = defaultdict(list)
        for node, label in labels.items():
            by_label[label].append(node)
        got = sorted(
            (sorted(v) for v in by_label.values()), key=lambda c: (-len(c), c[0])
        )
        assert got == expected_groups

    def test_label_is_component_minimum(self, boundary_setup):
        graph, _, boundary, _ = boundary_setup
        labels, _ = run_grouping_distributed(graph, boundary)
        for group in group_boundary_nodes(graph, boundary):
            for node in group:
                assert labels[node] == group[0]


class TestLandmarkEquivalence:
    @pytest.mark.parametrize("k", [3, 4])
    def test_election_matches_greedy(self, boundary_setup, k):
        graph, _, _, group = boundary_setup
        expected = elect_landmarks(GroupHops(graph, group), k)
        got, messages = distributed_landmark_election(graph, group, k)
        assert got == expected
        assert messages > 0


class TestVoronoiEquivalence:
    def test_cells_match(self, boundary_setup):
        graph, _, _, group = boundary_setup
        hops = GroupHops(graph, group)
        landmarks = elect_landmarks(hops, 4)
        expected = assign_voronoi_cells(hops, landmarks)
        got, _ = run_voronoi_distributed(graph, group, landmarks)
        assert got == expected
