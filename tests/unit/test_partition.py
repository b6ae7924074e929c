"""Unit tests for surface partitioning."""

import numpy as np
import pytest

from repro.applications.partition import balanced_partition, cell_partition
from repro.network.graph import NetworkGraph
from repro.surface.hops import GroupHops
from repro.surface.landmarks import elect_landmarks


@pytest.fixture
def ring_graph():
    n = 24
    pts = [
        [np.cos(2 * np.pi * i / n) * 3.2, np.sin(2 * np.pi * i / n) * 3.2, 0.0]
        for i in range(n)
    ]
    return NetworkGraph(np.array(pts), radio_range=1.0)


class TestCellPartition:
    def test_covers_group_disjointly(self, ring_graph):
        group = list(range(24))
        landmarks = elect_landmarks(GroupHops(ring_graph, group), 3)
        partition = cell_partition(ring_graph, group, landmarks)
        flat = [n for p in partition.patches for n in p]
        assert sorted(flat) == group

    def test_heads_are_landmarks(self, ring_graph):
        group = list(range(24))
        landmarks = elect_landmarks(GroupHops(ring_graph, group), 3)
        partition = cell_partition(ring_graph, group, landmarks)
        assert partition.heads == sorted(landmarks)

    def test_patches_contiguous(self, ring_graph):
        group = list(range(24))
        landmarks = elect_landmarks(GroupHops(ring_graph, group), 3)
        partition = cell_partition(ring_graph, group, landmarks)
        for patch in partition.patches:
            hops = ring_graph.bfs_hops([patch[0]], within=set(patch))
            assert set(hops) == set(patch)

    def test_patch_of_lookup(self, ring_graph):
        group = list(range(24))
        landmarks = elect_landmarks(GroupHops(ring_graph, group), 3)
        partition = cell_partition(ring_graph, group, landmarks)
        lookup = partition.patch_of()
        for idx, patch in enumerate(partition.patches):
            for node in patch:
                assert lookup[node] == idx


class TestBalancedPartition:
    def test_reaches_requested_count(self, ring_graph):
        group = list(range(24))
        landmarks = elect_landmarks(GroupHops(ring_graph, group), 2)
        partition = balanced_partition(ring_graph, group, landmarks, 3)
        assert len(partition.patches) == 3

    def test_patches_stay_contiguous(self, ring_graph):
        group = list(range(24))
        landmarks = elect_landmarks(GroupHops(ring_graph, group), 2)
        partition = balanced_partition(ring_graph, group, landmarks, 3)
        for patch in partition.patches:
            hops = ring_graph.bfs_hops([patch[0]], within=set(patch))
            assert set(hops) == set(patch)

    def test_rough_balance_on_ring(self, ring_graph):
        group = list(range(24))
        landmarks = elect_landmarks(GroupHops(ring_graph, group), 2)
        partition = balanced_partition(ring_graph, group, landmarks, 4)
        assert max(partition.sizes) <= 3 * min(partition.sizes)

    def test_invalid_counts(self, ring_graph):
        group = list(range(24))
        landmarks = elect_landmarks(GroupHops(ring_graph, group), 2)
        with pytest.raises(ValueError):
            balanced_partition(ring_graph, group, landmarks, 0)
        with pytest.raises(ValueError):
            balanced_partition(ring_graph, group, landmarks, 99)

    def test_on_real_boundary(self, sphere_network, sphere_detection):
        group = sphere_detection.groups[0]
        landmarks = elect_landmarks(GroupHops(sphere_network.graph, group), 4)
        partition = balanced_partition(sphere_network.graph, group, landmarks, 4)
        assert len(partition.patches) == 4
        flat = [n for p in partition.patches for n in p]
        assert sorted(flat) == sorted(group)
