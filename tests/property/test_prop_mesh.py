"""Property-based tests for TriangularMesh topology invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.surface.mesh import TriangularMesh, edge_key


@st.composite
def random_mesh(draw):
    n = draw(st.integers(4, 12))
    vertices = list(range(n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=0, max_size=len(possible), unique=True)
    )
    mesh = TriangularMesh(vertices=vertices)
    for u, v in edges:
        mesh.add_edge(u, v, hop_length=1)
    return mesh


@st.composite
def saturated_mesh(draw):
    """A random mesh around a 5- or 6-clique, so some edges carry three or
    four triangles."""
    mesh = draw(random_mesh().filter(lambda m: len(m.vertices) >= 6))
    clique = draw(
        st.lists(st.sampled_from(mesh.vertices), min_size=5, max_size=6, unique=True)
    )
    for i, u in enumerate(clique):
        for v in clique[i + 1 :]:
            mesh.add_edge(u, v, hop_length=1)
    return mesh


def face_counts_from_triangles(mesh):
    """Per-edge face counts read off the triangle list."""
    counts = {e: 0 for e in mesh.edges}
    for a, b, c in mesh.triangles():
        for pair in ((a, b), (a, c), (b, c)):
            counts[edge_key(*pair)] += 1
    return counts


class TestMeshInvariants:
    @given(random_mesh())
    @settings(max_examples=80, deadline=None)
    def test_triangles_are_cliques(self, mesh):
        for a, b, c in mesh.triangles():
            assert mesh.has_edge(a, b)
            assert mesh.has_edge(b, c)
            assert mesh.has_edge(a, c)

    @given(random_mesh())
    @settings(max_examples=80, deadline=None)
    def test_face_count_sum_is_three_times_triangles(self, mesh):
        counts = mesh.edge_face_counts()
        assert sum(counts.values()) == 3 * len(mesh.triangles())

    @given(random_mesh())
    @settings(max_examples=80, deadline=None)
    def test_manifold_implies_even_face_budget(self, mesh):
        """On a 2-manifold, 2E = 3F exactly."""
        if mesh.is_two_manifold():
            assert 2 * len(mesh.edges) == 3 * len(mesh.triangles())

    @given(random_mesh())
    @settings(max_examples=80, deadline=None)
    def test_remove_edge_removes_incident_triangles(self, mesh):
        if not mesh.edges:
            return
        target = sorted(mesh.edges)[0]
        before = {t for t in mesh.triangles()}
        mesh.remove_edge(*target)
        after = {t for t in mesh.triangles()}
        # Every removed triangle contained the removed edge.
        for tri in before - after:
            pairs = {edge_key(tri[0], tri[1]), edge_key(tri[1], tri[2]),
                     edge_key(tri[0], tri[2])}
            assert target in pairs
        # No new triangles appear.
        assert after <= before

    @given(random_mesh())
    @settings(max_examples=50, deadline=None)
    def test_adjacency_matches_edges(self, mesh):
        adj = mesh.adjacency()
        recovered = set()
        for u, nbrs in adj.items():
            for v in nbrs:
                recovered.add(edge_key(u, v))
        assert recovered == mesh.edges

    @given(st.one_of(random_mesh(), saturated_mesh()))
    @settings(max_examples=80, deadline=None)
    def test_face_counts_match_triangles(self, mesh):
        counts = mesh.edge_face_counts()
        reference = face_counts_from_triangles(mesh)
        assert counts == reference
        assert mesh.is_two_manifold() == (
            bool(reference) and all(c == 2 for c in reference.values())
        )
        assert mesh.euler_characteristic() == (
            len(mesh.vertices) - len(mesh.edges) + len(mesh.triangles())
        )

    @given(saturated_mesh())
    @settings(max_examples=40, deadline=None)
    def test_saturated_meshes_have_three_faced_edges(self, mesh):
        assert max(mesh.edge_face_counts().values()) >= 3
        assert mesh.edges_with_face_count(3)
        assert not mesh.is_two_manifold()
