"""Landmark-level triangular mesh data structure.

The surface-construction pipeline produces a graph over landmark nodes whose
faces are triangles.  :class:`TriangularMesh` stores the vertices (landmark
node IDs), the virtual edges with the boundary-node paths realizing them,
and per-edge hop lengths, and provides the topological diagnostics the
paper's claims are checked against: triangle enumeration, per-edge face
counts, 2-manifoldness, and the Euler characteristic/genus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

Edge = Tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    if u == v:
        raise ValueError("self-loops are not valid mesh edges")
    return (u, v) if u < v else (v, u)


@dataclass
class TriangularMesh:
    """A landmark mesh over one boundary surface.

    Attributes
    ----------
    vertices:
        Landmark node IDs (sorted).
    edges:
        Canonical virtual edges between landmarks.
    paths:
        For edges realized by a boundary-node shortest path, the full node
        path including both landmark endpoints.  Edges introduced by the
        edge-flip step may have no recorded path.
    hop_lengths:
        Hop distance between the endpoints of each edge (the
        connectivity-only notion of edge length used by edge flips).
    group:
        The boundary-node group this mesh was built from.
    """

    vertices: List[int]
    edges: Set[Edge] = field(default_factory=set)
    paths: Dict[Edge, List[int]] = field(default_factory=dict)
    hop_lengths: Dict[Edge, int] = field(default_factory=dict)
    group: List[int] = field(default_factory=list)

    def __post_init__(self):
        self.vertices = sorted(set(self.vertices))
        vertex_set = set(self.vertices)
        for u, v in self.edges:
            if u not in vertex_set or v not in vertex_set:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")

    # ------------------------------------------------------------------
    # Mutation (used by construction steps)
    # ------------------------------------------------------------------

    def add_edge(
        self,
        u: int,
        v: int,
        *,
        path: Optional[List[int]] = None,
        hop_length: Optional[int] = None,
    ) -> None:
        """Insert a virtual edge (idempotent)."""
        key = edge_key(u, v)
        self.edges.add(key)
        if path is not None:
            self.paths[key] = list(path)
            if hop_length is None:
                hop_length = len(path) - 1
        if hop_length is not None:
            self.hop_lengths[key] = int(hop_length)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete a virtual edge and its bookkeeping."""
        key = edge_key(u, v)
        self.edges.discard(key)
        self.paths.pop(key, None)
        self.hop_lengths.pop(key, None)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the two landmarks are connected by a virtual edge."""
        return edge_key(u, v) in self.edges

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------

    def adjacency(self) -> Dict[int, Set[int]]:
        """Vertex -> set of mesh-adjacent vertices."""
        adj: Dict[int, Set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def triangles(self) -> List[Tuple[int, int, int]]:
        """All triangles (3-cliques) of the landmark graph, sorted.

        After the construction pipeline the 3-cliques are exactly the mesh
        faces; the edge-flip step exists precisely to make that reading
        consistent (no edge on more than two triangles).
        """
        adj = self.adjacency()
        found: Set[Tuple[int, int, int]] = set()
        for u, v in self.edges:
            for w in adj[u] & adj[v]:
                tri = tuple(sorted((u, v, w)))
                found.add(tri)  # type: ignore[arg-type]
        return sorted(found)

    def edge_face_counts(self) -> Dict[Edge, int]:
        """Number of triangles incident to every edge.

        Edge ``(u, v)`` lies on one triangle per common neighbour of ``u``
        and ``v``; :meth:`triangles` is the reference this count is tested
        against.
        """
        adj = self.adjacency()
        return {(u, v): len(adj[u] & adj[v]) for u, v in self.edges}

    def edges_with_face_count(self, minimum: int) -> List[Edge]:
        """Edges whose triangle count is at least ``minimum``."""
        return sorted(e for e, c in self.edge_face_counts().items() if c >= minimum)

    def is_two_manifold(self) -> bool:
        """Whether every edge lies on exactly two triangles.

        This is the closed-2-manifold condition the paper's Step V
        establishes; open meshes (edges on one triangle) and over-saturated
        edges (three or more) both fail.
        """
        counts = self.edge_face_counts()
        if not counts:
            return False
        return all(c == 2 for c in counts.values())

    def euler_characteristic(self) -> int:
        """``V - E + F`` with F the triangle count."""
        return len(self.vertices) - len(self.edges) + len(self.triangles())

    def genus(self) -> Optional[float]:
        """Surface genus ``(2 - chi) / 2``; None when not an integer.

        Only meaningful for closed 2-manifold meshes: a sphere-like
        boundary has genus 0, a torus-like one genus 1.
        """
        chi = self.euler_characteristic()
        genus_twice = 2 - chi
        if genus_twice % 2 != 0:
            return None
        return genus_twice / 2

    def covered_nodes(self) -> Set[int]:
        """Boundary nodes participating in the mesh (landmarks + path nodes)."""
        covered: Set[int] = set(self.vertices)
        for path in self.paths.values():
            covered.update(path)
        return covered

    def summary(self) -> str:
        """One-line diagnostic used by examples and benches."""
        tris = self.triangles()
        return (
            f"mesh: V={len(self.vertices)} E={len(self.edges)} F={len(tris)} "
            f"chi={self.euler_characteristic()} "
            f"2-manifold={self.is_two_manifold()}"
        )
