"""The five-step surface construction pipeline (Sec. III)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.network.graph import NetworkGraph
from repro.observability.tracer import ensure_tracer
from repro.surface.cdg import build_cdg
from repro.surface.cdm import build_cdm
from repro.surface.edgeflip import edge_flip
from repro.surface.holepatch import patch_holes
from repro.surface.hops import GroupHops
from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks
from repro.surface.mesh import TriangularMesh
from repro.surface.triangulation import complete_triangulation

#: Below four landmarks no closed triangular surface exists.
MIN_LANDMARKS = 4

#: Edge-flip / hole-patch alternations; each pass can expose work for the
#: other, and two rounds close every case seen in practice.
FINALIZE_ROUNDS = 6

#: How many coarser spacings (``k+1``, ``k+2``, ..) are also built when the
#: mesh at ``k`` is not fully closed.
QUALITY_RETRY_STEPS = 2


@dataclass(frozen=True)
class SurfaceConfig:
    """Surface-construction parameters.

    Attributes
    ----------
    k:
        Landmark separation in hops; "usually set between 3 to 5" in the
        paper.  Larger values give coarser meshes and leave more boundary
        nodes outside the mesh surface.  The default of 4 yields closed
        2-manifolds on the deployment densities this library ships; k=3
        needs denser boundary sampling to close every face.  Triangulation
        completion considers landmark pairs up to ``2k`` hops apart.
    adaptive_k:
        When a group elects fewer than ``MIN_LANDMARKS`` landmarks at
        spacing ``k`` (typical for small hole boundaries), retry with
        ``k-1, k-2, .., 2`` before giving up.  Matches the paper's remark
        that ``k`` is chosen "according to the needs of specific
        applications": a small hole needs a finer mesh.
    """

    k: int = 4
    adaptive_k: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass
class SurfaceBuildRecord:
    """Mesh plus the intermediate artifacts of its construction.

    Keeping the intermediates allows the benches to report exactly what the
    paper's Figs. 1(c)-1(f) show: landmarks, CDG (with crossing edges),
    CDM, and the final triangular mesh.  ``effective_k`` is the landmark
    spacing the mesh was actually built at -- after any ``adaptive_k``
    decay from the requested spacing.
    """

    mesh: TriangularMesh
    landmarks: List[int]
    cells: Dict[int, int]
    cdg_edges: set
    cdm_edges: set
    cdm_rejected: set
    effective_k: int = 0


class SurfaceBuilder:
    """Builds one triangular mesh per boundary group.

    Pass a :class:`repro.observability.Tracer` to record one
    ``surface.group`` span per group with one ``surface.attempt`` child
    per spacing tried, each stating the requested and effective (post
    ``adaptive_k`` decay) spacing and why it was built, skipped, or
    rejected.
    """

    def __init__(self, config: SurfaceConfig = SurfaceConfig(), tracer=None):
        self.config = config
        self._tracer = ensure_tracer(tracer)

    @staticmethod
    def _two_faced_fraction(record: "SurfaceBuildRecord") -> float:
        counts = record.mesh.edge_face_counts()
        if not counts:
            return 0.0
        return sum(1 for c in counts.values() if c == 2) / len(counts)

    def build_one(
        self, graph: NetworkGraph, group: Iterable[int]
    ) -> Optional[SurfaceBuildRecord]:
        """Run Steps I-V (plus hole patching) on a single boundary group.

        Returns None when the group is too small to carry a closed surface
        (fewer than ``MIN_LANDMARKS`` landmarks elected).  When the mesh at
        ``k`` does not close (some edge not on exactly two faces), the
        coarser spacings ``k+1 .. k+QUALITY_RETRY_STEPS`` are also built
        and the best mesh wins.  Each *effective* spacing is constructed
        at most once per group: a retry at ``k+1`` whose ``adaptive_k``
        decay lands back on an already-built spacing is skipped instead of
        silently rebuilding the identical mesh.  All attempts share one
        :class:`GroupHops`, so each landmark's hop row is computed once per
        group.
        """
        tracer = self._tracer
        hops = GroupHops(graph, group)
        with tracer.span(
            "surface.group", n_nodes=len(hops.members), requested_k=self.config.k
        ) as gspan:
            tried: Set[int] = set()
            election_cache: Dict[int, List[int]] = {}
            best = self._build_at_k(hops, self.config.k, tried, election_cache)
            best_score = self._two_faced_fraction(best) if best else 0.0
            k = self.config.k
            while best_score < 1.0 and k < self.config.k + QUALITY_RETRY_STEPS:
                k += 1
                candidate = self._build_at_k(hops, k, tried, election_cache)
                if candidate is None:
                    continue
                score = self._two_faced_fraction(candidate)
                if score > best_score or best is None:
                    tracer.event(
                        "quality_retry_accepted",
                        effective_k=candidate.effective_k,
                        score=score,
                        previous_score=best_score,
                    )
                    best, best_score = candidate, score
                else:
                    tracer.event(
                        "quality_retry_rejected",
                        effective_k=candidate.effective_k,
                        score=score,
                        best_score=best_score,
                    )
            if tracer.enabled:
                gspan.set("built", best is not None)
                if best is not None:
                    gspan.set("chosen_k", best.effective_k)
                    gspan.set("two_faced_fraction", self._two_faced_fraction(best))
        return best

    def _build_at_k(
        self,
        hops: GroupHops,
        k: int,
        tried: Set[int],
        election_cache: Dict[int, List[int]],
    ) -> Optional[SurfaceBuildRecord]:
        """One full construction attempt at landmark spacing ``k``.

        ``tried`` collects the effective spacings already *constructed*
        for this group; when the ``adaptive_k`` decay lands on one of
        them, the attempt is skipped (the mesh would be identical).
        ``election_cache`` memoizes ``elect_landmarks`` per spacing so the
        decay walk never re-elects a spacing it has already seen.
        """

        def elect(spacing: int) -> List[int]:
            if spacing not in election_cache:
                election_cache[spacing] = elect_landmarks(hops, spacing)
            return election_cache[spacing]

        with self._tracer.span("surface.attempt", requested_k=k) as span:
            landmarks = elect(k)
            while self.config.adaptive_k and len(landmarks) < MIN_LANDMARKS and k > 2:
                k -= 1
                landmarks = elect(k)
            span.set("effective_k", k)
            span.set("n_landmarks", len(landmarks))
            if len(landmarks) < MIN_LANDMARKS:
                span.set("outcome", "too_few_landmarks")
                return None
            if k in tried:
                span.set("outcome", "duplicate_spacing")
                return None
            tried.add(k)
            cells = assign_voronoi_cells(hops, landmarks)
            cdg_edges = build_cdg(hops, cells)
            cdm = build_cdm(hops, cells, cdg_edges)
            edges, paths = complete_triangulation(
                hops, landmarks, cdm, candidate_radius=2 * k
            )

            mesh = TriangularMesh(vertices=landmarks, group=hops.nodes.tolist())
            for u, v in sorted(edges):
                mesh.add_edge(u, v, path=paths.get((u, v)))

            for _ in range(FINALIZE_ROUNDS):
                dirty = False
                if mesh.edges_with_face_count(3):
                    edge_flip(mesh, hops)
                    dirty = True
                if any(c <= 1 for c in mesh.edge_face_counts().values()):
                    patch_holes(mesh, hops)
                    dirty = True
                if not dirty:
                    break
            if self._tracer.enabled:
                span.set("outcome", "built")
                span.set("n_cdg_edges", len(cdg_edges))
                span.set("n_cdm_edges", len(cdm.edges))
                span.set("n_mesh_edges", len(mesh.edges))
            return SurfaceBuildRecord(
                mesh=mesh,
                landmarks=landmarks,
                cells=cells,
                cdg_edges=cdg_edges,
                cdm_edges=set(cdm.edges),
                cdm_rejected=set(cdm.rejected),
                effective_k=k,
            )

    def build(
        self, graph: NetworkGraph, groups: Iterable[Iterable[int]]
    ) -> List[TriangularMesh]:
        """Build meshes for all groups large enough to carry one."""
        return [record.mesh for record in self.build_records(graph, groups)]

    def build_records(
        self, graph: NetworkGraph, groups: Iterable[Iterable[int]]
    ) -> List[SurfaceBuildRecord]:
        """Like :meth:`build` but keeps the per-step intermediates."""
        records: List[SurfaceBuildRecord] = []
        for group in groups:
            record = self.build_one(graph, group)
            if record is not None:
                records.append(record)
        return records


def build_boundary_surfaces(
    graph: NetworkGraph,
    groups: Iterable[Iterable[int]],
    config: SurfaceConfig = SurfaceConfig(),
) -> List[TriangularMesh]:
    """Functional one-shot form of :class:`SurfaceBuilder`."""
    return SurfaceBuilder(config).build(graph, groups)
