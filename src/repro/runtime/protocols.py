"""Message-level protocols for the paper's localized building blocks.

The TTL flood (IFF), min-label grouping, Voronoi cells and the phased
landmark election, each run on the synchronous loss-free
:class:`~repro.runtime.simulator.Simulator`, plus the ``run_*_distributed``
drivers that return their fixed points in the shape of the centralized
code's results.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.network.graph import NetworkGraph
from repro.runtime.simulator import NodeContext, Protocol, SimulationResult, Simulator


class TTLFloodProtocol(Protocol):
    """IFF's local flood (Sec. II-B).

    Every participant originates one flooding packet with TTL ``ttl``; a
    node re-broadcasts an originator's packet, with a decremented TTL, the
    first time it hears that originator.  Under synchronous delivery the
    first round in which an originator reaches a node is its hop distance,
    and every copy arriving in that round carries the same residual TTL, so
    first arrival wins.  On quiescence each node's ``state["heard"]`` holds
    the set of distinct originators it received (itself included), i.e.
    exactly the participants within ``ttl`` hops in the participant-induced
    subgraph -- the count IFF compares against ``theta``.
    """

    def __init__(self, ttl: int):
        if ttl < 1:
            raise ValueError("ttl must be at least 1")
        self.ttl = ttl

    def on_start(self, ctx: NodeContext) -> None:
        ctx.state["heard"] = {ctx.node}
        ctx.broadcast((ctx.node, self.ttl))

    def on_message(self, ctx: NodeContext, sender: int, payload: Any) -> None:
        origin, ttl = payload
        heard: Set[int] = ctx.state["heard"]
        if origin in heard:
            return
        heard.add(origin)
        if ttl > 1:
            ctx.broadcast((origin, ttl - 1))


class MinLabelProtocol(Protocol):
    """Boundary grouping by min-ID label propagation.

    Each participant starts with its own ID as label and adopts (and
    re-broadcasts) any smaller label it hears.  On quiescence
    ``state["label"]`` is the smallest node ID of the participant's
    connected component -- nodes sharing a label share a boundary.
    """

    def on_start(self, ctx: NodeContext) -> None:
        ctx.state["label"] = ctx.node
        ctx.broadcast(ctx.node)

    def on_message(self, ctx: NodeContext, sender: int, payload: Any) -> None:
        label = int(payload)
        if label < ctx.state["label"]:
            ctx.state["label"] = label
            ctx.broadcast(label)


class VoronoiCellProtocol(Protocol):
    """Step I's closest-landmark association (combinatorial Voronoi cells).

    Landmarks start with label ``(0, self)``; every node adopts the
    lexicographically smallest ``(hops, landmark)`` it can prove, which is
    exactly "closest landmark, smallest ID as tiebreaker".  On quiescence
    ``state["cell"]`` holds the owning landmark (None for unreachable
    nodes, which cannot happen inside one connected group).
    """

    def __init__(self, landmarks: Iterable[int]):
        self.landmarks = set(int(l) for l in landmarks)

    def on_start(self, ctx: NodeContext) -> None:
        if ctx.node in self.landmarks:
            ctx.state["best"] = (0, ctx.node)
            ctx.broadcast((0, ctx.node))
        else:
            ctx.state["best"] = None

    def on_message(self, ctx: NodeContext, sender: int, payload: Any) -> None:
        dist, landmark = payload
        candidate = (dist + 1, landmark)
        best = ctx.state["best"]
        if best is None or candidate < best:
            ctx.state["best"] = candidate
            ctx.broadcast(candidate)

    def on_finish(self, ctx: NodeContext) -> None:
        best = ctx.state["best"]
        ctx.state["cell"] = best[1] if best is not None else None


class _BoundedFloodProtocol(Protocol):
    """Internal: flood (origin, hops) up to a hop bound from given sources.

    Used by the phased landmark election: after quiescence every node's
    ``state["dist"]`` maps each source within the bound to its hop
    distance.
    """

    def __init__(self, sources: Set[int], max_hops: int):
        self.sources = sources
        self.max_hops = max_hops

    def on_start(self, ctx: NodeContext) -> None:
        ctx.state["dist"] = {}
        if ctx.node in self.sources:
            ctx.state["dist"][ctx.node] = 0
            if self.max_hops >= 1:
                ctx.broadcast((ctx.node, 1))

    def on_message(self, ctx: NodeContext, sender: int, payload: Any) -> None:
        origin, hops = payload
        dist: Dict[int, int] = ctx.state["dist"]
        if origin in dist and dist[origin] <= hops:
            return
        dist[origin] = hops
        if hops < self.max_hops:
            ctx.broadcast((origin, hops + 1))


def distributed_landmark_election(
    graph: NetworkGraph,
    group: Iterable[int],
    k: int,
    *,
    max_phases: int = 10_000,
) -> Tuple[List[int], int]:
    """Phased k-hop MIS election over the boundary subgraph.

    In each phase every *undecided* node floods its ID ``k - 1`` hops
    through the group; a node that hears no smaller undecided ID within
    ``k - 1`` hops declares itself a landmark, and every undecided node
    within ``k - 1`` hops of a new landmark becomes a decided non-landmark.
    Phases repeat until all nodes are decided.  The result equals the
    sequential greedy election of
    :func:`repro.surface.landmarks.elect_landmarks`.

    Returns
    -------
    (landmarks, messages)
        Sorted landmark IDs and the total message count across phases.
    """
    members = set(int(g) for g in group)
    undecided: Set[int] = set(members)
    landmarks: Set[int] = set()
    total_messages = 0
    for _ in range(max_phases):
        if not undecided:
            break
        protocol = _BoundedFloodProtocol(set(undecided), max_hops=k - 1)
        result = Simulator(graph, participants=members).run(protocol)
        total_messages += result.messages_sent
        new_landmarks = set()
        for node in undecided:
            dist = result.states[node]["dist"]
            heard_smaller = any(
                other < node for other in dist if other in undecided and other != node
            )
            if not heard_smaller:
                new_landmarks.add(node)
        landmarks.update(new_landmarks)
        # Suppress every undecided node within k-1 hops of a new landmark.
        suppressed = set()
        for node in undecided:
            dist = result.states[node]["dist"]
            if node in new_landmarks:
                suppressed.add(node)
            elif any(lm in dist for lm in new_landmarks):  # lint: allow[DET007] -- any() over membership tests is commutative; order cannot change the verdict
                suppressed.add(node)
        undecided -= suppressed
    return sorted(landmarks), total_messages


def run_iff_distributed(
    graph: NetworkGraph,
    candidates: Iterable[int],
    theta: int,
    ttl: int,
    *,
    max_rounds: int = 10_000,
) -> Tuple[Set[int], SimulationResult]:
    """IFF as an actual protocol run (message-level Sec. II-B).

    Returns the surviving candidate set plus the raw simulation result
    (for message accounting).
    """
    candidate_set = set(int(c) for c in candidates)
    sim = Simulator(graph, participants=candidate_set)
    result = sim.run(TTLFloodProtocol(ttl), max_rounds=max_rounds)
    survivors = {
        node
        for node, state in result.states.items()
        if len(state["heard"]) >= theta
    }
    return survivors, result


def run_grouping_distributed(
    graph: NetworkGraph,
    boundary: Iterable[int],
    *,
    max_rounds: int = 10_000,
) -> Tuple[Dict[int, int], SimulationResult]:
    """Grouping as min-label propagation; returns node -> group label."""
    boundary_set = set(int(b) for b in boundary)
    sim = Simulator(graph, participants=boundary_set)
    result = sim.run(MinLabelProtocol(), max_rounds=max_rounds)
    labels = {node: state["label"] for node, state in result.states.items()}
    return labels, result


def run_voronoi_distributed(
    graph: NetworkGraph,
    group: Iterable[int],
    landmarks: Iterable[int],
) -> Tuple[Dict[int, Optional[int]], SimulationResult]:
    """Voronoi cells as a protocol run; returns node -> landmark."""
    members = set(int(g) for g in group)
    sim = Simulator(graph, participants=members)
    result = sim.run(VoronoiCellProtocol(landmarks))
    cells = {node: state["cell"] for node, state in result.states.items()}
    return cells, result
