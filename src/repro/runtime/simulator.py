"""Round-based synchronous message-passing simulator.

Execution model: in round 0 every participating node runs
``Protocol.on_start``; messages emitted in round ``t`` are delivered at the
start of round ``t + 1``, when each recipient handles them one at a time
via ``Protocol.on_message``.  Delivery is loss-free, as the paper assumes.
The simulation ends when no message is left in flight (quiescence) or a
round cap is hit, in which case a :class:`NonQuiescentTermination` warning
is emitted.

The simulator optionally restricts participation to a node subset: a node
only sees its participating neighbors, which models the paper's floods that
are "forwarded by other boundary nodes but not non-boundary nodes" without
the protocol code having to know.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.network.graph import NetworkGraph
from repro.observability.tracer import ensure_tracer
from repro.runtime.message import Message


class NonQuiescentTermination(RuntimeWarning):
    """The round cap was hit with messages still pending."""


class NodeContext:
    """Per-node facilities handed to protocol callbacks.

    Attributes
    ----------
    node:
        This node's ID.
    neighbors:
        IDs of the node's participating one-hop neighbors.
    state:
        The node's private mutable state dict; protocols keep everything
        here so that a single protocol instance can serve all nodes.
    """

    def __init__(self, node: int, neighbors: List[int], outbox: List[Message]):
        self.node = node
        self.neighbors = neighbors
        self.state: Dict[str, Any] = {}
        self._outbox = outbox

    def send(self, to: int, payload: Any) -> None:
        """Queue a message to one neighbor (delivered next round)."""
        if to not in self.neighbors:
            raise ValueError(
                f"node {self.node} cannot send to non-neighbor {to}"
            )
        self._outbox.append(Message(self.node, to, payload))

    def broadcast(self, payload: Any) -> None:
        """Queue the same message to every participating neighbor."""
        for nbr in self.neighbors:
            self._outbox.append(Message(self.node, nbr, payload))


class Protocol(ABC):
    """A distributed algorithm expressed as per-node event handlers."""

    @abstractmethod
    def on_start(self, ctx: NodeContext) -> None:
        """Round-0 initialization at one node."""

    @abstractmethod
    def on_message(self, ctx: NodeContext, sender: int, payload: Any) -> None:
        """Handle one delivered message at one node."""

    def on_finish(self, ctx: NodeContext) -> None:
        """Optional post-quiescence hook at one node."""


@dataclass
class SimulationResult:
    """Outcome of one protocol run.

    Attributes
    ----------
    states:
        ``node -> final state dict``.
    rounds:
        Number of delivery rounds executed.
    messages_sent:
        Total messages queued (the localized-cost observable).
    quiesced:
        True when the run ended by quiescence rather than the round cap.
    """

    states: Dict[int, Dict[str, Any]]
    rounds: int
    messages_sent: int
    quiesced: bool


class Simulator:
    """Synchronous executor of a :class:`Protocol` over a network graph.

    Parameters
    ----------
    graph:
        Connectivity; messages travel along its edges only.
    participants:
        Node subset running the protocol (default: all nodes).  Each
        participant's neighbor list holds participants only.
    """

    def __init__(
        self,
        graph: NetworkGraph,
        participants: Optional[Iterable[int]] = None,
    ):
        self.graph = graph
        if participants is None:
            self._participants: Set[int] = set(range(graph.n_nodes))
        else:
            self._participants = set(int(p) for p in participants)

    def run(
        self,
        protocol: Protocol,
        *,
        max_rounds: int = 10_000,
        tracer=None,
    ) -> SimulationResult:
        """Execute ``protocol`` to quiescence (or the round cap).

        ``tracer`` (optional :class:`repro.observability.Tracer`) wraps the
        run in a ``simulator.run`` span recording the protocol name,
        participant count, and the round/message counters of the returned
        :class:`SimulationResult`.
        """
        tracer = ensure_tracer(tracer)
        with tracer.span(
            "simulator.run",
            protocol=type(protocol).__name__,
            n_participants=len(self._participants),
            max_rounds=max_rounds,
        ) as span:
            result = self._run(protocol, max_rounds=max_rounds)
            if tracer.enabled:
                span.set("rounds", result.rounds)
                span.set("messages_sent", result.messages_sent)
                span.set("quiesced", result.quiesced)
        return result

    def _run(self, protocol: Protocol, *, max_rounds: int) -> SimulationResult:
        outbox: List[Message] = []
        contexts: Dict[int, NodeContext] = {}
        for node in sorted(self._participants):
            neighbor_ids = [
                int(v)
                for v in self.graph.neighbors(node)
                if int(v) in self._participants
            ]
            contexts[node] = NodeContext(node, neighbor_ids, outbox)

        messages_sent = 0
        for node in sorted(contexts):
            protocol.on_start(contexts[node])
        rounds = 0
        while outbox and rounds < max_rounds:
            inbox = outbox
            messages_sent += len(inbox)
            outbox = []
            rounds += 1
            for ctx in contexts.values():
                ctx._outbox = outbox
            # Deterministic delivery order: by (recipient, sender, queue
            # position) -- the index breaks ties between same-link copies.
            for _, msg in sorted(
                enumerate(inbox),
                key=lambda item: (item[1].recipient, item[1].sender, item[0]),
            ):
                protocol.on_message(contexts[msg.recipient], msg.sender, msg.payload)

        quiesced = not outbox
        if not quiesced:
            warnings.warn(
                f"simulation hit the round cap ({max_rounds}) before "
                f"quiescence: {len(outbox)} messages still pending",
                NonQuiescentTermination,
                stacklevel=2,
            )

        for node in sorted(contexts):
            protocol.on_finish(contexts[node])
        return SimulationResult(
            states={node: ctx.state for node, ctx in contexts.items()},
            rounds=rounds,
            messages_sent=messages_sent,
            quiesced=quiesced,
        )
