"""Message record for the synchronous simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Message:
    """A one-hop message in flight.

    Attributes
    ----------
    sender:
        Originating node ID.
    recipient:
        Destination node ID (always a one-hop neighbor of the sender).
    payload:
        Arbitrary protocol data.  Payloads should be small immutable
        values (tuples, ints) -- the simulator counts every message, and
        the per-protocol payload sizes are part of the cost story.
    """

    sender: int
    recipient: int
    payload: Any
