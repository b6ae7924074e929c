"""Distributed runtime: message-level realizations of the localized steps.

The reference implementations in :mod:`repro.core` and
:mod:`repro.surface` compute, centrally, the *fixed points* of localized
protocols.  This package provides the protocols themselves on a round-based
synchronous message-passing simulator, demonstrating that every step runs
with one-hop communication only:

* :class:`repro.runtime.protocols.TTLFloodProtocol` -- the IFF flood
  (Sec. II-B): boundary candidates flood with a TTL, count distinct
  originators heard.
* :class:`repro.runtime.protocols.MinLabelProtocol` -- boundary grouping by
  min-ID label propagation (connected components).
* :class:`repro.runtime.protocols.VoronoiCellProtocol` -- Step I's
  closest-landmark association with (distance, ID) tie-breaking.
* :func:`repro.runtime.protocols.distributed_landmark_election` -- the
  k-hop maximal-independent-set election, phased over flood rounds.

``tests/integration/test_runtime_equivalence.py`` pins each protocol's
outcome to its centralized counterpart.

Delivery is synchronous and loss-free, as the paper assumes: every message
sent in round ``t`` arrives in round ``t + 1``.
"""

from repro.runtime.message import Message
from repro.runtime.protocols import (
    MinLabelProtocol,
    TTLFloodProtocol,
    VoronoiCellProtocol,
    distributed_landmark_election,
    run_grouping_distributed,
    run_iff_distributed,
)
from repro.runtime.simulator import (
    NodeContext,
    NonQuiescentTermination,
    Protocol,
    SimulationResult,
    Simulator,
)

__all__ = [
    "Message",
    "Simulator",
    "SimulationResult",
    "Protocol",
    "NodeContext",
    "NonQuiescentTermination",
    "TTLFloodProtocol",
    "MinLabelProtocol",
    "VoronoiCellProtocol",
    "distributed_landmark_election",
    "run_iff_distributed",
    "run_grouping_distributed",
]
