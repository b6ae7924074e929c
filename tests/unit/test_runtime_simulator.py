"""Unit tests for the message-passing simulator and basic protocols."""

import warnings

import numpy as np
import pytest

from repro.network.graph import NetworkGraph
from repro.runtime.protocols import MinLabelProtocol, TTLFloodProtocol
from repro.runtime.simulator import (
    NodeContext,
    NonQuiescentTermination,
    Protocol,
    Simulator,
)


@pytest.fixture
def chain():
    positions = np.array([[0.9 * i, 0, 0] for i in range(6)])
    return NetworkGraph(positions, radio_range=1.0)


class EchoOnce(Protocol):
    """Each node broadcasts its ID once; receivers record what they heard."""

    def on_start(self, ctx: NodeContext) -> None:
        ctx.state["heard"] = set()
        ctx.broadcast(ctx.node)

    def on_message(self, ctx, sender, payload) -> None:
        ctx.state["heard"].add(payload)


class TestSimulatorMechanics:
    def test_one_round_delivery(self, chain):
        result = Simulator(chain).run(EchoOnce())
        assert result.rounds == 1
        assert result.quiesced
        # Each node hears exactly its neighbors.
        assert result.states[0]["heard"] == {1}
        assert result.states[2]["heard"] == {1, 3}

    def test_message_count(self, chain):
        result = Simulator(chain).run(EchoOnce())
        # Sum of degrees = 2 * edges = 10.
        assert result.messages_sent == 10

    def test_participants_filter(self, chain):
        result = Simulator(chain, participants={0, 1, 2}).run(EchoOnce())
        assert set(result.states) == {0, 1, 2}
        assert result.states[2]["heard"] == {1}  # node 3 not participating

    def test_send_to_non_neighbor_raises(self, chain):
        class BadSend(Protocol):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(5, "x")

            def on_message(self, ctx, sender, payload):
                pass

        with pytest.raises(ValueError):
            Simulator(chain).run(BadSend())

    def test_round_cap(self, chain):
        class Chatter(Protocol):
            def on_start(self, ctx):
                ctx.broadcast("hi")

            def on_message(self, ctx, sender, payload):
                ctx.broadcast("hi")  # never stops

        with pytest.warns(NonQuiescentTermination, match="round cap"):
            result = Simulator(chain).run(Chatter(), max_rounds=5)
        assert result.rounds == 5
        assert not result.quiesced

    def test_quiescent_run_does_not_warn(self, chain):
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonQuiescentTermination)
            result = Simulator(chain).run(EchoOnce())
        assert result.quiesced

    def test_cap_landing_on_last_round_still_quiesces(self, chain):
        """A cap equal to the natural round count is not a failure."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonQuiescentTermination)
            result = Simulator(chain).run(EchoOnce(), max_rounds=1)
        assert result.quiesced and result.rounds == 1

    def test_delivery_order_stable_for_same_link_copies(self, chain):
        """Two same-link messages in one round arrive in send order."""

        class TwoSends(Protocol):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, "first")
                    ctx.send(1, "second")

            def on_message(self, ctx, sender, payload):
                ctx.state.setdefault("log", []).append(payload)

        result = Simulator(chain).run(TwoSends())
        assert result.states[1]["log"] == ["first", "second"]


class TestTTLFlood:
    def test_heard_matches_hops(self, chain):
        result = Simulator(chain).run(TTLFloodProtocol(ttl=2))
        # Node 0 hears itself, 1 (1 hop), 2 (2 hops).
        assert result.states[0]["heard"] == {0, 1, 2}
        assert result.states[3]["heard"] == {1, 2, 3, 4, 5}

    def test_ttl_one_is_neighbors_only(self, chain):
        result = Simulator(chain).run(TTLFloodProtocol(ttl=1))
        assert result.states[2]["heard"] == {1, 2, 3}

    def test_invalid_ttl(self):
        with pytest.raises(ValueError):
            TTLFloodProtocol(ttl=0)


class TestMinLabel:
    def test_single_component_converges_to_zero(self, chain):
        result = Simulator(chain).run(MinLabelProtocol())
        assert all(s["label"] == 0 for s in result.states.values())

    def test_split_components(self, chain):
        result = Simulator(chain, participants={0, 1, 3, 4, 5}).run(
            MinLabelProtocol()
        )
        assert result.states[0]["label"] == 0
        assert result.states[1]["label"] == 0
        assert result.states[3]["label"] == 3
        assert result.states[5]["label"] == 3


class TestNonQuiescentTermination:
    def test_warning_carries_round_and_pending_counts(self, chain):
        """The warning message reports the cap plus the pending message
        count so a truncated run is diagnosable from the log."""

        class Chatter(Protocol):
            def on_start(self, ctx):
                ctx.broadcast("hi")

            def on_message(self, ctx, sender, payload):
                ctx.broadcast("hi")

        with pytest.warns(
            NonQuiescentTermination,
            match=r"round cap \(3\).*\d+ messages still pending",
        ):
            result = Simulator(chain).run(Chatter(), max_rounds=3)
        assert not result.quiesced
