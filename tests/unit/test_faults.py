"""Unit tests for the declarative fault models (repro.runtime.faults)."""

import numpy as np
import pytest

from repro.network.graph import NetworkGraph
from repro.runtime.faults import (
    CrashSpec,
    DelaySpec,
    FaultInjector,
    FaultPlan,
    GilbertElliott,
    sample_crashes,
)
from repro.runtime.message import Message
from repro.runtime.protocols import TTLFloodProtocol
from repro.runtime.simulator import Simulator


@pytest.fixture
def grid_graph():
    pts = [[0.9 * x, 0.9 * y, 0.0] for x in range(6) for y in range(6)]
    return NetworkGraph(np.array(pts), radio_range=1.0)


class TestPlanValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=-0.1)

    def test_duplicate_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=2.0)

    def test_link_loss_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(link_loss={(0, 1): 1.2})

    def test_gilbert_elliott_bounds(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_bad=-0.5)
        with pytest.raises(ValueError):
            GilbertElliott(loss_bad=1.5)

    def test_delay_spec_bounds(self):
        with pytest.raises(ValueError):
            DelaySpec(rate=1.5)
        with pytest.raises(ValueError):
            DelaySpec(rate=0.5, max_delay=0)

    def test_crash_spec_bounds(self):
        with pytest.raises(ValueError):
            CrashSpec(0, crash_round=-1)
        with pytest.raises(ValueError):
            CrashSpec(0, crash_round=3, recover_round=3)

    def test_crashes_normalized_to_tuple(self):
        plan = FaultPlan(crashes=[CrashSpec(1), CrashSpec(2)])
        assert isinstance(plan.crashes, tuple)

    def test_is_ideal(self):
        assert FaultPlan().is_ideal
        assert not FaultPlan(loss_rate=0.1).is_ideal
        assert not FaultPlan(crashes=(CrashSpec(0),)).is_ideal
        assert not FaultPlan(delay=DelaySpec(rate=0.1)).is_ideal

    def test_uniform_loss_shim(self):
        plan = FaultPlan.uniform_loss(0.25)
        assert plan.loss_rate == 0.25 and not plan.is_ideal


class TestCrashSpec:
    def test_down_interval(self):
        spec = CrashSpec(7, crash_round=2, recover_round=5)
        assert [spec.down_at(r) for r in range(7)] == [
            False, False, True, True, True, False, False,
        ]

    def test_permanent_crash(self):
        spec = CrashSpec(7, crash_round=3)
        assert not spec.down_at(2)
        assert spec.down_at(3) and spec.down_at(1000)


class TestSampleCrashes:
    def test_fraction_and_membership(self):
        nodes = range(100)
        crashes = sample_crashes(nodes, 0.3, np.random.default_rng(0))
        assert len(crashes) == 30
        assert all(0 <= c.node < 100 for c in crashes)
        assert len({c.node for c in crashes}) == 30

    def test_seeded_and_order_independent(self):
        a = sample_crashes(range(50), 0.2, np.random.default_rng(3))
        b = sample_crashes(reversed(range(50)), 0.2, np.random.default_rng(3))
        assert a == b

    def test_zero_fraction(self):
        assert sample_crashes(range(10), 0.0, np.random.default_rng(0)) == ()

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            sample_crashes(range(10), 1.5, np.random.default_rng(0))


def _msgs(pairs, round_sent=0):
    return [Message(s, r, "x", round_sent) for s, r in pairs]


class TestInjectorMechanics:
    def test_total_loss_drops_everything(self):
        inj = FaultInjector(FaultPlan(loss_rate=1.0), np.random.default_rng(0))
        out = inj.deliveries(_msgs([(0, 1), (1, 2)]), 1)
        assert out == [] and inj.messages_dropped == 2

    def test_zero_loss_keeps_everything(self):
        inj = FaultInjector(FaultPlan(), np.random.default_rng(0))
        msgs = _msgs([(0, 1), (1, 2)])
        assert inj.deliveries(msgs, 1) == msgs
        assert inj.messages_dropped == 0

    def test_asymmetric_link_loss(self):
        """One direction always drops, the reverse is clean."""
        plan = FaultPlan(link_loss={(0, 1): 1.0, (1, 0): 0.0})
        inj = FaultInjector(plan, np.random.default_rng(0))
        out = inj.deliveries(_msgs([(0, 1), (1, 0)]), 1)
        assert [(m.sender, m.recipient) for m in out] == [(1, 0)]
        assert inj.messages_dropped == 1

    def test_link_override_beats_uniform_loss(self):
        plan = FaultPlan(loss_rate=1.0, link_loss={(0, 1): 0.0})
        inj = FaultInjector(plan, np.random.default_rng(0))
        out = inj.deliveries(_msgs([(0, 1), (2, 3)]), 1)
        assert [(m.sender, m.recipient) for m in out] == [(0, 1)]

    def test_duplication_doubles_delivery(self):
        inj = FaultInjector(
            FaultPlan(duplicate_rate=1.0), np.random.default_rng(0)
        )
        out = inj.deliveries(_msgs([(0, 1)]), 1)
        assert len(out) == 2 and inj.messages_duplicated == 1

    def test_delay_buffers_until_due_round(self):
        plan = FaultPlan(delay=DelaySpec(rate=1.0, max_delay=1))
        inj = FaultInjector(plan, np.random.default_rng(0))
        assert inj.deliveries(_msgs([(0, 1)]), 1) == []
        assert inj.has_pending()
        out = inj.deliveries([], 2)
        assert len(out) == 1 and not inj.has_pending()
        assert inj.messages_delayed == 1

    def test_crashed_recipient_drops_message(self):
        plan = FaultPlan(crashes=(CrashSpec(1, crash_round=0),))
        inj = FaultInjector(plan, np.random.default_rng(0))
        assert inj.deliveries(_msgs([(0, 1)]), 1) == []
        assert inj.messages_dropped == 1

    def test_recovered_node_receives_again(self):
        plan = FaultPlan(crashes=(CrashSpec(1, crash_round=0, recover_round=3),))
        inj = FaultInjector(plan, np.random.default_rng(0))
        assert inj.deliveries(_msgs([(0, 1)]), 2) == []
        assert len(inj.deliveries(_msgs([(0, 1)]), 3)) == 1

    def test_burst_loss_bad_state_drops(self):
        """A channel pinned in the bad state with loss 1.0 drops all."""
        burst = GilbertElliott(p_bad=1.0, p_recover=0.0, loss_good=0.0, loss_bad=1.0)
        inj = FaultInjector(FaultPlan(burst=burst), np.random.default_rng(0))
        out = inj.deliveries(_msgs([(0, 1)]), 1)
        assert out == [] and inj.messages_dropped == 1

    def test_burst_good_state_clean(self):
        burst = GilbertElliott(p_bad=0.0, p_recover=1.0, loss_good=0.0, loss_bad=1.0)
        inj = FaultInjector(FaultPlan(burst=burst), np.random.default_rng(0))
        assert len(inj.deliveries(_msgs([(0, 1)]), 5)) == 1


class TestEndToEndDeterminism:
    def test_identical_plan_and_seed_identical_result(self, grid_graph):
        """Acceptance: plan + seed fully determine the SimulationResult."""
        plan = FaultPlan(
            loss_rate=0.1,
            link_loss={(0, 1): 0.9, (1, 0): 0.0},
            burst=GilbertElliott(),
            duplicate_rate=0.05,
            delay=DelaySpec(rate=0.1, max_delay=3),
            crashes=(CrashSpec(7, 2, 5), CrashSpec(12, 0)),
        )
        runs = [
            Simulator(
                grid_graph, fault_plan=plan, rng=np.random.default_rng(42)
            ).run(TTLFloodProtocol(3))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].messages_dropped > 0

    def test_different_seed_different_schedule(self, grid_graph):
        plan = FaultPlan(loss_rate=0.3)
        a = Simulator(grid_graph, fault_plan=plan, rng=np.random.default_rng(0)).run(
            TTLFloodProtocol(3)
        )
        b = Simulator(grid_graph, fault_plan=plan, rng=np.random.default_rng(1)).run(
            TTLFloodProtocol(3)
        )
        assert a != b  # astronomically unlikely to coincide
