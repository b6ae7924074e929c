"""Composable, seeded fault models for the message-passing simulator.

The paper's algorithms (UBF candidacy, IFF's TTL-bounded flood, min-label
grouping) target lossy wireless networks, so the simulator must be able to
misbehave on demand.  This module provides a declarative :class:`FaultPlan`
-- what can go wrong -- and a stateful :class:`FaultInjector` -- the seeded
realization of one run.  The plan is an immutable value object; all
randomness lives in the injector's ``np.random.Generator``, so an identical
plan plus an identical seed reproduces the exact same delivery schedule.

Supported fault classes, freely composable in one plan:

* **uniform loss** -- independent per-message drop probability;
* **per-link loss** -- directed ``(sender, recipient)`` overrides, which
  also model *asymmetric* links (lossy one way, clean the other);
* **burst loss** -- a two-state Gilbert-Elliott channel per directed link:
  a link flips between a good and a bad state each round and applies the
  state's loss rate, producing correlated loss bursts;
* **duplication** -- a delivered message arrives twice in the same round;
* **bounded delay** -- a message is deferred by up to ``max_delay`` extra
  rounds, which reorders it relative to later traffic;
* **crash/recover schedules** -- a node is down for ``[crash_round,
  recover_round)``: it receives nothing, fires no timers, and (because all
  protocol actions are message- or timer-driven) sends nothing.

The semantics of each decision are made at *delivery attempt* time, in a
fixed order (crash, loss, duplication, delay), so the RNG draw sequence is
a deterministic function of the protocol's message trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.message import Message


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state Markov (Gilbert-Elliott) burst-loss channel parameters.

    Each directed link holds a good/bad state that transitions once per
    round; messages traversing the link are dropped with the current
    state's loss rate.  The defaults give rare (~5%/round) transitions
    into a bad state that drops 80% of traffic and clears quickly.
    """

    p_bad: float = 0.05
    p_recover: float = 0.5
    loss_good: float = 0.0
    loss_bad: float = 0.8

    def __post_init__(self):
        for name in ("p_bad", "p_recover", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class DelaySpec:
    """Bounded random extra delivery delay (causes reordering).

    With probability ``rate`` a message is deferred by a uniform integer
    in ``[1, max_delay]`` extra rounds.  Delayed messages are merged with
    the normally scheduled traffic of their new delivery round, so they
    can arrive after messages sent later -- exactly the reordering a
    protocol must tolerate.
    """

    rate: float = 0.0
    max_delay: int = 1

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("delay rate must be in [0, 1]")
        if self.max_delay < 1:
            raise ValueError("max_delay must be at least 1")


@dataclass(frozen=True)
class CrashSpec:
    """One node-down interval: ``[crash_round, recover_round)``.

    ``recover_round=None`` means the node never comes back.  A node
    crashed at round 0 never even runs ``on_start``.
    """

    node: int
    crash_round: int = 0
    recover_round: Optional[int] = None

    def __post_init__(self):
        if self.crash_round < 0:
            raise ValueError("crash_round must be non-negative")
        if self.recover_round is not None and self.recover_round <= self.crash_round:
            raise ValueError("recover_round must exceed crash_round")

    def down_at(self, round_no: int) -> bool:
        """True when the node is crashed during ``round_no``."""
        if round_no < self.crash_round:
            return False
        return self.recover_round is None or round_no < self.recover_round


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of everything that may go wrong in one run.

    Attributes
    ----------
    loss_rate:
        Baseline independent per-message drop probability.
    link_loss:
        Directed ``(sender, recipient) -> loss`` overrides; a link present
        here ignores ``loss_rate`` (use a 0.0 entry for a clean direction
        of an otherwise lossy network -- that is how asymmetry is spelled).
    burst:
        Optional Gilbert-Elliott burst-loss channel applied per directed
        link *on top of* the uniform/per-link loss.
    duplicate_rate:
        Probability that a delivered message arrives twice.
    delay:
        Optional bounded-delay model (see :class:`DelaySpec`).
    crashes:
        Node crash/recover schedule, one :class:`CrashSpec` per interval.
    """

    loss_rate: float = 0.0
    link_loss: Mapping[Tuple[int, int], float] = field(default_factory=dict)
    burst: Optional[GilbertElliott] = None
    duplicate_rate: float = 0.0
    delay: Optional[DelaySpec] = None
    crashes: Tuple[CrashSpec, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        for link, rate in self.link_loss.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"link_loss[{link}] must be in [0, 1]")
        # Normalize to a tuple so plans stay hashable-by-content and a
        # caller-held list cannot mutate the plan after construction.
        object.__setattr__(self, "crashes", tuple(self.crashes))

    @property
    def is_ideal(self) -> bool:
        """True when the plan injects no faults at all."""
        return (
            self.loss_rate == 0.0  # lint: allow[FLT009] -- exact zero is the "no faults configured" sentinel, never a computed value
            and not self.link_loss
            and self.burst is None
            and self.duplicate_rate == 0.0  # lint: allow[FLT009] -- exact zero is the "no faults configured" sentinel, never a computed value
            and self.delay is None
            and not self.crashes
        )

    @staticmethod
    def uniform_loss(rate: float) -> "FaultPlan":
        """Back-compat shim for the old single ``loss_rate`` float."""
        return FaultPlan(loss_rate=rate)


def sample_crashes(
    nodes: Iterable[int],
    fraction: float,
    rng: np.random.Generator,
    *,
    crash_round: int = 1,
    recover_round: Optional[int] = None,
) -> Tuple[CrashSpec, ...]:
    """Crash a seeded random fraction of ``nodes`` at ``crash_round``.

    The default ``crash_round=1`` lets victims run ``on_start`` (their
    round-0 sends are already in flight) and then fail -- the classic
    mid-protocol crash.  Returns specs sorted by node ID so the draw is
    order-independent of the input iterable.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    pool = sorted(int(n) for n in nodes)
    n_crash = int(round(fraction * len(pool)))
    if n_crash == 0:
        return ()
    victims = rng.choice(len(pool), size=n_crash, replace=False)
    return tuple(
        CrashSpec(pool[i], crash_round=crash_round, recover_round=recover_round)
        for i in sorted(int(v) for v in victims)
    )


class _LinkChannel:
    """Per-directed-link Gilbert-Elliott state, advanced lazily by round."""

    __slots__ = ("state_bad", "last_round")

    def __init__(self):
        self.state_bad = False
        self.last_round = 0

    def loss_at(
        self, round_no: int, model: GilbertElliott, rng: np.random.Generator
    ) -> float:
        """Current-state loss rate, advancing the chain to ``round_no``."""
        while self.last_round < round_no:
            self.last_round += 1
            flip = self.p_flip(model)
            if rng.uniform() < flip:
                self.state_bad = not self.state_bad
        return model.loss_bad if self.state_bad else model.loss_good

    def p_flip(self, model: GilbertElliott) -> float:
        return model.p_recover if self.state_bad else model.p_bad


class FaultInjector:
    """Seeded runtime realization of a :class:`FaultPlan` for one run.

    The simulator feeds each round's traffic through :meth:`deliveries`,
    which returns the messages actually arriving that round (delayed
    arrivals from earlier rounds included) plus drop/duplicate counts.
    Crash state is exposed via :meth:`is_down` so the simulator can also
    skip ``on_start``/timer callbacks at crashed nodes.
    """

    def __init__(self, plan: FaultPlan, rng: np.random.Generator):
        self.plan = plan
        self._rng = rng
        self._delayed: Dict[int, List[Message]] = {}
        self._channels: Dict[Tuple[int, int], _LinkChannel] = {}
        self._crashed: Dict[int, List[CrashSpec]] = {}
        for spec in plan.crashes:
            self._crashed.setdefault(int(spec.node), []).append(spec)
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0

    def is_down(self, node: int, round_no: int) -> bool:
        """True when ``node`` is crashed during ``round_no``."""
        return any(s.down_at(round_no) for s in self._crashed.get(node, ()))

    def has_pending(self) -> bool:
        """True while delayed messages are still buffered for the future."""
        return bool(self._delayed)

    def deliveries(self, inbox: Sequence[Message], round_no: int) -> List[Message]:
        """Messages arriving at ``round_no`` after fault processing.

        Applies, per message and in order: recipient-crash drop, loss
        (uniform / per-link / burst), duplication, and delay.  Delayed
        messages are buffered internally and returned merged -- ahead of
        the round's fresh traffic -- once their delivery round comes up.
        Drop/duplicate/delay counts accumulate on the injector.
        """
        delivered: List[Message] = []
        # Delayed messages already survived loss/duplication when first
        # processed; at their due round only the crash check re-applies
        # (the recipient may have gone down while the message was in flight).
        for msg in self._delayed.pop(round_no, []):
            if self.is_down(msg.recipient, round_no):
                self.messages_dropped += 1
                continue
            delivered.append(msg)
        for msg in inbox:
            if self.is_down(msg.recipient, round_no):
                self.messages_dropped += 1
                continue
            if self._rng.uniform() < self._loss_for(msg, round_no):
                self.messages_dropped += 1
                continue
            copies = 1
            if (
                self.plan.duplicate_rate > 0.0
                and self._rng.uniform() < self.plan.duplicate_rate
            ):
                copies = 2
                self.messages_duplicated += 1
            delay = self.plan.delay
            if delay is not None and self._rng.uniform() < delay.rate:
                extra = int(self._rng.integers(1, delay.max_delay + 1))
                self.messages_delayed += 1
                bucket = self._delayed.setdefault(round_no + extra, [])
                bucket.extend([msg] * copies)
                continue
            delivered.extend([msg] * copies)
        return delivered

    def _loss_for(self, msg: Message, round_no: int) -> float:
        link = (msg.sender, msg.recipient)
        base = self.plan.link_loss.get(link, self.plan.loss_rate)
        if self.plan.burst is None:
            return base
        channel = self._channels.get(link)
        if channel is None:
            channel = self._channels[link] = _LinkChannel()
        burst = channel.loss_at(round_no, self.plan.burst, self._rng)
        # Independent drop chances compose: survive both to get through.
        return 1.0 - (1.0 - base) * (1.0 - burst)
