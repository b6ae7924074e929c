"""Nested stage spans with a no-op default.

A :class:`Span` is one timed region of pipeline work (a stage, a shard, a
per-group mesh attempt) carrying attributes (counters, config snapshots,
decision outcomes) and point-in-time events.  A :class:`Tracer` maintains
the open-span stack so ``with tracer.span(...)`` calls nest naturally, and
keeps every finished root span for export.

Two deliberate design points:

* **Disabled tracing is (almost) free.**  Instrumented code takes an
  optional ``tracer`` argument and defaults to the shared
  :data:`NULL_TRACER`, whose ``span`` method returns one reusable no-op
  context manager -- no ``Span`` objects, no clock reads, no string
  formatting.  Code that would *compute* extra observables just to record
  them must guard on ``tracer.enabled``.
* **Deterministic traces are testable traces.**  All wall-clock reads go
  through an injectable ``clock`` callable (default
  :func:`time.perf_counter`).  Tests inject :class:`TickClock` to make
  span timings -- and therefore whole exported traces -- byte-for-byte
  reproducible; the parallel shard driver gives every shard a *fresh*
  clock from ``shard_clock`` so per-shard spans do not depend on how
  shards were packed onto pool threads.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional


class TickClock:
    """Deterministic clock: every read returns the previous read plus one.

    Injected by tests (``Tracer(clock=TickClock(), shard_clock=TickClock)``)
    to make exported traces byte-identical across runs and across worker
    counts.  The class itself serves as the per-shard clock factory: each
    shard gets an instance of its own.
    """

    def __init__(self) -> None:
        self._ticks = 0

    def __call__(self) -> float:
        self._ticks += 1
        return float(self._ticks)


def config_snapshot(value: Any) -> Any:
    """JSON-ready snapshot of a config object (dataclasses become dicts).

    Dataclass instances are unwrapped recursively; other non-primitive
    leaves (e.g. error-model instances) fall back to ``repr`` so the
    snapshot never fails and never drags object graphs into a trace.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: config_snapshot(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): config_snapshot(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [config_snapshot(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Span:
    """One timed, attributed region of work; nests via ``children``."""

    __slots__ = ("name", "start", "end", "attrs", "events", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.events: List[Dict[str, Any]] = []
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Elapsed clock units (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, key: str, value: Any) -> None:
        """Record one attribute (counters, decisions, identifiers)."""
        self.attrs[key] = value

    def set_many(self, mapping: Dict[str, Any]) -> None:
        """Record several attributes at once."""
        self.attrs.update(mapping)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event inside this span."""
        self.events.append({"name": name, **attrs})

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (picklable, JSON-ready) including children."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "attrs": dict(self.attrs),
            "events": list(self.events),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        span = cls(str(doc["name"]), float(doc["start"]))
        span.end = float(doc["end"])
        span.attrs = dict(doc.get("attrs", {}))
        span.events = list(doc.get("events", []))
        span.children = [cls.from_dict(c) for c in doc.get("children", [])]
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration={self.duration:.6g}, "
            f"children={len(self.children)})"
        )


class _ActiveSpan:
    """Context manager pairing one span with the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.set("error", exc_type.__name__)
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collecting tracer: records nested spans for later export.

    Parameters
    ----------
    clock:
        Zero-argument callable returning a monotonically increasing float;
        defaults to :func:`time.perf_counter`.
    shard_clock:
        Optional zero-argument factory producing a *fresh* clock.  Parallel
        drivers call it once per shard, on the shard's own thread, to time
        each shard independently of how shards are distributed across
        threads (None means shards use ``time.perf_counter``).
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        shard_clock: Optional[Callable[[], Callable[[], float]]] = None,
    ):
        self.clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self.shard_clock = shard_clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a nested span: ``with tracer.span("ubf", n_nodes=n) as sp``."""
        span = Span(name, self.clock())
        if attrs:
            span.attrs.update(attrs)
        return _ActiveSpan(self, span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def event(self, name: str, **attrs: Any) -> None:
        """Record an event on the innermost open span (dropped when none)."""
        if self._stack:
            self._stack[-1].event(name, **attrs)

    def attach(self, span_dicts: List[Dict[str, Any]]) -> None:
        """Graft pre-built span dicts (e.g. from pool threads).

        The spans become children of the innermost open span, or roots when
        no span is open; input order is preserved, which is what makes the
        parallel merge deterministic.
        """
        spans = [Span.from_dict(doc) for doc in span_dicts]
        target = self._stack[-1].children if self._stack else self.roots
        target.extend(spans)

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span stack corrupted: closing {span.name!r} "
                f"but {popped.name!r} was innermost"
            )


class _NullSpan:
    """Inert span: accepts writes, records nothing."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    children: List[Any] = []
    start = 0.0
    end = 0.0
    duration = 0.0

    def set(self, key: str, value: Any) -> None:
        pass

    def set_many(self, mapping: Dict[str, Any]) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass


class _NullSpanContext:
    """Reusable no-op context manager handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every call is a no-op returning shared singletons.

    ``span`` hands back one preallocated context manager, so an
    instrumented stage adds only an attribute lookup and a call per span
    when tracing is off -- the "pay ~nothing when disabled" contract the
    bench baselines hold the pipeline to.
    """

    enabled = False
    shard_clock = None
    roots: List[Span] = []

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    @property
    def current(self) -> None:
        return None

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def attach(self, span_dicts: List[Dict[str, Any]]) -> None:
        pass


#: Shared no-op tracer; the default for every instrumented code path.
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: Optional[Any]) -> Any:
    """Normalize an optional tracer argument to a usable tracer object."""
    return tracer if tracer is not None else NULL_TRACER
