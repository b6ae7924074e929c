"""Per-job resource budgets and the graceful-degradation ladder.

A :class:`JobBudget` caps one job attempt's wall time and peak RSS.  The
enforcement contract is deliberately modest -- this is a *budget*, not a
sandbox:

* **Wall time** is enforced pre-emptively when possible: inside
  :func:`enforce` a ``SIGALRM`` interval timer interrupts the pipeline
  mid-computation and raises :class:`BudgetExceeded` (``kind
  "wall_time"``).  Signal delivery requires the main thread of the
  process (workers run jobs on their main thread, so this is the common
  case); elsewhere the breach is detected post-hoc at context exit from
  elapsed time.
* **Peak RSS** is checked post-hoc at context exit via
  ``resource.getrusage`` -- a cheap high-water-mark read, not a limit the
  kernel enforces mid-run.  Note the high-water mark is *per process and
  monotone*: once a worker process has breached, every later reading in
  that process stays above the mark.  The degradation ladder absorbs
  this: degraded attempts run unenforced.

**Degradation ladder.**  On the first breach the job is *not* failed: the
store requeues it immediately (no backoff -- the breach is a
deterministic property of the job, waiting changes nothing) flagged
``degraded``.  The degraded attempt runs a reduced pipeline (the job's
own localization engine, ``workers=1``, surface construction skipped) with
budget enforcement off, and its completion is marked ``degraded`` rather
than ``failed``.  Degraded results never populate the result cache.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

try:
    import resource
except ImportError:  # non-POSIX: RSS budgets degrade to "unenforced"
    resource = None  # type: ignore[assignment]


class BudgetExceeded(RuntimeError):
    """A job attempt breached its budget.

    ``kind`` is ``"wall_time"`` or ``"peak_rss"``; ``limit`` and
    ``observed`` are in the budget's native unit (seconds / MB).
    """

    def __init__(self, kind: str, limit: float, observed: float):
        super().__init__(
            f"{kind} budget exceeded: observed {observed:.3g} > limit {limit:.3g}"
        )
        self.kind = kind
        self.limit = limit
        self.observed = observed


@dataclass(frozen=True)
class JobBudget:
    """Per-attempt resource caps; ``None`` disables a dimension."""

    wall_seconds: Optional[float] = None
    peak_rss_mb: Optional[float] = None

    def __post_init__(self):
        if self.wall_seconds is not None and self.wall_seconds <= 0:
            raise ValueError("wall_seconds must be positive")
        if self.peak_rss_mb is not None and self.peak_rss_mb <= 0:
            raise ValueError("peak_rss_mb must be positive")

    @property
    def unlimited(self) -> bool:
        return self.wall_seconds is None and self.peak_rss_mb is None


def peak_rss_mb() -> Optional[float]:
    """Process-lifetime peak RSS in MB (None where unobservable).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _alarm_usable() -> bool:
    """SIGALRM pre-emption needs the main thread (signal-module rule)."""
    return (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def enforce(budget: JobBudget) -> Iterator[None]:
    """Run a job attempt under ``budget``; raises :class:`BudgetExceeded`.

    Wall breaches interrupt mid-run when SIGALRM is available (see module
    docstring), otherwise they surface at exit; RSS breaches always
    surface at exit.  The previous SIGALRM handler is restored on exit.
    """
    if budget.unlimited:
        yield
        return

    start = time.monotonic()
    use_alarm = budget.wall_seconds is not None and _alarm_usable()
    previous_handler = None
    if use_alarm:
        def _on_alarm(signum, frame):
            raise BudgetExceeded(
                "wall_time",
                budget.wall_seconds,
                time.monotonic() - start,
            )

        previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, budget.wall_seconds)
    try:
        yield
        if budget.wall_seconds is not None and not use_alarm:
            elapsed = time.monotonic() - start
            if elapsed > budget.wall_seconds:
                raise BudgetExceeded("wall_time", budget.wall_seconds, elapsed)
        if budget.peak_rss_mb is not None:
            observed = peak_rss_mb()
            if observed is not None and observed > budget.peak_rss_mb:
                raise BudgetExceeded("peak_rss", budget.peak_rss_mb, observed)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
