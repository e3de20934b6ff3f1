"""The simulated-time axis: a nanosecond clock owned by one machine.

Every cost-bearing operation in the simulator produces a nanosecond (or
cycle) figure — fault latencies, zero-fill work, compaction copies, pv
hypercalls, page-walk charges.  :class:`SimClock` folds those figures into
one monotonic axis so events, spans and gauge samples can be placed *in
time* the way ftrace/perfetto timelines are, instead of merely ordered by
sequence number.

Advancement discipline (who calls :meth:`SimClock.advance`)
-----------------------------------------------------------

Double counting is avoided by advancing directly only at *leaf* cost
sites, with each aggregation point charging the residual its own
accounting shows but no leaf beneath it reported
(``total - (now - start)``, clamped at zero):

* ``TLBHierarchy.access`` — translation cycles (L2 hits + walks),
* ``ZeroFillEngine.background_fill`` — daemon-context zeroing (the
  fault-path refill overlaps application time on another core and is
  *not* charged),
* ``PVExchangeInterface.exchange`` — guest time inside the hypercall,
* ``_CompactorBase.compact`` — the attempt's scan + copy time minus
  whatever the pv exchange leaf already charged,
* ``System._fault`` — the fault latency minus what the leaves below the
  handler charged,
* ``System.run_daemons`` — the tick's consumed budget minus what the
  zero-fill / compaction work inside it charged.

The axis is therefore *machine time*: concurrent background work is
folded in sequentially, like per-cpu ftrace buffers merged into one
stream.  The batched TLB kernel commits a whole segment's charges at once
with :meth:`SimClock.advance_to`, the left-to-right sum of the same adds.

Periodic tasks (deadlines)
--------------------------

Observers that act on a simulated-time cadence — the timeline sampler
and the telemetry scraper — are periodic tasks (:class:`PeriodicTask`)
attached to the clock.  The clock keeps them in attach order with one
deadline each and caches the earliest as :attr:`SimClock.next_due_ns`
(infinity with none attached).  An advance that reaches it fires every
due task, in attach order, at the new instant; a task's next deadline is
that instant plus its ``interval_ns``, read after it fired (a sampler
may widen its own cadence while firing).  A newly attached task is due
at once, so it first fires at the next advance.  Tasks may read
simulator state — advances only happen at points where the substrate is
consistent — but must not advance the clock themselves.

Code that commits many charges at once compares its end instant with
``next_due_ns``: below it, no task can fire in between, so one
:meth:`SimClock.advance_to` is exact; otherwise it advances charge by
charge and every task fires where the per-access loop fires it.
"""

from __future__ import annotations

import math
from typing import Protocol


def interval_ns(interval_ms: float) -> float:
    """A task period given in simulated milliseconds, in nanoseconds.

    The one check every period passes: it must be finite and positive
    (NaN fails both comparisons).  A zero or NaN period would fire on
    every advance, an infinite one never after the first.
    """
    if not 0.0 < interval_ms < math.inf:
        raise ValueError(
            f"interval_ms must be positive and finite, got {interval_ms}"
        )
    return interval_ms * 1e6


class PeriodicTask(Protocol):
    """What :meth:`SimClock.attach` schedules."""

    #: simulated nanoseconds from one firing to the next deadline
    interval_ns: float

    def fire(self, now_ns: float) -> None:
        """Do the periodic work at simulated instant ``now_ns``."""


class SimClock:
    """Monotonic simulated-nanosecond clock with deadline-scheduled tasks."""

    __slots__ = ("now_ns", "next_due_ns", "_tasks")

    def __init__(self) -> None:
        self.now_ns = 0.0
        #: earliest deadline of the attached tasks (infinity: none)
        self.next_due_ns = math.inf
        #: ``[deadline_ns, task]`` per attached task, in attach order
        self._tasks: list[list] = []

    def advance(self, ns: float) -> float:
        """Move time forward by ``ns`` (ignored if <= 0); returns now."""
        if ns > 0.0:
            self.now_ns += ns
            if self.now_ns >= self.next_due_ns:
                self._fire_due()
        return self.now_ns

    def advance_to(self, now_ns: float) -> float:
        """Move time forward to ``now_ns`` (ignored unless later); returns now.

        For committing a precomputed sum of charges in one step; due
        tasks fire as under :meth:`advance`.
        """
        if now_ns > self.now_ns:
            self.now_ns = now_ns
            if now_ns >= self.next_due_ns:
                self._fire_due()
        return self.now_ns

    def attach(self, task: PeriodicTask) -> None:
        """Schedule ``task``, due now: it first fires at the next advance."""
        self._tasks.append([self.now_ns, task])
        self.next_due_ns = min(self.next_due_ns, self.now_ns)

    def detach(self, task: PeriodicTask) -> None:
        """Stop firing ``task``."""
        self._tasks = [entry for entry in self._tasks if entry[1] is not task]
        self._reschedule()

    def _fire_due(self) -> None:
        now = self.now_ns
        for entry in self._tasks:
            if now >= entry[0]:
                task = entry[1]
                task.fire(now)
                entry[0] = now + task.interval_ns
        self._reschedule()

    def _reschedule(self) -> None:
        self.next_due_ns = min(
            (entry[0] for entry in self._tasks), default=math.inf
        )
