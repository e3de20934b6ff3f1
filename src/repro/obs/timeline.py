"""Periodic time-series samplers over the simulated clock.

The paper's figures are functions of time — fragmentation decaying as
compaction works, the zero-fill pool draining under a fault burst — but
counters only give end-of-run totals.  A :class:`TimelineSampler` is a
periodic task on the :class:`repro.obs.clock.SimClock`: every
``interval_ms`` of *simulated* time it snapshots a set of configured
gauges (callables reading authoritative simulator state, the same
sources the metric collectors mirror) into bounded :class:`TimeSeries`.

Boundedness uses flight-recorder decimation: when a series hits
``max_points`` it drops every second point and doubles its sampling
interval, so memory stays O(max_points) for arbitrarily long runs while
the retained points stay evenly spread over the whole run.  Decimation is
a pure function of the sample stream, so a seeded run reproduces its
series byte-for-byte regardless of wall-clock scheduling.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.clock import interval_ns


class TimeSeries:
    """One bounded (ts_ms, value) series with decimate-on-overflow."""

    __slots__ = ("name", "unit", "max_points", "points")

    def __init__(self, name: str, unit: str = "", max_points: int = 2048) -> None:
        if max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        self.name = name
        self.unit = unit
        self.max_points = max_points
        self.points: list[tuple[float, float]] = []

    def append(self, ts_ms: float, value: float) -> bool:
        """Add one sample; returns True when this append decimated."""
        self.points.append((ts_ms, value))
        if len(self.points) >= self.max_points:
            # Keep every second point plus both buffer boundaries — the
            # run's first and newest samples always survive, so decimation
            # halves density without shrinking time coverage at either end.
            kept = self.points[::2]
            if kept[-1] is not self.points[-1]:
                kept.append(self.points[-1])
            self.points = kept
            return True
        return False

    def export(self) -> dict:
        return {
            "unit": self.unit,
            "points": [[round(ts, 6), value] for ts, value in self.points],
        }


class TimelineSampler:
    """Snapshot configured gauges every N simulated milliseconds.

    The sampler attaches itself to the clock with its first series, so
    one without series never fires.  Decimation doubles ``interval_ns``
    while firing; the clock reads it afterwards for the next deadline.
    """

    def __init__(
        self,
        clock,
        interval_ms: float = 0.5,
        max_points: int = 2048,
        metrics=None,
    ) -> None:
        self.clock = clock
        self.interval_ns = interval_ns(interval_ms)
        self.max_points = max_points
        self._series: list[tuple[TimeSeries, Callable[[], float]]] = []
        self.samples = 0
        self._c_samples = None
        if metrics is not None:
            self._c_samples = metrics.counter("timeline_samples_total")

    def add_series(
        self, name: str, fn: Callable[[], float], unit: str = ""
    ) -> TimeSeries:
        """Register a gauge; ``fn`` is polled at every sampling instant."""
        if not self._series:
            self.clock.attach(self)
        series = TimeSeries(name, unit=unit, max_points=self.max_points)
        self._series.append((series, fn))
        return series

    def fire(self, now_ns: float) -> None:
        """The clock's periodic call (:class:`repro.obs.clock.PeriodicTask`)."""
        self.sample(now_ns)

    def sample(self, now_ns: float | None = None) -> None:
        """Take one sample of every series at the current instant."""
        ts_ms = (self.clock.now_ns if now_ns is None else now_ns) / 1e6
        self.samples += 1
        if self._c_samples is not None:
            self._c_samples.inc()
        decimated = False
        for series, fn in self._series:
            decimated |= series.append(ts_ms, float(fn()))
        if decimated:
            # Keep all series on one cadence after any of them halves.
            self.interval_ns *= 2.0

    def export(self) -> dict:
        """JSON-able series map (embedded under ``timeline.series``)."""
        return {
            "interval_ms": self.interval_ns / 1e6,
            "samples": self.samples,
            "series": {s.name: s.export() for s, _ in sorted(
                self._series, key=lambda pair: pair[0].name
            )},
        }
