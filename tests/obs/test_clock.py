"""Unit tests for the simulated clock (the timeline's time axis)."""

import math

import pytest

from repro.obs.clock import SimClock, interval_ns


class Task:
    """A periodic task logging ``(name, now_ns)`` at every firing."""

    def __init__(self, log, name="t", interval_ns=10.0, on_fire=None):
        self.log = log
        self.name = name
        self.interval_ns = interval_ns
        self.on_fire = on_fire

    def fire(self, now_ns):
        self.log.append((self.name, now_ns))
        if self.on_fire is not None:
            self.on_fire(self)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(100.0)
        clock.advance(2.5)
        assert clock.now_ns == 102.5

    def test_zero_and_negative_are_noops(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(0.0)
        clock.advance(-5.0)
        assert clock.now_ns == 10.0

    def test_advance_to_moves_only_forward(self):
        clock = SimClock()
        assert clock.advance_to(12.5) == 12.5
        assert clock.advance_to(3.0) == 12.5
        assert clock.now_ns == 12.5


class TestDeadlines:
    def test_no_tasks_means_no_deadline(self):
        clock = SimClock()
        assert clock.next_due_ns == math.inf
        clock.advance(1e12)
        assert clock.next_due_ns == math.inf

    def test_first_firing_at_first_advance(self):
        clock = SimClock()
        clock.advance(5.0)
        log = []
        clock.attach(Task(log, interval_ns=100.0))
        assert log == []
        clock.advance(0.5)
        assert log == [("t", 5.5)]

    def test_next_deadline_is_firing_instant_plus_interval(self):
        clock = SimClock()
        log = []
        clock.attach(Task(log, interval_ns=10.0))
        for _ in range(5):
            clock.advance(4.0)
        # fires at 4 (due 14), then at 16, the first advance past 14
        assert log == [("t", 4.0), ("t", 16.0)]
        assert clock.next_due_ns == 26.0
        clock.advance(4.0)
        assert len(log) == 2  # 24 < 26: not due
        clock.advance(2.0)
        assert log[-1] == ("t", 26.0)  # due exactly at the deadline

    def test_interval_is_read_after_the_callback(self):
        """A task may change its own cadence while firing (the sampler
        doubles it on decimation); the new value sets the next deadline."""
        clock = SimClock()
        log = []

        def widen(task):
            task.interval_ns *= 2.0

        clock.attach(Task(log, interval_ns=10.0, on_fire=widen))
        clock.advance(1.0)
        assert clock.next_due_ns == 21.0
        clock.advance_to(21.0)
        assert clock.next_due_ns == 61.0
        assert log == [("t", 1.0), ("t", 21.0)]

    def test_tasks_due_together_fire_in_attach_order(self):
        clock = SimClock()
        log = []
        clock.attach(Task(log, "late", interval_ns=3.0))
        clock.attach(Task(log, "early", interval_ns=3.0))
        clock.advance(1.0)
        clock.advance(5.0)
        assert log == [
            ("late", 1.0), ("early", 1.0), ("late", 6.0), ("early", 6.0),
        ]

    def test_earliest_deadline_is_cached(self):
        clock = SimClock()
        log = []
        clock.attach(Task(log, "slow", interval_ns=100.0))
        clock.attach(Task(log, "fast", interval_ns=7.0))
        clock.advance(1.0)
        assert clock.next_due_ns == 8.0
        clock.advance(7.0)
        assert log[-1] == ("fast", 8.0)
        assert clock.next_due_ns == 15.0

    def test_detach_stops_firing(self):
        clock = SimClock()
        log = []
        kept, dropped = Task(log, "kept"), Task(log, "dropped")
        clock.attach(kept)
        clock.attach(dropped)
        clock.advance(1.0)
        clock.detach(dropped)
        clock.advance(20.0)
        assert log == [("kept", 1.0), ("dropped", 1.0), ("kept", 21.0)]
        clock.detach(kept)
        assert clock.next_due_ns == math.inf
        clock.advance(20.0)
        assert len(log) == 3

    def test_noop_advances_fire_nothing(self):
        clock = SimClock()
        clock.advance(4.0)
        log = []
        clock.attach(Task(log))
        clock.advance(0.0)
        clock.advance(-1.0)
        clock.advance_to(4.0)
        clock.advance_to(2.0)
        assert log == []
        assert clock.now_ns == 4.0

    def test_advance_to_fires_a_due_task(self):
        clock = SimClock()
        log = []
        clock.attach(Task(log, interval_ns=10.0))
        clock.advance_to(3.0)
        clock.advance_to(12.0)
        clock.advance_to(13.0)
        assert log == [("t", 3.0), ("t", 13.0)]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_interval_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match="interval_ms"):
        interval_ns(bad)


def test_interval_converts_ms_to_ns():
    assert interval_ns(0.25) == 250_000.0


def test_timeline_fires_before_the_scraper(tmp_path):
    """At a shared instant the machine's sampler fires first, so the
    frame taken there already counts that instant's sample."""
    from repro.config import default_machine
    from repro.core import TridentPolicy
    from repro.obs import Observability
    from repro.obs.telemetry import (
        ScrapeFileSink,
        TelemetryScraper,
        iter_frames,
        parse_exposition,
    )
    from repro.sim.system import System

    obs = Observability(timeline=True, timeline_interval_ms=1.0)
    System(default_machine(4), TridentPolicy, seed=1, obs=obs)
    path = str(tmp_path / "s.prom")
    scraper = TelemetryScraper(
        obs.clock, obs.metrics, ScrapeFileSink(path), interval_ms=1.0
    )
    samples_at_scrape = []
    for _ in range(3):
        obs.clock.advance(1.2e6)
        samples_at_scrape.append(obs.timeline.samples)
    scraper.close()
    with open(path) as f:
        frames = list(iter_frames(f.read()))
    counted = [
        parse_exposition(frame)["counters"]["timeline_samples_total"]
        for _, _, frame in frames
    ]
    assert counted[:3] == samples_at_scrape == [1, 2, 3]
