"""``touch_batch`` is counter-for-counter identical to the scalar loop.

The batch-first API contract: running a stream through the vectorized
engine must leave the simulation in *exactly* the state the per-access
scalar loop produces — every counter, every TLB set's LRU ordering,
every walk-latency histogram bucket, the simulated clock, and the
page-table accessed bits.  :func:`repro.sim.bench.state_fingerprint`
captures all of it; these tests compare fingerprints across policies,
daemon cadences, observers, and fault-heavy streams, including the
fault-dense stretches the engine hands to the scalar ``touch``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.sim.batch as sim_batch
from repro.config import default_machine
from repro.core import Baseline4KPolicy, HawkEyePolicy, THPPolicy, TridentPolicy
from repro.obs import Observability
from repro.obs.telemetry import TelemetryScraper
from repro.sim.batch import BatchResult, TouchResult
from repro.sim.bench import state_fingerprint
from repro.sim.system import System
from repro.virt.machine import VirtualMachine
from repro.workloads.access import zipf

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)

FOOTPRINT = 16 * 1024 * 1024


class FrameSink:
    """In-memory scrape sink: the frames a scraper renders."""

    def __init__(self) -> None:
        self.frames: list[str] = []

    def emit(self, frame_text: str) -> None:
        self.frames.append(frame_text)

    def close(self) -> None:
        pass


def _telemetry_observer() -> Observability:
    """The timeline plus a scraper every 0.02 simulated ms: short enough
    that scrape deadlines fall inside the TLB kernel's calls."""
    obs = Observability(timeline=True)
    obs.scraper = TelemetryScraper(
        obs.clock, obs.metrics, FrameSink(), interval_ms=0.02
    )
    return obs


#: the observer axis: each builds a fresh bundle for one run
OBSERVERS = {
    "off": lambda: None,
    "trace": lambda: Observability(trace_subsystems="all"),
    "timeline": lambda: Observability(timeline=True),
    "telemetry": _telemetry_observer,
}


def _run(policy, period: int, batched: bool, n: int = 60_000, obs=None):
    system = System(default_machine(16), policy, seed=5, obs=obs)
    system.daemon_period_accesses = period
    system.batch_hot_path = batched
    process = system.create_process()
    base = system.sys_mmap(process, FOOTPRINT)
    rng = np.random.default_rng(42)
    stream = zipf(rng, base, FOOTPRINT, n)
    result = system.touch_batch(process, stream)
    return state_fingerprint(system, process), result


def assert_fingerprints_equal(batch_fp, scalar_fp) -> None:
    assert batch_fp.keys() == scalar_fp.keys()
    mismatched = [k for k in batch_fp if batch_fp[k] != scalar_fp[k]]
    assert not mismatched, f"batched path diverged on: {mismatched}"


class EngineSpy:
    """Counts the ``touch_batch`` accesses that run in scalar stretches.

    The engine's scalar accesses call ``System._touch``.  The first one
    after a cut segment translation may be the access that cut it, so it
    is not counted; every other one runs in a stretch.  Also counts the
    daemon quanta that run inside those.
    """

    def __init__(self, system) -> None:
        self.stretch_touches = 0
        self.stretch_daemons = 0
        self._after_cut = False
        self._in_stretch = False
        touch, segment = system._touch, system._batch_segment
        run_daemons = system.run_daemons

        def spy_segment(process, vas):
            seg = segment(process, vas)
            self._after_cut = seg.cut is not None
            return seg

        def spy_touch(process, va):
            self._in_stretch = not self._after_cut
            self._after_cut = False
            self.stretch_touches += self._in_stretch
            try:
                return touch(process, va)
            finally:
                self._in_stretch = False

        def spy_daemons(*args, **kwargs):
            self.stretch_daemons += self._in_stretch
            return run_daemons(*args, **kwargs)

        system._batch_segment = spy_segment
        system._touch = spy_touch
        system.run_daemons = spy_daemons


@pytest.mark.parametrize(
    "policy, observer",
    [
        pytest.param(
            policy,
            observer,
            id=policy.__name__ + ("" if observer == "off" else f"-{observer}"),
        )
        for observer in OBSERVERS
        for policy in (TridentPolicy, THPPolicy, Baseline4KPolicy, HawkEyePolicy)
    ],
)
def test_cold_stream_equivalence(policy, observer):
    """Cold start: faults, promotions and shootdowns all happen mid-batch.

    With an observer on, batch and scalar runs also record the same trace
    events and timeline, and both leave the unobserved run's state.
    Scrape frames are not compared: one taken inside a TLB kernel call
    sees that call's L1 totals in full."""
    batch_obs, scalar_obs = OBSERVERS[observer](), OBSERVERS[observer]()
    batch_fp, batch_res = _run(policy, 20_000, batched=True, obs=batch_obs)
    scalar_fp, scalar_res = _run(policy, 20_000, batched=False, obs=scalar_obs)
    assert_fingerprints_equal(batch_fp, scalar_fp)
    assert batch_res == scalar_res
    if observer == "off":
        return
    unobserved, _ = _run(policy, 20_000, batched=True)
    assert_fingerprints_equal(batch_fp, unobserved)
    assert list(batch_obs.tracer.events()) == list(scalar_obs.tracer.events())
    assert batch_obs.timeline_export() == scalar_obs.timeline_export()


def test_telemetry_observer_scrapes_inside_kernel_calls(monkeypatch):
    """The ``telemetry`` observer's deadlines fall inside TLB kernel calls,
    where the per-event fold must fire them."""
    obs = _telemetry_observer()
    inside = 0
    kernel = sim_batch.hierarchy_touch_batch

    def counting(*args):
        nonlocal inside
        frames = obs.scraper.frames
        kernel(*args)
        inside += obs.scraper.frames - frames

    monkeypatch.setattr(sim_batch, "hierarchy_touch_batch", counting)
    _run(THPPolicy, 20_000, batched=True, obs=obs)
    assert inside > 0


@pytest.mark.parametrize("policy", [TridentPolicy, THPPolicy])
def test_aggressive_daemon_cadence_equivalence(policy):
    """A 333-access daemon period forces many daemon runs inside one batch,
    so promotions (and their TLB shootdowns) repeatedly truncate segments."""
    batch_fp, _ = _run(policy, period=333, batched=True)
    scalar_fp, _ = _run(policy, period=333, batched=False)
    assert_fingerprints_equal(batch_fp, scalar_fp)


@pytest.mark.parametrize(
    "policy", [TridentPolicy, THPPolicy, Baseline4KPolicy, HawkEyePolicy]
)
def test_first_touch_pass_runs_scalar_stretches(policy):
    """One access per base page on fragmented memory faults every few
    accesses: the engine runs such stretches through the scalar ``touch``,
    daemon quanta included, and still leaves the scalar loop's state."""

    def run(batched: bool):
        system = System(default_machine(16), policy, seed=5)
        system.fragment()
        system.daemon_period_accesses = 333
        system.batch_hot_path = batched
        process = system.create_process()
        base = system.sys_mmap(process, FOOTPRINT)
        spy = EngineSpy(system)
        system.touch_batch(
            process, base + np.arange(0, FOOTPRINT, 4096, dtype=np.int64)
        )
        return state_fingerprint(system, process), spy

    batch_fp, spy = run(batched=True)
    scalar_fp, _ = run(batched=False)
    assert_fingerprints_equal(batch_fp, scalar_fp)
    assert spy.stretch_touches > 0
    assert spy.stretch_daemons > 0


@pytest.mark.parametrize("machine", ["native", "guest"])
@pytest.mark.parametrize("call", [1, 16, 31, 32, 33, 64])
def test_call_size_equivalence(machine, call):
    """A stream cut into calls of ``call`` accesses, around
    ``_SHORT_SEGMENT``: shorter calls never open a segment, longer ones
    do, and a 333-access daemon cadence leaves short rooms inside them.
    Mid pages over a 4-large-page footprint give faults while the stream
    is cold and walks once it is warm."""

    def run(batched: bool):
        if machine == "native":
            system = System(default_machine(16), THPPolicy, seed=5)
            process = system.create_process()
        else:
            vm = VirtualMachine(
                default_machine(12),
                default_machine(18),
                THPPolicy,
                TridentPolicy,
                seed=2,
            )
            system = vm.guest
            process = vm.create_guest_process("g")
        system.daemon_period_accesses = 333
        system.batch_hot_path = batched
        footprint = 4 * system.geometry.large_size
        base = system.sys_mmap(process, footprint)
        segments = 0
        segment = system._batch_segment

        def counting_segment(process, vas):
            nonlocal segments
            segments += 1
            return segment(process, vas)

        system._batch_segment = counting_segment
        stream = zipf(np.random.default_rng(42), base, footprint, 8000)
        results = [
            system.touch_batch(process, stream[i : i + call])
            for i in range(0, len(stream), call)
        ]
        state = state_fingerprint(system, process)
        if machine == "guest":
            state["host"] = (vm.host.obs.clock.now_ns, vm.hypervisor.ept_faults)
        return state, results, segments

    batch_fp, batch_results, segments = run(batched=True)
    scalar_fp, scalar_results, _ = run(batched=False)
    assert_fingerprints_equal(batch_fp, scalar_fp)
    assert batch_results == scalar_results
    assert (segments == 0) == (call < sim_batch._SHORT_SEGMENT)
    assert batch_fp["walks"] > 0 and batch_fp["faults"] > 0


def test_batch_result_matches_stats_delta():
    """BatchResult is the delta of the stats the run accumulated."""
    system = System(default_machine(16), TridentPolicy, seed=5)
    process = system.create_process()
    base = system.sys_mmap(process, FOOTPRINT)
    rng = np.random.default_rng(42)
    stream = zipf(rng, base, FOOTPRINT, 20_000)
    first = system.touch_batch(process, stream[:10_000])
    second = system.touch_batch(process, stream[10_000:])
    stats = process.tlb.stats
    assert first.accesses == second.accesses == 10_000
    assert first.accesses + second.accesses == stats.accesses
    assert first.translation_cycles + second.translation_cycles == pytest.approx(
        stats.translation_cycles
    )
    assert first.l1_hits + second.l1_hits == stats.l1_hits
    assert first.walks + second.walks == stats.walks
    assert first.faults + second.faults == process.faults
    for size in (BASE, MID, LARGE):
        assert (
            first.walks_by_size[size] + second.walks_by_size[size]
            == stats.walks_by_size[size]
        )
    assert first.cycles == first.translation_cycles  # TouchResult-style alias


def test_scalar_touch_returns_typed_result():
    """touch() is a one-access view of the same contract: a frozen record."""
    system = System(default_machine(4), Baseline4KPolicy, seed=1)
    process = system.create_process()
    base = system.sys_mmap(process, 1 << 20)
    stats = process.tlb.stats
    before = stats.walk_cycles
    first = system.touch(process, base)
    after_first = stats.walk_cycles
    again = system.touch(process, base)
    assert isinstance(first, TouchResult)
    assert first.faulted and not again.faulted
    assert first.page_size == again.page_size == BASE
    assert first.cycles == after_first - before > 0.0  # cold walk
    assert again.cycles == 0.0  # L1 hit
    assert isinstance(system.touch_batch(process, [base]), BatchResult)


class TestTouchResultContract:
    """TouchResult is a frozen record, not a number."""

    def test_is_not_a_float(self):
        system = System(default_machine(4), Baseline4KPolicy, seed=1)
        process = system.create_process()
        base = system.sys_mmap(process, 1 << 20)
        with pytest.raises(TypeError):
            float(system.touch(process, base))
        with pytest.raises(TypeError):
            _ = system.touch(process, base) + 0.0

    def test_fields_are_frozen(self):
        res = TouchResult(7.0, faulted=True, page_size=LARGE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.cycles = 0.0  # type: ignore[misc]
        assert (res.cycles, res.faulted, res.page_size) == (7.0, True, LARGE)
        assert res == TouchResult(7.0, True, LARGE)
        assert TouchResult(3.0) == TouchResult(3.0, faulted=False, page_size=BASE)


def test_touch_batch_accepts_plain_lists_and_empty():
    system = System(default_machine(4), Baseline4KPolicy, seed=1)
    process = system.create_process()
    base = system.sys_mmap(process, 1 << 20)
    res = system.touch_batch(process, [base, base + 4096, base])
    assert res.accesses == 3
    empty = system.touch_batch(process, np.empty(0, dtype=np.int64))
    assert empty.accesses == 0 and empty.cycles == 0.0


def test_opt_out_subclass_uses_scalar_loop():
    """batch_hot_path=False (the scalar reference ``repro bench`` and the
    equivalence tests replay; no subclass opts out) produces the
    BatchResult through the per-access loop."""
    system = System(default_machine(16), TridentPolicy, seed=5)
    system.batch_hot_path = False
    process = system.create_process()
    base = system.sys_mmap(process, 1 << 22)
    rng = np.random.default_rng(7)
    stream = zipf(rng, base, 1 << 22, 5_000)
    res = system.touch_batch(process, stream)
    assert res.accesses == 5_000
    assert res.accesses == process.tlb.stats.accesses
