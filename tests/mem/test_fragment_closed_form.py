"""The closed-form fill and release equal the per-call loops they replace.

``BuddyAllocator.alloc_run`` and ``free_many`` stand for tens of thousands
of ``alloc(0)`` and ``free`` calls in ``FragmentationInjector.fragment``,
``System._reserve_kernel_memory`` and the rmap registration of
``System.fragment``.  The per-call loops live only here, as the oracle:
every case runs the same operations both ways on x86, sv-napot and arm16k
machines and compares all state the loops leave, from the free lists and
the registry snapshot to the trace stream and the audit listener's
event count.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.trident import TridentPolicy
from repro.geometries import GEOMETRY_PRESETS
from repro.lint.invariants import attach_auditor
from repro.mem.buddy import BuddyAllocator, OutOfMemoryError
from repro.mem.fragmentation import FragmentationInjector, fmfi
from repro.mem.numa import NumaTopology
from repro.obs import Observability
from repro.sim.system import System

GEOMETRIES = ("x86", "sv-napot", "arm16k")
REGIONS = 8
AUDIT_EVERY = 1000


# -- the per-call oracle ------------------------------------------------------
def _alloc_loop(buddy, count, movable):
    pfns = []
    for _ in range(count):
        try:
            pfns.append(buddy.alloc(0, movable=movable))
        except OutOfMemoryError:
            break
    return pfns


def _free_loop(buddy, pfns):
    for pfn in pfns:
        buddy.free(pfn)


def _fragment_loop(injector, fill_fraction, residual_fraction, unmovable_prob):
    """``FragmentationInjector.fragment`` as one call per frame."""
    buddy = injector.buddy
    to_fill = int(buddy.free_frames * fill_fraction)
    injector._unmovable_frames.extend(
        _alloc_loop(buddy, int(to_fill * unmovable_prob), False)
    )
    fresh = _alloc_loop(buddy, to_fill, True)
    if fresh:
        order = injector.rng.permutation(len(fresh))
        fresh = [fresh[i] for i in order]
    keep = int(len(fresh) * residual_fraction)
    _free_loop(buddy, fresh[keep:])
    for pfn in fresh[:keep]:
        injector._pos[pfn] = len(injector._frames)
        injector._frames.append(pfn)
    return fmfi(buddy, buddy.max_order)


def _system_fragment_loop(system, *fractions):
    """``System.fragment`` with the per-call fill and rmap registration."""
    system.injector = FragmentationInjector(system.buddy, system.rng)
    index = _fragment_loop(system.injector, *fractions)
    for pfn in system.injector.cache_frames():
        system.rmap.register(pfn, 0, system.injector)
    return index


def _reserve_loop(system):
    n = int(system.machine.total_frames * system.machine.kernel_unmovable_fraction)
    for _ in range(max(1, n)):
        system.buddy.alloc(0, movable=False)


# -- machines and their state -------------------------------------------------
def _boot(geometry, seed, per_call, numa=None):
    """A traced, audited machine; ``per_call`` boots it with the loop."""
    obs = Observability(trace_subsystems=("buddy",), trace_capacity=1 << 20)
    machine = GEOMETRY_PRESETS[geometry].machine(REGIONS)
    if per_call:
        with mock.patch.object(System, "_reserve_kernel_memory", _reserve_loop):
            system = System(machine, TridentPolicy, seed=seed, obs=obs, numa=numa)
    else:
        system = System(machine, TridentPolicy, seed=seed, obs=obs, numa=numa)
    attach_auditor(system, every=AUDIT_EVERY)
    return system


def _scatter(system, seed):
    """Free blocks at several orders: allocate a mix, free a random half."""
    rng = np.random.default_rng(seed + 1000)
    buddy = system.buddy
    live = []
    for _ in range(200):
        pfn = buddy.try_alloc(int(rng.integers(0, buddy.max_order)))
        if pfn is not None:
            live.append(pfn)
    for i in rng.permutation(len(live))[: len(live) // 2].tolist():
        buddy.free(live[i])


def _state(system):
    buddy = system.buddy
    injector = system.injector
    auditor = system.auditor
    return {
        "free_lists": [
            sorted(buddy.free_block_starts(order))
            for order in range(buddy.max_order + 1)
        ],
        "allocations": list(buddy.iter_allocations()),
        "frame_state": buddy.frame_state.tobytes(),
        "free_frames": buddy.free_frames,
        "regions": (
            system.regions.free_frames.tolist(),
            system.regions.unmovable_frames.tolist(),
        ),
        "metrics": system.obs.metrics.snapshot(),
        "rng": system.rng.bit_generator.state,
        "rmap": list(system.rmap._owners),
        "trace": list(system.obs.tracer.events("buddy")),
        "injector": None
        if injector is None
        else (
            injector._frames,
            list(injector._pos.items()),
            injector._unmovable_frames,
        ),
        "audit": (auditor._events, auditor._due),
    }


def _assert_same(closed, loop):
    a, b = _state(closed), _state(loop)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == b[key], key
    for system in (closed, loop):
        system.buddy.check_invariants()
        system.regions.check_against(system.buddy.frame_state)


# -- the cases ----------------------------------------------------------------
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_boot_reservation_equals_the_loop(geometry):
    _assert_same(_boot(geometry, 3, False), _boot(geometry, 3, True))


@pytest.mark.parametrize("movable", [True, False])
@pytest.mark.parametrize("share", [0.0, 0.001, 0.3, 0.999, 1.0, 1.5])
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_alloc_run_equals_the_alloc_loop(geometry, share, movable):
    closed, loop = _boot(geometry, 5, False), _boot(geometry, 5, True)
    for system in (closed, loop):
        _scatter(system, 5)
    count = int(closed.buddy.free_frames * share) + (share == 0.001)
    got = closed.buddy.alloc_run(count, movable=movable)
    want = _alloc_loop(loop.buddy, count, movable)
    assert got.dtype == np.int64 and got.tolist() == want
    _assert_same(closed, loop)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_free_many_equals_the_free_loop(geometry, seed):
    closed, loop = _boot(geometry, seed, False), _boot(geometry, seed, True)
    rng = np.random.default_rng(seed)
    share = rng.random()
    for system in (closed, loop):
        _scatter(system, seed)
    pfns = _alloc_loop(loop.buddy, int(loop.buddy.free_frames * share), True)
    assert closed.buddy.alloc_run(len(pfns)).tolist() == pfns
    # Free a random subset plus some of the scattered larger blocks.
    chosen = [pfns[i] for i in rng.permutation(len(pfns))[: len(pfns) // 2]]
    big = [p for p, order, _ in loop.buddy.iter_allocations() if order > 0]
    chosen += [big[i] for i in rng.permutation(len(big))[: len(big) // 3]]
    order = rng.permutation(len(chosen)).tolist()
    chosen = [chosen[i] for i in order]
    closed.buddy.free_many(np.array(chosen, dtype=np.int64))
    _free_loop(loop.buddy, chosen)
    _assert_same(closed, loop)


FRACTIONS = [
    (0.95, 0.30, 0.002),  # the paper's page-cache condition
    (0.0, 0.30, 0.002),
    (1.0, 0.0, 0.0),
    (1.0, 1.0, 0.0),
    (0.6, 0.5, 1.0),
    (1.5, 0.3, 0.01),  # the fill runs out of memory
    (1.0, 0.2, 1.0),  # so does the unmovable fill's movable follow-up
]


@pytest.mark.parametrize("fractions", FRACTIONS)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_fragment_equals_the_per_call_fragment(geometry, fractions):
    for seed in range(10) if fractions == FRACTIONS[0] else range(3):
        closed, loop = _boot(geometry, seed, False), _boot(geometry, seed, True)
        for system in (closed, loop):
            _scatter(system, seed)
        assert closed.fragment(*fractions) == _system_fragment_loop(loop, *fractions)
        _assert_same(closed, loop)


def test_two_node_fragment_equals_the_per_call_fragment():
    numa = NumaTopology(nodes=2)
    for seed in range(3):
        closed = _boot("x86", seed, False, numa=numa)
        loop = _boot("x86", seed, True, numa=numa)
        assert closed.fragment() == _system_fragment_loop(loop, 0.95, 0.30, 0.002)
        _assert_same(closed, loop)


def test_injector_on_a_bare_allocator_equals_the_loop():
    def run(closed):
        buddy = BuddyAllocator(1 << 12, 6)
        injector = FragmentationInjector(buddy, np.random.default_rng(11))
        if closed:
            index = injector.fragment(0.9, 0.4, 0.01)
        else:
            index = _fragment_loop(injector, 0.9, 0.4, 0.01)
        buddy.check_invariants()
        return (
            index,
            [sorted(buddy.free_block_starts(o)) for o in range(7)],
            list(buddy.iter_allocations()),
            injector._frames,
            injector._unmovable_frames,
            injector.rng.bit_generator.state,
        )

    assert run(True) == run(False)


class TestFreeManyErrors:
    def test_unknown_or_repeated_pfn_raises_before_any_change(self):
        buddy = BuddyAllocator(64, 4)
        pfns = buddy.alloc_run(8).tolist()
        before = (list(buddy.iter_allocations()), buddy.free_frames)
        for bad in ([pfns[0], 63], [pfns[1], pfns[1]]):
            with pytest.raises(ValueError, match="no allocation starts at pfn"):
                buddy.free_many(bad)
            assert (list(buddy.iter_allocations()), buddy.free_frames) == before

    def test_empty_calls_change_nothing(self):
        buddy = BuddyAllocator(64, 4)
        assert buddy.alloc_run(0).tolist() == []
        buddy.free_many([])
        assert buddy.free_frames == 64
        buddy.check_invariants()
