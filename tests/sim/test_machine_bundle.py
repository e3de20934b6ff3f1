"""One machine, one Observability bundle.

``System`` builds one bundle (or takes the caller's) and hands it to
every component it constructs: the buddy allocator and each NUMA pool,
the region tracker, the zero-fill engine, both compactors, the policy,
every process's TLB unit and, in a Trident-pv guest, the exchange
interface.  Each of them must hold that bundle's tracer and clock and
count into its registry, and nothing may build a second bundle behind
the machine's back.  A component built on its own resolves a fresh
bundle of its own, and still counts into it.
"""

from __future__ import annotations

import pytest

from repro.config import WalkConfig, default_machine
from repro.core.trident import TridentPolicy
from repro.mem.buddy import BuddyAllocator
from repro.mem.numa import NumaBuddyPools, NumaTopology
from repro.obs import Observability
from repro.sim.system import System
from repro.tlb.hierarchy import TLBHierarchy
from repro.virt.hypercall import PVExchangeInterface
from repro.virt.machine import VirtualMachine
from repro.virt.tridentpv import TridentPVPolicy
from repro.vm.pagetable import PageTable

MACHINE = default_machine(8)


@pytest.fixture
def bundles(monkeypatch):
    """Every Observability built while the test runs, in order."""
    built: list[Observability] = []
    init = Observability.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Observability, "__init__", recording_init)
    return built


def _pv_guest_factory(kernel):
    pv = PVExchangeInterface(kernel.hypervisor, kernel.cost, obs=kernel.obs)
    return TridentPVPolicy(kernel, pv)


def _assert_machine_shares(system: System) -> None:
    obs = system.obs
    m = obs.metrics
    buddy = system.buddy
    pools = buddy.pools if isinstance(buddy, NumaBuddyPools) else (buddy,)
    for pool in pools:
        assert pool._tracer is obs.tracer
        assert pool._c_alloc[0] is m.get("buddy_alloc_total", order=0)
        assert pool._c_free[0] is m.get("buddy_free_total", order=0)
        assert pool._c_split is m.get("buddy_split_total")
        assert pool._c_coalesce is m.get("buddy_coalesce_total")
    if isinstance(buddy, NumaBuddyPools):
        assert buddy._c_local is m.get("numa_alloc_local_total")
        assert buddy._c_remote is m.get("numa_alloc_remote_total")
    assert system.regions._tracer is obs.tracer
    zf = system.zerofill
    assert zf._tracer is obs.tracer
    assert zf._clock is obs.clock
    assert zf._spans is obs.spans
    assert zf._c_hit is m.get("zerofill_take_hit_total")
    assert zf._g_pool is m.get("zerofill_pool_size")
    for compactor in (system.normal_compactor, system.smart_compactor):
        assert compactor._tracer is obs.tracer
        assert compactor._clock is obs.clock
        assert compactor._spans is obs.spans
        assert compactor._metrics is m
        assert compactor._c_attempt is m.get(
            "compaction_attempt_total", kind=compactor.kind
        )
    assert system.policy._tracer is obs.tracer
    assert len(system.processes) == 2
    for process in system.processes:
        tlb = process.tlb
        assert tlb._tracer is obs.tracer
        assert tlb._clock is obs.clock
        for level, label in enumerate(system.geometry.labels):
            assert tlb._h_walk[level] is m.get("tlb_walk_cycles", size=label)
    # The collector-mirrored metrics land in the same registry.
    snap = m.snapshot()
    assert "regions_fully_free" in snap["gauges"]
    assert "buddy_free_frames" in snap["gauges"]
    assert "policy_faults_total" in snap["counters"]


def _touch_some(system: System, process) -> None:
    base = system.sys_mmap(process, 4 * system.geometry.mid_size)
    for off in range(0, 4 * system.geometry.mid_size, system.geometry.mid_size):
        system.touch(process, base + off)


def test_flat_system_builds_one_bundle_and_shares_it(bundles):
    system = System(MACHINE, TridentPolicy)
    for name in ("a", "b"):
        _touch_some(system, system.create_process(name))
    assert bundles == [system.obs]
    _assert_machine_shares(system)


def test_numa_pools_share_the_machine_bundle(bundles):
    system = System(MACHINE, TridentPolicy, numa=NumaTopology(nodes=2))
    for node, name in enumerate(("a", "b")):
        _touch_some(system, system.create_process(name, home_node=node))
    assert bundles == [system.obs]
    assert len(system.buddy.pools) == 2
    _assert_machine_shares(system)
    # The facade's aggregate collector runs after the pools' own.
    m = system.obs.metrics
    m.collect()
    assert m.value("buddy_free_frames") == system.buddy.free_frames


def test_pv_guest_and_host_each_share_their_bundle(bundles):
    vm = VirtualMachine(
        default_machine(6),
        default_machine(12),
        _pv_guest_factory,
        TridentPolicy,
        seed=3,
    )
    for name in ("a", "b"):
        _touch_some(vm.guest, vm.create_guest_process(name))
    # One bundle per machine: the host's and the guest's.
    assert bundles == [vm.host.obs, vm.guest.obs]
    _assert_machine_shares(vm.guest)
    pv = vm.guest.policy.pv
    assert pv._clock is vm.guest.obs.clock
    assert pv._spans is vm.guest.obs.spans
    vm.host.create_process("c")  # the hypervisor built the first
    _assert_machine_shares(vm.host)


def test_standalone_components_count_into_their_own_bundle(bundles):
    buddy = BuddyAllocator(64, 3)
    assert len(bundles) == 1
    own = bundles[0].metrics
    buddy.alloc(0)
    buddy.alloc(1)
    assert own.value("buddy_alloc_total", order=0) == 1
    assert own.value("buddy_alloc_total", order=1) == 1
    assert own.snapshot()["gauges"]["buddy_free_frames"] == 61

    geometry = MACHINE.geometry
    mapping = PageTable(geometry).map_page(0, 0, pfn=0)
    tlb = TLBHierarchy(WalkConfig(), geometry)
    assert len(bundles) == 2
    cycles = tlb.access(0, mapping)
    label = geometry.label_for(0)
    walks = bundles[1].metrics.get("tlb_walk_cycles", size=label)
    assert walks.count == 1 and walks.sum == cycles
    assert bundles[1].clock.now_ns > 0.0
    # Neither component touched the other's bundle.
    assert bundles[0].metrics.get("tlb_walk_cycles", size=label) is None
    assert bundles[1].metrics.get("buddy_alloc_total", order=0) is None
