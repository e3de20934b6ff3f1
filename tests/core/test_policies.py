"""Behavioural tests for the OS memory policies over a real System."""

import pytest

from repro.config import default_machine
from repro.core.baseline4k import Baseline4KPolicy
from repro.core.hawkeye import HawkEyePolicy
from repro.core.hugetlbfs import HugetlbfsPolicy
from repro.core.thp import THPPolicy
from repro.core.trident import TridentPolicy
from repro.sim.system import System

MACHINE = default_machine(16)
G = MACHINE.geometry
BASE, MID, LARGE = G.base_size, G.mid_size, G.large_size
LVL_BASE, LVL_MID, LVL_LARGE = 0, 1, 2  # geometry level indices


def make(policy_factory, regions=16, **kwargs):
    system = System(default_machine(regions), policy_factory, seed=3, **kwargs)
    process = system.create_process("t")
    return system, process


class TestBaseline4K:
    def test_faults_map_single_base_pages(self):
        system, p = make(Baseline4KPolicy)
        addr = system.sys_mmap(p, 4 * MID)
        system.touch(p, addr)
        system.touch(p, addr + BASE)
        assert p.pagetable.count(LVL_BASE) == 2
        assert p.pagetable.count(LVL_MID) == 0

    def test_fault_outside_vma_raises(self):
        system, p = make(Baseline4KPolicy)
        with pytest.raises(ValueError):
            system.policy.handle_fault(p, 0xDEAD0000)


class TestTHP:
    def test_fault_maps_mid_when_aligned(self):
        system, p = make(THPPolicy)
        addr = system.sys_mmap(p, 4 * MID)
        system.touch(p, addr + 5)
        m = p.pagetable.translate(addr)
        assert m.page_size == LVL_MID

    def test_fault_falls_back_to_base_in_small_vma(self):
        system, p = make(THPPolicy)
        addr = system.sys_mmap(p, BASE)
        system.touch(p, addr)
        assert p.pagetable.translate(addr).page_size == LVL_BASE

    def test_never_maps_large(self):
        system, p = make(THPPolicy)
        addr = system.sys_mmap(p, 4 * LARGE)
        for off in range(0, 4 * LARGE, BASE * 7):
            system.touch(p, addr + off)
        system.settle(20)
        assert p.pagetable.count(LVL_LARGE) == 0

    def test_khugepaged_promotes_base_to_mid(self):
        system, p = make(THPPolicy)
        # Grow the heap one base page at a time, touching as we go: the
        # mid-aligned slot never fits the (still short) extent at fault
        # time, so everything maps base pages; promotion fixes that later.
        addrs = []
        for _ in range(2 * G.frames_per_mid):
            a = system.sys_mmap(p, BASE)
            system.touch(p, a)
            addrs.append(a)
        assert p.pagetable.count(LVL_BASE) >= G.frames_per_mid
        system.settle(30)
        assert p.pagetable.count(LVL_MID) >= 1
        assert system.policy.stats.promoted[LVL_MID] >= 1

    def test_promotion_frees_old_frames(self):
        system, p = make(THPPolicy)
        addrs = [system.sys_mmap(p, BASE) for _ in range(G.frames_per_mid)]
        for a in addrs:
            system.touch(p, a)
        used_before = system.buddy.used_frames
        system.settle(30)
        # One mid block replaced frames_per_mid base frames: usage unchanged.
        assert system.buddy.used_frames == used_before

    def test_munmap_returns_memory(self):
        system, p = make(THPPolicy)
        addr = system.sys_mmap(p, 2 * MID)
        system.touch(p, addr)
        used = system.buddy.used_frames
        system.sys_munmap(p, addr)
        assert system.buddy.used_frames < used
        assert p.pagetable.mapped_bytes() == 0


class TestTrident:
    def test_fault_maps_large_first(self):
        system, p = make(TridentPolicy)
        addr = system.sys_mmap(p, 2 * LARGE)
        system.touch(p, addr + 123)
        assert p.pagetable.translate(addr).page_size == LVL_LARGE

    def test_fault_falls_back_mid_then_base(self):
        system, p = make(TridentPolicy)
        addr = system.sys_mmap(p, MID)  # too small for large
        system.touch(p, addr)
        assert p.pagetable.translate(addr).page_size == LVL_MID
        addr2 = system.sys_mmap(p, BASE)
        system.touch(p, addr2)
        assert p.pagetable.translate(addr2).page_size == LVL_BASE

    def test_fault_uses_zerofill_pool(self):
        system, p = make(TridentPolicy)
        # An idle period: kzerofilld can use whole-second quanta.
        system.settle(5, budget_ns=1e9)
        assert system.zerofill.pool_size > 0
        addr = system.sys_mmap(p, LARGE, kind="heap")
        system.policy.handle_fault(p, addr)
        latency = system.policy.stats.fault_latencies[-1]
        assert latency == pytest.approx(system.cost.large_fault_mapped_ns)

    def test_fault_without_pool_zeroes_synchronously(self):
        system, p = make(TridentPolicy)
        assert system.zerofill.pool_size == 0
        addr = system.sys_mmap(p, LARGE)
        system.policy.handle_fault(p, addr)
        latency = system.policy.stats.fault_latencies[-1]
        assert latency > system.cost.zero_ns(LARGE)

    def test_promotes_incremental_heap_to_large(self):
        system, p = make(TridentPolicy)
        # Grow a heap in mid-sized steps: faults map mid, promotion -> large.
        for _ in range(2 * G.mids_per_large):
            a = system.sys_mmap(p, MID)
            system.touch(p, a)
        assert p.pagetable.count(LVL_LARGE) == 0
        system.settle_until_quiet()
        assert p.pagetable.count(LVL_LARGE) >= 1
        assert system.policy.stats.promoted[LVL_LARGE] >= 1

    def test_promotion_disabled_flag(self):
        system, p = make(lambda k: TridentPolicy(k, promote=False))
        for _ in range(G.mids_per_large):
            a = system.sys_mmap(p, MID)
            system.touch(p, a)
        system.settle(30)
        assert p.pagetable.count(LVL_LARGE) == 0

    def test_1gonly_skips_mid(self):
        system, p = make(lambda k: TridentPolicy(k, use_mid=False))
        addr = system.sys_mmap(p, MID)
        system.touch(p, addr)
        assert p.pagetable.translate(addr).page_size == LVL_BASE

    def test_fragmented_fault_fails_large_then_promotes(self):
        system, p = make(TridentPolicy, regions=24)
        system.fragment()
        addr = system.sys_mmap(p, 2 * LARGE)
        system.touch(p, addr)
        stats = system.policy.stats
        assert stats.fault_large_attempts >= 1
        # Heavy fragmentation: first large attempt typically fails.
        assert stats.fault_large_failures >= 0
        system.settle_until_quiet()
        # Smart compaction should eventually produce at least one chunk.
        assert (
            p.pagetable.count(LVL_LARGE) >= 1
            or stats.promo_large_failures > 0
        )

    def test_smart_vs_normal_compaction_bytes(self):
        copied = {}
        for smart in (True, False):
            system, p = make(
                lambda k, s=smart: TridentPolicy(k, smart_compaction=s), regions=24
            )
            system.fragment(residual_fraction=0.35)
            addr = system.sys_mmap(p, 4 * LARGE)
            for off in range(0, 4 * LARGE, BASE * 3):
                system.touch(p, addr + off)
            system.settle_until_quiet(max_ticks=120)
            compactor = (
                system.smart_compactor if smart else system.normal_compactor
            )
            copied[smart] = compactor.stats.bytes_copied
        # Smart compaction moves no more data than normal for the same job.
        assert copied[True] <= copied[False] or copied[False] == 0


class TestHugetlbfs:
    def test_reserves_pool_at_boot(self):
        system, p = make(lambda k: HugetlbfsPolicy(k, LVL_LARGE))
        assert system.policy.reserved_pages > 0

    def test_eligible_heap_gets_huge_pages(self):
        system, p = make(lambda k: HugetlbfsPolicy(k, LVL_MID))
        addr = system.sys_mmap(p, 4 * MID, kind="heap")
        system.touch(p, addr)
        assert p.pagetable.translate(addr).page_size == LVL_MID

    def test_stack_not_eligible(self):
        system, p = make(lambda k: HugetlbfsPolicy(k, LVL_MID))
        addr = system.sys_mmap(p, 4 * MID, kind="stack")
        system.touch(p, addr)
        assert p.pagetable.translate(addr).page_size == LVL_BASE

    def test_morecore_spill_maps_beyond_heap_end(self):
        system, p = make(lambda k: HugetlbfsPolicy(k, LVL_LARGE))
        addr = system.sys_mmap(p, MID, kind="heap")  # smaller than a large page
        system.touch(p, addr)
        m = p.pagetable.translate(addr)
        assert m.page_size == LVL_LARGE  # rounded up, hugetlb-style

    def test_fragmented_boot_under_reserves(self):
        machine = default_machine(16)
        # Fragment first, then boot the hugetlbfs policy on the same system.
        system2 = System(machine, Baseline4KPolicy, seed=1)
        system2.fragment()
        policy = HugetlbfsPolicy(system2, LVL_LARGE)
        policy.on_boot()
        frames = system2.machine.total_frames
        possible = int(frames * 0.65) >> machine.geometry.large_order
        assert policy.reserved_pages < possible

    def test_pool_returns_on_unmap(self):
        system, p = make(lambda k: HugetlbfsPolicy(k, LVL_MID))
        before = system.policy.reserved_pages
        addr = system.sys_mmap(p, MID, kind="heap")
        system.touch(p, addr)
        assert system.policy.reserved_pages == before - 1
        system.sys_munmap(p, addr)
        assert system.policy.reserved_pages == before


class TestHawkEye:
    def test_promotes_like_thp(self):
        system, p = make(HawkEyePolicy)
        addrs = [system.sys_mmap(p, BASE) for _ in range(2 * G.frames_per_mid)]
        for a in addrs:
            system.touch(p, a)
        system.settle(40)
        assert p.pagetable.count(LVL_MID) >= 1

    def test_bloat_recovery_demotes_untouched_mid(self):
        system, p = make(HawkEyePolicy)
        addr = system.sys_mmap(p, 2 * MID)
        system.touch(p, addr)  # fault maps a whole mid page; 1 page touched
        assert p.pagetable.translate(addr).page_size == LVL_MID
        system.settle(40)
        # Mostly-untouched mid page gets demoted to base pages.
        assert system.policy.stats.demoted[LVL_MID] >= 1
        m = p.pagetable.translate(addr)
        assert m is not None and m.page_size == LVL_BASE

    def test_bloat_recovery_reduces_mapped_bytes(self):
        system, p = make(HawkEyePolicy)
        addr = system.sys_mmap(p, 4 * MID)
        system.touch(p, addr)
        mapped_before = p.pagetable.mapped_bytes()
        system.settle(40)
        assert p.pagetable.mapped_bytes() <= mapped_before

    def test_hot_slots_promoted_first(self):
        system, p = make(HawkEyePolicy)
        # Two candidate mid slots; one is touched heavily (hot).
        cold = [system.sys_mmap(p, BASE) for _ in range(G.frames_per_mid)]
        hot = [system.sys_mmap(p, BASE) for _ in range(G.frames_per_mid)]
        for a in cold + hot:
            system.touch(p, a)
        for _ in range(20):
            for a in hot:
                system.touch(p, a)
        # One kbinmanager pass plus a tiny promotion budget: the hot slot
        # should be first in line.
        system.run_daemons(budget_ns=5e5)
        promoted = [m.va for m in p.pagetable.iter_mappings(LVL_MID)]
        if promoted:
            hot_extent = p.aspace.extent_of(hot[0])
            assert any(hot_extent.start <= va < hot_extent.end for va in promoted)


class TestSystemPlumbing:
    def test_reclaim_feeds_base_faults_under_pressure(self):
        system, p = make(Baseline4KPolicy, regions=16)
        system.fragment(fill_fraction=0.99, residual_fraction=0.95)
        addr = system.sys_mmap(p, 8 * BASE)
        for off in range(0, 8 * BASE, BASE):
            system.touch(p, addr + off)  # needs reclaim to succeed
        assert p.pagetable.count(LVL_BASE) == 8

    def test_split_mapping_on_partial_overlap_munmap(self):
        system, p = make(TridentPolicy)
        # Two adjacent heap VMAs merge; a large fault near the boundary maps
        # across both; munmapping one must split the large page.
        a1 = system.sys_mmap(p, LARGE // 2)
        a2 = system.sys_mmap(p, LARGE)
        system.touch(p, a1)
        m = p.pagetable.translate(a1)
        assert m.page_size == LVL_LARGE
        system.sys_munmap(p, a1)
        assert p.pagetable.translate(a1) is None
        # The portion inside the second VMA survived as base pages.
        assert p.pagetable.translate(a2) is not None
        system.buddy.check_invariants()

    def test_bloat_accounting(self):
        system, p = make(TridentPolicy)
        addr = system.sys_mmap(p, LARGE)
        system.touch(p, addr)  # one touch, whole large page mapped
        assert p.bloat_bytes == LARGE - BASE
