"""Tests for the hypervisor, guest/host composition, and Trident-pv."""

import numpy as np
import pytest

from repro.config import default_machine
from repro.core.baseline4k import Baseline4KPolicy
from repro.core.thp import THPPolicy
from repro.core.trident import TridentPolicy
from repro.geometries import GEOMETRY_PRESETS
from repro.obs import Observability
from repro.sim import batch as sim_batch
from repro.sim.bench import state_fingerprint
from repro.virt.hypercall import PVExchangeInterface
from repro.virt.machine import VirtualMachine
from repro.virt.tridentpv import TridentPVPolicy
from repro.workloads.access import zipf

GUEST = default_machine(12)
HOST = default_machine(18)
G = GUEST.geometry
BASE, MID, LARGE = G.base_size, G.mid_size, G.large_size
LVL_BASE, LVL_MID, LVL_LARGE = 0, 1, 2  # geometry level indices


def make_vm(guest_policy=TridentPolicy, host_policy=TridentPolicy, pv=False):
    if pv:
        def guest_factory(kernel):
            iface = PVExchangeInterface(kernel.hypervisor, kernel.cost)
            return TridentPVPolicy(kernel, iface)
    else:
        guest_factory = guest_policy
    vm = VirtualMachine(GUEST, HOST, guest_factory, host_policy, seed=2)
    return vm, vm.create_guest_process("g")


class TestHypervisor:
    def test_guest_ram_is_one_host_allocation(self):
        vm, _ = make_vm()
        hv = vm.hypervisor
        extents = hv.vm_process.aspace.iter_extents()
        assert len(extents) == 1
        assert extents[0].length == GUEST.total_bytes

    def test_ept_fault_backs_gpa_once(self):
        vm, _ = make_vm()
        hv = vm.hypervisor
        latency = hv.ensure_backed(0)
        assert latency > 0
        assert hv.ensure_backed(0) == 0.0
        assert hv.ept_faults == 1

    def test_gpa_bounds_checked(self):
        vm, _ = make_vm()
        with pytest.raises(ValueError):
            vm.hypervisor.hva(GUEST.total_bytes)

    def test_host_rejects_undersized_memory(self):
        with pytest.raises(ValueError):
            VirtualMachine(HOST, GUEST, TridentPolicy, TridentPolicy)


class TestGuestExecution:
    def test_touch_translates_through_both_levels(self):
        vm, p = make_vm()
        addr = vm.guest.sys_mmap(p, 2 * MID)
        vm.guest.touch(p, addr)
        guest_mapping = p.pagetable.translate(addr)
        assert guest_mapping is not None
        gpa = p.tlb.gpa_of(guest_mapping, addr)
        assert vm.hypervisor.host_table.translate(vm.hypervisor.hva(gpa)) is not None

    def test_trident_both_levels_gives_large_effective(self):
        vm, p = make_vm()
        addr = vm.guest.sys_mmap(p, 2 * LARGE)
        vm.guest.touch(p, addr)
        assert p.pagetable.translate(addr).page_size == LVL_LARGE
        # Second access inside the same large page should hit (effective
        # page size LARGE at both levels).
        vm.guest.touch(p, addr + MID)
        assert p.tlb.stats.walks == 1

    def test_thp_host_caps_effective_size(self):
        vm, p = make_vm(guest_policy=TridentPolicy, host_policy=THPPolicy)
        addr = vm.guest.sys_mmap(p, LARGE)
        vm.guest.touch(p, addr)
        gm = p.pagetable.translate(addr)
        hm = p.tlb.host_mapping_for(gm, addr)
        assert gm.page_size == LVL_LARGE
        assert hm.page_size == LVL_MID  # host THP never maps 1GB


class TestExchangeHypercall:
    def test_exchange_swaps_backing(self):
        # THP host: each mid-sized gPA range gets its own mid host page, so
        # the two sides have distinct backing to swap.
        vm, p = make_vm(host_policy=THPPolicy)
        hv = vm.hypervisor
        gpa_a, gpa_b = 0, MID
        for off in range(0, MID, BASE):
            hv.ensure_backed(gpa_a + off)
            hv.ensure_backed(gpa_b + off)
        before_a = hv.host_table.translate(hv.hva(gpa_a)).pfn
        before_b = hv.host_table.translate(hv.hva(gpa_b)).pfn
        hv.exchange_ranges([(gpa_a, gpa_b, MID)])
        after_a = hv.host_table.translate(hv.hva(gpa_a)).pfn
        after_b = hv.host_table.translate(hv.hva(gpa_b)).pfn
        assert after_a == before_b
        assert after_b == before_a

    def test_exchange_splits_covering_large_page(self):
        vm, p = make_vm()
        hv = vm.hypervisor
        hv.ensure_backed(0)  # host Trident maps a whole large page
        assert hv.host_table.translate(hv.hva(0)).page_size == LVL_LARGE
        hv.exchange_ranges([(0, MID, MID)])
        # After the exchange the covering page was split to mid granularity.
        assert hv.host_table.translate(hv.hva(0)).page_size == LVL_MID
        vm.host.buddy.check_invariants()

    def test_exchange_tries_every_level_on_sv_napot(self):
        """On the four-level SVNAPOT ladder, a 2MB-class range between two
        2MB-class EPT mappings is one exchange and both mappings stay
        whole: the granules are the geometry's levels."""
        napot = GEOMETRY_PRESETS["sv-napot"]
        vm = VirtualMachine(
            napot.machine(12), napot.machine(18), TridentPolicy, THPPolicy,
            seed=2,
        )
        hv = vm.hypervisor
        g = vm.host.geometry
        level = g.thp_level
        size = g.bytes_for(level)
        assert g.name_of(level) == "mega" and level != g.top_level
        for off in range(0, 2 * size, g.base_size):
            hv.ensure_backed(off)
        before = [hv.host_table.translate(hv.hva(gpa)) for gpa in (0, size)]
        assert [m.page_size for m in before] == [level, level]
        pfns = [m.pfn for m in before]
        assert hv.exchange_ranges([(0, size, size)]) == 1
        after = [hv.host_table.translate(hv.hva(gpa)) for gpa in (0, size)]
        assert [m.page_size for m in after] == [level, level]
        assert [m.pfn for m in after] == pfns[::-1]
        vm.host.buddy.check_invariants()

    def test_misaligned_exchange_rejected(self):
        vm, _ = make_vm()
        with pytest.raises(ValueError):
            vm.hypervisor.exchange_ranges([(1, MID, MID)])

    def test_batched_cheaper_than_unbatched(self):
        vm, _ = make_vm()
        iface = PVExchangeInterface(vm.hypervisor, vm.host.cost)
        pairs = [(i * MID, (i + 8) * MID, MID) for i in range(4)]
        batched = iface.pv_promotion_ns(512, batched=True)
        unbatched = iface.pv_promotion_ns(512, batched=False)
        copy = iface.copy_promotion_ns((1 << 30))
        assert batched < unbatched < copy

    def test_interface_counts_hypercalls(self):
        vm, _ = make_vm()
        iface = PVExchangeInterface(vm.hypervisor, vm.host.cost)
        spent = iface.exchange([(0, MID, MID)], batched=True)
        assert spent > 0
        assert iface.hypercalls == 1
        assert iface.exchanges >= 1


class TestTridentPV:
    def _grow_mid_heap(self, vm, p, n_mids):
        for _ in range(n_mids):
            a = vm.guest.sys_mmap(p, MID)
            vm.guest.touch(p, a)

    def test_pv_promotion_exchanges_instead_of_copying(self):
        vm, p = make_vm(pv=True)
        self._grow_mid_heap(vm, p, 2 * G.mids_per_large)
        vm.guest.settle_until_quiet()
        policy = vm.guest.policy
        assert policy.stats.promoted[LVL_LARGE] >= 1
        assert policy.pv_promotions >= 1
        assert policy.pv.exchanges > 0
        # Mid chunks were exchanged, not copied.
        assert policy.stats.promo_copy_bytes < MID * G.mids_per_large

    def test_pv_faster_than_copy_for_mid_promotions(self):
        def run(pv):
            vm, p = make_vm(pv=pv)
            self._grow_mid_heap(vm, p, G.mids_per_large)
            vm.guest.settle_until_quiet()
            return vm.guest.policy.stats.daemon_ns, vm.guest.policy

        pv_ns, pv_policy = run(True)
        copy_ns, copy_policy = run(False)
        assert pv_policy.stats.promoted[LVL_LARGE] >= 1
        assert copy_policy.stats.promoted[LVL_LARGE] >= 1
        assert pv_ns < copy_ns

    def test_base_pages_still_copy(self):
        vm, p = make_vm(pv=True)
        # Base-page-only heap: grow one base page at a time.
        for _ in range(G.frames_per_large):
            a = vm.guest.sys_mmap(p, BASE)
            vm.guest.touch(p, a)
        vm.guest.settle_until_quiet()
        policy = vm.guest.policy
        if policy.stats.promoted[LVL_LARGE]:
            assert policy.stats.promo_copy_bytes > 0


def _pv_guest(kernel):
    iface = PVExchangeInterface(kernel.hypervisor, kernel.cost, obs=kernel.obs)
    return TridentPVPolicy(kernel, iface)


GRID_GUESTS = {
    "Trident": TridentPolicy,
    "Trident-pv": _pv_guest,
    "2MB-THP": THPPolicy,
    "4KB": Baseline4KPolicy,
}
GRID_HOSTS = {"Trident": TridentPolicy, "2MB-THP": THPPolicy, "4KB": Baseline4KPolicy}
GRID_OBSERVERS = {
    "off": lambda: None,
    "trace": lambda: Observability(trace_subsystems="all"),
    "timeline": lambda: Observability(timeline=True),
}


def _guest_run(guest, host, period, observer, batched):
    """One grid cell: the guest and host state a mixed stream leaves.

    The heap grows one mid page at a time (guest Trident maps mid pages its
    daemons later promote, through exchanges under Trident-pv).  Then a
    first-touch pass (guest and EPT faults, scalar stretches), a uniform
    stream (TLB capacity walks inside vectorized segments) and a zipf
    stream run as several ``touch_batch`` calls.
    """
    obs = GRID_OBSERVERS[observer]()
    vm = VirtualMachine(
        GUEST, HOST, GRID_GUESTS[guest], GRID_HOSTS[host], seed=2, guest_obs=obs
    )
    system = vm.guest
    system.daemon_period_accesses = period
    system.batch_hot_path = batched
    p = vm.create_guest_process("g")
    footprint = 2 * LARGE
    addr = system.sys_mmap(p, MID)
    system.touch_batch(p, [addr])
    for _ in range(footprint // MID - 1):
        system.touch_batch(p, [system.sys_mmap(p, MID)])
    rng = np.random.default_rng(42)
    stream = np.concatenate(
        [
            addr + np.arange(0, footprint, BASE),
            addr + rng.integers(0, footprint, 3000),
            zipf(rng, addr, footprint, 3000),
        ]
    )
    for chunk in np.array_split(stream, 4):
        system.touch_batch(p, chunk)
    hv = vm.hypervisor
    host_stats = vm.host.policy.stats
    state = {
        "guest": state_fingerprint(system, p),
        "host": (
            vm.host.obs.clock.now_ns,
            host_stats.fault_ns,
            host_stats.daemon_ns,
            hv.ept_faults,
        ),
        "host_touched": sorted(hv.vm_process.touched_pages),
        "host_mappings": sorted(
            (m.va, m.pfn, m.accessed) for m in hv.host_table.iter_mappings()
        ),
    }
    if obs is not None:
        state["events"] = list(obs.tracer.events())
        state["timeline"] = obs.timeline_export()
    return state, vm


class TestGuestPathEquivalence:
    """``touch_batch`` on a guest leaves the state a ``touch`` loop does.

    Guests run the batch engine: the grid crosses guest and host policies,
    two daemon cadences and the observers, and compares the guest's
    fingerprint, the host's clock, fault and daemon time, EPT faults,
    touched pages and mappings, and the trace and timeline.
    """

    @pytest.mark.parametrize("observer", list(GRID_OBSERVERS))
    @pytest.mark.parametrize("period", [333, 20_000])
    @pytest.mark.parametrize("host", list(GRID_HOSTS))
    @pytest.mark.parametrize("guest", list(GRID_GUESTS))
    def test_batch_and_scalar_match(self, guest, host, period, observer):
        batch, _ = _guest_run(guest, host, period, observer, batched=True)
        scalar, _ = _guest_run(guest, host, period, observer, batched=False)
        mismatched = [k for k in batch if batch[k] != scalar[k]]
        assert not mismatched, f"batched guest path diverged on: {mismatched}"
        guest_fp = batch["guest"]
        assert sum(guest_fp["walks_by_size"].values()) > 0
        assert any(h[0] for k, h in guest_fp.items() if k.startswith("hist:"))

    @pytest.mark.parametrize(
        "guest, host, covers",
        [
            ("4KB", "4KB", "capacity walks inside segments"),
            ("Trident", "4KB", "host page smaller, EPT faults mid-batch"),
            ("Trident-pv", "Trident", "pv exchanges"),
        ],
    )
    def test_grid_exercises_the_batch_paths(self, monkeypatch, guest, host, covers):
        """The grid's streams reach what the equivalence must hold for."""
        seen = {"walks": 0, "split": 0}
        kernel = sim_batch.hierarchy_touch_batch

        def counting(hierarchy, levels, vas, keys=None):
            walks = hierarchy.stats.walks
            kernel(hierarchy, levels, vas, keys)
            seen["walks"] += hierarchy.stats.walks - walks
            n = hierarchy.n_levels
            seen["split"] += int(np.count_nonzero(keys // n > keys % n))

        monkeypatch.setattr(sim_batch, "hierarchy_touch_batch", counting)
        _, vm = _guest_run(guest, host, 333, "off", batched=True)
        if covers == "capacity walks inside segments":
            assert seen["walks"] > 0
        elif covers == "pv exchanges":
            assert vm.guest.policy.pv.exchanges > 0
        else:
            # More EPT faults than guest faults: the rest were unbacked
            # gPAs inside guest pages that were already mapped.
            assert seen["split"] > 0
            assert vm.hypervisor.ept_faults > vm.guest.processes[0].faults
