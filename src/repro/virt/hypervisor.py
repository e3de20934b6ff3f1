"""The hypervisor: host-side memory management for one virtual machine.

KVM-style hosting, as the paper evaluates: the VM's guest-physical memory is
one big anonymous allocation in a host process, and the *host's* memory
policy (THP, HawkEye or Trident, deployed at the hypervisor level) decides
which EPT page sizes back it.  An EPT violation — a guest access to a gPA
the host has not backed yet — is a host page fault on that allocation.

The hypervisor also implements the Trident-pv hypercall: exchanging the
gPA -> hPA mappings of two guest-physical ranges, which makes guest page
promotion/compaction copy-less (Figure 8c).  Exchanging may require
splitting a covering EPT huge page first, exactly like KVM EPT splitting.
"""

from __future__ import annotations

import numpy as np

from repro.sim.system import System


class Hypervisor:
    """Host-side view: the VM is a host process; gPA is its virtual memory."""

    def __init__(self, host_system: System, guest_bytes: int) -> None:
        geometry = host_system.geometry
        if guest_bytes % geometry.large_size:
            raise ValueError("guest memory must be a whole number of large pages")
        self.host = host_system
        self.guest_bytes = guest_bytes
        self.vm_process = host_system.create_process("vm")
        # qemu-style: guest RAM is one large-aligned anonymous allocation.
        vma = self.vm_process.aspace.mmap(
            guest_bytes, name="heap", align=geometry.large_size
        )
        self.hva_base = vma.start
        self.ept_faults = 0

    @property
    def host_table(self):
        return self.vm_process.pagetable

    def hva(self, gpa: int) -> int:
        if not 0 <= gpa < self.guest_bytes:
            raise ValueError(f"gPA {gpa:#x} outside guest memory")
        return self.hva_base + gpa

    def hvas(self, gpas: np.ndarray) -> np.ndarray:
        """:meth:`hva` over an int64 array; an out-of-range gPA raises the
        same ``ValueError``."""
        outside = (gpas < 0) | (gpas >= self.guest_bytes)
        if outside.any():
            self.hva(int(gpas[outside.argmax()]))
        return self.hva_base + gpas

    # -- EPT faults ---------------------------------------------------------
    def ensure_backed(self, gpa: int) -> float:
        """Back the gPA with host memory if needed; returns the fault ns.

        The ns are what the host policy's ``fault_ns`` grew by: 0.0 when
        the gPA was backed already.

        Every call records the backing page as touched in the host's view:
        guest accesses ARE host-memory accesses, and host-side policies that
        reason about utilization (HawkEye's bloat recovery) must see them —
        otherwise the host would demote the guest's working set as "dead".
        """
        hva = self.hva(gpa)
        self.vm_process.record_touch(hva)
        if self.host_table.translate(hva) is not None:
            return 0.0
        stats = self.host.policy.stats
        before = stats.fault_ns
        self.host.policy.handle_fault(self.vm_process, hva)
        self.ept_faults += 1
        return stats.fault_ns - before

    # -- the Trident-pv exchange hypercall -------------------------------------
    def exchange_ranges(self, pairs: list[tuple[int, int, int]]) -> int:
        """Exchange gPA->hPA mappings for each (gpa_a, gpa_b, nbytes) pair.

        Returns the number of page-mapping exchanges performed (the unit the
        cost model charges per).  Both ranges must be backed; covering EPT
        huge pages are split to the exchange granularity first.
        """
        exchanges = 0
        for gpa_a, gpa_b, nbytes in pairs:
            exchanges += self._exchange_one(gpa_a, gpa_b, nbytes)
        # --audit: the hypercall's postcondition is mapping bijectivity;
        # check it immediately rather than waiting for a sampled audit.
        auditor = self.host.auditor
        if auditor is not None:
            auditor.audit_exchange()
        return exchanges

    def _exchange_one(self, gpa_a: int, gpa_b: int, nbytes: int) -> int:
        geometry = self.host.geometry
        base = geometry.base_size
        if nbytes % base or gpa_a % base or gpa_b % base:
            raise ValueError("exchange ranges must be base-page aligned")
        # Ensure both sides are backed (the destination of a promotion is a
        # freshly allocated gPA block the guest has not touched).
        for off in range(0, nbytes, base):
            self.ensure_backed(gpa_a + off)
            self.ensure_backed(gpa_b + off)
        count = 0
        off = 0
        while off < nbytes:
            hva_a = self.hva(gpa_a + off)
            hva_b = self.hva(gpa_b + off)
            map_a = self._mapping_at_granule(hva_a)
            map_b = self._mapping_at_granule(hva_b)
            # Exchange at the coarsest level both sides share and the
            # remaining length/alignment allows.
            cap = min(
                geometry.bytes_for(map_a.page_size),
                geometry.bytes_for(map_b.page_size),
            )
            remaining = nbytes - off
            granule = base
            for level in geometry.levels_desc:
                candidate = geometry.bytes_for(level)
                if (
                    candidate <= cap
                    and candidate <= remaining
                    and (gpa_a + off) % candidate == 0
                    and (gpa_b + off) % candidate == 0
                ):
                    granule = candidate
                    break
            map_a = self._split_to(hva_a, granule)
            map_b = self._split_to(hva_b, granule)
            map_a.pfn, map_b.pfn = map_b.pfn, map_a.pfn
            self._owner_swap(map_a, map_b)
            off += granule
            count += 1
        return count

    def _mapping_at_granule(self, hva: int):
        mapping = self.host_table.translate(hva)
        assert mapping is not None, "exchange on unbacked gPA"
        return mapping

    def _split_to(self, hva: int, granule: int):
        """Split the mapping covering ``hva`` until its size is ``granule``.

        EPT huge-page splitting: the same host frames get remapped at a
        finer granularity — no copying, just page-table surgery.
        """
        geometry = self.host.geometry
        policy = self.host.policy
        while True:
            mapping = self.host_table.translate(hva)
            size_bytes = geometry.bytes_for(mapping.page_size)
            if size_bytes <= granule:
                if size_bytes != granule:
                    raise ValueError(
                        f"mapping at {mapping.va:#x} finer than exchange granule"
                    )
                return mapping
            # Split one level down, keeping the same frames.
            next_size = mapping.page_size - 1
            step = geometry.bytes_for(next_size)
            frames_per = geometry.frames_for(next_size)
            self.host_table.unmap(mapping.va, mapping.page_size)
            self.host.rmap.unregister(mapping.pfn)
            self.vm_process.frame_owner.remove(mapping.pfn)
            # The buddy block stays allocated as a unit; re-register the
            # sub-blocks so compaction and future exchanges see them.
            self.host.buddy.free(mapping.pfn)
            for i in range(size_bytes // step):
                sub_pfn = mapping.pfn + i * frames_per
                sub_va = mapping.va + i * step
                self.host.buddy.alloc_at(sub_pfn, geometry.order_for(next_size))
                sub = self.host_table.map_page(sub_va, next_size, sub_pfn)
                self.host.rmap.register(
                    sub_pfn, geometry.order_for(next_size), self.vm_process.frame_owner
                )
                self.vm_process.frame_owner.add(sub_pfn, sub_va, next_size)
            self.vm_process.tlb.invalidate_range(mapping.va, size_bytes)

    def _owner_swap(self, map_a, map_b) -> None:
        """Fix host rmap/owner records after swapping two mappings' frames."""
        owner = self.vm_process.frame_owner
        owner.add(map_a.pfn, map_a.va, map_a.page_size)
        owner.add(map_b.pfn, map_b.va, map_b.page_size)
        order = self.host.geometry.order_for(map_a.page_size)
        # rmap entries: both pfns remain registered with the same owner and
        # order; only the va association (kept in the owner) changed.
        self.vm_process.tlb.invalidate_range(
            map_a.va, self.host.geometry.bytes_for(map_a.page_size)
        )
        self.vm_process.tlb.invalidate_range(
            map_b.va, self.host.geometry.bytes_for(map_b.page_size)
        )
