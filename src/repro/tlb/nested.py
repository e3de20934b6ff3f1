"""Nested (two-dimensional) address translation for virtualized execution.

Under virtualization a gVA is translated to a gPA by the guest page table
and the gPA to an hPA by the host page table (EPT).  Hardware TLBs cache the
combined gVA -> hPA translation; the *effective* page size of a cached entry
is the smaller of the guest and host page sizes (a 1GB guest mapping backed
by 4KB host pages is cached at 4KB granularity).  On a TLB miss the 2D walk
costs up to (nG+1)*(nH+1)-1 memory accesses: 24 / 15 / 8 for 4K+4K / 2M+2M /
1G+1G — Section 2 of the paper.
"""

from __future__ import annotations

from repro.config import PageGeometry, TLBHierarchyConfig, WalkConfig
from repro.tlb.hierarchy import TranslationStats
from repro.tlb.tlb import SetAssocTLB
from repro.tlb.walker import PageWalker
from repro.vm.pagetable import Mapping, PageTable


class NestedTranslationUnit:
    """TLB hierarchy caching combined gVA->hPA translations."""

    def __init__(
        self,
        config: TLBHierarchyConfig,
        walk: WalkConfig,
        geometry: PageGeometry,
        host_table: PageTable,
        hva_base: int = 0,
    ) -> None:
        self.geometry = geometry
        self.walk_config = walk
        self.host_table = host_table
        self.n_levels = geometry.n_levels
        #: host virtual address where the guest-physical range is mapped
        #: (the VM process's RAM allocation in the host)
        self.hva_base = hva_base
        sections, groups = config.resolved(geometry)
        self.l1 = {
            level: SetAssocTLB(sections[level].l1)
            for level in geometry.all_levels
        }
        self.l2 = {name: SetAssocTLB(cfg) for name, cfg in groups.items()}
        self._l2_by_level = [
            self.l2[sections[level].l2] for level in geometry.all_levels
        ]
        self.walker = PageWalker(walk)
        self.stats = TranslationStats.for_geometry(geometry)
        self._shifts = {
            level: geometry.shift_for(level) for level in geometry.all_levels
        }

    def _l2_for(self, size: int) -> SetAssocTLB:
        return self._l2_by_level[size]

    def gpa_of(self, guest_mapping: Mapping, va: int) -> int:
        """Guest-physical address ``va`` resolves to."""
        return guest_mapping.pfn * self.geometry.base_size + (va - guest_mapping.va)

    def host_mapping_for(self, guest_mapping: Mapping, va: int) -> Mapping | None:
        """Host (EPT) mapping backing the gPA that ``va`` resolves to."""
        return self.host_table.translate(
            self.hva_base + self.gpa_of(guest_mapping, va)
        )

    def access(self, va: int, guest_mapping: Mapping) -> float:
        """One guest load/store; returns translation cycles beyond L1 hit.

        Raises LookupError if the gPA has no host mapping (the hypervisor
        must have populated EPT before the guest runs — simulation setups
        always do, so a miss indicates a harness bug).
        """
        host_mapping = self.host_mapping_for(guest_mapping, va)
        if host_mapping is None:
            raise LookupError(
                f"gPA backing gVA {va:#x} is not mapped in the host table"
            )
        size = min(guest_mapping.page_size, host_mapping.page_size)
        vpn = va >> self._shifts[size]
        stats = self.stats
        stats.accesses += 1
        guest_mapping.accessed = True
        host_mapping.accessed = True
        if self.l1[size].lookup(vpn):
            stats.l1_hits += 1
            return 0.0
        l2 = self._l2_by_level[size]
        if l2.lookup(vpn):
            stats.l2_hits += 1
            self.l1[size].insert(vpn)
            cycles = float(self.walk_config.l2_tlb_hit_cycles)
            stats.translation_cycles += cycles
            return cycles
        cycles = self.walker.nested_walk(
            guest_mapping.page_size, host_mapping.page_size
        )
        stats.walks += 1
        stats.walks_by_size[size] += 1
        stats.walk_cycles += cycles
        stats.translation_cycles += cycles + self.walk_config.l2_tlb_hit_cycles
        l2.insert(vpn)
        self.l1[size].insert(vpn)
        return cycles

    def invalidate_range(self, start: int, length: int) -> None:
        """Shootdown of guest-virtual range after remapping at either level."""
        for size in range(self.n_levels):
            shift = self._shifts[size]
            first = start >> shift
            last = (start + length - 1) >> shift
            structures = (self.l1[size], self._l2_by_level[size])
            if last - first + 1 > 4096:
                for s in structures:
                    s.flush()
            else:
                for vpn in range(first, last + 1):
                    for s in structures:
                        s.invalidate(vpn)

    def flush(self) -> None:
        for tlb in self.l1.values():
            tlb.flush()
        for tlb in self.l2.values():
            tlb.flush()
