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

import numpy as np

from repro.config import PageGeometry, WalkConfig
from repro.obs import Observability
from repro.tlb.hierarchy import TLBHierarchy
from repro.vm.pagetable import Mapping, PageTable


class NestedTranslationUnit(TLBHierarchy):
    """TLB hierarchy caching combined gVA->hPA translations.

    Construction, shootdowns, flushes, stats resets, walk histograms and
    trace events are the native hierarchy's; only the per-access step
    differs.  As data (:meth:`walk_keys`), that step is a walk key per
    access over its two leaf levels, cached at TLB level ``min(guest,
    host)``; :attr:`walk_table` maps each key to its 2D walk.
    """

    def __init__(
        self,
        walk: WalkConfig,
        geometry: PageGeometry,
        host_table: PageTable,
        hva_base: int = 0,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(walk, geometry, obs=obs)
        self.walk_table = walk.nested_table(geometry)
        # A nested walk charges the walk alone, without the L2 probe cycles
        # a native walk adds: a known under-charge, kept because the
        # recorded guest digests hash the guest clock (ROADMAP item 3).
        self.walk_charge = 0
        self.host_table = host_table
        #: host virtual address where the guest-physical range is mapped
        #: (the VM process's RAM allocation in the host)
        self.hva_base = hva_base

    def walk_keys(
        self, guest_levels: np.ndarray, host_levels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each access's TLB level and walk key, from its two leaf levels."""
        return (
            np.minimum(guest_levels, host_levels),
            guest_levels * self.n_levels + host_levels,
        )

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
        self.stats.accesses += 1
        guest_mapping.accessed = True
        host_mapping.accessed = True
        cycles = self._probe(size, vpn)
        if cycles is None:
            cycles = self.walk_table[
                guest_mapping.page_size * self.n_levels + host_mapping.page_size
            ]
            self._walked(size, vpn, cycles)
        return cycles
