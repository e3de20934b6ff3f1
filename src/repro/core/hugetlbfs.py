"""libHugetlbfs-style static large-page reservation.

The ``2MB-Hugetlbfs`` and ``1GB-Hugetlbfs`` bars of Figure 1: the user
reserves physical memory for one large page size at boot, and a helper
library backs the application's *data segments* with huge pages from the
reserved pool.  Three real libhugetlbfs behaviours the paper leans on:

* reservation happens up front and under-delivers when memory is
  fragmented (Section 7, "Comparison with static allocation");
* only eligible segments (heap/data) are backed — the stack cannot be,
  which is why Redis/GUPS fare better under THP/Trident (Figure 1);
* the ``morecore`` heap is backed by huge pages from the first byte: a
  fault maps the whole aligned huge slot even where the heap has not grown
  that far yet (rounding bloat), and freeing a piece of the heap does not
  return partially-covered huge pages.
"""

from __future__ import annotations

from repro.core.policy import MemoryPolicy
from repro.vm.fault import region_is_unmapped
from repro.vm.pagetable import Mapping

#: VMA kinds libhugetlbfs can back with large pages.
ELIGIBLE_KINDS = ("heap", "data", "bss")


class HugetlbfsPolicy(MemoryPolicy):
    """Static pre-reservation of one large page size."""

    def __init__(self, kernel, page_size: int, reserve_fraction: float = 0.65):
        """Reserve ``reserve_fraction`` of currently-free memory at boot.

        ``page_size`` is the one large size this configuration uses —
        any non-base level of the machine's geometry.
        """
        super().__init__(kernel)
        if not 0 < page_size <= kernel.geometry.top_level:
            raise ValueError(
                "hugetlbfs reserves a non-base geometry level only"
            )
        self.page_size = page_size
        self.reserve_fraction = reserve_fraction
        self.name = f"{kernel.geometry.label_for(page_size)}-Hugetlbfs"
        self._pool: list[int] = []
        self._huge_pfns: set[int] = set()
        self.reserve_failures = 0

    def on_boot(self) -> None:
        """Pre-allocate the pool; under fragmentation this under-delivers."""
        geometry = self.kernel.geometry
        order = geometry.order_for(self.page_size)
        want = int(self.kernel.buddy.free_frames * self.reserve_fraction) >> order
        for _ in range(want):
            pfn = self.kernel.buddy.try_alloc(order, movable=False)
            if pfn is None:
                self.reserve_failures += 1
                break
            self._pool.append(pfn)

    @property
    def reserved_pages(self) -> int:
        return len(self._pool)

    def handle_fault(self, process, va: int) -> Mapping:
        vma = process.aspace.find_vma(va)
        if vma is None:
            raise ValueError(f"fault at unmapped va {va:#x} (no VMA)")
        geometry = self.kernel.geometry
        if vma.name in ELIGIBLE_KINDS and self._pool:
            # morecore semantics: back the whole aligned slot containing the
            # fault, even if the heap has not grown to its end yet.
            start = geometry.align_down(va, self.page_size)
            extent = process.aspace.extent_of(va)
            if start >= geometry.align_down(extent.start, self.page_size) and (
                region_is_unmapped(va, self.page_size, process.pagetable, geometry)
            ):
                pfn = self._pool.pop()
                # Reserved pages are not rmap-registered: hugetlb pages are
                # not migratable by compaction.
                mapping = process.pagetable.map_page(start, self.page_size, pfn)
                process.frame_owner.add(pfn, start, self.page_size)
                self._huge_pfns.add(pfn)
                cost = self.kernel.cost
                latency = cost.fault_fixed_ns + cost.zero_ns(
                    geometry.bytes_for(self.page_size)
                )
                return self._record_fault(latency, mapping)
        return self._map_base_fault(process, va)

    def unmap_range(self, process, start: int, length: int) -> None:
        """Fully-covered pooled pages return to the pool; straddlers stay.

        Freeing part of a hugetlbfs-backed heap does not split huge pages;
        the mapping survives until the covering slot is entirely unmapped.
        """
        for mapping in process.pagetable.unmap_range(start, length, strict=False):
            if mapping.pfn in self._huge_pfns:
                self._huge_pfns.remove(mapping.pfn)
                process.frame_owner.remove(mapping.pfn)
                self._pool.append(mapping.pfn)
            else:
                self._teardown(process, mapping)
        process.tlb.invalidate_range(start, length)
