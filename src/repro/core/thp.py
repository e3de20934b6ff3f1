"""Linux Transparent Huge Pages: 2MB-only dynamic large pages.

The paper's baseline (``2MB-THP``).  Two mechanisms, as in Section 2:

* the page-fault handler maps a mid (2MB) page when the faulting address
  falls in a mid-mappable, unmapped range and a contiguous chunk is free;
* the ``khugepaged`` daemon scans process address spaces in the background
  and *promotes* mid-mappable ranges currently mapped with base pages,
  compacting physical memory (normal, sequential compaction) when no free
  chunk exists.

Like real THP (``max_ptes_none = 511``), promotion proceeds as soon as a
single base page is present in the range — the source of THP's well-known
memory bloat, which this simulation reproduces and HawkEye's recovery
removes.

The promotion scanner here is deliberately reusable: Trident subclasses this
policy and extends the same daemon with 1GB scanning (exactly how the real
Trident extends khugepaged).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.policy import MemoryPolicy
from repro.vm.fault import candidate_page_sizes, region_fits_vma
from repro.vm.mappability import mappable_ranges
from repro.vm.pagetable import Mapping


class THPPolicy(MemoryPolicy):
    """2MB-only transparent huge pages with khugepaged promotion."""

    name = "2MB-THP"
    #: ns charged per candidate slot examined by the scanner
    scan_slot_ns = 400.0
    #: minimum fraction of a slot that must be populated before promotion
    #: (0.0 reproduces THP's max_ptes_none=511: one page is enough)
    min_present_fraction_mid = 0.0
    #: transparent_hugepage/defrag: "defer" (default here and in modern
    #: Linux) never stalls a fault on compaction; "always" compacts
    #: synchronously inside the fault - the allocation-latency-spike
    #: behaviour Ingens/Quicksilver criticize
    defrag = "defer"

    def __init__(self, kernel, defrag: str | None = None) -> None:
        super().__init__(kernel)
        if defrag is not None:
            if defrag not in ("defer", "always"):
                raise ValueError(f"unknown defrag mode {defrag!r}")
            self.defrag = defrag
        self._stream: Iterator | None = None
        #: CPU time overdrawn from previous ticks (a promotion or compaction
        #: can overshoot one quantum; a capped khugepaged must repay it
        #: before doing more work - how cgroup CPU caps behave)
        self._debt_ns = 0.0

    # -- page-fault handler ---------------------------------------------------
    def handle_fault(self, process, va: int) -> Mapping:
        extent = process.aspace.extent_of(va)
        if extent is None:
            raise ValueError(f"fault at unmapped va {va:#x} (no VMA)")
        geometry = self.kernel.geometry
        sizes = candidate_page_sizes(va, extent, process.pagetable, geometry)
        thp = geometry.thp_level
        if thp in sizes:
            mapping = self._try_fault_map(process, va, thp)
            if mapping is not None:
                return mapping
        return self._map_base_fault(process, va)

    def _try_fault_map(self, process, va: int, page_size: int) -> Mapping | None:
        geometry = self.kernel.geometry
        pfn = self.kernel.buddy.try_alloc(geometry.order_for(page_size))
        sync_compaction_ns = 0.0
        if pfn is None and self.defrag == "always":
            # Synchronous fault-time compaction: the faulting thread stalls.
            result = self.kernel.normal_compactor.compact(
                geometry.order_for(page_size)
            )
            sync_compaction_ns = result.time_ns
            if result.success:
                pfn = self.kernel.buddy.try_alloc(geometry.order_for(page_size))
        if pfn is None:
            if sync_compaction_ns:
                self.stats.fault_ns += sync_compaction_ns  # stalled for nothing
            return None
        start = geometry.align_down(va, page_size)
        mapping = self._install(process, start, page_size, pfn)
        cost = self.kernel.cost
        latency = (
            cost.fault_fixed_ns
            + cost.zero_ns(geometry.bytes_for(page_size))
            + sync_compaction_ns
        )
        return self._record_fault(latency, mapping)

    # -- khugepaged -------------------------------------------------------------
    def background_tick(self, budget_ns: float) -> float:
        budget_ns -= self._debt_ns
        if budget_ns <= 0:
            self._debt_ns = -budget_ns
            return 0.0
        self._debt_ns = 0.0
        used = 0.0
        while used < budget_ns:
            candidate = self._next_candidate()
            if candidate is None:
                break
            used += self.scan_slot_ns
            process, va, size = candidate
            used += self._try_promote(process, va, size, budget_ns - used)
        if used > budget_ns:
            self._debt_ns = used - budget_ns
        self.stats.daemon_ns += used
        return used

    def _next_candidate(self) -> tuple | None:
        """Next (process, va, size) from the scan stream; None ends the tick."""
        if self._stream is None:
            self._stream = self._candidate_stream()
        try:
            return next(self._stream)
        except StopIteration:
            self._stream = None  # full pass complete; resume next tick
            return None

    def _candidate_stream(self) -> Iterator[tuple]:
        """One full scanning pass over every process's address space."""
        thp = self.kernel.geometry.thp_level
        for process in list(self.kernel.processes):
            for vma in process.aspace.iter_extents():
                for start, _ in mappable_ranges(
                    vma, thp, self.kernel.geometry
                ):
                    yield process, start, thp

    # -- promotion mechanics (shared with subclasses) ---------------------------
    def _slot_contents(
        self, process, va: int, page_size: int
    ) -> list[Mapping] | None:
        """Smaller mappings inside the slot, or None if not promotable.

        Revalidates everything (the candidate may be stale): the slot must
        still sit inside a VMA, must not already contain a >= ``page_size``
        mapping, and must have at least one present page.
        """
        geometry = self.kernel.geometry
        table = process.pagetable
        # Cheapest rejection first: in steady state most candidates are
        # already promoted, and translate() is one dict probe vs the VMA
        # walk below.
        covering = table.translate(va)
        if covering is not None and covering.page_size >= page_size:
            return None
        vma = process.aspace.extent_of(va)
        if vma is None or not region_fits_vma(va, page_size, vma, geometry):
            return None
        nbytes = geometry.bytes_for(page_size)
        present: list[Mapping] = []
        for size in range(page_size):
            present.extend(table.mappings_in_range(va, nbytes, size))
        if not present:
            return None
        min_fraction = (
            self.min_present_fraction_mid
            if page_size == geometry.thp_level
            else 0.0
        )
        present_bytes = sum(geometry.bytes_for(m.page_size) for m in present)
        if present_bytes < min_fraction * nbytes:
            return None
        return present

    def _try_promote(
        self, process, va: int, page_size: int, budget_ns: float = float("inf")
    ) -> float:
        """Attempt one promotion; returns daemon ns spent (scan + copy)."""
        present = self._slot_contents(process, va, page_size)
        if present is None:
            return 0.0
        pfn, alloc_ns = self._alloc_for_promotion(page_size, budget_ns)
        if pfn is None:
            return alloc_ns
        return alloc_ns + self._promote(process, va, page_size, pfn, present)

    def _alloc_for_promotion(
        self, page_size: int, budget_ns: float = float("inf")
    ) -> tuple[int | None, float]:
        """Get a contiguous block for promotion, compacting if needed.

        THP uses normal compaction for 2MB chunks.  Returns (pfn, ns spent).
        """
        order = self.kernel.geometry.order_for(page_size)
        pfn = self.kernel.buddy.try_alloc(order)
        if pfn is not None:
            return pfn, 0.0
        result = self.kernel.normal_compactor.compact(order, budget_ns)
        if not result.success and result.time_ns < budget_ns:
            # Linux interleaves reclaim with compaction: drop page cache to
            # give the compactor free slots to move pages into, then retry.
            if self.kernel.reclaim(2 << order):
                retry = self.kernel.normal_compactor.compact(
                    order, budget_ns - result.time_ns
                )
                result.merge(retry)
        pfn = self.kernel.buddy.try_alloc(order) if result.success else None
        return pfn, result.time_ns

    def _promote(
        self, process, va: int, page_size: int, pfn: int, present: list[Mapping]
    ) -> float:
        """Replace ``present`` small mappings with one ``page_size`` mapping.

        Copies the present contents into the new block, zeroes the rest,
        frees the old frames and shoots down the TLB.  Returns ns of work.
        """
        geometry = self.kernel.geometry
        cost = self.kernel.cost
        nbytes = geometry.bytes_for(page_size)
        present_bytes = sum(geometry.bytes_for(m.page_size) for m in present)
        for mapping in present:
            process.pagetable.unmap(mapping.va, mapping.page_size)
            self._teardown(process, mapping)
        self._install(process, va, page_size, pfn)
        process.tlb.invalidate_range(va, nbytes)
        self.stats.promoted[page_size] += 1
        self.stats.promo_copy_bytes += present_bytes
        tr = self._tracer
        if tr.active:
            tr.emit(
                "policy", "promote", va=va,
                size=geometry.label_for(page_size),
                copied_bytes=present_bytes, small_mappings=len(present),
            )
        return (
            cost.copy_ns(present_bytes)
            + cost.zero_ns(nbytes - present_bytes)
            + cost.pte_update_ns * (len(present) + 1)
        )
