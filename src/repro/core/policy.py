"""The memory-policy interface all page-size managers implement.

A policy is the OS decision layer: which page size to use on a fault, what
the background daemon (khugepaged and friends) does with its CPU budget, and
when to compact.  Policies operate on a *kernel context* — the object
(normally :class:`repro.sim.system.System`) exposing the physical-memory
substrate::

    kernel.geometry, kernel.cost        # configuration
    kernel.buddy, kernel.regions        # physical memory
    kernel.rmap                         # reverse map for compaction
    kernel.zerofill                     # pre-zeroed large-block pool
    kernel.normal_compactor, kernel.smart_compactor
    kernel.reclaim(n_frames)            # page-cache reclaim under pressure
    kernel.processes                    # processes to scan for promotion
    kernel.obs                          # the machine's observability bundle

The base class provides the fault bookkeeping every policy shares: frame
allocation with reclaim-on-OOM, page-table mapping + rmap registration, and
fault-latency accounting (the per-fault latencies feed Table 5's tail
percentiles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import PageGeometry
from repro.mem.buddy import OutOfMemoryError
from repro.vm.pagetable import Mapping


@dataclass
class PolicyStats:
    """Counters every policy maintains; the figures are built from these."""

    faults: int = 0
    fault_ns: float = 0.0
    fault_latencies: list[float] = field(default_factory=list)
    #: pages mapped directly by the fault handler, per size
    fault_mapped: dict[int, int] = field(default_factory=dict)
    #: pages created by promotion, per (target) size
    promoted: dict[int, int] = field(default_factory=dict)
    demoted: dict[int, int] = field(default_factory=dict)
    #: large-page allocation attempts/failures at fault vs promotion time
    #: (Table 4 of the paper)
    fault_large_attempts: int = 0
    fault_large_failures: int = 0
    promo_large_attempts: int = 0
    promo_large_failures: int = 0
    promo_copy_bytes: int = 0
    daemon_ns: float = 0.0
    #: bytes mapped but never touched by the application (memory bloat)
    bloat_bytes_recovered: int = 0

    @classmethod
    def for_geometry(cls, geometry: PageGeometry) -> "PolicyStats":
        zeros = lambda: {s: 0 for s in geometry.all_levels}  # noqa: E731
        return cls(fault_mapped=zeros(), promoted=zeros(), demoted=zeros())

    def mapped_pages(self, size: int) -> int:
        return self.fault_mapped[size] + self.promoted[size] - self.demoted[size]


class ProcessFrameOwner:
    """Per-process rmap owner: re-points page-table entries when frames move."""

    def __init__(self, process) -> None:
        self.process = process
        self._va_of_pfn: dict[int, tuple[int, int]] = {}  # pfn -> (va, size)

    def add(self, pfn: int, va: int, page_size: int) -> None:
        self._va_of_pfn[pfn] = (va, page_size)

    def remove(self, pfn: int) -> None:
        del self._va_of_pfn[pfn]

    def lookup(self, pfn: int) -> tuple[int, int] | None:
        """(va, page_size) currently associated with ``pfn``, if any."""
        return self._va_of_pfn.get(pfn)

    def relocate(self, old_pfn: int, new_pfn: int, order: int) -> None:
        va, page_size = self._va_of_pfn.pop(old_pfn)
        self._va_of_pfn[new_pfn] = (va, page_size)
        mapping = self.process.pagetable.translate(va)
        assert mapping is not None and mapping.pfn == old_pfn
        self.process.pagetable.note_repoint(mapping, new_pfn)
        geometry = self.process.pagetable.geometry
        self.process.tlb.invalidate_range(va, geometry.bytes_for(page_size))


class MemoryPolicy:
    """Base class: shared mapping plumbing; subclasses choose page sizes."""

    name = "abstract"
    #: alignment hint the mmap layer should apply to heap VMAs (None = base)
    heap_alignment_size: int | None = None

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.stats = PolicyStats.for_geometry(kernel.geometry)
        self._tracer = kernel.obs.tracer
        kernel.obs.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, metrics) -> None:
        """Snapshot-time mirror of :class:`PolicyStats` into the registry.

        Mirroring (instead of double-counting on the hot path) guarantees
        the registry and the figures built from ``RunMetrics`` agree.
        """
        s = self.stats
        metrics.counter("policy_faults_total").set(s.faults)
        metrics.counter("policy_fault_ns_total").set(s.fault_ns)
        metrics.counter("policy_daemon_ns_total").set(s.daemon_ns)
        geometry = self.kernel.geometry
        for size in geometry.all_levels:
            name = geometry.label_for(size)
            metrics.counter("policy_fault_mapped_total", size=name).set(
                s.fault_mapped[size]
            )
            metrics.counter("policy_promoted_total", size=name).set(
                s.promoted[size]
            )
            metrics.counter("policy_demoted_total", size=name).set(
                s.demoted[size]
            )
        metrics.counter("policy_fault_large_attempts_total").set(
            s.fault_large_attempts
        )
        metrics.counter("policy_fault_large_failures_total").set(
            s.fault_large_failures
        )
        metrics.counter("policy_promo_large_attempts_total").set(
            s.promo_large_attempts
        )
        metrics.counter("policy_promo_large_failures_total").set(
            s.promo_large_failures
        )
        metrics.counter("policy_promo_copy_bytes_total").set(s.promo_copy_bytes)
        metrics.counter("policy_bloat_recovered_bytes_total").set(
            s.bloat_bytes_recovered
        )

    # -- interface ----------------------------------------------------------
    def handle_fault(self, process, va: int) -> Mapping:
        """Map the faulting address; returns the mapping installed.

        The fault's latency is recorded in :attr:`stats`
        (``fault_latencies[-1]``, and summed into ``fault_ns``).
        """
        raise NotImplementedError

    def background_tick(self, budget_ns: float) -> float:
        """Run daemon work for up to ``budget_ns``; returns ns consumed."""
        return 0.0

    def on_boot(self) -> None:
        """Hook run once after the system is constructed (hugetlbfs reserves)."""

    # -- shared plumbing ------------------------------------------------------
    def _alloc_frames(self, order: int, movable: bool = True) -> int | None:
        """Allocate, shedding pressure if needed: reclaim, then de-bloat.

        Reclaim frees scattered page-cache frames; if that is not enough,
        huge mappings that are mostly *untouched* get split in place and
        their untouched frames freed — large pages must never cause an OOM
        that base pages would have survived.
        """
        pfn = self.kernel.buddy.try_alloc(order, movable)
        if pfn is not None:
            return pfn
        if self.kernel.reclaim(1 << order):
            pfn = self.kernel.buddy.try_alloc(order, movable)
            if pfn is not None:
                return pfn
        if self._shed_bloat(1 << order):
            return self.kernel.buddy.try_alloc(order, movable)
        return None

    def _shed_bloat(self, frames_needed: int) -> int:
        """Split mostly-untouched huge mappings, freeing their dead frames.

        An in-place split: touched base pages keep their exact frames (no
        copying); untouched frames return to the buddy.  Returns frames
        freed.
        """
        geometry = self.kernel.geometry
        freed = 0
        for process in list(getattr(self.kernel, "processes", ())):
            for size in geometry.levels_desc[:-1]:
                for mapping in list(process.pagetable.iter_mappings(size)):
                    if freed >= frames_needed:
                        return freed
                    nbytes = geometry.bytes_for(size)
                    touched = process.touched_base_pages_in(mapping.va, nbytes)
                    total = nbytes // geometry.base_size
                    if touched > total // 2:
                        continue  # mostly live: not worth splitting
                    freed += self._demote_in_place(process, mapping)
        return freed

    def _demote_in_place(self, process, mapping: Mapping) -> int:
        """Split one huge mapping, keeping touched pages on their frames."""
        geometry = self.kernel.geometry
        base = geometry.base_size
        nbytes = geometry.bytes_for(mapping.page_size)
        keep = process.touched_base_vas_in(mapping.va, nbytes)
        process.pagetable.unmap(mapping.va, mapping.page_size)
        self._teardown(process, mapping)
        for va in keep:
            pfn = mapping.pfn + (va - mapping.va) // base
            self.kernel.buddy.alloc_at(pfn, 0)
            self._install(process, va, 0, pfn)
        process.tlb.invalidate_range(mapping.va, nbytes)
        self.stats.demoted[mapping.page_size] += 1
        freed = nbytes // base - len(keep)
        self.stats.bloat_bytes_recovered += freed * base
        tr = self._tracer
        if tr.active:
            tr.emit(
                "policy", "demote_in_place",
                va=mapping.va,
                size=geometry.label_for(mapping.page_size),
                frames_freed=freed,
            )
        return freed

    def _install(self, process, va: int, page_size: int, pfn: int) -> Mapping:
        """Map va -> pfn and register the block for compaction."""
        mapping = process.pagetable.map_page(va, page_size, pfn)
        order = self.kernel.geometry.order_for(page_size)
        self.kernel.rmap.register(pfn, order, process.frame_owner)
        process.frame_owner.add(pfn, va, page_size)
        return mapping

    def _teardown(self, process, mapping: Mapping) -> None:
        """Undo :meth:`_install` for one mapping and free its frames."""
        self.kernel.rmap.unregister(mapping.pfn)
        process.frame_owner.remove(mapping.pfn)
        self.kernel.buddy.free(mapping.pfn)

    def unmap_range(self, process, start: int, length: int) -> None:
        """munmap support: drop and free every mapping in the range.

        A huge mapping straddling a boundary is *split* first (Linux splits
        the compound page: the retained portion stays on the same frames,
        remapped with base pages, no copying).
        """
        end = start + length
        for boundary_va in (start, end - 1):
            mapping = process.pagetable.translate(boundary_va)
            if mapping is None:
                continue
            mbytes = self.kernel.geometry.bytes_for(mapping.page_size)
            if mapping.va < start or mapping.va + mbytes > end:
                self._split_mapping(process, mapping, start, end)
        for mapping in process.pagetable.unmap_range(start, length):
            self._teardown(process, mapping)
        process.tlb.invalidate_range(start, length)

    def _split_mapping(self, process, mapping: Mapping, cut_start: int, cut_end: int) -> None:
        """Split a huge mapping around [cut_start, cut_end).

        The portions outside the cut stay mapped with base pages pointing at
        the same physical frames; the portion inside is left unmapped for
        the caller to account as freed (its frames return to the buddy as
        part of freeing the whole block and re-claiming the retained ones).
        """
        geometry = self.kernel.geometry
        base = geometry.base_size
        mbytes = geometry.bytes_for(mapping.page_size)
        m_end = mapping.va + mbytes
        process.pagetable.unmap(mapping.va, mapping.page_size)
        self._teardown(process, mapping)
        retained = []
        if mapping.va < cut_start:
            retained.append((mapping.va, min(cut_start, m_end)))
        if m_end > cut_end:
            retained.append((max(cut_end, mapping.va), m_end))
        for lo, hi in retained:
            for va in range(lo, hi, base):
                pfn = mapping.pfn + (va - mapping.va) // base
                self.kernel.buddy.alloc_at(pfn, 0)
                self._install(process, va, 0, pfn)
        process.tlb.invalidate_range(mapping.va, mbytes)

    def _record_fault(self, latency_ns: float, mapping: Mapping) -> Mapping:
        """Account one fault that installed ``mapping``; returns it."""
        page_size = mapping.page_size
        self.stats.faults += 1
        self.stats.fault_ns += latency_ns
        self.stats.fault_latencies.append(latency_ns)
        self.stats.fault_mapped[page_size] += 1
        tr = self._tracer
        if tr.active:
            tr.emit(
                "policy", "fault_mapped",
                size=self.kernel.geometry.label_for(page_size),
                latency_ns=latency_ns,
            )
        return mapping

    def _map_base_fault(self, process, va: int) -> Mapping:
        """The universal last-resort path: one base page at ``va``."""
        geometry = self.kernel.geometry
        start = geometry.align_down(va, 0)
        pfn = self._alloc_frames(0)
        if pfn is None:
            raise OutOfMemoryError("cannot allocate a base page")
        mapping = self._install(process, start, 0, pfn)
        cost = self.kernel.cost
        latency = cost.fault_fixed_ns + cost.zero_ns(geometry.base_size)
        return self._record_fault(latency, mapping)
