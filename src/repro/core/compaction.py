"""Physical-memory compaction: Linux's sequential scan vs Trident's smart pick.

Figure 6 of the paper.  Both engines move movable allocations out of a
source region into free slots elsewhere until a free block of the requested
order exists:

* :class:`NormalCompactor` — Linux ``khugepaged``-style: scan regions
  sequentially from a persistent cursor, copying occupied frames toward the
  high end of memory.  It is *occupancy-agnostic* (may pick a 99%-full
  region) and discovers unmovable pages only mid-copy, wasting the bytes
  already copied for that region.
* :class:`SmartCompactor` — Trident: pick the region with the most free
  frames and no unmovable pages as the source (cheapest to evacuate), and
  the fullest regions as targets.  Selection uses the O(1) per-region
  counters of :class:`repro.mem.regions.RegionTracker`; nothing is scanned
  or copied unless the evacuation can pay off.

Both report bytes copied — the metric Figure 7 compares (up to 85% less
copying for smart compaction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CostModel, PageGeometry
from repro.core.rmap import ReverseMap
from repro.mem.buddy import BuddyAllocator
from repro.mem.frames import FrameState
from repro.mem.regions import RegionTracker
from repro.obs import Observability


@dataclass
class CompactionResult:
    """Outcome and cost accounting of one compaction attempt."""

    success: bool
    bytes_copied: int = 0
    bytes_exchanged: int = 0  # moved via the pv hypercall, not copied
    wasted_bytes: int = 0  # copied for a region that was then abandoned
    frames_scanned: int = 0
    blocks_moved: int = 0
    regions_freed: int = 0
    time_ns: float = 0.0

    def merge(self, other: "CompactionResult") -> None:
        self.success = self.success or other.success
        self.bytes_copied += other.bytes_copied
        self.bytes_exchanged += other.bytes_exchanged
        self.wasted_bytes += other.wasted_bytes
        self.frames_scanned += other.frames_scanned
        self.blocks_moved += other.blocks_moved
        self.regions_freed += other.regions_freed
        self.time_ns += other.time_ns


@dataclass
class CompactionStats:
    """Cumulative counters across a compactor's lifetime."""

    attempts: int = 0
    successes: int = 0
    bytes_copied: int = 0
    bytes_exchanged: int = 0
    wasted_bytes: int = 0
    frames_scanned: int = 0
    blocks_moved: int = 0
    time_ns: float = 0.0

    def record(self, result: CompactionResult) -> None:
        self.attempts += 1
        self.successes += int(result.success)
        self.bytes_copied += result.bytes_copied
        self.bytes_exchanged += result.bytes_exchanged
        self.wasted_bytes += result.wasted_bytes
        self.frames_scanned += result.frames_scanned
        self.blocks_moved += result.blocks_moved
        self.time_ns += result.time_ns


class _CompactorBase:
    """Shared mechanics: find a destination slot and migrate a block."""

    #: metrics label distinguishing the two engines ("normal" / "smart")
    kind = "abstract"

    def __init__(
        self,
        buddy: BuddyAllocator,
        regions: RegionTracker,
        rmap: ReverseMap,
        geometry: PageGeometry,
        cost: CostModel,
        obs: Observability | None = None,
    ) -> None:
        self.buddy = buddy
        self.regions = regions
        self.rmap = rmap
        self.geometry = geometry
        self.cost = cost
        self.stats = CompactionStats()
        #: Trident-pv hook: callable(src_pfn, dst_pfn, order) -> ns that
        #: exchanges gPA->hPA mappings instead of copying; None natively.
        #: Only blocks of level 1 or larger use it (exchanging 4KB pages
        #: costs more than copying them - the paper's Section 6 scope note).
        self.pv_exchanger = None
        if obs is None:
            obs = Observability()
        m = obs.metrics
        self._metrics = m
        self._tracer = obs.tracer
        self._clock = obs.clock
        self._spans = obs.spans
        kind = self.kind
        self._c_attempt = m.counter("compaction_attempt_total", kind=kind)
        self._c_success = m.counter("compaction_success_total", kind=kind)
        self._c_copied = m.counter("compaction_bytes_copied_total", kind=kind)
        self._c_exchanged = m.counter("compaction_bytes_exchanged_total", kind=kind)
        self._c_wasted = m.counter("compaction_wasted_bytes_total", kind=kind)
        self._c_moved = m.counter("compaction_blocks_moved_total", kind=kind)
        self._c_freed = m.counter("compaction_regions_freed_total", kind=kind)

    def compact(self, order: int, *args, **kwargs) -> CompactionResult:
        """Public entry point: run the engine inside a ``compaction`` span.

        The attempt's accrued ``time_ns`` is charged to the simulated
        clock here, minus whatever leaf sites (pv exchanges) already
        advanced inside — so nested work is never double counted and the
        span's duration equals the attempt's accounted cost exactly.
        """
        clock = self._clock
        start = clock.now_ns
        with self._spans.span(
            "compaction", compactor=self.kind, order=order
        ) as sp:
            result = self._compact(order, *args, **kwargs)
            residual = result.time_ns - (clock.now_ns - start)
            if residual > 0.0:
                clock.advance(residual)
            sp.set(success=result.success)
        return result

    def _record(self, result: CompactionResult) -> None:
        """Fold one attempt into lifetime stats and the metrics registry."""
        self.stats.record(result)
        self._c_attempt.inc()
        self._c_success.inc(int(result.success))
        self._c_copied.inc(result.bytes_copied)
        self._c_exchanged.inc(result.bytes_exchanged)
        self._c_wasted.inc(result.wasted_bytes)
        self._c_moved.inc(result.blocks_moved)
        self._c_freed.inc(result.regions_freed)
        tr = self._tracer
        if tr.active:
            tr.emit(
                "compaction",
                "attempt",
                kind=self.kind,
                success=result.success,
                bytes_copied=result.bytes_copied,
                blocks_moved=result.blocks_moved,
                regions_freed=result.regions_freed,
                time_ns=result.time_ns,
            )

    def _abort(self, region: int, reason: str) -> None:
        """Account one abandoned evacuation (Figure 6's wasted-work cases)."""
        self._metrics.counter(
            "compaction_abort_total", kind=self.kind, reason=reason
        ).inc()
        tr = self._tracer
        if tr.active:
            tr.emit(
                "compaction", "abort", kind=self.kind, region=region,
                reason=reason,
            )

    # -- destination search ------------------------------------------------
    def _find_free_slot(self, region: int, order: int) -> int | None:
        """Lowest free ``order``-aligned slot inside ``region``, or None."""
        if self.regions.free_frames[region] < (1 << order):
            return None
        start = self.regions.region_start(region)
        fpl = self.regions.frames_per_region
        state = self.buddy.frame_state[start : start + fpl]
        free = state == FrameState.FREE
        step = 1 << order
        if step == 1:
            idx = int(np.argmax(free))
            return start + idx if free[idx] else None
        rows = free.reshape(-1, step).all(axis=1)
        hit = int(np.argmax(rows))
        if not rows[hit]:
            return None
        return start + hit * step

    def _place_in_targets(
        self, order: int, target_regions: list[int], full: dict[int, int]
    ) -> int | None:
        """Lowest free ``order`` slot in the first target that has one.

        ``full[order]`` counts the leading targets already found without
        an ``order`` slot during this evacuation; they are not searched
        again.  Targets only fill while one region is evacuated: every
        frame the evacuation frees lies in the source, which is never a
        target, so a full target stays full.
        """
        first = full.get(order, 0)
        for i in range(first, len(target_regions)):
            slot = self._find_free_slot(target_regions[i], order)
            if slot is not None:
                full[order] = i
                return slot
        full[order] = len(target_regions)
        return None

    # -- migration ------------------------------------------------------------
    def _migrate(
        self, pfn: int, order: int, dest: int, movable: bool
    ) -> tuple[int, int, float]:
        """Move the block at ``pfn`` to ``dest``.

        Returns (bytes_copied, bytes_exchanged, ns): a native move copies
        the block's contents; with a pv exchanger installed, blocks of
        level 1 or larger move by exchanging gPA->hPA mappings instead.
        """
        nbytes = (1 << order) * self.geometry.base_size
        if self.pv_exchanger is not None and order >= self.geometry.order_for(1):
            ns = self.pv_exchanger(pfn, dest, order)
            copied, exchanged = 0, nbytes
        else:
            ns = self.cost.copy_ns(nbytes)
            copied, exchanged = nbytes, 0
        self.buddy.alloc_at(dest, order, movable=movable)
        self.rmap.moved(pfn, dest)
        self.buddy.free(pfn)
        tr = self._tracer
        if tr.active:
            tr.emit(
                "compaction", "migrate", kind=self.kind, src=pfn, dst=dest,
                order=order, exchanged=bool(exchanged),
            )
        return copied, exchanged, ns

    def _blocks_in_region(self, region: int) -> list[tuple[int, int, bool]]:
        """(start_pfn, order, movable) of allocations inside ``region``."""
        start = self.regions.region_start(region)
        end = start + self.regions.frames_per_region
        blocks = []
        pfn = start
        state = self.buddy.frame_state
        while pfn < end:
            if state[pfn] == FrameState.FREE:
                pfn += 1
                continue
            rec = self.buddy.allocation_at(pfn)
            assert rec is not None, f"frame {pfn} occupied but no block starts here"
            order, movable = rec
            blocks.append((pfn, order, movable))
            pfn += 1 << order
        return blocks


class NormalCompactor(_CompactorBase):
    """Linux-style sequential compaction (Figure 6a)."""

    kind = "normal"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cursor = 0  # region index where the last attempt stopped

    def _compact(
        self, order: int, budget_ns: float = float("inf")
    ) -> CompactionResult:
        """Try to create one free block of ``order``; sequential region scan.

        ``budget_ns`` bounds the work of this attempt: when exceeded, the
        attempt reports failure but keeps the partial progress (moved blocks
        stay moved), so a CPU-capped khugepaged makes headway across ticks.
        """
        result = CompactionResult(success=False)
        n = self.regions.n_regions
        scan_ns = self.cost.compaction_scan_per_frame_ns
        region = self._cursor
        for step in range(n):
            if self.buddy.has_free_block(order):
                result.success = True
                break
            if result.time_ns >= budget_ns:
                # Out of budget mid-region: keep the cursor here so the next
                # attempt resumes this region's evacuation (Linux's migrate
                # scanner position persists across runs the same way).
                self._cursor = region
                self._record(result)
                return result
            region = (self._cursor + step) % n
            if self.regions.is_fully_free(region):
                continue
            result.frames_scanned += self.regions.frames_per_region
            result.time_ns += self.regions.frames_per_region * scan_ns
            copied_here = self._evacuate_sequential(region, result, budget_ns)
            if copied_here is None:  # hit an unmovable/unmigratable block
                continue
        else:
            result.success = self.buddy.has_free_block(order)
        self._cursor = (region + 1) % n
        self._record(result)
        return result

    def _evacuate_sequential(
        self, region: int, result: CompactionResult, budget_ns: float
    ) -> int | None:
        """Move region contents toward high memory; None if aborted."""
        copied_here = 0
        # Targets: highest-index regions first, Linux's "other end" scan.
        targets = [
            r
            for r in range(self.regions.n_regions - 1, -1, -1)
            if r != region and self.regions.free_frames[r] > 0
        ]
        full: dict[int, int] = {}
        for pfn, order, movable in self._blocks_in_region(region):
            if result.time_ns >= budget_ns:
                return copied_here  # out of budget: progress persists
            migratable = movable and self.rmap.lookup(pfn) is not None
            if not migratable:
                # Paper: copying done so far for this region is wasted.
                result.wasted_bytes += copied_here
                self._abort(region, "unmovable")
                return None
            dest = self._place_in_targets(order, targets, full)
            if dest is None:
                result.wasted_bytes += copied_here
                self._abort(region, "no_slot")
                return None
            copied, exchanged, ns = self._migrate(pfn, order, dest, movable)
            copied_here += copied
            result.bytes_copied += copied
            result.bytes_exchanged += exchanged
            result.blocks_moved += 1
            result.time_ns += ns + self.cost.pte_update_ns
        result.regions_freed += 1
        return copied_here


class SmartCompactor(_CompactorBase):
    """Trident's counter-guided compaction (Figure 6b)."""

    kind = "smart"

    def _compact(
        self,
        order: int,
        budget_ns: float = float("inf"),
        max_sources: int = 8,
    ) -> CompactionResult:
        """Create one free ``order`` block by evacuating the cheapest regions.

        Tries up to ``max_sources`` candidate source regions (most-free
        first, unmovable-containing regions never considered).  ``budget_ns``
        bounds this attempt's work; partial evacuations persist and resume
        on the next attempt (the half-evacuated region is even more free, so
        selection naturally picks it again).
        """
        result = CompactionResult(success=False)
        if self.buddy.has_free_block(order):
            result.success = True
            self._record(result)
            return result
        tried = 0
        for source in self.regions.best_source_regions():
            if tried >= max_sources or result.time_ns >= budget_ns:
                break
            tried += 1
            if self._evacuate_selected(source, result, budget_ns):
                if self.buddy.has_free_block(order):
                    result.success = True
                    break
        self._record(result)
        return result

    def _evacuate_selected(
        self, source: int, result: CompactionResult, budget_ns: float = float("inf")
    ) -> bool:
        blocks = self._blocks_in_region(source)
        # Selection is counter-based, but verify migratability *before*
        # copying a single byte — the counters already exclude unmovable
        # pages; this catches rmap-less allocations (e.g. zero-fill pool).
        if any(self.rmap.lookup(pfn) is None for pfn, _, _ in blocks):
            self._abort(source, "unmigratable")
            return False
        occupied = self.regions.occupied_frames(source)
        targets = self.regions.best_target_regions(exclude={source})
        capacity = sum(int(self.regions.free_frames[r]) for r in targets)
        if capacity < occupied:
            self._abort(source, "no_capacity")
            return False
        full: dict[int, int] = {}
        for pfn, order, movable in blocks:
            if result.time_ns >= budget_ns:
                self._abort(source, "budget")
                return False  # out of budget: resume next attempt
            dest = self._place_in_targets(order, targets, full)
            if dest is None:
                # Capacity existed but not in aligned slots of this order.
                self._abort(source, "no_slot")
                return False
            copied, exchanged, ns = self._migrate(pfn, order, dest, movable)
            result.bytes_copied += copied
            result.bytes_exchanged += exchanged
            result.blocks_moved += 1
            result.time_ns += ns + self.cost.pte_update_ns
        result.regions_freed += 1
        return True
