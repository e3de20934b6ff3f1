"""Per-large-region occupancy counters — the heart of smart compaction.

The paper (Section 5.1.3) adds two counters to every 1GB-aligned physical
region: the number of *free* base frames and the number of *unmovable* base
frames.  They are maintained incrementally on every buddy allocation/free, so
smart compaction can *select* its source region (most free frames, zero
unmovable frames) and target regions (fewest free frames) without scanning
physical memory.

A 2MB allocation inside a region is accounted as 512 base frames, exactly as
the paper describes ("We treat it as 512 base pages for ease of keeping
statistics").
"""

from __future__ import annotations

import numpy as np

from repro.config import PageGeometry
from repro.obs import MetricsRegistry, Observability


class RegionTracker:
    """Tracks free/unmovable frame counts per large (1GB-class) region.

    Register as a listener on :class:`repro.mem.buddy.BuddyAllocator`.  Block
    allocations never straddle region boundaries (buddy blocks are aligned to
    their own size and regions are large-order aligned), so each event
    touches exactly one region.
    """

    def __init__(
        self,
        total_frames: int,
        geometry: PageGeometry,
        obs: Observability | None = None,
    ) -> None:
        fpl = geometry.frames_per_large
        if total_frames % fpl:
            raise ValueError(
                f"total_frames ({total_frames}) must be a multiple of the "
                f"large-region size ({fpl})"
            )
        self.geometry = geometry
        self.n_regions = total_frames // fpl
        self.frames_per_region = fpl
        self.free_frames = np.full(self.n_regions, fpl, dtype=np.int64)
        self.unmovable_frames = np.zeros(self.n_regions, dtype=np.int64)
        if obs is None:
            obs = Observability()
        self._tracer = obs.tracer
        obs.metrics.add_collector(self._collect)

    def _collect(self, metrics: MetricsRegistry) -> None:
        """Snapshot-time mirror of the O(1) per-region counters."""
        metrics.gauge("regions_fully_free").value = int(
            (self.free_frames == self.frames_per_region).sum()
        )
        metrics.gauge("regions_with_unmovable").value = int(
            (self.unmovable_frames > 0).sum()
        )

    def region_of(self, pfn: int) -> int:
        """Index of the large region containing frame ``pfn``."""
        return pfn // self.frames_per_region

    def region_start(self, region: int) -> int:
        """First PFN of ``region``."""
        return region * self.frames_per_region

    # -- buddy listener interface -----------------------------------------
    def on_alloc(self, pfn: int, order: int, movable: bool) -> None:
        region = self.region_of(pfn)
        n = 1 << order
        self.free_frames[region] -= n
        if not movable:
            self.unmovable_frames[region] += n

    def on_free(self, pfn: int, order: int, movable: bool) -> None:
        region = self.region_of(pfn)
        n = 1 << order
        self.free_frames[region] += n
        if not movable:
            self.unmovable_frames[region] -= n

    def on_alloc_many(
        self, pfns: np.ndarray, orders: np.ndarray, movable: np.ndarray
    ) -> None:
        """A batch of :meth:`on_alloc` calls, one per array element."""
        self._account(pfns, orders, movable, 1)

    def on_free_many(
        self, pfns: np.ndarray, orders: np.ndarray, movable: np.ndarray
    ) -> None:
        """A batch of :meth:`on_free` calls, one per array element."""
        self._account(pfns, orders, movable, -1)

    def _account(
        self, pfns: np.ndarray, orders: np.ndarray, movable: np.ndarray, sign: int
    ) -> None:
        regions = pfns // self.frames_per_region
        frames = np.left_shift(1, orders) * sign
        np.subtract.at(self.free_frames, regions, frames)
        pinned = ~movable
        if pinned.any():
            np.add.at(self.unmovable_frames, regions[pinned], frames[pinned])

    # -- selection queries used by smart compaction ------------------------
    def occupied_frames(self, region: int) -> int:
        return self.frames_per_region - int(self.free_frames[region])

    def is_fully_free(self, region: int) -> bool:
        return int(self.free_frames[region]) == self.frames_per_region

    def best_source_regions(self, exclude: set[int] | None = None) -> list[int]:
        """Candidate regions to *evacuate*, cheapest first.

        Regions with unmovable contents are excluded outright (evacuating
        them can never yield a fully-free region); already-free regions are
        skipped (nothing to gain).  Remaining regions sort by descending free
        frames, i.e. ascending bytes-to-copy.
        """
        exclude = exclude or set()
        candidates = [
            r
            for r in range(self.n_regions)
            if r not in exclude
            and self.unmovable_frames[r] == 0
            and 0 < self.free_frames[r] < self.frames_per_region
        ]
        candidates.sort(key=lambda r: (-self.free_frames[r], r))
        tr = self._tracer
        if tr.active:
            tr.emit(
                "regions",
                "select_sources",
                candidates=candidates[:8],
                total=len(candidates),
            )
        return candidates

    def best_target_regions(self, exclude: set[int]) -> list[int]:
        """Candidate regions to copy *into*, fullest (fewest free) first.

        Filling the fullest regions first concentrates occupancy, leaving
        other regions easier to free later — the dual of source selection.
        """
        candidates = [
            r
            for r in range(self.n_regions)
            if r not in exclude and self.free_frames[r] > 0
        ]
        candidates.sort(key=lambda r: (self.free_frames[r], r))
        tr = self._tracer
        if tr.active:
            tr.emit(
                "regions",
                "select_targets",
                candidates=candidates[:8],
                total=len(candidates),
            )
        return candidates

    def check_against(self, frame_state: np.ndarray) -> None:
        """Assert counters match a ground-truth frame-state array.

        Delegates to :func:`repro.lint.invariants.check_regions`, the
        canonical checker the ``--audit`` runtime layer also uses.
        """
        from repro.lint.invariants import check_regions

        check_regions(self, frame_state)
