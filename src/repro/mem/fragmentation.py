"""Physical-memory fragmentation: FMFI metric and fragmentation injector.

The paper measures fragmentation with the Free Memory Fragmentation Index
(FMFI, from Ingens): the fraction of free memory that is *not* usable for a
contiguous allocation of a given order.  0 means every free byte sits in
chunks big enough; 1 means none does.

The injector reproduces the paper's methodology (Section 3, borrowed from
vMitosis): fill memory with page-cache-sized (base-frame) allocations, then
free pages at random offsets so reclaim returns memory in non-contiguous
chunks.  A small probability of unmovable allocations models kernel objects
that land in the middle of otherwise-movable regions and defeat compaction.
"""

from __future__ import annotations

import numpy as np

from repro.mem.buddy import BuddyAllocator


def fmfi(buddy: BuddyAllocator, order: int) -> float:
    """Free Memory Fragmentation Index for allocations of ``order``.

    ``1 - (free frames in blocks of order >= order) / (all free frames)``.
    Returns 0.0 when there is no free memory at all (nothing to fragment).
    """
    free = buddy.free_frames
    if free == 0:
        return 0.0
    suitable = buddy.free_frames_at_or_above(order)
    return 1.0 - suitable / free


class FragmentationInjector:
    """Fragments physical memory the way a file-cache workload does.

    After :meth:`fragment`, the injector owns a set of scattered base-frame
    allocations (the residual "page cache").  They are movable — compaction
    may relocate them (hook :meth:`notice_moved` up as the rmap owner) — and
    reclaimable: :meth:`reclaim` frees them in random (non-contiguous)
    order, modelling Linux page reclaim under memory pressure.  Unmovable
    allocations made during filling stay pinned unless
    :meth:`release_unmovable` is called (tests only).
    """

    def __init__(
        self, buddy: BuddyAllocator, rng: np.random.Generator | None = None
    ) -> None:
        self.buddy = buddy
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._frames: list[int] = []  # residual cache frames
        self._pos: dict[int, int] = {}  # pfn -> index in _frames
        self._unmovable_frames: list[int] = []

    @property
    def residual_frames(self) -> int:
        """Frames still held by the injected page cache."""
        return len(self._frames)

    @property
    def unmovable_count(self) -> int:
        return len(self._unmovable_frames)

    def cache_frames(self) -> list[int]:
        """Current residual cache frame PFNs (for rmap registration)."""
        return list(self._frames)

    def fragment(
        self,
        fill_fraction: float = 0.95,
        residual_fraction: float = 0.30,
        unmovable_prob: float = 0.002,
    ) -> float:
        """Fill then randomly free memory; returns the resulting large-order FMFI.

        * ``fill_fraction`` — fraction of currently-free memory to allocate
          as base frames (the cached file).
        * ``residual_fraction`` — fraction of those allocations left in place
          afterwards, scattered uniformly (the page cache that survives).
        * ``unmovable_prob`` — probability that an allocation is an unmovable
          kernel object rather than movable page cache.
        """
        if not 0.0 <= residual_fraction <= 1.0:
            raise ValueError(f"residual_fraction out of [0,1]: {residual_fraction}")
        buddy = self.buddy
        to_fill = int(buddy.free_frames * fill_fraction)
        # Kernel-object allocations are grouped by migratetype into shared
        # pageblocks, so they cluster in a few regions rather than salting
        # every 1GB region (which would leave compaction no valid source).
        # Allocating them up-front reproduces that clustering: the buddy is
        # lowest-address-first, so they land together in the low regions.
        # Both fills stop where memory runs out.
        self._unmovable_frames.extend(
            buddy.alloc_run(int(to_fill * unmovable_prob), movable=False).tolist()
        )
        fresh = buddy.alloc_run(to_fill, movable=True)
        if len(fresh):
            fresh = fresh[self.rng.permutation(len(fresh))]
        keep = int(len(fresh) * residual_fraction)
        buddy.free_many(fresh[keep:])
        kept = fresh[:keep].tolist()
        start = len(self._frames)
        self._pos.update(zip(kept, range(start, start + keep)))
        self._frames.extend(kept)
        return fmfi(buddy, buddy.max_order)

    def reclaim(self, n_frames: int) -> list[int]:
        """Free up to ``n_frames`` residual cache frames in random order.

        Models page-cache reclaim: memory comes back, but in scattered base
        frames.  Returns the PFNs actually freed (so the system layer can
        drop their rmap registrations).
        """
        freed: list[int] = []
        for _ in range(min(n_frames, len(self._frames))):
            idx = int(self.rng.integers(len(self._frames)))
            pfn = self._frames[idx]
            self._swap_pop(idx)
            self.buddy.free(pfn)
            freed.append(pfn)
        return freed

    def reclaim_all(self) -> list[int]:
        """Free the entire residual cache (still scattered)."""
        return self.reclaim(len(self._frames))

    def release_unmovable(self) -> None:
        """Free all injected unmovable allocations (test teardown helper)."""
        for pfn in self._unmovable_frames:
            self.buddy.free(pfn)
        self._unmovable_frames.clear()

    def notice_moved(self, old_pfn: int, new_pfn: int) -> bool:
        """Compaction relocated one of our cache frames; update bookkeeping.

        Returns True if ``old_pfn`` belonged to the injected cache.
        """
        idx = self._pos.pop(old_pfn, None)
        if idx is None:
            return False
        self._frames[idx] = new_pfn
        self._pos[new_pfn] = idx
        return True

    # rmap FrameOwner interface: the injector owns its own frames.
    def relocate(self, old_pfn: int, new_pfn: int, order: int) -> None:
        assert order == 0, "page-cache blocks are single frames"
        moved = self.notice_moved(old_pfn, new_pfn)
        assert moved, f"relocate for pfn {old_pfn} not owned by the cache"

    def _swap_pop(self, idx: int) -> None:
        last = self._frames[-1]
        pfn = self._frames[idx]
        self._frames[idx] = last
        self._pos[last] = idx
        self._frames.pop()
        del self._pos[pfn]
