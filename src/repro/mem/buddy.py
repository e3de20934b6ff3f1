"""Binary buddy allocator with free lists up to the large-page order.

Linux's buddy allocator keeps per-order free lists only up to order 10 (4MB
with 4KB pages).  Trident's first kernel change extends the lists to order 18
(1GB) so the page-fault handler and khugepaged can ask for 1GB-contiguous
chunks directly.  This module implements the full extended allocator:

* power-of-two blocks, split on demand, eagerly coalesced on free;
* deterministic lowest-address-first allocation (heap + membership set per
  order, with lazy deletion and a bounded heap);
* a movability tag per allocation — unmovable blocks model kernel objects
  (inodes, DMA buffers) that compaction must not relocate;
* ``alloc_at`` for claiming a specific free range (used by compaction to
  place copied frames inside a chosen target region, and by hugetlbfs-style
  static reservation);
* listener hooks so :class:`repro.mem.regions.RegionTracker` can maintain the
  per-large-region counters smart compaction selects sources/targets by;
* ``alloc_run``, a closed form of many single-frame allocations, and
  ``free_many``, many frees in one call (the fragmentation fill and its
  release), which leave exactly the state the per-call loops would.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Protocol

import numpy as np

from repro.mem.frames import FrameState, new_frame_array
from repro.obs import MetricsRegistry, Observability


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation cannot be satisfied at any order."""


class AllocationListener(Protocol):
    """Observer notified of every allocation and free.

    The batch calls (:meth:`BuddyAllocator.alloc_run`,
    :meth:`BuddyAllocator.free_many`) report their blocks at once through
    the ``_many`` hooks, as equal-length arrays of global PFNs, orders and
    movable flags in batch order.
    """

    def on_alloc(self, pfn: int, order: int, movable: bool) -> None: ...

    def on_free(self, pfn: int, order: int, movable: bool) -> None: ...

    def on_alloc_many(
        self, pfns: np.ndarray, orders: np.ndarray, movable: np.ndarray
    ) -> None: ...

    def on_free_many(
        self, pfns: np.ndarray, orders: np.ndarray, movable: np.ndarray
    ) -> None: ...


class _OrderFreeList:
    """Free blocks of one order: min-heap of starts plus a membership set.

    The heap gives lowest-address-first allocation (deterministic and
    Linux-like); the set gives O(1) membership tests for buddy coalescing.
    Heap entries whose start is no longer in the set are stale and skipped.
    Once the heap holds more than ``2 * members + HEAP_SLACK`` entries it
    is rebuilt from the set (a sorted list is a heap), so stale entries
    never outnumber live ones by much and the lowest member pops as before.
    """

    HEAP_SLACK = 64

    __slots__ = ("_heap", "_members")

    def __init__(self) -> None:
        self._heap: list[int] = []
        self._members: set[int] = set()

    def __len__(self) -> int:
        return len(self._members)

    def add(self, pfn: int) -> None:
        self._members.add(pfn)
        heapq.heappush(self._heap, pfn)

    def discard(self, pfn: int) -> None:
        self._members.discard(pfn)
        self._bound_heap()

    def pop_lowest(self) -> int:
        heap, members = self._heap, self._members
        while heap:
            pfn = heapq.heappop(heap)
            if pfn in members:
                members.remove(pfn)
                self._bound_heap()
                return pfn
        raise KeyError("free list is empty")

    def _bound_heap(self) -> None:
        if len(self._heap) > 2 * len(self._members) + self.HEAP_SLACK:
            self._heap = sorted(self._members)

    def members(self) -> Iterable[int]:
        return iter(self._members)


class BuddyAllocator:
    """Buddy allocator over ``total_frames`` base frames.

    ``max_order`` is the largest tracked order; Trident configures it to the
    geometry's large order (1GB), stock Linux to 10 (4MB).  Given a
    ``frame_state`` view of a larger machine's array, the allocator is one
    node pool of :class:`repro.mem.numa.NumaBuddyPools`, whose aggregate
    collector writes the buddy gauges.
    """

    def __init__(
        self,
        total_frames: int,
        max_order: int,
        listeners: tuple[AllocationListener, ...] = (),
        obs: Observability | None = None,
        pfn_base: int = 0,
        frame_state: np.ndarray | None = None,
    ) -> None:
        if max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {max_order}")
        if total_frames <= 0 or total_frames % (1 << max_order):
            raise ValueError(
                f"total_frames ({total_frames}) must be a positive multiple "
                f"of the max block size ({1 << max_order})"
            )
        self.total_frames = total_frames
        self.max_order = max_order
        #: offset added to local pfns when reporting to tracer/listeners —
        #: lets :class:`repro.mem.numa.NumaBuddyPools` run each node's
        #: allocator in local pfn space while observers see global pfns
        self.pfn_base = pfn_base
        node_pool = frame_state is not None
        if frame_state is None:
            frame_state = new_frame_array(total_frames)
        elif len(frame_state) != total_frames:
            raise ValueError(
                f"frame_state view has {len(frame_state)} entries, "
                f"expected {total_frames}"
            )
        self.frame_state = frame_state
        self._free_lists = [_OrderFreeList() for _ in range(max_order + 1)]
        #: start pfn -> (order, movable) for every live allocation
        self._allocated: dict[int, tuple[int, bool]] = {}
        self._listeners = list(listeners)
        self._free_frames = total_frames
        if obs is None:
            obs = Observability()
        # Hot paths hold direct counter references.  The registry hands
        # back the same counter for the same (name, labels), so allocators
        # sharing one bundle share one set of totals: the per-node pools of
        # a NUMA machine keep the machine-wide buddy counters whole.
        m = obs.metrics
        self._tracer = obs.tracer
        orders = range(max_order + 1)
        self._c_alloc = [m.counter("buddy_alloc_total", order=o) for o in orders]
        self._c_free = [m.counter("buddy_free_total", order=o) for o in orders]
        self._c_split = m.counter("buddy_split_total")
        self._c_coalesce = m.counter("buddy_coalesce_total")
        # The free-list-depth and free-frame gauges are collector-mirrored:
        # copied at snapshot time, so alloc/free carry no gauge writes.  A
        # node pool leaves them to its machine's aggregate collector, the
        # one that writes them (NumaBuddyPools).
        if not node_pool:
            m.add_collector(self._collect)
        top = 1 << max_order
        for start in range(0, total_frames, top):
            self._free_lists[max_order].add(start)

    def _collect(self, metrics: MetricsRegistry) -> None:
        metrics.gauge("buddy_free_frames").value = self._free_frames
        for order in range(self.max_order + 1):
            metrics.gauge("buddy_free_blocks", order=order).value = len(
                self._free_lists[order]
            )

    def add_listener(self, listener: AllocationListener) -> None:
        """Register a listener after construction (e.g. an audit hook)."""
        self._listeners.append(listener)

    # -- introspection ---------------------------------------------------
    @property
    def free_frames(self) -> int:
        """Total number of free base frames."""
        return self._free_frames

    @property
    def used_frames(self) -> int:
        return self.total_frames - self._free_frames

    def free_blocks(self, order: int) -> int:
        """Number of free blocks exactly at ``order``."""
        return len(self._free_lists[order])

    def free_block_starts(self, order: int) -> list[int]:
        """Starts of free blocks exactly at ``order`` (unsorted)."""
        return list(self._free_lists[order].members())

    def has_free_block(self, order: int) -> bool:
        """True if an allocation of ``order`` would succeed right now."""
        lists = self._free_lists
        return any(lists[o]._members for o in range(order, self.max_order + 1))

    def free_frames_at_or_above(self, order: int) -> int:
        """Free frames sitting in blocks of order >= ``order``.

        This is the numerator of "suitable" free memory in the FMFI metric.
        """
        return sum(
            len(self._free_lists[o]) << o for o in range(order, self.max_order + 1)
        )

    def allocation_at(self, pfn: int) -> tuple[int, bool] | None:
        """(order, movable) of the allocation starting at ``pfn``, if any."""
        return self._allocated.get(pfn)

    def iter_allocations(self) -> Iterable[tuple[int, int, bool]]:
        """Yield (start_pfn, order, movable) for every live allocation."""
        for pfn, (order, movable) in self._allocated.items():
            yield pfn, order, movable

    # -- allocation -------------------------------------------------------
    def alloc(self, order: int, movable: bool = True) -> int:
        """Allocate a block of 2**order frames; returns its start PFN.

        Raises :class:`OutOfMemoryError` when no block at or above ``order``
        is free.  Splits a larger block when necessary, always taking the
        lowest-addressed candidate.
        """
        source = self._source_order(order)
        if source is None:
            raise OutOfMemoryError(f"no free block at order >= {order}")
        return self._split_alloc(source, order, movable)

    def try_alloc(self, order: int, movable: bool = True) -> int | None:
        """Like :meth:`alloc` but returns None instead of raising on OOM."""
        source = self._source_order(order)
        if source is None:
            return None
        return self._split_alloc(source, order, movable)

    def alloc_run(self, count: int, movable: bool = True) -> np.ndarray:
        """Allocate ``count`` single frames at once; returns their PFNs in order.

        Leaves exactly the state of ``count`` calls of ``alloc(0, movable)``
        that stop at the first :class:`OutOfMemoryError`: when memory runs
        out it returns the frames there were.  Those calls take the free
        blocks in (order, start) order and each block's frames ascending
        (a split block's pieces are the lowest free blocks until it is
        used up), so the run uses whole blocks in that order and the last
        block's remainder is listed as its maximal aligned blocks.  Every
        allocation lists one block fewer and every split one more, which
        gives the split count.
        """
        count = min(int(count), self._free_frames)
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        lists = self._free_lists
        blocks_before = sum(len(free_list) for free_list in lists)
        runs: list[np.ndarray] = []
        left = count
        for order, free_list in enumerate(lists):
            if not left:
                break
            if not free_list._members:
                continue
            starts = sorted(free_list._members)
            whole = min(len(starts), left >> order)
            used = starts[:whole]
            runs.append(
                (np.array(used, dtype=np.int64)[:, None] + np.arange(1 << order))
                .ravel()
            )
            left -= whole << order
            if left and whole < len(starts):
                # The run ends inside this block: its rest stays free.
                start = starts[whole]
                used = starts[: whole + 1]
                runs.append(np.arange(start, start + left, dtype=np.int64))
                self._list_range(start + left, start + (1 << order))
                left = 0
            free_list._members.difference_update(used)
            free_list._bound_heap()
        pfns = np.concatenate(runs)
        splits = sum(len(free_list) for free_list in lists) - blocks_before + count
        self.frame_state[pfns] = (
            FrameState.MOVABLE if movable else FrameState.UNMOVABLE
        )
        pfn_list = pfns.tolist()
        self._allocated.update(dict.fromkeys(pfn_list, (0, movable)))
        self._free_frames -= count
        self._c_alloc[0].inc(count)
        if splits:
            self._c_split.inc(splits)
        tr = self._tracer
        if tr.active:
            base = self.pfn_base
            for pfn in pfn_list:
                tr.emit("buddy", "alloc", pfn=pfn + base, order=0, movable=movable)
        gpfns = pfns + self.pfn_base
        orders = np.zeros(count, dtype=np.int64)
        flags = np.full(count, movable)
        for listener in self._listeners:
            listener.on_alloc_many(gpfns, orders, flags)
        return pfns

    def _list_range(self, lo: int, hi: int) -> None:
        """List free ``[lo, hi)`` (``hi`` aligned past it) as maximal blocks."""
        while lo < hi:
            order = (lo & -lo).bit_length() - 1
            self._free_lists[order].add(lo)
            lo += 1 << order

    def _source_order(self, order: int) -> int | None:
        """Lowest order >= ``order`` with a free block, or None."""
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range [0, {self.max_order}]")
        lists = self._free_lists
        for o in range(order, self.max_order + 1):
            if lists[o]._members:
                return o
        return None

    def _split_alloc(self, source: int, order: int, movable: bool) -> int:
        """Take the lowest ``source`` block and split it down to ``order``."""
        pfn = self._free_lists[source].pop_lowest()
        if source > order:
            self._c_split.inc(source - order)
        while source > order:
            source -= 1
            self._free_lists[source].add(pfn + (1 << source))
        self._commit_alloc(pfn, order, movable)
        return pfn

    def alloc_at(self, pfn: int, order: int, movable: bool = True) -> None:
        """Claim the specific free block [pfn, pfn + 2**order).

        The range must be aligned to ``order`` and currently free.  Splits
        enclosing free blocks as needed.  Raises ValueError if the range is
        misaligned or not fully free.
        """
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range [0, {self.max_order}]")
        if pfn % (1 << order):
            raise ValueError(f"pfn {pfn} not aligned to order {order}")
        if pfn + (1 << order) > self.total_frames:
            raise ValueError(f"block [{pfn}, {pfn + (1 << order)}) out of bounds")
        enclosing = self._find_enclosing_free_block(pfn)
        if enclosing is None:
            raise ValueError(f"frames at pfn {pfn} are not free")
        encl_pfn, encl_order = enclosing
        if encl_order < order or pfn + (1 << order) > encl_pfn + (1 << encl_order):
            raise ValueError(
                f"free block at {encl_pfn} (order {encl_order}) does not "
                f"cover requested [{pfn}, {pfn + (1 << order)})"
            )
        self._free_lists[encl_order].discard(encl_pfn)
        if encl_order > order:
            self._c_split.inc(encl_order - order)
        # Split the enclosing block down until the target block is isolated.
        cur_pfn, cur_order = encl_pfn, encl_order
        while cur_order > order:
            cur_order -= 1
            half = 1 << cur_order
            if pfn < cur_pfn + half:
                self._free_lists[cur_order].add(cur_pfn + half)
            else:
                self._free_lists[cur_order].add(cur_pfn)
                cur_pfn += half
        self._commit_alloc(pfn, order, movable)

    def _find_enclosing_free_block(self, pfn: int) -> tuple[int, int] | None:
        for order, free_list in enumerate(self._free_lists):
            candidate = pfn & ~((1 << order) - 1)
            if candidate in free_list._members:
                return candidate, order
        return None

    def is_free(self, pfn: int) -> bool:
        """True if the single frame ``pfn`` is free."""
        return self.frame_state[pfn] == FrameState.FREE

    def _commit_alloc(self, pfn: int, order: int, movable: bool) -> None:
        n = 1 << order
        state = FrameState.MOVABLE if movable else FrameState.UNMOVABLE
        if order:
            self.frame_state[pfn : pfn + n] = state
        else:
            self.frame_state[pfn] = state
        self._allocated[pfn] = (order, movable)
        self._free_frames -= n
        gpfn = pfn + self.pfn_base
        self._c_alloc[order].inc()
        tr = self._tracer
        if tr.active:
            tr.emit("buddy", "alloc", pfn=gpfn, order=order, movable=movable)
        for listener in self._listeners:
            listener.on_alloc(gpfn, order, movable)

    # -- free --------------------------------------------------------------
    def free(self, pfn: int) -> None:
        """Free the allocation that starts at ``pfn``; coalesces eagerly."""
        try:
            order, movable = self._allocated.pop(pfn)
        except KeyError:
            raise ValueError(f"no allocation starts at pfn {pfn}") from None
        n = 1 << order
        if order:
            self.frame_state[pfn : pfn + n] = FrameState.FREE
        else:
            self.frame_state[pfn] = FrameState.FREE
        self._free_frames += n
        gpfn = pfn + self.pfn_base
        self._c_free[order].inc()
        tr = self._tracer
        if tr.active:
            tr.emit("buddy", "free", pfn=gpfn, order=order, movable=movable)
        for listener in self._listeners:
            listener.on_free(gpfn, order, movable)
        self._insert_and_coalesce(pfn, order)

    def free_many(self, pfns) -> None:
        """Free the allocations starting at each of ``pfns``, in that order.

        Leaves exactly the state of one :meth:`free` per PFN: the frame
        states, counters, trace events and listeners are updated for the
        whole batch, then each block is coalesced in turn.  Raises
        ValueError, before changing anything, unless each PFN starts its
        own live allocation.
        """
        pfns = np.asarray(pfns, dtype=np.int64)
        pfn_list = pfns.tolist()
        if not pfn_list:
            return
        allocated = self._allocated
        wanted = set(pfn_list)
        if len(wanted) < len(pfn_list) or not wanted <= allocated.keys():
            seen: set[int] = set()
            for pfn in pfn_list:
                if pfn in seen or pfn not in allocated:
                    raise ValueError(f"no allocation starts at pfn {pfn}")
                seen.add(pfn)
        order_list, movable_list = zip(*map(allocated.pop, pfn_list))
        orders = np.array(order_list, dtype=np.int64)
        movable = np.array(movable_list, dtype=bool)
        state = self.frame_state
        single = orders == 0
        state[pfns[single]] = FrameState.FREE
        for pfn, order in zip(pfns[~single].tolist(), orders[~single].tolist()):
            state[pfn : pfn + (1 << order)] = FrameState.FREE
        self._free_frames += int(np.left_shift(1, orders).sum())
        for order, n in enumerate(np.bincount(orders).tolist()):
            if n:
                self._c_free[order].inc(n)
        tr = self._tracer
        if tr.active:
            base = self.pfn_base
            for pfn, order, mov in zip(pfn_list, order_list, movable_list):
                tr.emit("buddy", "free", pfn=pfn + base, order=order, movable=mov)
        gpfns = pfns + self.pfn_base
        for listener in self._listeners:
            listener.on_free_many(gpfns, orders, movable)
        coalesce = self._insert_and_coalesce
        for pfn, order in zip(pfn_list, order_list):
            coalesce(pfn, order)

    def _insert_and_coalesce(self, pfn: int, order: int) -> None:
        merges = 0
        lists = self._free_lists
        while order < self.max_order:
            buddy = pfn ^ (1 << order)
            if buddy not in lists[order]._members:
                break
            lists[order].discard(buddy)
            pfn = min(pfn, buddy)
            order += 1
            merges += 1
        if merges:
            self._c_coalesce.inc(merges)
        lists[order].add(pfn)

    # -- verification (tests and the --audit layer) -------------------------
    def check_invariants(self) -> None:
        """Assert internal consistency; O(total_frames).

        Delegates to :func:`repro.lint.invariants.check_buddy`, the
        canonical checker the ``--audit`` runtime layer also uses, so
        tests and audited runs enforce the identical invariant set.
        """
        from repro.lint.invariants import check_buddy

        check_buddy(self)
