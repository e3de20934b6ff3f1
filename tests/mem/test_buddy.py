"""Unit tests for the extended buddy allocator."""

import pytest

from repro.mem.buddy import BuddyAllocator, OutOfMemoryError
from repro.mem.frames import FrameState


def make(total=256, max_order=6, listeners=()):
    return BuddyAllocator(total, max_order, listeners)


class TestConstruction:
    def test_starts_fully_free(self):
        b = make()
        assert b.free_frames == 256
        assert b.used_frames == 0
        assert b.free_blocks(6) == 4

    def test_rejects_non_multiple_total(self):
        with pytest.raises(ValueError):
            BuddyAllocator(100, 6)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            BuddyAllocator(64, -1)

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            BuddyAllocator(0, 0)


class TestAlloc:
    def test_alloc_order0_lowest_address_first(self):
        b = make()
        assert b.alloc(0) == 0
        assert b.alloc(0) == 1

    def test_alloc_splits_larger_block(self):
        b = make(total=64, max_order=6)
        pfn = b.alloc(2)
        assert pfn == 0
        # Splitting one order-6 block into one order-2 alloc leaves free
        # buddies at orders 2..5.
        assert b.free_frames == 60
        for order in range(2, 6):
            assert b.free_blocks(order) == 1

    def test_alloc_is_aligned(self):
        b = make()
        for order in (0, 1, 3, 5):
            pfn = b.alloc(order)
            assert pfn % (1 << order) == 0

    def test_alloc_exhausts_then_raises(self):
        b = make(total=8, max_order=3)
        b.alloc(3)
        with pytest.raises(OutOfMemoryError):
            b.alloc(0)

    def test_try_alloc_returns_none_on_oom(self):
        b = make(total=8, max_order=3)
        b.alloc(3)
        assert b.try_alloc(0) is None

    def test_alloc_bad_order_rejected(self):
        b = make(total=8, max_order=3)
        with pytest.raises(ValueError):
            b.alloc(4)
        with pytest.raises(ValueError):
            b.alloc(-1)

    def test_alloc_marks_frame_state(self):
        b = make()
        pfn = b.alloc(2, movable=True)
        assert (b.frame_state[pfn : pfn + 4] == FrameState.MOVABLE).all()
        pfn2 = b.alloc(1, movable=False)
        assert (b.frame_state[pfn2 : pfn2 + 2] == FrameState.UNMOVABLE).all()

    def test_no_free_block_at_order_after_fill(self):
        b = make(total=16, max_order=4)
        b.alloc(0)
        assert not b.has_free_block(4)
        assert b.has_free_block(3)


class TestFree:
    def test_free_restores_counts(self):
        b = make()
        pfn = b.alloc(3)
        b.free(pfn)
        assert b.free_frames == 256

    def test_free_coalesces_to_max_order(self):
        b = make(total=64, max_order=6)
        pfns = [b.alloc(0) for _ in range(64)]
        for pfn in pfns:
            b.free(pfn)
        assert b.free_blocks(6) == 1
        assert b.free_frames == 64

    def test_free_unknown_pfn_rejected(self):
        b = make()
        with pytest.raises(ValueError):
            b.free(5)

    def test_double_free_rejected(self):
        b = make()
        pfn = b.alloc(0)
        b.free(pfn)
        with pytest.raises(ValueError):
            b.free(pfn)

    def test_partial_coalesce_stops_at_allocated_buddy(self):
        b = make(total=16, max_order=4)
        a0 = b.alloc(0)  # pfn 0
        a1 = b.alloc(0)  # pfn 1
        b.free(a0)
        # Buddy (pfn 1) still allocated: block stays at order 0.
        assert b.free_blocks(0) == 1
        b.free(a1)
        assert b.free_blocks(4) == 1


class TestAllocAt:
    def test_alloc_at_specific_frame(self):
        b = make(total=64, max_order=6)
        b.alloc_at(17, 0)
        assert b.allocation_at(17) == (0, True)
        assert b.free_frames == 63

    def test_alloc_at_splits_correctly(self):
        b = make(total=64, max_order=6)
        b.alloc_at(32, 3, movable=False)
        assert b.allocation_at(32) == (3, False)
        b.check_invariants()

    def test_alloc_at_occupied_rejected(self):
        b = make(total=64, max_order=6)
        b.alloc_at(4, 2)
        with pytest.raises(ValueError):
            b.alloc_at(4, 0)
        with pytest.raises(ValueError):
            b.alloc_at(5, 0)

    def test_alloc_at_misaligned_rejected(self):
        b = make(total=64, max_order=6)
        with pytest.raises(ValueError):
            b.alloc_at(3, 2)

    def test_alloc_at_out_of_bounds_rejected(self):
        b = make(total=64, max_order=6)
        with pytest.raises(ValueError):
            b.alloc_at(64, 0)

    def test_alloc_at_then_free_roundtrip(self):
        b = make(total=64, max_order=6)
        b.alloc_at(40, 2)
        b.free(40)
        assert b.free_frames == 64
        assert b.free_blocks(6) == 1
        b.check_invariants()

    def test_is_free(self):
        b = make(total=16, max_order=4)
        assert b.is_free(7)
        b.alloc_at(7, 0)
        assert not b.is_free(7)


class TestQueries:
    def test_free_frames_at_or_above(self):
        b = make(total=16, max_order=4)
        b.alloc(0)  # splits the single order-4 block
        # Free buddies at orders 0..3: 1 + 2 + 4 + 8 = 15 frames.
        assert b.free_frames_at_or_above(0) == 15
        assert b.free_frames_at_or_above(3) == 8
        assert b.free_frames_at_or_above(4) == 0

    def test_iter_allocations(self):
        b = make(total=16, max_order=4)
        a = b.alloc(1, movable=False)
        allocs = list(b.iter_allocations())
        assert allocs == [(a, 1, False)]


class TestListeners:
    def test_listener_sees_alloc_and_free(self):
        events = []

        class Spy:
            def on_alloc(self, pfn, order, movable):
                events.append(("alloc", pfn, order, movable))

            def on_free(self, pfn, order, movable):
                events.append(("free", pfn, order, movable))

        b = make(total=16, max_order=4, listeners=(Spy(),))
        pfn = b.alloc(1, movable=False)
        b.free(pfn)
        assert events == [("alloc", pfn, 1, False), ("free", pfn, 1, False)]


class TestInvariants:
    def test_invariants_after_mixed_workload(self):
        b = make(total=128, max_order=7)
        live = []
        import random

        rng = random.Random(42)
        for step in range(500):
            if live and rng.random() < 0.45:
                b.free(live.pop(rng.randrange(len(live))))
            else:
                pfn = b.try_alloc(rng.randrange(4), movable=rng.random() < 0.9)
                if pfn is not None:
                    live.append(pfn)
        b.check_invariants()
        for pfn in live:
            b.free(pfn)
        b.check_invariants()
        assert b.free_frames == 128


class TestFreeListHeaps:
    @staticmethod
    def _heap_bound_holds(b):
        for free_list in b._free_lists:
            assert len(free_list._heap) <= (
                2 * len(free_list._members) + free_list.HEAP_SLACK
            )

    def test_heaps_stay_bounded_under_churn(self):
        """Stale heap entries from discards never outnumber live ones by
        more than the slack, across alloc / alloc_at / free churn."""
        import random

        rng = random.Random(7)
        b = make(total=4096, max_order=8)
        live = []
        for step in range(20_000):
            r = rng.random()
            if live and r < 0.45:
                b.free(live.pop(rng.randrange(len(live))))
            elif r < 0.75:
                pfn = b.try_alloc(rng.randrange(4), movable=rng.random() < 0.9)
                if pfn is not None:
                    live.append(pfn)
            else:
                order = rng.randrange(3)
                blocks = [
                    (o, s)
                    for o in range(order, b.max_order + 1)
                    for s in b.free_block_starts(o)
                ]
                if blocks:
                    o, start = rng.choice(blocks)
                    pfn = start + rng.randrange(1 << (o - order)) * (1 << order)
                    b.alloc_at(pfn, order)
                    live.append(pfn)
            self._heap_bound_holds(b)
            if step % 2_000 == 0:
                b.check_invariants()
        b.check_invariants()
        for pfn in live:
            b.free(pfn)
        self._heap_bound_holds(b)
        b.check_invariants()
        assert b.free_frames == 4096

    def test_rebuilt_heap_pops_lowest_first(self):
        b = make(total=1024, max_order=0)
        for pfn in range(0, 1024, 2):
            b.alloc_at(pfn, 0)  # discards from the order-0 list
        assert [b.alloc(0) for _ in range(4)] == [1, 3, 5, 7]

    @pytest.mark.parametrize("order", [-1, 7])
    def test_try_alloc_rejects_bad_orders(self, order):
        with pytest.raises(ValueError, match="out of range"):
            make().try_alloc(order)
