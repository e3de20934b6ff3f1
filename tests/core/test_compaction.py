"""Tests for normal vs smart compaction."""

import random


from repro.config import CostModel, PageGeometry, PageLevel
from repro.core.compaction import NormalCompactor, SmartCompactor
from repro.core.rmap import ReverseMap
from repro.mem.buddy import BuddyAllocator
from repro.mem.regions import RegionTracker

GEOM = PageGeometry(base_shift=12, mid_order=2, large_order=6)  # large = 64 frames


class RecordingOwner:
    """Test double rmap owner recording relocations."""

    def __init__(self):
        self.moves = []

    def relocate(self, old_pfn, new_pfn, order):
        self.moves.append((old_pfn, new_pfn, order))


def make_system(n_regions=4):
    total = n_regions * GEOM.frames_per_large
    tracker = RegionTracker(total, GEOM)
    buddy = BuddyAllocator(total, GEOM.large_order, listeners=(tracker,))
    rmap = ReverseMap()
    return buddy, tracker, rmap


def fill_scattered(buddy, rmap, owner, frames, rng, region_span=None):
    """Allocate ``frames`` single frames, free none; register in rmap."""
    pfns = []
    for _ in range(frames):
        pfn = buddy.alloc(0)
        rmap.register(pfn, 0, owner)
        pfns.append(pfn)
    return pfns


def fragment_half(buddy, rmap, owner, rng):
    """Fill all memory with frames then free a random half (registered)."""
    pfns = [buddy.alloc(0) for _ in range(buddy.free_frames)]
    rng.shuffle(pfns)
    keep = pfns[: len(pfns) // 2]
    for pfn in pfns[len(pfns) // 2 :]:
        buddy.free(pfn)
    for pfn in keep:
        rmap.register(pfn, 0, owner)
    return keep


class TestSmartCompactor:
    def test_noop_when_block_already_free(self):
        buddy, tracker, rmap = make_system()
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = smart.compact(GEOM.large_order)
        assert result.success
        assert result.bytes_copied == 0

    def test_creates_large_block_from_fragmented_memory(self):
        buddy, tracker, rmap = make_system(n_regions=4)
        owner = RecordingOwner()
        rng = random.Random(1)
        fragment_half(buddy, rmap, owner, rng)
        assert not buddy.has_free_block(GEOM.large_order)
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = smart.compact(GEOM.large_order)
        assert result.success
        assert buddy.has_free_block(GEOM.large_order)
        assert result.bytes_copied > 0
        assert owner.moves  # relocations were reported
        buddy.check_invariants()

    def test_picks_cheapest_source_region(self):
        buddy, tracker, rmap = make_system(n_regions=3)
        owner = RecordingOwner()
        # Region 0 nearly full, region 1 nearly empty, region 2 in between.
        # No region is fully free, so compaction must evacuate one.
        for i in range(60):
            buddy.alloc_at(i, 0)
            rmap.register(i, 0, owner)
        base1 = GEOM.frames_per_large
        for i in range(4):
            buddy.alloc_at(base1 + i, 0)
            rmap.register(base1 + i, 0, owner)
        base2 = 2 * GEOM.frames_per_large
        for i in range(30):
            buddy.alloc_at(base2 + i, 0)
            rmap.register(base2 + i, 0, owner)
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = smart.compact(GEOM.large_order)
        assert result.success
        # Only region 1's four frames should have been copied (cheapest).
        assert result.bytes_copied == 4 * GEOM.base_size
        assert all(base1 <= old < base2 for old, _, _ in owner.moves)

    def test_skips_regions_with_unmovable_content(self):
        buddy, tracker, rmap = make_system(n_regions=2)
        owner = RecordingOwner()
        # Region 0: one movable registered frame + one unmovable frame.
        buddy.alloc_at(0, 0)
        rmap.register(0, 0, owner)
        buddy.alloc_at(1, 0, movable=False)
        # Region 1: a movable frame (no region is fully free).
        base1 = GEOM.frames_per_large
        buddy.alloc_at(base1, 0)
        rmap.register(base1, 0, owner)
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = smart.compact(GEOM.large_order)
        # Region 1 can be evacuated into region 0; region 0 never selected.
        assert result.success
        assert all(old >= base1 for old, _, _ in owner.moves)

    def test_refuses_rmapless_blocks_without_copying(self):
        buddy, tracker, rmap = make_system(n_regions=2)
        # Region 0: movable but unregistered (like the zero-fill pool).
        buddy.alloc_at(0, 0)
        base1 = GEOM.frames_per_large
        buddy.alloc_at(base1, 0)  # also unregistered
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = smart.compact(GEOM.large_order)
        assert not result.success
        assert result.bytes_copied == 0

    def test_fails_when_no_capacity(self):
        buddy, tracker, rmap = make_system(n_regions=2)
        owner = RecordingOwner()
        rng = random.Random(2)
        # Fill everything; nothing free to move into.
        pfns = [buddy.alloc(0) for _ in range(buddy.free_frames)]
        for pfn in pfns:
            rmap.register(pfn, 0, owner)
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = smart.compact(GEOM.large_order)
        assert not result.success

    def test_moves_mid_blocks_as_units(self):
        buddy, tracker, rmap = make_system(n_regions=3)
        owner = RecordingOwner()
        mid = GEOM.mid_order
        # One mid block in region 1; regions 0 and 2 partially filled so
        # nothing is fully free and region 1 is the cheapest source.
        base1 = GEOM.frames_per_large
        buddy.alloc_at(base1, mid)
        rmap.register(base1, mid, owner)
        for i in range(32):
            buddy.alloc_at(i, 0)
            rmap.register(i, 0, owner)
        base2 = 2 * GEOM.frames_per_large
        for i in range(40):
            buddy.alloc_at(base2 + i, 0)
            rmap.register(base2 + i, 0, owner)
        smart = SmartCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = smart.compact(GEOM.large_order)
        assert result.success
        assert any(o == base1 and order == mid for o, _, order in owner.moves)
        buddy.check_invariants()


class TestNormalCompactor:
    def test_creates_block_sequentially(self):
        buddy, tracker, rmap = make_system(n_regions=4)
        owner = RecordingOwner()
        rng = random.Random(3)
        fragment_half(buddy, rmap, owner, rng)
        normal = NormalCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = normal.compact(GEOM.large_order)
        assert result.success
        buddy.check_invariants()

    def test_aborts_region_on_unmovable_and_wastes_copies(self):
        buddy, tracker, rmap = make_system(n_regions=2)
        owner = RecordingOwner()
        # Region 0: movable frame at 0, unmovable at 5 -> abort after moving 0.
        buddy.alloc_at(0, 0)
        rmap.register(0, 0, owner)
        buddy.alloc_at(5, 0, movable=False)
        normal = NormalCompactor(buddy, tracker, rmap, GEOM, CostModel())
        result = normal.compact(GEOM.large_order)
        # Region 1 is free already -> success pre-check... region 1 fully
        # free means the first has_free_block check succeeds instantly.
        assert result.success
        # Now occupy region 1 so compaction must actually work region 0.
        buddy2, tracker2, rmap2 = make_system(n_regions=2)
        buddy2.alloc_at(0, 0)
        rmap2.register(0, 0, owner)
        buddy2.alloc_at(5, 0, movable=False)
        base1 = GEOM.frames_per_large
        buddy2.alloc_at(base1 + 10, 0)  # unregistered movable in region 1
        normal2 = NormalCompactor(buddy2, tracker2, rmap2, GEOM, CostModel())
        result2 = normal2.compact(GEOM.large_order)
        assert not result2.success
        # Every byte normal compaction copied here was wasted (both regions
        # were abandoned on an unmovable/unmigratable frame).
        assert result2.wasted_bytes == result2.bytes_copied
        assert result2.wasted_bytes >= GEOM.base_size

    def test_smart_copies_less_than_normal(self):
        """The Figure 7 claim at unit scale: smart copies fewer bytes."""
        rng = random.Random(7)
        results = {}
        for cls in (NormalCompactor, SmartCompactor):
            buddy, tracker, rmap = make_system(n_regions=8)
            owner = RecordingOwner()
            rng_local = random.Random(7)
            fragment_half(buddy, rmap, owner, rng_local)
            compactor = cls(buddy, tracker, rmap, GEOM, CostModel())
            res = compactor.compact(GEOM.large_order)
            assert res.success
            results[cls.__name__] = res.bytes_copied
        assert results["SmartCompactor"] <= results["NormalCompactor"]

    def test_cursor_advances_between_attempts(self):
        buddy, tracker, rmap = make_system(n_regions=4)
        normal = NormalCompactor(buddy, tracker, rmap, GEOM, CostModel())
        c0 = normal._cursor
        normal.compact(GEOM.large_order)
        assert normal._cursor != c0

    def test_stats_accumulate(self):
        buddy, tracker, rmap = make_system(n_regions=4)
        owner = RecordingOwner()
        fragment_half(buddy, rmap, owner, random.Random(4))
        normal = NormalCompactor(buddy, tracker, rmap, GEOM, CostModel())
        normal.compact(GEOM.large_order)
        normal.compact(GEOM.large_order)
        assert normal.stats.attempts == 2
        assert normal.stats.bytes_copied >= 0


class TestPvMigrationOnTwoLevels:
    """With a pv exchanger installed, blocks of level 1 or larger move by
    exchange and smaller ones by copy; a 2-level ladder has no mid level,
    so level 1 is its top."""

    GEOM2 = PageGeometry(
        base_shift=12,
        levels=(
            PageLevel(name="base", label="4KB", order=0, promotable=False),
            PageLevel(name="big", label="64KB", order=4),
        ),
    )

    def make(self, n_regions):
        g = self.GEOM2
        total = n_regions * g.frames_per_large
        tracker = RegionTracker(total, g)
        buddy = BuddyAllocator(total, g.large_order, listeners=(tracker,))
        smart = SmartCompactor(buddy, tracker, ReverseMap(), g, CostModel())
        exchanged = []

        def exchange(src, dst, order):
            exchanged.append((src, dst, order))
            return 1.0

        smart.pv_exchanger = exchange
        return buddy, smart, exchanged

    def test_base_frames_copy(self):
        buddy, smart, exchanged = self.make(n_regions=4)
        fragment_half(buddy, smart.rmap, RecordingOwner(), random.Random(5))
        result = smart.compact(self.GEOM2.large_order)
        assert result.success
        assert result.bytes_copied > 0 and result.bytes_exchanged == 0
        assert exchanged == []
        buddy.check_invariants()

    def test_top_level_block_exchanges(self):
        g = self.GEOM2
        buddy, smart, exchanged = self.make(n_regions=2)
        top = g.large_order
        buddy.alloc_at(0, top)
        smart.rmap.register(0, top, RecordingOwner())
        dest = g.frames_per_large
        copied, moved, ns = smart._migrate(0, top, dest, movable=True)
        assert (copied, moved, ns) == (0, g.large_size, 1.0)
        assert exchanged == [(0, dest, top)]
        buddy.check_invariants()
