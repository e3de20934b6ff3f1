"""Zero-fill budget carry-over and fault-credit behaviour."""

from repro.config import CostModel, PageGeometry
from repro.mem.buddy import BuddyAllocator
from repro.mem.zerofill import ZeroFillEngine

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)

GEOM = PageGeometry(base_shift=12, mid_order=2, large_order=4)


def make(n_regions=4, pool=2):
    buddy = BuddyAllocator(n_regions * GEOM.frames_per_large, GEOM.large_order)
    return buddy, ZeroFillEngine(buddy, GEOM, CostModel(), pool)


class TestProgressCarryOver:
    def test_small_budgets_accumulate_into_a_block(self):
        _, engine = make()
        block_cost = CostModel().zero_ns(GEOM.large_size)
        slice_ns = block_cost / 10
        for _ in range(9):
            engine.background_fill(slice_ns)
        assert engine.pool_size == 0  # nine tenths: not there yet
        engine.background_fill(slice_ns * 1.5)
        assert engine.pool_size == 1

    def test_budget_returned_when_pool_full(self):
        _, engine = make(pool=1)
        engine.background_fill(1e12)
        assert engine.pool_size == 1
        spent = engine.background_fill(1e9)
        assert spent == 0.0

    def test_credit_dropped_when_no_free_block(self):
        buddy, engine = make(n_regions=1, pool=1)
        buddy.alloc(GEOM.large_order)  # nothing left to zero
        spent = engine.background_fill(1e12)
        assert engine.pool_size == 0
        # No free block: the credit is surrendered, not banked forever.
        assert engine._progress_ns == 0.0
        assert spent <= 1e12

    def test_blocks_zeroed_counter(self):
        _, engine = make()
        engine.background_fill(1e12)
        assert engine.blocks_zeroed == 2

    def test_release_all_drops_accrued_credit(self):
        """Regression: release_all must zero the zeroing credit.

        Previously it returned the pooled blocks but kept ``_progress_ns``,
        so the very next daemon tick could instantly re-allocate the large
        blocks the memory-pressure path had just reclaimed.
        """
        buddy, engine = make(n_regions=4, pool=2)
        block_cost = CostModel().zero_ns(GEOM.large_size)
        engine.background_fill(block_cost * 1.9)  # 1 block + 0.9 credit
        assert engine.pool_size == 1
        assert engine._progress_ns > 0.0
        free_before = buddy.free_frames
        released = engine.release_all()
        assert released == 1
        assert engine.pool_size == 0
        assert engine._progress_ns == 0.0
        assert buddy.free_frames == free_before + GEOM.frames_per_large
        # With zero credit banked, a sub-block budget cannot produce a
        # block on the next tick — the daemon starts from scratch.
        engine.background_fill(block_cost * 0.5)
        assert engine.pool_size == 0

    def test_release_all_counts_released_blocks(self):
        _, engine = make(pool=2)
        engine.background_fill(1e12)
        assert engine.pool_size == 2
        engine.release_all()
        engine.background_fill(1e12)
        engine.release_all()
        assert engine.blocks_released == 4


class TestStatsHelpers:
    def test_policy_stats_mapped_pages(self):
        from repro.core.policy import PolicyStats

        stats = PolicyStats.for_geometry(GEOM)
        stats.fault_mapped[MID] = 5
        stats.promoted[MID] = 3
        stats.demoted[MID] = 2
        assert stats.mapped_pages(MID) == 6

    def test_compaction_result_merge(self):
        from repro.core.compaction import CompactionResult

        a = CompactionResult(success=False, bytes_copied=10, time_ns=5.0)
        b = CompactionResult(
            success=True, bytes_copied=20, bytes_exchanged=7, regions_freed=1
        )
        a.merge(b)
        assert a.success
        assert a.bytes_copied == 30
        assert a.bytes_exchanged == 7
        assert a.regions_freed == 1
        assert a.time_ns == 5.0
