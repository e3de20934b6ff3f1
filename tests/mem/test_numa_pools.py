"""Unit tests for the per-node buddy pools behind NumaBuddyPools."""

import pytest

from repro.mem.buddy import BuddyAllocator, OutOfMemoryError
from repro.mem.numa import NumaBuddyPools, NumaTopology
from repro.obs import Observability

TOTAL = 512
MAX_ORDER = 6
NODES = 2


def make_pools(nodes=NODES, total=TOTAL, obs=None, **topo):
    return NumaBuddyPools(
        total, MAX_ORDER, NumaTopology(nodes=nodes, **topo), obs=obs
    )


class TestNumaTopology:
    def test_defaults(self):
        topo = NumaTopology()
        assert topo.nodes == 1
        assert not topo.interleaved
        assert NumaTopology(nodes=4).interleaved

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": 0},
            {"remote_multiplier": 0.9},
            {"data_dram_fraction": -0.1},
            {"data_dram_fraction": 1.1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NumaTopology(**kwargs)


class TestPartition:
    def test_capacity_must_split_into_max_order_blocks(self):
        # 3 nodes * 64-frame blocks don't divide 512 frames.
        with pytest.raises(ValueError, match="split"):
            make_pools(nodes=3)

    def test_node_bounds_partition_pfn_space(self):
        pools = make_pools()
        covered = []
        for node in range(NODES):
            lo, hi = pools.node_bounds(node)
            covered.extend(range(lo, hi))
            for pfn in (lo, hi - 1):
                assert pools.node_of(pfn) == node
        assert covered == list(range(TOTAL))

    def test_node_of_rejects_out_of_bounds(self):
        pools = make_pools()
        with pytest.raises(ValueError, match="bounds"):
            pools.node_of(TOTAL)
        with pytest.raises(ValueError, match="bounds"):
            pools.node_of(-1)

    def test_shared_frame_state_is_one_array(self):
        pools = make_pools()
        pfn = pools.alloc(0, node=1)
        # The facade's global array reflects the node-1 pool's write.
        assert not pools.is_free(pfn)
        assert pools.is_free(0)


class TestPlacement:
    def test_explicit_node_lands_locally(self):
        pools = make_pools()
        for node in range(NODES):
            pfn = pools.alloc(3, node=node)
            assert pools.node_of(pfn) == node

    def test_sticky_preference_steers_allocs(self):
        pools = make_pools()
        pools.set_alloc_preference(1)
        assert pools.node_of(pools.alloc(0)) == 1
        pools.set_alloc_preference(None)

    def test_preference_out_of_range_rejected(self):
        pools = make_pools()
        with pytest.raises(ValueError, match="range"):
            pools.set_alloc_preference(NODES)

    def test_spills_remote_when_home_exhausted(self):
        pools = make_pools()
        per_node_blocks = (TOTAL // NODES) >> MAX_ORDER
        for _ in range(per_node_blocks):
            pools.alloc(MAX_ORDER, node=0)
        assert pools.node_free_frames(0) == 0
        pfn = pools.alloc(0, node=0)  # spill: node 0 is full
        assert pools.node_of(pfn) == 1

    def test_unpreferred_allocs_pick_emptiest_node_deterministically(self):
        pools = make_pools()
        pools.alloc(MAX_ORDER, node=0)
        # node 1 now has strictly more free frames: it wins; ties break low.
        assert pools.node_of(pools.alloc(0)) == 1
        fresh = make_pools()
        assert fresh.node_of(fresh.alloc(0)) == 0

    def test_oom_only_when_every_node_is_full(self):
        pools = make_pools()
        blocks = TOTAL >> MAX_ORDER
        for _ in range(blocks):
            pools.alloc(MAX_ORDER)
        with pytest.raises(OutOfMemoryError, match="any of 2 nodes"):
            pools.alloc(0)
        assert pools.try_alloc(0) is None


class TestDuckType:
    """The facade must satisfy every read the flat allocator serves."""

    def test_totals_aggregate_over_nodes(self):
        pools = make_pools()
        pools.alloc(2, node=0)
        pools.alloc(3, node=1)
        assert pools.used_frames == 4 + 8
        assert pools.free_frames == TOTAL - 12
        # Each alloc broke one max-order block per node.
        assert pools.free_blocks(MAX_ORDER) == (TOTAL >> MAX_ORDER) - 2
        assert pools.free_frames_at_or_above(MAX_ORDER) == TOTAL - 2 * (
            1 << MAX_ORDER
        )
        assert pools.has_free_block(MAX_ORDER)

    def test_free_block_starts_are_global_pfns(self):
        pools = make_pools()
        starts = sorted(pools.free_block_starts(MAX_ORDER))
        assert starts == list(range(0, TOTAL, 1 << MAX_ORDER))

    def test_allocation_routing_and_iteration(self):
        pools = make_pools()
        a = pools.alloc(1, movable=False, node=0)
        b = pools.alloc(2, node=1)
        assert pools.allocation_at(a) == (1, False)
        assert pools.allocation_at(b) == (2, True)
        assert pools.allocation_at(a + 1) is None
        assert sorted(pools.iter_allocations()) == sorted(
            [(a, 1, False), (b, 2, True)]
        )

    def test_alloc_at_and_free_route_by_node(self):
        pools = make_pools()
        remote = pools.node_bounds(1)[0] + 8
        pools.alloc_at(remote, 3)
        assert pools.node_free_frames(1) == TOTAL // NODES - 8
        pools.free(remote)
        assert pools.node_free_frames(1) == TOTAL // NODES
        pools.check_invariants()

    def test_alloc_at_validates_bounds_like_flat(self):
        pools = make_pools()
        with pytest.raises(ValueError, match="order"):
            pools.alloc_at(0, MAX_ORDER + 1)
        with pytest.raises(ValueError, match="bounds"):
            pools.alloc_at(TOTAL - 1, 1)

    def test_listeners_hear_global_pfns(self):
        events = []

        class Listener:
            def on_alloc(self, pfn, order, movable):
                events.append(("alloc", pfn, order))

            def on_free(self, pfn, order, movable):
                events.append(("free", pfn, order))

        pools = make_pools()
        pools.add_listener(Listener())
        pfn = pools.alloc(0, node=1)
        pools.free(pfn)
        assert ("alloc", pfn, 0) in events and ("free", pfn, 0) in events
        assert pfn >= pools.node_bounds(1)[0]  # global, not pool-local


class TestObservability:
    def test_single_node_registry_matches_flat_allocator(self):
        """nodes=1 is the zero-cost wrapper: same metrics, byte for byte."""
        obs_flat, obs_numa = Observability(), Observability()
        flat = BuddyAllocator(TOTAL, MAX_ORDER, obs=obs_flat)
        pools = make_pools(nodes=1, obs=obs_numa)
        for order in (0, 3, MAX_ORDER, 2):
            assert flat.alloc(order) == pools.alloc(order)
        flat.free(0)
        pools.free(0)
        assert obs_flat.metrics.snapshot() == obs_numa.metrics.snapshot()

    def test_only_the_facade_collects_the_buddy_gauges(self):
        """The pools' own gauge collectors would only be overwritten."""
        obs = Observability()
        pools = make_pools(obs=obs)
        owners = [getattr(fn, "__self__", None) for fn in obs.metrics._collectors]
        assert pools in owners
        assert not any(pool in owners for pool in pools.pools)

    def test_local_remote_counters_track_placement(self):
        obs = Observability()
        pools = make_pools(obs=obs)
        per_node_blocks = (TOTAL // NODES) >> MAX_ORDER
        for _ in range(per_node_blocks):
            pools.alloc(MAX_ORDER, node=0)
        pools.alloc(0, node=0)  # spills to node 1
        assert obs.metrics.value("numa_alloc_local_total") == per_node_blocks
        assert obs.metrics.value("numa_alloc_remote_total") == 1

    def test_per_node_gauges_only_exist_multi_node(self):
        obs = Observability()
        pools = make_pools(obs=obs)
        pools.alloc(MAX_ORDER, node=1)
        obs.metrics.collect()
        assert obs.metrics.value("numa_node_free_frames", node=0) == TOTAL // 2
        assert (
            obs.metrics.value("numa_node_free_frames", node=1)
            == TOTAL // 2 - (1 << MAX_ORDER)
        )
        assert obs.metrics.value("buddy_free_frames") == pools.free_frames
        single = Observability()
        make_pools(nodes=1, obs=single).alloc(0)
        single.metrics.collect()
        gauges = single.metrics.snapshot()["gauges"]
        assert not any(name.startswith("numa_") for name in gauges)

    def test_node_fmfi_reflects_per_node_fragmentation(self):
        pools = make_pools()
        # Node 1 pristine -> fully defragmented at the max order.
        assert pools.node_fmfi(1) == 0.0
        # Carve node 0 into base pages and free every other one: its
        # contiguity dies while node 1's index stays at zero.
        lo, hi = pools.node_bounds(0)
        for pfn in range(lo, hi):
            pools.alloc_at(pfn, 0)
        for pfn in range(lo, hi, 2):
            pools.free(pfn)
        assert pools.node_fmfi(0) == 1.0
        assert pools.node_fmfi(1) == 0.0
