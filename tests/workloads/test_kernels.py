"""Tests for the structural workload kernels."""

import numpy as np
import pytest

from repro.workloads.kernels import BPlusTree, CSRGraph, HashIndex

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)


class TestBPlusTree:
    def make(self, size=1 << 22, node=256, fanout=16):
        return BPlusTree(0x1000_0000, size, node, fanout)

    def test_levels_are_geometric(self):
        t = self.make()
        for a, b in zip(t.level_sizes, t.level_sizes[1:]):
            assert b == a * t.fanout

    def test_lookup_path_is_root_to_leaf(self):
        t = self.make()
        path = t.lookup_path(12345)
        assert len(path) == t.height
        assert path[0] == t.node_addr(0, 0)  # always starts at the root
        # Addresses descend through disjoint level areas, in order.
        for level, addr in enumerate(path):
            lo = t.node_addr(level, 0)
            hi = t.node_addr(level, t.level_sizes[level] - 1)
            assert lo <= addr <= hi

    def test_same_key_same_path(self):
        t = self.make()
        assert t.lookup_path(99) == t.lookup_path(99)

    def test_different_keys_share_upper_levels(self):
        t = self.make()
        p1, p2 = t.lookup_path(0), t.lookup_path(1)
        assert p1[0] == p2[0]  # same root

    def test_lookup_stream_shape(self):
        t = self.make()
        keys = np.arange(100)
        stream = t.lookup_stream(keys)
        assert len(stream) == 100 * t.height

    def test_addresses_inside_region(self):
        size = 1 << 20
        t = BPlusTree(0x5000, size)
        stream = t.lookup_stream(np.arange(500))
        assert (stream >= 0x5000).all()
        assert (stream < 0x5000 + size).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(0, 100, node_bytes=256)
        with pytest.raises(ValueError):
            BPlusTree(0, 1 << 20, fanout=1)

    def test_root_is_hottest_address(self):
        """The TLB-relevant property: upper levels concentrate accesses."""
        t = self.make()
        rng = np.random.default_rng(0)
        stream = t.lookup_stream(rng.integers(0, 1 << 30, 500))
        addrs, counts = np.unique(stream, return_counts=True)
        assert counts.max() == 500  # the root appears in every lookup
        assert addrs[counts.argmax()] == t.node_addr(0, 0)


class TestCSRGraph:
    def make(self, n=1000, deg=8):
        rng = np.random.default_rng(1)
        return CSRGraph(0x10_0000, 0x100_0000, 0x1000_0000, n, deg, rng)

    def test_row_ptr_monotone(self):
        g = self.make()
        assert (np.diff(g.row_ptr) >= 1).all()

    def test_vertex_step_structure(self):
        g = self.make()
        step = g.vertex_step(5)
        degree = int(g.row_ptr[6] - g.row_ptr[5])
        # 2 row-pointer reads + (edge read + visited touch) per neighbour.
        assert len(step) == 2 + 2 * degree

    def test_bfs_stream_length(self):
        g = self.make()
        stream = g.bfs_stream(5_000)
        assert len(stream) == 5_000

    def test_streams_touch_all_three_arrays(self):
        g = self.make()
        stream = g.bfs_stream(5_000)
        assert ((stream >= 0x10_0000) & (stream < 0x100_0000)).any()  # rows
        assert ((stream >= 0x100_0000) & (stream < 0x1000_0000)).any()  # edges
        assert (stream >= 0x1000_0000).any()  # visited

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            CSRGraph(0, 0, 0, 1, 4, rng)


class TestHashIndex:
    def make(self):
        rng = np.random.default_rng(2)
        return HashIndex(0x1000, 0x10_0000, 0x100_0000, 512, 4096, 1024, rng)

    def test_get_path_shape(self):
        h = self.make()
        path = h.get_path(42)
        assert path[0] == 0x1000 + (42 % 512) * 8  # bucket head first
        assert path[-1] >= 0x100_0000  # value last
        assert 3 <= len(path) <= 6  # head + 1..4 chain entries + value

    def test_get_stream(self):
        h = self.make()
        stream = h.get_stream(np.arange(200))
        assert len(stream) >= 3 * 200

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            HashIndex(0, 0, 0, 0, 1, 64, rng)


class TestStructuralVsStatistical:
    """The validation the kernels exist for: structural streams hit the TLB
    qualitatively like their statistical stand-ins."""

    def test_btree_stream_is_tlb_hostile_like_pointer_chase(self):
        from repro.config import SCALED_GEOMETRY, WalkConfig
        from repro.tlb.hierarchy import TLBHierarchy
        from repro.vm.pagetable import PageTable

        geometry = SCALED_GEOMETRY
        size = 64 << 20  # 64MB of nodes: leaves far exceed TLB reach
        base = 0x7000_0000_0000
        tree = BPlusTree(base, size)
        rng = np.random.default_rng(3)
        stream = tree.lookup_stream(rng.integers(0, 1 << 30, 4_000))

        table = PageTable(geometry)
        for va in range(base, base + size, geometry.base_size):
            table.map_page(va, BASE, (va - base) // geometry.base_size)
        tlb = TLBHierarchy(WalkConfig(), geometry)
        for va in stream:
            tlb.access(int(va), table.translate(int(va)))
        # Leaf visits miss a lot; root/inner hits keep it below uniform.
        miss_rate = tlb.stats.walks / tlb.stats.accesses
        assert 0.05 < miss_rate < 0.8
