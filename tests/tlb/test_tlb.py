"""Tests for the set-associative TLB and the walk-cost model."""

from dataclasses import replace

import pytest

from repro.config import SCALED_GEOMETRY, TLBConfig, WalkConfig
from repro.tlb.tlb import SetAssocTLB

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)
G = SCALED_GEOMETRY

#: the x86 ladder with uncached leaves, walked at one cycle per memory
#: access with no page-walk-cache hits: its walk tables count accesses
UNCACHED = replace(
    G, levels=tuple(replace(lvl, leaf_cached_prob=0.0) for lvl in G.levels)
)
COUNTING = WalkConfig(mem_access_cycles=1, pwc_hit_rate=0.0, nested_pwc_hit_rate=0.0)


def nested_accesses(guest: int, host: int) -> float:
    return COUNTING.nested_table(UNCACHED)[guest * UNCACHED.n_levels + host]


class TestSetAssocTLB:
    def test_miss_then_hit(self):
        t = SetAssocTLB(TLBConfig(8, 2))
        assert not t.lookup(5)
        t.insert(5)
        assert t.lookup(5)
        assert t.hits == 1
        assert t.misses == 1

    def test_lru_eviction_within_set(self):
        t = SetAssocTLB(TLBConfig(8, 2))  # 4 sets, 2 ways
        # VPNs 0, 4, 8 all map to set 0.
        t.insert(0)
        t.insert(4)
        t.insert(8)  # evicts 0 (LRU)
        assert not t.lookup(0)
        assert t.lookup(4)
        assert t.lookup(8)

    def test_hit_refreshes_lru(self):
        t = SetAssocTLB(TLBConfig(8, 2))
        t.insert(0)
        t.insert(4)
        t.lookup(0)  # 0 becomes MRU, 4 is now LRU
        t.insert(8)  # evicts 4
        assert t.lookup(0)
        assert not t.lookup(4)

    def test_different_sets_do_not_interfere(self):
        t = SetAssocTLB(TLBConfig(8, 2))
        t.insert(0)
        t.insert(1)
        t.insert(2)
        t.insert(3)
        assert all(t.lookup(v) for v in range(4))

    def test_fully_associative(self):
        t = SetAssocTLB(TLBConfig(4, 4))  # the Skylake 1GB L1
        for v in range(4):
            t.insert(v)
        assert t.occupancy == 4
        t.insert(99)  # evicts vpn 0
        assert not t.lookup(0)
        assert t.lookup(99)

    def test_reinsert_does_not_duplicate(self):
        t = SetAssocTLB(TLBConfig(4, 4))
        t.insert(1)
        t.insert(1)
        assert t.occupancy == 1

    def test_invalidate(self):
        t = SetAssocTLB(TLBConfig(4, 4))
        t.insert(3)
        assert t.invalidate(3)
        assert not t.invalidate(3)
        assert not t.lookup(3)

    def test_flush(self):
        t = SetAssocTLB(TLBConfig(8, 2))
        for v in range(8):
            t.insert(v)
        t.flush()
        assert t.occupancy == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TLBConfig(7, 2)  # entries not multiple of ways
        with pytest.raises(ValueError):
            TLBConfig(0, 1)


class TestWalkConfig:
    def test_native_walk_accesses(self):
        assert COUNTING.native_table(UNCACHED) == (4.0, 3.0, 2.0)

    def test_nested_walk_accesses_match_paper(self):
        # Section 2: 24 accesses for 4K+4K, 15 for 2M+2M, 8 for 1G+1G.
        assert nested_accesses(BASE, BASE) == 24
        assert nested_accesses(MID, MID) == 15
        assert nested_accesses(LARGE, LARGE) == 8

    def test_nested_mixed_sizes(self):
        # 1GB guest over 4KB host: (2+1)*(4+1)-1 = 14.
        assert nested_accesses(LARGE, BASE) == 14

    def test_larger_pages_walk_faster(self):
        c_base, c_mid, c_large = WalkConfig().native_table(G)
        assert c_base > c_mid > c_large

    def test_nested_costs_more_than_native(self):
        native = WalkConfig().native_table(G)
        nested = WalkConfig().nested_table(G)
        for level in G.all_levels:
            assert nested[level * G.n_levels + level] > native[level]

    def test_pwc_discount(self):
        hot = WalkConfig(pwc_hit_rate=1.0).native_table(G)
        cold = WalkConfig(pwc_hit_rate=0.0).native_table(G)
        # Perfect PWC: only the leaf access remains.
        assert hot[BASE] == WalkConfig().mem_access_cycles
        assert cold[BASE] == 4 * WalkConfig().mem_access_cycles
