"""Tests for the TLB hierarchy and nested translation."""

import os
from dataclasses import replace

import pytest

from repro.config import (
    FREQ_GHZ,
    SCALED_GEOMETRY,
    PageGeometry,
    TLBConfig,
    TLBSection,
    WalkConfig,
)
from repro.geometries import GEOMETRY_PRESETS, load_geometry_json
from repro.obs import Observability
from repro.tlb.hierarchy import TLBHierarchy
from repro.tlb.nested import NestedTranslationUnit
from repro.vm.pagetable import PageTable

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

G = SCALED_GEOMETRY
BASE, MID, LARGE = G.base_size, G.mid_size, G.large_size
LVL_BASE, LVL_MID, LVL_LARGE = 0, 1, 2  # geometry level indices
VA0 = 0x7000_0000_0000

#: the scaled ladder with tiny TLBs: 4KB and 2MB share one small L2
TINY = replace(
    G,
    levels=tuple(
        replace(lvl, tlb=section)
        for lvl, section in zip(
            G.levels,
            (
                TLBSection(TLBConfig(4, 2), "shared"),
                TLBSection(TLBConfig(4, 2), "shared"),
                TLBSection(TLBConfig(2, 2), "large"),
            ),
        )
    ),
    l2_groups=(("shared", TLBConfig(16, 4)), ("large", TLBConfig(4, 2))),
)


def make_hierarchy(geometry=G):
    return TLBHierarchy(WalkConfig(), geometry)


class TestTLBHierarchy:
    def test_first_access_walks_second_hits(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_BASE, 0)
        c1 = h.access(VA0, m)
        c2 = h.access(VA0, m)
        assert c1 > 0
        assert c2 == 0.0
        assert h.stats.walks == 1
        assert h.stats.l1_hits == 1

    def test_access_sets_accessed_bit(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_BASE, 0)
        assert not m.accessed
        h.access(VA0, m)
        assert m.accessed

    def test_l2_hit_cheaper_than_walk(self):
        h = make_hierarchy(TINY)
        t = PageTable(G)
        maps = [t.map_page(VA0 + i * BASE, LVL_BASE, i) for i in range(8)]
        # Touch enough pages in one L1 set's worth to evict from L1 but stay
        # in the bigger L2, then re-touch the first.
        for i, m in enumerate(maps):
            h.access(VA0 + i * BASE, m)
        cost = h.access(VA0, maps[0])
        assert 0 < cost <= WalkConfig().l2_tlb_hit_cycles

    def test_large_pages_cover_more_with_fewer_entries(self):
        h = make_hierarchy(TINY)
        t = PageTable(G)
        m = t.map_page(VA0, LVL_LARGE, 0)
        # Every base page inside one large page hits after the first walk.
        for i in range(20):
            h.access(VA0 + i * BASE, m)
        assert h.stats.walks == 1

    def test_base_mappings_thrash_where_large_do_not(self):
        footprint = 4 * MID
        # Same footprint, base vs large mappings, uniform sweep twice.
        t = PageTable(G)
        h_base = make_hierarchy(TINY)
        maps = {}
        for va in range(VA0, VA0 + footprint, BASE):
            maps[va] = t.map_page(va, LVL_BASE, (va - VA0) // BASE)
        for _ in range(2):
            for va in range(VA0, VA0 + footprint, BASE):
                h_base.access(va, maps[va])
        t2 = PageTable(G)
        h_large = make_hierarchy(TINY)
        m = t2.map_page(VA0, LVL_LARGE, 0)
        for _ in range(2):
            for va in range(VA0, VA0 + footprint, BASE):
                h_large.access(va, m)
        assert h_large.stats.walk_cycles < h_base.stats.walk_cycles / 10

    def test_invalidate_range_forces_rewalk(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_MID, 0)
        h.access(VA0, m)
        h.invalidate_range(VA0, MID)
        c = h.access(VA0, m)
        assert c > 0
        assert h.stats.walks == 2

    def test_flush(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_BASE, 0)
        h.access(VA0, m)
        h.flush()
        assert h.access(VA0, m) > 0

    def test_reset_stats(self):
        h = make_hierarchy()
        t = PageTable(G)
        m = t.map_page(VA0, LVL_BASE, 0)
        h.access(VA0, m)
        h.reset_stats()
        assert h.stats.accesses == 0
        assert h.stats.walk_cycles == 0

    def test_shapes_come_from_the_geometry(self):
        h = make_hierarchy(TINY)
        assert [(t.entries, t.ways) for t in h.l1.values()] == [
            (lvl.tlb.l1.entries, lvl.tlb.l1.ways) for lvl in TINY.levels
        ]
        assert [(name, t.entries, t.ways) for name, t in h.l2.items()] == [
            (name, cfg.entries, cfg.ways) for name, cfg in TINY.l2_groups
        ]
        assert h._l2_by_level[LVL_MID] is h.l2["shared"]

    @pytest.mark.parametrize("preset", sorted(GEOMETRY_PRESETS))
    def test_l2_grouping_is_built_once(self, preset):
        """The batch engine's L1-miss grouping: each structure once, in
        order of its first level, and each level's index into them; the
        nested unit inherits it."""
        g = GEOMETRY_PRESETS[preset].geometry
        host = PageTable(g)
        for h in (
            TLBHierarchy(WalkConfig(), g),
            NestedTranslationUnit(WalkConfig(), g, host),
        ):
            structs = h._l2_structs
            assert len({id(t) for t in structs}) == len(structs)
            assert set(map(id, structs)) == set(map(id, h._l2_by_level))
            assert [
                structs[i] for i in h._l2_index_of_level.tolist()
            ] == h._l2_by_level
            firsts = [h._l2_by_level.index(t) for t in structs]
            assert firsts == sorted(firsts)

    def test_geometry_without_sections_raises(self):
        with pytest.raises(ValueError, match="no per-level TLB sections"):
            TLBHierarchy(WalkConfig(), PageGeometry(12, 4, 10))


class TestNestedTranslation:
    def make_nested(self, guest_size, host_size, obs=None):
        guest_table = PageTable(G)
        host_table = PageTable(G)
        gm = guest_table.map_page(VA0, guest_size, pfn=0)
        # Identity-ish host mapping of the guest-physical range at host_size.
        gpa_len = G.bytes_for(guest_size)
        for gpa in range(0, gpa_len, G.bytes_for(host_size)):
            host_table.map_page(gpa, host_size, pfn=gpa // G.base_size + 1000)
        unit = NestedTranslationUnit(WalkConfig(), TINY, host_table, obs=obs)
        return unit, gm

    def test_nested_walk_cost_ordering(self):
        costs = {}
        for size in (LVL_BASE, LVL_MID, LVL_LARGE):
            unit, gm = self.make_nested(size, size)
            costs[size] = unit.access(VA0, gm)
        assert costs[LVL_BASE] > costs[LVL_MID] > costs[LVL_LARGE]

    def test_effective_size_is_min_of_levels(self):
        # 1GB guest page over 4KB host pages: cached at 4KB granularity, so
        # the next base page misses again.
        unit, gm = self.make_nested(LVL_LARGE, LVL_BASE)
        unit.access(VA0, gm)
        unit.access(VA0 + BASE, gm)
        assert unit.stats.walks == 2
        # 1GB over 1GB: second base page hits.
        unit2, gm2 = self.make_nested(LVL_LARGE, LVL_LARGE)
        unit2.access(VA0, gm2)
        unit2.access(VA0 + BASE, gm2)
        assert unit2.stats.walks == 1

    def test_missing_host_mapping_raises(self):
        guest_table = PageTable(G)
        host_table = PageTable(G)
        gm = guest_table.map_page(VA0, LVL_BASE, pfn=0)
        unit = NestedTranslationUnit(WalkConfig(), TINY, host_table)
        with pytest.raises(LookupError):
            unit.access(VA0, gm)

    def test_sets_access_bits_at_both_levels(self):
        unit, gm = self.make_nested(LVL_MID, LVL_MID)
        unit.access(VA0, gm)
        assert gm.accessed
        hm = unit.host_table.translate(0)
        assert hm.accessed

    def test_invalidate_range(self):
        unit, gm = self.make_nested(LVL_MID, LVL_MID)
        unit.access(VA0, gm)
        unit.invalidate_range(VA0, MID)
        unit.access(VA0, gm)
        assert unit.stats.walks == 2

    def test_reset_stats_clears_unit_and_structures(self):
        unit, gm = self.make_nested(LVL_MID, LVL_BASE)
        unit.access(VA0, gm)
        unit.access(VA0, gm)
        assert unit.stats.walks == 1
        unit.reset_stats()
        assert unit.stats.accesses == 0
        assert unit.stats.walks_by_size == {s: 0 for s in G.all_levels}
        assert (unit.stats.walks, unit.stats.walk_cycles) == (0, 0.0)
        assert all(t.hits == t.misses == 0 for t in unit.l1.values())
        assert all(t.hits == t.misses == 0 for t in unit.l2.values())
        # Cached translations survive: only the counters restart.
        assert unit.access(VA0, gm) == 0.0

    def test_walks_reach_histogram_trace_and_clock(self):
        obs = Observability(trace_subsystems=("tlb",))
        unit, gm = self.make_nested(LVL_LARGE, LVL_MID, obs=obs)
        cycles = unit.access(VA0, gm)
        assert cycles == unit.walk_table[LVL_LARGE * G.n_levels + LVL_MID]
        # The effective size is the 2MB host page, so the walk is filed
        # there, with the 2D walk cost.
        hist = obs.metrics.get("tlb_walk_cycles", size=G.label_for(LVL_MID))
        assert (hist.count, hist.sum, hist.max) == (1, cycles, cycles)
        for level in (LVL_BASE, LVL_LARGE):
            label = G.label_for(level)
            assert obs.metrics.get("tlb_walk_cycles", size=label).count == 0
        walks = list(obs.tracer.events("tlb", "walk"))
        assert [e["size"] for e in walks] == [G.label_for(LVL_MID)]
        # The guest clock is charged the walk alone.
        assert obs.clock.now_ns == cycles / FREQ_GHZ


#: walk key -> cycles tables of the deleted ``PageWalker``
#: (``native_walk_cycles``, ``nested_walk_cycles``), captured as
#: ``float.hex`` before it was removed: native keys are levels, nested
#: keys ``guest * n_levels + host``.  Every unit must keep them bit for bit.
PINNED_WALK_TABLES = {
    "x86": (
        ("0x1.fffffffffffffp+7", "0x1.6666666666666p+6", "0x1.ccccccccccccep+4"),
        (
            "0x1.3333333333336p+8", "0x1.1333333333335p+8", "0x1.e666666666669p+7",
            "0x1.1333333333335p+8", "0x1.8f5c28f5c28f8p+6", "0x1.6666666666668p+6",
            "0x1.e666666666669p+7", "0x1.6666666666668p+6", "0x1.eb851eb851ebbp+4",
        ),
    ),
    "sv-napot": (
        (
            "0x1.fffffffffffffp+7", "0x1.fffffffffffffp+7",
            "0x1.6666666666666p+6", "0x1.ccccccccccccep+4",
        ),
        (
            "0x1.3333333333336p+8", "0x1.3333333333336p+8", "0x1.1333333333335p+8", "0x1.e666666666669p+7",
            "0x1.3333333333336p+8", "0x1.3333333333336p+8", "0x1.1333333333335p+8", "0x1.e666666666669p+7",
            "0x1.1333333333335p+8", "0x1.1333333333335p+8", "0x1.8f5c28f5c28f8p+6", "0x1.6666666666668p+6",
            "0x1.e666666666669p+7", "0x1.e666666666669p+7", "0x1.6666666666668p+6", "0x1.eb851eb851ebbp+4",
        ),
    ),
    "arm16k": (
        ("0x1.fffffffffffffp+7", "0x1.fffffffffffffp+7", "0x1.6666666666666p+6"),
        (
            "0x1.3333333333336p+8", "0x1.3333333333336p+8", "0x1.1333333333335p+8",
            "0x1.3333333333336p+8", "0x1.3333333333336p+8", "0x1.1333333333335p+8",
            "0x1.1333333333335p+8", "0x1.1333333333335p+8", "0x1.8f5c28f5c28f8p+6",
        ),
    ),
    "toy": (
        ("0x1.fffffffffffffp+7", "0x1.c000000000000p+6"),
        (
            "0x1.3333333333336p+8", "0x1.1333333333335p+8",
            "0x1.1333333333335p+8", "0x1.f333333333336p+6",
        ),
    ),
    "x86-5level": (
        ("0x1.2000000000000p+8", "0x1.999999999999ap+6", "0x1.0cccccccccccdp+5"),
        (
            "0x1.799999999999dp+8", "0x1.5333333333336p+8", "0x1.2cccccccccccfp+8",
            "0x1.5333333333336p+8", "0x1.eb851eb851ebcp+6", "0x1.b851eb851eb88p+6",
            "0x1.2cccccccccccfp+8", "0x1.b851eb851eb88p+6", "0x1.2b851eb851ebap+5",
        ),
    ),
}

#: case -> (geometry preset or JSON file, levels_base)
PINNED_CASES = {
    "x86": ("x86", 4),
    "sv-napot": ("sv-napot", 4),
    "arm16k": ("arm16k", 4),
    "toy": (os.path.join(ROOT, "examples", "toy_geometry.json"), 4),
    "x86-5level": ("x86", 5),
}


def pinned_machine(case):
    """(walk config, geometry) a run of ``case`` builds its units from."""
    ref, levels_base = PINNED_CASES[case]
    preset = GEOMETRY_PRESETS.get(ref) or load_geometry_json(ref)
    machine = preset.machine(4)
    return replace(machine.walk, levels_base=levels_base), machine.geometry


@pytest.mark.parametrize("case", sorted(PINNED_WALK_TABLES))
def test_walk_tables_equal_the_walker(case):
    """Both units' tables hold the pinned walker floats bit for bit, as
    Python floats."""
    walk, geometry = pinned_machine(case)
    native_hex, nested_hex = PINNED_WALK_TABLES[case]
    native = TLBHierarchy(walk, geometry)
    nested = NestedTranslationUnit(walk, geometry, host_table=PageTable(geometry))
    assert [c.hex() for c in native.walk_table] == list(native_hex)
    assert [c.hex() for c in nested.walk_table] == list(nested_hex)
    assert {type(c) for c in native.walk_table + nested.walk_table} == {float}
    assert native.walk_charge == walk.l2_tlb_hit_cycles
    assert nested.walk_charge == 0


@pytest.mark.parametrize("case", sorted(PINNED_WALK_TABLES))
def test_scalar_access_charges_the_walk_table(case):
    """A cold access walks for exactly its table entry: every native
    level, every (guest, host) pair."""
    walk, geometry = pinned_machine(case)
    native_hex, nested_hex = PINNED_WALK_TABLES[case]
    levels = geometry.all_levels
    for level in levels:
        unit = TLBHierarchy(walk, geometry)
        mapping = PageTable(geometry).map_page(VA0, level, 0)
        cycles = unit.access(VA0, mapping)
        assert type(cycles) is float and cycles.hex() == native_hex[level]
        assert unit.stats.walk_cycles == cycles
    for guest in levels:
        for host in levels:
            host_table = PageTable(geometry)
            host_bytes = geometry.bytes_for(host)
            for gpa in range(0, geometry.bytes_for(guest), host_bytes):
                host_table.map_page(gpa, host, gpa // geometry.base_size)
            unit = NestedTranslationUnit(walk, geometry, host_table)
            mapping = PageTable(geometry).map_page(VA0, guest, 0)
            cycles = unit.access(VA0, mapping)
            key = guest * geometry.n_levels + host
            assert type(cycles) is float and cycles.hex() == nested_hex[key]
            assert unit.stats.walks_by_size[min(guest, host)] == 1


@pytest.mark.parametrize("preset", ["sv-napot", "arm16k"])
def test_units_take_walk_facts_from_the_geometry(preset):
    """A unit built from a bare WalkConfig walks the geometry's ladder, not
    the x86 one: the per-level facts live only on the geometry."""
    machine = GEOMETRY_PRESETS[preset].machine(4)
    geometry = machine.geometry
    native_hex, nested_hex = PINNED_WALK_TABLES[preset]
    bare = TLBHierarchy(WalkConfig(), geometry)
    built = TLBHierarchy(machine.walk, geometry)
    assert list(bare.walk_table) == list(built.walk_table)
    assert [c.hex() for c in bare.walk_table] == list(native_hex)
    bare = NestedTranslationUnit(WalkConfig(), geometry, PageTable(geometry))
    built = NestedTranslationUnit(machine.walk, geometry, PageTable(geometry))
    assert list(bare.walk_table) == list(built.walk_table)
    assert [c.hex() for c in bare.walk_table] == list(nested_hex)
