"""Property-based tests: the TLB against a reference LRU model."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.config import TLBConfig
from repro.geometries import GEOMETRY_PRESETS
from repro.tlb.hierarchy import TLBHierarchy
from repro.tlb.tlb import SetAssocTLB


class ReferenceLRU:
    """Oracle: per-set LRU lists implemented naively."""

    def __init__(self, sets: int, ways: int):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways

    def lookup(self, vpn: int) -> bool:
        s = self.sets[vpn % len(self.sets)]
        if vpn in s:
            s.remove(vpn)
            s.append(vpn)
            return True
        return False

    def insert(self, vpn: int) -> None:
        s = self.sets[vpn % len(self.sets)]
        if vpn in s:
            s.remove(vpn)
        elif len(s) >= self.ways:
            s.pop(0)
        s.append(vpn)

    def invalidate(self, vpn: int) -> bool:
        s = self.sets[vpn % len(self.sets)]
        if vpn in s:
            s.remove(vpn)
            return True
        return False


ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "insert", "invalidate", "access"]),
        st.integers(0, 63),
    ),
    min_size=1,
    max_size=200,
)


@given(ops, st.sampled_from([(8, 2), (16, 4), (4, 4), (8, 1)]))
@settings(max_examples=80)
def test_tlb_matches_reference_lru(operations, shape):
    entries, ways = shape
    tlb = SetAssocTLB(TLBConfig(entries, ways))
    ref = ReferenceLRU(entries // ways, ways)
    for op, vpn in operations:
        if op == "lookup":
            assert tlb.lookup(vpn) == ref.lookup(vpn)
        elif op == "insert":
            tlb.insert(vpn)
            ref.insert(vpn)
        elif op == "invalidate":
            assert tlb.invalidate(vpn) == ref.invalidate(vpn)
        else:  # access = lookup-then-fill, the hierarchy's pattern
            hit_t = tlb.lookup(vpn)
            hit_r = ref.lookup(vpn)
            assert hit_t == hit_r
            if not hit_t:
                tlb.insert(vpn)
                ref.insert(vpn)
    assert tlb.occupancy == sum(len(s) for s in ref.sets)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
@settings(max_examples=50)
def test_occupancy_never_exceeds_capacity(vpns):
    tlb = SetAssocTLB(TLBConfig(16, 4))
    for vpn in vpns:
        tlb.insert(vpn)
        assert tlb.occupancy <= 16


@given(st.lists(st.integers(0, 30), min_size=1, max_size=100))
@settings(max_examples=50)
def test_hit_rate_monotone_with_capacity(vpns):
    """A strictly larger fully-associative TLB never hits less often."""
    small = SetAssocTLB(TLBConfig(4, 4))
    big = SetAssocTLB(TLBConfig(16, 16))
    hits_small = hits_big = 0
    for vpn in vpns:
        if small.lookup(vpn):
            hits_small += 1
        else:
            small.insert(vpn)
        if big.lookup(vpn):
            hits_big += 1
        else:
            big.insert(vpn)
    assert hits_big >= hits_small


# -- range shootdowns against per-page invalidation -------------------------


def _per_page_invalidate(hierarchy, start, length):
    """The original invalidate_range: probe every page, flush above 4096."""
    for size in range(hierarchy.n_levels):
        shift = hierarchy._shifts[size]
        first = start >> shift
        last = (start + length - 1) >> shift
        structures = (hierarchy.l1[size], hierarchy._l2_by_level[size])
        if last - first + 1 > 4096:
            for s in structures:
                s.flush()
        else:
            for vpn in range(first, last + 1):
                for s in structures:
                    s.invalidate(vpn)


def _contents(hierarchy):
    structures = list(hierarchy.l1.values()) + list(hierarchy.l2.values())
    return [[list(s) for s in t._sets] for t in structures]


SHOOTDOWN_PRESETS = ("x86", "sv-napot")


def _range_pages(preset):
    """Page counts just below, at and above every structure's entry count,
    plus the 4096-page flush threshold."""
    machine = GEOMETRY_PRESETS[preset].machine(4)
    geometry = machine.geometry
    entries = {cfg.entries for _, cfg in geometry.l2_groups}
    entries |= {lvl.tlb.l1.entries for lvl in geometry.levels}
    pages = {4096, 4097}
    for n in entries:
        pages |= {max(1, n - 1), n, n + 1}
    return sorted(pages)


@given(
    st.sampled_from(SHOOTDOWN_PRESETS),
    st.data(),
    st.lists(st.tuples(st.integers(0, 3), st.integers(-300, 5000)), max_size=400),
)
@settings(max_examples=120, deadline=None)
def test_invalidate_range_matches_per_page_invalidation(preset, data, fills):
    """Per set, the entries left behind and their LRU order are the ones
    per-page invalidation leaves, for ranges on both sides of every
    structure's entry count."""
    machine = GEOMETRY_PRESETS[preset].machine(4)
    geometry = machine.geometry
    fast = TLBHierarchy(machine.walk, geometry)
    slow = TLBHierarchy(machine.walk, geometry)
    level = data.draw(st.integers(0, geometry.n_levels - 1))
    pages = data.draw(st.sampled_from(_range_pages(preset)))
    first_page = data.draw(st.integers(0, 64))
    nbytes = geometry.bytes_for(level)
    start, length = first_page * nbytes, pages * nbytes
    for size, offset in fills:
        size %= geometry.n_levels
        # Keys near the range's first vpn at every level, inside and out.
        vpn = max(0, (start >> fast._shifts[size]) + offset)
        for h in (fast, slow):
            h._l2_by_level[size].insert(vpn)
            h.l1[size].insert(vpn)
    assert _contents(fast) == _contents(slow)
    fast.invalidate_range(start, length)
    _per_page_invalidate(slow, start, length)
    assert _contents(fast) == _contents(slow)


def test_invalidate_resident_keeps_lru_order():
    tlb = SetAssocTLB(TLBConfig(16, 8))
    for vpn in (0, 2, 4, 6, 8, 10, 1, 3, 7):
        tlb.insert(vpn)
    tlb.invalidate_resident(2, 6)
    assert [list(s) for s in tlb._sets] == [[0, 8, 10], [1, 7]]
