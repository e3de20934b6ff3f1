"""Property-based tests for the page table, address space and mappability."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.config import SCALED_GEOMETRY
from repro.geometries import GEOMETRY_PRESETS
from repro.vm.addrspace import VMA, AddressSpace
from repro.vm.fault import candidate_page_sizes, region_fits_vma, region_is_unmapped
from repro.vm.mappability import mappable_bytes, mappable_ranges
from repro.vm.pagetable import MappingConflictError, PageTable

G = SCALED_GEOMETRY
BASE, MID, LARGE = G.base_size, G.mid_size, G.large_size
LVL_BASE, LVL_MID, LVL_LARGE = 0, 1, 2  # geometry level indices
VA0 = 0x7000_0000_0000

page_specs = st.lists(
    st.tuples(st.integers(0, 63), st.sampled_from((LVL_BASE, LVL_MID, LVL_LARGE))),
    min_size=1,
    max_size=40,
)


@given(page_specs)
@settings(max_examples=60)
def test_pagetable_mappings_never_overlap(specs):
    """Whatever map/conflict sequence runs, accepted mappings are disjoint."""
    table = PageTable(G)
    accepted = []
    for slot, size in specs:
        va = VA0 + slot * MID
        va = G.align_down(va, size)
        try:
            table.map_page(va, size, pfn=slot)
            accepted.append((va, G.bytes_for(size)))
        except MappingConflictError:
            continue
    # Disjointness check over accepted intervals.
    accepted.sort()
    for (s1, l1), (s2, _) in zip(accepted, accepted[1:]):
        assert s1 + l1 <= s2
    # Every accepted byte translates to exactly its own mapping.
    for start, length in accepted:
        m = table.translate(start)
        assert m is not None and m.va == start
        assert table.translate(start + length - 1) is m


@given(page_specs)
@settings(max_examples=40)
def test_pagetable_unmap_restores_translation_holes(specs):
    table = PageTable(G)
    live = {}
    for slot, size in specs:
        va = G.align_down(VA0 + slot * MID, size)
        try:
            table.map_page(va, size, pfn=slot)
            live[va] = size
        except MappingConflictError:
            pass
    for va, size in list(live.items()):
        table.unmap(va, size)
        assert table.translate(va) is None
    assert table.mapped_bytes() == 0


@given(
    st.lists(
        st.integers(1, 8 * MID // BASE),  # lengths in pages
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=60)
def test_mid_mappable_superset_of_large_mappable(lengths):
    """Paper invariant: all 1GB-mappable memory is 2MB-mappable."""
    aspace = AddressSpace(G)
    for pages in lengths:
        aspace.mmap(pages * BASE)
    large = mappable_bytes(aspace, LVL_LARGE)
    mid = mappable_bytes(aspace, LVL_MID)
    assert large <= mid <= aspace.mapped_bytes
    assert large % LARGE == 0
    assert mid % MID == 0


@given(
    st.lists(st.tuples(st.integers(1, 64), st.booleans()), min_size=1, max_size=30),
    st.integers(0, 2**16),
)
@settings(max_examples=40)
def test_addrspace_mmap_munmap_roundtrip(ops, seed):
    import random

    rng = random.Random(seed)
    aspace = AddressSpace(G)
    live = []
    expected = 0
    for pages, do_free in ops:
        vma = aspace.mmap(pages * BASE)
        live.append(vma.start)
        expected += pages * BASE
        if do_free and live:
            start = live.pop(rng.randrange(len(live)))
            removed = aspace.munmap(start)
            expected -= removed.length
        assert aspace.mapped_bytes == expected
    # All live VMAs are disjoint.
    vmas = aspace.iter_vmas()
    for a, b in zip(vmas, vmas[1:]):
        assert a.end <= b.start


@given(st.lists(st.integers(1, 100), min_size=1, max_size=20))
@settings(max_examples=40)
def test_extents_cover_exactly_the_vmas(lengths):
    aspace = AddressSpace(G)
    for pages in lengths:
        aspace.mmap(pages * BASE)
    total_extent = sum(e.length for e in aspace.iter_extents())
    assert total_extent == aspace.mapped_bytes
    # Extents are disjoint, ordered, and non-adjacent (else they'd merge).
    extents = aspace.iter_extents()
    for a, b in zip(extents, extents[1:]):
        assert a.end < b.start or a.name != b.name


@given(st.integers(0, 40), st.sampled_from((LVL_BASE, LVL_MID, LVL_LARGE)))
def test_mappable_ranges_are_aligned_and_inside(pages, size):
    aspace = AddressSpace(G)
    if pages == 0:
        return
    vma = aspace.mmap(pages * BASE)
    for start, end in mappable_ranges(vma, size, G):
        assert start % G.bytes_for(size) == 0
        assert end - start == G.bytes_for(size)
        assert vma.start <= start and end <= vma.end


# -- cached extents against the neighbour walk they replaced ---------------


def _reference_extent_of(aspace, addr):
    """The original extent_of: find the VMA, walk same-name neighbours."""
    vma = aspace.find_vma(addr)
    if vma is None:
        return None
    vmas = aspace.iter_vmas()
    i = vmas.index(vma)
    start, end = vma.start, vma.end
    j = i
    while j > 0 and vmas[j - 1].end == start and vmas[j - 1].name == vma.name:
        start = vmas[j - 1].start
        j -= 1
    j = i
    while (
        j + 1 < len(vmas)
        and vmas[j + 1].start == end
        and vmas[j + 1].name == vma.name
    ):
        end = vmas[j + 1].end
        j += 1
    return VMA(start, end, vma.name)


def _reference_extents(aspace):
    """The original iter_extents: merge adjacent same-name VMAs in order."""
    extents = []
    for vma in aspace.iter_vmas():
        if extents and extents[-1].end == vma.start and extents[-1].name == vma.name:
            extents[-1] = VMA(extents[-1].start, vma.end, vma.name)
        else:
            extents.append(VMA(vma.start, vma.end, vma.name))
    return extents


def _probe_addresses(aspace):
    """Every VMA start and last byte, plus addresses just outside each VMA."""
    addrs = {aspace.MMAP_BASE - 1, aspace.MMAP_BASE}
    for vma in aspace.iter_vmas():
        addrs.update((vma.start - 1, vma.start, vma.end - 1, vma.end))
        addrs.add((vma.start + vma.end) // 2)
    return sorted(a for a in addrs if a >= 0)


def _check_extents(aspace):
    expected = _reference_extents(aspace)
    assert aspace.iter_extents() == expected
    for addr in _probe_addresses(aspace):
        assert aspace.extent_of(addr) == _reference_extent_of(aspace, addr)
        assert (aspace.extent_of(addr) is None) == (aspace.find_vma(addr) is None)


extent_ops = st.lists(
    st.one_of(
        # mmap: pages, name, alignment, MAP_FIXED slot (None = first fit)
        st.tuples(
            st.just("mmap"),
            st.integers(1, 3 * MID // BASE),
            st.sampled_from(("heap", "anon")),
            st.sampled_from((None, MID, LARGE)),
            st.one_of(st.none(), st.integers(0, 64)),
        ),
        st.tuples(st.just("munmap"), st.integers(0, 2**16)),
    ),
    min_size=1,
    max_size=40,
)


@given(extent_ops)
@settings(max_examples=80, deadline=None)
def test_cached_extents_match_the_neighbour_walk(ops):
    """extent_of/iter_extents agree with the uncached algorithm after every
    mmap (first fit, aligned, MAP_FIXED) and every munmap that leaves a
    hole later mmaps reuse."""
    aspace = AddressSpace(G)
    live = []
    for op in ops:
        if op[0] == "mmap":
            _, pages, name, align, fixed_slot = op
            fixed_at = None
            if fixed_slot is not None:
                fixed_at = VA0 + fixed_slot * (align or BASE)
            try:
                vma = aspace.mmap(pages * BASE, name, align=align, fixed_at=fixed_at)
            except ValueError:
                continue  # MAP_FIXED overlap
            live.append(vma.start)
        elif live:
            aspace.munmap(live.pop(op[1] % len(live)))
        _check_extents(aspace)


@given(st.lists(st.integers(1, 64), min_size=1, max_size=20))
@settings(max_examples=30)
def test_mutating_returned_extents_changes_nothing(lengths):
    aspace = AddressSpace(G)
    for i, pages in enumerate(lengths):
        aspace.mmap(pages * BASE, "heap" if i % 3 else "anon")
    before = aspace.iter_extents()
    probes = _probe_addresses(aspace)
    answers = [aspace.extent_of(a) for a in probes]
    returned = aspace.iter_extents()
    returned.clear()
    returned.append(VMA(0, BASE))
    assert aspace.iter_extents() == before
    assert [aspace.extent_of(a) for a in probes] == answers


# -- single-probe fault candidates against the per-level definition --------

CANDIDATE_GEOMETRIES = {
    "x86": G,
    "sv-napot": GEOMETRY_PRESETS["sv-napot"].geometry,
}


@given(
    st.sampled_from(sorted(CANDIDATE_GEOMETRIES)),
    st.lists(
        st.tuples(st.integers(0, 2 * 1024 - 1), st.integers(0, 3)),
        max_size=30,
    ),
    st.integers(0, 2 * 1024 - 1),
    st.integers(0, 4 * 1024),
    st.integers(1, 4 * 1024),
    st.integers(0, 4095),
)
@settings(max_examples=300, deadline=None)
def test_candidate_page_sizes_matches_per_level_checks(
    geometry_name, specs, va_page, vma_lo, vma_pages, offset
):
    """One translate per fault gives the list the per-level checks give,
    for mapped and unmapped va and any VMA bounds."""
    geometry = CANDIDATE_GEOMETRIES[geometry_name]
    table = PageTable(geometry)
    base = geometry.base_size
    for page, level in specs:
        level %= geometry.n_levels
        va = geometry.align_down(page * base, level)
        try:
            table.map_page(va, level, pfn=page)
        except MappingConflictError:
            pass
    va = va_page * base + offset % base
    vma = VMA(vma_lo * base, (vma_lo + vma_pages) * base)
    expected = [
        size
        for size in geometry.levels_desc
        if region_fits_vma(va, size, vma, geometry)
        and region_is_unmapped(va, size, table, geometry)
    ]
    assert candidate_page_sizes(va, vma, table, geometry) == expected
