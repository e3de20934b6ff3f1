"""Page-fault geometry helpers shared by all OS policies.

On a fault at ``va`` the handler must decide which page sizes *could* map the
faulting address: a size is a candidate iff the size-aligned region around
``va`` lies entirely inside the faulting VMA (the paper's two mappability
conditions) and none of that region is already mapped.  The policy layers in
:mod:`repro.core` then pick among the candidates (THP stops at its target
level, Trident prefers the largest declared level, 4KB-only ignores all).
"""

from __future__ import annotations

from repro.config import PageGeometry
from repro.vm.addrspace import VMA
from repro.vm.pagetable import PageTable


def region_fits_vma(va: int, page_size: int, vma: VMA, geometry: PageGeometry) -> bool:
    """True if the ``page_size``-aligned region around ``va`` fits in ``vma``."""
    start = geometry.align_down(va, page_size)
    return start >= vma.start and start + geometry.bytes_for(page_size) <= vma.end


def region_is_unmapped(
    va: int, page_size: int, table: PageTable, geometry: PageGeometry
) -> bool:
    """True if no mapping of any size exists inside the aligned region.

    Cheap: the page table's child counters answer "does this slot contain
    smaller mappings" in O(1); a conflict check covers same/larger sizes.
    """
    start = geometry.align_down(va, page_size)
    if table.translate(start) is not None:
        return False
    if page_size == 0:
        return True
    return not table.children_in_slot(page_size, table.vpn(start, page_size))


def candidate_page_sizes(
    va: int, vma: VMA, table: PageTable, geometry: PageGeometry
) -> list[int]:
    """Levels that could legally map a fresh fault at ``va``, largest first.

    The same list as keeping every level for which :func:`region_fits_vma`
    and :func:`region_is_unmapped` hold, with one page-table probe: a
    mapped ``va`` has no candidates, and when ``va`` is unmapped any
    mapping covering a slot's start is smaller than the slot (a larger
    one would cover ``va`` too), so the slot's child counter decides.
    """
    if table.translate(va) is not None:
        return []
    lo, hi = vma.start, vma.end
    sizes = []
    for size in geometry.levels_desc:
        nbytes = geometry.bytes_for(size)
        start = va - va % nbytes
        if start < lo or start + nbytes > hi:
            continue
        if size and table.children_in_slot(size, table.vpn(va, size)):
            continue
        sizes.append(size)
    return sizes
