"""Process virtual address spaces: VMAs and a first-fit mmap allocator.

An :class:`AddressSpace` models what matters for large-page mappability: the
set of mapped virtual ranges (VMAs) and how a workload's allocation pattern
fragments them.  Two behaviours in the paper hinge on this layer:

* pre-allocating workloads (XSBench, GUPS, Graph500) mmap a few huge ranges,
  so most of their space is 1GB-mappable from the first fault;
* incremental allocators (Redis, Memcached, SVM, Btree) grow their heap in
  small steps and interleave frees, so ranges end up misaligned/short and
  only promotion (or nothing) can ever give them 1GB pages.

The allocator is deliberately glibc/mmap-like: a linear top pointer plus
first-fit reuse of munmapped holes, with caller-controlled alignment —
base-page alignment by default, like real ``mmap``, which is exactly why
1GB-mappable ranges are scarcer than 2MB-mappable ones.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.config import PageGeometry


@dataclass(frozen=True)
class VMA:
    """One mapped virtual range, [start, end) in bytes."""

    start: int
    end: int
    name: str = "anon"

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad VMA range [{self.start:#x}, {self.end:#x})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


@dataclass
class _Hole:
    start: int
    end: int


class AddressSpace:
    """A process's virtual address space with an mmap-like allocator."""

    #: Default base of the mmap area (arbitrary, x86_64-flavoured).
    MMAP_BASE = 0x7000_0000_0000

    def __init__(self, geometry: PageGeometry, mmap_base: int | None = None) -> None:
        self.geometry = geometry
        base = self.MMAP_BASE if mmap_base is None else mmap_base
        if base % geometry.base_size:
            raise ValueError("mmap_base must be base-page aligned")
        self._top = base
        self._starts: list[int] = []  # sorted VMA start addresses
        self._vmas: dict[int, VMA] = {}
        self._holes: list[_Hole] = []  # sorted by start
        #: merged extents and their starts, rebuilt lazily after mmap/munmap
        self._extents: list[VMA] | None = None
        self._extent_starts: list[int] = []

    # -- queries ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._vmas)

    def iter_vmas(self) -> list[VMA]:
        """All VMAs in address order."""
        return [self._vmas[s] for s in self._starts]

    def find_vma(self, addr: int) -> VMA | None:
        """The VMA containing ``addr``, or None."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i < 0:
            return None
        vma = self._vmas[self._starts[i]]
        return vma if vma.contains(addr) else None

    @property
    def mapped_bytes(self) -> int:
        return sum(v.length for v in self._vmas.values())

    def iter_extents(self) -> list[VMA]:
        """Maximal runs of adjacent same-name VMAs, as synthetic VMAs.

        Linux merges adjacent anonymous mappings into one VMA; an
        incrementally-grown heap is therefore *one* range for mappability
        purposes even though it was built from many small mmaps.  We keep
        the individual VMAs (so munmap of an original allocation stays
        trivial) and expose the merged view here — this is the view the
        fault handler and khugepaged scan.  Returns a fresh list.
        """
        return list(self._merged_extents())

    def extent_of(self, addr: int) -> VMA | None:
        """The merged extent containing ``addr``, or None.

        None exactly when :meth:`find_vma` is None: extents tile the VMAs.
        """
        extents = self._merged_extents()
        i = bisect.bisect_right(self._extent_starts, addr) - 1
        if i < 0:
            return None
        extent = extents[i]
        return extent if addr < extent.end else None

    def _merged_extents(self) -> list[VMA]:
        """The cached merged view; only mmap and munmap invalidate it."""
        extents = self._extents
        if extents is None:
            extents = []
            for vma in self.iter_vmas():
                if (
                    extents
                    and extents[-1].end == vma.start
                    and extents[-1].name == vma.name
                ):
                    extents[-1] = VMA(extents[-1].start, vma.end, vma.name)
                else:
                    extents.append(vma)
            self._extents = extents
            self._extent_starts = [e.start for e in extents]
        return extents

    # -- mmap/munmap ----------------------------------------------------------
    def mmap(
        self,
        length: int,
        name: str = "anon",
        align: int | None = None,
        fixed_at: int | None = None,
    ) -> VMA:
        """Map ``length`` bytes; returns the new VMA.

        ``length`` is rounded up to a whole number of base pages.  ``align``
        (default: base page size) constrains the start address.  ``fixed_at``
        places the mapping at an exact address (MAP_FIXED), failing if it
        overlaps an existing VMA.
        """
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        geometry = self.geometry
        length = geometry.align_up(length, 0) if length % geometry.base_size else length
        align = align or geometry.base_size
        if align % geometry.base_size:
            raise ValueError("align must be a multiple of the base page size")

        if fixed_at is not None:
            if fixed_at % align:
                raise ValueError(f"fixed_at {fixed_at:#x} not aligned to {align:#x}")
            start = fixed_at
            if self._overlaps(start, start + length):
                raise ValueError(
                    f"MAP_FIXED range [{start:#x}, {start + length:#x}) overlaps"
                )
            self._claim_from_holes(start, start + length)
            if start + length > self._top:
                self._top = start + length
        else:
            start = self._find_free(length, align)
        vma = VMA(start, start + length, name)
        self._insert(vma)
        return vma

    def munmap(self, start: int, length: int | None = None) -> VMA:
        """Unmap the VMA starting exactly at ``start``.

        Partial unmaps are not modelled (workload scripts free whole
        allocations, as ``free``/``munmap`` of an mmapped chunk does).
        Returns the removed VMA; its range becomes a reusable hole.
        """
        vma = self._vmas.get(start)
        if vma is None:
            raise ValueError(f"no VMA starts at {start:#x}")
        if length is not None and length != vma.length:
            raise ValueError(
                f"partial munmap not supported: VMA length {vma.length}, got {length}"
            )
        self._starts.remove(start)
        del self._vmas[start]
        self._extents = None
        self._add_hole(vma.start, vma.end)
        return vma

    # -- internals ------------------------------------------------------------
    def _insert(self, vma: VMA) -> None:
        bisect.insort(self._starts, vma.start)
        self._vmas[vma.start] = vma
        self._extents = None

    def _overlaps(self, start: int, end: int) -> bool:
        i = bisect.bisect_right(self._starts, start) - 1
        if i >= 0 and self._vmas[self._starts[i]].end > start:
            return True
        if i + 1 < len(self._starts) and self._starts[i + 1] < end:
            return True
        return False

    def _find_free(self, length: int, align: int) -> int:
        # First fit among holes, then bump the top pointer.
        for idx, hole in enumerate(self._holes):
            start = -(-hole.start // align) * align  # align up
            if start + length <= hole.end:
                self._consume_hole(idx, start, start + length)
                return start
        start = -(-self._top // align) * align
        self._top = start + length
        return start

    def _add_hole(self, start: int, end: int) -> None:
        # Insert and merge with adjacent holes.
        i = bisect.bisect_left([h.start for h in self._holes], start)
        self._holes.insert(i, _Hole(start, end))
        merged: list[_Hole] = []
        for hole in self._holes:
            if merged and hole.start <= merged[-1].end:
                merged[-1].end = max(merged[-1].end, hole.end)
            else:
                merged.append(hole)
        self._holes = merged

    def _consume_hole(self, idx: int, start: int, end: int) -> None:
        hole = self._holes.pop(idx)
        remnants = []
        if hole.start < start:
            remnants.append(_Hole(hole.start, start))
        if end < hole.end:
            remnants.append(_Hole(end, hole.end))
        for r in reversed(remnants):
            self._holes.insert(idx, r)

    def _claim_from_holes(self, start: int, end: int) -> None:
        for idx, hole in enumerate(self._holes):
            if hole.start <= start and end <= hole.end:
                self._consume_hole(idx, start, end)
                return
        # Range may be beyond the top pointer; nothing to claim then.
