"""The explicit-request mechanism: ``madvise(MADV_HUGEPAGE)`` and friends.

Section 2 of the paper lists three OS mechanisms for large pages:
pre-allocation (hugetlbfs), *explicit system calls* (madvise / mmap flags),
and fully transparent allocation (THP/Trident).  This module supplies the
middle one: a policy that behaves like THP-with-madvise=madvise mode —
large pages only on ranges the application explicitly marked.

It exists for completeness of the Background section's taxonomy and for
ablations: comparing Trident against an oracle that marks exactly the
TLB-hot ranges shows how much of Trident's win is "transparency reaching
ranges nobody thought to annotate" (e.g. the stack).
"""

from __future__ import annotations

import bisect

from repro.core.trident import TridentPolicy
from repro.vm.pagetable import Mapping

#: madvise advice values (mirroring Linux's)
MADV_HUGEPAGE = 14
MADV_NOHUGEPAGE = 15


class MadvisePolicy(TridentPolicy):
    """All Trident mechanics, but only inside MADV_HUGEPAGE-marked ranges.

    Unmarked ranges always take base pages, at fault and at promotion time
    — exactly Linux's ``transparent_hugepage=madvise`` mode, extended to
    1GB the way Trident extends THP.
    """

    name = "Trident-madvise"

    def __init__(self, kernel, **kwargs) -> None:
        super().__init__(kernel, **kwargs)
        # pid -> sorted list of (start, end) advised ranges
        self._advised: dict[int, list[tuple[int, int]]] = {}

    # -- the syscall ---------------------------------------------------------
    def sys_madvise(self, process, addr: int, length: int, advice: int) -> None:
        """Mark or unmark [addr, addr+length) for huge-page use."""
        if advice not in (MADV_HUGEPAGE, MADV_NOHUGEPAGE):
            raise ValueError(f"unsupported madvise advice {advice}")
        ranges = self._advised.setdefault(process.pid, [])
        if advice == MADV_HUGEPAGE:
            bisect.insort(ranges, (addr, addr + length))
            self._coalesce(ranges)
        else:
            self._advised[process.pid] = [
                r for r in ranges if r[1] <= addr or r[0] >= addr + length
            ]

    @staticmethod
    def _coalesce(ranges: list[tuple[int, int]]) -> None:
        merged: list[tuple[int, int]] = []
        for start, end in ranges:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        ranges[:] = merged

    def is_advised(self, process, va: int, nbytes: int = 1) -> bool:
        """True if [va, va+nbytes) lies entirely inside an advised range."""
        ranges = self._advised.get(process.pid, ())
        for start, end in ranges:
            if start <= va and va + nbytes <= end:
                return True
        return False

    # -- policy gates ----------------------------------------------------------
    def handle_fault(self, process, va: int) -> Mapping:
        if not self.is_advised(process, va):
            return self._map_base_fault(process, va)
        return super().handle_fault(process, va)

    def _slot_contents(self, process, va: int, page_size: int):
        nbytes = self.kernel.geometry.bytes_for(page_size)
        if not self.is_advised(process, va, nbytes):
            return None
        return super()._slot_contents(process, va, page_size)
