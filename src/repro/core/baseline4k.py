"""The 4KB-only baseline: every fault maps exactly one base page.

This is Linux with THP disabled — the ``4KB`` bars of Figures 1 and 2.
"""

from __future__ import annotations

from repro.core.policy import MemoryPolicy
from repro.vm.pagetable import Mapping


class Baseline4KPolicy(MemoryPolicy):
    """No large pages, no promotion, no compaction."""

    name = "4KB"

    def handle_fault(self, process, va: int) -> Mapping:
        vma = process.aspace.find_vma(va)
        if vma is None:
            raise ValueError(f"fault at unmapped va {va:#x} (no VMA)")
        return self._map_base_fault(process, va)
