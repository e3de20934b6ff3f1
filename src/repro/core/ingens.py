"""Ingens (OSDI '16): utilization-threshold huge-page management.

The other software baseline the paper's related-work section leans on
(HawkEye builds on it).  Ingens's central idea: THP's promote-on-one-page
aggressiveness causes bloat and latency spikes, so promote a 2MB region
only once a *utilization threshold* of its base pages is actually present
(Linux's ``max_ptes_none`` turned from 511 into a policy), and decay-track
access frequency so cold regions are not promoted at all.

Implemented as a THP subclass with FreeBSD-style conservatism: faults map
base pages only (no synchronous 2MB allocation), and the asynchronous
promoter requires both utilization and recency.  Included for completeness
of the software-baselines taxonomy and for the bloat comparison bench:
Ingens trades TLB coverage for near-zero bloat, sitting between 4KB and
THP on coverage and below both THP and Trident on bloat.
"""

from __future__ import annotations

from repro.core.thp import THPPolicy
from repro.vm.pagetable import Mapping


class IngensPolicy(THPPolicy):
    """Conservative faults + 90%-utilization async promotion with decay."""

    name = "Ingens"
    #: fraction of a 2MB region's base pages that must be present (Ingens's
    #: default utilization threshold is 90%)
    min_present_fraction_mid = 0.90
    #: regions must also look recently used: minimum fraction of present
    #: pages with their access bit set at scan time
    min_accessed_fraction = 0.5

    def handle_fault(self, process, va: int) -> Mapping:
        """FreeBSD-style conservative fault: always base pages."""
        vma = process.aspace.find_vma(va)
        if vma is None:
            raise ValueError(f"fault at unmapped va {va:#x} (no VMA)")
        return self._map_base_fault(process, va)

    def _slot_contents(self, process, va: int, page_size: int):
        present = super()._slot_contents(process, va, page_size)
        if present is None or page_size != self.kernel.geometry.thp_level:
            return present
        accessed = sum(1 for m in present if m.accessed)
        if accessed < self.min_accessed_fraction * len(present):
            # Cold region: skip, but clear the bits so the next scan sees
            # fresh activity (Ingens's per-scan decay).
            for m in present:
                m.accessed = False
            return None
        return present
