"""A simulated process: address space, page table, TLB, touch history.

The process is the unit the OS policies operate on.  ``touched_pages``
records every base page the application has actually written — the ground
truth for memory-bloat accounting (mapped-but-never-touched bytes) and for
HawkEye's bloat recovery.
"""

from __future__ import annotations

from repro.config import PageGeometry
from repro.core.policy import ProcessFrameOwner
from repro.vm.addrspace import AddressSpace
from repro.vm.pagetable import PageTable


class Process:
    """One simulated application process."""

    def __init__(self, pid: int, name: str, geometry: PageGeometry, tlb) -> None:
        self.pid = pid
        self.name = name
        self.geometry = geometry
        self.aspace = AddressSpace(geometry)
        self.pagetable = PageTable(geometry)
        self.tlb = tlb  # a TLBHierarchy; NestedTranslationUnit under virt
        self.frame_owner = ProcessFrameOwner(self)
        self.touched_pages: set[int] = set()  # base VPNs ever accessed
        self.faults = 0
        #: NUMA placement: the node this process's CPU is pinned to, and
        #: the node holding its page tables (first-touch: the boot node,
        #: where the kernel built them — the Mitosis problem statement).
        #: Both stay 0 on single-node machines.
        self.home_node = 0
        self.pt_node = 0

    # -- touch bookkeeping ------------------------------------------------
    def record_touch(self, va: int) -> None:
        self.touched_pages.add(va >> self.geometry.base_shift)

    def touched_base_pages_in(self, va: int, nbytes: int) -> int:
        """How many base pages in [va, va+nbytes) were ever touched."""
        shift = self.geometry.base_shift
        first = va >> shift
        last = (va + nbytes - 1) >> shift
        touched = self.touched_pages
        return sum(1 for vpn in range(first, last + 1) if vpn in touched)

    def touched_base_vas_in(self, va: int, nbytes: int) -> list[int]:
        """Base-page-aligned VAs of touched pages in the range."""
        shift = self.geometry.base_shift
        first = va >> shift
        last = (va + nbytes - 1) >> shift
        touched = self.touched_pages
        return [vpn << shift for vpn in range(first, last + 1) if vpn in touched]

    # -- accounting ------------------------------------------------------------
    @property
    def mapped_bytes(self) -> int:
        return self.pagetable.mapped_bytes()

    @property
    def touched_bytes(self) -> int:
        return len(self.touched_pages) * self.geometry.base_size

    @property
    def bloat_bytes(self) -> int:
        """Bytes mapped by the OS that the application never touched."""
        return max(0, self.mapped_bytes - self.touched_bytes)
