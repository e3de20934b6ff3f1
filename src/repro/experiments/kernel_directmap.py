"""Section 4.3's side study: 1GB pages for the kernel's direct map.

"The kernel direct maps entire physical memory with the largest page size
... Using OS intensive workloads (e.g., apache web server and filebench),
we found that 1GB pages improve kernel's performance by 2-3% over 2MB
pages."

The kernel's direct map covers all physical memory, so its TLB behaviour is
pure address arithmetic over physical addresses — no OS policy involved.
This experiment models an OS-intensive workload (filebench/apache-style:
page-cache lookups, dentry/inode walks, skb buffers) as a random-ish access
stream over the direct map and measures kernel-side walk cycles with the
direct map built from 2MB vs 1GB pages.
"""

from __future__ import annotations

import numpy as np

from repro.config import default_machine
from repro.experiments.report import print_and_save
from repro.tlb.hierarchy import TLBHierarchy
from repro.vm.pagetable import PageTable
from repro.workloads import access

#: kernel cycles per direct-map access that are NOT translation: syscall
#: entry/exit, locking, copies, softirq work.  Kernel code is mostly not
#: TLB-bound, which is why the paper's direct-map gain is only 2-3%.
KERNEL_CPI = 800.0

CSV_NAME = "kernel_directmap"
TITLE = "Section 4.3: kernel direct map with 2MB vs 1GB pages (paper: 2-3%)"
QUICK_KWARGS = {"memory_regions": 64, "n_accesses": 20_000}


def run(
    memory_regions: int = 192,
    n_accesses: int = 120_000,
    seed: int = 7,
) -> list[dict]:
    machine = default_machine(memory_regions)
    geometry = machine.geometry
    total = machine.total_bytes
    rng = np.random.default_rng(seed)
    # The access stream: page-cache radix lookups (zipf over file pages),
    # inode/dentry chases (uniform over slab areas), skb/ring buffers
    # (sequential).  All physical addresses under the direct map.
    stream = access.mixture(
        rng,
        [
            (0.55, access.zipf(rng, 0, int(total * 0.7), n_accesses, alpha=1.35)),
            (0.30, access.uniform(rng, int(total * 0.7), int(total * 0.25), n_accesses // 2)),
            (0.15, access.sequential(int(total * 0.95), int(total * 0.05), n_accesses // 2, stride=256)),
        ],
        n_accesses,
    )
    rows = []
    directmap_levels = (geometry.thp_level, geometry.top_level)
    for size in directmap_levels:
        label = f"{geometry.label_for(size)} direct map"
        table = PageTable(geometry)
        step = geometry.bytes_for(size)
        for pa in range(0, total, step):
            table.map_page(pa, size, pa // geometry.base_size)
        tlb = TLBHierarchy(machine.walk, geometry)
        for pa in stream:
            mapping = table.translate(int(pa))
            tlb.access(int(pa), mapping)
        stats = tlb.stats
        walk_cpa = stats.walk_cycles / stats.accesses
        kernel_cycles = KERNEL_CPI + stats.translation_cycles / stats.accesses
        rows.append(
            {
                "direct_map": label,
                "walks_per_access": stats.walks_per_access,
                "walk_cycles_per_access": walk_cpa,
                "kernel_cycles_per_access": kernel_cycles,
            }
        )
    mid, large = rows
    gain = (
        mid["kernel_cycles_per_access"] / large["kernel_cycles_per_access"] - 1
    ) * 100
    rows.append(
        {
            "direct_map": "1GB vs 2MB kernel speedup (%)",
            "walks_per_access": "",
            "walk_cycles_per_access": "",
            "kernel_cycles_per_access": gain,
        }
    )
    return rows


def main(quick: bool = False, seed: int = 7) -> None:
    rows = run(seed=seed, **(QUICK_KWARGS if quick else {}))
    print_and_save(rows, CSV_NAME, TITLE)


if __name__ == "__main__":
    main()
