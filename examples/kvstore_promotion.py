"""Watch khugepaged promote an incrementally-grown key-value store heap.

Redis grows its heap slab by slab while inserting keys, so the page-fault
handler never sees a 1GB-mappable range (Table 3: 0 GB from faults alone).
This example shows the other half of Trident: the background daemon scans
the merged heap extent, finds 1GB-mappable ranges mapped with smaller
pages, and promotes them — while the "application" keeps serving requests
whose tail latency we sample (Table 5's property: promotion stays off the
request path).

    python examples/kvstore_promotion.py
"""

import numpy as np

from repro.config import SCALE_FACTOR, default_machine
from repro.core.trident import TridentPolicy
from repro.sim.system import System
from repro.workloads.registry import get_workload


def gb(nbytes: int) -> float:
    return nbytes * SCALE_FACTOR / (1 << 30)


def main() -> None:
    workload = get_workload("Redis")
    regions = int(workload.footprint_bytes * 1.6) // default_machine(1).geometry.large_size
    system = System(default_machine(regions), TridentPolicy, seed=1)
    process = system.create_process("redis")
    large, mid = system.geometry.top_level, system.geometry.thp_level

    class API:
        rng = np.random.default_rng(1)

        def mmap(self, nbytes, kind="heap"):
            return system.sys_mmap(process, nbytes, kind)

        def munmap(self, addr):
            system.sys_munmap(process, addr)

        def touch(self, addresses):
            system.touch_batch(process, addresses)

        def phase(self, label):
            pass

    api = API()
    print("insert phase (incremental heap growth) ...")
    workload.setup(api)
    mapped = system.mapped_bytes_by_size(process)
    print(
        f"after inserts:   1GB-mapped {gb(mapped[large]):6.1f} GB   "
        f"2MB-mapped {gb(mapped[mid]):6.1f} GB   "
        f"(faults alone cannot use 1GB pages here)"
    )

    print("\nserving requests while khugepaged promotes in the background ...")
    stream = workload.access_stream(api, 40_000)
    stats = process.tlb.stats
    for step, chunk in enumerate(np.array_split(stream, 8)):
        c0, w0 = stats.translation_cycles, stats.accesses
        system.touch_batch(process, chunk)
        # An idle gap between request bursts: khugepaged gets real CPU time
        # (a 1GB-class promotion costs ~600 ms of copying).
        system.settle(3, budget_ns=1e9)
        mapped = system.mapped_bytes_by_size(process)
        cpa = (stats.translation_cycles - c0) / max(stats.accesses - w0, 1)
        print(
            f"  step {step}: 1GB {gb(mapped[large]):6.1f} GB | "
            f"2MB {gb(mapped[mid]):6.1f} GB | "
            f"translation {cpa:6.1f} cyc/access"
        )

    promoted = system.policy.stats.promoted
    print(
        f"\npromotions: {promoted[large]} to 1GB-class, "
        f"{promoted[mid]} to 2MB-class; "
        f"copy traffic {system.policy.stats.promo_copy_bytes >> 20} MB"
    )


if __name__ == "__main__":
    main()
