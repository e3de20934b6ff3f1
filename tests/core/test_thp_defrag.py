"""THP defrag modes: deferred vs synchronous fault-time compaction."""

import pytest

from repro.config import default_machine
from repro.core.thp import THPPolicy
from repro.sim.system import System

G = default_machine(16).geometry
BASE, MID = G.base_size, G.mid_size
LVL_BASE, LVL_MID, LVL_LARGE = 0, 1, 2  # geometry level indices


def make(defrag):
    system = System(
        default_machine(24), lambda k: THPPolicy(k, defrag=defrag), seed=4
    )
    return system, system.create_process("t")


class TestDefragModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make("sometimes")

    def test_defer_falls_back_fast_under_fragmentation(self):
        system, p = make("defer")
        system.fragment()
        addr = system.sys_mmap(p, 2 * MID)
        system.policy.handle_fault(p, addr)
        latency = system.policy.stats.fault_latencies[-1]
        # Whatever page size it got, the fault never stalled on compaction:
        # the latency is bounded by the plain fault cost of that size.
        cost = system.cost
        mapping = p.pagetable.translate(addr)
        bound = cost.fault_fixed_ns + cost.zero_ns(G.bytes_for(mapping.page_size))
        assert latency <= bound + 1.0

    def test_always_stalls_but_gets_the_huge_page(self):
        system, p = make("always")
        system.fragment()
        addr = system.sys_mmap(p, 2 * MID)
        system.policy.handle_fault(p, addr)
        latency = system.policy.stats.fault_latencies[-1]
        mapping = p.pagetable.translate(addr)
        if mapping.page_size == LVL_MID:
            # Paid the compaction stall inside the fault.
            assert latency > system.cost.zero_ns(MID)

    def test_always_worsens_tail_vs_defer(self):
        """The Ingens/Quicksilver critique: sync defrag spikes latency."""
        tails = {}
        for mode in ("defer", "always"):
            system, p = make(mode)
            system.fragment()
            worst = 0.0
            for i in range(12):
                addr = system.sys_mmap(p, 2 * MID)
                system.policy.handle_fault(p, addr)
                worst = max(worst, system.policy.stats.fault_latencies[-1])
            tails[mode] = worst
        assert tails["always"] >= tails["defer"]
