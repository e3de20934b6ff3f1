"""Guest/host composition: a virtual machine running a guest OS policy.

Two complete systems are stacked, as in the paper's virtualized evaluation:

* the **host** runs its own memory policy (THP / HawkEye / Trident) over
  host physical memory and backs the VM's guest-physical range (EPT page
  sizes = whatever the host policy maps the VM's allocation with);
* the **guest** runs its own policy over guest-physical memory (gPA), with
  its own buddy allocator, compactors and daemons — Trident deployed in the
  guest manages gVA -> gPA page sizes.

Guest processes translate through a :class:`NestedTranslationUnit`, so each
access pays for the effective page size min(guest, host) and 2D walk costs.
The unit instruments itself against the guest's observability, as native
TLBs do: it charges the guest clock and records walk histograms and trace
events.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.sim import batch
from repro.sim.batch import Segment, TouchResult, frame_addresses
from repro.sim.process import Process
from repro.sim.system import System
from repro.tlb.nested import NestedTranslationUnit
from repro.virt.hypervisor import Hypervisor


class GuestSystem(System):
    """A System whose physical memory is the VM's guest-physical range."""

    def __init__(
        self,
        machine: MachineConfig,
        policy_factory,
        hypervisor: Hypervisor,
        seed: int = 0,
        host_daemon_share: float = 0.5,
        **kwargs,
    ) -> None:
        self.hypervisor = hypervisor  # needed by create_process during boot
        self.host_daemon_share = host_daemon_share
        super().__init__(machine, policy_factory, seed=seed, **kwargs)

    def create_process(self, name: str = "app") -> Process:
        tlb = NestedTranslationUnit(
            self.machine.walk,
            self.geometry,
            host_table=self.hypervisor.host_table,
            hva_base=self.hypervisor.hva_base,
            obs=self.obs,
        )
        process = Process(self._next_pid, name, self.geometry, tlb)
        self._next_pid += 1
        self.processes.append(process)
        return process

    # Same body as System.touch, but defined on this class: the per-layer
    # timer in benchmarks/perf/layer_timer.py patches GuestSystem.touch
    # where it is defined, so it must be in this class's own namespace.
    def touch(self, process: Process, va: int) -> TouchResult:
        """Guest load/store: guest fault, then EPT fault, then nested TLB.

        Returns the same frozen :class:`TouchResult` record as
        :meth:`System.touch`, with the nested unit's 2D-walk cycles.
        """
        return TouchResult(*self._touch(process, va))

    def _touch(self, process: Process, va: int) -> tuple[float, bool, int]:
        """:meth:`touch` as a plain ``(cycles, faulted, page_size)`` tuple."""
        mapping = process.pagetable.translate(va)
        faulted = mapping is None
        if faulted:
            mapping = self._fault(process, va)
        gpa = process.tlb.gpa_of(mapping, va)
        self._ensure_backed(gpa)
        process.record_touch(va)
        cycles = process.tlb.access(va, mapping)
        self._accesses_since_daemon += 1
        self._run_due_daemons()
        return cycles, faulted, mapping.page_size

    def _run_due_daemons(self) -> bool:
        if not super()._run_due_daemons():
            return False
        # The host's daemons (khugepaged etc. in the hypervisor) run on
        # host CPUs; give them a share of the same cadence.
        self.hypervisor.host.run_daemons(
            self.daemon_budget_ns * self.host_daemon_share
        )
        return True

    def _batch_segment(self, process: Process, vas) -> Segment:
        """Guest walk, each access's gPA, then the EPT walk over its hVA.

        The segment ends at the first guest fault or the first gPA the
        host has not backed, whichever comes first; :meth:`touch` handles
        that access.  Committed accesses touch the host's backing pages
        and set both tables' accessed bits, as the scalar path does.
        """
        hv = self.hypervisor
        # Looked up on the module, as System does: a wrapper installed
        # there (benchmarks/perf/layer_timer.py) sees both walks.
        sizes, fault_at, mapped_vpns = batch.translate_segment(
            process.pagetable, vas
        )
        stop = len(vas) if fault_at is None else fault_at
        hvas = hv.hvas(frame_addresses(process.pagetable, vas[:stop], sizes[:stop]))
        host_sizes, unbacked_at, host_vpns = batch.translate_segment(
            hv.host_table, hvas
        )
        levels, keys = process.tlb.walk_keys(sizes[:stop], host_sizes)
        return Segment(
            levels,
            keys,
            fault_at if unbacked_at is None else unbacked_at,
            [
                (process, vas, sizes, mapped_vpns),
                (hv.vm_process, hvas, host_sizes, host_vpns),
            ],
        )

    def _ensure_backed(self, gpa: int) -> None:
        """EPT-populate ``gpa``, charging host fault time to the guest axis.

        The host system runs on its own (private) clock, so the host-side
        fault nanoseconds — which stall the guest exactly like a guest
        fault — are re-charged here as an ``ept_fault`` span on the
        guest's timeline.
        """
        ept_ns = self.hypervisor.ensure_backed(gpa)
        if ept_ns > 0.0:
            self.obs.clock.advance(ept_ns)
            spans = self.obs.spans
            if spans.enabled:
                spans.record_complete("ept_fault", ept_ns)


class VirtualMachine:
    """One VM: a host system, a hypervisor view, and a guest system."""

    def __init__(
        self,
        guest_machine: MachineConfig,
        host_machine: MachineConfig,
        guest_policy_factory,
        host_policy_factory,
        seed: int = 0,
        guest_daemon_budget_ns: float = 2_000_000.0,
        guest_obs=None,
    ) -> None:
        if host_machine.total_bytes < guest_machine.total_bytes:
            raise ValueError("host memory must be at least the guest's size")
        self.host = System(host_machine, host_policy_factory, seed=seed)
        self.hypervisor = Hypervisor(self.host, guest_machine.total_bytes)
        self.guest = GuestSystem(
            guest_machine,
            guest_policy_factory,
            self.hypervisor,
            seed=seed + 1,
            daemon_budget_ns=guest_daemon_budget_ns,
            obs=guest_obs,
        )

    def create_guest_process(self, name: str = "app") -> Process:
        return self.guest.create_process(name)

    def settle(self, max_ticks: int = 400) -> None:
        """Let both levels' daemons converge."""
        self.guest.settle_until_quiet(max_ticks=max_ticks)
        self.host.settle_until_quiet(max_ticks=max_ticks)

    @property
    def total_fault_ns(self) -> float:
        """Guest faults + EPT faults, both on the guest's critical path."""
        return self.guest.policy.stats.fault_ns + self.host.policy.stats.fault_ns
