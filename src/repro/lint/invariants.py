"""Runtime invariant auditing for the simulator core (``--audit``).

The static rules in :mod:`repro.lint.rules` catch convention drift; this
module machine-checks the *dynamic* contracts the simulator's results rest
on, the way ``CONFIG_DEBUG_VM`` turns on ``VM_BUG_ON`` sanity checks in
Linux:

* **buddy free lists** (:func:`check_buddy`) — free blocks aligned,
  in-bounds and non-overlapping; every mergeable buddy pair actually
  merged (eager coalescing); frame states consistent with both free lists
  and live allocations; full coverage of physical memory; and the O(1)
  free-frame gauge equal to the sum over the free lists.
* **region counters** (:func:`check_regions`) — the per-large-region
  free/unmovable counters smart compaction selects by match a ground-truth
  scan of the frame-state array.
* **gPA -> hPA mapping bijectivity** (:func:`check_pv_mappings`) — after
  Trident-pv exchange hypercalls, no host frame backs two guest-physical
  ranges, no mapping points at free host frames, and the host rmap owner
  records still invert every mapping.
* **NUMA pools** (:func:`check_numa_pools`, :func:`check_node_residency`,
  :func:`check_replica_accounting`) — on multi-node machines, each
  node's buddy pool passes the full flat-allocator check over its slice
  of physical memory, per-node totals sum to the facade's, page-table
  residency counters match a ground-truth mapping scan, and replica
  maintenance accounting matches the fault count.

Checks raise :class:`InvariantViolation` (an ``AssertionError`` subclass,
so existing tests that assert on the old inline checks keep passing) and
return the number of elementary checks performed, which the
:class:`InvariantAuditor` feeds into the ``audit_*`` metrics so an audited
sweep can prove the checks ran (``audit_checks > 0`` in
``sweep_metrics.json``).

Audits are *sampled*: the auditor counts buddy alloc/free events from the
listener hooks, but defers the actual audit to a safe checkpoint (fault
boundaries, daemon ticks, the runner's final audit) because listener
callbacks fire mid-update, when the free lists are legitimately
mid-transition.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.mem.frames import FrameState

if TYPE_CHECKING:
    from repro.mem.buddy import BuddyAllocator
    from repro.mem.numa import NumaBuddyPools
    from repro.mem.regions import RegionTracker
    from repro.sim.system import System
    from repro.virt.hypervisor import Hypervisor
    from repro.vm.pagetable import PageTable


class InvariantViolation(AssertionError):
    """A machine-checked simulator invariant does not hold."""


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def check_buddy(buddy: BuddyAllocator) -> int:
    """Audit the buddy allocator's free lists; O(total_frames).

    Returns the number of elementary checks performed; raises
    :class:`InvariantViolation` on the first violation.
    """
    checks = 0
    seen = np.zeros(buddy.total_frames, dtype=bool)
    state = buddy.frame_state
    free_total = 0
    for order in range(buddy.max_order + 1):
        n = 1 << order
        starts = set(buddy.free_block_starts(order))
        for start in sorted(starts):
            checks += 1
            end = start + n
            if start % n:
                _fail(f"free block {start} misaligned for order {order}")
            if end > buddy.total_frames:
                _fail(f"free block [{start}, {end}) out of bounds")
            if seen[start:end].any():
                _fail(f"free block [{start}, {end}) overlaps another chunk")
            seen[start:end] = True
            if (state[start:end] != FrameState.FREE).any():
                _fail(
                    f"free-list block [{start}, {end}) contains frames not "
                    "marked FREE"
                )
            free_total += n
            if order < buddy.max_order:
                checks += 1
                if (start ^ n) in starts:
                    _fail(
                        f"mergeable buddies {min(start, start ^ n)} and "
                        f"{max(start, start ^ n)} both free at order {order} "
                        "were not coalesced"
                    )
    for start, order, movable in buddy.iter_allocations():
        checks += 1
        n = 1 << order
        end = start + n
        if start % n:
            _fail(f"allocation {start} misaligned for order {order}")
        if seen[start:end].any():
            _fail(f"allocation [{start}, {end}) overlaps a free chunk")
        seen[start:end] = True
        want = FrameState.MOVABLE if movable else FrameState.UNMOVABLE
        if (state[start:end] != want).any():
            _fail(
                f"allocated block [{start}, {end}) has frame states "
                f"inconsistent with movable={movable}"
            )
    checks += 2
    if not seen.all():
        orphan = int(np.flatnonzero(~seen)[0])
        _fail(f"frame {orphan} is in neither a free list nor an allocation")
    if free_total != buddy.free_frames:
        _fail(
            f"free-frame gauge {buddy.free_frames} != sum of free lists "
            f"{free_total}"
        )
    return checks


def check_regions(regions: RegionTracker, frame_state: np.ndarray) -> int:
    """Audit the per-region counters against a ground-truth frame scan."""
    per_region = np.asarray(frame_state).reshape(
        regions.n_regions, regions.frames_per_region
    )
    truth_free = (per_region == FrameState.FREE).sum(axis=1)
    truth_unmovable = (per_region == FrameState.UNMOVABLE).sum(axis=1)
    for label, counter, truth in (
        ("free", regions.free_frames, truth_free),
        ("unmovable", regions.unmovable_frames, truth_unmovable),
    ):
        bad = np.flatnonzero(counter != truth)
        if bad.size:
            region = int(bad[0])
            _fail(
                f"region {region}: {label} counter {int(counter[region])} "
                f"!= ground truth {int(truth[region])}"
            )
    return 2 * regions.n_regions


def check_numa_pools(pools: NumaBuddyPools) -> int:
    """Audit the per-node pools behind a :class:`NumaBuddyPools` facade.

    Each node's allocator is checked in full (same invariant set as the
    flat machine, over its local pfn space and its slice of the shared
    frame-state array), then the cross-node accounting: node bounds
    partition physical memory exactly, and the facade's totals equal the
    sum over nodes — the drift the ``--audit`` layer must reject when a
    frame's bookkeeping migrates without its block.
    """
    checks = 0
    per = pools.frames_per_node
    free_total = 0
    frames_total = 0
    for node, pool in enumerate(pools.pools):
        lo, hi = pools.node_bounds(node)
        checks += 1
        if pool.pfn_base != lo or pool.total_frames != hi - lo:
            _fail(
                f"node {node} pool covers [{pool.pfn_base}, "
                f"{pool.pfn_base + pool.total_frames}), expected [{lo}, {hi})"
            )
        checks += 1
        if pool.total_frames != per:
            _fail(
                f"node {node} holds {pool.total_frames} frames, expected "
                f"{per} (capacity must split evenly)"
            )
        checks += check_buddy(pool)
        free_total += pool.free_frames
        frames_total += pool.total_frames
    checks += 2
    if frames_total != pools.total_frames:
        _fail(
            f"per-node capacities sum to {frames_total}, facade says "
            f"{pools.total_frames}"
        )
    if free_total != pools.free_frames:
        _fail(
            f"per-node free frames sum to {free_total}, facade says "
            f"{pools.free_frames}"
        )
    return checks


def check_node_residency(
    pagetable: PageTable, node_of, nodes: int
) -> int:
    """Audit a page table's incremental per-node residency counters.

    Recomputes the per-node resident-frame counts from the live mappings
    (ground truth) and compares them to the O(1)-maintained counters the
    NUMA data-access penalty is priced from.  Catches cross-node
    accounting drift — a migration or repoint that moved frames without
    moving their bookkeeping.
    """
    recorded = pagetable.node_resident_frames()
    if recorded is None:
        return 0
    truth = [0] * nodes
    total = 0
    for mapping in pagetable.iter_mappings():
        frames = pagetable.geometry.frames_for(mapping.page_size)
        truth[node_of(mapping.pfn)] += frames
        total += frames
    checks = nodes + 1
    for node in range(nodes):
        if truth[node] != recorded[node]:
            _fail(
                f"node {node} residency counter {recorded[node]} != ground "
                f"truth {truth[node]}: cross-node accounting drift"
            )
    if total != pagetable.resident_frames_total:
        _fail(
            f"total residency counter {pagetable.resident_frames_total} != "
            f"ground truth {total}"
        )
    return checks


def check_replica_accounting(system: System) -> int:
    """Audit page-table-replica maintenance accounting (Mitosis model).

    With replication on, every handled fault writes the new leaf entry
    into each of the ``nodes - 1`` remote replicas; with it off, no
    replica update may ever have been charged.
    """
    expected = (
        (system.numa.nodes - 1) * system.faults_handled
        if system.pt_replication
        else 0
    )
    if system.replica_updates != expected:
        _fail(
            f"replica update count {system.replica_updates} != expected "
            f"{expected} (pt_replication={system.pt_replication}, "
            f"faults={system.faults_handled})"
        )
    return 1


def check_pv_mappings(hypervisor: Hypervisor) -> int:
    """Audit gPA -> hPA bijectivity of the VM's EPT-equivalent mappings.

    Each guest-physical page must be backed by a distinct, allocated host
    frame range (injectivity — the exchange hypercall swaps pfns, it must
    never alias them), and the host-side rmap owner record for each frame
    must invert the mapping (so compaction can still re-point it).
    """
    geometry = hypervisor.host.geometry
    buddy = hypervisor.host.buddy
    owner = hypervisor.vm_process.frame_owner
    used = np.zeros(buddy.total_frames, dtype=bool)
    checks = 0
    for mapping in hypervisor.host_table.iter_mappings():
        checks += 1
        frames = geometry.frames_for(mapping.page_size)
        lo, hi = mapping.pfn, mapping.pfn + frames
        if lo % frames:
            _fail(
                f"EPT mapping at hVA {mapping.va:#x} has host pfn {lo} "
                "misaligned for its page size"
            )
        if hi > buddy.total_frames:
            _fail(f"EPT mapping at hVA {mapping.va:#x} points out of bounds")
        if used[lo:hi].any():
            _fail(
                f"gPA -> hPA map not injective: host frames [{lo}, {hi}) "
                f"back two guest ranges (second at hVA {mapping.va:#x})"
            )
        used[lo:hi] = True
        if (buddy.frame_state[lo:hi] == FrameState.FREE).any():
            _fail(
                f"EPT mapping at hVA {mapping.va:#x} points at free host "
                "frames"
            )
        record = owner.lookup(lo)
        if record != (mapping.va, mapping.page_size):
            _fail(
                f"host rmap owner record for pfn {lo} is {record}, expected "
                f"({mapping.va:#x}, {mapping.page_size}): exchange left the "
                "owner table inconsistent"
            )
    return checks


def audit_system(system: System, hypervisor: Hypervisor | None = None) -> int:
    """Run the full check suite over one system; returns checks performed."""
    checks = check_buddy(system.buddy)
    checks += check_regions(system.regions, system.buddy.frame_state)
    if getattr(system.buddy, "pools", None) is not None:
        # NUMA machine: per-node pools, residency accounting, replicas.
        checks += check_numa_pools(system.buddy)
        for process in system.processes:
            checks += check_node_residency(
                process.pagetable, system.buddy.node_of, system.buddy.nodes
            )
        checks += check_replica_accounting(system)
    if hypervisor is not None:
        checks += check_pv_mappings(hypervisor)
    return checks


class InvariantAuditor:
    """Samples full invariant audits as one simulated machine runs.

    Registers as a buddy :class:`~repro.mem.buddy.AllocationListener` to
    count mutation events; every ``every`` events the next safe checkpoint
    (``System.touch`` after a fault, ``System.run_daemons``) runs a full
    audit.  The runner triggers one final audit at the end of every run so
    even tiny runs get at least one.
    """

    def __init__(
        self,
        system: System,
        every: int = 4096,
        hypervisor: Hypervisor | None = None,
        obs=None,
    ) -> None:
        self.system = system
        self.every = max(1, int(every))
        self.hypervisor = hypervisor
        self.audits = 0
        self.checks = 0
        self.violations = 0
        self._events = 0
        self._due = False
        metrics = (obs or system.obs).metrics
        self._c_runs = metrics.counter("audit_runs_total")
        self._c_checks = metrics.counter("audit_checks_total")
        self._c_violations = metrics.counter("audit_violations_total")
        system.buddy.add_listener(self)

    # -- buddy listener: only count; never audit mid-update ----------------
    def on_alloc(self, pfn: int, order: int, movable: bool) -> None:
        self._tick()

    def on_free(self, pfn: int, order: int, movable: bool) -> None:
        self._tick()

    def on_alloc_many(self, pfns, orders, movable) -> None:
        self._tick(len(pfns))

    def on_free_many(self, pfns, orders, movable) -> None:
        self._tick(len(pfns))

    def _tick(self, events: int = 1) -> None:
        before = self._events
        self._events += events
        if self._events // self.every > before // self.every:
            self._due = True

    # -- checkpoints --------------------------------------------------------
    def maybe_audit(self) -> None:
        """Run a pending sampled audit (called from safe checkpoints)."""
        if self._due:
            self._due = False
            self.audit()

    def audit(self) -> int:
        """Run the full check suite now; raises on any violation."""
        self.audits += 1
        self._c_runs.inc()
        checks = 0
        try:
            if os.environ.get("REPRO_AUDIT_SELFTEST") == "1":
                _fail(
                    "audit self-test failure injected via "
                    "REPRO_AUDIT_SELFTEST"
                )
            checks = audit_system(self.system, self.hypervisor)
        except InvariantViolation:
            self.violations += 1
            self._c_violations.inc()
            raise
        finally:
            self.checks += checks
            self._c_checks.inc(checks)
        return checks

    def audit_exchange(self) -> None:
        """Post-hypercall bijectivity check (cheaper than a full audit).

        The exchange hypercall's precise postcondition: called by the
        hypervisor after every ``exchange_ranges`` when auditing is on.
        """
        if self.hypervisor is None:
            return
        self.audits += 1
        self._c_runs.inc()
        try:
            checks = check_pv_mappings(self.hypervisor)
        except InvariantViolation:
            self.violations += 1
            self._c_violations.inc()
            raise
        self.checks += checks
        self._c_checks.inc(checks)


def attach_auditor(
    system: System,
    every: int = 4096,
    hypervisor: Hypervisor | None = None,
    obs=None,
) -> InvariantAuditor:
    """Create an auditor for ``system`` and hook it into the checkpoints.

    ``obs`` routes the audit counters into a registry other than the
    system's own (the VirtRunner points the bare host system's auditor at
    the run's guest registry).
    """
    auditor = InvariantAuditor(
        system, every=every, hypervisor=hypervisor, obs=obs
    )
    system.auditor = auditor
    return auditor
