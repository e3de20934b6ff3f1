"""The simulated machine: physical memory + OS policy + processes.

``System`` is the kernel context every policy runs against.  It owns the
buddy allocator (extended to the large order — Trident's first change), the
per-region counters, the reverse map, the zero-fill engine, both compactors
and the fragmentation state, and it drives the background daemons on a
configurable cadence while workloads touch memory.

The system is also the workload-facing syscall surface: ``sys_mmap`` /
``sys_munmap`` / ``touch``.  ``touch`` is the hot path: translate, fault on
demand through the policy, then run the address through the process's TLB
hierarchy, accumulating the translation-cycle statistics the figures are
computed from.
"""

from __future__ import annotations

import numpy as np

from repro.config import FREQ_GHZ, MachineConfig
from repro.core.compaction import NormalCompactor, SmartCompactor
from repro.core.rmap import ReverseMap
from repro.mem.buddy import BuddyAllocator
from repro.mem.fragmentation import FragmentationInjector, fmfi
from repro.mem.numa import NumaBuddyPools, NumaTopology
from repro.mem.regions import RegionTracker
from repro.mem.zerofill import ZeroFillEngine
from repro.obs import Observability
from repro.sim import batch
from repro.sim.batch import BatchEngine, BatchResult, Segment, TouchResult
from repro.sim.process import Process
from repro.tlb.hierarchy import TLBHierarchy


class System:
    """One simulated machine running one OS memory policy."""

    def __init__(
        self,
        machine: MachineConfig,
        policy_factory,
        seed: int = 0,
        daemon_period_accesses: int = 20_000,
        daemon_budget_ns: float = 2_000_000.0,
        obs: Observability | None = None,
        numa: NumaTopology | None = None,
        pt_replication: bool = False,
    ) -> None:
        self.machine = machine
        self.geometry = machine.geometry
        self.cost = machine.cost
        #: the machine's only RNG: a seeded generator threaded from the run
        #: config so every stochastic kernel behaviour replays byte-for-byte
        self.rng = np.random.default_rng(seed)
        #: per-machine observability (metrics registry + tracer); every
        #: substrate component below instruments itself against it
        self.obs = obs if obs is not None else Observability()
        self.regions = RegionTracker(
            machine.total_frames, machine.geometry, obs=self.obs
        )
        #: NUMA shape (None = the flat pre-NUMA machine, byte-identical to
        #: a 1-node topology — see tests/sim/test_numa_differential.py)
        self.numa = numa
        #: Mitosis-style page-table replication: walks always hit a local
        #: replica; every fault pays pte_update_ns per remote replica
        self.pt_replication = bool(pt_replication) and (
            numa is not None and numa.nodes > 1
        )
        if numa is not None:
            self.buddy = NumaBuddyPools(
                machine.total_frames,
                machine.geometry.large_order,
                numa,
                listeners=(self.regions,),
                obs=self.obs,
            )
        else:
            self.buddy = BuddyAllocator(
                machine.total_frames,
                machine.geometry.large_order,
                listeners=(self.regions,),
                obs=self.obs,
            )
        #: remote-penalty charging only exists on a real multi-node shape
        self._numa_active = numa is not None and numa.nodes > 1
        self.faults_handled = 0
        self.replica_updates = 0
        #: cumulative ns of every NUMA charge (walk + data penalties and
        #: replica maintenance) — lets callers like the service layer
        #: attribute the interconnect cost to the work that incurred it
        self.numa_penalty_ns_total = 0.0
        self._c_walk_pen = self._c_access_pen = None
        self._c_replica_updates = self._c_replica_ns = None
        if self._numa_active:
            m = self.obs.metrics
            self._c_walk_pen = m.counter("numa_remote_walk_penalty_ns_total")
            self._c_access_pen = m.counter("numa_remote_access_penalty_ns_total")
            self._c_replica_updates = m.counter("numa_replica_updates_total")
            self._c_replica_ns = m.counter("numa_replica_update_ns_total")
        self.rmap = ReverseMap()
        self.zerofill = ZeroFillEngine(
            self.buddy, self.geometry, self.cost, obs=self.obs
        )
        self.normal_compactor = NormalCompactor(
            self.buddy, self.regions, self.rmap, self.geometry, self.cost,
            obs=self.obs,
        )
        self.smart_compactor = SmartCompactor(
            self.buddy, self.regions, self.rmap, self.geometry, self.cost,
            obs=self.obs,
        )
        self.processes: list[Process] = []
        self.injector: FragmentationInjector | None = None
        #: sampled runtime invariant auditing (repro.lint.invariants);
        #: attached by the runner when --audit is on, None otherwise
        self.auditor = None
        self._next_pid = 1
        self._accesses_since_daemon = 0
        self._batch_engine: BatchEngine | None = None
        self.daemon_period_accesses = daemon_period_accesses
        self.daemon_budget_ns = daemon_budget_ns
        self.daemon_ns_total = 0.0
        self._reserve_kernel_memory()
        self.policy = policy_factory(self)
        self.policy.on_boot()
        self.obs.metrics.add_collector(self._collect_system_metrics)
        self._register_timeline_series()

    @property
    def clock(self):
        """The machine's simulated-time clock (owned by the obs bundle)."""
        return self.obs.clock

    def _register_timeline_series(self) -> None:
        """Wire the paper's time-varying quantities into the sampler.

        Only runs when the obs bundle was built with ``timeline=True``; the
        gauges read authoritative simulator state (the same sources the
        snapshot collectors mirror), so the series and the end-of-run
        metrics agree by construction.
        """
        sampler = self.obs.timeline
        if sampler is None:
            return
        regions = self.regions
        fpl = self.geometry.frames_per_large
        sampler.add_series("fmfi", lambda: self.fmfi, unit="index")
        sampler.add_series(
            "free_large_regions",
            lambda: float(int((regions.free_frames == fpl).sum())),
            unit="regions",
        )
        sampler.add_series(
            "zerofill_pool",
            lambda: float(self.zerofill.pool_size),
            unit="blocks",
        )
        sampler.add_series(
            "buddy_free_frames",
            lambda: float(self.buddy.free_frames),
            unit="frames",
        )
        for size in self.geometry.all_levels:
            sampler.add_series(
                f"mapped_bytes_{self.geometry.label_for(size)}",
                self._mapped_bytes_reader(size),
                unit="bytes",
            )
        if self._numa_active:
            for node in range(self.numa.nodes):
                sampler.add_series(
                    f"numa_node{node}_free_frames",
                    self._node_free_reader(node),
                    unit="frames",
                )
                sampler.add_series(
                    f"numa_node{node}_fmfi",
                    self._node_fmfi_reader(node),
                    unit="index",
                )

    def _node_free_reader(self, node: int):
        return lambda: float(self.buddy.node_free_frames(node))

    def _node_fmfi_reader(self, node: int):
        return lambda: self.buddy.node_fmfi(node)

    def _mapped_bytes_reader(self, size: int):
        def read() -> float:
            return float(
                sum(p.pagetable.mapped_bytes(size) for p in self.processes)
            )

        return read

    def _collect_system_metrics(self, metrics) -> None:
        """Snapshot-time system-wide gauges and aggregated TLB totals."""
        metrics.gauge("system_fmfi").value = self.fmfi
        metrics.gauge("sim_clock_ns").set(self.obs.clock.now_ns)
        metrics.counter("system_daemon_ns_total").set(self.daemon_ns_total)
        accesses = l1 = l2 = 0
        walks = {s: 0 for s in self.geometry.all_levels}
        for process in self.processes:
            stats = process.tlb.stats
            accesses += stats.accesses
            l1 += stats.l1_hits
            l2 += stats.l2_hits
            for size in self.geometry.all_levels:
                walks[size] += stats.walks_by_size[size]
        metrics.counter("tlb_accesses_total").set(accesses)
        metrics.counter("tlb_l1_hits_total").set(l1)
        metrics.counter("tlb_l2_hits_total").set(l2)
        for size in self.geometry.all_levels:
            metrics.counter(
                "tlb_walks_total", size=self.geometry.label_for(size)
            ).set(walks[size])

    def _reserve_kernel_memory(self) -> None:
        """Boot-time unmovable kernel allocations.

        The buddy hands out lowest addresses first, so these concentrate in
        the low regions — the analogue of Linux grouping unmovable
        allocations by migratetype.  A sprinkle of them lands mid-memory to
        give normal compaction something to trip over.
        """
        n = int(self.machine.total_frames * self.machine.kernel_unmovable_fraction)
        self.buddy.alloc_run(max(1, n), movable=False)

    # -- fragmentation control ----------------------------------------------
    def fragment(
        self,
        fill_fraction: float = 0.95,
        residual_fraction: float = 0.30,
        unmovable_prob: float = 0.002,
    ) -> float:
        """Fragment physical memory (paper Section 3); returns large-order FMFI.

        The residual page-cache frames are registered in the rmap so
        compaction can migrate them, exactly like movable page cache.
        """
        self.injector = FragmentationInjector(self.buddy, self.rng)
        index = self.injector.fragment(
            fill_fraction, residual_fraction, unmovable_prob
        )
        self.rmap.register_many(self.injector.cache_frames(), 0, self.injector)
        return index

    @property
    def fmfi(self) -> float:
        """Current fragmentation index at the large order."""
        return fmfi(self.buddy, self.geometry.large_order)

    def reclaim(self, n_frames: int) -> int:
        """Memory-pressure hook: drop page cache, then the zero-fill pool."""
        freed = 0
        if self.injector is not None:
            for pfn in self.injector.reclaim(n_frames):
                self.rmap.unregister(pfn)
                freed += 1
        if freed < n_frames:
            freed += self.zerofill.release_all() * self.geometry.frames_per_large
        return freed

    # -- processes --------------------------------------------------------------
    def create_process(self, name: str = "app", home_node: int = 0) -> Process:
        tlb = TLBHierarchy(self.machine.walk, self.geometry, obs=self.obs)
        process = Process(self._next_pid, name, self.geometry, tlb)
        self._next_pid += 1
        if self._numa_active:
            if not 0 <= home_node < self.numa.nodes:
                raise ValueError(
                    f"home_node {home_node} out of range "
                    f"[0, {self.numa.nodes})"
                )
            process.home_node = home_node
            # Page tables are built by the boot CPU (first-touch on node
            # 0); replication sidesteps the resulting remote walks.
            process.pt_node = 0
            process.pagetable.enable_node_accounting(
                self.buddy.node_of, self.numa.nodes
            )
        self.processes.append(process)
        return process

    def exit_process(self, process: Process) -> None:
        """Tear a process down: free every mapping and retire it.

        The policy's unmap path handles huge-page splitting and rmap
        bookkeeping, so the buddy ends up exactly as before the process.
        """
        for vma in list(process.aspace.iter_vmas()):
            process.aspace.munmap(vma.start)
            self.policy.unmap_range(process, vma.start, vma.length)
        self.processes.remove(process)

    # -- syscall surface ----------------------------------------------------------
    def sys_mmap(self, process: Process, nbytes: int, kind: str = "heap") -> int:
        """Allocate virtual memory; returns the start address.

        The policy may request stronger alignment for heap segments
        (libhugetlbfs aligns eligible segments to its page size).
        """
        align = None
        if kind in ("heap", "data", "bss"):
            align = self.policy.heap_alignment_size
        vma = process.aspace.mmap(nbytes, name=kind, align=align)
        return vma.start

    def sys_munmap(self, process: Process, addr: int) -> None:
        """Release the VMA at ``addr`` and free its physical memory."""
        vma = process.aspace.munmap(addr)
        self.policy.unmap_range(process, vma.start, vma.length)

    # -- the hot path ------------------------------------------------------------
    #: whether ``touch_batch`` may use the vectorized engine: the scalar
    #: reference switch, turned off by ``repro bench`` and the equivalence
    #: tests to replay a stream through per-access ``touch`` (no subclass
    #: opts out)
    batch_hot_path = True

    def touch(self, process: Process, va: int) -> TouchResult:
        """One application load/store; returns a typed :class:`TouchResult`.

        The result is a frozen record: read ``.cycles`` / ``.faulted`` /
        ``.page_size``; it is not a number.  Bulk callers should use
        :meth:`touch_batch`.
        """
        return TouchResult(*self._touch(process, va))

    def _touch(self, process: Process, va: int) -> tuple[float, bool, int]:
        """:meth:`touch` as a plain ``(cycles, faulted, page_size)`` tuple.

        For the callers that discard the result: the batch engine's
        scalar accesses and the scalar reference loop.
        """
        mapping = process.pagetable.translate(va)
        faulted = mapping is None
        if faulted:
            mapping = self._fault(process, va)
        process.record_touch(va)
        cycles = process.tlb.access(va, mapping)
        self._accesses_since_daemon += 1
        self._run_due_daemons()
        return cycles, faulted, mapping.page_size

    def _run_due_daemons(self) -> bool:
        """Run the daemons once ``daemon_period_accesses`` touches accrued.

        The one access cadence of ``touch`` and the batch engine; returns
        whether a quantum ran.
        """
        if self._accesses_since_daemon < self.daemon_period_accesses:
            return False
        self.run_daemons()
        return True

    def _batch_segment(self, process: Process, vas: np.ndarray) -> Segment:
        """The batch engine's translation of one segment: a fault cuts it."""
        sizes, fault_at, mapped_vpns = batch.translate_segment(
            process.pagetable, vas
        )
        return Segment(sizes, None, fault_at, [(process, vas, sizes, mapped_vpns)])

    def _fault(self, process: Process, va: int):
        """Fault slow path, bracketed by a ``fault`` span.

        The policy returns the mapping it installed and records the fault's
        latency in ``stats.fault_ns``; leaf sites inside the handler (sync
        compaction, pv exchanges) may have advanced the clock already, so
        only the *residual* is advanced here — the span's duration then
        equals the recorded latency exactly, which is what lets the
        attribution table reconcile with :meth:`total_fault_ns`.
        """
        clock = self.obs.clock
        stats = self.policy.stats
        fault_ns_before = stats.fault_ns
        start = clock.now_ns
        numa_active = self._numa_active
        if numa_active:
            # Fault-time allocations land on the faulting tenant's home
            # node when it has room, spilling remote deterministically.
            self.buddy.set_alloc_preference(process.home_node)
        try:
            with self.obs.spans.span("fault") as sp:
                mapping = self.policy.handle_fault(process, va)
                process.faults += 1
                assert 0 <= va - mapping.va < self.geometry.bytes_for(
                    mapping.page_size
                ), f"fault handler's mapping does not cover va {va:#x}"
                latency = stats.fault_ns - fault_ns_before
                residual = latency - (clock.now_ns - start)
                if residual > 0.0:
                    clock.advance(residual)
                sp.set(
                    order=self.geometry.order_for(mapping.page_size),
                    latency_ns=latency,
                )
        finally:
            if numa_active:
                self.buddy.set_alloc_preference(None)
        self.faults_handled += 1
        if self.pt_replication:
            # Mitosis's price for always-local walks: the new leaf entry
            # is written into every remote node's replica.  Charged after
            # the span closes so span duration still reconciles with the
            # policy-recorded fault latency.
            replicas = self.numa.nodes - 1
            replica_ns = self.cost.pte_update_ns * replicas
            clock.advance(replica_ns)
            self.numa_penalty_ns_total += replica_ns
            self.replica_updates += replicas
            self._c_replica_updates.inc(replicas)
            self._c_replica_ns.inc(replica_ns)
        if self.auditor is not None:
            self.auditor.maybe_audit()
        return mapping

    def touch_batch(self, process: Process, vas) -> BatchResult:
        """Touch a whole address stream; returns aggregate :class:`BatchResult`.

        This is the primary hot-path API.  The stream runs on the
        vectorized batch engine (:mod:`repro.sim.batch`), which is
        counter-for-counter identical to the scalar loop; with
        ``batch_hot_path`` off it runs that loop, per-access ``touch``.
        """
        vas = np.ascontiguousarray(np.asarray(vas, dtype=np.int64))
        stats = process.tlb.stats
        policy_stats = self.policy.stats
        before = (
            stats.accesses,
            stats.translation_cycles,
            stats.l1_hits,
            stats.l2_hits,
            stats.walks,
            dict(stats.walks_by_size),
            process.faults,
            policy_stats.fault_ns,
        )
        if self.batch_hot_path:
            if self._batch_engine is None:
                self._batch_engine = BatchEngine(self)
            self._batch_engine.run(process, vas)
        else:
            for va in vas.tolist():
                self._touch(process, va)
        result = BatchResult(
            accesses=stats.accesses - before[0],
            translation_cycles=stats.translation_cycles - before[1],
            l1_hits=stats.l1_hits - before[2],
            l2_hits=stats.l2_hits - before[3],
            walks=stats.walks - before[4],
            faults=process.faults - before[6],
            fault_ns=policy_stats.fault_ns - before[7],
            walks_by_size={
                s: stats.walks_by_size[s] - before[5][s]
                for s in self.geometry.all_levels
            },
        )
        if self._numa_active:
            self._charge_numa_batch(process, result)
        return result

    def _charge_numa_batch(self, process: Process, br: BatchResult) -> None:
        """Charge the batch's remote-access penalties on the SimClock.

        Computed from the batch's aggregate counters (identical whether
        the vectorized engine or the scalar fallback produced them, so
        batch/scalar equivalence survives NUMA):

        * **walk term** — every page-walk memory access hits the page
          tables on ``pt_node``; remote unless the process runs there or
          replication keeps a local replica (Mitosis).
        * **data term** — the cache-missing fraction of data accesses
          lands on each node in proportion to the process's resident
          frames, so the remotely-resident fraction pays the multiplier.
        """
        extra = self.numa.remote_multiplier - 1.0
        if extra <= 0.0:
            return
        mem_ns = self.machine.walk.mem_access_cycles / FREQ_GHZ
        clock = self.obs.clock
        if not self.pt_replication and process.pt_node != process.home_node:
            depths = self.machine.walk.depths(self.geometry)
            walk_accesses = sum(
                depths[s] * w for s, w in br.walks_by_size.items()
            )
            walk_pen = walk_accesses * extra * mem_ns
            if walk_pen > 0.0:
                clock.advance(walk_pen)
                self.numa_penalty_ns_total += walk_pen
                self._c_walk_pen.inc(walk_pen)
        remote_frac = process.pagetable.remote_resident_fraction(
            process.home_node
        )
        data_pen = (
            br.accesses
            * self.numa.data_dram_fraction
            * remote_frac
            * extra
            * mem_ns
        )
        if data_pen > 0.0:
            clock.advance(data_pen)
            self.numa_penalty_ns_total += data_pen
            self._c_access_pen.inc(data_pen)

    #: kswapd low watermark: background reclaim keeps this fraction of
    #: memory free so compaction always has slots to move pages into
    free_watermark = 0.06

    def run_daemons(self, budget_ns: float | None = None) -> float:
        """Give the background threads one scheduling quantum.

        Runs kswapd-style watermark reclaim first (page cache shrinks when
        free memory dips below the low watermark — reclaim is not charged
        to khugepaged's CPU budget, matching Linux's separate kswapd
        thread), then the policy's own daemons.
        """
        self._accesses_since_daemon = 0
        watermark = int(self.machine.total_frames * self.free_watermark)
        if self.buddy.free_frames < watermark:
            self.reclaim(watermark - self.buddy.free_frames)
        clock = self.obs.clock
        start = clock.now_ns
        with self.obs.spans.span("daemon_tick") as sp:
            used = self.policy.background_tick(
                self.daemon_budget_ns if budget_ns is None else budget_ns
            )
            # Leaf sites (zero-fill, compaction, pv) advanced their share
            # of ``used`` already; advance only the residual scan/copy ns.
            residual = used - (clock.now_ns - start)
            if residual > 0.0:
                clock.advance(residual)
            sp.set(used_ns=used)
        self.daemon_ns_total += used
        if self.auditor is not None:
            self.auditor.maybe_audit()
        return used

    def settle(self, ticks: int = 50, budget_ns: float | None = None) -> None:
        """Run daemons repeatedly (an idle period: promotions catch up)."""
        for _ in range(ticks):
            self.run_daemons(budget_ns)

    def settle_until_quiet(
        self,
        max_ticks: int = 400,
        quiet_ticks: int = 5,
        budget_ns: float | None = None,
    ) -> int:
        """Run daemons until promotion activity stops changing.

        Returns the number of ticks executed.  Used by the runner to reach
        khugepaged's steady state regardless of footprint size.
        """
        quiet = 0
        stats = self.policy.stats
        last = (dict(stats.promoted), dict(stats.demoted))
        for tick in range(max_ticks):
            self.run_daemons(budget_ns)
            now = (dict(stats.promoted), dict(stats.demoted))
            # A tick spent repaying CPU-cap debt is throttling, not
            # convergence: only debt-free idle ticks count as quiet.
            throttled = getattr(self.policy, "_debt_ns", 0.0) > 0.0
            quiet = quiet + 1 if (now == last and not throttled) else 0
            last = now
            if quiet >= quiet_ticks:
                return tick + 1
        return max_ticks

    # -- metrics helpers ----------------------------------------------------------
    def mapped_bytes_by_size(self, process: Process) -> dict[int, int]:
        return {
            size: process.pagetable.mapped_bytes(size)
            for size in self.geometry.all_levels
        }

    def total_fault_ns(self) -> float:
        return self.policy.stats.fault_ns
