"""Synchronous and asynchronous zero-filling of large pages.

A freshly faulted page must be zeroed before the application may see it (the
paper: "Zero-fill ensures application's leftover data does not leak out").
Zeroing a 1GB-class page synchronously inside the fault handler costs
~400 ms; Trident instead runs a background thread (``kzerofilld`` here) that
pre-zeroes free large chunks so the fault handler can grab one for ~2.7 ms.

The engine *holds* its pre-zeroed blocks as live buddy allocations so no
other allocation can dirty them; :meth:`take_zeroed` transfers ownership to
the caller (typically the page-fault handler), and :meth:`release_all`
returns the pool under memory pressure.
"""

from __future__ import annotations

from repro.config import CostModel, PageGeometry
from repro.mem.buddy import BuddyAllocator
from repro.obs import Observability


class ZeroFillEngine:
    """Pool of pre-zeroed large blocks, refilled by a background daemon."""

    def __init__(
        self,
        buddy: BuddyAllocator,
        geometry: PageGeometry,
        cost: CostModel,
        pool_capacity: int = 2,
        obs: Observability | None = None,
    ) -> None:
        if pool_capacity < 0:
            raise ValueError(f"pool_capacity must be >= 0, got {pool_capacity}")
        self.buddy = buddy
        self.geometry = geometry
        self.cost = cost
        self.pool_capacity = pool_capacity
        self._pool: list[int] = []
        self._progress_ns = 0.0  # budget accrued toward the next block
        self.blocks_zeroed = 0
        self.zero_ns_spent = 0.0
        self.pool_hits = 0
        self.pool_misses = 0
        self.blocks_released = 0
        if obs is None:
            obs = Observability()
        m = obs.metrics
        self._tracer = obs.tracer
        self._clock = obs.clock
        self._spans = obs.spans
        self._c_fill = m.counter("zerofill_fill_total")
        self._c_hit = m.counter("zerofill_take_hit_total")
        self._c_miss = m.counter("zerofill_take_miss_total")
        self._c_release = m.counter("zerofill_release_total")
        self._c_credit_dropped = m.counter("zerofill_credit_dropped_ns_total")
        self._g_pool = m.gauge("zerofill_pool_size")

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    def _drop_credit(self, amount_ns: float) -> None:
        """Surrender accrued zeroing credit (pressure release / no work)."""
        self._progress_ns = 0.0
        if amount_ns > 0.0:
            self._c_credit_dropped.inc(amount_ns)

    def take_zeroed(self) -> int | None:
        """Pop a pre-zeroed large block; the caller now owns the allocation.

        Returns the block's start PFN, or None when the pool is empty (the
        fault handler then zeroes synchronously or falls back to a smaller
        page size).
        """
        if self._pool:
            pfn = self._pool.pop()
            self.pool_hits += 1
            self._c_hit.inc()
            self._g_pool.value = len(self._pool)
            tr = self._tracer
            if tr.active:
                tr.emit("zerofill", "take", pfn=pfn, hit=True)
            return pfn
        self.pool_misses += 1
        self._c_miss.inc()
        tr = self._tracer
        if tr.active:
            tr.emit("zerofill", "take", hit=False)
        return None

    def background_fill(self, budget_ns: float, concurrent: bool = False) -> float:
        """Zero free large blocks until the pool is full or budget runs out.

        Returns the nanoseconds of CPU actually consumed.  Called from the
        daemon scheduler with its per-tick CPU budget.  Zeroing one block
        usually costs more than one scheduling quantum, so progress carries
        over between calls (the daemon keeps zeroing where it left off).

        ``concurrent=True`` marks a refill running on another core in
        parallel with the caller (Trident's fault-path kick): its CPU time
        is real but does not advance the simulated clock, which tracks the
        *critical path* the caller is on.
        """
        if len(self._pool) >= self.pool_capacity:
            return 0.0
        block_cost = self.cost.zero_ns(self.geometry.large_size)
        self._progress_ns += budget_ns
        spent = budget_ns
        while (
            len(self._pool) < self.pool_capacity
            and self._progress_ns >= block_cost
        ):
            pfn = self.buddy.try_alloc(self.geometry.large_order, movable=True)
            if pfn is None:
                # No free large block to zero: return the unused credit.
                spent -= self._progress_ns
                self._drop_credit(self._progress_ns)
                break
            self._pool.append(pfn)
            self.blocks_zeroed += 1
            self._progress_ns -= block_cost
            self._c_fill.inc()
            self._g_pool.value = len(self._pool)
            tr = self._tracer
            if tr.active:
                tr.emit("zerofill", "fill", pfn=pfn, cost_ns=block_cost)
        if len(self._pool) >= self.pool_capacity:
            spent -= self._progress_ns
            self._progress_ns = 0.0
        spent = max(spent, 0.0)
        self.zero_ns_spent += spent
        if not concurrent and spent > 0.0:
            self._clock.advance(spent)
            spans = self._spans
            if spans.enabled:
                spans.record_complete(
                    "zerofill_fill", spent, pool=len(self._pool)
                )
        return spent

    def release_all(self) -> int:
        """Return every pooled block to the buddy (memory pressure path)."""
        released = len(self._pool)
        for pfn in self._pool:
            self.buddy.free(pfn)
        self._pool.clear()
        # The credit was accrued toward blocks the reclaim path just took
        # away; keeping it would let the next daemon tick instantly re-grab
        # the large blocks that reclaim freed, defeating the release.
        self._drop_credit(self._progress_ns)
        self.blocks_released += released
        self._c_release.inc(released)
        self._g_pool.value = 0
        tr = self._tracer
        if tr.active:
            tr.emit("zerofill", "release_all", released=released)
        return released

    # -- latency helpers used by the fault handler -------------------------
    def sync_fault_ns(self, page_size: int) -> float:
        """Fault latency when the page must be zeroed inline."""
        return self.cost.fault_fixed_ns + self.cost.zero_ns(
            self.geometry.bytes_for(page_size)
        )

    def pooled_fault_ns(self) -> float:
        """Fault latency when a pre-zeroed large block is available.

        The paper measures ~2.7 ms: page-table setup and bookkeeping for a
        1GB mapping, with zeroing already paid in the background.
        """
        return self.cost.large_fault_mapped_ns

    def fault_ns(self, page_size: int, used_pool: bool) -> float:
        if page_size == self.geometry.top_level and used_pool:
            return self.pooled_fault_ns()
        return self.sync_fault_ns(page_size)
