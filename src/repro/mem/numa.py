"""Per-node physical memory: NUMA topology + sharded buddy pools.

Trident's evaluation runs one socket; the fleet north-star is a large
multi-socket machine where physical contiguity is a *per-node* resource
(Cichlid) and page-table placement is itself a NUMA decision (Mitosis).
This module supplies the substrate half of that story:

* :class:`NumaTopology` — node count and the latency model: a remote DRAM
  access costs ``remote_multiplier`` times a local one, and a fraction of
  data accesses (``data_dram_fraction``) reach DRAM at all.
* :class:`NumaBuddyPools` — one :class:`~repro.mem.buddy.BuddyAllocator`
  per node, each running in local pfn space over a slice of one shared
  frame-state array, behind a facade that speaks the *full* allocator
  duck-type in global pfn space.  Every existing consumer — region
  tracker, compactors, zero-fill, fragmentation index, the ``--audit``
  checker — works against the facade unchanged.

Node boundaries are aligned to the max block size, so no buddy pair ever
straddles nodes and :func:`repro.lint.invariants.check_buddy` holds on
the facade exactly as on a flat allocator.  With ``nodes == 1`` the
facade is a zero-cost wrapper: identical pfn sequence, identical
counters, identical gauges — the property the single-node differential
test in ``tests/sim/test_numa_differential.py`` pins down.

Allocation placement is deterministic: an explicit preference (the
faulting process's home node, set by ``System``) is tried first, then the
remaining nodes ordered by descending free frames with the node index as
the tie-break — a pure function of allocator state, so runs replay
byte-for-byte at any parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.mem.buddy import AllocationListener, BuddyAllocator, OutOfMemoryError
from repro.mem.fragmentation import fmfi
from repro.mem.frames import FrameState, new_frame_array
from repro.obs import Counter, MetricsRegistry, Observability


@dataclass(frozen=True)
class NumaTopology:
    """The machine's NUMA shape and access-latency model.

    ``remote_multiplier`` scales one DRAM access that crosses the
    interconnect (~1.4x on two-socket Skylake, higher on larger meshes).
    ``data_dram_fraction`` is the fraction of application accesses that
    miss the cache hierarchy and pay DRAM latency at all; page-walk
    accesses always pay it (page-table entries of big working sets miss
    the data caches — the same assumption WalkConfig.mem_access_cycles
    already makes).
    """

    nodes: int = 1
    remote_multiplier: float = 1.4
    data_dram_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.remote_multiplier < 1.0:
            raise ValueError(
                "remote_multiplier must be >= 1.0 (remote is never faster), "
                f"got {self.remote_multiplier}"
            )
        if not 0.0 <= self.data_dram_fraction <= 1.0:
            raise ValueError(
                f"data_dram_fraction must be in [0, 1], got "
                f"{self.data_dram_fraction}"
            )

    @property
    def interleaved(self) -> bool:
        return self.nodes > 1


class NumaBuddyPools:
    """Per-node buddy allocators behind the flat-allocator duck-type.

    Global pfns partition contiguously: node ``i`` owns
    ``[i * frames_per_node, (i + 1) * frames_per_node)``.  Each node's
    allocator works in local pfn space (its ``pfn_base`` translates trace
    events and listener callbacks back to global), over a slice view of
    the one shared frame-state array, so compaction's frame scans and the
    region tracker see a single coherent physical address space.
    """

    def __init__(
        self,
        total_frames: int,
        max_order: int,
        topology: NumaTopology,
        listeners: tuple[AllocationListener, ...] = (),
        obs: Observability | None = None,
    ) -> None:
        nodes = topology.nodes
        if total_frames % (nodes << max_order):
            raise ValueError(
                f"total_frames ({total_frames}) must split into {nodes} "
                f"node(s) of whole max-order blocks "
                f"({nodes} * {1 << max_order} frames)"
            )
        self.topology = topology
        self.total_frames = total_frames
        self.max_order = max_order
        self.frames_per_node = total_frames // nodes
        self.frame_state = new_frame_array(total_frames)
        if obs is None:
            obs = Observability()
        # Every pool counts into the one bundle, so the buddy counters are
        # machine totals exactly as on a flat allocator.  The pools run
        # over views of one frame-state array, so they register no gauge
        # collector: the facade's aggregate one writes the buddy gauges.
        per = self.frames_per_node
        self.pools: tuple[BuddyAllocator, ...] = tuple(
            BuddyAllocator(
                per,
                max_order,
                listeners=listeners,
                obs=obs,
                pfn_base=node * per,
                frame_state=self.frame_state[node * per : (node + 1) * per],
            )
            for node in range(nodes)
        )
        #: explicit placement preference (a node index) consulted first by
        #: :meth:`alloc`; ``System`` points it at the faulting process's
        #: home node for the duration of the fault handler
        self._preferred: int | None = None
        # The placement counters and per-node gauges are exported only on
        # more than one node, keeping the single-node registry identical to
        # the flat machine's; one node counts into unexported counters.
        if nodes > 1:
            m = obs.metrics
            self._c_local = m.counter("numa_alloc_local_total")
            self._c_remote = m.counter("numa_alloc_remote_total")
        else:
            self._c_local = Counter("numa_alloc_local_total", {})
            self._c_remote = Counter("numa_alloc_remote_total", {})
        obs.metrics.add_collector(self._collect)

    # -- observability ---------------------------------------------------
    def _collect(self, metrics: MetricsRegistry) -> None:
        metrics.gauge("buddy_free_frames").value = self.free_frames
        for order in range(self.max_order + 1):
            metrics.gauge("buddy_free_blocks", order=order).value = (
                self.free_blocks(order)
            )
        if self.nodes > 1:
            for node, pool in enumerate(self.pools):
                metrics.gauge(
                    "numa_node_free_frames", node=node
                ).value = pool.free_frames
                metrics.gauge("numa_node_fmfi", node=node).value = (
                    self.node_fmfi(node)
                )

    # -- topology helpers -------------------------------------------------
    @property
    def nodes(self) -> int:
        return self.topology.nodes

    def node_of(self, pfn: int) -> int:
        """The node owning global frame ``pfn``."""
        if not 0 <= pfn < self.total_frames:
            raise ValueError(f"pfn {pfn} out of bounds")
        return pfn // self.frames_per_node

    def node_bounds(self, node: int) -> tuple[int, int]:
        """Global ``[lo, hi)`` frame range of ``node``."""
        per = self.frames_per_node
        return node * per, (node + 1) * per

    def node_free_frames(self, node: int) -> int:
        return self.pools[node].free_frames

    def node_fmfi(self, node: int, order: int | None = None) -> float:
        """Per-node fragmentation index (at the max order by default)."""
        return fmfi(self.pools[node], self.max_order if order is None else order)

    def set_alloc_preference(self, node: int | None) -> None:
        """Steer subsequent allocations toward ``node`` (None clears)."""
        if node is not None and not 0 <= node < self.nodes:
            raise ValueError(f"node {node} out of range [0, {self.nodes})")
        self._preferred = node

    def _candidates(self, preferred: int | None) -> list[int]:
        order = sorted(
            range(self.nodes),
            key=lambda n: (-self.pools[n].free_frames, n),
        )
        if preferred is None:
            return order
        return [preferred] + [n for n in order if n != preferred]

    # -- allocator duck-type ----------------------------------------------
    @property
    def free_frames(self) -> int:
        return sum(pool.free_frames for pool in self.pools)

    @property
    def used_frames(self) -> int:
        return self.total_frames - self.free_frames

    def free_blocks(self, order: int) -> int:
        return sum(pool.free_blocks(order) for pool in self.pools)

    def free_block_starts(self, order: int) -> list[int]:
        starts: list[int] = []
        for pool in self.pools:
            starts.extend(s + pool.pfn_base for s in pool.free_block_starts(order))
        return starts

    def has_free_block(self, order: int) -> bool:
        return any(pool.has_free_block(order) for pool in self.pools)

    def free_frames_at_or_above(self, order: int) -> int:
        return sum(pool.free_frames_at_or_above(order) for pool in self.pools)

    def allocation_at(self, pfn: int) -> tuple[int, bool] | None:
        pool = self.pools[self.node_of(pfn)]
        return pool.allocation_at(pfn - pool.pfn_base)

    def iter_allocations(self) -> Iterable[tuple[int, int, bool]]:
        for pool in self.pools:
            base = pool.pfn_base
            for pfn, order, movable in pool.iter_allocations():
                yield pfn + base, order, movable

    def is_free(self, pfn: int) -> bool:
        return self.frame_state[pfn] == FrameState.FREE

    def add_listener(self, listener: AllocationListener) -> None:
        for pool in self.pools:
            pool.add_listener(listener)

    def alloc(self, order: int, movable: bool = True, node: int | None = None) -> int:
        """Allocate on the preferred node, spilling remote deterministically.

        ``node`` overrides the sticky preference for this one call.  The
        local/remote placement counters record whether a *preferred*
        allocation landed home or spilled; un-preferred allocations (no
        tenant context) count as local wherever they land.
        """
        preferred = self._preferred if node is None else node
        last_oom: OutOfMemoryError | None = None
        for candidate in self._candidates(preferred):
            pool = self.pools[candidate]
            try:
                pfn = pool.alloc(order, movable)
            except OutOfMemoryError as exc:
                last_oom = exc
                continue
            if preferred is None or candidate == preferred:
                self._c_local.inc()
            else:
                self._c_remote.inc()
            return pfn + pool.pfn_base
        raise OutOfMemoryError(
            f"no free block at order >= {order} on any of {self.nodes} nodes"
        ) from last_oom

    def try_alloc(
        self, order: int, movable: bool = True, node: int | None = None
    ) -> int | None:
        try:
            return self.alloc(order, movable, node=node)
        except OutOfMemoryError:
            return None

    def alloc_at(self, pfn: int, order: int, movable: bool = True) -> None:
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range [0, {self.max_order}]")
        if pfn + (1 << order) > self.total_frames:
            raise ValueError(f"block [{pfn}, {pfn + (1 << order)}) out of bounds")
        pool = self.pools[self.node_of(pfn)]
        pool.alloc_at(pfn - pool.pfn_base, order, movable)

    def free(self, pfn: int) -> None:
        pool = self.pools[self.node_of(pfn)]
        pool.free(pfn - pool.pfn_base)

    def alloc_run(self, count: int, movable: bool = True) -> np.ndarray:
        """``count`` calls of ``alloc(0, movable)``, stopping at OOM.

        No closed form: the most-free-node choice moves with every frame,
        and nothing fragments a NUMA machine in bulk.
        """
        pfns: list[int] = []
        for _ in range(count):
            try:
                pfns.append(self.alloc(0, movable))
            except OutOfMemoryError:
                break
        return np.array(pfns, dtype=np.int64)

    def free_many(self, pfns) -> None:
        """One :meth:`free` per PFN, in order."""
        for pfn in np.asarray(pfns, dtype=np.int64).tolist():
            self.free(pfn)

    # -- verification -----------------------------------------------------
    def check_invariants(self) -> None:
        """Audit the facade and every per-node pool (tests / ``--audit``)."""
        from repro.lint.invariants import check_buddy, check_numa_pools

        check_buddy(self)
        check_numa_pools(self)
