"""Batch-first hot path: typed touch results and the vectorized engine.

``System.touch_batch`` is the primary API every workload drives accesses
through; this module implements the engine behind it.  A numpy address
stream is cut into *segments* inside which the simulation is closed-form:

* a segment never crosses a **fault** — the first unmapped address ends
  it, the fault is handled on the scalar slow path (policy, spans, audit),
  and translation restarts because the handler may have mapped neighbours;
* a segment never crosses the **daemon cadence** — after exactly
  ``daemon_period_accesses`` touches the background daemons run, and they
  may promote/demote pages and shoot down TLB entries, both of which
  invalidate cached translations.

Within a segment the page table is static, so mappings are resolved
per-*extent* rather than per-access: each page-table level is probed once
per distinct VPN (``np.unique``) instead of once per access, and the TLB
hierarchy is simulated by the vectorized reuse-distance kernel in
:mod:`repro.tlb.batch`.  The engine is counter-for-counter identical to a
scalar ``touch`` loop — including float accumulation order in
``TranslationStats`` and ``SimClock`` — which the equivalence suite in
``tests/sim/test_batch_equivalence.py`` locks down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tlb.batch import hierarchy_touch_batch


@dataclass(frozen=True, slots=True)
class TouchResult:
    """Typed result of one ``System.touch``.

    * ``cycles`` — translation cycles beyond an L1 TLB hit;
    * ``faulted`` — whether the access took a page fault first;
    * ``page_size`` — level index of the page that served the access.
    """

    cycles: float
    faulted: bool = False
    page_size: int = 0


@dataclass
class BatchResult:
    """Aggregate outcome of one ``touch_batch`` call.

    The scalar ``touch`` returns the one-element view of the same contract
    (:class:`TouchResult`); ``touch_batch`` aggregates because per-access
    results of a million-access stream would defeat the point of batching.
    """

    accesses: int = 0
    translation_cycles: float = 0.0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0
    faults: int = 0
    fault_ns: float = 0.0
    walks_by_size: dict[int, int] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        """Alias matching :class:`TouchResult` — total translation cycles."""
        return self.translation_cycles


#: first vectorized-translation window; grows toward ``_MAX_WINDOW`` while
#: the stream is fault-free and shrinks back on a fault, so fault storms
#: (cold first-touch passes) do not pay for repeatedly translating a long
#: tail they never reach
_MIN_WINDOW = 256
_MAX_WINDOW = 65536


class BatchEngine:
    """Vectorized executor behind ``System.touch_batch``."""

    def __init__(self, system) -> None:
        self.system = system
        self._window = 4096

    def run(self, process, vas: np.ndarray) -> None:
        system = self.system
        n = len(vas)
        i = 0
        while i < n:
            # The daemon cadence bounds the segment: daemons may remap
            # pages and shoot down TLB entries, so no batch crosses one.
            room = max(
                1,
                system.daemon_period_accesses - system._accesses_since_daemon,
            )
            end = min(n, i + min(room, self._window))
            seg = vas[i:end]
            sizes, fault_at, mapped_vpns = translate_segment(
                process.pagetable, seg
            )
            if fault_at is not None:
                end = i + fault_at
                seg = seg[:fault_at]
                sizes = sizes[:fault_at]
                self._window = max(_MIN_WINDOW, fault_at * 2)
                # The per-size VPN extents cover the untruncated probe
                # window; recompute them over the survivors instead.
                mapped_vpns = None
            else:
                self._window = min(_MAX_WINDOW, self._window * 2)
            if len(seg):
                self._touch_mapped(process, seg, sizes, mapped_vpns)
                system._accesses_since_daemon += len(seg)
            i = end
            if fault_at is not None and i < n:
                self._touch_faulting(process, int(vas[i]))
                i += 1
            if system._accesses_since_daemon >= system.daemon_period_accesses:
                system.run_daemons()

    def _touch_mapped(
        self, process, seg: np.ndarray, sizes: np.ndarray, mapped_vpns=None
    ) -> None:
        """One fully-mapped, daemon-free segment: the vectorized fast path."""
        pagetable = process.pagetable
        # Touched-page bookkeeping and access bits, once per distinct page
        # instead of once per access (both are idempotent set/flag writes).
        base_vpns = np.unique(seg >> pagetable._shifts[0])
        process.touched_pages.update(base_vpns.tolist())
        for size in range(pagetable.n_levels):
            level = pagetable._levels[size]
            if mapped_vpns is not None:
                vpns = mapped_vpns.get(size)
                if vpns is None:
                    continue
                vpn_list = vpns.tolist()
            else:
                idx = np.flatnonzero(sizes == size)
                if len(idx) == 0:
                    continue
                vpn_list = np.unique(
                    seg[idx] >> pagetable._shifts[size]
                ).tolist()
            for vpn in vpn_list:  # trd: ignore[TRD008] accessed-bit writes on distinct pages only; bounded by segment footprint, not access count
                level[vpn].accessed = True
        hierarchy_touch_batch(process.tlb, sizes, seg)

    def _touch_faulting(self, process, va: int) -> None:
        """The access that ended the segment: scalar fault slow path.

        Mirrors ``System.touch`` exactly: fault through the policy, record
        the touch, then run the address through the TLB.
        """
        system = self.system
        mapping = system._fault(process, va)
        process.record_touch(va)
        process.tlb.access(va, mapping)
        system._accesses_since_daemon += 1


def translate_segment(pagetable, seg: np.ndarray):
    """Vectorized page-table walk over ``seg``.

    Returns ``(sizes, fault_at, mapped_vpns)``: per-access mapping page
    sizes, the index of the first unmapped address (``None`` if fully
    mapped), and the distinct mapped VPNs probed per size (reused by the
    caller for accessed-bit marking).  Each page-table level is probed
    once per distinct VPN, honouring the radix tree's leaf precedence
    (large shadows mid shadows base) exactly like the scalar
    ``PageTable.translate``.
    """
    n = len(seg)
    sizes = np.empty(n, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    mapped_vpns: dict[int, np.ndarray] = {}
    for size in pagetable.levels_desc:
        level = pagetable._levels[size]
        if not level:
            continue
        idx = np.flatnonzero(remaining)
        if len(idx) == 0:
            break
        vpns = seg[idx] >> pagetable._shifts[size]
        uniq, inverse = np.unique(vpns, return_inverse=True)
        present = np.fromiter(
            (u in level for u in uniq.tolist()),
            dtype=bool,
            count=len(uniq),
        )
        hit = present[inverse]
        if hit.any():
            sizes[idx[hit]] = size
            remaining[idx[hit]] = False
            mapped_vpns[size] = uniq[present]
    unmapped = np.flatnonzero(remaining)
    if len(unmapped) == 0:
        return sizes, None, mapped_vpns
    return sizes, int(unmapped[0]), mapped_vpns
