"""Batch-first hot path: typed touch results and the vectorized engine.

``System.touch_batch`` is the primary API every workload drives accesses
through; this module implements the engine behind it.  A numpy address
stream is cut into *segments* inside which the simulation is closed-form:

* a segment never crosses a **fault** — the first unmapped address ends
  it, the fault is handled on the scalar slow path (``System.touch``:
  policy, spans, audit), and translation restarts because the handler may
  have mapped neighbours;
* on a guest, a segment never crosses the first **unbacked gPA** either —
  the guest's addresses are translated once more through the host table
  (EPT), and ``GuestSystem.touch`` takes the EPT fault the same way;
* a segment never crosses the **daemon cadence** — after exactly
  ``daemon_period_accesses`` touches the background daemons run, and they
  may promote/demote pages and shoot down TLB entries, both of which
  invalidate cached translations.

Within a segment the page tables are static, so mappings are resolved
per-*extent* rather than per-access: each page-table level is probed once
per distinct VPN (``distinct_values``) instead of once per access, and the TLB
hierarchy is simulated by the vectorized reuse-distance kernel in
:mod:`repro.tlb.batch`, which charges each access's walk by its *walk key*
(the leaf level natively, the (guest, host) level pair under nesting).
Fault-dense stretches of the stream, and stretches too short to pay for a
segment (a short call, or the room left before the daemon cadence), run
through ``System.touch`` instead: there a segment's fixed cost outweighs
the accesses it serves.  The engine is counter-for-counter identical to a
scalar ``touch`` loop — including float accumulation order in
``TranslationStats`` and ``SimClock`` — which the equivalence suites in
``tests/sim/test_batch_equivalence.py`` and
``tests/virt/test_virt.py`` lock down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tlb.batch import distinct_values, hierarchy_touch_batch


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

#: a segment cut within its first ``_SHORT_SEGMENT`` accesses runs its
#: prefix, the access that cut it and the next ``_SCALAR_STRETCH`` accesses
#: through the scalar ``System.touch``, and a stretch shorter than
#: ``_SHORT_SEGMENT`` (the end of a call, or the room left before the daemon
#: cadence) never opens a segment.  Both paths are exact, so any mix of
#: them is too.  Break-even, measured on a 2-vCPU Xeon with numpy 2.4
#: (warm Trident and 4KB machines, native and nested): a segment of 8-32
#: accesses costs 0.47-1.2 ms, a scalar access 5-12 us, and the two meet
#: between 80 and 130 accesses, so a cut within 32 marks a stream where
#: scalar is cheaper on every configuration.  A probe cut that early costs
#: only its translation, 0.1-0.25 ms, under 5% of a 1024-access stretch;
#: a stream that turns fault-free loses at most one stretch, 5-12 ms.  A
#: warm whole call breaks even between 32 and 64 accesses on the same
#: machines, so a stretch under 32 is cheaper scalar there too.
_SHORT_SEGMENT = 32
_SCALAR_STRETCH = 1024


@dataclass(slots=True)
class Segment:
    """One translated segment, in the form the engine commits it.

    * ``levels`` — each access's TLB level;
    * ``keys`` — each access's walk key into the hierarchy's
      ``walk_table`` (``None``: the level, as on a native hierarchy);
    * ``cut`` — index of the first access the fast path cannot serve (a
      fault, or on a guest an unbacked gPA), ``None`` when there is none;
    * ``tables`` — ``(owner, addresses, sizes, mapped_vpns)`` per page
      table the segment reads: the process whose touched pages and
      accessed bits the committed accesses update, the addresses it sees,
      their mapping sizes and, when known, the distinct mapped VPNs per
      size (see :func:`translate_segment`).
    """

    levels: np.ndarray
    keys: np.ndarray | None
    cut: int | None
    tables: list[tuple]

    def prefix(self, n: int) -> "Segment":
        """The first ``n`` accesses.

        The per-size VPN extents covered the whole probe window; they are
        recomputed over the survivors instead.
        """
        return Segment(
            self.levels[:n],
            None if self.keys is None else self.keys[:n],
            None,
            [(owner, addrs[:n], sizes[:n], None)
             for owner, addrs, sizes, _ in self.tables],
        )


class BatchEngine:
    """Vectorized executor behind ``System.touch_batch``."""

    def __init__(self, system) -> None:
        self.system = system
        self._window = 4096
        #: accesses left in the current scalar stretch
        self._scalar_left = 0

    def run(self, process, vas: np.ndarray) -> None:
        system = self.system
        n = len(vas)
        i = 0
        while i < n:
            if self._scalar_left:
                i = self._scalar_stretch(process, vas, i)
                continue
            # The daemon cadence bounds the segment: daemons may remap
            # pages and shoot down TLB entries, so no batch crosses one.
            room = max(
                1,
                system.daemon_period_accesses - system._accesses_since_daemon,
            )
            end = min(n, i + min(room, self._window))
            if end - i < _SHORT_SEGMENT:
                # Too short to pay for a segment: the call ends or the
                # daemons are due within it.
                self._scalar_left = end - i
                continue
            seg = system._batch_segment(process, vas[i:end])
            cut = seg.cut
            if cut is not None and cut < _SHORT_SEGMENT:
                # Fault-dense: the short prefix, the access that cut it and
                # a stretch after them all cost less on the scalar path.
                self._window = _MIN_WINDOW
                self._scalar_left = cut + 1 + _SCALAR_STRETCH
                continue
            if cut is not None:
                seg = seg.prefix(cut)
                self._window = max(_MIN_WINDOW, cut * 2)
            else:
                self._window = min(_MAX_WINDOW, self._window * 2)
            committed = len(seg.levels)
            if committed:
                self._touch_mapped(process, vas[i : i + committed], seg)
                system._accesses_since_daemon += committed
            i += committed
            if cut is not None:
                # The access that ended the segment: the scalar slow path
                # handles its fault (and runs the daemons if they are due).
                system._touch(process, int(vas[i]))
                i += 1
            system._run_due_daemons()

    # trd: scalar-fallback[fault-dense or short stretch: vectorized costs more there]
    def _scalar_stretch(self, process, vas: np.ndarray, i: int) -> int:
        """Run the next stretch accesses through ``System._touch``."""
        stop = min(len(vas), i + self._scalar_left)
        touch = self.system._touch
        for va in vas[i:stop].tolist():
            touch(process, va)
        self._scalar_left -= stop - i
        return stop

    def _touch_mapped(self, process, vas: np.ndarray, seg: Segment) -> None:
        """One fully-mapped, daemon-free segment: the vectorized fast path."""
        for owner, addrs, sizes, mapped_vpns in seg.tables:
            self._mark_table(owner, addrs, sizes, mapped_vpns)
        hierarchy_touch_batch(process.tlb, seg.levels, vas, seg.keys)

    def _mark_table(
        self, owner, seg: np.ndarray, sizes: np.ndarray, mapped_vpns
    ) -> None:
        """Touched pages and accessed bits of one page table's view."""
        pagetable = owner.pagetable
        # Touched-page bookkeeping and access bits, once per distinct page
        # instead of once per access (both are idempotent set/flag writes).
        base_vpns = distinct_values(seg >> pagetable._shifts[0])
        owner.touched_pages.update(base_vpns.tolist())
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
                vpn_list = distinct_values(
                    seg[idx] >> pagetable._shifts[size]
                ).tolist()
            for vpn in vpn_list:  # trd: ignore[TRD008] accessed-bit writes on distinct pages only; bounded by segment footprint, not access count
                level[vpn].accessed = True


def frame_addresses(
    pagetable, vas: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Physical address of each mapped ``vas[i]``: pfn × base + offset.

    ``sizes`` are the mappings' levels (from :func:`translate_segment`);
    each level's frame numbers are looked up once per distinct page.
    """
    out = np.empty(len(vas), dtype=np.int64)
    base = pagetable.geometry.base_size
    for size in range(pagetable.n_levels):
        idx = np.flatnonzero(sizes == size)
        if len(idx) == 0:
            continue
        shift = pagetable._shifts[size]
        uniq, inverse = distinct_values(vas[idx] >> shift, return_inverse=True)
        level = pagetable._levels[size]
        pfns = np.fromiter(
            (level[u].pfn for u in uniq.tolist()),
            dtype=np.int64,
            count=len(uniq),
        )
        out[idx] = pfns[inverse] * base + (vas[idx] & ((1 << shift) - 1))
    return out


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
        uniq, inverse = distinct_values(vpns, return_inverse=True)
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
