"""The per-core TLB hierarchy (Table 1 of the paper, data side).

Structure (Skylake defaults, x86 three-tier geometry):

* L1 dTLB — one structure per geometry level: 64x4 (4KB), 32x4 (2MB),
  4-entry fully associative (1GB).  Every load/store probes the structure
  matching its mapping's page size; an L1 hit costs nothing extra.
* L2 sTLB — named groups of set-associative arrays; each level's
  :class:`~repro.config.TLBSection` points at its group.  On x86 a
  1536-entry 12-way array is shared by 4KB and 2MB translations and a
  separate 16-entry 4-way array serves 1GB.  An L2 hit costs a few
  cycles; an L2 miss triggers a page walk.

Other geometries declare more levels (SVNAPOT's 64KB NAPOT pages) or
different groupings (ARM's contiguous-bit entries share the granule
array); the hierarchy builds whatever ladder the geometry declares: one
SetAssocTLB per level's section plus one per named L2 group.

The simulator is trace-driven: the caller translates each virtual address
through the page table first (so the mapping's page size is known — hardware
discovers it during the walk, but the steady-state cost is identical) and
feeds the mapping here.  A walk costs its entry of the unit's walk table,
built once from the walk parameters and the geometry's per-level walk facts
(:meth:`~repro.config.WalkConfig.native_table`).  Walk cycles accumulate in
:class:`TranslationStats`, which is what the paper's
``DTLB_*_MISSES.WALK_ACTIVE`` counters measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import FREQ_GHZ, PageGeometry, WalkConfig
from repro.obs import Observability
from repro.tlb.tlb import SetAssocTLB
from repro.vm.pagetable import Mapping


@dataclass
class TranslationStats:
    """Counters matching the paper's measurement methodology."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0
    walk_cycles: float = 0.0
    translation_cycles: float = 0.0
    walks_by_size: dict[int, int] = field(default_factory=dict)

    @classmethod
    def for_geometry(cls, geometry: PageGeometry) -> "TranslationStats":
        return cls(walks_by_size={s: 0 for s in geometry.all_levels})

    @property
    def l1_miss_rate(self) -> float:
        return 1 - self.l1_hits / self.accesses if self.accesses else 0.0

    @property
    def walks_per_access(self) -> float:
        return self.walks / self.accesses if self.accesses else 0.0


class TLBHierarchy:
    """L1 (per-level) + grouped L2 TLBs over one page table."""

    #: walk-latency histogram bucket upper bounds, in cycles
    WALK_BUCKETS = (10, 20, 40, 60, 80, 120, 160, 240, 320, 640)

    def __init__(
        self, walk: WalkConfig, geometry: PageGeometry, obs: Observability | None = None
    ) -> None:
        if any(lvl.tlb is None for lvl in geometry.levels):
            raise ValueError(
                f"geometry {geometry.name or '/'.join(geometry.labels)} "
                "declares no per-level TLB sections; a TLB needs one "
                "TLBSection on every level"
            )
        self.geometry = geometry
        self.walk_config = walk
        self.n_levels = geometry.n_levels
        self._labels = geometry.labels
        if obs is None:
            obs = Observability()
        self._tracer = obs.tracer
        self._clock = obs.clock
        self._h_walk = {
            s: obs.metrics.histogram(
                "tlb_walk_cycles",
                buckets=self.WALK_BUCKETS,
                size=self._labels[s],
            )
            for s in geometry.all_levels
        }
        self.l1 = {
            level: SetAssocTLB(lvl.tlb.l1)
            for level, lvl in enumerate(geometry.levels)
        }
        #: named L2 group -> structure, in declaration order
        self.l2 = {name: SetAssocTLB(cfg) for name, cfg in geometry.l2_groups}
        #: level -> the L2 structure its section feeds
        self._l2_by_level = [self.l2[lvl.tlb.l2] for lvl in geometry.levels]
        #: the L2 structures the levels feed, in order of their first
        #: level, and each level's index into that tuple: the batch
        #: engine's grouping of L1 misses by structure
        self._l2_structs = tuple(dict.fromkeys(self._l2_by_level))
        self._l2_index_of_level = np.array(
            [self._l2_structs.index(l2) for l2 in self._l2_by_level],
            dtype=np.int64,
        )
        #: walk key -> cycles of one walk, read by the scalar path and the
        #: batch engine alike; a native walk's key is its leaf level
        self.walk_table = walk.native_table(geometry)
        #: cycles a walk charges the clock on top of its own: the L2 probe
        #: that missed before it
        self.walk_charge = walk.l2_tlb_hit_cycles
        self.stats = TranslationStats.for_geometry(geometry)
        self._shifts = {
            level: geometry.shift_for(level) for level in geometry.all_levels
        }

    def access(self, va: int, mapping: Mapping) -> float:
        """One load/store to ``va``; returns translation cycles beyond L1 hit.

        Sets the mapping's access bit (as the hardware walker would on fill,
        and as already-set bits stay set on hits).
        """
        size = mapping.page_size
        vpn = va >> self._shifts[size]
        self.stats.accesses += 1
        mapping.accessed = True
        cycles = self._probe(size, vpn)
        if cycles is None:
            cycles = self.walk_table[size]
            self._walked(size, vpn, cycles)
        return cycles

    def _probe(self, size: int, vpn: int) -> float | None:
        """L1 then L2 lookup; the hit's cycles, or None when a walk is due."""
        stats = self.stats
        if self.l1[size].lookup(vpn):
            stats.l1_hits += 1
            return 0.0
        if self._l2_by_level[size].lookup(vpn):
            stats.l2_hits += 1
            self.l1[size].insert(vpn)
            cycles = float(self.walk_config.l2_tlb_hit_cycles)
            stats.translation_cycles += cycles
            self._clock.advance(cycles / FREQ_GHZ)
            return cycles
        return None

    def _walked(self, size: int, vpn: int, cycles: float) -> None:
        """Account one ``cycles`` walk, charge it plus :attr:`walk_charge`,
        fill L2 and L1.

        Stats update before the clock advances and the histogram and trace
        event after it: scrapes fire inside ``advance`` and must see this
        order.
        """
        stats = self.stats
        stats.walks += 1
        stats.walks_by_size[size] += 1
        stats.walk_cycles += cycles
        stats.translation_cycles += cycles + self.walk_config.l2_tlb_hit_cycles
        self._clock.advance((cycles + self.walk_charge) / FREQ_GHZ)
        self._h_walk[size].observe(cycles)
        tr = self._tracer
        if tr.active:
            tr.emit(
                "tlb", "walk", vpn=vpn,
                size=self._labels[size], cycles=cycles,
            )
        self._l2_by_level[size].insert(vpn)
        self.l1[size].insert(vpn)

    def invalidate_range(self, start: int, length: int) -> None:
        """Shootdown for a remapped range (promotion/compaction).

        Drops every entry whose page lies inside [start, start+length) from
        all levels.  Ranges are page-size aligned in all call sites.  Per
        structure, a range of more pages than the structure has entries
        drops its resident entries in the range instead of probing every
        page (same result: deleting keys keeps the others' LRU order).
        """
        for size in range(self.n_levels):
            shift = self._shifts[size]
            first = start >> shift
            last = (start + length - 1) >> shift
            pages = last - first + 1
            for s in (self.l1[size], self._l2_by_level[size]):
                if pages > 4096:
                    s.flush()
                elif pages > s.entries:
                    s.invalidate_resident(first, last)
                else:
                    for vpn in range(first, last + 1):
                        s.invalidate(vpn)

    def flush(self) -> None:
        for tlb in self.l1.values():
            tlb.flush()
        for tlb in self.l2.values():
            tlb.flush()

    def reset_stats(self) -> None:
        self.stats = TranslationStats.for_geometry(self.geometry)
        for tlb in self.l1.values():
            tlb.reset_stats()
        for tlb in self.l2.values():
            tlb.reset_stats()
