"""Global configuration objects for the Trident reproduction.

The simulator is parameterised by a small set of dataclasses:

* :class:`PageGeometry` — an ordered tuple of :class:`PageLevel` entries
  (N levels, smallest to largest), from which every size relation the
  paper uses (alignment, mappability, buddy orders, region counters, TLB
  tag shifts) is derived, plus the TLB shapes: one :class:`TLBSection`
  per level and the named L2 groups they feed (Table 1 of the paper).
  The canonical instantiations are the x86-64 three-tier 4KB / 2MB / 1GB
  family, but the geometry is declarative:
  RISC-V SVNAPOT (a *four*-level 4K/64K/2M/1G ladder) and ARM 16K-granule
  configurations are expressed as data, not code (see
  :mod:`repro.geometries`).
* :class:`MachineConfig` — geometry, physical memory size and page-walk
  parameters.
* :class:`CostModel` — the latency/bandwidth constants behind the paper's
  wall-clock claims (1GB fault 400 ms -> 2.7 ms with async zero-fill;
  copy-based 1GB promotion 600 ms vs ~500 us with a batched hypercall).

Experiments usually run a *scaled* geometry so that a full figure
regenerates in seconds.  Scaling shrinks the level orders and the machine
memory by the same factor; every claim in the paper is about ratios
(page-size reach vs. footprint, fragmentation vs. contiguity), which
scaling preserves.

Page sizes are identified by their **level index**: 0 is the base page,
``n_levels - 1`` the largest declared level.  Code names a level through
the run's geometry (``0``, ``geometry.thp_level``, ``geometry.top_level``,
``geometry.all_levels``), never through a process-wide constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class TLBConfig:
    """One TLB structure: ``entries`` total, ``ways``-associative.

    ``ways == entries`` means fully associative (the Skylake 1GB L1 TLB).
    """

    entries: int
    ways: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ValueError("TLB entries and ways must be positive")
        if self.entries % self.ways:
            raise ValueError(
                f"entries ({self.entries}) must be a multiple of ways ({self.ways})"
            )

    @property
    def sets(self) -> int:
        return self.entries // self.ways


@dataclass(frozen=True)
class TLBSection:
    """Per-level TLB section: a private L1 plus the L2 group it feeds.

    ``l2`` names an entry of the geometry's ``l2_groups``; several levels
    may share one group, modelling Skylake's shared 4K/2M sTLB.
    """

    l1: TLBConfig
    l2: str = "shared"


@dataclass(frozen=True)
class PageLevel:
    """One declared page size, ``order`` power-of-two base frames big.

    * ``name`` — the level's identity in policy code and docs ("base",
      "mid", "napot", ...).
    * ``label`` — the observability label ("4KB", "2MB", "1GB"); metric
      and span labels are derived from here, never hardcoded.
    * ``order`` — log2 base frames per page; the buddy order of one page.
    * ``promotable`` — whether promotion may assemble pages at this level
      (the base level never is).
    * ``thp_target`` — marks the level THP-class policies promote to;
      exactly one non-base level may carry it (defaults to level 1).
    * ``tlb`` — the level's TLB section.  A geometry either gives every
      level one or none; only geometries with sections can build a TLB
      (sectionless ones serve size arithmetic alone).
    * ``levels_skipped`` — radix levels a walk for this size skips
      (``None`` means "level index", the x86 ladder: 4KB walks all 4
      levels, 2MB skips 1, 1GB skips 2).  SVNAPOT's 64KB pages are NAPOT
      PTEs and skip none.
    * ``leaf_cached_prob`` — probability the walk's leaf entry sits in a
      paging-structure cache (``None`` means the x86 ladder's value for
      the level index, :data:`DEFAULT_LEAF_CACHED_PROBS`).

    :class:`PageGeometry` resolves both walk facts once per level; read
    them through its ``levels_skipped_for`` / ``leaf_cached_prob_for``.
    """

    name: str
    label: str
    order: int
    promotable: bool = True
    thp_target: bool = False
    tlb: TLBSection | None = None
    levels_skipped: int | None = None
    leaf_cached_prob: float | None = None

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"level order must be >= 0, got {self.order}")
        if not self.name:
            raise ValueError("page level needs a name")
        if not self.label:
            raise ValueError("page level needs a label")


#: leaf structure-cache hit probability of an undeclared level, by level
#: index (capped at 2): PTEs are never cached, Intel's PDE and PDPTE caches
#: hold 2MB and 1GB leaves — why 1GB walks are far cheaper than 2MB walks
DEFAULT_LEAF_CACHED_PROBS = (0.0, 0.60, 0.85)


def _three_tier_levels(
    mid_order: int,
    large_order: int,
    tlb: tuple[TLBSection, TLBSection, TLBSection] | None = None,
) -> tuple[PageLevel, ...]:
    """The canonical x86-class ladder, with per-level TLB sections if given."""
    base, mid, large = tlb or (None, None, None)
    return (
        PageLevel(name="base", label="4KB", order=0, promotable=False, tlb=base),
        PageLevel(
            name="mid", label="2MB", order=mid_order, thp_target=True, tlb=mid
        ),
        PageLevel(name="large", label="1GB", order=large_order, tlb=large),
    )


@dataclass(frozen=True)
class PageGeometry:
    """An ordered ladder of page sizes, smallest to largest.

    Two construction styles:

    * three-tier arithmetic: ``PageGeometry(base_shift, mid_order,
      large_order)`` — e.g. ``PageGeometry(12, 9, 18)``: 4KB base, 2MB
      mid, 1GB large.  It declares no TLB sections, so it serves size
      arithmetic but cannot build a TLB;
    * declarative: ``PageGeometry(base_shift=12, levels=(...))`` with an
      explicit :class:`PageLevel` tuple of any length >= 2.

    ``base_shift`` is log2 of the base page size in bytes.  Each level's
    ``order`` is log2 of the number of base pages per page at that level;
    level 0 must have order 0 and orders must be strictly increasing.
    Page sizes are identified everywhere by level index (0 .. n_levels-1).
    """

    base_shift: int = 12
    mid_order: int | None = 9
    large_order: int | None = 18
    levels: tuple[PageLevel, ...] | None = None
    l2_groups: tuple[tuple[str, TLBConfig], ...] = ()
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.base_shift <= 0:
            raise ValueError(f"base_shift must be positive, got {self.base_shift}")
        if self.levels is None:
            mid, large = self.mid_order, self.large_order
            if mid is None or large is None:
                raise ValueError(
                    "need either an explicit levels tuple or both "
                    "mid_order and large_order"
                )
            if not 0 < mid < large:
                raise ValueError(
                    "need 0 < mid_order < large_order, got "
                    f"mid_order={mid} large_order={large}"
                )
            object.__setattr__(self, "levels", _three_tier_levels(mid, large))
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise ValueError("a geometry needs at least two levels")
        if levels[0].order != 0:
            raise ValueError(
                f"level 0 must have order 0, got {levels[0].order}"
            )
        orders = [lvl.order for lvl in levels]
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError(
                f"level orders must be strictly increasing, got {orders}"
            )
        names = [lvl.name for lvl in levels]
        if len(set(names)) != len(names):
            raise ValueError(f"level names must be unique, got {names}")
        if levels[0].promotable:
            raise ValueError("the base level cannot be promotable")
        thp_flags = [i for i, lvl in enumerate(levels) if lvl.thp_target]
        if len(thp_flags) > 1:
            raise ValueError(
                f"at most one level may be the THP target, got {thp_flags}"
            )
        sections = [lvl.tlb for lvl in levels]
        if any(s is not None for s in sections):
            if any(s is None for s in sections):
                raise ValueError(
                    "either every level declares a TLB section or none does"
                )
            groups = dict(self.l2_groups)
            for lvl in levels:
                if not isinstance(lvl.tlb.l2, str):
                    raise ValueError(
                        f"level {lvl.name!r} must name an L2 group, "
                        f"got {lvl.tlb.l2!r}"
                    )
                if lvl.tlb.l2 not in groups:
                    raise ValueError(
                        f"level {lvl.name!r} references undeclared L2 group "
                        f"{lvl.tlb.l2!r}"
                    )
        # Normalise the derived legacy fields so equality keeps working
        # across construction styles.
        object.__setattr__(
            self, "mid_order", levels[1].order if len(levels) > 2 else None
        )
        object.__setattr__(self, "large_order", levels[-1].order)
        # Per-level arithmetic, computed once: plain attributes rather than
        # dataclass fields, so ==, hash, repr and asdict ignore them.
        frames = tuple(1 << lvl.order for lvl in levels)
        object.__setattr__(self, "_frames", frames)
        object.__setattr__(
            self, "_bytes", tuple(f << self.base_shift for f in frames)
        )
        object.__setattr__(self, "_all_levels", tuple(range(len(levels))))
        object.__setattr__(
            self, "_levels_desc", tuple(range(len(levels) - 1, -1, -1))
        )
        # Walk facts, undeclared ones defaulted by level index.
        object.__setattr__(self, "_levels_skipped", tuple(
            i if lvl.levels_skipped is None else lvl.levels_skipped
            for i, lvl in enumerate(levels)
        ))
        object.__setattr__(self, "_leaf_probs", tuple(
            DEFAULT_LEAF_CACHED_PROBS[min(i, 2)]
            if lvl.leaf_cached_prob is None
            else lvl.leaf_cached_prob
            for i, lvl in enumerate(levels)
        ))

    # -- level indexing --------------------------------------------------
    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def top_level(self) -> int:
        """Index of the largest declared level."""
        return len(self.levels) - 1

    @property
    def all_levels(self) -> tuple[int, ...]:
        """Level indices, smallest page first."""
        return self._all_levels

    @property
    def levels_desc(self) -> tuple[int, ...]:
        """Level indices, largest page first (translate/unmap precedence)."""
        return self._levels_desc

    @property
    def promotable_levels(self) -> tuple[int, ...]:
        """Indices promotion may target, smallest first."""
        return tuple(
            i for i, lvl in enumerate(self.levels) if lvl.promotable
        )

    @property
    def thp_level(self) -> int:
        """The level THP-class policies map and promote to."""
        for i, lvl in enumerate(self.levels):
            if lvl.thp_target:
                return i
        return 1

    def name_of(self, level: int) -> str:
        return self.levels[level].name

    def label_for(self, level: int) -> str:
        """Observability label of ``level`` ("4KB", "2MB", "1GB", ...)."""
        return self.levels[level].label

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lvl.label for lvl in self.levels)

    # -- sizes in bytes -------------------------------------------------
    @property
    def base_size(self) -> int:
        """Base page size in bytes (4KB on x86)."""
        return 1 << self.base_shift

    @property
    def mid_size(self) -> int:
        """Page size in bytes at level 1 (2MB on x86)."""
        return self.bytes_for(1)

    @property
    def large_size(self) -> int:
        """Page size in bytes at the top level (1GB on x86)."""
        return self.bytes_for(self.top_level)

    # -- sizes in base-page frames --------------------------------------
    @property
    def frames_per_mid(self) -> int:
        return 1 << self.levels[1].order

    @property
    def frames_per_large(self) -> int:
        return 1 << self.levels[-1].order

    @property
    def mids_per_large(self) -> int:
        return 1 << (self.levels[-1].order - self.levels[1].order)

    def frames_for(self, level: int) -> int:
        """Number of base frames covered by one page at ``level``."""
        return self._frames[level]

    def bytes_for(self, level: int) -> int:
        return self._bytes[level]

    def order_for(self, level: int) -> int:
        """Buddy order of one page at ``level`` (base pages = order 0)."""
        return self.levels[level].order

    def shift_for(self, level: int) -> int:
        """log2 bytes of one page at ``level`` — the TLB tag shift."""
        return self.base_shift + self.levels[level].order

    def levels_skipped_for(self, level: int) -> int:
        """Radix levels a walk to a leaf at ``level`` skips."""
        return self._levels_skipped[level]

    def leaf_cached_prob_for(self, level: int) -> float:
        """Probability a leaf at ``level`` sits in a paging-structure cache."""
        return self._leaf_probs[level]

    def align_down(self, addr: int, level: int) -> int:
        return addr - (addr % self._bytes[level])

    def align_up(self, addr: int, level: int) -> int:
        size = self._bytes[level]
        return (addr + size - 1) // size * size

    def is_aligned(self, addr: int, level: int) -> bool:
        return addr % self._bytes[level] == 0

    def describe(self) -> str:
        """One line per level, for ``repro geometry describe``."""
        rows = []
        for i, lvl in enumerate(self.levels):
            flags = []
            if lvl.promotable:
                flags.append("promotable")
            if i == self.thp_level and i != 0:
                flags.append("thp-target")
            rows.append(
                f"  level {i}: {lvl.name:8s} {lvl.label:>6s}  "
                f"order {lvl.order:2d}  {self.bytes_for(i):>12,} B"
                f"{'  [' + ', '.join(flags) + ']' if flags else ''}"
            )
        return "\n".join(rows)


#: Real x86-64 geometry: 4KB / 2MB / 1GB with Table 1's Skylake data-side
#: TLBs: L1 64x4 (4KB), 32x4 (2MB) and 4-entry fully associative (1GB); a
#: 1536-entry 12-way L2 shared by 4KB and 2MB plus a 16-entry 4-way 1GB L2.
X86_GEOMETRY = PageGeometry(
    base_shift=12,
    levels=_three_tier_levels(9, 18, (
        TLBSection(TLBConfig(64, 4), "shared"),
        TLBSection(TLBConfig(32, 4), "shared"),
        TLBSection(TLBConfig(4, 4), "large"),
    )),
    l2_groups=(("shared", TLBConfig(1536, 12)), ("large", TLBConfig(16, 4))),
    name="x86-64",
)

#: Scaled geometry for fast experiments: 4KB base, 64KB "2MB-class" mid,
#: 4MB "1GB-class" large.  Ratios between levels shrink from 512x to 16/64x,
#: which keeps buddy/TLB dynamics intact while making a "63.5GB" workload
#: simulate as ~254MB of address space.
#:
#: Its TLBs preserve each page size's TLB-reach-to-footprint ratio from the
#: Skylake testbed.  Footprints shrink by 256x (the large-page ratio); base
#: pages do not shrink at all, so base structures shrink by 8x (a partial
#: compensation: the full 256x would leave no structure at all, and
#: base-heavy configurations sit far beyond reach under either choice); mid
#: pages shrink 32x, so mid structures shrink by the residual 8x, in an L2
#: group of their own; large-page counts are scale-invariant, so the 1GB
#: structures keep their real sizes.
SCALED_GEOMETRY = PageGeometry(
    base_shift=12,
    levels=_three_tier_levels(4, 10, (
        TLBSection(TLBConfig(16, 4), "shared"),
        TLBSection(TLBConfig(4, 4), "mid"),
        TLBSection(TLBConfig(4, 4), "large"),
    )),
    l2_groups=(
        ("shared", TLBConfig(192, 12)),
        ("large", TLBConfig(16, 4)),
        ("mid", TLBConfig(192, 12)),
    ),
    name="x86",
)

#: Scale factor mapping paper footprints (bytes) onto SCALED_GEOMETRY bytes.
#: large_size shrinks 1GB -> 4MB, i.e. by 256x; footprints shrink alike so a
#: workload still spans the same *number* of large pages as on real hardware.
SCALE_FACTOR = X86_GEOMETRY.large_size // SCALED_GEOMETRY.large_size

#: Core clock of the paper's Skylake testbed (Xeon Gold 5118, 2.3 GHz);
#: converts translation cycles into nanoseconds on the simulated-time axis.
FREQ_GHZ = 2.3


@dataclass(frozen=True)
class WalkConfig:
    """Page-walk machine parameters.

    A native walk to a leaf at level ``s`` touches ``levels_base -
    geometry.levels_skipped_for(s)`` page-table levels (4 / 3 / 2 on
    x86-64); the per-level facts live on the geometry, the machine-wide
    ones here.  Two caching effects shape the cost:

    * ``pwc_hit_rate`` — probability that every level *above* the leaf is in
      a paging-structure cache (PML4E/PDPTE/PDE caches), leaving only the
      leaf access.
    * the geometry's ``leaf_cached_prob_for`` — for 2MB and 1GB pages the
      *leaf itself* is a PDE/PDPTE, which Intel's paging-structure caches
      also hold; a hit makes the whole walk (nearly) free.  This is the
      micro-architectural reason 1GB walks are much cheaper than 2MB
      walks on real hardware, and the effect the paper's Section 2
      "quickens individual walks" point rests on.

    So the expected cycles of a walk of at most ``n`` accesses are::

        (1 - leaf) * (1 + (n - 1) * (1 - pwc)) * mem_access_cycles

    ``mem_access_cycles`` is the average cost of one walk memory access —
    page-table entries of big random working sets mostly miss the data
    caches, so this is DRAM-class latency.
    """

    levels_base: int = 4
    mem_access_cycles: int = 160
    pwc_hit_rate: float = 0.80
    #: nested (2D) walks hit the paging-structure caches harder: most of the
    #: up-to-24 accesses are gPA-side upper-level entries with high reuse
    nested_pwc_hit_rate: float = 0.96
    l2_tlb_hit_cycles: int = 7

    def depths(self, geometry: PageGeometry) -> tuple[int, ...]:
        """Page-table levels one native walk traverses, per leaf level."""
        return tuple(
            self.levels_base - geometry.levels_skipped_for(s)
            for s in geometry.all_levels
        )

    def _cycles(self, accesses: int, leaf: float, pwc: float) -> float:
        return (
            (1.0 - leaf)
            * (1.0 + (accesses - 1) * (1.0 - pwc))
            * self.mem_access_cycles
        )

    def native_table(self, geometry: PageGeometry) -> tuple[float, ...]:
        """Cycles of one native walk, keyed by leaf level."""
        leaf = geometry.leaf_cached_prob_for
        return tuple(
            self._cycles(n, leaf(s), self.pwc_hit_rate)
            for s, n in enumerate(self.depths(geometry))
        )

    def nested_table(self, geometry: PageGeometry) -> tuple[float, ...]:
        """Cycles of one 2D walk, keyed ``guest * n_levels + host``.

        With nG guest levels and nH host levels the 2D walk costs
        ``(nG + 1) * (nH + 1) - 1`` accesses: 24 for 4K+4K, 15 for 2M+2M,
        8 for 1G+1G — the numbers quoted in the paper's Section 2.  The
        gVA-side and EPT-side leaves are cached independently and the
        walker short-circuits once the rarer of the two hits (splintered
        walks reuse the cached dimension), so the leaf shortcut takes the
        smaller of the two probabilities, not their product.
        """
        depths = self.depths(geometry)
        leaf = geometry.leaf_cached_prob_for
        return tuple(
            self._cycles(
                (depths[g] + 1) * (depths[h] + 1) - 1,
                min(leaf(g), leaf(h)),
                self.nested_pwc_hit_rate,
            )
            for g in geometry.all_levels
            for h in geometry.all_levels
        )


@dataclass(frozen=True)
class CostModel:
    """Latency constants for OS work, in nanoseconds / bytes-per-ns.

    Calibrated to the paper's quoted numbers:

    * zero-fill bandwidth ~2.6 GB/s  => zeroing 1GB ~ 400 ms (sync 1GB fault)
    * mapped-fault fixed cost 2.7 ms for an (already-zeroed) 1GB fault
    * copy bandwidth ~1.8 GB/s       => copying 1GB ~ 600 ms (promotion)
    * hypercall 300 ns; per-page mapping exchange ~57 us unbatched
      (512 exchanges ~ 30 ms), ~0.97 us batched (512 ~ 500 us)
    """

    zero_bandwidth_bytes_per_ns: float = 2.6
    copy_bandwidth_bytes_per_ns: float = 1.8
    fault_fixed_ns: float = 1_000.0
    large_fault_mapped_ns: float = 2_700_000.0
    pte_update_ns: float = 150.0
    hypercall_ns: float = 300.0
    exchange_unbatched_ns: float = 57_000.0
    exchange_batched_ns: float = 970.0
    compaction_scan_per_frame_ns: float = 30.0

    def zero_ns(self, nbytes: int) -> float:
        """Time to zero ``nbytes`` of memory."""
        return nbytes / self.zero_bandwidth_bytes_per_ns

    def copy_ns(self, nbytes: int) -> float:
        """Time to copy ``nbytes`` of memory."""
        return nbytes / self.copy_bandwidth_bytes_per_ns

    def scaled_for(self, geometry: "PageGeometry") -> "CostModel":
        """Cost model whose *totals* stay real-time under a scaled geometry.

        One scaled operation aggregates many real operations: a scaled large
        page is one real 1GB page, but a scaled base page stands for
        ``byte_factor`` real 4KB pages and a scaled mid page for
        ``mid_factor`` real 2MB pages.  Dividing the byte-proportional
        bandwidths by ``byte_factor`` makes the total OS time of any
        operation mix over a footprint equal to the real total (the mix
        covers the same real bytes); per-mid-operation constants (hypercall
        exchanges, PTE updates) scale by ``mid_factor``.  Per-real-operation
        constants (the pooled 1GB fault latency, the hypercall world switch)
        are unchanged.  For the real x86 geometry this is the identity.
        """
        byte_factor = X86_GEOMETRY.large_size // geometry.large_size
        if byte_factor <= 1:
            return self
        mid_factor = max(
            1, X86_GEOMETRY.mids_per_large // geometry.mids_per_large
        )
        return replace(
            self,
            zero_bandwidth_bytes_per_ns=self.zero_bandwidth_bytes_per_ns
            / byte_factor,
            copy_bandwidth_bytes_per_ns=self.copy_bandwidth_bytes_per_ns
            / byte_factor,
            compaction_scan_per_frame_ns=self.compaction_scan_per_frame_ns
            * byte_factor,
            pte_update_ns=self.pte_update_ns * mid_factor,
            exchange_batched_ns=self.exchange_batched_ns * mid_factor,
            exchange_unbatched_ns=self.exchange_unbatched_ns * mid_factor,
        )


@dataclass(frozen=True)
class MachineConfig:
    """A simulated machine: geometry (with its TLB shapes), physical memory,
    walk and cost parameters."""

    geometry: PageGeometry = SCALED_GEOMETRY
    total_frames: int = 1 << 16  # 256MB at 4KB frames under SCALED_GEOMETRY
    walk: WalkConfig = field(default_factory=WalkConfig)
    cost: CostModel = field(default_factory=CostModel)
    #: Fraction of physical memory reserved for unmovable kernel allocations
    #: sprinkled across regions at boot (inodes, DMA buffers, ...).
    kernel_unmovable_fraction: float = 0.01

    def __post_init__(self) -> None:
        if self.total_frames <= 0:
            raise ValueError("total_frames must be positive")
        if self.total_frames % self.geometry.frames_per_large:
            raise ValueError(
                "total_frames must be a whole number of large regions: "
                f"{self.total_frames} % {self.geometry.frames_per_large} != 0"
            )

    @property
    def total_bytes(self) -> int:
        return self.total_frames * self.geometry.base_size

    @property
    def n_large_regions(self) -> int:
        return self.total_frames // self.geometry.frames_per_large

    def scaled(self, total_frames: int) -> "MachineConfig":
        """A copy of this config with a different memory size."""
        return replace(self, total_frames=total_frames)


def default_machine(
    total_large_regions: int = 64, geometry: PageGeometry = SCALED_GEOMETRY
) -> MachineConfig:
    """A machine with ``total_large_regions`` large-page-sized regions.

    The paper's testbed has 384GB / 1GB = 384 regions per machine and 192 per
    socket; 64 scaled regions keeps single-figure runs fast while leaving
    room for the same fragmentation dynamics.  The TLB shapes come with the
    geometry.
    """
    return MachineConfig(
        geometry=geometry,
        total_frames=total_large_regions * geometry.frames_per_large,
        cost=CostModel().scaled_for(geometry),
    )
