"""Page-walk latency model.

On an L2 TLB miss the hardware walks the page table: up to 4 memory accesses
for a 4KB leaf, 3 for 2MB, 2 for 1GB (the paper's Section 2).  Page-walk
caches (PWCs) hold upper-level entries; we model them with an expected-value
discount — with probability ``pwc_hit_rate`` every level above the leaf is
cached, so the expected accesses per walk are::

    1 + (levels - 1) * (1 - pwc_hit_rate)

Nested (virtualized) walks use the 2D access counts 24 / 15 / 8 with the
same discount applied to the non-final accesses.
"""

from __future__ import annotations

from repro.config import WalkConfig


class PageWalker:
    """Deterministic expected-latency walker with accumulated statistics."""

    def __init__(self, config: WalkConfig) -> None:
        self.config = config
        self.walks = 0
        self.walk_cycles = 0.0
        #: level -> cycles of one native walk; the config is frozen
        self._native_cycles: dict[int, float] = {}

    def expected_accesses(
        self,
        accesses: int,
        leaf_cached: float = 0.0,
        pwc_hit_rate: float | None = None,
    ) -> float:
        """Expected memory accesses for a walk of ``accesses`` max accesses.

        With probability ``leaf_cached`` the leaf entry itself sits in a
        paging-structure cache and the walk costs nothing; otherwise the
        non-leaf accesses are discounted by the upper-level PWC hit rate.
        """
        if pwc_hit_rate is None:
            pwc_hit_rate = self.config.pwc_hit_rate
        miss = 1.0 - pwc_hit_rate
        full = 1.0 + (accesses - 1) * miss
        return (1.0 - leaf_cached) * full

    def native_walk_cycles(self, page_size: int) -> float:
        """Cycles one native walk to a ``page_size`` leaf costs (pure).

        Shared by the scalar path and the batch engine so both compute the
        identical float; the model is deterministic per page size.
        """
        accesses = self.config.native_walk_accesses(page_size)
        return (
            self.expected_accesses(
                accesses, self.config.leaf_cached_prob(page_size)
            )
            * self.config.mem_access_cycles
        )

    def native_walk(self, page_size: int) -> float:
        """Cycles for one native walk to a leaf of ``page_size``."""
        cycles = self._native_cycles.get(page_size)
        if cycles is None:
            cycles = self._native_cycles[page_size] = self.native_walk_cycles(
                page_size
            )
        self.walks += 1
        self.walk_cycles += cycles
        return cycles

    def nested_walk_cycles(self, guest_size: int, host_size: int) -> float:
        """Cycles one 2D walk with the given guest/host leaf sizes costs (pure).

        The leaf-cache shortcut applies when *both* dimensions' leaves are
        cached (the nested walk needs the guest leaf and its EPT leaf).
        """
        accesses = self.config.nested_walk_accesses(guest_size, host_size)
        # The gVA-side and EPT-side leaf entries are cached independently;
        # the nested walker short-circuits once the rarer of the two hits
        # (splintered walks reuse the cached dimension), so the effective
        # shortcut probability is the smaller of the two, not their product.
        leaf_cached = min(
            self.config.leaf_cached_prob(guest_size),
            self.config.leaf_cached_prob(host_size),
        )
        return (
            self.expected_accesses(
                accesses, leaf_cached, self.config.nested_pwc_hit_rate
            )
            * self.config.mem_access_cycles
        )

    def nested_walk(self, guest_size: int, host_size: int) -> float:
        """Cycles for one 2D walk with the given guest/host leaf sizes."""
        cycles = self.nested_walk_cycles(guest_size, host_size)
        self.walks += 1
        self.walk_cycles += cycles
        return cycles

    def reset_stats(self) -> None:
        self.walks = 0
        self.walk_cycles = 0.0
