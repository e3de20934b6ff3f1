"""A set-associative, LRU-replacement TLB.

One instance models one hardware structure (e.g. Skylake's 32-entry 4-way L1
dTLB for 2MB pages).  Keys are virtual page numbers at the structure's page
granularity; the set index is the VPN modulo the number of sets, LRU is exact
within a set (dict insertion order, refreshed on hit).
"""

from __future__ import annotations

from repro.config import TLBConfig


class SetAssocTLB:
    """Set-associative TLB storing VPN tags with exact per-set LRU."""

    __slots__ = ("entries", "ways", "sets", "_sets", "hits", "misses")

    def __init__(self, config: TLBConfig) -> None:
        self.entries = config.entries
        self.ways = config.ways
        self.sets = config.sets
        # One ordered dict per set: key = vpn, value unused; order = LRU.
        self._sets: list[dict[int, None]] = [dict() for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> bool:
        """Probe for ``vpn``; refreshes LRU on hit."""
        s = self._sets[vpn % self.sets]
        if vpn in s:
            # Refresh recency: move to the back of the insertion order.
            del s[vpn]
            s[vpn] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, vpn: int) -> None:
        """Fill ``vpn``, evicting the set's LRU entry if full."""
        s = self._sets[vpn % self.sets]
        if vpn in s:
            del s[vpn]
        elif len(s) >= self.ways:
            del s[next(iter(s))]  # least-recently-used = first inserted
        s[vpn] = None

    def invalidate(self, vpn: int) -> bool:
        """Drop ``vpn`` if present (page remap / promotion shootdown)."""
        s = self._sets[vpn % self.sets]
        if vpn in s:
            del s[vpn]
            return True
        return False

    def invalidate_resident(self, first: int, last: int) -> None:
        """Drop every resident vpn in [first, last]; the rest keep LRU order."""
        for s in self._sets:
            for vpn in [v for v in s if first <= v <= last]:
                del s[vpn]

    def flush(self) -> None:
        """Drop everything (context switch / full shootdown)."""
        for s in self._sets:
            s.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
