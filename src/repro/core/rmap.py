"""Reverse mapping: from physical blocks back to whoever maps them.

Compaction relocates the contents of physical frames, which requires knowing
who references each block so the reference can be re-pointed — Linux's rmap.
Here an owner is anything implementing :class:`FrameOwner`: a process page
table (remap the VA and shoot down the TLB), the fragmentation injector's
page cache, or any test double.

Only *registered* movable blocks can be migrated.  A movable buddy block
with no rmap entry (e.g. the zero-fill pool) is treated as unmovable by
compaction, exactly like a page the kernel cannot migrate.
"""

from __future__ import annotations

from typing import Protocol


class FrameOwner(Protocol):
    """Object able to re-point its reference from one block to another."""

    def relocate(self, old_pfn: int, new_pfn: int, order: int) -> None:
        """Called after contents moved from ``old_pfn`` to ``new_pfn``."""
        ...


class ReverseMap:
    """pfn -> (order, owner) for every migratable allocation."""

    def __init__(self) -> None:
        self._owners: dict[int, tuple[int, FrameOwner]] = {}

    def __len__(self) -> int:
        return len(self._owners)

    def register(self, pfn: int, order: int, owner: FrameOwner) -> None:
        if pfn in self._owners:
            raise ValueError(f"pfn {pfn} already registered in rmap")
        self._owners[pfn] = (order, owner)

    def register_many(self, pfns: list[int], order: int, owner: FrameOwner) -> None:
        """:meth:`register` each of ``pfns`` in order, all for ``owner``."""
        fresh = set(pfns)
        if len(fresh) < len(pfns) or not fresh.isdisjoint(self._owners):
            seen: set[int] = set()
            for pfn in pfns:
                if pfn in seen or pfn in self._owners:
                    raise ValueError(f"pfn {pfn} already registered in rmap")
                seen.add(pfn)
        self._owners.update(dict.fromkeys(pfns, (order, owner)))

    def unregister(self, pfn: int) -> None:
        if pfn not in self._owners:
            raise ValueError(f"pfn {pfn} not registered in rmap")
        del self._owners[pfn]

    def lookup(self, pfn: int) -> tuple[int, FrameOwner] | None:
        """(order, owner) of the registered block starting at ``pfn``."""
        return self._owners.get(pfn)

    def moved(self, old_pfn: int, new_pfn: int) -> None:
        """Record that a registered block now starts at ``new_pfn``."""
        order, owner = self._owners.pop(old_pfn)
        self._owners[new_pfn] = (order, owner)
        owner.relocate(old_pfn, new_pfn, order)
