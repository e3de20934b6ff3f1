"""The Trident-pv exchange hypercall: guest-side interface and cost model.

Section 6: the guest passes lists of source and target gPAs through two
pre-defined shared pages; a single (batched) hypercall exchanges all 512
mappings needed to assemble a 1GB region, in ~500 us instead of the ~600 ms
a copy-based promotion costs.  Without batching, one hypercall per exchange
costs ~30 ms total.
"""

from __future__ import annotations

from repro.config import CostModel
from repro.obs import Observability
from repro.virt.hypervisor import Hypervisor


class PVExchangeInterface:
    """What a paravirtualized guest kernel sees of the exchange hypercall."""

    #: how many (source, target) addresses fit in the two shared 4KB pages
    BATCH_CAPACITY = 512

    def __init__(
        self, hypervisor: Hypervisor, cost: CostModel, obs: Observability | None = None
    ) -> None:
        self.hypervisor = hypervisor
        self.cost = cost
        self.hypercalls = 0
        self.exchanges = 0
        self.time_ns = 0.0
        if obs is None:
            obs = Observability()
        self._clock = obs.clock
        self._spans = obs.spans

    def exchange(
        self, pairs: list[tuple[int, int, int]], batched: bool = True
    ) -> float:
        """Exchange gPA mappings for (gpa_src, gpa_dst, nbytes) pairs.

        Returns the ns the guest spends in the hypercall path.  With
        batching, pairs are shipped ``BATCH_CAPACITY`` at a time through the
        shared pages; unbatched, every exchanged mapping pays its own
        guest/host world switch.
        """
        if not pairs:
            return 0.0
        count = self.hypervisor.exchange_ranges(pairs)
        self.exchanges += count
        if batched:
            calls = -(-count // self.BATCH_CAPACITY)
            spent = calls * self.cost.hypercall_ns + count * self.cost.exchange_batched_ns
        else:
            calls = count
            spent = count * (self.cost.hypercall_ns + self.cost.exchange_unbatched_ns)
        self.hypercalls += calls
        self.time_ns += spent
        if spent > 0.0:
            # Leaf site on the simulated-time axis: callers (compaction,
            # pv promotion) account this ns inside their own totals and
            # advance only their residual on top.
            self._clock.advance(spent)
            spans = self._spans
            if spans.enabled:
                spans.record_complete(
                    "pv_exchange", spent, calls=calls, pairs=count
                )
        return spent

    # -- microbenchmark helpers (Section 6 latency numbers) -----------------
    def copy_promotion_ns(self, nbytes: int) -> float:
        """Latency of promoting ``nbytes`` the traditional copy-based way."""
        return self.cost.copy_ns(nbytes)

    def pv_promotion_ns(self, n_exchanges: int, batched: bool) -> float:
        """Analytic pv promotion latency without touching the hypervisor."""
        if batched:
            calls = -(-n_exchanges // self.BATCH_CAPACITY)
            return calls * self.cost.hypercall_ns + n_exchanges * self.cost.exchange_batched_ns
        return n_exchanges * (self.cost.hypercall_ns + self.cost.exchange_unbatched_ns)
