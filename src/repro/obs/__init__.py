"""Observability: metrics registry + tracer + simulated-time timeline.

One :class:`Observability` instance accompanies one simulated machine
(:class:`repro.sim.system.System` creates its own unless one is passed in).
Every machine component (the buddy allocator and NUMA pools, zero-fill,
regions, both compactors, the OS policies, the TLB units and the pv
exchange interface) is always instrumented: it resolves its bundle once at
construction, the machine's or a fresh one when built standalone, and holds
direct references to its counters, tracer and clock.  No hot path tests
whether observation is present; a disabled tracer costs one bool read.

The timeline layer adds a shared simulated-time axis: a :class:`SimClock`
advanced by cost-bearing operations, a :class:`SpanRecorder` for begin/end
latency attribution, and an optional :class:`TimelineSampler` snapshotting
gauges at a fixed simulated cadence.  See ``docs/observability.md`` for
the event schema, metric names, the clock-advancement discipline and
overhead notes, and ``repro metrics`` for the live catalog.
"""

from __future__ import annotations

from repro.obs.clock import SimClock
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    nearest_rank,
    parse_key,
    percentile_from_buckets,
    render_key,
)
from repro.obs.spans import NULL_SPAN, Span, SpanRecorder
from repro.obs.timeline import TimelineSampler, TimeSeries
from repro.obs.trace import RESERVED_FIELDS, SUBSYSTEMS, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "Observability",
    "SimClock",
    "Span",
    "SpanRecorder",
    "NULL_SPAN",
    "TimelineSampler",
    "TimeSeries",
    "SUBSYSTEMS",
    "RESERVED_FIELDS",
    "DEFAULT_BUCKETS",
    "METRIC_CATALOG",
    "render_key",
    "parse_key",
    "escape_label_value",
    "nearest_rank",
    "percentile_from_buckets",
]


class Observability:
    """The per-machine bundle: metrics, tracer, clock, spans, timeline."""

    def __init__(
        self,
        trace_subsystems: tuple[str, ...] | str = (),
        trace_capacity: int = 65536,
        timeline: bool = False,
        timeline_interval_ms: float = 0.5,
        timeline_max_points: int = 2048,
    ) -> None:
        if trace_subsystems == "all":
            trace_subsystems = SUBSYSTEMS
        self.metrics = MetricsRegistry()
        self.clock = SimClock()
        self.tracer = Tracer(
            capacity=trace_capacity,
            subsystems=trace_subsystems,
            clock=self.clock,
        )
        self.spans = SpanRecorder(self.clock, tracer=self.tracer, metrics=self.metrics)
        self.timeline: TimelineSampler | None = None
        if timeline:
            # The timeline implies the span stream: enable both so the
            # attribution table and the trace's span track are populated.
            self.spans.enabled = True
            self.tracer.enable("span")
            self.timeline = TimelineSampler(
                self.clock,
                interval_ms=timeline_interval_ms,
                max_points=timeline_max_points,
                metrics=self.metrics,
            )

    def timeline_export(self) -> dict:
        """The ``timeline`` section embedded in ``metrics.json``."""
        out: dict = {
            "clock_ns": self.clock.now_ns,
            "spans": self.spans.export(),
        }
        if self.timeline is not None:
            out["sampler"] = self.timeline.export()
        return out

    def write_metrics_json(self, path: str, extra: dict | None = None) -> str:
        """Snapshot the registry (and trace health) into one JSON file."""
        sections = {"trace": self.tracer.summary()}
        if self.spans.enabled or self.timeline is not None:
            sections["timeline"] = self.timeline_export()
        if extra:
            sections.update(extra)
        return self.metrics.write_json(path, extra=sections)


#: (name, kind, labels, description) for every permanently instrumented
#: metric — what ``repro metrics`` prints.  Collector-mirrored metrics are
#: authoritative copies of the simulator's own stats structs, so figures
#: built from either source agree by construction.
METRIC_CATALOG: tuple[tuple[str, str, str, str], ...] = (
    # buddy allocator (incrementally maintained)
    ("buddy_alloc_total", "counter", "order", "block allocations at order"),
    ("buddy_free_total", "counter", "order", "block frees at order"),
    ("buddy_split_total", "counter", "", "block splits while allocating"),
    ("buddy_coalesce_total", "counter", "", "buddy merges while freeing"),
    ("buddy_free_blocks", "gauge", "order", "free-list depth at order"),
    ("buddy_free_frames", "gauge", "", "total free base frames"),
    # zero-fill engine (incrementally maintained)
    ("zerofill_fill_total", "counter", "", "blocks pre-zeroed into the pool"),
    ("zerofill_take_hit_total", "counter", "", "take_zeroed served from pool"),
    ("zerofill_take_miss_total", "counter", "", "take_zeroed on empty pool"),
    ("zerofill_release_total", "counter", "", "blocks released under pressure"),
    ("zerofill_credit_dropped_ns_total", "counter", "", "zeroing credit surrendered"),
    ("zerofill_pool_size", "gauge", "", "pre-zeroed blocks currently pooled"),
    # compaction (incrementally maintained)
    ("compaction_attempt_total", "counter", "kind", "compact() calls"),
    ("compaction_success_total", "counter", "kind", "attempts that produced a block"),
    ("compaction_bytes_copied_total", "counter", "kind", "bytes physically copied"),
    ("compaction_bytes_exchanged_total", "counter", "kind", "bytes moved via pv exchange"),
    ("compaction_wasted_bytes_total", "counter", "kind", "bytes copied then abandoned"),
    ("compaction_blocks_moved_total", "counter", "kind", "blocks migrated"),
    ("compaction_regions_freed_total", "counter", "kind", "source regions fully evacuated"),
    ("compaction_abort_total", "counter", "kind,reason", "evacuations aborted, by reason"),
    # region counters (collector-mirrored from RegionTracker)
    ("regions_fully_free", "gauge", "", "large regions with every frame free"),
    ("regions_with_unmovable", "gauge", "", "large regions pinned by unmovable frames"),
    # policy layer (collector-mirrored from PolicyStats)
    ("policy_faults_total", "counter", "", "page faults handled"),
    ("policy_fault_ns_total", "counter", "", "cumulative fault latency"),
    ("policy_fault_mapped_total", "counter", "size", "fault-time mappings by page size"),
    ("policy_promoted_total", "counter", "size", "promotions by target page size"),
    ("policy_demoted_total", "counter", "size", "demotions by source page size"),
    ("policy_fault_large_attempts_total", "counter", "", "1GB attempts at fault time"),
    ("policy_fault_large_failures_total", "counter", "", "1GB fault attempts that fell back"),
    ("policy_promo_large_attempts_total", "counter", "", "1GB promotion attempts"),
    ("policy_promo_large_failures_total", "counter", "", "1GB promotions that fell back"),
    ("policy_promo_copy_bytes_total", "counter", "", "bytes copied by promotion"),
    ("policy_daemon_ns_total", "counter", "", "background daemon CPU consumed"),
    ("policy_bloat_recovered_bytes_total", "counter", "", "bloat bytes recovered"),
    # TLB (histogram incremental; totals collector-mirrored)
    ("tlb_walk_cycles", "histogram", "size", "page-walk latency distribution"),
    ("tlb_accesses_total", "counter", "", "translations requested"),
    ("tlb_l1_hits_total", "counter", "", "L1 TLB hits"),
    ("tlb_l2_hits_total", "counter", "", "L2 TLB hits"),
    ("tlb_walks_total", "counter", "size", "page walks by page size"),
    # system-level (collector-mirrored)
    ("system_fmfi", "gauge", "", "free-memory fragmentation index at large order"),
    ("system_daemon_ns_total", "counter", "", "daemon ns across all ticks"),
    # NUMA layer (repro.mem.numa + System penalties; multi-node runs only)
    ("numa_alloc_local_total", "counter", "", "allocations placed on the preferred node"),
    ("numa_alloc_remote_total", "counter", "", "allocations spilled to a remote node"),
    ("numa_remote_walk_penalty_ns_total", "counter", "", "extra ns for remote page walks"),
    ("numa_remote_access_penalty_ns_total", "counter", "", "extra ns for remote data accesses"),
    ("numa_replica_updates_total", "counter", "", "page-table replica entries written"),
    ("numa_replica_update_ns_total", "counter", "", "ns spent maintaining pt replicas"),
    ("numa_node_free_frames", "gauge", "node", "free frames on one NUMA node"),
    ("numa_node_fmfi", "gauge", "node", "per-node fragmentation index at large order"),
    # simulated-time timeline layer (repro.obs.clock/spans/timeline)
    ("sim_clock_ns", "gauge", "", "simulated clock position at snapshot"),
    ("span_duration_ns", "histogram", "kind", "span durations by span kind"),
    ("timeline_samples_total", "counter", "", "timeline sampling instants taken"),
    # invariant audit layer (repro.lint.invariants; --audit runs only)
    ("audit_runs_total", "counter", "", "sampled invariant audits executed"),
    ("audit_checks_total", "counter", "", "elementary invariant checks performed"),
    ("audit_violations_total", "counter", "", "invariant violations detected"),
    # service layer (repro.service; loadgen/serve runs only)
    ("service_requests_total", "counter", "workload,policy", "service requests completed"),
    ("service_slo_violations_total", "counter", "workload,policy", "requests over the SLO bound"),
    ("service_request_latency_ns", "histogram", "workload,policy", "request latency incl. queueing"),
    ("service_queue_delay_ns", "histogram", "workload,policy", "open-loop queueing delay"),
    ("service_queue_depth", "gauge", "workload,policy", "requests arrived but not completed"),
    ("service_completed_requests", "gauge", "workload,policy", "requests completed so far"),
    # telemetry pipeline (repro.obs.telemetry; scrape-enabled runs only)
    ("telemetry_frames_total", "counter", "", "scrape frames rendered"),
    ("alert_transitions_total", "counter", "rule", "alert firing/resolved transitions"),
    ("alerts_active", "gauge", "", "alert instances currently firing"),
)
