"""Hundreds-to-thousands of tenants churning shared NUMA allocators.

The service fleet (:mod:`repro.service.fleet`) isolates every tenant on
its own machine; this module models the other end of the consolidation
spectrum — many tenant processes sharing one machine's per-node buddy
pools, where one tenant's mmap/munmap churn fragments the contiguity the
next tenant's huge pages need.  That is the regime the ROADMAP's
production fleet lives in, and the regime Trident's FMFI + smart
compaction story is about.

Scaling comes from *sharding*: ``tenants`` processes split round-robin
over ``shards`` independent machines, each shard a pure function of
``(root seed, shard id)`` via :func:`derive_seed`, executed on the sweep
orchestrator's process pool and merged in canonical shard order.  An
N-tenant run is therefore byte-identical at any ``--jobs`` count — the
same contract the sweep and service layers already keep, extended here
to the multi-tenant machine (pinned by
``tests/sim/test_multitenant.py``).

Churn model, per tenant and round (all draws from the tenant's own
seeded generator, so tenants are order-independent within a round):

* with probability ``churn_prob`` the oldest segment is unmapped and a
  fresh one (2-16 mid pages) mapped — the fragmentation driver;
* one random-access burst of ``accesses_per_round`` touches lands on a
  randomly chosen live segment through the vectorized ``touch_batch``
  hot path, faulting memory in on the tenant's home node.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from repro.config import default_machine
from repro.experiments.configs import policy_factory, resolve_policy
from repro.experiments.orchestrator import UnitSpec, derive_seed, execute_units
from repro.mem.numa import NumaTopology
from repro.obs import Observability
from repro.sim.system import System

#: worker target resolved by the orchestrator's process pool
SHARD_TARGET = "repro.sim.multitenant:run_shard_unit"


@dataclass
class MultiTenantConfig:
    """Knobs for ``repro tenants`` — one consolidated multi-tenant run."""

    tenants: int = 64
    shards: int = 8
    policy: str = "Trident"
    rounds: int = 4
    accesses_per_round: int = 2000
    churn_prob: float = 0.5
    max_segments: int = 4
    #: machine capacity per shard, in large regions per resident tenant
    regions_per_tenant: float = 1.5
    numa_nodes: int = 1
    numa_remote_multiplier: float = 1.4
    pt_replication: bool = False
    audit: bool = False
    seed: int = 7
    jobs: int = 1
    out_dir: str = "report/tenants"
    timeout_s: float = 900.0
    #: directory receiving one ``shardNNNN.prom`` scrape stream per shard
    telemetry_out: str | None = None
    #: simulated milliseconds between scrape frames
    telemetry_interval_ms: float = 1.0


def shard_id(config: MultiTenantConfig, shard: int) -> str:
    """Stable shard identity — the seed-derivation key."""
    return f"tenants:{config.policy}:n{config.tenants}:shard{shard}"


def shard_tenants(config: MultiTenantConfig, shard: int) -> list[int]:
    """Round-robin tenant ids owned by ``shard``."""
    return list(range(shard, config.tenants, config.shards))


class MultiTenantMachine:
    """One shard: many tenant processes sharing one (NUMA) ``System``."""

    #: warn-once keys for oversubscribed shards (cleared by tests via
    #: :meth:`reset_warned`)
    _warned_keys: set = set()

    def __init__(
        self,
        tenant_ids: list[int],
        policy: str = "Trident",
        seed: int = 0,
        numa_nodes: int = 1,
        numa_remote_multiplier: float = 1.4,
        pt_replication: bool = False,
        regions_per_tenant: float = 1.5,
        max_segments: int = 4,
        audit: bool = False,
    ) -> None:
        if not tenant_ids:
            raise ValueError("shard has no tenants")
        self.tenant_ids = list(tenant_ids)
        self.seed = seed
        self.max_segments = max_segments
        topology = (
            NumaTopology(
                nodes=numa_nodes, remote_multiplier=numa_remote_multiplier
            )
            if numa_nodes > 1
            else None
        )
        nodes = numa_nodes if numa_nodes > 1 else 1
        regions = max(nodes, int(len(tenant_ids) * regions_per_tenant) + 1)
        regions += (-regions) % nodes  # whole regions per node
        machine = default_machine(regions)
        self.system = System(
            machine,
            policy_factory(resolve_policy(policy)),
            seed=seed,
            obs=Observability(),
            numa=topology,
            pt_replication=pt_replication,
        )
        if audit:
            from repro.lint.invariants import attach_auditor

            attach_auditor(self.system)
        self.geometry = machine.geometry
        self._warn_if_oversubscribed(machine)
        self._churn_prob = 0.5
        #: tenant id -> (process, rng, segments[(addr, nbytes)])
        self._tenants: dict[int, tuple] = {}
        for tid in self.tenant_ids:
            process = self.system.create_process(
                f"tenant{tid}", home_node=tid % nodes
            )
            rng = np.random.default_rng(derive_seed(seed, f"tenant{tid}"))
            self._tenants[tid] = (process, rng, [])

    @classmethod
    def reset_warned(cls) -> None:
        """Clear the warn-once state (test isolation fixture hook)."""
        cls._warned_keys.clear()

    def _warn_if_oversubscribed(self, machine) -> None:
        peak = (
            len(self.tenant_ids)
            * self.max_segments
            * 16  # largest segment draw, in mid pages
            * self.geometry.mid_size
        )
        if peak <= 0.9 * machine.total_bytes:
            return
        key = f"tenants={len(self.tenant_ids)}:frames={machine.total_frames}"
        if key in self._warned_keys:
            return
        self._warned_keys.add(key)
        warnings.warn(
            f"shard oversubscribed: {len(self.tenant_ids)} tenants may peak "
            f"at {peak} bytes against {machine.total_bytes} physical "
            "(raise regions_per_tenant)",
            RuntimeWarning,
            stacklevel=2,
        )

    # -- the churn loop ---------------------------------------------------
    def _churn_tenant(self, tid: int) -> None:
        process, rng, segments = self._tenants[tid]
        if float(rng.random()) < self._churn_prob and segments:
            if len(segments) >= self.max_segments:
                addr, _ = segments.pop(0)
                self.system.sys_munmap(process, addr)
        if len(segments) < self.max_segments:
            nbytes = int(rng.integers(2, 17)) * self.geometry.mid_size
            addr = self.system.sys_mmap(process, nbytes)
            segments.append((addr, nbytes))

    def _touch_tenant(self, tid: int, accesses: int) -> None:
        process, rng, segments = self._tenants[tid]
        addr, nbytes = segments[int(rng.integers(0, len(segments)))]
        offsets = rng.integers(0, nbytes // 8, size=accesses) * 8
        self.system.touch_batch(process, addr + offsets.astype(np.int64))

    def run_round(self, accesses_per_round: int, churn_prob: float) -> None:
        """One deterministic round-robin pass over every tenant."""
        self._churn_prob = churn_prob
        for tid in self.tenant_ids:
            self._churn_tenant(tid)
            self._touch_tenant(tid, accesses_per_round)
        self.system.run_daemons()

    def run(
        self, rounds: int, accesses_per_round: int, churn_prob: float
    ) -> dict:
        """Drive the full churn schedule; returns the shard's record."""
        for _ in range(rounds):
            self.run_round(accesses_per_round, churn_prob)
        self.system.settle(ticks=10)
        if self.system.auditor is not None:
            self.system.auditor.audit()
        return self.record()

    # -- results ----------------------------------------------------------
    def record(self) -> dict:
        """JSON-able shard record: per-tenant stats + machine state."""
        system = self.system
        buddy = system.buddy
        nodes = getattr(buddy, "nodes", 1)
        tenants = []
        for tid in self.tenant_ids:
            process, _, segments = self._tenants[tid]
            tenants.append(
                {
                    "tenant": tid,
                    "home_node": process.home_node,
                    "faults": process.faults,
                    "accesses": process.tlb.stats.accesses,
                    "walks": process.tlb.stats.walks,
                    "mapped_bytes": process.mapped_bytes,
                    "segments": len(segments),
                    # contiguity available where this tenant allocates
                    "home_fmfi": (
                        buddy.node_fmfi(process.home_node)
                        if nodes > 1
                        else system.fmfi
                    ),
                }
            )
        machine: dict = {
            "clock_ns": system.clock.now_ns,
            "fmfi": system.fmfi,
            "free_frames": buddy.free_frames,
            "faults": sum(t["faults"] for t in tenants),
            "accesses": sum(t["accesses"] for t in tenants),
        }
        if nodes > 1:
            machine["node_free_frames"] = [
                buddy.node_free_frames(n) for n in range(nodes)
            ]
            machine["node_fmfi"] = [buddy.node_fmfi(n) for n in range(nodes)]
            snap = system.obs.metrics.snapshot()
            machine["numa_counters"] = {
                name: value
                for name, value in sorted(snap["counters"].items())
                if name.startswith("numa_")
            }
            machine["numa_node_gauges"] = {
                name: value
                for name, value in sorted(snap["gauges"].items())
                if name.startswith("numa_")
            }
        if system.auditor is not None:
            machine["audit_runs"] = system.auditor.audits
            machine["audit_checks"] = system.auditor.checks
            machine["audit_violations"] = system.auditor.violations
        return {"tenants": tenants, "machine": machine}


def run_shard(
    shard: int,
    tenant_ids: list[int],
    policy: str,
    seed: int,
    rounds: int,
    accesses_per_round: int,
    churn_prob: float,
    max_segments: int,
    regions_per_tenant: float,
    numa_nodes: int,
    numa_remote_multiplier: float,
    pt_replication: bool,
    audit: bool,
    telemetry_out: str | None = None,
    telemetry_interval_ms: float = 1.0,
) -> dict:
    """One shard, as a pure function of its arguments (the worker body).

    With ``telemetry_out`` set, the shard's registry is additionally
    scraped on the simulated-clock cadence into one ``.prom`` stream —
    the record itself is unchanged, so telemetry never perturbs the
    byte-determinism of the manifest.
    """
    machine = MultiTenantMachine(
        tenant_ids,
        policy=policy,
        seed=seed,
        numa_nodes=numa_nodes,
        numa_remote_multiplier=numa_remote_multiplier,
        pt_replication=pt_replication,
        regions_per_tenant=regions_per_tenant,
        max_segments=max_segments,
        audit=audit,
    )
    scraper = None
    if telemetry_out:
        from repro.obs.telemetry import ScrapeFileSink, TelemetryScraper

        obs = machine.system.obs
        scraper = TelemetryScraper(
            obs.clock,
            obs.metrics,
            ScrapeFileSink(telemetry_out),
            interval_ms=telemetry_interval_ms,
        )
    record = machine.run(rounds, accesses_per_round, churn_prob)
    if scraper is not None:
        scraper.close()
    record["shard"] = shard
    return record


def run_shard_unit(out_path: str, **kwargs) -> dict:
    """Worker target: run one shard, persist its record, report outputs."""
    record = run_shard(**kwargs)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    return {"outputs": [out_path]}


def build_shard_specs(config: MultiTenantConfig) -> list:
    """One :class:`UnitSpec` per shard, seeds derived per shard id."""
    specs: list[UnitSpec] = []
    for shard in range(config.shards):
        tenant_ids = shard_tenants(config, shard)
        if not tenant_ids:
            continue
        unit_id = shard_id(config, shard)
        seed = derive_seed(config.seed, unit_id)
        kwargs = {
            "shard": shard,
            "tenant_ids": tenant_ids,
            "policy": config.policy,
            "seed": seed,
            "rounds": config.rounds,
            "accesses_per_round": config.accesses_per_round,
            "churn_prob": config.churn_prob,
            "max_segments": config.max_segments,
            "regions_per_tenant": config.regions_per_tenant,
            "numa_nodes": config.numa_nodes,
            "numa_remote_multiplier": config.numa_remote_multiplier,
            "pt_replication": config.pt_replication,
            "audit": config.audit,
            **(
                {
                    "telemetry_out": os.path.join(
                        config.telemetry_out, f"shard{shard:04d}.prom"
                    ),
                    "telemetry_interval_ms": config.telemetry_interval_ms,
                }
                if config.telemetry_out
                else {}
            ),
            "out_path": os.path.join(
                config.out_dir, "shards", f"shard{shard:04d}.json"
            ),
        }
        specs.append(
            UnitSpec(
                unit_id=unit_id,
                target=SHARD_TARGET,
                kwargs=kwargs,
                seed=seed,
                timeout_s=config.timeout_s,
            )
        )
    return specs


def run_multi_tenant(config: MultiTenantConfig, progress=None) -> dict:
    """Run every shard on the pool engine and compile the manifest.

    The manifest is a pure function of (config, seed): shards merge in
    canonical order from their JSON records, wall-clock facts are
    excluded, so ``jobs=1`` and ``jobs=N`` produce identical bytes.
    """
    if config.tenants < 1:
        raise ValueError("need at least one tenant")
    if config.shards < 1:
        raise ValueError("need at least one shard")
    os.makedirs(config.out_dir, exist_ok=True)
    specs = build_shard_specs(config)
    results = execute_units(specs, jobs=config.jobs, progress=progress)
    failed = [
        f"{unit_id} ({results[unit_id].status}: {results[unit_id].error})"
        for unit_id in sorted(results)
        if results[unit_id].status != "ok"
    ]
    if failed:
        raise RuntimeError(
            f"{len(failed)} tenant shard(s) failed: " + "; ".join(failed)
        )
    records = []
    for spec in specs:
        with open(spec.kwargs["out_path"]) as f:
            records.append(json.load(f))
    manifest = build_manifest(config, records)
    path = os.path.join(config.out_dir, "tenants_manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def build_manifest(config: MultiTenantConfig, records: list) -> dict:
    """Merge shard records into the run manifest (deterministic bytes)."""
    cfg = asdict(config)
    # environment facts, not run parameters (telemetry_out is a host path)
    for env_key in ("jobs", "out_dir", "timeout_s", "telemetry_out"):
        cfg.pop(env_key)
    all_tenants = [t for r in records for t in r["tenants"]]
    totals = {
        "tenants": len(all_tenants),
        "faults": sum(t["faults"] for t in all_tenants),
        "accesses": sum(t["accesses"] for t in all_tenants),
        "mapped_bytes": sum(t["mapped_bytes"] for t in all_tenants),
        "mean_fmfi": (
            sum(r["machine"]["fmfi"] for r in records) / len(records)
            if records
            else 0.0
        ),
        "audit_checks": sum(
            r["machine"].get("audit_checks", 0) for r in records
        ),
        "audit_violations": sum(
            r["machine"].get("audit_violations", 0) for r in records
        ),
    }
    if config.numa_nodes > 1:
        nodes = config.numa_nodes
        totals["node_free_frames"] = [
            sum(r["machine"]["node_free_frames"][n] for r in records)
            for n in range(nodes)
        ]
        totals["mean_node_fmfi"] = [
            sum(r["machine"]["node_fmfi"][n] for r in records) / len(records)
            for n in range(nodes)
        ]
    return {
        "kind": "tenants_manifest",
        "config": cfg,
        "totals": totals,
        "shards": records,
    }
