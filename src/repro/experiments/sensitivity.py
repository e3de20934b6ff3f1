"""Sensitivity sweeps: how robust are the paper's conclusions?

Beyond-the-paper analysis: sweep the environment knobs the paper holds
fixed and check where Trident's advantage over THP grows, shrinks, or
inverts.

* **fragmentation severity** — residual page-cache fraction from 0 (fresh
  boot) to heavy: Trident's edge should grow with fragmentation (smart
  compaction) until memory is so full nothing can be compacted.
* **1GB TLB capacity** — the micro-architectural question the paper ends
  on ("motivates micro-architects to continue enhancing hardware support"):
  how much of the win needs how many 1GB TLB entries?
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import SCALE_FACTOR, SCALED_GEOMETRY, TLBConfig
from repro.experiments.report import print_and_save
from repro.experiments.runner import NativeRunner, RunConfig


def run_fragmentation_sweep(
    workload: str = "GUPS",
    residuals: tuple[float, ...] = (0.0, 0.15, 0.30, 0.45),
    n_accesses: int = 40_000,
    seed: int = 7,
) -> list[dict]:
    rows = []
    for residual in residuals:
        metrics = {}
        for policy in ("2MB-THP", "Trident"):
            cfg = RunConfig(
                workload,
                policy,
                fragmented=residual > 0,
                n_accesses=n_accesses,
                seed=seed,
                fragment_kwargs=dict(residual_fraction=residual),
            )
            metrics[policy] = NativeRunner(cfg).run()
        trident = metrics["Trident"]
        rows.append(
            {
                "residual_cache_fraction": residual,
                "trident_vs_thp": metrics["2MB-THP"].runtime_ns
                / trident.runtime_ns,
                "trident_1gb_gb": (trident.mapped_bytes_by_size or {}).get(
                    SCALED_GEOMETRY.top_level, 0
                )
                * SCALE_FACTOR
                / (1 << 30),
                "fault_large_fail_pct": (
                    100.0
                    * trident.fault_large_failures
                    / max(1, trident.fault_large_attempts)
                ),
            }
        )
    return rows


def run_tlb_capacity_sweep(
    workload: str = "GUPS",
    l2_large_entries: tuple[int, ...] = (4, 16, 64, 256),
    n_accesses: int = 40_000,
    seed: int = 7,
) -> list[dict]:
    """Sweep the 1GB L2 TLB size (16 on Skylake; 1024 on Ice Lake)."""
    rows = []
    base_metrics = NativeRunner(
        RunConfig(workload, "2MB-THP", n_accesses=n_accesses, seed=seed)
    ).run()
    for entries in l2_large_entries:
        groups = dict(SCALED_GEOMETRY.l2_groups)
        groups["large"] = TLBConfig(entries, 4)
        geometry = replace(SCALED_GEOMETRY, l2_groups=tuple(groups.items()))
        metrics = NativeRunner(
            RunConfig(
                workload,
                "Trident",
                n_accesses=n_accesses,
                seed=seed,
                geometry=geometry,
            )
        ).run()
        rows.append(
            {
                "l2_1gb_entries": entries,
                "trident_vs_thp": base_metrics.runtime_ns / metrics.runtime_ns,
                "walk_cycles_per_access": metrics.walk_cycles_per_access,
            }
        )
    return rows


CSV_NAME = ("sensitivity_fragmentation", "sensitivity_tlb")
TITLE = "Sensitivity: fragmentation severity and 1GB L2 TLB capacity"
QUICK_KWARGS = {"n_accesses": 6_000}


def run(n_accesses: int = 40_000, seed: int = 7) -> list[dict]:
    rows = []
    for row in run_fragmentation_sweep(n_accesses=n_accesses, seed=seed):
        rows.append({"sweep": "fragmentation", **row})
    for row in run_tlb_capacity_sweep(n_accesses=n_accesses, seed=seed):
        rows.append({"sweep": "tlb_capacity", **row})
    return rows


def main(quick: bool = False, seed: int = 7) -> None:
    kwargs = dict(QUICK_KWARGS) if quick else {}
    frag = run_fragmentation_sweep(seed=seed, **kwargs)
    print_and_save(
        frag, CSV_NAME[0], "Sensitivity: fragmentation severity (GUPS)"
    )
    tlb = run_tlb_capacity_sweep(seed=seed, **kwargs)
    print_and_save(tlb, CSV_NAME[1], "Sensitivity: 1GB L2 TLB capacity (GUPS)")


if __name__ == "__main__":
    main()
