"""Hot-path microbenchmark: ``touch_batch`` vectorized vs the scalar loop.

``repro bench`` replays the same warm zipf address stream through two
otherwise-identical systems — one with :attr:`System.batch_hot_path`
enabled (the vectorized engine in :mod:`repro.sim.batch`) and one with
it disabled (the per-access scalar loop) — and reports throughput for
each plus the speedup.  Because the batched engine must be
counter-for-counter identical to the scalar path, the bench also
fingerprints the complete simulation state after both runs and fails
if any counter, TLB set ordering, histogram, or accessed bit differs.

The JSON report (``BENCH_hotpath.json`` by default) is the artifact CI
uploads; the exit status gates on both the counter match and
``--min-speedup``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Any

import numpy as np

from repro.config import default_machine
from repro.experiments.configs import policy_factory, resolve_policy
from repro.sim.system import System
from repro.workloads.access import zipf

#: policies benched by default: the paper's headline mechanism plus the
#: two ends of the page-size spectrum it is compared against.
DEFAULT_POLICIES = ("Trident", "2MB-THP", "4KB")

#: floor below which a speedup ratio is timer noise rather than signal:
#: the timed region must cover this many accesses AND this much scalar
#: wall time before ``--min-speedup`` may gate on it.
MIN_GATE_ACCESSES = 1_000
MIN_GATE_SECONDS = 1e-3


def state_fingerprint(system: System, process) -> dict[str, Any]:
    """Every piece of simulation state the batched path must reproduce.

    Used both by the bench's equivalence gate and by the committed
    equivalence test suite.  Includes per-set TLB dict *ordering* (LRU
    recency), walk-latency histograms, and page-table accessed bits —
    not just the aggregate counters — so "close enough" cannot pass.
    """
    tlb = process.tlb
    st = tlb.stats
    d: dict[str, Any] = {
        "accesses": st.accesses,
        "l1_hits": st.l1_hits,
        "l2_hits": st.l2_hits,
        "walks": st.walks,
        "walks_by_size": dict(st.walks_by_size),
        "translation_cycles": st.translation_cycles,
        "walk_cycles": st.walk_cycles,
        # The walk counters again, under the key the committed digests hash.
        "walker": (st.walks, st.walk_cycles),
        "clock_ns": system.obs.clock.now_ns,
        "faults": process.faults,
        "fault_ns": system.policy.stats.fault_ns,
        "touched_pages": len(process.touched_pages),
        "since_daemon": system._accesses_since_daemon,
    }
    structs = {f"l1:{size}": t for size, t in tlb.l1.items()}
    for group, t in tlb.l2.items():
        structs[f"l2_{group}"] = t
    for name, t in structs.items():
        d[f"tlb:{name}"] = (t.hits, t.misses, [list(s.keys()) for s in t._sets])
    for size, h in tlb._h_walk.items():
        d[f"hist:{size}"] = (h.count, h.sum, list(h.bucket_counts))
    for size in range(process.pagetable.n_levels):
        level = process.pagetable._levels[size]
        d[f"accessed:{size}"] = sorted(
            vpn for vpn, m in level.items() if m.accessed
        )
    return d


def _counters_digest(fp: dict[str, Any]) -> dict[str, Any]:
    """The headline counters recorded in the JSON report."""
    return {
        key: fp[key]
        for key in (
            "accesses",
            "l1_hits",
            "l2_hits",
            "walks",
            "translation_cycles",
            "walk_cycles",
            "faults",
            "clock_ns",
            "touched_pages",
        )
    }


def _timed_run(
    policy_name: str,
    *,
    batched: bool,
    accesses: int,
    warmup: int,
    footprint: int,
    regions: int,
    seed: int,
    stream_seed: int,
) -> tuple[float, float, dict[str, Any]]:
    """One warm run; returns (M accesses/s, elapsed s, state fingerprint)."""
    factory = policy_factory(resolve_policy(policy_name))
    system = System(default_machine(regions), factory, seed=seed)
    system.batch_hot_path = batched
    process = system.create_process()
    base = system.sys_mmap(process, footprint)
    rng = np.random.default_rng(stream_seed)
    stream = zipf(rng, base, footprint, accesses)
    # Warm: first-touch every base page so the timed region is fault-free,
    # then replay a stream prefix to settle promotions and heat the TLBs.
    system.touch_batch(
        process, base + np.arange(0, footprint, 4096, dtype=np.int64)
    )
    system.touch_batch(process, stream[:warmup])
    t0 = time.perf_counter()
    system.touch_batch(process, stream[warmup:])
    elapsed = time.perf_counter() - t0
    # A tiny timed region can finish inside the timer's resolution;
    # report infinite throughput rather than dividing by zero and let
    # the gate-eligibility check downstream reject the run.
    mps = (accesses - warmup) / elapsed / 1e6 if elapsed > 0.0 else math.inf
    return mps, elapsed, state_fingerprint(system, process)


def bench_policy(
    policy_name: str,
    *,
    accesses: int = 1_000_000,
    footprint: int = 32 * 1024 * 1024,
    regions: int = 64,
    seed: int = 5,
    stream_seed: int = 42,
) -> dict[str, Any]:
    """Bench one policy batched vs scalar on the same stream."""
    warmup = min(200_000, accesses // 5)
    batch_mps, batch_s, batch_fp = _timed_run(
        policy_name,
        batched=True,
        accesses=accesses,
        warmup=warmup,
        footprint=footprint,
        regions=regions,
        seed=seed,
        stream_seed=stream_seed,
    )
    scalar_mps, scalar_s, scalar_fp = _timed_run(
        policy_name,
        batched=False,
        accesses=accesses,
        warmup=warmup,
        footprint=footprint,
        regions=regions,
        seed=seed,
        stream_seed=stream_seed,
    )
    counters_match = batch_fp == scalar_fp
    mismatched = (
        []
        if counters_match
        else sorted(k for k in batch_fp if batch_fp[k] != scalar_fp[k])
    )
    timed = accesses - warmup
    # A speedup ratio is only meaningful when both wall times are well
    # above the timer floor; ``None`` marks an un-gateable measurement.
    gateable = (
        timed >= MIN_GATE_ACCESSES
        and scalar_s >= MIN_GATE_SECONDS
        and batch_s > 0.0
    )
    speedup = (
        round(batch_mps / scalar_mps, 2)
        if batch_s > 0.0 and scalar_s > 0.0
        else None
    )
    return {
        "policy": resolve_policy(policy_name),
        "warmup_accesses": warmup,
        "timed_accesses": timed,
        "batch_mps": round(batch_mps, 3) if math.isfinite(batch_mps) else None,
        "scalar_mps": (
            round(scalar_mps, 3) if math.isfinite(scalar_mps) else None
        ),
        "speedup": speedup,
        "gateable": gateable,
        "counters_match": counters_match,
        "mismatched_keys": mismatched,
        "counters": _counters_digest(batch_fp),
    }


def run_bench(
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    *,
    accesses: int = 1_000_000,
    footprint: int = 32 * 1024 * 1024,
    regions: int = 64,
    seed: int = 5,
    stream_seed: int = 42,
    min_speedup: float = 1.0,
    out: str | None = None,
) -> tuple[dict[str, Any], bool]:
    """Run the hot-path bench; returns (report, ok).

    ``ok`` is False when any policy's counters diverge between the two
    paths or its speedup falls below ``min_speedup``.
    """
    results = []
    for name in policies:
        result = bench_policy(
            name,
            accesses=accesses,
            footprint=footprint,
            regions=regions,
            seed=seed,
            stream_seed=stream_seed,
        )
        results.append(result)
        status = "ok" if result["counters_match"] else "COUNTER MISMATCH"
        batch_mps = result["batch_mps"]
        scalar_mps = result["scalar_mps"]
        speedup = result["speedup"]
        print(
            f"{result['policy']:16s} batch "
            f"{'   inf' if batch_mps is None else format(batch_mps, '8.2f')}"
            f" M/s  scalar "
            f"{'  inf' if scalar_mps is None else format(scalar_mps, '7.2f')}"
            f" M/s  speedup "
            f"{'  n/a' if speedup is None else format(speedup, '5.2f') + 'x'}"
            f"  [{status}]"
        )

    def _speedup_ok(r: dict[str, Any]) -> bool:
        if min_speedup <= 0.0:
            return True
        return r["gateable"] and r["speedup"] >= min_speedup

    ok = all(r["counters_match"] and _speedup_ok(r) for r in results)
    report = {
        "benchmark": "hotpath",
        "workload": "zipf",
        "config": {
            "accesses": accesses,
            "footprint_bytes": footprint,
            "machine_regions": regions,
            "seed": seed,
            "stream_seed": stream_seed,
            "min_speedup": min_speedup,
        },
        "results": results,
        "ok": ok,
    }
    if out:
        with open(out, "w") as f:
            json.dump(report, f, indent=2)  # trd: ignore[TRD007] benchmark reports measure host wall time by design; never byte-compared
            f.write("\n")
        print(f"wrote {out}")
    if not ok:
        for r in results:
            if not r["counters_match"]:
                print(
                    f"FAIL {r['policy']}: batched path diverged from scalar "
                    f"on {', '.join(r['mismatched_keys'])}",
                    file=sys.stderr,
                )
            elif min_speedup > 0.0 and not r["gateable"]:
                print(
                    f"FAIL {r['policy']}: run too short to gate "
                    f"--min-speedup ({r['timed_accesses']} timed accesses; "
                    f"need >= {MIN_GATE_ACCESSES} and >= {MIN_GATE_SECONDS}s "
                    f"of scalar wall time) — rerun with more --accesses",
                    file=sys.stderr,
                )
            elif r["speedup"] < min_speedup:
                print(
                    f"FAIL {r['policy']}: speedup {r['speedup']}x below "
                    f"required {min_speedup}x",
                    file=sys.stderr,
                )
    return report, ok
