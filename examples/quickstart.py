"""Quickstart: run one workload under THP and Trident and compare.

This is the 5-minute tour of the library: build a simulated machine, pick
an OS memory policy, run a paper workload on it, and read the translation
counters — the same path every figure in the evaluation uses.

    python examples/quickstart.py
"""

from repro.experiments.runner import NativeRunner, RunConfig


def main() -> None:
    results = {}
    for policy in ("4KB", "2MB-THP", "Trident"):
        print(f"running GUPS under {policy} ...")
        runner = NativeRunner(
            RunConfig(workload="GUPS", policy=policy, n_accesses=60_000)
        )
        results[policy] = runner.run()
    geometry = runner.system.geometry

    base = results["4KB"]
    print()
    print(f"{'policy':12s} {'walk-cycle frac':>16s} {'perf vs 4KB':>12s} "
          f"{'1GB-class':>10s} {'2MB-class':>10s} {'4KB':>8s}")
    for policy, m in results.items():
        mapped = m.mapped_bytes_by_size
        print(
            f"{policy:12s} {m.walk_cycle_fraction:16.3f} "
            f"{m.speedup_over(base):12.2f} "
            f"{mapped[geometry.top_level] >> 20:9d}M "
            f"{mapped[geometry.thp_level] >> 20:9d}M "
            f"{mapped[0] >> 20:7d}M"
        )

    trident, thp = results["Trident"], results["2MB-THP"]
    print(
        f"\nTrident speeds up GUPS by "
        f"{(thp.runtime_ns / trident.runtime_ns - 1) * 100:.1f}% over THP "
        "(paper: +47%)"
    )


if __name__ == "__main__":
    main()
