"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``run``        one (workload, policy) measurement, native or virtualized
``experiment`` regenerate a figure/table by name (or ``all``), serially
``sweep``      regenerate figures/tables on the parallel orchestrator
``list``       show available workloads, policies and experiments
``geometry``   list/describe page-size geometries, validate custom JSON
``metrics``    list exportable metrics, or summarize a metrics.json file
``report``     render a metrics.json / sweep manifest into an HTML report
``bench``      hot-path microbenchmark (batched vs scalar, BENCH_hotpath.json)
``lint``       project-specific static analysis (TRD rules, docs/linting.md)
``loadgen``    open-loop service traffic against a homogeneous tenant fleet
``serve``      heterogeneous service fleet from a JSON config (docs/service.md)
``tenants``    many tenants churning sharded NUMA machines (docs/numa.md)
``watch``      live terminal dashboard over telemetry scrape streams

Examples::

    python -m repro list
    python -m repro run GUPS Trident --fragmented
    python -m repro run GUPS --policy trident --trace --metrics-out m.json
    python -m repro run Canneal Trident --virt --host-policy Trident
    python -m repro run GUPS Trident --audit --audit-every 1024
    python -m repro run GUPS Trident --timeline-out t.json --report-out r.html
    python -m repro run GUPS Trident --geometry sv-napot
    python -m repro geometry list
    python -m repro geometry describe arm16k
    python -m repro geometry validate my_geometry.json
    python -m repro experiment figure9 --metrics-out report/metrics
    python -m repro sweep --quick --jobs 4 --seed 7
    python -m repro sweep figure2 table3 --jobs 2 --timeout 600
    python -m repro sweep --resume report/sweep_manifest.json
    python -m repro sweep --quick --timeline --out report
    python -m repro report report/sweep_manifest.json -o sweep.html
    python -m repro metrics m.json
    python -m repro bench --accesses 200000 --min-speedup 2
    python -m repro lint src/ --format json
    python -m repro loadgen --workloads GUPS --rate 5000,20000,80000 --tenants 2
    python -m repro loadgen --workloads GUPS --rate 20000 --closed-loop
    python -m repro loadgen --workloads GUPS --rate 40000 \\
        --telemetry-out report/service/telemetry --alerts rules.json
    python -m repro serve --config fleet.json --jobs 4 --out report/service
    python -m repro metrics m.json --format prom
    python -m repro watch report/service/telemetry --once
"""

from __future__ import annotations

import argparse
import sys

from repro.config import SCALE_FACTOR
from repro.obs.options import add_obs_args, interval_ms_arg, obs_options_from_args


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Trident (MICRO 2021) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload under one policy")
    run.add_argument("workload", help="Table 2 name, e.g. GUPS")
    run.add_argument(
        "policy",
        nargs="?",
        default=None,
        help="policy config, e.g. Trident or 2MB-THP",
    )
    run.add_argument(
        "--policy",
        dest="policy_opt",
        default=None,
        help="alternative to the positional policy argument",
    )
    run.add_argument("--fragmented", action="store_true")
    run.add_argument(
        "--geometry",
        default=None,
        metavar="NAME",
        help="page-size geometry: a preset (x86, sv-napot, arm16k) or a "
        "custom .json file (default: the x86 three-tier pipeline)",
    )
    run.add_argument("--virt", action="store_true", help="run inside a VM")
    run.add_argument("--host-policy", default="Trident")
    run.add_argument("--accesses", type=int, default=80_000)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--baseline",
        default=None,
        help="also run this policy and report relative numbers",
    )
    add_obs_args(run, scope="run")

    exp = sub.add_parser("experiment", help="regenerate a figure/table")
    exp.add_argument("name", help="e.g. figure9, table3, latency_micro, all")
    exp.add_argument(
        "--metrics-out",
        default=None,
        metavar="DIR",
        help="write per-run metrics_<workload>_<policy>.json files into DIR",
    )
    exp.add_argument(
        "--quick",
        action="store_true",
        help="reduced-size pass (the module's QUICK_KWARGS)",
    )
    exp.add_argument("--seed", type=int, default=7)
    add_obs_args(exp, scope="experiment")

    sweep = sub.add_parser(
        "sweep",
        help="regenerate figures/tables in parallel (process pool, "
        "deterministic per-unit seeds, run manifest)",
    )
    sweep.add_argument(
        "modules",
        nargs="*",
        help="subset of experiment modules (default: all)",
    )
    sweep.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (1 = serial, same outputs bit-for-bit)",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=900.0,
        metavar="S",
        help="per-unit wall-clock timeout in seconds",
    )
    sweep.add_argument("--seed", type=int, default=7, help="root seed")
    sweep.add_argument(
        "--quick",
        action="store_true",
        help="reduced-size pass (every module's QUICK_KWARGS)",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per unit after a failure/timeout/crash",
    )
    sweep.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        metavar="S",
        help="base retry backoff (doubles per attempt)",
    )
    sweep.add_argument(
        "--out",
        default="report",
        metavar="DIR",
        help="output directory (CSVs, partial/, metrics/, logs/, manifest)",
    )
    sweep.add_argument(
        "--resume",
        default=None,
        metavar="MANIFEST",
        help="skip units already 'ok' in this prior sweep manifest",
    )
    add_obs_args(sweep, scope="sweep")

    sub.add_parser("list", help="list workloads, policies, experiments")

    geo = sub.add_parser(
        "geometry",
        help="list/describe page-size geometries, validate custom JSON",
    )
    geo_sub = geo.add_subparsers(dest="geometry_command", required=True)
    geo_sub.add_parser("list", help="list the built-in geometry presets")
    geo_desc = geo_sub.add_parser(
        "describe",
        help="print one geometry's level ladder and TLB/walk parameters",
    )
    geo_desc.add_argument(
        "name",
        help="a preset key (x86, sv-napot, arm16k) or a .json geometry file",
    )
    geo_val = geo_sub.add_parser(
        "validate",
        help="validate a custom JSON geometry file (exit 0 iff loadable)",
    )
    geo_val.add_argument("path", metavar="FILE", help="geometry .json file")

    met = sub.add_parser(
        "metrics",
        help="list exportable metrics, or summarize a metrics.json snapshot",
    )
    met.add_argument(
        "file",
        nargs="?",
        default=None,
        metavar="METRICS_JSON",
        help="exported snapshot to summarize (histograms render as "
        "p50/p90/p99, not raw buckets); omit to list the catalogue",
    )
    met.add_argument(
        "--kind",
        choices=("counter", "gauge", "histogram"),
        default=None,
        help="only show metrics of this kind",
    )
    met.add_argument(
        "--format",
        choices=("text", "prom"),
        default="text",
        help="snapshot output: human tables (text) or Prometheus "
        "exposition text (prom); prom requires METRICS_JSON",
    )

    rep = sub.add_parser(
        "report",
        help="render a metrics.json or sweep manifest into a single-file "
        "HTML timeline report",
    )
    rep.add_argument(
        "path",
        help="a run's metrics.json, or a sweep_manifest.json to aggregate",
    )
    rep.add_argument(
        "-o",
        "--out",
        default="repro_report.html",
        metavar="PATH",
        help="where to write the HTML report (default: repro_report.html)",
    )

    bench = sub.add_parser(
        "bench",
        help="hot-path microbenchmark: batched touch_batch vs scalar loop",
    )
    bench.add_argument(
        "--accesses",
        type=int,
        default=1_000_000,
        metavar="N",
        help="zipf stream length per run (default: 1000000)",
    )
    bench.add_argument(
        "--policy",
        default=None,
        metavar="NAMES",
        help="comma-separated policy configs to bench "
        "(default: Trident,2MB-THP,4KB)",
    )
    bench.add_argument(
        "--seed",
        type=int,
        default=5,
        help="system seed (stream seed stays fixed for comparability)",
    )
    bench.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        metavar="X",
        help="exit nonzero if batched/scalar falls below X (default: 1.0)",
    )
    bench.add_argument(
        "-o",
        "--out",
        default="BENCH_hotpath.json",
        metavar="PATH",
        help="JSON report path (default: BENCH_hotpath.json)",
    )

    lint = sub.add_parser(
        "lint",
        help="project-specific static analysis (see docs/linting.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="findings output format",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--explain",
        default=None,
        metavar="CODE",
        help="print one rule's rationale and a good/bad example, then exit",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            "filter findings against a committed baseline; only new "
            "(non-baselined) findings fail the run"
        ),
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write the current findings as the new baseline and exit 0",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop service traffic against a simulated tenant fleet",
    )
    loadgen.add_argument(
        "--workloads",
        default="GUPS",
        metavar="NAMES",
        help="comma-separated Table 2 workloads (default: GUPS)",
    )
    loadgen.add_argument(
        "--policies",
        default="Trident,2MB-THP,4KB",
        metavar="NAMES",
        help="comma-separated policy configs to compare",
    )
    loadgen.add_argument(
        "--rate",
        default="20000",
        metavar="RPS",
        help="offered load per tenant; a comma list sweeps a saturation curve",
    )
    loadgen.add_argument(
        "--duration",
        type=float,
        default=0.02,
        metavar="S",
        help="simulated seconds of traffic per cell",
    )
    loadgen.add_argument(
        "--tenants",
        type=int,
        default=1,
        help="tenant replicas per (workload, policy, rate) group",
    )
    loadgen.add_argument(
        "--accesses-per-request",
        type=int,
        default=16,
        metavar="K",
        help="workload accesses replayed per request",
    )
    loadgen.add_argument(
        "--slo-ms",
        type=float,
        default=1.0,
        help="latency SLO bound in milliseconds",
    )
    loadgen.add_argument(
        "--closed-loop",
        action="store_true",
        help="closed-loop baseline: next request issues on completion",
    )
    loadgen.add_argument(
        "--arrivals",
        default=None,
        metavar="FILE",
        help="trace-driven arrivals (seconds offsets, one per line) "
        "instead of Poisson",
    )
    loadgen.add_argument("--seed", type=int, default=7, help="root seed")
    loadgen.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (1 = serial, same report bit-for-bit)",
    )
    loadgen.add_argument(
        "--out",
        "-o",
        default="report/service",
        metavar="DIR",
        help="output directory (cells/, service_report.json, saturation.csv)",
    )
    loadgen.add_argument(
        "--timeline",
        action="store_true",
        help="record spans + timeline; one Chrome trace per cell "
        "under OUT/traces",
    )
    loadgen.add_argument(
        "--scale-factor",
        type=int,
        default=None,
        metavar="N",
        help=f"footprint divisor (default: project-wide {SCALE_FACTOR})",
    )
    loadgen.add_argument(
        "--numa-nodes",
        type=int,
        default=1,
        metavar="N",
        help="NUMA nodes per tenant machine; cells pin round-robin "
        "(default 1 = flat machine, see docs/numa.md)",
    )
    loadgen.add_argument(
        "--numa-remote",
        type=float,
        default=1.4,
        metavar="X",
        help="remote DRAM latency multiplier (default 1.4)",
    )
    loadgen.add_argument(
        "--pt-replication",
        action="store_true",
        help="replicate page tables per node (Mitosis): local walks, "
        "fault-time replica maintenance",
    )
    _add_service_telemetry_args(loadgen)

    tenants = sub.add_parser(
        "tenants",
        help="many tenants churning one sharded NUMA machine (docs/numa.md)",
    )
    tenants.add_argument(
        "--tenants", type=int, default=64, metavar="N",
        help="tenant processes across all shards (default 64)",
    )
    tenants.add_argument(
        "--shards", type=int, default=8, metavar="N",
        help="independent machine shards tenants split over (default 8)",
    )
    tenants.add_argument(
        "--policy", default="Trident", help="policy config for every shard"
    )
    tenants.add_argument(
        "--rounds", type=int, default=4, metavar="N",
        help="churn rounds per shard (default 4)",
    )
    tenants.add_argument(
        "--accesses", type=int, default=2000, metavar="K",
        help="touches per tenant per round (default 2000)",
    )
    tenants.add_argument(
        "--numa-nodes", type=int, default=2, metavar="N",
        help="NUMA nodes per shard machine (default 2)",
    )
    tenants.add_argument(
        "--numa-remote", type=float, default=1.4, metavar="X",
        help="remote DRAM latency multiplier (default 1.4)",
    )
    tenants.add_argument(
        "--pt-replication", action="store_true",
        help="replicate page tables per node (Mitosis)",
    )
    tenants.add_argument(
        "--audit", action="store_true",
        help="run sampled invariant audits on every shard",
    )
    tenants.add_argument(
        "--quick", action="store_true",
        help="smoke-sized run: 2 rounds, 500 accesses per tenant-round",
    )
    tenants.add_argument("--seed", type=int, default=7, help="root seed")
    tenants.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes (any value, same manifest bit-for-bit)",
    )
    tenants.add_argument(
        "--out", "-o", default="report/tenants", metavar="DIR",
        help="output directory (shards/, tenants_manifest.json)",
    )
    tenants.add_argument(
        "--telemetry-out", default=None, metavar="DIR",
        help="write one Prometheus scrape stream per shard under DIR",
    )
    tenants.add_argument(
        "--telemetry-interval-ms", type=interval_ms_arg, default=1.0,
        metavar="MS",
        help="simulated milliseconds between scrape frames (default: 1)",
    )

    serve = sub.add_parser(
        "serve",
        help="heterogeneous service fleet from a JSON config (docs/service.md)",
    )
    serve.add_argument(
        "--config",
        required=True,
        metavar="FILE",
        help='fleet spec: {"tenants": [{workload, policy, rate_rps}, ...], '
        "duration_s, slo_ms, ...}",
    )
    serve.add_argument("--seed", type=int, default=None, help="override seed")
    serve.add_argument(
        "--jobs", "-j", type=int, default=1, help="worker processes"
    )
    serve.add_argument(
        "--out", "-o", default=None, metavar="DIR", help="override out_dir"
    )
    _add_service_telemetry_args(serve)

    watch = sub.add_parser(
        "watch",
        help="live terminal dashboard over telemetry scrape streams",
    )
    watch.add_argument(
        "source",
        metavar="SOURCE",
        help="a telemetry directory of .prom streams, one stream file, "
        "or an http://HOST:PORT endpoint URL",
    )
    watch.add_argument(
        "--refresh",
        type=float,
        default=1.0,
        metavar="S",
        help="wall seconds between re-renders (default: 1)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render the current state once and exit (no screen clearing)",
    )
    return parser


def _add_service_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by ``loadgen`` and ``serve``."""
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="write one Prometheus scrape stream per cell under DIR "
        "(frames on the simulated-clock cadence; byte-identical at any "
        "--jobs)",
    )
    parser.add_argument(
        "--telemetry-interval-ms",
        type=interval_ms_arg,
        default=1.0,
        metavar="MS",
        help="simulated milliseconds between scrape frames (default: 1)",
    )
    parser.add_argument(
        "--alerts",
        default=None,
        metavar="FILE",
        help="burn-rate / threshold alert rules (JSON or TOML; see "
        "docs/observability.md); requires --telemetry-out, merges cell "
        "transitions into OUT/alerts.json",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the newest frames at http://127.0.0.1:PORT/metrics "
        "while the fleet runs (0 = pick a free port); requires "
        "--telemetry-out",
    )


def _cmd_list() -> int:
    from repro.experiments.configs import POLICY_CONFIGS
    from repro.experiments.run_all import MODULES
    from repro.workloads.registry import REGISTRY, SHADED_EIGHT

    print("Workloads (Table 2):")
    for name, cls in REGISTRY.items():
        spec = cls.spec
        tag = " *" if name in SHADED_EIGHT else ""
        print(
            f"  {name:10s} {spec.paper_footprint_gb:6.1f} GB  "
            f"{spec.threads:2d} threads  {spec.description}{tag}"
        )
    print("  (* = 1GB-sensitive, the paper's shaded set)\n")
    print("Policies:")
    for name in POLICY_CONFIGS:
        print(f"  {name}")
    print("\nExperiments:")
    for name, _ in MODULES:
        print(f"  {name}")
    return 0


def _cmd_geometry(args: argparse.Namespace) -> int:
    from repro.geometries import GEOMETRY_PRESETS, load_geometry_json, resolve_geometry

    if args.geometry_command == "list":
        for key, preset in GEOMETRY_PRESETS.items():
            g = preset.geometry
            ladder = " / ".join(lvl.label for lvl in g.levels)
            print(f"  {key:10s} {g.n_levels} levels  {ladder:28s} {preset.title}")
        print("\n(custom geometries: repro run --geometry my_geometry.json;")
        print(" schema in docs/geometry.md)")
        return 0
    if args.geometry_command == "validate":
        try:
            preset = load_geometry_json(args.path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        g = preset.geometry
        print(
            f"ok: {args.path} defines {g.name or preset.key!r} "
            f"({g.n_levels} levels: {' / '.join(lvl.label for lvl in g.levels)})"
        )
        return 0
    # describe
    try:
        preset = resolve_geometry(args.name)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    _describe_preset(preset)
    return 0


def _describe_preset(preset) -> None:
    g = preset.geometry
    print(f"{preset.key}: {preset.title}")
    print(f"  {preset.description}")
    print(
        f"  base shift {g.base_shift} ({1 << g.base_shift} B frames), "
        f"{g.n_levels} levels, scale factor {preset.scale_factor}x"
    )
    depths = preset.walk.depths(g)
    print(
        f"  {'LVL':3s} {'NAME':8s} {'LABEL':6s} {'ORDER':5s} {'BYTES':>12s} "
        f"{'FLAGS':12s} {'L1':>8s} {'L2':8s} {'WALK':4s} {'PWC':5s}"
    )
    for level, lvl in enumerate(g.levels):
        flags = []
        if lvl.promotable:
            flags.append("promo")
        if lvl.thp_target:
            flags.append("thp")
        if level == g.top_level:
            flags.append("top")
        l1 = f"{lvl.tlb.l1.entries}x{lvl.tlb.l1.ways}"
        print(
            f"  {level:3d} {lvl.name:8s} {lvl.label:6s} {lvl.order:5d} "
            f"{g.bytes_for(level):12d} {','.join(flags) or '-':12s} "
            f"{l1:>8s} {lvl.tlb.l2:8s} {depths[level]:4d} "
            f"{g.leaf_cached_prob_for(level):5.2f}"
        )
    print("  L2 groups: " + ", ".join(
        f"{name}={cfg.entries}x{cfg.ways}" for name, cfg in g.l2_groups
    ))


def _resolve_policy(name: str) -> str:
    from repro.experiments.configs import resolve_policy

    return resolve_policy(name)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import (
        NativeRunner,
        RunConfig,
        VirtRunConfig,
        VirtRunner,
    )

    policy_name = args.policy or args.policy_opt
    if policy_name is None:
        print("error: no policy given (positional or --policy)")
        return 2
    preset = None
    if args.geometry:
        from repro.geometries import resolve_geometry

        try:
            preset = resolve_geometry(args.geometry)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
    obs_options = obs_options_from_args(args)

    def one(policy: str, first: bool):
        obs_kwargs = obs_options.run_kwargs(primary=first)
        if args.virt:
            runner = VirtRunner(
                VirtRunConfig(
                    args.workload,
                    policy,
                    _resolve_policy(args.host_policy),
                    n_accesses=args.accesses,
                    seed=args.seed,
                    guest_fragmented=args.fragmented,
                    geometry_name=args.geometry,
                    **obs_kwargs,
                )
            )
        else:
            runner = NativeRunner(
                RunConfig(
                    args.workload,
                    policy,
                    fragmented=args.fragmented,
                    n_accesses=args.accesses,
                    seed=args.seed,
                    geometry_name=args.geometry,
                    **obs_kwargs,
                )
            )
        return runner.run(), runner.obs

    metrics, obs = one(_resolve_policy(policy_name), first=True)
    _print_metrics(metrics, preset)
    if obs_options.trace_enabled:
        _print_trace_summary(obs, obs_options.trace_out)
    if obs_options.metrics_out:
        print(f"metrics written:   {obs_options.metrics_out}")
    if obs_options.timeline_out:
        print(f"timeline written:  {obs_options.timeline_out}")
    if obs_options.report_out:
        print(f"report written:    {obs_options.report_out}")
    if args.baseline:
        base, _ = one(_resolve_policy(args.baseline), first=False)
        print(
            f"\nvs {base.policy}: speedup {metrics.speedup_over(base):.3f}x, "
            f"walk-cycle fraction {metrics.walk_fraction_vs(base):.3f}x"
        )
    return 0


def _print_trace_summary(obs, trace_out: str | None) -> None:
    summary = obs.tracer.summary()
    print(
        f"trace:             {summary['emitted']} events emitted, "
        f"{summary['buffered']} buffered, {summary['dropped']} dropped"
    )
    tallies = sorted(
        summary["events"].items(), key=lambda kv: kv[1], reverse=True
    )
    for key, count in tallies[:10]:
        print(f"  {key:40s} {count}")
    if len(tallies) > 10:
        print(f"  ... and {len(tallies) - 10} more event types")
    if trace_out:
        written = obs.tracer.export_jsonl(trace_out)
        print(f"trace written:     {trace_out} ({written} events)")


def _print_metrics(m, preset=None) -> None:
    from repro.config import SCALED_GEOMETRY

    geometry = preset.geometry if preset is not None else SCALED_GEOMETRY
    scale = preset.scale_factor if preset is not None else SCALE_FACTOR
    print(f"policy:            {m.policy}")
    print(f"workload:          {m.workload}")
    print(f"accesses sampled:  {m.accesses}")
    print(f"walk cycles/acc:   {m.walk_cycles_per_access:.2f}")
    print(f"walk fraction:     {m.walk_cycle_fraction:.3f}")
    print(f"modeled runtime:   {m.runtime_ns / 1e9:.2f} s")
    if m.mapped_bytes_by_size:
        for size in geometry.levels_desc:
            nbytes = m.mapped_bytes_by_size[size]
            print(
                f"  {geometry.label_for(size):4s} mapped: "
                f"{nbytes * scale / (1 << 30):8.1f} GB (paper scale)"
            )
    if m.bloat_bytes:
        print(
            f"bloat:             {m.bloat_bytes * scale / (1 << 30):.1f} GB"
        )


def _cmd_experiment(
    name: str,
    metrics_out: str | None = None,
    quick: bool = False,
    seed: int = 7,
    audit: bool = False,
    timeline: bool = False,
) -> int:
    import repro.experiments.runner as runner_mod
    from repro.experiments.run_all import MODULES, main as run_all_main

    if metrics_out:
        import os

        os.makedirs(metrics_out, exist_ok=True)
        runner_mod.set_metrics_dir(metrics_out)
    if audit:
        runner_mod.set_audit(True)
    if timeline:
        runner_mod.set_timeline(True)
    try:
        if name == "all":
            run_all_main((["--quick"] if quick else []) + ["--seed", str(seed)])
            return 0
        table = dict(MODULES)
        if name not in table:
            print(
                f"unknown experiment {name!r}; try one of: {', '.join(table)}"
            )
            return 2
        table[name].main(quick=quick, seed=seed)
        return 0
    finally:
        runner_mod.set_metrics_dir(None)
        runner_mod.set_audit(False)
        runner_mod.set_timeline(False)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.orchestrator import SweepConfig, run_sweep
    from repro.experiments.report import sweep_status_table

    obs = obs_options_from_args(args)
    config = SweepConfig(
        jobs=args.jobs,
        timeout_s=args.timeout,
        root_seed=args.seed,
        quick=args.quick,
        out_dir=args.out,
        max_retries=args.retries,
        backoff_base_s=args.backoff,
        modules=tuple(args.modules),
        resume=args.resume,
        audit=obs.audit,
        timeline=obs.timeline,
    )
    manifest = run_sweep(config, progress=print)
    print()
    print(sweep_status_table(manifest["units"]))
    counts = manifest["counts"]
    print(
        f"sweep finished in {manifest['wall_s']:.1f}s wall "
        f"({manifest['serial_equivalent_s']:.1f}s serial-equivalent), "
        f"{counts.get('ok', 0)}/{len(manifest['units'])} units ok"
    )
    for name, entry in manifest["merged"].items():
        if entry["missing_workloads"]:
            print(
                f"warning: {name} compiled without failed cells: "
                f"{', '.join(entry['missing_workloads'])}"
            )
    print(f"manifest: {manifest['manifest_path']}")
    if manifest["metrics_summary"]:
        print(f"metrics summary: {manifest['metrics_summary']}")
    if manifest.get("report"):
        print(f"timeline report: {manifest['report']}")
    failed = len(manifest["units"]) - counts.get("ok", 0)
    return 3 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.sim.bench import DEFAULT_POLICIES, run_bench

    policies = (
        tuple(p for p in args.policy.split(",") if p)
        if args.policy
        else DEFAULT_POLICIES
    )
    _, ok = run_bench(
        policies,
        accesses=args.accesses,
        seed=args.seed,
        min_speedup=args.min_speedup,
        out=args.out,
    )
    return 0 if ok else 4


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint import (
        ALL_RULES,
        apply_baseline,
        load_baseline,
        run_lint_detailed,
        to_sarif,
        write_baseline,
    )

    if args.list_rules:
        print(f"{'CODE':8s} {'NAME':24s} DESCRIPTION")
        for rule in ALL_RULES:
            print(f"{rule.code:8s} {rule.name:24s} {rule.description}")
        return 0
    if args.explain:
        code = args.explain.strip().upper()
        for rule in ALL_RULES:
            if rule.code == code:
                print(f"{rule.code} {rule.name} — {rule.description}")
                if rule.rationale:
                    print(f"\n{rule.rationale}")
                if rule.example_bad:
                    print("\nbad:\n" + _indent_example(rule.example_bad))
                if rule.example_good:
                    print("\ngood:\n" + _indent_example(rule.example_good))
                return 0
        valid = ", ".join(rule.code for rule in ALL_RULES)
        print(f"error: unknown rule code {args.explain!r} (valid: {valid})")
        return 2
    rules = ALL_RULES
    if args.select:
        wanted = {code.strip() for code in args.select.split(",") if code.strip()}
        known = {rule.code for rule in ALL_RULES}
        unknown = wanted - known
        if unknown:
            valid = ", ".join(rule.code for rule in ALL_RULES)
            print(
                f"error: unknown rule code(s): {', '.join(sorted(unknown))} "
                f"(valid: {valid})"
            )
            return 2
        rules = tuple(rule for rule in ALL_RULES if rule.code in wanted)
    try:
        report = run_lint_detailed(args.paths, rules)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    findings = report.findings
    if args.write_baseline:
        write_baseline(findings, args.write_baseline)
        print(
            f"wrote baseline with {len(findings)} entr"
            f"{'y' if len(findings) == 1 else 'ies'} to {args.write_baseline}"
        )
        return 0
    baselined = 0
    if args.baseline:
        try:
            entries = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}")
            return 2
        result = apply_baseline(findings, entries)
        findings = result.new
        baselined = len(result.matched)
        for rule_code, path, message in result.stale:
            print(
                f"note: stale baseline entry {rule_code} {path}: {message!r} "
                "(no longer found — refresh with --write-baseline)"
            )
    if args.format == "json":
        payload = {
            "findings": [f.to_dict() for f in findings],
            "rule_timings_ms": {
                code: round(ms, 3)
                for code, ms in report.rule_timings_ms.items()
            },
            "files": report.files,
            "baselined": baselined,
        }
        print(json.dumps(payload, indent=2))  # trd: ignore[TRD007] rule timings are diagnostics; lint output is not a determinism surface
    elif args.format == "sarif":
        print(json.dumps(to_sarif(findings, rules), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"{len(findings)} finding(s)")
        if baselined:
            print(f"({baselined} baselined finding(s) suppressed)")
    return 1 if findings else 0


def _indent_example(example: str) -> str:
    return "\n".join("    " + line for line in example.rstrip().splitlines())


def _cmd_metrics(
    kind: str | None, file: str | None = None, format: str = "text"
) -> int:
    if file is not None:
        return _cmd_metrics_file(file, kind, format)
    if format == "prom":
        print("error: --format prom needs a METRICS_JSON file to render")
        return 2
    from repro.obs import METRIC_CATALOG

    print(f"{'NAME':38s} {'KIND':10s} {'LABELS':12s} DESCRIPTION")
    for name, metric_kind, labels, description in METRIC_CATALOG:
        if kind is not None and metric_kind != kind:
            continue
        print(f"{name:38s} {metric_kind:10s} {labels or '-':12s} {description}")
    return 0


def _cmd_metrics_file(path: str, kind: str | None, format: str = "text") -> int:
    """Summarize an exported snapshot; histograms as nearest-rank percentiles."""
    import json

    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read metrics file {path}: {exc}")
        return 2
    if not isinstance(data, dict):
        print(
            f"error: {path} is not a metrics snapshot "
            f"(expected a JSON object, got {type(data).__name__})"
        )
        return 2
    # Render into a buffer first: a malformed section must produce one
    # clean error line, not a partial table followed by a traceback.
    try:
        if format == "prom":
            text = _render_metrics_prom(data, kind)
            lines = text.splitlines()
        else:
            lines = _render_metrics_file(data, kind)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {path} is not a valid metrics snapshot: {exc!r}")
        return 2
    for line in lines:
        print(line)
    return 0


def _render_metrics_prom(data: dict, kind: str | None) -> str:
    """The snapshot in Prometheus exposition text (``--format prom``)."""
    from repro.obs.telemetry import render_exposition

    if kind is not None:
        section = {"counter": "counters", "gauge": "gauges",
                   "histogram": "histograms"}[kind]
        data = {section: data.get(section, {})}
    return render_exposition(
        {
            "counters": dict(data.get("counters", {})),
            "gauges": dict(data.get("gauges", {})),
            "histograms": dict(data.get("histograms", {})),
        }
    )


def _render_metrics_file(data: dict, kind: str | None) -> list[str]:
    from repro.obs.metrics import percentile_from_buckets

    lines: list[str] = []
    if kind in (None, "counter"):
        counters = data.get("counters", {})
        if counters:
            lines.append("Counters:")
            for name in sorted(counters):
                lines.append(f"  {name:44s} {counters[name]:g}")
    if kind in (None, "gauge"):
        gauges = data.get("gauges", {})
        if gauges:
            lines.append("Gauges:")
            for name in sorted(gauges):
                lines.append(f"  {name:44s} {gauges[name]:g}")
    if kind in (None, "histogram"):
        histograms = data.get("histograms", {})
        if histograms:
            lines.append("Histograms:")
            lines.append(
                f"  {'NAME':34s} {'COUNT':>8s} {'MEAN':>12s} "
                f"{'P50':>12s} {'P90':>12s} {'P99':>12s}"
            )
            for name in sorted(histograms):
                h = histograms[name]
                count = h.get("count", 0)
                mean = h["sum"] / count if count else 0.0
                row = [percentile_from_buckets(h, p) for p in (50.0, 90.0, 99.0)]
                lines.append(
                    f"  {name:34s} {count:8d} {mean:12.4g} "
                    + " ".join(f"{v:12.4g}" for v in row)
                )
    return lines


def _cmd_report(path: str, out: str) -> int:
    from repro.obs.report import load_metrics, runs_from_units, write_report

    try:
        data = load_metrics(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}")
        return 2
    if not isinstance(data, dict):
        print(
            f"error: {path} is not a metrics snapshot or sweep manifest "
            f"(expected a JSON object, got {type(data).__name__})"
        )
        return 2
    if "units" in data:  # a sweep manifest: one section per unit run
        try:
            runs = runs_from_units(data["units"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            print(f"error: {path} is not a valid sweep manifest: {exc!r}")
            return 2
        title = "sweep timeline report"
    elif "timeline" in data:  # a single run's metrics.json
        import os

        runs = [(os.path.basename(path), data)]
        title = "repro timeline report"
    else:
        print(
            f"error: {path} has no timeline section (rerun with --timeline) "
            "and is not a sweep manifest"
        )
        return 2
    if not runs:
        print(f"error: no unit in {path} has a readable timeline section")
        return 2
    try:
        write_report(out, runs, title=title)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {path} has a corrupt timeline/metrics section: {exc!r}")
        return 2
    n = len(runs)
    print(f"report written: {out} ({n} section{'s' if n != 1 else ''})")
    return 0


def _run_fleet_and_print(config, telemetry_port: int | None = None) -> int:
    import os

    from repro.service.fleet import run_fleet
    from repro.service.report import render_service_table

    endpoint = None
    if telemetry_port is not None:
        if not config.telemetry_out:
            print("error: --telemetry-port requires --telemetry-out")
            return 2
        from repro.obs.telemetry.endpoint import (
            TelemetryHTTPServer,
            latest_frames_supplier,
        )

        endpoint = TelemetryHTTPServer(
            latest_frames_supplier(config.telemetry_out), port=telemetry_port
        )
        port = endpoint.start()
        print(f"telemetry endpoint: http://127.0.0.1:{port}/metrics")
    try:
        report = run_fleet(config, progress=print)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if endpoint is not None:
            endpoint.stop()
    print()
    for line in render_service_table(report):
        print(line)
    print()
    print(f"report: {os.path.join(config.out_dir, 'service_report.json')}")
    print(f"saturation: {os.path.join(config.out_dir, 'saturation.csv')}")
    if config.telemetry_out:
        print(f"telemetry: {config.telemetry_out}")
    if config.alerts_path:
        print(f"alerts: {os.path.join(config.out_dir, 'alerts.json')}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.fleet import ServiceConfig, TenantSpec

    workloads = [w for w in args.workloads.split(",") if w]
    policies = [p for p in args.policies.split(",") if p]
    try:
        rates = [float(r) for r in args.rate.split(",") if r]
    except ValueError:
        print(f"error: --rate must be a comma list of numbers: {args.rate!r}")
        return 2
    if not workloads or not policies or not rates:
        print("error: need at least one workload, policy and rate")
        return 2
    tenants = tuple(
        TenantSpec(workload=w, policy=p, rate_rps=r)
        for w in workloads
        for p in policies
        for r in rates
        for _ in range(args.tenants)
    )
    config = ServiceConfig(
        tenants=tenants,
        duration_s=args.duration,
        accesses_per_request=args.accesses_per_request,
        slo_ms=args.slo_ms,
        mode="closed" if args.closed_loop else "open",
        arrivals_path=args.arrivals,
        seed=args.seed,
        jobs=args.jobs,
        out_dir=args.out,
        timeline=args.timeline,
        scale_factor=args.scale_factor,
        numa_nodes=args.numa_nodes,
        numa_remote_multiplier=args.numa_remote,
        pt_replication=args.pt_replication,
        telemetry_out=args.telemetry_out,
        telemetry_interval_ms=args.telemetry_interval_ms,
        alerts_path=args.alerts,
    )
    if config.alerts_path and not config.telemetry_out:
        print("error: --alerts requires --telemetry-out")
        return 2
    return _run_fleet_and_print(config, telemetry_port=args.telemetry_port)


def _cmd_tenants(args: argparse.Namespace) -> int:
    import os

    from repro.sim.multitenant import MultiTenantConfig, run_multi_tenant

    rounds = 2 if args.quick else args.rounds
    accesses = min(500, args.accesses) if args.quick else args.accesses
    config = MultiTenantConfig(
        tenants=args.tenants,
        shards=min(args.shards, args.tenants),
        policy=args.policy,
        rounds=rounds,
        accesses_per_round=accesses,
        numa_nodes=args.numa_nodes,
        numa_remote_multiplier=args.numa_remote,
        pt_replication=args.pt_replication,
        audit=args.audit,
        seed=args.seed,
        jobs=args.jobs,
        out_dir=args.out,
        telemetry_out=args.telemetry_out,
        telemetry_interval_ms=args.telemetry_interval_ms,
    )
    try:
        manifest = run_multi_tenant(config)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}")
        return 1
    totals = manifest["totals"]
    print(
        f"{totals['tenants']} tenants / {len(manifest['shards'])} shards  "
        f"faults={totals['faults']}  accesses={totals['accesses']}  "
        f"mean_fmfi={totals['mean_fmfi']:.3f}"
    )
    if "mean_node_fmfi" in totals:
        per_node = "  ".join(
            f"node{n}={v:.3f}" for n, v in enumerate(totals["mean_node_fmfi"])
        )
        print(f"per-node FMFI: {per_node}")
    if config.audit:
        print(
            f"audit: checks={totals['audit_checks']} "
            f"violations={totals['audit_violations']}"
        )
    if config.telemetry_out:
        print(f"telemetry: {config.telemetry_out}")
    print(f"manifest: {os.path.join(config.out_dir, 'tenants_manifest.json')}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.obs.clock import interval_ns
    from repro.service.fleet import ServiceConfig, TenantSpec

    try:
        with open(args.config) as f:
            spec = json.load(f)
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc.strerror}")
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.config} is not valid JSON: {exc}")
        return 2
    if not isinstance(spec, dict) or not isinstance(spec.get("tenants"), list):
        print(f'error: {args.config} must be an object with a "tenants" list')
        return 2
    try:
        tenants = tuple(
            TenantSpec(
                workload=t["workload"],
                policy=t["policy"],
                rate_rps=float(t["rate_rps"]),
            )
            for t in spec["tenants"]
        )
        fields = {
            k: spec[k]
            for k in (
                "duration_s",
                "accesses_per_request",
                "request_base_service_ns",
                "slo_ms",
                "mode",
                "arrivals_path",
                "seed",
                "out_dir",
                "timeline",
                "scale_factor",
                "settle_ticks",
                "timeout_s",
                "numa_nodes",
                "numa_remote_multiplier",
                "pt_replication",
                "telemetry_out",
                "telemetry_interval_ms",
                "alerts_path",
            )
            if k in spec
        }
        config = ServiceConfig(tenants=tenants, **fields)
        interval_ns(config.telemetry_interval_ms)  # as the flag's type checks it
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {args.config} is not a valid fleet spec: {exc!r}")
        return 2
    config.jobs = args.jobs
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    if args.telemetry_out is not None:
        config.telemetry_out = args.telemetry_out
    if args.telemetry_interval_ms != 1.0:
        config.telemetry_interval_ms = args.telemetry_interval_ms
    if args.alerts is not None:
        config.alerts_path = args.alerts
    if config.alerts_path and not config.telemetry_out:
        print("error: alerts require a telemetry output directory")
        return 2
    return _run_fleet_and_print(config, telemetry_port=args.telemetry_port)


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.telemetry.dashboard import watch

    try:
        return watch(args.source, refresh_s=args.refresh, once=args.once)
    except KeyboardInterrupt:
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: cannot tail {args.source}: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "geometry":
        return _cmd_geometry(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        exp_obs = obs_options_from_args(args)
        return _cmd_experiment(
            args.name,
            args.metrics_out,
            quick=args.quick,
            seed=args.seed,
            audit=exp_obs.audit,
            timeline=exp_obs.timeline,
        )
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "metrics":
        return _cmd_metrics(args.kind, args.file, args.format)
    if args.command == "report":
        return _cmd_report(args.path, args.out)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "tenants":
        return _cmd_tenants(args)
    if args.command == "watch":
        return _cmd_watch(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
