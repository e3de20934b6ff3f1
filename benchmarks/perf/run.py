#!/usr/bin/env python3
"""Host-time benchmark of the simulator: five workloads, end to end and per layer.

It measures how long the simulator takes to run on the host.  That is
kept apart from the simulated SimClock time, which is a model output and
only enters the correctness digests.

One run of one workload, in this process::

    python3 benchmarks/perf/run.py --workload zipf_warm --seed 42 --seconds 20 --trace 0

It repeats the workload's fixed unit of work (a rep, see
``bench_workloads.py``) for about ``--seconds`` seconds.  It prints every
end-to-end metric, or every per-layer metric with ``--trace 1``, by name
and unit.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 only when every rep produced the reference digest.

A suite is what you get without ``--workload``.  It runs each workload
``--runs`` times, each run in a fresh process with seeds ``--seed``,
``--seed``+1, and so on, and writes medians and quartiles to ``--out``.
``compare.py`` reads that file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected_digests.json")

DEFAULT_SEED = 42
WORKLOADS = (
    "zipf_warm",
    "zipf_telemetry",
    "fault_storm",
    "guest_pv",
    "service_fleet",
)
#: (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("accesses_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
#: every run times at least this many reps, so they can be checked
#: against each other when no expected digest exists for the seed
MIN_REPS = 2
#: a suite's child run is killed after this long
RUN_TIMEOUT_S = 180.0


def import_program() -> None:
    """Import the simulator from this checkout's ``src``; exit 1 when absent."""
    # One load-generating thread: keep numpy's BLAS pools single-threaded.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"run.py: cannot import the simulator from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"run.py: imported repro from {repro.__file__}, not {src}")


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def load_expected(size: str) -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f).get(size, {})


class Tally:
    """Counts reps and checks each one's digest against the reference."""

    def __init__(self, reference: str | None) -> None:
        #: the expected digest for the default seed; else the first rep's
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def rep(self, label: str, fn) -> dict | None:
        """Run one rep; None when it raised (the caller stops)."""
        self.attempted += 1
        try:
            rep = fn()
        except Exception:  # a rep that raises is a failed rep, not a crash
            self.failed += 1
            print(f"FAIL {label}:", file=sys.stderr)
            traceback.print_exc()
            return None
        if self.reference is None:
            self.reference = rep["digest"]
        elif rep["digest"] != self.reference:
            self.failed += 1
            print(
                f"FAIL {label}: digest {rep['digest'][:16]} != reference "
                f"{self.reference[:16]}",
                file=sys.stderr,
            )
        return rep


def one_rep(cls, seed: int, size: dict, scratch: str, timer=None, label=""):
    """Set up, run and digest one rep; returns its timings and digest."""
    gc.collect()  # every rep starts from a collected heap
    rep = cls(seed, size, scratch)
    t0 = time.perf_counter()
    rep.setup()
    t1 = time.perf_counter()
    layers = None
    if timer is None:
        accesses, calls = rep.run()
    else:
        (accesses, calls), layers = timer.measure(label, rep.run)
    t2 = time.perf_counter()
    return {
        "setup_s": t1 - t0,
        "phase_s": t2 - t1,
        "accesses": accesses,
        "calls": calls,
        "digest": rep.digest(),
        "layers": layers,
    }


def end_to_end_metrics(cls, reps: list[dict]) -> dict[str, list[float]]:
    """Per-rep samples of every end-to-end metric (peak RSS: one sample)."""
    setup = [r["setup_s"] for r in reps]
    if cls.phase_includes_setup:
        base = statistics.median(setup)
        run = [r["phase_s"] - base for r in reps]
    else:
        run = [r["phase_s"] for r in reps]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup,
        "run_s": run,
        "accesses_per_s": [r["accesses"] / t for r, t in zip(reps, run)],
        # A request is one touch_batch call: one service request on
        # service_fleet, one batch elsewhere.  Every run reports every
        # end-to-end metric, so the other workloads report it too.
        "requests_per_s": [r["calls"] / t for r, t in zip(reps, run)],
        "peak_rss_mb": [rss_mb],
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> tuple[dict, dict]:
    """One run; returns (result line, per-metric summaries)."""
    from bench_workloads import REPS, SIZES
    from layer_timer import LayerTimer, layer_metric_specs

    cls = REPS[name]
    dims = SIZES[size][name]
    expected = load_expected(size).get(name) if seed == DEFAULT_SEED else None
    tally = Tally(expected)
    timer = LayerTimer() if trace else None
    reps: list[dict] = []
    untraced_phase_s = None
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        ok = True
        if cls.unobserved is not None:
            # Observation must not change what is observed: the same rep
            # without observers has to give the same digest.
            ok = tally.rep(
                f"{name} unobserved",
                lambda: one_rep(cls.unobserved, seed, dims, scratch),
            ) is not None
        start = time.perf_counter()
        while ok:
            elapsed = time.perf_counter() - start
            if len(reps) >= MIN_REPS:
                # Stop before a rep that would end past the budget.
                if elapsed * (len(reps) + 1) / len(reps) > seconds:
                    break
            label = f"{name} rep {len(reps) + 1}"
            rep = tally.rep(
                label,
                lambda: one_rep(cls, seed, dims, scratch, timer, label),
            )
            if rep is None:
                break
            reps.append(rep)
        if trace and reps:
            # Untraced reference, run last so it is as warm as the traced
            # reps: tracing must not change the digest, and its phase time
            # is the base of trace_overhead.
            ref = tally.rep(
                f"{name} untraced", lambda: one_rep(cls, seed, dims, scratch)
            )
            if ref is None:
                reps = []
            else:
                untraced_phase_s = ref["phase_s"]

    if not reps:
        samples, units = {}, {}
    elif trace:
        for r in reps:
            r["layers"]["bench.trace_overhead"] = (
                r["phase_s"] / untraced_phase_s - 1.0
            )
        layer_reps = [r["layers"] for r in reps]
        specs = layer_metric_specs()
        units = {metric: unit for metric, unit, _ in specs}
        samples = {
            metric: [lr[metric] for lr in layer_reps] for metric in units
        }
        timer.write(
            os.path.join(OUT_DIR, f"layers-{name}-s{seed}.json"),
            {"workload": name, "seed": seed, "size": size,
             "untraced_phase_s": untraced_phase_s},
            layer_reps,
        )
    else:
        samples = end_to_end_metrics(cls, reps)
        units = dict(END_TO_END)
    summaries = {
        metric: {**summarize(values), "unit": units[metric]}
        for metric, values in samples.items()
    }
    result = {
        "correct": tally.failed == 0 and bool(reps),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": s["median"], "unit": s["unit"]}
            for metric, s in summaries.items()
        },
    }
    return result, summaries


def print_summaries(title: str, summaries: dict) -> None:
    print(title)
    for metric, s in summaries.items():
        print(
            f"  {metric:44s} {s['median']:14.6g} {s['unit']:6s} "
            f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]"
        )


def main_run(args) -> int:
    result, summaries = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        "smoke" if args.smoke else "full",
    )
    print_summaries(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"reps attempted={result['attempted']} failed={result['failed']}",
        summaries,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_child(args, workload: str, seed: int) -> dict:
    """One run in a fresh interpreter; a run that breaks counts as failed."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"  run {workload} seed={seed}: {exc}", file=sys.stderr)
        result = None
    else:
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
    if not isinstance(result, dict) or "metrics" not in result:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return {"seed": seed, **result}


def main_suite(args) -> int:
    report: dict = {
        "config": {
            "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
            "trace": args.trace, "size": "smoke" if args.smoke else "full",
        },
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        runs = [
            run_child(args, workload, args.seed + i) for i in range(args.runs)
        ]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        for metric in dict.fromkeys(m for r in runs for m in r["metrics"]):
            present = [r["metrics"][metric] for r in runs if metric in r["metrics"]]
            summary[metric] = {
                **summarize([m["value"] for m in present]),
                "unit": present[0]["unit"],
            }
        error_rate = failed / attempted if attempted else 1.0
        ok &= failed == 0
        report["workloads"][workload] = {
            "runs": runs,
            "summary": summary,
            "attempted": attempted,
            "failed": failed,
            "error_rate": error_rate,
        }
        print_summaries(
            f"{workload}: {args.runs} runs, error_rate {error_rate:.3f} "
            f"({failed}/{attempted} reps failed)",
            summary,
        )
    out = args.out or os.path.join(
        OUT_DIR, "suite-trace.json" if args.trace else "suite.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def write_digests() -> int:
    """Record one rep's digest per workload and size for the default seed."""
    from bench_workloads import REPS, SIZES

    os.makedirs(OUT_DIR, exist_ok=True)
    table: dict = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        for size, dims in sorted(SIZES.items()):
            table[size] = {
                name: one_rep(REPS[name], DEFAULT_SEED, dims[name], scratch)["digest"]
                for name in WORKLOADS
            }
    with open(EXPECTED_PATH, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run this workload once, in this process")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="time budget of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics instead")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the self-test")
    p.add_argument("--runs", type=int, default=5,
                   help="suite: runs per workload")
    p.add_argument("--out", help="suite: result file")
    p.add_argument("--write-digests", action="store_true",
                   help="re-record expected_digests.json for the default seed")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.write_digests:
        return write_digests()
    if args.workload:
        return main_run(args)
    return main_suite(args)


if __name__ == "__main__":
    sys.exit(main())
