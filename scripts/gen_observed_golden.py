"""Regenerate the observed-artifact digests.

Observation must never change what is observed, and restructuring how
observers are scheduled must not change a byte of what they write.  This
script runs five observed scenarios and records the sha256 and byte count
of every artifact each one writes: ``.prom`` scrape streams, Chrome
traces, JSONL traces, ``metrics.json``, ``alerts.json`` and the service
report.

* ``native_scrapes`` — a native GUPS run with the timeline and a scrape
  every 0.01 ms of simulated time, so scrape and sample deadlines fall
  inside the TLB kernel's segments;
* ``xsbench_traced`` — a fragmented XSBench machine (shrunk by a scale
  factor) with spans and the ``span,buddy,telemetry`` trace subsystems
  on, none of them ``tlb``;
* ``tlb_traced`` — a native GUPS run tracing every page walk;
* ``virt_scrapes`` — a ``--virt`` GUPS run with the timeline and scrapes;
* ``burst_fleet`` — the burst-arrival service fleet with
  ``examples/alert_rules.json``, whose alert fires and resolves.

``tests/test_observed_artifacts.py`` replays the same scenarios (it
imports :func:`run_scenario` from here) and compares against the
committed ``tests/golden/observed_artifacts.json``.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_observed_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.config import default_machine  # noqa: E402
from repro.experiments.configs import policy_factory  # noqa: E402
from repro.experiments.runner import _WorkloadAPI  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.obs.export import write_chrome_trace  # noqa: E402
from repro.sim.system import System  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
GOLDEN_PATH = os.path.join(REPO, "tests", "golden", "observed_artifacts.json")
EXAMPLES = os.path.join(REPO, "examples")


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(argv)
    if status != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {status}")


def native_scrapes(out: str) -> None:
    _cli([
        "run", "GUPS", "Trident", "--accesses", "20000", "--seed", "7",
        "--timeline",
        "--telemetry-out", os.path.join(out, "run.prom"),
        "--telemetry-interval-ms", "0.01",
        "--metrics-out", os.path.join(out, "metrics.json"),
        "--timeline-out", os.path.join(out, "chrome.json"),
    ])


def xsbench_traced(out: str) -> None:
    obs = Observability(
        trace_subsystems=("span", "buddy", "telemetry"), trace_capacity=4096
    )
    obs.spans.enabled = True
    system = System(
        default_machine(16), policy_factory("Trident"), seed=7, obs=obs
    )
    system.fragment()
    process = system.create_process("XSBench")
    workload = get_workload("XSBench", 16384)
    api = _WorkloadAPI(system, process, np.random.default_rng(7))
    workload.setup(api)
    system.settle_until_quiet(max_ticks=100, budget_ns=1e9)
    for batch in workload.iter_batches(api, 10_000):
        api.touch(batch)
    obs.tracer.export_jsonl(os.path.join(out, "trace.jsonl"))
    write_chrome_trace(
        os.path.join(out, "chrome.json"), tracer=obs.tracer, clock=obs.clock
    )
    obs.write_metrics_json(os.path.join(out, "metrics.json"))


def tlb_traced(out: str) -> None:
    _cli([
        "run", "GUPS", "Trident", "--accesses", "2000", "--seed", "7",
        "--trace-subsystems", "tlb",
        "--trace-out", os.path.join(out, "trace.jsonl"),
        "--metrics-out", os.path.join(out, "metrics.json"),
    ])


def virt_scrapes(out: str) -> None:
    _cli([
        "run", "GUPS", "Trident", "--virt", "--accesses", "20000",
        "--seed", "7", "--timeline",
        "--telemetry-out", os.path.join(out, "run.prom"),
        "--telemetry-interval-ms", "0.1",
        "--metrics-out", os.path.join(out, "metrics.json"),
        "--timeline-out", os.path.join(out, "chrome.json"),
    ])


def burst_fleet(out: str) -> None:
    _cli([
        "loadgen", "--workloads", "GUPS", "--policies", "Trident",
        "--rate", "20000", "--duration", "0.004", "--slo-ms", "0.1",
        "--scale-factor", "2048", "--seed", "7",
        "--arrivals", os.path.join(EXAMPLES, "burst_arrivals.txt"),
        "--jobs", "1", "--out", out,
        "--telemetry-out", os.path.join(out, "telemetry"),
        "--telemetry-interval-ms", "0.2",
        "--alerts", os.path.join(EXAMPLES, "alert_rules.json"),
    ])


SCENARIOS = {
    "native_scrapes": native_scrapes,
    "xsbench_traced": xsbench_traced,
    "tlb_traced": tlb_traced,
    "virt_scrapes": virt_scrapes,
    "burst_fleet": burst_fleet,
}


def run_scenario(name: str, out: str) -> dict:
    """Run one scenario into ``out``; {relative path: {sha256, bytes}}."""
    os.makedirs(out, exist_ok=True)
    SCENARIOS[name](out)
    digests = {}
    for root, _, files in os.walk(out):
        for filename in files:
            path = os.path.join(root, filename)
            with open(path, "rb") as f:
                data = f.read()
            rel = os.path.relpath(path, out).replace(os.sep, "/")
            digests[rel] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
            }
    return dict(sorted(digests.items()))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            name: run_scenario(name, os.path.join(tmp, name))
            for name in SCENARIOS
        }
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH, REPO)}")


if __name__ == "__main__":
    main()
