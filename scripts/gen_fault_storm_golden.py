"""Regenerate the fault-storm fingerprints.

The fault handler, khugepaged promotion and both compactors do most of
their work on fragmented memory, where faults fall back from the large
page to smaller ones and the daemons rebuild huge pages by migrating
blocks.  Host-side optimisations of that path must not change one
simulated bit.  This script runs a set of fragmented scenarios and
records, per scenario, the complete simulated state they leave:

* :func:`repro.sim.bench.state_fingerprint` of the process (TLB LRU
  orders, walk histograms, accessed bits, simulated clock);
* every :class:`repro.core.policy.PolicyStats` field, fault latencies
  included;
* both compactors' :class:`repro.core.compaction.CompactionStats`;
* the buddy allocator's free-block count per order and its free frames;
* the RegionTracker's per-region free and unmovable counters;
* the number of reverse-map entries.

Every scenario runs on a fragmented ``default_machine(16)`` (System seed
3, workload rng seed 4): first touch, then
``settle_until_quiet(max_ticks=400, budget_ns=1e9)``, then 20,000
steady-state accesses.

* ``xsbench/<policy>`` — XSBench at ``scale_factor=4096`` under every
  :data:`repro.experiments.configs.POLICY_CONFIGS` entry, plus
  ``xsbench/2MB-THP-defrag-always`` (synchronous compaction at fault);
* ``redis/<policy>`` — Redis at ``scale_factor=2048``, whose 21 heap
  VMAs merge into one extent, under Trident, 2MB-THP, 2MB-Hugetlbfs and
  Ingens;
* ``xsbench-sv-napot/Trident`` — the four-level ``sv-napot`` preset;
* ``xsbench-guest/Trident-pv`` — a fragmented Trident-pv guest
  (``default_machine(16)``) over a Trident host (``default_machine(20)``);
  both levels are recorded.

The golden keeps one sha256 of each scenario's canonical JSON, plus its
faults, promotions, blocks moved and simulated clock in the clear, so a
failing comparison names the counter that drifted.
``tests/test_fault_storm_golden.py`` replays the scenarios (it imports
:func:`run_scenario` from here) and compares.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_fault_storm_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import default_machine  # noqa: E402
from repro.core.thp import THPPolicy  # noqa: E402
from repro.experiments.configs import POLICY_CONFIGS  # noqa: E402
from repro.experiments.runner import _WorkloadAPI  # noqa: E402
from repro.geometries import GEOMETRY_PRESETS  # noqa: E402
from repro.sim.bench import state_fingerprint  # noqa: E402
from repro.sim.system import System  # noqa: E402
from repro.virt.hypercall import PVExchangeInterface  # noqa: E402
from repro.virt.machine import VirtualMachine  # noqa: E402
from repro.virt.tridentpv import TridentPVPolicy  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
GOLDEN_PATH = os.path.join(REPO, "tests", "golden", "fault_storm_fingerprints.json")

REGIONS = 16
HOST_REGIONS = 20
SYSTEM_SEED = 3
RNG_SEED = 4
STEADY_ACCESSES = 20_000


def _canonical(obj):
    """JSON-stable form: str keys, lists for tuples, Python scalars."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def system_state(system: System) -> dict:
    """Kernel-side state of one system: policy, compactors, buddy, regions."""
    buddy = system.buddy
    return {
        "policy": dataclasses.asdict(system.policy.stats),
        "smart_compaction": dataclasses.asdict(system.smart_compactor.stats),
        "normal_compaction": dataclasses.asdict(system.normal_compactor.stats),
        "free_blocks": [buddy.free_blocks(o) for o in range(buddy.max_order + 1)],
        "free_frames": buddy.free_frames,
        "region_free": system.regions.free_frames,
        "region_unmovable": system.regions.unmovable_frames,
        "rmap": len(system.rmap),
    }


def _drive(system: System, process, workload) -> None:
    api = _WorkloadAPI(system, process, np.random.default_rng(RNG_SEED))
    workload.setup(api)
    system.settle_until_quiet(max_ticks=400, budget_ns=1e9)
    for batch in workload.iter_batches(api, STEADY_ACCESSES):
        api.touch(batch)


def native(workload: str, scale_factor: int, policy_factory, machine=None):
    """A fragmented native machine running one workload under one policy."""

    def run() -> dict:
        system = System(
            machine if machine is not None else default_machine(REGIONS),
            policy_factory,
            seed=SYSTEM_SEED,
        )
        system.fragment()
        process = system.create_process(workload)
        _drive(system, process, get_workload(workload, scale_factor))
        return {
            "fingerprint": state_fingerprint(system, process),
            **system_state(system),
        }

    return run


def _pv_guest_policy(kernel):
    pv = PVExchangeInterface(kernel.hypervisor, kernel.cost, obs=kernel.obs)
    return TridentPVPolicy(kernel, pv, batched=True)


def pv_guest() -> dict:
    """A fragmented Trident-pv guest over a Trident host."""
    vm = VirtualMachine(
        default_machine(REGIONS),
        default_machine(HOST_REGIONS),
        _pv_guest_policy,
        POLICY_CONFIGS["Trident"],
        seed=SYSTEM_SEED,
    )
    vm.guest.fragment()
    process = vm.create_guest_process("XSBench")
    _drive(vm.guest, process, get_workload("XSBench", 4096))
    host = vm.host
    return {
        "fingerprint": state_fingerprint(vm.guest, process),
        **system_state(vm.guest),
        "host": {
            "fingerprint": state_fingerprint(host, vm.hypervisor.vm_process),
            **system_state(host),
        },
    }


def _scenarios() -> dict:
    scenarios = {
        f"xsbench/{name}": native("XSBench", 4096, factory)
        for name, factory in POLICY_CONFIGS.items()
    }
    scenarios["xsbench/2MB-THP-defrag-always"] = native(
        "XSBench", 4096, lambda kernel: THPPolicy(kernel, defrag="always")
    )
    for name in ("Trident", "2MB-THP", "2MB-Hugetlbfs", "Ingens"):
        scenarios[f"redis/{name}"] = native("Redis", 2048, POLICY_CONFIGS[name])
    scenarios["xsbench-sv-napot/Trident"] = native(
        "XSBench",
        4096,
        POLICY_CONFIGS["Trident"],
        machine=GEOMETRY_PRESETS["sv-napot"].machine(REGIONS),
    )
    scenarios["xsbench-guest/Trident-pv"] = pv_guest
    return scenarios


SCENARIOS = _scenarios()


def run_scenario(name: str) -> dict:
    """One scenario's golden record: a digest plus headline counters."""
    state = _canonical(SCENARIOS[name]())
    text = json.dumps(state, sort_keys=True, separators=(",", ":"))
    policy = state["policy"]
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "faults": policy["faults"],
        "promotions": sum(policy["promoted"].values()),
        "blocks_moved": state["smart_compaction"]["blocks_moved"]
        + state["normal_compaction"]["blocks_moved"],
        "clock_ns": state["fingerprint"]["clock_ns"],
    }


def main() -> None:
    golden = {name: run_scenario(name) for name in SCENARIOS}
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH, REPO)}")


if __name__ == "__main__":
    main()
