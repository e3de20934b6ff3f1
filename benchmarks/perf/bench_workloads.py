"""The benchmark's five workloads, each a fixed unit of work called a rep.

A rep builds a fresh machine (``setup``, timed as ``setup_s``), runs one
measured phase (``run``, timed as ``run_s``) and then digests the
simulated state it left (``digest``, untimed).  Every rep of a workload
and seed does identical simulated work, so every rep must produce the
same digest; the digest is how the benchmark checks that the program's
outputs are correct.

The driver is closed-loop: one caller issues ``touch_batch`` calls back
to back, each after the previous one returns.  ``service_fleet`` is the
exception in simulated time only: its requests arrive open-loop on the
SimClock, but the host still replays them one after another.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro.config import default_machine
from repro.experiments.configs import policy_factory
from repro.obs import Observability
from repro.obs.telemetry import (
    ScrapeFileSink,
    TelemetryScraper,
    iter_frames,
    validate_exposition,
)
from repro.service import fleet
from repro.sim.bench import state_fingerprint
from repro.sim.system import System
from repro.virt.hypercall import PVExchangeInterface
from repro.virt.machine import VirtualMachine
from repro.virt.tridentpv import TridentPVPolicy
from repro.workloads.access import zipf
from repro.workloads.registry import get_workload

POLICY = "Trident"

#: the repo's demo alert rules, evaluated on every service_fleet frame
ALERT_RULES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
    "alert_rules.json",
)


class CheckFailed(Exception):
    """A rep's simulated output failed a correctness check."""


def sub_seed(seed: int, name: str) -> int:
    """A 32-bit seed for one input stream, derived from the run's seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def digest_of(obj) -> str:
    """sha256 of a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_frames(path: str) -> bytes:
    """Every scrape frame of a ``.prom`` stream must pass the validator."""
    with open(path, "rb") as f:
        data = f.read()
    frames = 0
    for _seq, _ts, frame in iter_frames(data.decode()):
        try:
            validate_exposition(frame)
        except ValueError as exc:
            raise CheckFailed(f"{path}: frame {frames + 1}: {exc}") from None
        frames += 1
    if not frames:
        raise CheckFailed(f"{path}: no scrape frames")
    return data


class BenchAPI:
    """The ``WorkloadAPI`` protocol over one process, counting its touches."""

    def __init__(self, system, process, rng) -> None:
        self.system = system
        self.process = process
        self.rng = rng
        self.accesses = 0
        self.calls = 0

    def mmap(self, nbytes: int, kind: str = "heap") -> int:
        return self.system.sys_mmap(self.process, nbytes, kind)

    def munmap(self, addr: int) -> None:
        self.system.sys_munmap(self.process, addr)

    def touch(self, addresses) -> None:
        self.accesses += len(addresses)
        self.calls += 1
        self.system.touch_batch(self.process, addresses)

    def phase(self, label: str) -> None:
        pass

    def replay(self, stream: np.ndarray, batch: int) -> tuple[int, int]:
        """Touch ``stream`` in ``batch``-sized calls; returns (accesses, calls)."""
        before = self.accesses, self.calls
        for i in range(0, len(stream), batch):
            self.touch(stream[i : i + batch])
        return self.accesses - before[0], self.calls - before[1]


class Rep:
    """One unit of work; subclasses fill in setup/run/digest."""

    #: the measured phase rebuilds the machine, so it includes set-up
    phase_includes_setup = False
    #: the same rep without observers, which must give the same digest
    unobserved: type["Rep"] | None = None

    def __init__(self, seed: int, size: dict, scratch: str) -> None:
        self.seed = seed
        self.size = size
        self.scratch = scratch  # private directory for files the rep writes

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> tuple[int, int]:
        """The measured phase; returns (accesses, touch_batch calls)."""
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError


class WarmStreamRep(Rep):
    """A zipf stream over a pre-mapped footprint, replayed once warm."""

    def warm(self, system, process) -> None:
        s = self.size
        footprint = s["footprint"]
        base = system.sys_mmap(process, footprint)
        rng = np.random.default_rng(sub_seed(self.seed, "stream"))
        stream = zipf(rng, base, footprint, s["warmup"] + s["accesses"])
        self.api = BenchAPI(system, process, rng)
        # Pre-map every base page, then warm the TLBs, so the measured
        # phase is fault-free and starts with warm caches.
        self.api.touch(base + np.arange(0, footprint, 4096, dtype=np.int64))
        self.api.touch(stream[: s["warmup"]])
        self.stream = stream[s["warmup"] :]

    def run(self) -> tuple[int, int]:
        return self.api.replay(self.stream, self.size["batch"])


class ZipfRep(WarmStreamRep):
    """Warm Trident machine replaying a zipf stream in big batches."""

    telemetry = False

    def setup(self) -> None:
        obs = Observability(timeline=True) if self.telemetry else None
        system = System(
            default_machine(self.size["regions"]),
            policy_factory(POLICY),
            seed=sub_seed(self.seed, "system"),
            obs=obs,
        )
        self.scraper = None
        if self.telemetry:
            self.prom = os.path.join(self.scratch, "zipf.prom")
            self.scraper = TelemetryScraper(
                obs.clock, obs.metrics, ScrapeFileSink(self.prom), interval_ms=1.0
            )
        self.warm(system, system.create_process())

    def digest(self) -> str:
        if self.scraper is not None:
            self.scraper.close()
            check_frames(self.prom)
        return digest_of(state_fingerprint(self.api.system, self.api.process))


class ZipfTelemetryRep(ZipfRep):
    telemetry = True
    unobserved = ZipfRep


class FaultStormRep(Rep):
    """XSBench set-up on a fragmented machine: faults, daemons, compaction."""

    def setup(self) -> None:
        s = self.size
        system = System(
            default_machine(s["regions"]),
            policy_factory(POLICY),
            seed=sub_seed(self.seed, "system"),
        )
        system.fragment()
        process = system.create_process("XSBench")
        self.workload = get_workload("XSBench", s["scale_factor"])
        rng = np.random.default_rng(sub_seed(self.seed, "stream"))
        self.api = BenchAPI(system, process, rng)

    def run(self) -> tuple[int, int]:
        api = self.api
        self.workload.setup(api)
        api.system.settle_until_quiet(max_ticks=400, budget_ns=1e9)
        for batch in self.workload.iter_batches(api, self.size["accesses"]):
            api.touch(batch)
        return api.accesses, api.calls

    def digest(self) -> str:
        return digest_of(state_fingerprint(self.api.system, self.api.process))


def _pv_guest_policy(kernel):
    pv = PVExchangeInterface(kernel.hypervisor, kernel.cost, obs=kernel.obs)
    return TridentPVPolicy(kernel, pv, batched=True)


class GuestPVRep(WarmStreamRep):
    """Trident-pv guest over a Trident host: the scalar nested path."""

    def setup(self) -> None:
        s = self.size
        self.vm = VirtualMachine(
            default_machine(s["guest_regions"]),
            default_machine(s["host_regions"]),
            _pv_guest_policy,
            policy_factory(POLICY),
            seed=sub_seed(self.seed, "system"),
        )
        self.warm(self.vm.guest, self.vm.create_guest_process())

    def digest(self) -> str:
        vm = self.vm
        process = self.api.process
        unit = process.tlb
        st = unit.stats
        structs = {f"l1:{level}": t for level, t in unit.l1.items()}
        structs.update({f"l2:{name}": t for name, t in unit.l2.items()})
        return digest_of(
            {
                "stats": [
                    st.accesses, st.l1_hits, st.l2_hits, st.walks,
                    dict(st.walks_by_size), st.translation_cycles,
                    st.walk_cycles,
                ],
                # Set contents in LRU order: the unit's complete cache state.
                "sets": {
                    name: (t.hits, t.misses, [list(s) for s in t._sets])
                    for name, t in structs.items()
                },
                "guest_clock_ns": vm.guest.obs.clock.now_ns,
                "host_clock_ns": vm.host.obs.clock.now_ns,
                "faults": process.faults,
                "ept_faults": vm.hypervisor.ept_faults,
                "fault_ns": vm.total_fault_ns,
                "touched_pages": len(process.touched_pages),
            }
        )


class ServiceFleetRep(Rep):
    """One GUPS service cell: open-loop Poisson arrivals, 16-access requests.

    ``run_service_cell`` builds its machine inside the call, so set-up is
    timed as a separate cell of 1 us simulated duration and the measured
    phase is the full cell; ``run_s`` is their difference.
    """

    ACCESSES_PER_REQUEST = 16
    phase_includes_setup = True

    def _cell(self, duration_s: float, name: str) -> dict:
        prom = os.path.join(self.scratch, f"{name}.prom")
        record = fleet.run_service_cell(
            "GUPS",
            POLICY,
            0,
            self.size["rate_rps"],
            duration_s,
            seed=sub_seed(self.seed, "cell"),
            accesses_per_request=self.ACCESSES_PER_REQUEST,
            telemetry_out=prom,
            alerts_path=ALERT_RULES,
        )
        self.prom = prom
        return record

    def setup(self) -> None:
        self._cell(1e-6, "setup")

    def run(self) -> tuple[int, int]:
        self.record = self._cell(self.size["duration_s"], "cell")
        requests = self.record["requests"]
        return requests * self.ACCESSES_PER_REQUEST, requests

    def digest(self) -> str:
        data = check_frames(self.prom)
        return digest_of(
            {"record": self.record, "prom": hashlib.sha256(data).hexdigest()}
        )


REPS: dict[str, type[Rep]] = {
    "zipf_warm": ZipfRep,
    "zipf_telemetry": ZipfTelemetryRep,
    "fault_storm": FaultStormRep,
    "guest_pv": GuestPVRep,
    "service_fleet": ServiceFleetRep,
}

_ZIPF_FULL = {
    "regions": 64, "footprint": 32 << 20, "warmup": 200_000,
    "accesses": 4_000_000, "batch": 65536,
}
_ZIPF_SMOKE = {
    "regions": 16, "footprint": 4 << 20, "warmup": 5_000,
    "accesses": 40_000, "batch": 8192,
}

#: per-workload sizes; ``smoke`` is the self-test's small version
SIZES: dict[str, dict[str, dict]] = {
    "full": {
        "zipf_warm": _ZIPF_FULL,
        "zipf_telemetry": _ZIPF_FULL,
        "fault_storm": {"regions": 48, "scale_factor": 1024, "accesses": 200_000},
        "guest_pv": {
            "guest_regions": 64, "host_regions": 80, "footprint": 32 << 20,
            "warmup": 50_000, "accesses": 600_000, "batch": 8192,
        },
        "service_fleet": {"rate_rps": 20_000.0, "duration_s": 0.1},
    },
    "smoke": {
        "zipf_warm": _ZIPF_SMOKE,
        "zipf_telemetry": _ZIPF_SMOKE,
        "fault_storm": {"regions": 16, "scale_factor": 16384, "accesses": 10_000},
        "guest_pv": {
            "guest_regions": 16, "host_regions": 20, "footprint": 4 << 20,
            "warmup": 2_000, "accesses": 10_000, "batch": 1024,
        },
        "service_fleet": {"rate_rps": 20_000.0, "duration_s": 0.005},
    },
}
