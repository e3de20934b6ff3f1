"""Trident (MICRO 2021) reproduction: transparent allocation of all x86
page sizes over a from-scratch simulated memory subsystem.

Public API tour
---------------

Configuration::

    from repro import PageGeometry, MachineConfig, default_machine

Build a system and run a workload::

    from repro import System, TridentPolicy
    from repro.workloads import get_workload

    system = System(default_machine(192), TridentPolicy)
    process = system.create_process("app")
    addr = system.sys_mmap(process, 64 << 20)
    system.touch(process, addr)

Or use the experiment harness (what the figures are built from)::

    from repro.experiments import NativeRunner, RunConfig

    metrics = NativeRunner(RunConfig("GUPS", "Trident")).run()
    print(metrics.walk_cycle_fraction, metrics.runtime_ns)

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.config import (
    SCALE_FACTOR,
    SCALED_GEOMETRY,
    X86_GEOMETRY,
    CostModel,
    MachineConfig,
    PageGeometry,
    TLBConfig,
    TLBSection,
    WalkConfig,
    default_machine,
)
from repro.core import (
    Baseline4KPolicy,
    HawkEyePolicy,
    HugetlbfsPolicy,
    MemoryPolicy,
    THPPolicy,
    TridentPolicy,
)
from repro.sim import PerfModel, Process, RunMetrics, System

__version__ = "1.0.0"

__all__ = [
    "PageGeometry",
    "MachineConfig",
    "CostModel",
    "WalkConfig",
    "TLBConfig",
    "TLBSection",
    "default_machine",
    "X86_GEOMETRY",
    "SCALED_GEOMETRY",
    "SCALE_FACTOR",
    "MemoryPolicy",
    "Baseline4KPolicy",
    "THPPolicy",
    "HugetlbfsPolicy",
    "HawkEyePolicy",
    "TridentPolicy",
    "System",
    "Process",
    "PerfModel",
    "RunMetrics",
    "__version__",
]
