"""Host-time spans around the simulator's layers, installed from outside.

The benchmark times the program without editing it: each layer's public
function is replaced, in the namespace where its callers look it up, by a
wrapper that records a span (name, start, end, parent, rep) and folds it
into per-layer statistics.  A layer's self time is its span's duration
minus the time its child spans cover, accumulated on a span stack as the
spans close.  ``LayerTimer.restore`` puts every original attribute back.

Per-access functions get a counting wrapper instead of a span: a span per
access would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric prefix, where it is looked up, how."""

    name: str  # metric prefix, ``<layer>.<function>``
    module: str
    attr: str  # ``func`` or ``Class.method``, patched where it is defined
    span: bool = True  # False: count calls only
    #: keys or addresses handed to one call, from its positional arguments
    items: Callable[[tuple], int] | None = None
    #: useful outcomes of one call, from (arguments, result); the ratio's
    #: denominator is ``items`` when the target has it, else ``calls``
    useful: Callable[[tuple, Any], int] | None = None


def _segment_committed(args: tuple, result) -> int:
    # translate_segment returns (sizes, fault_at, mapped_vpns): accesses
    # before the first fault are committed, the rest were probed for nothing.
    fault_at = result[1]
    return len(args[1]) if fault_at is None else fault_at


#: every wrapped layer; ``sim``/``tlb``/``core``/... is the package under
#: ``repro`` the function lives in
TARGETS: tuple[Target, ...] = (
    Target("sim.touch_batch", "repro.sim.system", "System.touch_batch",
           items=lambda a: len(a[2])),
    Target("sim.translate_segment", "repro.sim.batch", "translate_segment",
           items=lambda a: len(a[1]), useful=_segment_committed),
    Target("sim.run_daemons", "repro.sim.system", "System.run_daemons"),
    Target("tlb.hierarchy_touch_batch", "repro.sim.batch",
           "hierarchy_touch_batch", items=lambda a: len(a[2])),
    Target("tlb.lru_batch_lookup", "repro.tlb.batch", "lru_batch_lookup",
           items=lambda a: len(a[1])),
    Target("tlb.TLBHierarchy.access", "repro.tlb.hierarchy",
           "TLBHierarchy.access", span=False),
    Target("tlb.NestedTranslationUnit.access", "repro.tlb.nested",
           "NestedTranslationUnit.access"),
    Target("core.handle_fault", "repro.core.trident", "TridentPolicy.handle_fault"),
    Target("core.background_tick", "repro.core.trident",
           "TridentPolicy.background_tick"),
    Target("core.compact", "repro.core.compaction", "_CompactorBase.compact",
           useful=lambda a, r: int(r.success)),
    Target("mem.ZeroFillEngine.background_fill", "repro.mem.zerofill",
           "ZeroFillEngine.background_fill"),
    Target("vm.PageTable.translate", "repro.vm.pagetable", "PageTable.translate",
           span=False),
    Target("obs.SimClock.advance", "repro.obs.clock", "SimClock.advance",
           span=False),
    Target("obs.MetricsRegistry.snapshot", "repro.obs.metrics",
           "MetricsRegistry.snapshot"),
    Target("obs.render_frame", "repro.obs.telemetry.exposition", "render_frame"),
    Target("obs.AlertEngine.evaluate", "repro.obs.telemetry.alerts",
           "AlertEngine.evaluate"),
    Target("obs.TimelineSampler.sample", "repro.obs.timeline",
           "TimelineSampler.sample"),
    Target("virt.GuestSystem.touch", "repro.virt.machine", "GuestSystem.touch",
           span=False),
    Target("virt.Hypervisor.ensure_backed", "repro.virt.hypervisor",
           "Hypervisor.ensure_backed"),
    Target("service.run_service_cell", "repro.service.fleet", "run_service_cell"),
)

#: the benchmark's own span around one measured phase; its self time is
#: the part of the phase no wrapped layer accounts for
ROOT = "bench.measured"


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs: list[tuple[str, str, str]] = []
    for t in TARGETS:
        specs.append((f"{t.name}.calls", "count", "lower"))
        if t.items is not None:
            specs.append((f"{t.name}.items", "count", "lower"))
        if t.span:
            specs.append((f"{t.name}.self_pct", "%", "lower"))
            specs.append((f"{t.name}.incl_pct", "%", "lower"))
        if t.useful is not None:
            specs.append((f"{t.name}.useful_ratio", "ratio", "higher"))
    specs.append(("bench.unattributed_pct", "%", "lower"))
    specs.append(("bench.trace_overhead", "ratio", "lower"))
    return specs


class LayerStat:
    """Counters for one span name over one rep."""

    __slots__ = ("calls", "items", "useful", "self_s", "incl_s", "depth")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.items = 0
        self.useful = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0  # open spans of this name; incl_s counts the outermost


class LayerTimer:
    """Span recorder over :data:`TARGETS`; install per measured phase."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.stats = {t.name: LayerStat() for t in TARGETS}
        self.stats[ROOT] = LayerStat()
        self.span_cap = span_cap
        #: (name, start_s, end_s, span_id, parent_id, rep); the first
        #: ``span_cap`` spans of the run, later ones are only counted
        self.spans: list[tuple] = []
        self.dropped = 0
        self.rep = ""
        #: per traced rep, {span name: [self_s, incl_s]}
        self.rep_seconds: list[dict[str, list[float]]] = []
        self._stack: list[list] = []  # [child_s, span_id] per open span
        self._next_id = 0
        self._t0 = time.perf_counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------
    def install(self) -> None:
        """Replace every target with its wrapper."""
        for t in TARGETS:
            owner: Any = importlib.import_module(t.module)
            *path, leaf = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # Patch where the name is defined, so every lookup through the
            # class (or the module global) reaches the wrapper.
            original = vars(owner)[leaf]
            self._saved.append((owner, leaf, original))
            stat = self.stats[t.name]
            wrapper = (
                self._span_wrapper(t.name, original, stat, t.items, t.useful)
                if t.span
                else self._count_wrapper(original, stat)
            )
            setattr(owner, leaf, wrapper)

    def restore(self) -> None:
        """Put every original attribute back, last patched first."""
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    @staticmethod
    def _count_wrapper(fn, stat: LayerStat):
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name, fn, stat: LayerStat, items, useful):
        def wrapper(*args, **kwargs):
            if items is not None:
                stat.items += items(args)
            result = self.timed(name, stat, fn, args, kwargs)
            if useful is not None:
                stat.useful += useful(args, result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------
    def timed(self, name: str, stat: LayerStat, fn, args=(), kwargs=None):
        """Call ``fn`` inside one span of ``name``."""
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][1] if stack else -1
        frame = [0.0, span_id]
        stack.append(frame)
        stat.depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            stat.depth -= 1
            dur = end - start
            stat.calls += 1
            stat.self_s += dur - frame[0]
            if not stat.depth:
                stat.incl_s += dur
            if stack:
                stack[-1][0] += dur
            if len(self.spans) < self.span_cap:
                self.spans.append(
                    (name, start - self._t0, end - self._t0, span_id, parent,
                     self.rep)
                )
            else:
                self.dropped += 1

    def measure(self, rep: str, fn) -> tuple[Any, dict[str, float]]:
        """Run ``fn`` as one traced measured phase; returns (result, metrics).

        Wrappers are installed only for the phase, so set-up and the
        correctness checks run on the original functions.
        """
        for stat in self.stats.values():
            stat.reset()
        self.rep = rep
        self.install()
        try:
            result = self.timed(ROOT, self.stats[ROOT], fn)
        finally:
            self.restore()
        self.rep_seconds.append(
            {
                name: [s.self_s, s.incl_s]
                for name, s in self.stats.items()
                if s.calls
            }
        )
        return result, self._rep_metrics()

    def _rep_metrics(self) -> dict[str, float]:
        phase_s = self.stats[ROOT].incl_s
        pct = 100.0 / phase_s if phase_s > 0 else 0.0
        out: dict[str, float] = {}
        for t in TARGETS:
            s = self.stats[t.name]
            out[f"{t.name}.calls"] = s.calls
            if t.items is not None:
                out[f"{t.name}.items"] = s.items
            if t.span:
                out[f"{t.name}.self_pct"] = s.self_s * pct
                out[f"{t.name}.incl_pct"] = s.incl_s * pct
            if t.useful is not None:
                base = s.items if t.items is not None else s.calls
                out[f"{t.name}.useful_ratio"] = s.useful / base if base else 0.0
        out["bench.unattributed_pct"] = self.stats[ROOT].self_s * pct
        return out

    def write(self, path: str, header: dict, reps: list[dict]) -> None:
        """Dump the span log and per-rep layer numbers as JSON."""
        with open(path, "w") as f:
            json.dump(
                {
                    **header,
                    "reps": reps,
                    "rep_seconds": self.rep_seconds,
                    "span_fields": ["name", "start_s", "end_s", "id", "parent", "rep"],
                    "spans": self.spans,
                    "spans_dropped": self.dropped,
                },
                f,
            )
            f.write("\n")
