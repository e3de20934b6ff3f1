"""Bounded structured-event tracer — the simulator's tracefs.

Events are (seq, subsystem, event, fields) records appended to a ring
buffer of fixed capacity: old events fall off the front under pressure
(``dropped`` counts them), exactly like a ftrace per-cpu ring.  Each
subsystem is gated by its own enable flag; with nothing enabled the tracer
costs one attribute read per *guarded* call site::

    tr = self._tracer
    if tr.active:
        tr.emit("buddy", "alloc", pfn=pfn, order=order)

``active`` is maintained eagerly by :meth:`enable`/:meth:`disable`, so the
disabled-path cost is one bool read — near-zero, which is what lets the
instrumentation live permanently in the hot layers (the eBPF-mm argument:
observability must be cheap enough to never remove).

Export is JSONL (one event object per line), the format every trace
tooling pipeline ingests.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from collections import deque
from typing import IO, Iterable, Iterator

#: every subsystem with permanent instrumentation (``enable_all`` scope).
#: ``span`` is the begin/end pair stream of :mod:`repro.obs.spans`.
#: ``telemetry`` carries the alert engine's firing/resolved transitions.
SUBSYSTEMS = (
    "buddy", "zerofill", "regions", "compaction", "policy", "tlb", "span",
    "telemetry",
)

#: envelope keys an event's fields may not shadow: ``{**fields}`` in
#: :meth:`Tracer.events` would silently overwrite them otherwise
RESERVED_FIELDS = frozenset({"seq", "ts_ns", "subsystem", "event"})


class Tracer:
    """Per-subsystem gated ring buffer of structured events."""

    def __init__(
        self,
        capacity: int = 65536,
        subsystems: Iterable[str] = (),
        clock=None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: the simulated-time source stamping ``ts_ns``; without one every
        #: event carries ts_ns 0.0 (ordering still given by ``seq``)
        self.clock = clock
        self._events: deque[tuple[int, float, str, str, dict]] = deque(
            maxlen=capacity
        )
        self._enabled: set[str] = set(subsystems)
        self.active = bool(self._enabled)
        self.emitted = 0
        self.dropped = 0
        self._seq = 0
        #: (subsystem, event) -> lifetime emit count (survives ring overflow)
        self.tallies: TallyCounter = TallyCounter()

    # -- enable flags -------------------------------------------------------
    def enable(self, *subsystems: str) -> None:
        self._enabled.update(subsystems)
        self.active = bool(self._enabled)

    def enable_all(self) -> None:
        self.enable(*SUBSYSTEMS)

    def disable(self, *subsystems: str) -> None:
        if subsystems:
            self._enabled.difference_update(subsystems)
        else:
            self._enabled.clear()
        self.active = bool(self._enabled)

    def is_enabled(self, subsystem: str) -> bool:
        return subsystem in self._enabled

    @property
    def enabled_subsystems(self) -> frozenset:
        return frozenset(self._enabled)

    # -- emission -----------------------------------------------------------
    def emit(self, subsystem: str, event: str, /, **fields) -> None:
        """Record one event if ``subsystem`` is enabled; else a no-op.

        Fields named like envelope keys (``seq``, ``ts_ns``, ``subsystem``,
        ``event``) are rejected: they would silently overwrite the envelope
        when :meth:`events` flattens the record.  The envelope parameters
        are positional-only so the collision always surfaces as this
        ValueError rather than sometimes as a TypeError.
        """
        if subsystem not in self._enabled:
            return
        if RESERVED_FIELDS & fields.keys():
            bad = sorted(RESERVED_FIELDS & fields.keys())
            raise ValueError(
                f"event field(s) {bad} shadow the trace envelope; "
                "rename them at the emit site"
            )
        ts = self.clock.now_ns if self.clock is not None else 0.0
        self._append(ts, subsystem, event, fields)

    def emit_at(
        self, ts_ns: float, subsystem: str, event: str, /, **fields
    ) -> None:
        """Like :meth:`emit` with an explicit timestamp.

        For retrospective records (a span whose duration is only known at
        its end): the caller is responsible for ``ts_ns`` not running
        backwards relative to already-recorded events.
        """
        if subsystem not in self._enabled:
            return
        if RESERVED_FIELDS & fields.keys():
            bad = sorted(RESERVED_FIELDS & fields.keys())
            raise ValueError(
                f"event field(s) {bad} shadow the trace envelope; "
                "rename them at the emit site"
            )
        self._append(ts_ns, subsystem, event, fields)

    def _append(self, ts: float, subsystem: str, event: str, fields: dict) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._seq += 1
        self.emitted += 1
        self.tallies[(subsystem, event)] += 1
        self._events.append((self._seq, ts, subsystem, event, fields))

    def clear(self) -> None:
        self._events.clear()
        self.tallies.clear()
        self.emitted = 0
        self.dropped = 0

    # -- read side ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(
        self, subsystem: str | None = None, event: str | None = None
    ) -> Iterator[dict]:
        """Buffered events, oldest first, as flat dicts."""
        for seq, ts, sub, name, fields in self._events:
            if subsystem is not None and sub != subsystem:
                continue
            if event is not None and name != event:
                continue
            yield {
                "seq": seq,
                "ts_ns": ts,
                "subsystem": sub,
                "event": name,
                **fields,
            }

    def summary(self) -> dict:
        """Lifetime emit tallies plus buffer health, for CLI display."""
        return {
            "emitted": self.emitted,
            "dropped": self.dropped,
            "buffered": len(self._events),
            "events": {
                f"{sub}:{name}": count
                for (sub, name), count in sorted(self.tallies.items())
            },
        }

    def export_jsonl(self, dest: str | IO[str]) -> int:
        """Write buffered events as JSON Lines; returns the event count."""
        if isinstance(dest, str):
            with open(dest, "w") as f:
                return self.export_jsonl(f)
        n = 0
        for record in self.events():
            dest.write(json.dumps(record, sort_keys=True))
            dest.write("\n")
            n += 1
        return n
