"""Unified observability options shared by ``run``, ``experiment``, ``sweep``.

Historically each CLI command declared its own subset of observability
flags (``--trace``, ``--metrics-out``, ``--audit``, ``--timeline``,
``--timeline-out``, ``--report-out``) and threaded them into
:class:`repro.experiments.runner.RunConfig` by hand, so the flag surfaces
drifted.  :class:`ObsOptions` is the one source of truth: every command
registers its flags through :func:`add_obs_args`, parses them back with
:func:`obs_options_from_args`, and hands runners the exact ``RunConfig``
fields via :meth:`ObsOptions.run_kwargs`.

Scopes
------

``run``
    The full surface: tracing (ring buffer, subsystem filter, capacity,
    JSONL export), metrics snapshot, invariant auditing, and the
    simulated-time timeline with its Chrome-trace / HTML exports.
``experiment`` / ``sweep``
    The ambient toggles that make sense across many runs: ``--audit``
    and ``--timeline``.  (Their output *paths* stay per-command —
    experiments write per-run files into a directory, sweeps into their
    ``--out`` tree.)
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.obs.clock import interval_ns


@dataclass(frozen=True)
class ObsOptions:
    """Parsed observability selections for one CLI invocation."""

    #: record structured events in the bounded ring buffer
    trace: bool = False
    #: subsystems to trace; ``None`` = all of ``repro.obs.trace.SUBSYSTEMS``
    trace_subsystems: tuple[str, ...] | None = None
    #: ring-buffer size in events (oldest dropped first)
    trace_capacity: int = 65536
    #: write traced events as JSON lines here (implies :attr:`trace`)
    trace_out: str | None = None
    #: write the metrics registry snapshot here as JSON
    metrics_out: str | None = None
    #: attach a sampled invariant auditor (``repro.lint.invariants``)
    audit: bool = False
    #: buddy events between sampled audits (smaller = tighter, slower)
    audit_every: int = 4096
    #: advance the simulated clock through spans and samplers
    timeline: bool = False
    #: write a Chrome Trace Event Format JSON here (implies timeline)
    timeline_out: str | None = None
    #: write a self-contained single-file HTML report here (implies timeline)
    report_out: str | None = None
    #: append Prometheus-text scrape frames (SimClock cadence) here
    telemetry_out: str | None = None
    #: simulated milliseconds between scrape frames
    telemetry_interval_ms: float = 1.0

    @property
    def trace_enabled(self) -> bool:
        """Tracing is on — requested directly or implied by an export path."""
        return self.trace or self.trace_out is not None

    def run_kwargs(self, primary: bool = True) -> dict:
        """The observability fields of a ``RunConfig``/``VirtRunConfig``.

        ``primary=False`` is for companion runs (e.g. ``--baseline``):
        ambient toggles still apply, but per-run artifacts (trace buffer,
        metrics snapshot, timeline exports) belong to the primary run
        only.  ``audit``/``timeline`` map to ``None`` when their flag is
        off so the runner's ambient ``audit_enabled()``/
        ``timeline_enabled()`` defaults still get a say.
        """
        return dict(
            trace=self.trace_enabled and primary,
            trace_subsystems=self.trace_subsystems,
            trace_capacity=self.trace_capacity,
            metrics_out=self.metrics_out if primary else None,
            audit=self.audit or None,
            audit_every=self.audit_every,
            timeline=self.timeline or None,
            timeline_out=self.timeline_out if primary else None,
            report_out=self.report_out if primary else None,
            telemetry_out=self.telemetry_out if primary else None,
            telemetry_interval_ms=self.telemetry_interval_ms,
        )


def interval_ms_arg(text: str) -> float:
    """The argparse ``type`` of every ``--telemetry-interval-ms`` flag.

    Applies the clock's period check (:func:`repro.obs.clock.interval_ns`)
    at parse time, so zero, negative, NaN and infinite periods exit 2
    with one line instead of failing in the run (or, for NaN, scraping
    on every clock advance).
    """
    try:
        value = float(text)
        interval_ns(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def add_obs_args(
    parser: argparse.ArgumentParser, scope: str = "run"
) -> None:
    """Register the observability flags for ``scope`` on ``parser``.

    ``scope`` is ``"run"`` (the full surface) or ``"experiment"`` /
    ``"sweep"`` (the ambient ``--audit`` / ``--timeline`` toggles).
    """
    if scope not in ("run", "experiment", "sweep"):
        raise ValueError(f"unknown obs-args scope: {scope!r}")
    many = "in every run" if scope == "experiment" else "in every worker"
    if scope == "run":
        parser.add_argument(
            "--audit",
            action="store_true",
            help="attach a sampled invariant auditor (repro.lint.invariants)",
        )
        parser.add_argument(
            "--audit-every",
            type=int,
            default=4096,
            metavar="N",
            help="audit at the next checkpoint after every N buddy events",
        )
    else:
        parser.add_argument(
            "--audit",
            action="store_true",
            help=f"attach sampled invariant auditors {many}"
            + (
                "; audit failures surface as unit failures in the manifest"
                if scope == "sweep"
                else ""
            ),
        )
    if scope != "run":
        parser.add_argument(
            "--timeline",
            action="store_true",
            help=f"record the simulated-time timeline {many}"
            + (
                " and aggregate the sections into sweep_report.html"
                if scope == "sweep"
                else ""
            ),
        )
        return

    from repro.obs.trace import SUBSYSTEMS

    parser.add_argument(
        "--trace",
        action="store_true",
        help="record structured events in a bounded ring buffer",
    )
    parser.add_argument(
        "--trace-subsystems",
        default=None,
        metavar="NAMES",
        help=f"comma-separated subset of {','.join(SUBSYSTEMS)} (default: all)",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=65536,
        metavar="N",
        help="ring-buffer size in events (oldest dropped first)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write traced events as JSON lines to PATH (implies --trace)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics registry snapshot to PATH as JSON",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="advance the simulated clock through spans and samplers "
        "(implied by --timeline-out / --report-out)",
    )
    parser.add_argument(
        "--timeline-out",
        default=None,
        metavar="PATH",
        help="write a Chrome Trace Event Format JSON (Perfetto-loadable)",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write a self-contained single-file HTML timeline report",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="append Prometheus-text scrape frames to PATH on the "
        "simulated-clock cadence",
    )
    parser.add_argument(
        "--telemetry-interval-ms",
        type=interval_ms_arg,
        default=1.0,
        metavar="MS",
        help="simulated milliseconds between scrape frames (default: 1)",
    )


def obs_options_from_args(args: argparse.Namespace) -> ObsOptions:
    """Build :class:`ObsOptions` from parsed args of any scope.

    Flags a scope did not register fall back to the dataclass defaults,
    so one construction site serves ``run``, ``experiment`` and
    ``sweep`` alike.
    """
    raw_subsystems = getattr(args, "trace_subsystems", None)
    subsystems = (
        tuple(s for s in raw_subsystems.split(",") if s)
        if raw_subsystems
        else None
    )
    return ObsOptions(
        trace=getattr(args, "trace", False),
        trace_subsystems=subsystems,
        trace_capacity=getattr(args, "trace_capacity", 65536),
        trace_out=getattr(args, "trace_out", None),
        metrics_out=getattr(args, "metrics_out", None),
        audit=getattr(args, "audit", False),
        audit_every=getattr(args, "audit_every", 4096),
        timeline=getattr(args, "timeline", False),
        timeline_out=getattr(args, "timeline_out", None),
        report_out=getattr(args, "report_out", None),
        telemetry_out=getattr(args, "telemetry_out", None),
        telemetry_interval_ms=getattr(args, "telemetry_interval_ms", 1.0),
    )
