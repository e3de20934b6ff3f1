"""Prometheus/OpenMetrics text exposition over the metrics registry.

Every signal the simulator produces already lives in one
:class:`repro.obs.metrics.MetricsRegistry` snapshot; this module renders
such a snapshot in the Prometheus text exposition format (the dialect
``promtool check metrics`` validates): one ``# HELP`` / ``# TYPE`` header
per metric family, one sample line per series, histograms expanded into
cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``, label
values quoted and backslash-escaped.

Three consumers share the renderer:

* :class:`TelemetryScraper` — a periodic task on the
  :class:`repro.obs.clock.SimClock` that appends one *frame* per
  simulated-time interval to a :class:`ScrapeFileSink`.  Frames are a
  pure function of the metric stream, so a seeded run emits
  byte-identical frames at any ``--jobs`` count (the file-sink mode CI
  byte-compares).  The scraper keeps one :class:`ExpositionRenderer`,
  so each series' text is derived once per stream.
* the live HTTP endpoint (:mod:`repro.obs.telemetry.endpoint`) — serves
  the newest frame to real scrapers while a fleet runs.
* ``repro metrics FILE --format prom`` — renders an existing
  ``metrics.json`` snapshot after the fact.

:func:`parse_exposition` is the strict inverse used by the round-trip
tests and the ``repro watch`` dashboard tail; :func:`validate_exposition`
is the promtool-style format gate every frame must pass.

No wall-clock reads anywhere in this module: frame timestamps come from
the simulated clock (TRD007-clean by construction).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from repro.obs.clock import interval_ns
from repro.obs.metrics import escape_label_value, parse_key, render_key

#: marks the end of one complete scrape frame in a stream file (the
#: OpenMetrics terminator, reused as the frame delimiter)
FRAME_TERMINATOR = "# EOF"


def format_value(value: int | float) -> str:
    """Deterministic sample-value text: integral floats render as ints.

    ``repr`` for the rest gives the shortest round-trippable float, so
    rendering is a pure function of the value — no locale, no precision
    environment knobs.
    """
    if isinstance(value, bool):  # pragma: no cover - registry never stores
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: dict, extra: tuple = ()) -> str:
    """``{k="v",...}`` with sorted keys, or empty for a bare series."""
    items = sorted(labels.items()) + list(extra)
    if not items:
        return ""
    inner = ",".join(
        f'{k}="{escape_label_value(str(v))}"' for k, v in items
    )
    return "{" + inner + "}"


def _help_index(catalog: Iterable[tuple] | None) -> dict:
    """name -> help text from a METRIC_CATALOG-shaped iterable."""
    if catalog is None:
        from repro.obs import METRIC_CATALOG

        catalog = METRIC_CATALOG
    return {entry[0]: entry[3] for entry in catalog}


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


#: snapshot section -> exposition family type, in rendering order
_SECTION_TYPES = {
    "counters": "counter",
    "gauges": "gauge",
    "histograms": "histogram",
}


def render_exposition(
    snapshot: dict, catalog: Iterable[tuple] | None = None
) -> str:
    """Render one registry snapshot as Prometheus exposition text.

    ``snapshot`` is the dict :meth:`MetricsRegistry.snapshot` produces
    (also the top level of any exported ``metrics.json``).  Families are
    emitted in sorted name order, series in sorted key order, so the text
    is a pure function of the snapshot.
    """
    return ExpositionRenderer(catalog).render(snapshot)


class _HistogramText:
    """One histogram series' line prefixes, for one set of bucket bounds."""

    __slots__ = ("bounds", "buckets", "sum", "count")

    def __init__(self, key: str, bounds: tuple) -> None:
        from math import inf

        name, labels = parse_key(key)
        #: the export's bucket keys, in the order the export lists them
        self.bounds = bounds
        #: (bucket key, ``_bucket{...,le=...}`` prefix) in bound order
        self.buckets: list[tuple[str, str]] = []
        for bound in sorted(
            bounds, key=lambda b: inf if b == "+Inf" else float(b)
        ):
            le = bound if bound == "+Inf" else format_value(float(bound))
            block = _render_labels(labels, (("le", le),))
            self.buckets.append((bound, f"{name}_bucket{block} "))
        self.sum = f"{name}_sum{_render_labels(labels)} "
        self.count = f"{name}_count{_render_labels(labels)} "


class ExpositionRenderer:
    """Renders snapshots, deriving each series' text once per flat key.

    A series' text is its family name and ``{label="..."}`` block and, for
    a histogram, its ``_bucket{...,le=...}`` prefixes in bound order plus
    its ``_sum``/``_count`` prefixes: a pure function of the key (and of a
    histogram's bucket bounds, compared on every frame).  While snapshots
    hold the same series, a frame formats only the values.  A
    :class:`TelemetryScraper` keeps one renderer for its stream, so the
    cache holds one entry per series its registry has shown and lives as
    long as the scraper.
    """

    def __init__(self, catalog: Iterable[tuple] | None = None) -> None:
        self._help = _help_index(catalog)
        #: flat key -> (family name, ``name{labels} `` line prefix)
        self._series: dict[str, tuple[str, str]] = {}
        self._histograms: dict[str, _HistogramText] = {}
        #: the sorted keys per section that ``_layout`` was built for
        self._keys: tuple | None = None
        #: (header lines, section, entries) per family in output order; an
        #: entry is (key, line prefix), or the key alone for a histogram
        self._layout: list[tuple[str, str, list]] = []

    def render(self, snapshot: dict) -> str:
        keys = tuple(
            tuple(sorted(snapshot.get(section, {})))
            for section in _SECTION_TYPES
        )
        if keys != self._keys:
            self._layout = self._build_layout(keys)
            self._keys = keys
        lines: list[str] = []
        append = lines.append
        for header, section, entries in self._layout:
            append(header)
            values = snapshot[section]
            if section == "histograms":
                for key in entries:
                    self._histogram_lines(key, values[key], append)
            else:
                for key, prefix in entries:
                    append(prefix + format_value(values[key]))
        return "\n".join(lines) + "\n" if lines else ""

    def _histogram_lines(self, key: str, export: dict, append) -> None:
        """Cumulative ``_bucket``/``_sum``/``_count`` lines for one series.

        The registry's export carries per-bucket (non-cumulative) counts
        and a *running* ``sum`` maintained at observe time, so nothing
        here is re-derived from bucket midpoints.
        """
        buckets = export["buckets"]
        bounds = tuple(buckets)
        text = self._histograms.get(key)
        if text is None or text.bounds != bounds:
            text = self._histograms[key] = _HistogramText(key, bounds)
        cumulative = 0
        for bound, prefix in text.buckets:
            cumulative += buckets[bound]
            append(f"{prefix}{cumulative}")
        append(text.sum + format_value(export["sum"]))
        append(text.count + format_value(export["count"]))

    def _build_layout(self, keys: tuple) -> list[tuple[str, str, list]]:
        """Group the series into families, in output order."""
        families: dict[str, list] = {}
        sections: dict[str, str] = {}
        for section, section_keys in zip(_SECTION_TYPES, keys):
            for key in section_keys:
                series = self._series.get(key)
                if series is None:
                    name, labels = parse_key(key)
                    series = self._series[key] = (
                        name,
                        f"{name}{_render_labels(labels)} ",
                    )
                name, prefix = series
                if sections.setdefault(name, section) != section:
                    raise ValueError(
                        f"metric family {name!r} appears as both "
                        f"{sections[name]} and {section}"
                    )
                families.setdefault(name, []).append(
                    key if section == "histograms" else (key, prefix)
                )
        layout = []
        for name in sorted(families):
            header = f"# TYPE {name} {_SECTION_TYPES[sections[name]]}"
            if name in self._help:
                header = (
                    f"# HELP {name} {_escape_help(self._help[name])}\n{header}"
                )
            layout.append((header, sections[name], families[name]))
        return layout


# -- parsing (the strict inverse) -------------------------------------------


def _parse_sample_line(line: str) -> tuple[str, dict, float]:
    """One ``name{labels} value`` line -> (name, labels, value)."""
    if line.startswith("{"):
        raise ValueError(f"sample line has no metric name: {line!r}")
    if "{" in line:
        brace = line.index("{")
        close = line.rindex("}")
        name = line[:brace]
        body = line[brace : close + 1]
        rest = line[close + 1 :].strip()
        parsed_name, labels = parse_key(name + body)
    else:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"sample line has no value: {line!r}")
        parsed_name, labels = parts[0], {}
        rest = parts[1].strip()
    if not rest:
        raise ValueError(f"sample line has no value: {line!r}")
    value_text = rest.split()[0]  # a trailing timestamp is tolerated
    if value_text == "+Inf":
        value = float("inf")
    elif value_text == "-Inf":
        value = float("-inf")
    else:
        value = float(value_text)
    return parsed_name, labels, value


def parse_exposition(text: str) -> dict:
    """Parse exposition text back into a snapshot-shaped dict.

    Returns ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``
    keyed exactly like :meth:`MetricsRegistry.snapshot` (histogram bucket
    counts de-cumulated).  Unknown-type families (no ``# TYPE``) raise —
    the telemetry pipeline never emits untyped samples.
    """
    types: dict[str, str] = {}
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    histo_parts: dict[str, dict] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line.split(None, 3)
            if len(fields) >= 4 and fields[1] == "TYPE":
                types[fields[2]] = fields[3].strip()
            continue
        name, labels, value = _parse_sample_line(line)
        family, role = _histogram_family(name, types)
        if family is not None:
            series = render_key(family, {k: v for k, v in labels.items() if k != "le"})
            part = histo_parts.setdefault(
                series, {"buckets": [], "sum": 0.0, "count": 0}
            )
            if role == "bucket":
                part["buckets"].append((labels.get("le", ""), value))
            elif role == "sum":
                part["sum"] = value
            else:
                part["count"] = int(value)
            continue
        if name not in types:
            raise ValueError(f"sample for undeclared family: {name!r}")
        kind = types[name]
        key = render_key(name, labels)
        if kind == "counter":
            out["counters"][key] = _int_if_integral(value)
        elif kind == "gauge":
            out["gauges"][key] = _int_if_integral(value)
        else:
            raise ValueError(f"unsupported family type {kind!r} for {name!r}")
    for series, part in histo_parts.items():
        out["histograms"][series] = _decumulate(series, part)
    return out


def _int_if_integral(value: float) -> int | float:
    return int(value) if float(value).is_integer() else value


def _histogram_family(
    name: str, types: dict
) -> tuple[str | None, str | None]:
    """(family, role) when ``name`` is a histogram component, else (None, None)."""
    for suffix, role in (("_bucket", "bucket"), ("_sum", "sum"), ("_count", "count")):
        if name.endswith(suffix):
            family = name[: -len(suffix)]
            if types.get(family) == "histogram":
                return family, role
    return None, None


def _decumulate(series: str, part: dict) -> dict:
    """Cumulative bucket samples -> the registry's per-bucket export dict."""
    from math import inf

    buckets = sorted(
        part["buckets"], key=lambda kv: inf if kv[0] == "+Inf" else float(kv[0])
    )
    if not buckets or buckets[-1][0] != "+Inf":
        raise ValueError(f"histogram {series!r} has no +Inf bucket")
    export: dict = {"count": part["count"], "sum": part["sum"], "buckets": {}}
    previous = 0.0
    for bound, cumulative in buckets:
        if cumulative < previous:
            raise ValueError(
                f"histogram {series!r} buckets are not cumulative at le={bound}"
            )
        key = bound if bound == "+Inf" else _format_bound(bound)
        export["buckets"][key] = int(cumulative - previous)
        previous = cumulative
    if int(buckets[-1][1]) != part["count"]:
        raise ValueError(
            f"histogram {series!r}: +Inf bucket {int(buckets[-1][1])} != "
            f"count {part['count']}"
        )
    return export


def _format_bound(bound: str) -> str:
    """Normalize a ``le`` bound to the registry's ``str(bound)`` spelling."""
    value = float(bound)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return str(value)


def validate_exposition(text: str) -> None:
    """Promtool-style format gate; raises ``ValueError`` on any violation.

    Checks: every sample belongs to a family declared by a preceding
    ``# TYPE`` line; no family declared twice; no duplicate series; label
    syntax parses; histogram buckets are cumulative, end at ``+Inf`` and
    agree with ``_count``.  The telemetry tests run every frame through
    this before byte-comparing anything.
    """
    declared: set[str] = set()
    types: dict[str, str] = {}
    seen_series: set[str] = set()
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("#"):
            fields = stripped.split(None, 3)
            if len(fields) >= 2 and fields[1] == "TYPE":
                if len(fields) < 4:
                    raise ValueError(f"malformed TYPE line: {line!r}")
                family, kind = fields[2], fields[3].strip()
                if kind not in ("counter", "gauge", "histogram"):
                    raise ValueError(f"unknown family type {kind!r}: {line!r}")
                if family in declared:
                    raise ValueError(f"family {family!r} declared twice")
                declared.add(family)
                types[family] = kind
            continue
        name, labels, _ = _parse_sample_line(stripped)
        family, _role = _histogram_family(name, types)
        if family is None and name not in types:
            raise ValueError(f"sample for undeclared family: {stripped!r}")
        series = render_key(name, labels)
        if series in seen_series:
            raise ValueError(f"duplicate series: {series!r}")
        seen_series.add(series)
    # Semantic histogram checks (cumulativity, +Inf, count agreement)
    # ride on the parser, which raises with the offending series named.
    parse_exposition(text)


# -- frames, sinks, and the SimClock-cadence scraper ------------------------


def render_frame(
    snapshot: dict,
    seq: int,
    ts_ms: float,
    catalog: Iterable[tuple] | None = None,
    *,
    renderer: ExpositionRenderer | None = None,
) -> str:
    """One self-delimiting scrape frame: header, exposition body, ``# EOF``.

    The header comment carries the frame sequence number and the
    *simulated* timestamp — the only timestamps the deterministic
    pipeline ever exposes.  A scraper passes its ``renderer`` (built
    over its catalog), which keeps each series' text across frames;
    without one, the body is ``render_exposition(snapshot, catalog)``.
    """
    if renderer is None:
        renderer = ExpositionRenderer(catalog)
    body = renderer.render(snapshot)
    return (
        f"# scrape seq={seq} sim_ms={format_value(round(ts_ms, 6))}\n"
        + body
        + FRAME_TERMINATOR
        + "\n"
    )


def iter_frames(text: str):
    """Yield ``(seq, ts_ms, frame_text)`` for each complete frame in a stream."""
    chunk: list[str] = []
    for line in text.splitlines():
        chunk.append(line)
        if line.strip() == FRAME_TERMINATOR:
            frame = "\n".join(chunk) + "\n"
            seq, ts_ms = _frame_header(chunk[0])
            yield seq, ts_ms, frame
            chunk = []


def _frame_header(line: str) -> tuple[int, float]:
    fields = dict(
        part.split("=", 1)
        for part in line.strip().split()
        if "=" in part
    )
    return int(fields.get("seq", 0)), float(fields.get("sim_ms", 0.0))


def read_last_frame(path: str) -> tuple[int, float, str] | None:
    """The newest complete frame of a stream file, or None when empty."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError:
        return None
    last = None
    for parsed in iter_frames(text):
        last = parsed
    return last


class ScrapeFileSink:
    """Append-only scrape stream: one ``.prom`` file, frames in sequence.

    The file is truncated at construction (a sink owns its stream), so a
    repeat run reproduces the file byte-for-byte.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.frames = 0
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._file = open(path, "w")

    def emit(self, frame_text: str) -> None:
        self._file.write(frame_text)
        self.frames += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            self._file.close()
            self._file = None  # type: ignore[assignment]


class TelemetryScraper:
    """Scrape the registry on a fixed simulated-time cadence.

    A periodic task on the :class:`SimClock`, like
    :class:`repro.obs.timeline.TimelineSampler`: every ``interval_ms`` of
    simulated time, snapshot the registry, render one frame into the
    sink, and hand the snapshot to the alert engine when one is wired.
    Attached after the machine's sampler, it fires after it at a shared
    instant, so a frame counts that instant's sample.  Its ``renderer``
    keeps each series' text across the stream's frames.
    Everything is driven by the simulated clock — a seeded run scrapes
    at identical instants regardless of host scheduling, which is what
    makes frame streams byte-comparable across ``--jobs``.
    """

    def __init__(
        self,
        clock,
        registry,
        sink,
        interval_ms: float = 1.0,
        catalog: Iterable[tuple] | None = None,
        alert_engine=None,
        on_frame: Callable[[int, float, str], None] | None = None,
    ) -> None:
        self.clock = clock
        self.registry = registry
        self.sink = sink
        self.interval_ns = interval_ns(interval_ms)
        self.renderer = ExpositionRenderer(catalog)
        self.alert_engine = alert_engine
        self.on_frame = on_frame
        self.frames = 0
        self._closed = False
        self._c_frames = registry.counter("telemetry_frames_total")
        clock.attach(self)

    def fire(self, now_ns: float) -> None:
        """The clock's periodic call (:class:`repro.obs.clock.PeriodicTask`)."""
        self.scrape(now_ns)

    def scrape(self, now_ns: float | None = None) -> str:
        """Take one frame at the current instant; returns the frame text."""
        ts_ns = self.clock.now_ns if now_ns is None else now_ns
        self.frames += 1
        self._c_frames.inc()
        snapshot = self.registry.snapshot()
        if self.alert_engine is not None:
            self.alert_engine.evaluate(ts_ns, snapshot)
            # Alert-state metrics must appear in the frame they changed in.
            snapshot = self.registry.snapshot()
        frame = render_frame(
            snapshot, self.frames, ts_ns / 1e6, renderer=self.renderer
        )
        self.sink.emit(frame)
        if self.on_frame is not None:
            self.on_frame(self.frames, ts_ns / 1e6, frame)
        return frame

    def close(self) -> None:
        """Final frame at end-of-run state, then detach and close the sink."""
        if self._closed:
            return
        self._closed = True
        self.scrape()
        self.clock.detach(self)
        self.sink.close()
