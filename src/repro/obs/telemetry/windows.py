"""Sliding-window aggregation over simulated-time scrape frames.

Counters in a scrape stream are cumulative; what a burn-rate rule or a
dashboard needs is *windowed* views — "SLO violations over the last 2ms
of simulated time" against "over the last 10ms".  This module computes
them from successive frames without ever re-walking history:

* :class:`WindowSeries` — bounded buffer of (ts_ns, cumulative value)
  samples answering ``delta(window_ns)`` / ``rate_per_s(window_ns)``;
* :class:`HistogramWindow` — the same for cumulative histogram exports,
  answering mergeable bucket-delta windows (two adjacent window deltas
  merged equal the delta over the union — pinned by the property tests);
* :class:`FrameAggregator` — one of each per series in the stream, fed
  frame by frame, the query surface the alert engine and the dashboard
  read.

Boundedness reuses the flight-recorder discipline of
:class:`repro.obs.timeline.TimeSeries`: samples older than the horizon
(the largest window anyone asks for) are evicted eagerly; if a pathological
cadence still overflows ``max_samples``, every second retained sample is
dropped — decimation is a pure function of the sample stream, so windowed
reads stay byte-identical across repeat runs.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from repro.obs.metrics import parse_key


def merge_histogram_exports(exports: list) -> dict:
    """Merge :meth:`Histogram.export`-shaped dicts over identical bounds.

    Bucket counts, ``count`` and ``sum`` add; ``max`` (when any export
    carries one) takes the largest recorded value.  Mismatched bucket
    ladders raise — merging histograms observed over different bounds is
    a programming error everywhere this is used (fleet cells, window
    deltas of one series).
    """
    if not exports:
        return {"count": 0, "sum": 0.0, "buckets": {}}
    bounds = set(exports[0]["buckets"])
    merged: dict = {
        "count": 0,
        "sum": 0.0,
        "buckets": {bound: 0 for bound in exports[0]["buckets"]},
    }
    observed_max = None
    for export in exports:
        if set(export["buckets"]) != bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        merged["count"] += export["count"]
        merged["sum"] += export["sum"]
        for bound, n in export["buckets"].items():
            merged["buckets"][bound] += n
        export_max = export.get("max")
        if export_max is not None and (
            observed_max is None or export_max > observed_max
        ):
            observed_max = export_max
    if observed_max is not None:
        merged["max"] = observed_max
    return merged


class WindowSeries:
    """Bounded (ts_ns, cumulative value) samples with sliding deltas."""

    __slots__ = ("horizon_ns", "max_samples", "ts", "values")

    def __init__(self, horizon_ns: float, max_samples: int = 512) -> None:
        if horizon_ns <= 0:
            raise ValueError(f"horizon_ns must be positive, got {horizon_ns}")
        if max_samples < 4:
            raise ValueError(f"max_samples must be >= 4, got {max_samples}")
        self.horizon_ns = horizon_ns
        self.max_samples = max_samples
        self.ts: list[float] = []
        self.values: list[float] = []

    def observe(self, ts_ns: float, value: float) -> None:
        """Append one cumulative sample (monotonic timestamps expected)."""
        self.ts.append(ts_ns)
        self.values.append(value)
        self._evict(ts_ns)

    def _evict(self, now_ns: float) -> None:
        # Horizon eviction keeps one sample at-or-before the horizon edge
        # so a full-width window always has an anchor to difference from.
        floor = now_ns - self.horizon_ns
        cut = bisect_right(self.ts, floor) - 1
        if cut > 0:
            del self.ts[:cut]
            del self.values[:cut]
        if len(self.ts) >= self.max_samples:
            # Flight-recorder decimation: halve density, keep both ends.
            kept_ts = self.ts[::2]
            kept_values = self.values[::2]
            if kept_ts[-1] != self.ts[-1]:
                kept_ts.append(self.ts[-1])
                kept_values.append(self.values[-1])
            self.ts = kept_ts
            self.values = kept_values

    def _anchor(self, window_ns: float, now_ns: float) -> float | None:
        """Cumulative value at-or-before ``now - window`` (window anchor)."""
        if not self.ts:
            return None
        idx = bisect_right(self.ts, now_ns - window_ns) - 1
        if idx < 0:
            # Window reaches before recorded history: anchor at the
            # oldest sample (a partial window, never a negative one).
            idx = 0
        return self.values[idx]

    def latest(self) -> float | None:
        return self.values[-1] if self.values else None

    def delta(self, window_ns: float, now_ns: float | None = None) -> float:
        """Cumulative increase over the trailing window (>= 0)."""
        if not self.ts:
            return 0.0
        now = self.ts[-1] if now_ns is None else now_ns
        anchor = self._anchor(window_ns, now)
        return max(0.0, self.values[-1] - (anchor or 0.0))

    def rate_per_s(
        self, window_ns: float, now_ns: float | None = None
    ) -> float:
        """Windowed rate in events per simulated second."""
        return self.delta(window_ns, now_ns) / (window_ns / 1e9)


class HistogramWindow:
    """Sliding bucket-delta windows over cumulative histogram exports.

    Each observation is a full cumulative export (count/sum/buckets as of
    that frame); a window delta is the bucket-wise difference between the
    newest export and the export at the window anchor.  Deltas over
    adjacent windows are mergeable with :func:`merge_histogram_exports`
    and recompose exactly into the whole-run histogram.
    """

    __slots__ = ("horizon_ns", "max_samples", "ts", "exports")

    def __init__(self, horizon_ns: float, max_samples: int = 128) -> None:
        if horizon_ns <= 0:
            raise ValueError(f"horizon_ns must be positive, got {horizon_ns}")
        if max_samples < 4:
            raise ValueError(f"max_samples must be >= 4, got {max_samples}")
        self.horizon_ns = horizon_ns
        self.max_samples = max_samples
        self.ts: list[float] = []
        self.exports: list[dict] = []

    def observe(self, ts_ns: float, export: dict) -> None:
        self.ts.append(ts_ns)
        self.exports.append(
            {
                "count": export["count"],
                "sum": export["sum"],
                "buckets": dict(export["buckets"]),
            }
        )
        floor = ts_ns - self.horizon_ns
        cut = bisect_right(self.ts, floor) - 1
        if cut > 0:
            del self.ts[:cut]
            del self.exports[:cut]
        if len(self.ts) >= self.max_samples:
            kept_ts = self.ts[::2]
            kept_exports = self.exports[::2]
            if kept_ts[-1] != self.ts[-1]:
                kept_ts.append(self.ts[-1])
                kept_exports.append(self.exports[-1])
            self.ts = kept_ts
            self.exports = kept_exports

    def latest(self) -> dict | None:
        return self.exports[-1] if self.exports else None

    def window_delta(
        self, window_ns: float, now_ns: float | None = None
    ) -> dict:
        """Export-shaped dict of observations inside the trailing window."""
        if not self.ts:
            return {"count": 0, "sum": 0.0, "buckets": {}}
        now = self.ts[-1] if now_ns is None else now_ns
        idx = bisect_right(self.ts, now - window_ns) - 1
        newest = self.exports[-1]
        if idx < 0:
            # Window covers all recorded history: the delta from zero is
            # the newest cumulative export itself.
            return {
                "count": newest["count"],
                "sum": newest["sum"],
                "buckets": dict(newest["buckets"]),
            }
        anchor = self.exports[idx]
        return histogram_export_delta(newest, anchor)


def histogram_export_delta(newer: dict, older: dict) -> dict:
    """``newer - older`` for cumulative export dicts of one series."""
    if set(newer["buckets"]) != set(older["buckets"]):
        raise ValueError("cannot difference histograms with different bounds")
    return {
        "count": newer["count"] - older["count"],
        "sum": newer["sum"] - older["sum"],
        "buckets": {
            bound: newer["buckets"][bound] - older["buckets"][bound]
            for bound in newer["buckets"]
        },
    }


class FrameAggregator:
    """Windowed views over every series of a scrape-frame stream.

    Feed successive snapshots with :meth:`observe_frame`; query rates,
    deltas and windowed histograms by flat series key.  The horizon is
    the largest window any rule or panel asks for — pass it up front so
    eviction never discards an anchor still in use.
    """

    def __init__(
        self, horizon_ns: float = 50e6, max_samples: int = 512
    ) -> None:
        self.horizon_ns = horizon_ns
        self.max_samples = max_samples
        self.counters: dict[str, WindowSeries] = {}
        self.gauges: dict[str, WindowSeries] = {}
        self.histograms: dict[str, HistogramWindow] = {}
        #: section -> family name -> the section's keys of that family,
        #: sorted; extended when a series first appears
        self._families: dict[str, dict[str, list[str]]] = {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        self.frames = 0
        self.last_ts_ns = 0.0

    def observe_frame(self, ts_ns: float, snapshot: dict) -> None:
        """Fold one snapshot (at simulated instant ``ts_ns``) in."""
        self.frames += 1
        self.last_ts_ns = ts_ns
        for key in sorted(snapshot.get("counters", {})):
            series = self.counters.get(key)
            if series is None:
                series = self.counters[key] = WindowSeries(
                    self.horizon_ns, self.max_samples
                )
                self._index("counters", key)
            series.observe(ts_ns, snapshot["counters"][key])
        for key in sorted(snapshot.get("gauges", {})):
            series = self.gauges.get(key)
            if series is None:
                series = self.gauges[key] = WindowSeries(
                    self.horizon_ns, self.max_samples
                )
                self._index("gauges", key)
            series.observe(ts_ns, snapshot["gauges"][key])
        for key in sorted(snapshot.get("histograms", {})):
            window = self.histograms.get(key)
            if window is None:
                window = self.histograms[key] = HistogramWindow(
                    self.horizon_ns, max(4, self.max_samples // 4)
                )
                self._index("histograms", key)
            window.observe(ts_ns, snapshot["histograms"][key])

    def _index(self, section: str, key: str) -> None:
        insort(self._families[section].setdefault(parse_key(key)[0], []), key)

    def family_keys(self, section: str, family: str) -> list[str]:
        """Every series of ``family`` seen in ``section``, in key order."""
        return self._families[section].get(family, [])

    # -- queries ------------------------------------------------------------
    def value(self, key: str) -> float | None:
        """Newest cumulative/instant value of a counter or gauge series."""
        series = self.counters.get(key) or self.gauges.get(key)
        return series.latest() if series is not None else None

    def delta(self, key: str, window_ns: float) -> float:
        series = self.counters.get(key) or self.gauges.get(key)
        if series is None:
            return 0.0
        return series.delta(window_ns, self.last_ts_ns)

    def rate_per_s(self, key: str, window_ns: float) -> float:
        series = self.counters.get(key) or self.gauges.get(key)
        if series is None:
            return 0.0
        return series.rate_per_s(window_ns, self.last_ts_ns)

    def histogram_window(self, key: str, window_ns: float | None) -> dict:
        window = self.histograms.get(key)
        if window is None:
            return {"count": 0, "sum": 0.0, "buckets": {}}
        if window_ns is None:
            latest = window.latest()
            return latest if latest is not None else {
                "count": 0, "sum": 0.0, "buckets": {}
            }
        return window.window_delta(window_ns, self.last_ts_ns)

    def quantile(
        self, key: str, pct: float, window_ns: float | None = None
    ) -> float:
        """Nearest-rank percentile of a histogram series over a window."""
        from repro.obs.metrics import percentile_from_buckets

        export = self.histogram_window(key, window_ns)
        if not export.get("count"):
            return 0.0
        return percentile_from_buckets(export, pct)
