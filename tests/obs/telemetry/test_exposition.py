"""Exposition rendering, the strict parser, frames, and the scraper."""

import pytest

from repro.obs.clock import SimClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry.alerts import AlertEngine, parse_alert_rules
from repro.obs.telemetry.exposition import (
    FRAME_TERMINATOR,
    ExpositionRenderer,
    ScrapeFileSink,
    TelemetryScraper,
    format_value,
    iter_frames,
    parse_exposition,
    read_last_frame,
    render_exposition,
    render_frame,
    validate_exposition,
)


def _registry_with_everything() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", workload="GUPS", policy="Trident").inc(7)
    reg.counter("requests_total", workload="BTree", policy="Linux").inc(3)
    reg.gauge("queue_depth").set(4)
    h = reg.histogram("latency_ns", buckets=(10, 100, 1000))
    for v in (5, 50, 500, 5000):
        h.observe(v)
    return reg


class TestFormatValue:
    def test_integral_floats_render_as_ints(self):
        assert format_value(3.0) == "3"
        assert format_value(7) == "7"

    def test_fractional_and_special(self):
        assert format_value(0.25) == "0.25"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"


class TestRenderExposition:
    def test_families_sorted_with_type_lines(self):
        text = render_exposition(_registry_with_everything().snapshot())
        lines = text.splitlines()
        type_lines = [ln for ln in lines if ln.startswith("# TYPE")]
        assert type_lines == [
            "# TYPE latency_ns histogram",
            "# TYPE queue_depth gauge",
            "# TYPE requests_total counter",
        ]

    def test_histogram_buckets_are_cumulative(self):
        text = render_exposition(_registry_with_everything().snapshot())
        buckets = [
            ln for ln in text.splitlines() if ln.startswith("latency_ns_bucket")
        ]
        counts = [int(ln.rsplit(None, 1)[1]) for ln in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].startswith('latency_ns_bucket{le="+Inf"}')
        assert counts[-1] == 4
        assert "latency_ns_sum 5555" in text
        assert "latency_ns_count 4" in text

    def test_catalog_help_text_included(self):
        catalog = (("requests_total", "counter", "", "All requests."),)
        reg = MetricsRegistry()
        reg.counter("requests_total").inc()
        text = render_exposition(reg.snapshot(), catalog)
        assert "# HELP requests_total All requests." in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", path='a"b\\c\nd').inc()
        text = render_exposition(reg.snapshot())
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_cross_kind_family_raises(self):
        snapshot = {
            "counters": {"x_total": 1},
            "gauges": {"x_total": 2.0},
            "histograms": {},
        }
        with pytest.raises(ValueError, match="both counters and gauges"):
            render_exposition(snapshot)

    def test_empty_snapshot_is_empty_text(self):
        assert render_exposition({"counters": {}, "gauges": {}}) == ""


class TestParseRoundTrip:
    def test_round_trip_equals_snapshot(self):
        snapshot = _registry_with_everything().snapshot()
        parsed = parse_exposition(render_exposition(snapshot))
        assert parsed["counters"] == snapshot["counters"]
        assert parsed["gauges"] == snapshot["gauges"]
        for key, export in snapshot["histograms"].items():
            got = parsed["histograms"][key]
            assert got["count"] == export["count"]
            assert got["sum"] == export["sum"]
            assert got["buckets"] == export["buckets"]

    def test_round_trip_with_escaped_labels(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", path='a"b\\c\nd', other="x,y=z").inc(2)
        snapshot = reg.snapshot()
        parsed = parse_exposition(render_exposition(snapshot))
        assert parsed["counters"] == snapshot["counters"]

    def test_undeclared_family_raises(self):
        with pytest.raises(ValueError, match="undeclared family"):
            parse_exposition("mystery_total 3\n")

    def test_non_cumulative_buckets_raise(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 9\n"
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            parse_exposition(text)

    def test_missing_inf_bucket_raises(self):
        text = "# TYPE h histogram\n" 'h_bucket{le="1"} 5\n' "h_sum 9\nh_count 5\n"
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_exposition(text)

    def test_inf_count_mismatch_raises(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 9\n"
            "h_count 5\n"
        )
        with pytest.raises(ValueError, match="!= *count|count"):
            parse_exposition(text)


class TestValidateExposition:
    def test_valid_text_passes(self):
        validate_exposition(
            render_exposition(_registry_with_everything().snapshot())
        )

    def test_duplicate_family_declaration_raises(self):
        with pytest.raises(ValueError, match="declared twice"):
            validate_exposition(
                "# TYPE a counter\n# TYPE a counter\na 1\n"
            )

    def test_duplicate_series_raises(self):
        with pytest.raises(ValueError, match="duplicate series"):
            validate_exposition("# TYPE a counter\na 1\na 2\n")

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown family type"):
            validate_exposition("# TYPE a summary\na 1\n")

    def test_sample_before_type_raises(self):
        with pytest.raises(ValueError, match="undeclared"):
            validate_exposition("a 1\n# TYPE a counter\n")


class TestFrames:
    def test_frame_has_header_and_terminator(self):
        frame = render_frame(
            _registry_with_everything().snapshot(), 3, 1.5, catalog=()
        )
        lines = frame.splitlines()
        assert lines[0] == "# scrape seq=3 sim_ms=1.5"
        assert lines[-1] == FRAME_TERMINATOR
        validate_exposition(frame)

    def test_iter_frames_splits_stream(self):
        snapshot = _registry_with_everything().snapshot()
        stream = render_frame(snapshot, 1, 1.0, ()) + render_frame(
            snapshot, 2, 2.0, ()
        )
        parsed = list(iter_frames(stream))
        assert [(seq, ts) for seq, ts, _ in parsed] == [(1, 1.0), (2, 2.0)]
        assert "".join(frame for _, _, frame in parsed) == stream


class TestScraper:
    def _run_once(self, path) -> str:
        clock = SimClock()
        reg = MetricsRegistry()
        c = reg.counter("ticks_total")
        scraper = TelemetryScraper(
            clock, reg, ScrapeFileSink(str(path)), interval_ms=1.0, catalog=()
        )
        for _ in range(5):
            c.inc()
            clock.advance(0.4e6)  # 0.4 ms per step
        scraper.close()
        with open(path) as f:
            return f.read()

    def test_cadence_follows_simulated_time(self, tmp_path):
        text = self._run_once(tmp_path / "s.prom")
        frames = list(iter_frames(text))
        # 2.0ms of simulated time at a 1ms cadence: scrapes at 0.4 and
        # 1.6 (first advance past each due time), plus the close() frame.
        assert [ts for _, ts, _ in frames] == [0.4, 1.6, 2.0]
        assert [seq for seq, _, _ in frames] == [1, 2, 3]
        for _, _, frame in frames:
            validate_exposition(frame)

    def test_repeat_run_is_byte_identical(self, tmp_path):
        first = self._run_once(tmp_path / "a.prom")
        second = self._run_once(tmp_path / "b.prom")
        assert first == second

    def test_frames_counter_in_stream(self, tmp_path):
        text = self._run_once(tmp_path / "s.prom")
        _, _, last = list(iter_frames(text))[-1]
        parsed = parse_exposition(last)
        assert parsed["counters"]["telemetry_frames_total"] == 3

    def test_close_is_idempotent_and_detaches(self, tmp_path):
        clock = SimClock()
        reg = MetricsRegistry()
        sink = ScrapeFileSink(str(tmp_path / "s.prom"))
        scraper = TelemetryScraper(clock, reg, sink, interval_ms=1.0, catalog=())
        scraper.close()
        scraper.close()
        clock.advance(5e6)  # must not scrape after close
        assert scraper.frames == 1

    def test_read_last_frame(self, tmp_path):
        path = tmp_path / "s.prom"
        self._run_once(path)
        last = read_last_frame(str(path))
        assert last is not None
        seq, ts_ms, frame = last
        assert (seq, ts_ms) == (3, 2.0)
        assert frame.endswith(FRAME_TERMINATOR + "\n")

    def test_nonpositive_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="interval_ms"):
            TelemetryScraper(
                SimClock(),
                MetricsRegistry(),
                ScrapeFileSink(str(tmp_path / "s.prom")),
                interval_ms=0.0,
            )

    def test_sink_truncates_on_create(self, tmp_path):
        path = tmp_path / "s.prom"
        path.write_text("stale bytes\n")
        sink = ScrapeFileSink(str(path))
        sink.emit("# scrape seq=1 sim_ms=0\n# EOF\n")
        sink.close()
        assert "stale" not in path.read_text()


class _ListSink:
    def __init__(self) -> None:
        self.frames: list[str] = []

    def emit(self, frame_text: str) -> None:
        self.frames.append(frame_text)

    def close(self) -> None:
        pass


class TestRendererCache:
    """A renderer reused across frames renders what a fresh one does."""

    def test_frames_equal_fresh_renders_as_series_appear(self):
        clock = SimClock()
        reg = MetricsRegistry()
        engine = AlertEngine(
            parse_alert_rules(
                {
                    "rules": [
                        {
                            "name": "depth",
                            "kind": "threshold",
                            "metric": "queue_depth",
                            "op": ">=",
                            "value": 8.0,
                            "for_frames": 1,
                        }
                    ]
                }
            ),
            metrics=reg,
        )
        sink = _ListSink()
        scraper = TelemetryScraper(
            clock, reg, sink, interval_ms=1.0, alert_engine=engine
        )
        fresh = []
        steps = [
            # a plain counter and a gauge
            lambda: reg.counter("requests_total", policy="Trident").inc(3),
            # a new label set of the same family
            lambda: reg.counter("requests_total", policy="Linux").inc(2),
            # the alert's first transition registers its counter
            lambda: reg.gauge("queue_depth").set(9.0),
            # a histogram, then a second series of it with other bounds
            lambda: reg.histogram("latency_ns", buckets=(10, 100)).observe(50),
            lambda: reg.histogram(
                "latency_ns", buckets=(0.5, 2.5, 1e3), policy="Linux"
            ).observe(2.0),
            lambda: reg.counter("requests_total", policy="Linux").inc(0.25),
        ]
        reg.gauge("queue_depth").set(1.0)
        for step in steps:
            step()
            clock.advance(1e6)
            fresh.append(
                render_frame(reg.snapshot(), scraper.frames, clock.now_ns / 1e6)
            )
        assert sink.frames == fresh
        text = sink.frames[-1]
        assert 'alert_transitions_total{rule="depth"} 1' in text
        assert 'latency_ns_bucket{policy="Linux",le="2.5"} 1' in text
        assert 'requests_total{policy="Linux"} 2.25' in text
        for frame in sink.frames:
            validate_exposition(frame)

    def test_bounds_are_checked_on_every_render(self):
        renderer = ExpositionRenderer(catalog=())
        histogram = {"count": 1, "sum": 5.0}
        snapshots = [
            {"histograms": {"h": {**histogram, "buckets": {"10": 1, "+Inf": 0}}}},
            # a metrics.json snapshot: bucket keys in string order
            {
                "histograms": {
                    "h": {
                        **histogram,
                        "buckets": {"+Inf": 0, "100": 0, "20": 1},
                    }
                }
            },
            {"histograms": {"h": {**histogram, "buckets": {"10": 1, "+Inf": 0}}}},
        ]
        for snapshot in snapshots:
            assert renderer.render(snapshot) == render_exposition(snapshot, ())
        assert 'h_bucket{le="20"} 1' in renderer.render(snapshots[1])

    def test_kind_conflict_raises_after_a_clean_frame(self):
        renderer = ExpositionRenderer(catalog=())
        assert renderer.render({"counters": {"a": 1}}) == (
            "# TYPE a counter\na 1\n"
        )
        with pytest.raises(ValueError, match="both counters and gauges"):
            renderer.render({"counters": {"a": 1}, "gauges": {"a{x=1}": 2}})
        assert renderer.render({"counters": {"a": 2}}) == (
            "# TYPE a counter\na 2\n"
        )
