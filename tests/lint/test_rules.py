"""Per-rule fixtures: each TRD rule accepts a good snippet, flags a bad one."""

from repro.lint import ALL_RULES, run_lint


def _write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return str(path)


def _rules(tmp_path, relpath, source):
    _write(tmp_path, relpath, source)
    return [f.rule for f in run_lint([str(tmp_path)], ALL_RULES)]


GOOD_EXPERIMENT = '''\
CSV_NAME = "demo"
TITLE = "Demo experiment"
QUICK_KWARGS = {"n_accesses": 100}


def run(n_accesses: int = 1000, seed: int = 7) -> list:
    return []


def main(quick: bool = False, seed: int = 7) -> None:
    run(**(QUICK_KWARGS if quick else {}), seed=seed)
'''


class TestTRD001NoGlobalRng:
    def test_flags_stdlib_random_import(self, tmp_path):
        assert _rules(tmp_path, "repro/sim/m.py", "import random\n") == [
            "TRD001"
        ]

    def test_flags_from_random_import(self, tmp_path):
        assert _rules(
            tmp_path, "repro/sim/m.py", "from random import shuffle\n"
        ) == ["TRD001"]

    def test_flags_np_random_seed(self, tmp_path):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert _rules(tmp_path, "repro/sim/m.py", src) == ["TRD001"]

    def test_flags_unseeded_default_rng(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert _rules(tmp_path, "repro/sim/m.py", src) == ["TRD001"]

    def test_accepts_seeded_default_rng(self, tmp_path):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "rng2 = np.random.default_rng(seed=7)\n"
        )
        assert _rules(tmp_path, "repro/sim/m.py", src) == []


class TestTRD002ExperimentProtocol:
    def test_accepts_conforming_module(self, tmp_path):
        assert _rules(tmp_path, "repro/experiments/demo.py", GOOD_EXPERIMENT) == []

    def test_flags_missing_title(self, tmp_path):
        src = GOOD_EXPERIMENT.replace('TITLE = "Demo experiment"\n', "")
        findings = _rules(tmp_path, "repro/experiments/demo.py", src)
        assert findings == ["TRD002"]

    def test_flags_missing_main(self, tmp_path):
        src = GOOD_EXPERIMENT[: GOOD_EXPERIMENT.index("def main")]
        assert _rules(tmp_path, "repro/experiments/demo.py", src) == ["TRD002"]

    def test_flags_main_without_seed_param(self, tmp_path):
        src = GOOD_EXPERIMENT.replace(
            "def main(quick: bool = False, seed: int = 7)",
            "def main(quick: bool = False)",
        ).replace("run(**(QUICK_KWARGS if quick else {}), seed=seed)", "pass")
        assert _rules(tmp_path, "repro/experiments/demo.py", src) == ["TRD002"]

    def test_flags_quick_kwargs_key_not_in_run(self, tmp_path):
        src = GOOD_EXPERIMENT.replace(
            'QUICK_KWARGS = {"n_accesses": 100}',
            'QUICK_KWARGS = {"n_acesses": 100}',  # typo: not a run() param
        ).replace("run(**(QUICK_KWARGS if quick else {}), seed=seed)", "pass")
        assert _rules(tmp_path, "repro/experiments/demo.py", src) == ["TRD002"]

    def test_run_with_var_kwargs_accepts_any_key(self, tmp_path):
        src = GOOD_EXPERIMENT.replace(
            "def run(n_accesses: int = 1000, seed: int = 7) -> list:",
            "def run(seed: int = 7, **kwargs) -> list:",
        )
        assert _rules(tmp_path, "repro/experiments/demo.py", src) == []

    def test_infra_modules_exempt(self, tmp_path):
        assert _rules(tmp_path, "repro/experiments/runner.py", "X = 1\n") == []

    def test_outside_experiments_exempt(self, tmp_path):
        assert _rules(tmp_path, "repro/mem/demo.py", "X = 1\n") == []


class TestTRD003FrameArithmetic:
    def test_flags_true_division_of_frames(self, tmp_path):
        assert _rules(
            tmp_path, "repro/mem/m.py", "half = free_frames / 2\n"
        ) == ["TRD003"]

    def test_accepts_floor_division(self, tmp_path):
        assert _rules(
            tmp_path, "repro/mem/m.py", "half = free_frames // 2\n"
        ) == []

    def test_flags_float_of_frame_count(self, tmp_path):
        assert _rules(tmp_path, "repro/mem/m.py", "x = float(n_frames)\n") == [
            "TRD003"
        ]

    def test_flags_magic_order_keyword(self, tmp_path):
        assert _rules(
            tmp_path, "repro/mem/m.py", "b = Buddy(total, max_order=18)\n"
        ) == ["TRD003"]

    def test_flags_magic_by_size_lookup(self, tmp_path):
        src = "gb = mapped_bytes_by_size.get(2, 0)\nx = walks_by_size[1]\n"
        assert _rules(tmp_path, "repro/mem/m.py", src) == ["TRD003", "TRD003"]

    def test_flags_magic_shift_and_compare(self, tmp_path):
        src = "big = 1 << 18\nok = order == 9\n"
        assert _rules(tmp_path, "repro/mem/m.py", src) == ["TRD003", "TRD003"]

    def test_flags_scale_factor_on_bytes(self, tmp_path):
        assert _rules(
            tmp_path, "repro/mem/m.py", "paper_gb = heap_bytes * 256\n"
        ) == ["TRD003"]

    def test_container_literals_exempt(self, tmp_path):
        src = "AXES = (1, 8, 64, 512)\nSIZES = [9, 18]\n"
        assert _rules(tmp_path, "repro/mem/m.py", src) == []

    def test_out_of_scope_package_exempt(self, tmp_path):
        assert _rules(
            tmp_path, "repro/tlb/m.py", "half = free_frames / 2\n"
        ) == []

    def test_geometry_home_exempt(self, tmp_path):
        # config.py defines the geometry, so it may spell its orders
        assert _rules(tmp_path, "repro/config.py", "x = 1 << 18\n") == []

    def test_non_pagesize_attribute_not_flagged(self, tmp_path):
        src = "names = geometry.NAMES if hasattr(geometry, 'NAMES') else ()\n"
        assert _rules(tmp_path, "repro/tlb/m.py", src) == []

    def test_flags_magic_order_shift_outside_mem_scope(self, tmp_path):
        assert _rules(tmp_path, "repro/vm/m.py", "big = 1 << 18\n") == [
            "TRD003"
        ]

    def test_magic_shift_reports_once_inside_mem_scope(self, tmp_path):
        assert _rules(tmp_path, "repro/mem/m.py", "big = 1 << 9\n") == [
            "TRD003"
        ]


CATALOG = '''\
METRIC_CATALOG = (
    ("demo_hits_total", "counter", "", "demo"),
)
'''


class TestTRD004MetricRegistry:
    def test_accepts_cataloged_emission(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", CATALOG)
        _write(
            tmp_path,
            "repro/mem/m.py",
            'c = metrics.counter("demo_hits_total")\n',
        )
        assert [f.rule for f in run_lint([str(tmp_path)], ALL_RULES)] == []

    def test_flags_uncataloged_emission(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", CATALOG)
        _write(
            tmp_path,
            "repro/mem/m.py",
            'c = metrics.counter("not_in_catalog_total")\n',
        )
        findings = run_lint([str(tmp_path)], ALL_RULES)
        assert [f.rule for f in findings] == ["TRD004"]
        assert "not_in_catalog_total" in findings[0].message

    def test_flags_near_duplicate_names(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", CATALOG)
        _write(
            tmp_path,
            "repro/mem/m.py",
            'c = metrics.counter("demo_hits")\n',  # catalog has demo_hits_total
        )
        findings = run_lint([str(tmp_path)], ALL_RULES)
        # demo_hits is both uncataloged and a near-duplicate of demo_hits_total
        assert [f.rule for f in findings] == ["TRD004", "TRD004"]
        assert any("near-duplicate" in f.message for f in findings)

    def test_registry_internals_exempt(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", CATALOG)
        _write(
            tmp_path,
            "repro/obs/metrics.py",
            'c = self.counter("anything_goes")\n',
        )
        assert [f.rule for f in run_lint([str(tmp_path)], ALL_RULES)] == []


SPAN_CATALOG = '''\
METRIC_CATALOG = (
    ("span_duration_ns", "histogram", "kind", "span durations by span kind"),
    ("timeline_samples_total", "counter", "", "timeline sampling instants"),
)
'''


class TestTRD004SpanMetrics:
    """The span recorder's metrics are ordinary emissions: the catalog
    must cover them, and the rule must see through the labelled-histogram
    emit pattern the recorder uses."""

    def test_cataloged_span_histogram_accepted(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", SPAN_CATALOG)
        _write(
            tmp_path,
            "repro/obs/spans.py",
            'hist = self.metrics.histogram(\n'
            '    "span_duration_ns", buckets=BUCKETS, kind=kind\n'
            ')\n',
        )
        assert [f.rule for f in run_lint([str(tmp_path)], ALL_RULES)] == []

    def test_uncataloged_span_metric_flagged(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", SPAN_CATALOG)
        _write(
            tmp_path,
            "repro/obs/spans.py",
            'h = self.metrics.histogram("span_seconds", kind=kind)\n',
        )
        findings = run_lint([str(tmp_path)], ALL_RULES)
        assert "TRD004" in [f.rule for f in findings]
        assert any("span_seconds" in f.message for f in findings)

    def test_sampler_counter_accepted(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", SPAN_CATALOG)
        _write(
            tmp_path,
            "repro/obs/timeline.py",
            'c = metrics.counter("timeline_samples_total")\n',
        )
        assert [f.rule for f in run_lint([str(tmp_path)], ALL_RULES)] == []


TELEMETRY_CATALOG = '''\
METRIC_CATALOG = (
    ("telemetry_frames_total", "counter", "", "scrape frames emitted"),
    ("alert_transitions_total", "counter", "rule", "alert state changes"),
    ("alerts_active", "gauge", "", "currently-firing alert instances"),
)
'''


class TestTRD004TelemetryMetrics:
    """The telemetry pipeline's own metrics (scraper frame counter, alert
    engine transition counter and active gauge) are ordinary emissions:
    the catalog must cover them, labeled and bare forms alike."""

    def test_cataloged_frame_counter_accepted(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", TELEMETRY_CATALOG)
        _write(
            tmp_path,
            "repro/obs/telemetry/exposition.py",
            'c = registry.counter("telemetry_frames_total")\n',
        )
        assert [f.rule for f in run_lint([str(tmp_path)], ALL_RULES)] == []

    def test_cataloged_labeled_transition_counter_accepted(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", TELEMETRY_CATALOG)
        _write(
            tmp_path,
            "repro/obs/telemetry/alerts.py",
            'self.metrics.counter(\n'
            '    "alert_transitions_total", rule=rule.name\n'
            ').inc()\n',
        )
        assert [f.rule for f in run_lint([str(tmp_path)], ALL_RULES)] == []

    def test_cataloged_active_gauge_accepted(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", TELEMETRY_CATALOG)
        _write(
            tmp_path,
            "repro/obs/telemetry/alerts.py",
            'g = metrics.gauge("alerts_active")\n',
        )
        assert [f.rule for f in run_lint([str(tmp_path)], ALL_RULES)] == []

    def test_uncataloged_telemetry_metric_flagged(self, tmp_path):
        _write(tmp_path, "repro/obs/__init__.py", TELEMETRY_CATALOG)
        _write(
            tmp_path,
            "repro/obs/telemetry/alerts.py",
            'c = metrics.counter("alert_pages_total")\n',
        )
        findings = run_lint([str(tmp_path)], ALL_RULES)
        assert "TRD004" in [f.rule for f in findings]
        assert any("alert_pages_total" in f.message for f in findings)


class TestRetiredTRD005:
    """TRD005 (the touch-result contract) was retired with the float
    TouchResult; its code is not reused, so selecting it is an error."""

    def test_select_trd005_exits_two_and_lists_valid_codes(self, capsys):
        from repro.cli import main

        assert main(["lint", "--select", "TRD005"]) == 2
        out = capsys.readouterr().out
        assert "unknown rule code" in out and "TRD005" in out
        valid = out[out.index("(valid:") :]
        assert "TRD005" not in valid
        for code in ("TRD001", "TRD004", "TRD006", "TRD008"):
            assert code in valid
