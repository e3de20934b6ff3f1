"""CLI tests."""

import json
import os

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "GUPS" in out and "Trident" in out and "figure9" in out

    def test_run_native(self, capsys):
        code = main(["run", "GUPS", "Trident", "--accesses", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "walk fraction" in out
        assert "1GB  mapped" in out

    def test_run_with_baseline(self, capsys):
        code = main(
            ["run", "GUPS", "Trident", "--accesses", "2000", "--baseline", "4KB"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_experiment_latency_micro(self, capsys):
        assert main(["experiment", "latency_micro"]) == 0
        out = capsys.readouterr().out
        assert "1GB promotion, pv batched" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "nope", "Trident"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCLI:
    def test_sweep_writes_manifest_and_csvs(self, capsys, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(
            ["sweep", "latency_micro", "--jobs", "2", "--out", out]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Sweep units" in stdout
        assert "latency_micro" in stdout
        assert os.path.exists(os.path.join(out, "latency_micro.csv"))
        with open(os.path.join(out, "sweep_manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["counts"] == {"ok": 1}
        assert manifest["units"][0]["unit_id"] == "latency_micro"
        assert manifest["units"][0]["duration_s"] > 0

    def test_sweep_resume_reuses_completed_units(self, capsys, tmp_path):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "latency_micro", "--out", out]) == 0
        capsys.readouterr()
        manifest_path = os.path.join(out, "sweep_manifest.json")
        code = main(
            ["sweep", "latency_micro", "--out", out, "--resume", manifest_path]
        )
        assert code == 0
        assert "cached" in capsys.readouterr().out

    def test_sweep_rejects_unknown_module(self, tmp_path):
        with pytest.raises(KeyError):
            main(["sweep", "nope", "--out", str(tmp_path)])


class TestLintCLI:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0  # default path: src
        assert capsys.readouterr().out == ""

    def test_findings_exit_one_text_and_json(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "TRD001" in out and "1 finding(s)" in out
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "TRD001"
        assert payload["findings"][0]["line"] == 1
        assert payload["files"] == 1
        assert "TRD001" in payload["rule_timings_ms"]

    def test_select_filters_rules(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
        assert main(["lint", str(tmp_path), "--select", "TRD003"]) == 0
        capsys.readouterr()
        assert main(["lint", str(tmp_path), "--select", "TRD001"]) == 1

    def test_unknown_rule_code_exits_two(self, capsys):
        assert main(["lint", "--select", "TRD999"]) == 2
        out = capsys.readouterr().out
        assert "unknown rule code" in out
        # the one-line error names every valid code
        assert "TRD001" in out and "TRD008" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/no/such/path"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("TRD001", "TRD002", "TRD003", "TRD004"):
            assert code in out

    def test_explain_renders_rationale_and_examples(self, capsys):
        assert main(["lint", "--explain", "trd006"]) == 0
        out = capsys.readouterr().out
        assert "TRD006 clock-discipline" in out
        assert "bad:" in out and "good:" in out
        assert "clock.advance" in out

    def test_explain_unknown_code_exits_two(self, capsys):
        assert main(["lint", "--explain", "TRD999"]) == 2
        out = capsys.readouterr().out
        assert "unknown rule code" in out and "TRD008" in out

    def test_baseline_round_trip(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", str(bad), "--write-baseline", baseline]) == 0
        assert "wrote baseline with 1 entry" in capsys.readouterr().out
        # the baselined finding no longer fails the run
        assert main(["lint", str(bad), "--baseline", baseline]) == 0
        assert "1 baselined finding(s) suppressed" in capsys.readouterr().out

    def test_baseline_reports_stale_entries(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", str(bad), "--write-baseline", baseline]) == 0
        capsys.readouterr()
        bad.write_text("x = 1\n")  # debt paid off
        assert main(["lint", str(bad), "--baseline", baseline]) == 0
        assert "stale baseline entry TRD001" in capsys.readouterr().out

    def test_unreadable_baseline_exits_two(self, capsys, tmp_path):
        bad_baseline = tmp_path / "baseline.json"
        bad_baseline.write_text("[]\n")
        assert main(["lint", "--baseline", str(bad_baseline)]) == 2
        assert "cannot read baseline" in capsys.readouterr().out

    def test_format_sarif(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
        assert main(["lint", str(bad), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "TRD001"
        uri = result["locations"][0]["physicalLocation"]["artifactLocation"]
        assert uri["uri"] == "repro/mod.py"


class TestAuditCLI:
    def test_run_with_audit(self, capsys, tmp_path):
        out = str(tmp_path / "m.json")
        code = main(
            ["run", "GUPS", "Trident", "--accesses", "1500",
             "--audit", "--audit-every", "256", "--metrics-out", out]
        )
        assert code == 0
        section = json.load(open(out))["run"]
        assert section["audit_runs"] >= 1
        assert section["audit_checks"] > 0
        assert section["audit_violations"] == 0

    def test_experiment_audit_resets_global(self, capsys):
        import repro.experiments.runner as runner_mod

        assert main(["experiment", "latency_micro", "--quick", "--audit"]) == 0
        assert runner_mod.AUDIT is False  # try/finally reset


class TestTimelineCLI:
    def test_run_with_timeline_outputs(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.json")
        report = str(tmp_path / "report.html")
        metrics = str(tmp_path / "m.json")
        code = main(
            ["run", "GUPS", "Trident", "--accesses", "1500",
             "--timeline-out", trace, "--report-out", report,
             "--metrics-out", metrics]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline written" in out and "report written" in out
        loaded = json.load(open(trace))
        assert loaded["traceEvents"]
        assert "</html>" in open(report).read()
        # --timeline-out implies timeline recording
        assert json.load(open(metrics))["timeline"]["spans"]["spans_closed"] > 0

    def test_experiment_timeline_resets_global(self, capsys):
        import repro.experiments.runner as runner_mod

        code = main(
            ["experiment", "latency_micro", "--quick", "--timeline"]
        )
        assert code == 0
        assert runner_mod.TIMELINE is False  # try/finally reset

    def test_report_from_metrics_json(self, capsys, tmp_path):
        metrics = str(tmp_path / "m.json")
        assert main(
            ["run", "GUPS", "Trident", "--accesses", "1500",
             "--timeline", "--metrics-out", metrics]
        ) == 0
        capsys.readouterr()
        out = str(tmp_path / "r.html")
        assert main(["report", metrics, "-o", out]) == 0
        assert "report written" in capsys.readouterr().out
        assert "m.json" in open(out).read()

    def test_report_rejects_timeline_less_input(self, capsys, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text('{"counters": {}}')
        assert main(["report", str(path)]) == 2
        assert "no timeline section" in capsys.readouterr().out

    def test_report_rejects_missing_file(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_metrics_file_renders_percentiles(self, capsys, tmp_path):
        metrics = str(tmp_path / "m.json")
        assert main(
            ["run", "GUPS", "Trident", "--accesses", "1500",
             "--timeline", "--metrics-out", metrics]
        ) == 0
        capsys.readouterr()
        assert main(["metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "P50" in out and "P99" in out
        assert "buckets" not in out  # percentiles, not raw bucket dumps
        assert "span_duration_ns{kind=fault}" in out

    def test_metrics_file_kind_filter(self, capsys, tmp_path):
        metrics = str(tmp_path / "m.json")
        assert main(
            ["run", "GUPS", "Trident", "--accesses", "1500",
             "--metrics-out", metrics]
        ) == 0
        capsys.readouterr()
        assert main(["metrics", metrics, "--kind", "counter"]) == 0
        out = capsys.readouterr().out
        assert "Counters:" in out and "Histograms:" not in out

    def test_metrics_without_file_lists_catalogue(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "span_duration_ns" in out
        assert "timeline_samples_total" in out
        assert "sim_clock_ns" in out


class TestBrokenMetricsInputs:
    """``repro metrics FILE`` and ``repro report`` on missing/corrupt
    inputs: one clean error line and a nonzero exit, never a traceback."""

    def _assert_clean_error(self, capsys, code):
        assert code == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert len(out.strip().splitlines()) == 1
        assert "Traceback" not in out

    def test_metrics_missing_file(self, capsys, tmp_path):
        code = main(["metrics", str(tmp_path / "nope.json")])
        self._assert_clean_error(capsys, code)

    def test_metrics_corrupt_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        self._assert_clean_error(capsys, main(["metrics", str(path)]))

    def test_metrics_non_object_top_level(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        self._assert_clean_error(capsys, main(["metrics", str(path)]))

    def test_metrics_malformed_histogram_entry(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"histograms": {"h": {"count": 3}}}))
        self._assert_clean_error(capsys, main(["metrics", str(path)]))

    def test_metrics_histogram_not_a_dict(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"histograms": {"h": [1, 2]}}))
        self._assert_clean_error(capsys, main(["metrics", str(path)]))

    def test_report_corrupt_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated")
        self._assert_clean_error(capsys, main(["report", str(path)]))

    def test_report_non_object_top_level(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        self._assert_clean_error(capsys, main(["report", str(path)]))

    def test_report_malformed_units(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"units": 17}))
        self._assert_clean_error(capsys, main(["report", str(path)]))


SERVICE_QUICK = [
    "--duration", "0.002", "--scale-factor", "2048", "--seed", "17",
]


class TestServiceCLI:
    def test_loadgen_writes_report_and_csv(self, capsys, tmp_path):
        out = str(tmp_path / "svc")
        code = main(
            ["loadgen", "--workloads", "GUPS", "--policies", "Trident,4KB",
             "--rate", "20000", "-o", out, *SERVICE_QUICK]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Service report" in stdout and "Trident" in stdout
        report = json.load(open(os.path.join(out, "service_report.json")))
        assert report["kind"] == "service_report"
        assert {g["policy"] for g in report["groups"]} == {"Trident", "4KB"}
        assert os.path.exists(os.path.join(out, "saturation.csv"))

    def test_loadgen_closed_loop_flag(self, capsys, tmp_path):
        out = str(tmp_path / "svc")
        code = main(
            ["loadgen", "--workloads", "GUPS", "--policies", "Trident",
             "--rate", "20000", "--closed-loop", "-o", out, *SERVICE_QUICK]
        )
        assert code == 0
        report = json.load(open(os.path.join(out, "service_report.json")))
        assert report["mode"] == "closed"

    def test_loadgen_bad_rate_exits_two(self, capsys, tmp_path):
        code = main(["loadgen", "--rate", "fast", "-o", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().out

    def test_loadgen_failed_cell_exits_three(self, capsys, tmp_path):
        code = main(
            ["loadgen", "--workloads", "GUPS", "--policies", "bogus",
             "--rate", "1000", "-o", str(tmp_path / "svc"), *SERVICE_QUICK]
        )
        assert code == 3
        assert "bogus" in capsys.readouterr().err

    def test_serve_config_roundtrip(self, capsys, tmp_path):
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps({
            "tenants": [
                {"workload": "GUPS", "policy": "Trident", "rate_rps": 20000},
                {"workload": "GUPS", "policy": "4KB", "rate_rps": 20000},
            ],
            "duration_s": 0.002,
            "scale_factor": 2048,
            "slo_ms": 0.5,
        }))
        out = str(tmp_path / "svc")
        assert main(["serve", "--config", str(config), "-o", out]) == 0
        report = json.load(open(os.path.join(out, "service_report.json")))
        assert report["slo_ms"] == 0.5
        assert len(report["groups"]) == 2

    def test_serve_missing_config_exits_two(self, capsys, tmp_path):
        code = main(["serve", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().out

    def test_serve_rejects_bad_spec(self, capsys, tmp_path):
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps({"tenants": [{"workload": "GUPS"}]}))
        code = main(["serve", "--config", str(config)])
        assert code == 2
        assert "fleet spec" in capsys.readouterr().out

    def test_serve_rejects_non_object(self, capsys, tmp_path):
        config = tmp_path / "fleet.json"
        config.write_text("[]")
        code = main(["serve", "--config", str(config)])
        assert code == 2
        assert "tenants" in capsys.readouterr().out


class TestTelemetryCLI:
    def test_loadgen_telemetry_and_alerts(self, capsys, tmp_path):
        from repro.obs.telemetry.exposition import (
            iter_frames,
            validate_exposition,
        )

        out = str(tmp_path / "svc")
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [{
            "name": "always", "kind": "threshold",
            "metric": "service_queue_depth", "op": ">=", "value": 0.0,
        }]}))
        code = main(
            ["loadgen", "--workloads", "GUPS", "--policies", "Trident",
             "--rate", "20000", "-o", out, *SERVICE_QUICK,
             "--telemetry-out", os.path.join(out, "telemetry"),
             "--telemetry-interval-ms", "0.5",
             "--alerts", str(rules)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "telemetry:" in stdout and "alerts:" in stdout
        streams = [
            f for f in os.listdir(os.path.join(out, "telemetry"))
            if f.endswith(".prom")
        ]
        assert len(streams) == 1
        with open(os.path.join(out, "telemetry", streams[0])) as f:
            frames = list(iter_frames(f.read()))
        assert frames
        for _, _, frame in frames:
            validate_exposition(frame)
        assert os.path.exists(os.path.join(out, "alerts.json"))

    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
    def test_bad_scrape_interval_exits_two(self, capsys, tmp_path, bad):
        """Every ``--telemetry-interval-ms`` flag and the ``serve --config``
        field reject non-positive and non-finite periods with exit 2,
        before any cell runs."""
        prom = str(tmp_path / "t.prom")
        for argv in (
            ["run", "GUPS", "Trident", "--accesses", "2000",
             "--telemetry-out", prom],
            ["loadgen", "--workloads", "GUPS", "--telemetry-out", prom],
            ["tenants", "--quick", "--telemetry-out", prom],
            ["serve", "--config", "unread.json", "--telemetry-out", prom],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--telemetry-interval-ms", bad])
            assert exc.value.code == 2, argv
            assert "--telemetry-interval-ms" in capsys.readouterr().err
        assert not os.path.exists(prom)
        config = tmp_path / "fleet.json"
        config.write_text(json.dumps({
            "tenants": [{"workload": "GUPS", "policy": "Trident",
                         "rate_rps": 1000}],
            "telemetry_interval_ms": float(bad),
        }))
        code = main(["serve", "--config", str(config), "-o", str(tmp_path)])
        assert code == 2
        out = capsys.readouterr().out
        assert "is not a valid fleet spec" in out and "interval_ms" in out

    def test_loadgen_alerts_without_telemetry_exits_two(self, capsys, tmp_path):
        code = main(
            ["loadgen", "--workloads", "GUPS", "--policies", "Trident",
             "--rate", "20000", "-o", str(tmp_path / "svc"), *SERVICE_QUICK,
             "--alerts", str(tmp_path / "rules.json")]
        )
        assert code == 2
        assert "requires --telemetry-out" in capsys.readouterr().out

    def test_metrics_format_prom_round_trips(self, capsys, tmp_path):
        from repro.obs.telemetry.exposition import (
            parse_exposition,
            validate_exposition,
        )

        metrics = str(tmp_path / "m.json")
        assert main(
            ["run", "GUPS", "Trident", "--accesses", "1500",
             "--metrics-out", metrics]
        ) == 0
        capsys.readouterr()
        assert main(["metrics", metrics, "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE" in text
        validate_exposition(text)
        parsed = parse_exposition(text)
        snapshot = json.load(open(metrics))
        assert parsed["counters"] == snapshot["counters"]

    def test_metrics_format_prom_kind_filter(self, capsys, tmp_path):
        metrics = str(tmp_path / "m.json")
        assert main(
            ["run", "GUPS", "Trident", "--accesses", "1500",
             "--metrics-out", metrics]
        ) == 0
        capsys.readouterr()
        assert main(
            ["metrics", metrics, "--format", "prom", "--kind", "counter"]
        ) == 0
        text = capsys.readouterr().out
        assert "# TYPE" in text
        assert "counter" in text and "histogram" not in text

    def test_metrics_format_prom_without_file_exits_two(self, capsys):
        assert main(["metrics", "--format", "prom"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_metrics_format_prom_corrupt_json_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["metrics", str(path), "--format", "prom"])
        assert code == 2
        out = capsys.readouterr().out
        assert out.startswith("error:") and "Traceback" not in out

    def test_watch_once_renders_dashboard(self, capsys, tmp_path):
        out = str(tmp_path / "svc")
        assert main(
            ["loadgen", "--workloads", "GUPS", "--policies", "Trident",
             "--rate", "20000", "-o", out, *SERVICE_QUICK,
             "--telemetry-out", os.path.join(out, "telemetry")]
        ) == 0
        capsys.readouterr()
        assert main(
            ["watch", os.path.join(out, "telemetry"), "--once"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "fleet telemetry" in stdout
        assert "GUPS/Trident" in stdout

    def test_watch_empty_dir_reports_no_frames(self, capsys, tmp_path):
        assert main(["watch", str(tmp_path), "--once"]) == 0
        assert "no complete scrape frames" in capsys.readouterr().out
