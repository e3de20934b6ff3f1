"""End-to-end: the emitted metrics.json agrees with RunMetrics.

The acceptance contract for the observability layer: counters exported by
the registry and the figures computed from :class:`RunMetrics` must be two
views of the same numbers.
"""

import json
from collections import Counter

from repro.cli import main
from repro.experiments.runner import NativeRunner, RunConfig


class TestMetricsJsonMatchesRunMetrics:
    def test_zerofill_and_promotion_counters_agree(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        runner = NativeRunner(
            RunConfig(
                "GUPS",
                "Trident",
                n_accesses=3000,
                fragmented=True,
                metrics_out=path,
            )
        )
        metrics = runner.run()
        data = json.loads(open(path).read())
        counters = data["counters"]
        assert counters["zerofill_take_hit_total"] == metrics.zerofill_pool_hits
        assert (
            counters["zerofill_take_miss_total"] == metrics.zerofill_pool_misses
        )
        assert counters["zerofill_fill_total"] == metrics.zerofill_blocks_zeroed
        assert (
            counters["policy_promo_large_failures_total"]
            == metrics.promo_large_failures
        )
        assert (
            counters["policy_promo_large_attempts_total"]
            == metrics.promo_large_attempts
        )
        assert (
            counters["policy_fault_large_attempts_total"]
            == metrics.fault_large_attempts
        )
        assert (
            counters["policy_fault_large_failures_total"]
            == metrics.fault_large_failures
        )
        # The embedded run section mirrors the same RunMetrics fields.
        assert data["run"]["zerofill_pool_hits"] == metrics.zerofill_pool_hits
        assert (
            data["run"]["promo_large_failures"] == metrics.promo_large_failures
        )

    def test_tlb_totals_agree_with_translation_stats(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        runner = NativeRunner(
            RunConfig("GUPS", "Trident", n_accesses=3000, metrics_out=path)
        )
        metrics = runner.run()
        counters = json.loads(open(path).read())["counters"]
        # The runner resets TLB stats before the steady-state stream, so the
        # mirrored totals equal the sampled-phase counts in RunMetrics.
        assert counters["tlb_accesses_total"] == metrics.accesses
        walks = sum(
            v for k, v in counters.items() if k.startswith("tlb_walks_total{")
        )
        assert walks == metrics.walks

    def test_guest_walk_histograms_record_every_walk(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        trace_path = str(tmp_path / "t.jsonl")
        code = main(
            [
                "run", "GUPS", "Trident", "--virt", "--accesses", "5000",
                "--seed", "7", "--metrics-out", path, "--trace",
                "--trace-subsystems", "tlb", "--trace-out", trace_path,
            ]
        )
        assert code == 0
        data = json.loads(open(path).read())
        walk_events = Counter(
            record["size"]
            for record in map(json.loads, open(trace_path))
            if record["event"] == "walk"
        )
        labels = [
            k[len("tlb_walks_total{size="):-1]
            for k in data["counters"]
            if k.startswith("tlb_walks_total{")
        ]
        assert sorted(labels) == ["1GB", "2MB", "4KB"]
        assert data["trace"]["dropped"] == 0
        for label in labels:
            hist = data["histograms"][f"tlb_walk_cycles{{size={label}}}"]
            # Histogram and trace event come from the same guest walk.
            assert hist["count"] == walk_events[label]
            # The counter covers the measured phase only (the runner resets
            # the unit's stats after set-up); the histogram covers the run.
            assert hist["count"] >= data["counters"][
                f"tlb_walks_total{{size={label}}}"
            ]
        assert sum(walk_events.values()) > 0


class TestObservabilityCLI:
    def test_policy_flag_is_case_insensitive(self, capsys, tmp_path):
        path = str(tmp_path / "m.json")
        code = main(
            [
                "run", "GUPS", "--policy", "trident",
                "--accesses", "2000", "--metrics-out", path,
            ]
        )
        assert code == 0
        data = json.loads(open(path).read())
        assert data["run"]["policy"] == "Trident"
        assert "metrics written" in capsys.readouterr().out

    def test_missing_policy_errors(self, capsys):
        assert main(["run", "GUPS"]) == 2
        assert "no policy" in capsys.readouterr().out

    def test_trace_flag_prints_summary_and_writes_jsonl(self, capsys, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        code = main(
            [
                "run", "GUPS", "Trident", "--accesses", "2000",
                "--trace", "--trace-out", trace_path,
                "--trace-subsystems", "buddy,zerofill",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        records = [
            json.loads(line) for line in open(trace_path) if line.strip()
        ]
        assert records
        assert {r["subsystem"] for r in records} <= {"buddy", "zerofill"}

    def test_metrics_command_lists_catalog(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "buddy_free_blocks" in out
        assert "tlb_walk_cycles" in out
        assert main(["metrics", "--kind", "gauge"]) == 0
        out = capsys.readouterr().out
        assert "zerofill_pool_size" in out
        assert "buddy_alloc_total" not in out

    def test_metrics_dir_drop(self, tmp_path):
        """``repro experiment --metrics-out DIR`` routes every runner's
        metrics.json into DIR via the module-level METRICS_DIR switch."""
        import os

        import repro.experiments.runner as runner_mod

        out_dir = str(tmp_path / "metrics")
        os.makedirs(out_dir)
        runner_mod.METRICS_DIR = out_dir
        try:
            NativeRunner(RunConfig("GUPS", "Trident", n_accesses=2000)).run()
        finally:
            runner_mod.METRICS_DIR = None
        written = os.listdir(out_dir)
        assert written == ["metrics_GUPS_Trident.json"]
        sample = json.loads(open(os.path.join(out_dir, written[0])).read())
        assert "counters" in sample and "run" in sample

    def test_experiment_flag_resets_metrics_dir(self, capsys, tmp_path):
        import repro.experiments.runner as runner_mod

        out_dir = str(tmp_path / "drop")
        # Even when the experiment itself fails, the switch is restored.
        assert main(["experiment", "nope", "--metrics-out", out_dir]) == 2
        assert runner_mod.METRICS_DIR is None
