"""Alert rule parsing, burn-rate/threshold evaluation, hysteresis, merges."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.obs.telemetry.alerts import (
    AlertEngine,
    AlertLog,
    AlertRule,
    load_alert_rules,
    parse_alert_rules,
)

BURN_RULE = {
    "name": "slo-burn",
    "kind": "burn_rate",
    "numerator": "errors_total",
    "denominator": "requests_total",
    "objective": 0.05,
    "fast_window_ms": 2.0,
    "slow_window_ms": 6.0,
    "burn_threshold": 2.0,
    "for_frames": 2,
    "keep_frames": 2,
}


class TestRuleParsing:
    def test_valid_burn_rule(self):
        (rule,) = parse_alert_rules({"rules": [BURN_RULE]})
        assert rule.name == "slo-burn"
        assert rule.kind == "burn_rate"
        assert rule.horizon_ns() == 6.0e6

    def test_valid_threshold_rule(self):
        (rule,) = parse_alert_rules(
            {
                "rules": [
                    {
                        "name": "depth",
                        "kind": "threshold",
                        "metric": "queue_depth",
                        "op": ">=",
                        "value": 10,
                    }
                ]
            }
        )
        assert rule.op == ">="
        assert rule.value == 10.0
        assert rule.horizon_ns() == 0.0

    def test_top_level_shape_enforced(self):
        with pytest.raises(ValueError, match='"rules" list'):
            parse_alert_rules({"rule": []})
        with pytest.raises(ValueError, match='"rules" list'):
            parse_alert_rules([BURN_RULE])

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            parse_alert_rules(
                {"rules": [{**BURN_RULE, "severity": "page"}]}
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            parse_alert_rules(
                {"rules": [{"name": "x", "kind": "absence"}]}
            )

    def test_burn_rule_needs_numerator_and_denominator(self):
        broken = {k: v for k, v in BURN_RULE.items() if k != "denominator"}
        with pytest.raises(ValueError, match="needs denominator"):
            parse_alert_rules({"rules": [broken]})

    def test_threshold_needs_metric_and_valid_op(self):
        with pytest.raises(ValueError, match="needs metric"):
            parse_alert_rules(
                {"rules": [{"name": "x", "kind": "threshold"}]}
            )
        with pytest.raises(ValueError, match="op must be one of"):
            parse_alert_rules(
                {
                    "rules": [
                        {
                            "name": "x",
                            "kind": "threshold",
                            "metric": "m",
                            "op": "!=",
                        }
                    ]
                }
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule name"):
            parse_alert_rules({"rules": [BURN_RULE, BURN_RULE]})

    def test_hysteresis_frames_must_be_positive(self):
        with pytest.raises(ValueError, match="for_frames"):
            parse_alert_rules({"rules": [{**BURN_RULE, "for_frames": 0}]})

    def test_load_json_and_toml(self, tmp_path):
        json_path = tmp_path / "rules.json"
        json_path.write_text(json.dumps({"rules": [BURN_RULE]}))
        toml_path = tmp_path / "rules.toml"
        toml_path.write_text(
            "[[rules]]\n"
            'name = "slo-burn"\n'
            'kind = "burn_rate"\n'
            'numerator = "errors_total"\n'
            'denominator = "requests_total"\n'
            "objective = 0.05\n"
        )
        assert load_alert_rules(str(json_path))[0].name == "slo-burn"
        assert load_alert_rules(str(toml_path))[0].objective == 0.05


def _snapshot(requests: float, errors: float, **gauges) -> dict:
    return {
        "counters": {
            "requests_total{policy=Trident}": requests,
            "errors_total{policy=Trident}": errors,
        },
        "gauges": dict(gauges),
        "histograms": {},
    }


def _drive(engine: AlertEngine, error_rates, requests_per_frame=100.0):
    """Feed one frame per entry of ``error_rates`` (fraction bad), 1ms apart."""
    requests = errors = 0.0
    for frame, bad_fraction in enumerate(error_rates):
        requests += requests_per_frame
        errors += requests_per_frame * bad_fraction
        engine.evaluate((frame + 1) * 1e6, _snapshot(requests, errors))


class TestBurnRateEngine:
    def _engine(self, **overrides) -> AlertEngine:
        rules = parse_alert_rules({"rules": [{**BURN_RULE, **overrides}]})
        return AlertEngine(rules)

    def test_fires_and_resolves_on_transient_overload(self):
        engine = self._engine()
        # 6 clean frames, a 6-frame error burst, then clean again: the
        # burn crosses threshold in both windows during the burst and
        # falls back once the slow window drains.
        _drive(engine, [0.0] * 6 + [0.8] * 6 + [0.0] * 12)
        states = [t["state"] for t in engine.transitions]
        assert states == ["firing", "resolved"]
        firing, resolved = engine.transitions
        assert firing["rule"] == "slo-burn"
        assert resolved["sim_ms"] > firing["sim_ms"]
        assert engine.active() == []

    def test_single_bad_frame_does_not_fire(self):
        engine = self._engine()
        # One 30%-bad frame breaches the fast window (30/200 = 6x the
        # objective) but dilutes below threshold over the slow window
        # (30/600 = 1x), and the rule needs BOTH windows burning.
        _drive(engine, [0.0] * 8 + [0.3] + [0.0] * 8)
        assert engine.transitions == []

    def test_family_sum_spans_labeled_series(self):
        engine = self._engine()
        # Errors split across two labeled series of the bare family still
        # sum into one burn value.
        requests = errors = 0.0
        for frame in range(12):
            requests += 100.0
            errors += 80.0 if 4 <= frame < 10 else 0.0
            snapshot = {
                "counters": {
                    "requests_total{policy=Linux}": requests / 2,
                    "requests_total{policy=Trident}": requests / 2,
                    "errors_total{policy=Linux}": errors / 2,
                    "errors_total{policy=Trident}": errors / 2,
                },
                "gauges": {},
                "histograms": {},
            }
            engine.evaluate((frame + 1) * 1e6, snapshot)
        assert [t["state"] for t in engine.transitions] == ["firing"]

    def test_family_series_appearing_later_enter_the_sum(self):
        engine = self._engine()
        # The family's second series appears at frame 3 and carries every
        # error from then on: the alert fires only if the sum sees it.
        requests = errors = 0.0
        for frame in range(1, 9):
            requests += 100.0
            counters = {
                "requests_total{policy=Trident}": requests,
                "errors_total{policy=Trident}": 0.0,
            }
            if frame >= 3:
                errors += 80.0
                counters["errors_total{policy=Linux}"] = errors
            engine.evaluate(
                frame * 1e6,
                {"counters": counters, "gauges": {}, "histograms": {}},
            )
        agg = engine.aggregator
        assert agg.family_keys("counters", "errors_total") == [
            "errors_total{policy=Linux}",
            "errors_total{policy=Trident}",
        ]
        assert engine._family_delta("errors_total", 2e6) == 160.0
        assert [t["state"] for t in engine.transitions] == ["firing"]

    def test_zero_denominator_is_zero_burn(self):
        engine = self._engine()
        for frame in range(6):
            engine.evaluate((frame + 1) * 1e6, _snapshot(0.0, 0.0))
        assert engine.transitions == []


class TestThresholdEngine:
    def _engine(self, metrics=None, tracer=None, **rule) -> AlertEngine:
        rules = parse_alert_rules(
            {
                "rules": [
                    {
                        "name": "depth",
                        "kind": "threshold",
                        "metric": "queue_depth",
                        "op": ">=",
                        "value": 8.0,
                        "for_frames": 2,
                        "keep_frames": 2,
                        **rule,
                    }
                ]
            }
        )
        return AlertEngine(rules, tracer=tracer, metrics=metrics)

    def test_gauge_threshold_fires_per_series(self):
        engine = self._engine(metric="node_depth")
        for frame in range(6):
            depth = 9.0 if frame >= 2 else 1.0
            snapshot = {
                "counters": {},
                "gauges": {
                    "node_depth{node=0}": depth,
                    "node_depth{node=1}": 1.0,
                },
                "histograms": {},
            }
            engine.evaluate((frame + 1) * 1e6, snapshot)
        assert [(t["series"], t["state"]) for t in engine.transitions] == [
            ("node_depth{node=0}", "firing")
        ]
        assert engine.active() == [
            {"rule": "depth", "series": "node_depth{node=0}"}
        ]

    def test_family_series_appearing_later_are_matched(self):
        engine = self._engine(metric="node_depth")
        for frame in range(6):
            gauges = {"node_depth{node=1}": 1.0}
            if frame >= 2:
                gauges["node_depth{node=0}"] = 9.0
            engine.evaluate(
                (frame + 1) * 1e6,
                {"counters": {}, "gauges": gauges, "histograms": {}},
            )
        assert [(t["series"], t["state"]) for t in engine.transitions] == [
            ("node_depth{node=0}", "firing")
        ]

    def test_exact_series_key_matches_directly(self):
        engine = self._engine(metric="queue_depth")
        for frame in range(4):
            engine.evaluate(
                (frame + 1) * 1e6, _snapshot(1.0, 0.0, queue_depth=20.0)
            )
        (transition,) = engine.transitions
        assert transition["series"] == ""  # exact match: no per-series label
        assert transition["value"] == 20.0
        assert transition["threshold"] == 8.0

    def test_no_flapping_across_alternating_frames(self):
        # With for_frames=2 an alternating breach/clear value can never
        # accumulate two consecutive breaches, so the alert stays silent.
        engine = self._engine()
        for frame in range(20):
            depth = 9.0 if frame % 2 else 0.0
            engine.evaluate(
                (frame + 1) * 1e6, _snapshot(1.0, 0.0, queue_depth=depth)
            )
        assert engine.transitions == []

    def test_keep_frames_rides_out_single_clear_frame(self):
        # A firing alert must see keep_frames consecutive clear frames to
        # resolve; one good frame in a bad stretch does not flap it.
        engine = self._engine()
        pattern = [9.0, 9.0, 9.0, 0.0, 9.0, 9.0]
        for frame, depth in enumerate(pattern):
            engine.evaluate(
                (frame + 1) * 1e6, _snapshot(1.0, 0.0, queue_depth=depth)
            )
        assert [t["state"] for t in engine.transitions] == ["firing"]
        assert engine.active() == [{"rule": "depth", "series": ""}]

    def test_transitions_feed_tracer_and_metrics(self):
        registry = MetricsRegistry()
        tracer = Tracer(subsystems=("telemetry",))
        engine = self._engine(metrics=registry, tracer=tracer)
        for frame in range(8):
            depth = 9.0 if frame < 4 else 0.0
            engine.evaluate(
                (frame + 1) * 1e6, _snapshot(1.0, 0.0, queue_depth=depth)
            )
        assert registry.value("alert_transitions_total", rule="depth") == 2
        assert registry.value("alerts_active") == 0
        events = list(tracer.events("telemetry"))
        assert [e["event"] for e in events] == [
            "alert_firing",
            "alert_resolved",
        ]
        assert events[0]["rule"] == "depth"

    def test_export_shape(self):
        engine = self._engine()
        for frame in range(4):
            engine.evaluate(
                (frame + 1) * 1e6, _snapshot(1.0, 0.0, queue_depth=20.0)
            )
        export = engine.export()
        assert export["rules"] == [{"name": "depth", "kind": "threshold"}]
        assert export["frames"] == 4
        assert len(export["transitions"]) == 1
        assert export["active"] == [{"rule": "depth", "series": ""}]


class TestAlertRuleDefaults:
    def test_burn_rate_defaults_match_docs(self):
        rule = AlertRule(name="x", kind="burn_rate", numerator="a", denominator="b")
        assert rule.objective == 0.001
        assert rule.burn_threshold == 4.0
        assert rule.for_frames == 2
        assert rule.keep_frames == 2


class TestAlertLog:
    def test_merge_orders_transitions_canonically(self):
        log = AlertLog()
        log.add(
            "cell-b",
            {
                "rules": [],
                "frames": 3,
                "transitions": [
                    {"rule": "r", "series": "", "state": "firing", "sim_ms": 1.0}
                ],
                "active": [],
            },
        )
        log.add(
            "cell-a",
            {
                "rules": [],
                "frames": 3,
                "transitions": [
                    {"rule": "r", "series": "", "state": "firing", "sim_ms": 1.0},
                    {
                        "rule": "r",
                        "series": "",
                        "state": "resolved",
                        "sim_ms": 2.0,
                    },
                ],
                "active": [],
            },
        )
        merged = log.export()
        assert merged["kind"] == "alert_log"
        assert list(merged["cells"]) == ["cell-a", "cell-b"]
        assert [(t["sim_ms"], t["cell"]) for t in merged["transitions"]] == [
            (1.0, "cell-a"),
            (1.0, "cell-b"),
            (2.0, "cell-a"),
        ]
        assert merged["firing"] == 2
        assert merged["resolved"] == 1
