"""Declarative SLO alerting over the scrape stream: burn rates, ceilings.

Rules live in a JSON (or TOML) file and are evaluated once per scrape
frame against the :class:`repro.obs.telemetry.windows.FrameAggregator`
view of the stream.  Two rule kinds cover the fleet's SLO surface:

``burn_rate``
    The multi-window burn-rate idiom (SRE workbook): the error ratio
    ``numerator / denominator`` over a *fast* and a *slow* trailing
    window, each normalized by the objective (the error budget).  The
    rule breaches only when **both** windows burn faster than
    ``burn_threshold`` — the fast window gives detection latency, the
    slow window keeps one bad frame from paging.

``threshold``
    Plain comparison of a gauge, counter-rate, or histogram quantile
    against a bound (per-node FMFI ceilings, p99 latency targets,
    queue-depth saturation).  Naming a bare family (``numa_node_fmfi``)
    matches every labeled series of that family, firing per series.

Hysteresis is frame-counted, not time-counted: a rule must breach
``for_frames`` consecutive evaluations to fire and clear ``keep_frames``
consecutive evaluations to resolve, so alert state cannot flap across a
single frame boundary.  Everything — evaluation order, transition
timestamps, the exported ``alerts.json`` — is a pure function of the
frame stream on the simulated clock: byte-identical at any ``--jobs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.telemetry.windows import FrameAggregator

#: rule-kind names accepted in a rule file
RULE_KINDS = ("burn_rate", "threshold")

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class AlertRule:
    """One parsed rule (see :func:`load_alert_rules` for the file schema)."""

    name: str
    kind: str
    #: threshold rules: flat series key or bare family name
    metric: str = ""
    #: threshold rules: histogram quantile to read (None = gauge/counter)
    quantile: float | None = None
    #: threshold rules: trailing window (None = instantaneous value);
    #: with ``rate=True`` the value is the windowed rate per second
    window_ms: float | None = None
    rate: bool = False
    op: str = ">"
    value: float = 0.0
    #: burn-rate rules
    numerator: str = ""
    denominator: str = ""
    objective: float = 0.001
    fast_window_ms: float = 2.0
    slow_window_ms: float = 10.0
    burn_threshold: float = 4.0
    #: hysteresis (consecutive frames to fire / to resolve)
    for_frames: int = 2
    keep_frames: int = 2

    def horizon_ns(self) -> float:
        """The largest trailing window this rule ever reads."""
        if self.kind == "burn_rate":
            return max(self.fast_window_ms, self.slow_window_ms) * 1e6
        return (self.window_ms or 0.0) * 1e6


def _parse_rule(raw: dict, index: int) -> AlertRule:
    if not isinstance(raw, dict):
        raise ValueError(f"rule #{index} is not an object: {raw!r}")
    name = raw.get("name")
    if not name or not isinstance(name, str):
        raise ValueError(f"rule #{index} has no name")
    kind = raw.get("kind")
    if kind not in RULE_KINDS:
        raise ValueError(
            f"rule {name!r}: kind must be one of {', '.join(RULE_KINDS)}, "
            f"got {kind!r}"
        )
    known = {f.name for f in AlertRule.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(raw) - known
    if unknown:
        raise ValueError(
            f"rule {name!r}: unknown field(s) {', '.join(sorted(unknown))}"
        )
    if kind == "burn_rate":
        for required in ("numerator", "denominator"):
            if not raw.get(required):
                raise ValueError(f"rule {name!r}: burn_rate needs {required}")
    else:
        if not raw.get("metric"):
            raise ValueError(f"rule {name!r}: threshold needs metric")
        if raw.get("op", ">") not in _OPS:
            raise ValueError(
                f"rule {name!r}: op must be one of {', '.join(sorted(_OPS))}"
            )
    numeric = (
        "quantile", "window_ms", "value", "objective", "fast_window_ms",
        "slow_window_ms", "burn_threshold",
    )
    coerced = dict(raw)
    for key in numeric:
        if key in coerced and coerced[key] is not None:
            coerced[key] = float(coerced[key])
    for key in ("for_frames", "keep_frames"):
        if key in coerced:
            coerced[key] = int(coerced[key])
            if coerced[key] < 1:
                raise ValueError(f"rule {name!r}: {key} must be >= 1")
    rule = AlertRule(**coerced)
    if rule.kind == "burn_rate" and rule.objective <= 0:
        raise ValueError(f"rule {name!r}: objective must be positive")
    return rule


def parse_alert_rules(spec: dict) -> tuple[AlertRule, ...]:
    """Validate a ``{"rules": [...]}`` object into rule dataclasses."""
    if not isinstance(spec, dict) or not isinstance(spec.get("rules"), list):
        raise ValueError('alert rule file must be an object with a "rules" list')
    rules = tuple(
        _parse_rule(raw, i) for i, raw in enumerate(spec["rules"])
    )
    names = [r.name for r in rules]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ValueError(f"duplicate rule name(s): {', '.join(dupes)}")
    return rules


def load_alert_rules(path: str) -> tuple[AlertRule, ...]:
    """Load and validate a rule file (JSON, or TOML for ``.toml`` paths)."""
    if path.endswith(".toml"):
        import tomllib

        with open(path, "rb") as bf:
            spec = tomllib.load(bf)
    else:
        with open(path) as f:
            spec = json.load(f)
    return parse_alert_rules(spec)


@dataclass
class _InstanceState:
    """Hysteresis counters for one (rule, series) alert instance."""

    firing: bool = False
    breach_streak: int = 0
    clear_streak: int = 0
    transitions: int = 0


class AlertEngine:
    """Evaluate rules per frame; record firing/resolved transitions.

    Transitions go three places, all deterministically ordered: the
    ``transitions`` list (exported into ``alerts.json``), the tracer's
    ``telemetry`` subsystem (``alert_firing`` / ``alert_resolved``
    events), and the ``alert_transitions_total`` / ``alerts_active``
    metrics — so the scrape stream itself shows alert state changing.
    """

    def __init__(self, rules, tracer=None, metrics=None) -> None:
        self.rules = tuple(rules)
        self.tracer = tracer
        self.metrics = metrics
        horizon = max(
            [r.horizon_ns() for r in self.rules] + [1e6]
        )
        self.aggregator = FrameAggregator(horizon_ns=horizon * 2 + 1e6)
        self._states: dict[tuple[str, str], _InstanceState] = {}
        self.transitions: list[dict] = []
        self.frames = 0
        self._g_active = None
        if metrics is not None:
            self._g_active = metrics.gauge("alerts_active")

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, ts_ns: float, snapshot: dict) -> list[dict]:
        """Fold one frame in; returns the transitions it caused."""
        self.frames += 1
        self.aggregator.observe_frame(ts_ns, snapshot)
        caused: list[dict] = []
        for rule in self.rules:  # rule-file order: deterministic
            for series, value in self._rule_values(rule, snapshot):
                transition = self._step_instance(rule, series, value, ts_ns)
                if transition is not None:
                    caused.append(transition)
        if self._g_active is not None:
            self._g_active.set(
                sum(1 for s in self._states.values() if s.firing)
            )
        return caused

    def _rule_values(self, rule: AlertRule, snapshot: dict):
        """Yield (series label, evaluated value) pairs for one rule."""
        if rule.kind == "burn_rate":
            yield "", self._burn_value(rule)
            return
        for key in self._matching_keys(rule.metric, snapshot):
            yield (
                key if key != rule.metric else "",
                self._threshold_value(rule, key),
            )

    def _matching_keys(self, metric: str, snapshot: dict) -> list[str]:
        """Exact series key, else every series of the bare family."""
        sections = ("counters", "gauges", "histograms")
        if any(metric in snapshot.get(s, {}) for s in sections):
            return [metric]
        family_keys = self.aggregator.family_keys
        return sorted(
            key
            for section in sections
            for key in family_keys(section, metric)
            if key in snapshot.get(section, {})
        )

    def _burn_value(self, rule: AlertRule) -> float:
        """min(fast, slow) burn rate — breaches only when both do."""
        burns = []
        for window_ms in (rule.fast_window_ms, rule.slow_window_ms):
            window_ns = window_ms * 1e6
            bad = self._family_delta(rule.numerator, window_ns)
            total = self._family_delta(rule.denominator, window_ns)
            if total <= 0:
                burns.append(0.0)
                continue
            burns.append((bad / total) / rule.objective)
        return min(burns)

    def _family_delta(self, metric: str, window_ns: float) -> float:
        """Windowed delta of an exact series key, else the bare family sum.

        Burn-rate rules typically name a bare family
        (``service_slo_violations_total``); the stream's series carry
        workload/policy labels, so the family's deltas are summed.
        """
        agg = self.aggregator
        if metric in agg.counters or metric in agg.gauges:
            return agg.delta(metric, window_ns)
        total = 0.0
        for key in agg.family_keys("counters", metric):
            total += agg.delta(key, window_ns)
        return total

    def _threshold_value(self, rule: AlertRule, key: str) -> float:
        agg = self.aggregator
        window_ns = rule.window_ms * 1e6 if rule.window_ms else None
        if rule.quantile is not None:
            return agg.quantile(key, rule.quantile, window_ns)
        if rule.rate:
            return agg.rate_per_s(key, window_ns or agg.horizon_ns)
        if window_ns is not None:
            return agg.delta(key, window_ns)
        value = agg.value(key)
        return 0.0 if value is None else float(value)

    def _step_instance(
        self, rule: AlertRule, series: str, value: float, ts_ns: float
    ) -> dict | None:
        """Advance one instance's hysteresis; returns a transition or None."""
        if rule.kind == "burn_rate":
            breached = value >= rule.burn_threshold
            bound = rule.burn_threshold
        else:
            breached = _OPS[rule.op](value, rule.value)
            bound = rule.value
        state = self._states.get((rule.name, series))
        if state is None:
            state = self._states[(rule.name, series)] = _InstanceState()
        if breached:
            state.breach_streak += 1
            state.clear_streak = 0
        else:
            state.clear_streak += 1
            state.breach_streak = 0
        transition: dict | None = None
        if not state.firing and state.breach_streak >= rule.for_frames:
            state.firing = True
            transition = self._record(
                rule, series, "firing", value, bound, ts_ns
            )
        elif state.firing and state.clear_streak >= rule.keep_frames:
            state.firing = False
            transition = self._record(
                rule, series, "resolved", value, bound, ts_ns
            )
        return transition

    def _record(
        self,
        rule: AlertRule,
        series: str,
        state: str,
        value: float,
        bound: float,
        ts_ns: float,
    ) -> dict:
        transition = {
            "rule": rule.name,
            "series": series,
            "state": state,
            "sim_ms": round(ts_ns / 1e6, 6),
            "frame": self.frames,
            "value": value,
            "threshold": bound,
        }
        self.transitions.append(transition)
        self._states[(rule.name, series)].transitions += 1
        if self.metrics is not None:
            self.metrics.counter(
                "alert_transitions_total", rule=rule.name
            ).inc()
        tr = self.tracer
        if tr is not None and tr.active:
            tr.emit(
                "telemetry",
                f"alert_{state}",
                rule=rule.name,
                series=series,
                value=value,
                threshold=bound,
            )
        return transition

    # -- export -------------------------------------------------------------
    def active(self) -> list[dict]:
        """Currently-firing instances, in deterministic (rule, series) order."""
        return [
            {"rule": rule_name, "series": series}
            for (rule_name, series) in sorted(self._states)
            if self._states[(rule_name, series)].firing
        ]

    def export(self) -> dict:
        """The ``alerts.json``-shaped record for this stream."""
        return {
            "rules": [
                {"name": r.name, "kind": r.kind} for r in self.rules
            ],
            "frames": self.frames,
            "transitions": list(self.transitions),
            "active": self.active(),
        }


@dataclass
class AlertLog:
    """Fleet-level merge of per-cell alert exports (canonical order)."""

    cells: dict = field(default_factory=dict)

    def add(self, cell: str, export: dict) -> None:
        self.cells[cell] = export

    def export(self) -> dict:
        cells = {name: self.cells[name] for name in sorted(self.cells)}
        transitions = [
            {**t, "cell": name}
            for name in sorted(cells)
            for t in cells[name]["transitions"]
        ]
        transitions.sort(key=lambda t: (t["sim_ms"], t["cell"], t["rule"]))
        return {
            "kind": "alert_log",
            "cells": cells,
            "transitions": transitions,
            "firing": sum(
                1 for t in transitions if t["state"] == "firing"
            ),
            "resolved": sum(
                1 for t in transitions if t["state"] == "resolved"
            ),
        }
