"""A service cell's observed output equals the scalar reference's.

A service request is a ``touch_batch`` call of 16 accesses: too short to
pay for a vectorized segment, so the batch engine runs it through the
scalar ``System.touch``.  Its scrape frames then count a request's
accesses one by one, as the per-access loop of ``batch_hot_path = False``
does, even when a frame fires inside the request's translation charges.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.telemetry import TelemetryScraper
from repro.service.fleet import run_service_cell
from repro.sim.system import System

ALERT_RULES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
    "alert_rules.json",
)

TOUCH_BATCH, FIRE = System.touch_batch, TelemetryScraper.fire


def _cell(tmp_path, monkeypatch, batched: bool, seed: int) -> tuple[str, str, int]:
    """(record JSON, .prom stream, frames fired inside touch_batch calls).

    4KB pages make a GUPS request walk on most accesses, and a 1 us
    scrape interval is shorter than those walks' charges, so deadlines
    fall inside requests.  The first requests after set-up finish the
    set-up's fault-dense scalar stretch; the rest reach the engine's
    short-stretch rule.
    """
    monkeypatch.setattr(System, "batch_hot_path", batched)
    inside = {"calls": 0, "frames": 0}

    def counting_touch_batch(self, process, vas):
        inside["calls"] += 1
        try:
            return TOUCH_BATCH(self, process, vas)
        finally:
            inside["calls"] -= 1

    def counting_fire(self, now_ns):
        inside["frames"] += inside["calls"] > 0
        return FIRE(self, now_ns)

    monkeypatch.setattr(System, "touch_batch", counting_touch_batch)
    monkeypatch.setattr(TelemetryScraper, "fire", counting_fire)
    prom = tmp_path / f"{'batch' if batched else 'scalar'}-{seed}.prom"
    record = run_service_cell(
        "GUPS",
        "4KB",
        0,
        20_000.0,
        0.006,
        seed=seed,
        scale_factor=2048,
        telemetry_out=str(prom),
        telemetry_interval_ms=0.001,
        alerts_path=ALERT_RULES,
    )
    return json.dumps(record, sort_keys=True), prom.read_text(), inside["frames"]


@pytest.mark.parametrize("seed", [40, 43])
def test_service_cell_matches_the_scalar_reference(tmp_path, monkeypatch, seed):
    batch_record, batch_prom, batch_inside = _cell(
        tmp_path, monkeypatch, batched=True, seed=seed
    )
    scalar_record, scalar_prom, scalar_inside = _cell(
        tmp_path, monkeypatch, batched=False, seed=seed
    )
    assert batch_inside == scalar_inside > 0
    assert batch_record == scalar_record
    if batch_prom != scalar_prom:
        differing = [
            i
            for i, (a, b) in enumerate(
                zip(batch_prom.split("# EOF\n"), scalar_prom.split("# EOF\n"))
            )
            if a != b
        ]
        pytest.fail(
            f"{len(differing)} scrape frames differ from the scalar "
            f"reference's, the first at index {differing[:1]}"
        )
