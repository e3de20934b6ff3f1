"""Fragmented fault storms leave bit-identical simulated state.

``tests/golden/fault_storm_fingerprints.json`` holds, per scenario, a
sha256 of the complete state a fragmented run leaves behind (process
fingerprint, every policy counter and fault latency, both compactors'
stats, buddy free lists, region counters, rmap size) and its faults,
promotions, blocks moved and simulated clock in the clear.  Each
scenario is replayed from ``scripts/gen_fault_storm_golden.py``: host-side
work on the fault handler, khugepaged and compaction may go away, but
not one simulated bit may change.

Regenerate the golden (only after an *intentional* behaviour change)
with ``PYTHONPATH=src python scripts/gen_fault_storm_golden.py``.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "gen_fault_storm_golden",
    os.path.join(ROOT, "scripts", "gen_fault_storm_golden.py"),
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.fixture(scope="module")
def golden():
    with open(gen.GOLDEN_PATH) as f:
        return json.load(f)


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(gen.SCENARIOS)


@pytest.mark.parametrize("name", sorted(gen.SCENARIOS))
def test_fault_storm_matches_golden(name, golden):
    record = gen.run_scenario(name)
    expected = golden[name]
    drifted = {
        key: (expected[key], record[key])
        for key in expected
        if key != "sha256" and record[key] != expected[key]
    }
    assert not drifted, f"{name}: counters drifted (golden, now): {drifted}"
    assert record["sha256"] == expected["sha256"], f"{name}: state changed"
