"""Observed artifacts are byte-identical to their committed digests.

``tests/golden/observed_artifacts.json`` holds the sha256 and byte count
of every file five observed scenarios write (scrape streams, Chrome and
JSONL traces, ``metrics.json``, ``alerts.json``, the service report).
Each scenario here is replayed from ``scripts/gen_observed_golden.py``
and every artifact must match: however observers are scheduled on the
simulated clock, and whichever fold the TLB kernel picks, what they
record stays the same.

Regenerate the golden (only after an *intentional* change to what the
simulator or its observers write) with
``PYTHONPATH=src python scripts/gen_observed_golden.py``.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "gen_observed_golden",
    os.path.join(ROOT, "scripts", "gen_observed_golden.py"),
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
def test_observed_artifacts_match_golden(name, golden, tmp_path):
    digests = gen.run_scenario(name, str(tmp_path / name))
    assert sorted(digests) == sorted(golden[name])
    mismatched = [path for path in digests if digests[path] != golden[name][path]]
    assert not mismatched, f"{name}: artifacts changed: {mismatched}"
