"""``repro geometry describe`` against its committed output.

The describe table prints each level's walk depth and leaf-cache
probability next to its TLB shape, so it pins the per-level walk facts a
geometry resolves.  ``tests/golden/geometry_describe.json`` maps each
``describe`` argument (run from the repo root) to its exact stdout.
"""

import json
import os

import pytest

from repro.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden", "geometry_describe.json")

with open(GOLDEN_PATH) as f:
    GOLDEN = json.load(f)


def test_golden_covers_every_preset_and_the_example():
    assert sorted(GOLDEN) == [
        "arm16k", "examples/toy_geometry.json", "sv-napot", "x86",
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_describe_prints_the_golden_bytes(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["geometry", "describe", name]) == 0
    assert capsys.readouterr().out == GOLDEN[name]
