"""The vectorized LRU kernel is byte-identical to the scalar TLB.

``lru_batch_lookup`` must reproduce the scalar lookup/insert loop exactly:
the same per-access hit/miss pattern, the same hit and miss counters, and
the same final per-set LRU ordering (dict key order, LRU first).  These
tests replay randomized and adversarial key streams through both paths
and compare everything — "close enough" is a bug, because the full-system
equivalence contract (``System.touch_batch`` vs the scalar loop) is built
on this kernel being exact.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.tlb.batch as batch_mod
from repro.config import TLBConfig
from repro.tlb.batch import _replay_scalar, lru_batch_lookup
from repro.tlb.tlb import SetAssocTLB


def scalar_reference(tlb: SetAssocTLB, keys: np.ndarray) -> np.ndarray:
    """The ground truth: the scalar lookup/insert-on-miss loop."""
    hits = np.zeros(len(keys), dtype=bool)
    for j, key in enumerate(keys.tolist()):
        if tlb.lookup(key):
            hits[j] = True
        else:
            tlb.insert(key)
    return hits


def warm(tlb: SetAssocTLB, keys) -> None:
    for key in keys:
        if not tlb.lookup(key):
            tlb.insert(int(key))
    tlb.hits = tlb.misses = 0


def assert_identical(
    a: SetAssocTLB, b: SetAssocTLB, ref: np.ndarray, got: np.ndarray
) -> None:
    np.testing.assert_array_equal(ref, got)
    assert a.hits == b.hits
    assert a.misses == b.misses
    for set_a, set_b in zip(a._sets, b._sets):
        assert list(set_a.keys()) == list(set_b.keys())


def run_case(keys, ways: int, sets: int, warm_keys=()) -> None:
    keys = np.asarray(keys, dtype=np.int64)
    cfg = TLBConfig(entries=sets * ways, ways=ways)
    a, b = SetAssocTLB(cfg), SetAssocTLB(cfg)
    warm(a, warm_keys)
    warm(b, warm_keys)
    ref = scalar_reference(a, keys)
    got = lru_batch_lookup(b, keys)
    assert_identical(a, b, ref, got)


def test_randomized_streams_match_scalar():
    """Randomized geometry × universe × length sweep, cold and warm."""
    rng = np.random.default_rng(12345)
    for _ in range(400):
        ways = int(rng.integers(1, 9))
        sets = int(rng.choice([1, 1, 2, 4, 8, 16]))
        universe = int(rng.choice([2, 3, 5, 8, 32, 200, 5000]))
        n = int(rng.choice([1, 3, 17, 100, 400, 2000]))
        keys = rng.integers(0, universe, size=n)
        warm_keys = rng.integers(
            0, universe, size=int(rng.integers(0, 3 * sets * ways + 1))
        )
        run_case(keys, ways, sets, warm_keys=warm_keys.tolist())


def test_zipf_like_heavy_duplication():
    """Mostly a handful of hot keys with a rare cold tail (the bench shape)."""
    rng = np.random.default_rng(77)
    for _ in range(60):
        ways = int(rng.integers(1, 9))
        sets = int(rng.choice([1, 2, 4, 16]))
        n = int(rng.integers(500, 4000))
        hot = rng.integers(0, 4, size=n)
        rare = rng.integers(0, 10000, size=n)
        keys = np.where(rng.random(n) < 0.02, rare, hot)
        run_case(keys, ways, sets)


@pytest.mark.parametrize("ways", [3, 4, 8])
@pytest.mark.parametrize("alt_len", [300, 5000])
def test_long_alternation_window(ways, alt_len):
    """A far recurrence across a huge window of only two distinct keys.

    Stack distance is 2 (a hit for ways >= 3) even though the raw window
    spans thousands of accesses — the case a positional-distance
    approximation would get wrong and a naive scan would spend O(window)
    on.
    """
    keys = [9] + [t % 2 for t in range(alt_len)] + [9]
    run_case(keys, ways, 1)


def test_repeated_far_windows_stress_budget():
    """Many far queries with long windows in one batch."""
    keys = []
    for blk in range(40):
        keys.append(100 + blk)
        keys.extend([blk * 2 % 7, blk * 3 % 7] * 400)
        keys.append(100 + blk)
    run_case(keys, 4, 1)


def test_budget_exhaustion_falls_back_to_replay(monkeypatch):
    """When the far scan gives up, the kernel detours to exact replay.

    ``_resolve_far`` returning False (its budget-exceeded signal) must
    hand the whole batch to ``_replay_scalar`` before any state was
    mutated, so the result is still exact.
    """
    monkeypatch.setattr(batch_mod, "_resolve_far", lambda *a, **kw: False)
    calls = []
    real_replay = batch_mod._replay_scalar

    def spy(tlb, keys):
        calls.append(len(keys))
        return real_replay(tlb, keys)

    monkeypatch.setattr(batch_mod, "_replay_scalar", spy)
    keys = []
    for blk in range(30):
        keys.append(1000 + blk)
        keys.extend([0, 1] * 200)
        keys.append(1000 + blk)
    run_case(keys, 4, 1, warm_keys=[7, 8, 9])
    assert calls, "_resolve_far giving up never triggered the scalar replay"


def test_replay_scalar_is_exact():
    """The fallback itself reproduces the scalar loop (incl. warm state)."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        ways = int(rng.integers(1, 9))
        sets = int(rng.choice([1, 2, 4, 16]))
        n = int(rng.integers(1, 1500))
        universe = int(rng.choice([2, 8, 64, 3000]))
        keys = rng.integers(0, universe, size=n).astype(np.int64)
        cfg = TLBConfig(entries=sets * ways, ways=ways)
        a, b = SetAssocTLB(cfg), SetAssocTLB(cfg)
        warm_keys = rng.integers(0, universe, size=int(rng.integers(0, 2 * sets * ways)))
        warm(a, warm_keys.tolist())
        warm(b, warm_keys.tolist())
        ref = scalar_reference(a, keys)
        got = _replay_scalar(b, keys)
        assert_identical(a, b, ref, got)


def test_single_key_and_empty_edge_cases():
    run_case([], 2, 2)
    run_case([5], 1, 1)
    run_case([5, 5, 5, 5], 1, 1)
    # direct-mapped (ways=1): any intervening distinct key evicts
    run_case([1, 2, 1, 1, 2], 1, 1)


def _walk_histograms(batched: bool) -> dict:
    """Full walk-histogram exports after 200 cold base-page accesses."""
    from repro.config import SCALED_GEOMETRY, WalkConfig
    from repro.obs import Observability
    from repro.sim.batch import hierarchy_touch_batch
    from repro.tlb.hierarchy import TLBHierarchy
    from repro.vm.pagetable import PageTable

    g = SCALED_GEOMETRY
    obs = Observability()
    tlb = TLBHierarchy(WalkConfig(), g, obs=obs)
    table = PageTable(g)
    vas = 0x7000_0000_0000 + np.arange(200, dtype=np.int64) * g.base_size
    mappings = [table.map_page(int(va), 0, i) for i, va in enumerate(vas)]
    if batched:
        hierarchy_touch_batch(tlb, np.zeros(len(vas), dtype=np.int64), vas)
    else:
        for va, mapping in zip(vas.tolist(), mappings):
            tlb.access(va, mapping)
    return obs.metrics.snapshot()["histograms"]


def test_vectorized_walk_histograms_export_like_scalar():
    """Every exported field matches, ``max`` included: the fingerprint
    hashes only (count, sum, buckets), so it cannot catch a missing max."""
    batch = _walk_histograms(batched=True)
    scalar = _walk_histograms(batched=False)
    assert batch == scalar
    assert scalar["tlb_walk_cycles{size=4KB}"]["max"] == pytest.approx(256.0)
