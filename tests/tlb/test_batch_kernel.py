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


def _randomized_sweep():
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


def _zipf_sweep():
    rng = np.random.default_rng(77)
    for _ in range(60):
        ways = int(rng.integers(1, 9))
        sets = int(rng.choice([1, 2, 4, 16]))
        n = int(rng.integers(500, 4000))
        hot = rng.integers(0, 4, size=n)
        rare = rng.integers(0, 10000, size=n)
        keys = np.where(rng.random(n) < 0.02, rare, hot)
        run_case(keys, ways, sets)


@pytest.fixture
def vectorized_only(monkeypatch):
    """Every call takes the vectorized path, however short."""
    monkeypatch.setattr(batch_mod, "_SMALL_CALL", 0)


def test_randomized_streams_match_scalar():
    """Randomized geometry × universe × length sweep, cold and warm."""
    _randomized_sweep()


def test_randomized_streams_match_scalar_vectorized(vectorized_only):
    """The same sweep with short streams forced onto the vectorized path."""
    _randomized_sweep()


def test_zipf_like_heavy_duplication():
    """Mostly a handful of hot keys with a rare cold tail (the bench shape)."""
    _zipf_sweep()


def test_zipf_like_heavy_duplication_vectorized(vectorized_only):
    """The same sweep with every call on the vectorized path."""
    _zipf_sweep()


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
    # More than 64 keys in the set: the bitmask popcounts are only lower
    # bounds, so the two-key windows below stay open for the scan.
    keys = []
    for blk in range(70):
        keys.append(1000 + blk)
        keys.extend([0, 1] * 200)
        keys.append(1000 + blk)
    run_case(keys, 4, 1, warm_keys=[7, 8, 9])
    assert calls, "_resolve_far giving up never triggered the scalar replay"


@pytest.mark.parametrize("set_keys", [8, 9, 16, 17, 32, 33, 63, 64, 65, 2000])
@pytest.mark.parametrize("sets, ways", [(1, 4), (4, 4), (16, 12)])
def test_keys_per_set_around_the_mask_width(set_keys, sets, ways):
    """Up to 64 keys in a set the window popcounts are exact stack
    distances, on masks of 8, 16, 32 or 64 bits; above, lower bounds that
    settle misses and leave the rest to the exact scan.  Warm state
    included."""
    rng = np.random.default_rng(set_keys * 100 + sets * 10 + ways)
    target = 3  # every key in one set, the others touched lightly
    pool = target % sets + sets * np.arange(set_keys, dtype=np.int64)
    for n in (300, 4000):
        hot = pool[rng.zipf(1.3, n) % set_keys]
        spread = pool[rng.integers(0, set_keys, n)]
        keys = np.where(rng.random(n) < 0.5, hot, spread)
        other = rng.integers(0, 40 * sets, n // 10)
        keys = np.insert(keys, rng.integers(0, n, len(other)), other)
        warm_keys = rng.choice(pool, size=3 * ways).tolist()
        warm_keys += rng.integers(0, 40 * sets, 2 * sets * ways).tolist()
        run_case(keys, ways, sets, warm_keys=warm_keys)


def test_call_lengths_around_small_call():
    """The last length replayed through the dicts and the first one
    classified vectorized, cold and warm."""
    rng = np.random.default_rng(11)
    for n in (batch_mod._SMALL_CALL, batch_mod._SMALL_CALL + 1):
        for sets, ways in ((1, 4), (4, 4), (16, 12)):
            for universe in (8, 100, 5000):
                keys = rng.integers(0, universe, size=n)
                warm_keys = rng.integers(0, universe, size=3 * sets * ways)
                run_case(keys, ways, sets, warm_keys=warm_keys.tolist())


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("fill", ["below", "at"])
def test_power_of_two_window_lengths(k, fill):
    """Windows of 2**k - 1, 2**k and 2**k + 1 compressed positions, the
    sparse table's block edges, holding ``ways - 1`` (hit) or ``ways``
    (miss) distinct keys; warm state included."""
    ways = 4
    distinct = ways - 1 if fill == "below" else ways
    keys: list[int] = []
    for length in (2**k - 1, 2**k, 2**k + 1):
        marker = 500 + length
        keys.append(marker)
        # Cycle through `distinct` filler keys: no adjacent repeats, so the
        # window keeps exactly `length` compressed positions.
        keys.extend(10 + (t % distinct) for t in range(length))
        keys.append(marker)
    keys = keys * 2 + [1, 2, 3] * 100
    for sets in (1, 4):
        run_case(keys, ways, sets, warm_keys=[7, 500 + 2**k, 11, 12, 13])


def test_distinct_values_equals_np_unique():
    """Sorted distinct values and indices, as ``np.unique`` gives them,
    on both sides of the presence-array bound."""
    from repro.sim.batch import distinct_values

    rng = np.random.default_rng(5)
    bound = batch_mod._PRESENCE_SPAN
    cases = [np.zeros(0, dtype=np.int64), np.array([42], dtype=np.int64)]
    for n in (2, 17, 1000):
        for span in (bound * n - 1, bound * n, bound * n + 1, 1 << 40):
            lo = int(rng.integers(0, 1 << 45))
            values = lo + rng.integers(0, span, size=n)
            values[0], values[-1] = lo, lo + span - 1  # the span exactly
            cases.append(rng.permutation(values).astype(np.int64))
    for values in cases:
        uniq = distinct_values(values)
        np.testing.assert_array_equal(uniq, np.unique(values))
        assert uniq.dtype == values.dtype
        got, index = distinct_values(values, return_inverse=True)
        want, want_index = np.unique(values, return_inverse=True)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(index, want_index)
        np.testing.assert_array_equal(got[index], values)


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


class FiringRecorder:
    """A periodic task recording the hierarchy's fold state at each firing."""

    def __init__(self, tlb, interval_ns: float) -> None:
        self.tlb = tlb
        self.interval_ns = interval_ns
        self.records: list[tuple] = []

    def fire(self, now_ns: float) -> None:
        st = self.tlb.stats
        self.records.append((
            now_ns,
            st.l2_hits,
            st.walks,
            dict(st.walks_by_size),
            st.translation_cycles,
            st.walk_cycles,
            tuple((h.count, h.sum) for h in self.tlb._h_walk.values()),
        ))


def _fold_case(n_accesses: int, batched: bool, interval_ns: float | None):
    """One hierarchy call over a cold stream of base and mid pages.

    Returns the firing records (with a recorder every ``interval_ns``),
    the end clock and the L1 miss count.
    """
    from repro.config import SCALED_GEOMETRY, WalkConfig
    from repro.obs import Observability
    from repro.sim.batch import hierarchy_touch_batch
    from repro.tlb.hierarchy import TLBHierarchy
    from repro.vm.pagetable import PageTable

    g = SCALED_GEOMETRY
    obs = Observability()
    tlb = TLBHierarchy(WalkConfig(), g, obs=obs)
    table = PageTable(g)
    base = 0x7000_0000_0000
    mid = base + 64 * g.mid_size
    for i in range(4):
        table.map_page(mid + i * g.mid_size, 1, 4096 + i * g.frames_per_mid)
    for i in range(600):
        table.map_page(base + i * g.base_size, 0, i)
    rng = np.random.default_rng(3)
    vas = np.where(
        rng.random(n_accesses) < 0.8,
        base + rng.integers(0, 600 * g.base_size, n_accesses),
        mid + rng.integers(0, 4 * g.mid_size, n_accesses),
    ).astype(np.int64)
    recorder = None
    if interval_ns is not None:
        recorder = FiringRecorder(tlb, interval_ns)
        obs.clock.attach(recorder)
        obs.clock.advance(1.0)  # the first firing, before the call
    mappings = [table.translate(va) for va in vas.tolist()]
    if batched:
        levels = np.array([m.page_size for m in mappings], dtype=np.int64)
        hierarchy_touch_batch(tlb, levels, vas)
    else:
        for va, mapping in zip(vas.tolist(), mappings):
            tlb.access(va, mapping)
    misses = tlb.stats.accesses - tlb.stats.l1_hits
    records = None if recorder is None else recorder.records
    return records, obs.clock.now_ns, misses


@pytest.mark.parametrize("n_accesses, deadlines", [(3000, 6), (40, 3)])
def test_deadlines_inside_a_call_see_the_scalar_state(n_accesses, deadlines):
    """A task firing inside ``hierarchy_touch_batch`` records exactly what
    it records inside a scalar ``access`` loop, above and below the
    per-event break-even."""
    _, end_ns, _ = _fold_case(n_accesses, batched=False, interval_ns=None)
    interval = (end_ns - 1.0) / (deadlines + 0.5)
    batch, batch_end, batch_misses = _fold_case(n_accesses, True, interval)
    scalar, scalar_end, _ = _fold_case(n_accesses, False, interval)
    assert batch == scalar
    assert batch_end == scalar_end
    assert len(scalar) == 1 + deadlines  # the pre-call firing plus those inside
    above = batch_misses >= batch_mod._PER_EVENT_MISSES
    assert above == (n_accesses > 1000)


def test_fold_is_chosen_by_its_input(monkeypatch):
    """The vectorized fold runs unless the ``tlb`` subsystem is traced, a
    deadline falls among the charges, or misses are below the break-even;
    other trace subsystems do not matter."""
    from repro.config import SCALED_GEOMETRY, WalkConfig
    from repro.obs import Observability, SimClock
    from repro.tlb.hierarchy import TLBHierarchy

    calls = []  # the vectorized fold commits the clock with advance_to
    advance_to = SimClock.advance_to

    def counting(clock, now_ns):
        calls.append(now_ns)
        return advance_to(clock, now_ns)

    monkeypatch.setattr(SimClock, "advance_to", counting)
    g = SCALED_GEOMETRY
    n = batch_mod._PER_EVENT_MISSES

    def vectorized(misses: int, subsystems=(), interval_ns=None) -> bool:
        obs = Observability(trace_subsystems=subsystems)
        tlb = TLBHierarchy(WalkConfig(), g, obs=obs)
        if interval_ns is not None:
            obs.clock.attach(FiringRecorder(tlb, interval_ns))
            obs.clock.advance(1.0)
        vas = np.arange(misses, dtype=np.int64) * g.base_size
        calls.clear()
        batch_mod.hierarchy_touch_batch(tlb, np.zeros(misses, np.int64), vas)
        return bool(calls)

    assert vectorized(n)
    assert not vectorized(n - 1)
    assert vectorized(n, subsystems=("span", "buddy", "telemetry"))
    assert not vectorized(n, subsystems=("tlb",))
    assert vectorized(n, interval_ns=1e9)  # the next deadline is far off
    assert not vectorized(n, interval_ns=10.0)  # it falls among the walks
