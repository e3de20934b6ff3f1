"""Vectorized batch simulation of the set-associative TLB hierarchy.

The scalar hot path (:meth:`repro.tlb.hierarchy.TLBHierarchy.access`) walks
one address at a time through per-set ordered dicts.  This module replays a
whole *segment* of the access stream — a run of addresses over which the
page table is static and no daemons fire — using the classical
reuse-distance characterization of LRU:

    an access hits a ``W``-way set iff its LRU stack distance (the number
    of distinct keys referenced in its set since the previous reference to
    the same key) is ``< W``.

Stack distance is a property of the reference string alone — in these TLBs
*every* access leaves its key most-recently-used (hits refresh, misses
insert) — so hit/miss classification needs no sequential cache state.  A
call of at most :data:`_SMALL_CALL` keys is replayed through the set dicts
(:func:`_replay_scalar`): there the steps below cost more in fixed numpy
overhead than the replay costs per key.  A larger call runs:

1. **Initial state as pseudo-accesses.**  Each touched set's resident keys
   are prepended in LRU→MRU order; a key resident at depth ``d`` then
   behaves exactly as if referenced ``d`` steps in the past (the standard
   warm-start construction).
2. **Set grouping.**  A stable argsort of the set indices, held in an
   unsigned dtype of at most 16 bits so that numpy radix-sorts them, makes
   each set's subsequence contiguous while preserving stream order within
   it.  A key fixes its set, so no later compare needs the set.
3. **Run compression.**  An access whose key equals the set's previous
   access has stack distance 0 — a guaranteed hit.  One shifted compare
   classifies and removes these; removal never changes any other access's
   distance, because a window between two references to ``k`` contains no
   other ``k`` (so every removed duplicate's representative survives in
   the window).
4. **Links.**  Dense key ids (:func:`distinct_values`) and one radix
   argsort of them give each compressed access the position of its
   previous same-key reference, and each key its last position.  A first
   reference is a compulsory miss; a re-reference whose window (the
   positions strictly between the two references) is shorter than ``W``
   holds fewer than ``W`` distinct keys — a guaranteed hit.
5. **Windows by range-OR.**  Each key gets one bit, its rank among the
   call's keys of its set mod the mask width (the narrowest of 8, 16, 32
   and 64 bits that holds the largest set).  A longer window is the OR of
   two overlapping power-of-two blocks of a sparse table of ORs over the
   compressed stream, so its popcount costs O(1).  The window lies inside
   its set's block and never holds its own key, so when the set has at
   most 64 keys (distinct bits) the popcount *is* the stack distance.
   Above 64 keys
   it is a lower bound: ``>= W`` is a certain miss, and the undecided rest
   get an exact first-occurrence count (:func:`_resolve_far`).  If that
   count's window volume would be pathological, the whole call falls back
   to the dict replay instead.
6. **State write-back.**  The final per-set LRU contents are, by the same
   every-access-ends-MRU property, the ``W`` keys of the set with the
   latest last references, LRU first.  The keys' last positions, taken in
   stream order, are already sorted by (set, last reference), so each
   set's dict is the tail of its block — byte-identical to a scalar
   replay's dicts.

The L2 structures see only the subsequence of accesses that missed L1 —
including the modeled aliasing of the shared L2, where 4KB and 2MB VPNs mix
as raw integers exactly as in the scalar path.

Beyond the TLB arrays, :func:`hierarchy_touch_batch` folds walk costs into
``TranslationStats``, the walk histograms and the :class:`SimClock`.
Float accumulation is not associative, so bulk sums would drift from the
scalar path; instead the per-event cost streams are folded with
``np.cumsum`` seeded with the accumulator's current value, which
reproduces the scalar path's left-to-right adds bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.config import FREQ_GHZ
from repro.tlb.tlb import SetAssocTLB

#: calls with fewer L1 misses fold them in the per-event loop of
#: :func:`_accumulate_misses`: below this count the vectorized fold's fixed
#: numpy cost exceeds the loop's cost per miss (break-even measured in
#: ``docs/performance.md``)
_PER_EVENT_MISSES = 48

#: calls of at most this many keys take the exact dict replay of
#: :func:`_replay_scalar`.  Break-even, measured on a 2-vCPU Xeon with
#: numpy 2.4 on warm zipf keys: the vectorized steps cost 110-220 us
#: whatever the length, the replay about 0.55 us a key (a 1-set 4-way
#: TLB: 16 keys 113 us vectorized against 10 us replayed, 256 keys 123
#: against 142 us, 1,024 keys 158 against 585 us), and the two cross
#: between 128 and 512 keys on (1, 4), (4, 4) and (16, 12) TLBs
_SMALL_CALL = 256

#: bits of one window mask: a set with at most this many keys in a call
#: gives each key its own bit, and popcounts are exact stack distances
_MASK_BITS = 64

#: a span of at most this many times the value count is marked in a
#: presence array by :func:`distinct_values` instead of sorted
_PRESENCE_SPAN = 4

#: per-call budget (scaled by stream length) of long-window elements the
#: vectorized first-occurrence counts may process; real streams stay far
#: below it — only adversarial overlap patterns exceed it, and those fall
#: back to an exact dict replay
_SCAN_BUDGET_PER_ELEMENT = 16


def _radix_dtype(bound: int):
    """Smallest unsigned dtype holding ``0 .. bound - 1`` in at most 16
    bits, which numpy's stable argsort radix-sorts; ``np.intp`` above."""
    if bound <= 1 << 8:
        return np.uint8
    if bound <= 1 << 16:
        return np.uint16
    return np.intp


def distinct_values(values: np.ndarray, return_inverse: bool = False):
    """Sorted distinct ``values`` and, optionally, each element's index
    into them: ``np.unique(values, return_inverse=...)`` without hashing.

    Since numpy 2.3, ``np.unique`` without return flags counts distinct
    values in a hash table, 5-21x slower on int64 page numbers than a
    sort (``docs/performance.md``).  A span of at most
    :data:`_PRESENCE_SPAN` × ``len(values)`` is marked in a presence
    array instead; a wider one is sorted (argsorted when indices are
    asked for) and compared with its neighbour.
    """
    n = len(values)
    if n == 0:
        uniq = values[:0].copy()
        return (uniq, np.zeros(0, dtype=np.intp)) if return_inverse else uniq
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    if span <= _PRESENCE_SPAN * n:
        offsets = values - lo
        present = np.zeros(span, dtype=bool)
        present[offsets] = True
        where = np.flatnonzero(present)
        uniq = (where + lo).astype(values.dtype, copy=False)
        if not return_inverse:
            return uniq
        index = np.empty(span, dtype=np.intp)
        index[where] = np.arange(len(where))
        return uniq, index[offsets]
    if not return_inverse:
        ordered = np.sort(values)
    else:
        order = np.argsort(values)
        ordered = values[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    uniq = ordered[first]
    if not return_inverse:
        return uniq
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return uniq, inverse


def lru_batch_lookup(tlb: SetAssocTLB, keys: np.ndarray) -> np.ndarray:
    """Replay ``keys`` (in access order) through ``tlb``; returns hit bools.

    Equivalent, counter-for-counter and state-for-state, to::

        hits = []
        for k in keys:
            hit = tlb.lookup(int(k))
            if not hit:
                tlb.insert(int(k))
            hits.append(hit)

    but, above :data:`_SMALL_CALL` keys, classified by the vectorized
    stack-distance scheme described in the module docstring and finished
    with a wholesale state write-back.
    """
    n = len(keys)
    if n <= _SMALL_CALL:
        return _replay_scalar(tlb, keys)
    nsets = tlb.sets
    ways = tlb.ways

    set_dtype = _radix_dtype(nsets)
    if nsets == 1:
        setids = None
        touched_sets = np.zeros(1, dtype=np.int64)
    else:
        setids = (keys % nsets).astype(set_dtype)
        touched_sets = np.flatnonzero(np.bincount(setids, minlength=nsets))

    # Pseudo-accesses encoding the initial per-set LRU state.
    pseudo_keys: list[int] = []
    pseudo_sets: list[int] = []
    for s in touched_sets.tolist():  # trd: ignore[TRD008] bounded by touched sets (TLB geometry), not stream length
        for k in tlb._sets[s]:  # trd: ignore[TRD008] at most `ways` resident entries per set
            pseudo_keys.append(k)
            pseudo_sets.append(s)
    n_pseudo = len(pseudo_keys)
    key_all = keys
    if n_pseudo:
        key_all = np.concatenate(
            [np.asarray(pseudo_keys, dtype=np.int64), keys]
        )

    # Step 2: group per set, stream order within each set (pseudos first).
    order = None
    skey = key_all
    if nsets > 1:
        set_all = setids
        if n_pseudo:
            set_all = np.concatenate(
                [np.asarray(pseudo_sets, dtype=set_dtype), setids]
            )
        order = np.argsort(set_all, kind="stable")
        skey = key_all[order]

    # Step 3: distance-0 duplicates are hits; the rest form the
    # compressed stream.
    m = len(skey)
    fresh = np.empty(m, dtype=bool)
    fresh[0] = True
    np.not_equal(skey[1:], skey[:-1], out=fresh[1:])
    cpos = np.flatnonzero(fresh)
    ckey = skey[cpos]
    mc = len(ckey)

    # Step 4: links.  One radix argsort of dense key ids lists each key's
    # references in stream order.
    uniq, dense = distinct_values(ckey, return_inverse=True)
    nkeys = len(uniq)
    by_key = np.argsort(dense.astype(_radix_dtype(nkeys)), kind="stable")
    key_counts = np.bincount(dense, minlength=nkeys)
    key_ends = np.cumsum(key_counts)
    prev = np.empty(mc, dtype=np.intp)
    prev[by_key[1:]] = by_key[:-1]
    prev[by_key[key_ends - key_counts]] = -1

    if nsets == 1:
        key_sets = np.zeros(nkeys, dtype=set_dtype)
    else:
        key_sets = (uniq % nsets).astype(set_dtype)
    set_sizes = np.bincount(key_sets, minlength=nsets)

    # Step 5: a first reference misses.  A re-reference whose window is
    # shorter than `ways` holds fewer than `ways` keys and hits; a longer
    # window's keys are counted by bitmask.
    chit = np.zeros(mc, dtype=bool)
    q = np.flatnonzero(prev >= 0)
    lo = prev[q] + 1
    window = q - lo  # at least 1: compression removed repeats
    hit = window < ways
    far = np.flatnonzero(~hit)
    if len(far):
        q_far, lo_far = q[far], lo[far]
        distinct = _window_popcounts(
            dense, key_sets, set_sizes, q_far, lo_far, window[far]
        )
        far_hit = distinct < ways
        if set_sizes.max() > _MASK_BITS:
            # Lower bounds: a count below `ways` is certain only in a set
            # whose keys all have their own bit; the scan counts the rest.
            exact = (set_sizes <= _MASK_BITS)[key_sets][dense[q_far]]
            open_q = far_hit & ~exact
            if open_q.any() and not _resolve_far(
                chit, prev, q_far[open_q], lo_far[open_q], ways
            ):
                # Pathological window volume: exact dict replay (rare).
                return _replay_scalar(tlb, keys)
            far_hit &= exact
        hit[far] = far_hit
    chit[q[hit]] = True

    # Back to stream order: duplicates hit, compressed accesses as
    # classified.
    grouped_hit = ~fresh
    grouped_hit[cpos] = chit
    if order is None:
        hits = grouped_hit[n_pseudo:]
    else:
        hits_all = np.empty(m, dtype=bool)
        hits_all[order] = grouped_hit
        hits = hits_all[n_pseudo:]

    hit_count = int(np.count_nonzero(hits))
    tlb.hits += hit_count
    tlb.misses += n - hit_count

    # Step 6: each key's last position, in stream order.
    last = np.sort(by_key[key_ends - 1])
    _write_back_state(tlb, ckey[last], set_sizes, touched_sets)
    return hits


def _mask_dtype(widest: int):
    """Narrowest unsigned dtype with a bit for each key of the largest set
    (``widest`` keys): fewer bytes to OR and to touch.  ``np.uint64``,
    :data:`_MASK_BITS` bits, when no dtype has enough."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if widest <= np.iinfo(dtype).bits:
            return dtype
    return np.uint64


def _window_popcounts(dense, key_sets, set_sizes, q, lo, window):
    """Distinct-key count of each window ``lo .. q - 1`` by bitmask: exact
    in a set of at most :data:`_MASK_BITS` keys, a lower bound above.

    A key's bit is its rank among the call's keys of its set, mod the
    mask width: the narrowest unsigned width that holds the largest set's
    keys, :data:`_MASK_BITS` at most.  Row ``k`` of the sparse table ORs
    the bits of the ``2**k`` compressed positions from each column on; a
    window of length ``w`` with ``2**k <= w < 2**(k + 1)`` is the OR of
    the row-``k`` blocks starting at ``lo`` and ending at ``q - 1``.  Rows
    go up to the longest window only.
    """
    if len(set_sizes) == 1:
        rank = np.arange(len(key_sets))
    else:
        by_set = np.argsort(key_sets, kind="stable")
        set_start = np.cumsum(set_sizes) - set_sizes
        rank = np.empty(len(key_sets), dtype=np.intp)
        rank[by_set] = np.arange(len(key_sets)) - set_start[key_sets[by_set]]
    mask = _mask_dtype(int(set_sizes.max()))
    key_bits = np.left_shift(mask(1), (rank % np.iinfo(mask).bits).astype(mask))
    mc = len(dense)
    row = np.frexp(window.astype(np.float64))[1] - 1  # floor(log2(window))
    top = int(row.max())
    table = np.empty((top + 1, mc), dtype=mask)
    np.take(key_bits, dense, out=table[0])
    for k in range(1, top + 1):
        half = 1 << (k - 1)
        np.bitwise_or(
            table[k - 1, : mc - half], table[k - 1, half:],
            out=table[k, : mc - half],
        )
    flat = table.reshape(-1)
    start = row * np.intp(mc)  # int64: row holds int32 exponents
    return np.bitwise_count(flat[start + lo] | flat[start + q - (1 << row)])


def _resolve_far(chit, prev, q, lo, ways) -> bool:
    """Exact stack distances of the windows the bitmasks left open.

    ``q`` are compressed positions, ``lo`` the first positions of their
    windows (one past the previous same-key reference) and ``prev`` the
    links of the whole compressed stream; hits are marked in ``chit``.
    Returns False when the aggregate window volume is too large to count
    economically (caller falls back to a dict replay).
    """
    # A position j holds its window's *first* occurrence of its key
    # exactly when its own previous reference sits at or before the window
    # start (prev[j] < lo); each distinct key in the window contributes
    # exactly one such position, so the stack distance of a query
    # (p -> i) is a straight count over prev[p+1:i].  (The window cannot
    # contain the query's own key — lo - 1 is its *latest* previous
    # reference — and never mixes sets: the array is set-sorted and both
    # endpoints are in the query's set block.)
    #
    # The count is monotone in the window prefix, so all queries advance
    # together in early-exit rounds: one gather per round covers the next
    # `chunk` elements of every still-unresolved window, a query drops out
    # as soon as it reaches `ways` first-occurrences (miss) or runs out of
    # window (hit), and the chunk doubles each round.  The aggregate
    # gathered volume is budgeted so adversarial overlap patterns cannot
    # go quadratic (beyond the budget: exact dict replay).
    mc = len(prev)
    budget = max(5_000_000, _SCAN_BUDGET_PER_ELEMENT * mc)
    hi = q
    counts = np.zeros(len(lo), dtype=np.int64)
    start = 0
    chunk = max(8, 2 * ways)
    while True:
        idx = lo[:, None] + np.arange(start, start + chunk)
        valid = idx < hi[:, None]
        np.clip(idx, 0, mc - 1, out=idx)
        counts += ((prev[idx] < lo[:, None]) & valid).sum(axis=1)
        budget -= len(lo) * chunk
        exhausted = lo + (start + chunk) >= hi
        missed = counts >= ways
        chit[hi[exhausted & ~missed]] = True
        keep = ~exhausted & ~missed
        if not keep.any():
            return True
        if budget < 0:
            return False
        lo = lo[keep]
        hi = hi[keep]
        counts = counts[keep]
        start += chunk
        chunk = min(chunk * 2, 65536)


# trd: scalar-fallback[equivalence-gated slow path; small calls, and calls whose far-window volume exceeds the scan budget]
def _replay_scalar(tlb: SetAssocTLB, keys: np.ndarray) -> np.ndarray:
    """Exact dict replay — the guaranteed-correct path for small calls."""
    hits = np.empty(len(keys), dtype=bool)
    ways = tlb.ways
    sets_list = tlb._sets
    nsets = tlb.sets
    h = mcount = 0
    for i, k in enumerate(keys.tolist()):
        d = sets_list[k % nsets]
        if k in d:
            del d[k]
            d[k] = None
            hits[i] = True
            h += 1
        else:
            if len(d) >= ways:
                del d[next(iter(d))]
            d[k] = None
            hits[i] = False
            mcount += 1
    tlb.hits += h
    tlb.misses += mcount
    return hits


# trd: scalar-fallback[one dict per touched set, at most `ways` keys each: bounded by TLB geometry, not stream length]
def _write_back_state(
    tlb: SetAssocTLB,
    last_keys: np.ndarray,
    set_sizes: np.ndarray,
    touched_sets: np.ndarray,
) -> None:
    """Rebuild each touched set's dict: its ``ways`` keys with the latest
    last references, in last-reference order (LRU first) — exactly the
    scalar end state.

    ``last_keys`` holds every key of the call (initial-state pseudo
    entries included) at its last position in the set-sorted stream, in
    stream order: sets ascending, each set's keys by last reference.
    ``set_sizes`` counts each set's keys, so a set's block ends at the
    running total.
    """
    ways = tlb.ways
    ends = np.cumsum(set_sizes)[touched_sets]
    starts = np.maximum(ends - set_sizes[touched_sets], ends - ways)
    for s, lo, hi in zip(
        touched_sets.tolist(), starts.tolist(), ends.tolist()
    ):
        tlb._sets[s] = dict.fromkeys(last_keys[lo:hi].tolist())


def hierarchy_touch_batch(
    hierarchy,
    levels: np.ndarray,
    vas: np.ndarray,
    keys: np.ndarray | None = None,
) -> None:
    """Batched equivalent of per-access ``hierarchy.access(va, mapping)``.

    ``levels`` holds each access's TLB level (geometry level index) and
    ``keys`` its walk key into ``hierarchy.walk_table``; a native walk's
    key is its level, the default.  The caller guarantees the page table
    is static across the batch and has already set the mappings'
    accessed bits.  All counters — per-structure
    hits/misses, :class:`TranslationStats`, walk histograms,
    traced walk events and :class:`SimClock` advancement — end up exactly
    as a scalar replay would leave them, including float accumulation
    order (cost-bearing events are folded in stream order).
    """
    n = len(vas)
    if n == 0:
        return
    stats = hierarchy.stats
    stats.accesses += n

    # L1: one structure per geometry level, keyed by level-granular VPN.
    n_levels = hierarchy.n_levels
    vpns = np.empty(n, dtype=np.int64)
    l1_hit = np.zeros(n, dtype=bool)
    for size in range(n_levels):
        idx = np.flatnonzero(levels == size)
        if len(idx) == 0:
            continue
        vp = vas[idx] >> hierarchy._shifts[size]
        vpns[idx] = vp
        l1_hit[idx] = lru_batch_lookup(hierarchy.l1[size], vp)
    stats.l1_hits += int(l1_hit.sum())

    miss_idx = np.flatnonzero(~l1_hit)
    if len(miss_idx) == 0:
        return

    # L2: group the L1-miss subsequence by target structure.  Sizes that
    # share a structure (4KB + 2MB in the shared L2) interleave by stream
    # position with raw VPN keys — the scalar path's modeled aliasing.
    miss_sizes = levels[miss_idx]
    l2_hit = np.zeros(len(miss_idx), dtype=bool)
    # Structures in order of their first level, as built once per
    # hierarchy: shared L2s dedupe, and the order is deterministic.
    miss_structs = hierarchy._l2_index_of_level[miss_sizes]
    for index, l2 in enumerate(hierarchy._l2_structs):
        rows = np.flatnonzero(miss_structs == index)
        if len(rows) == 0:
            continue
        l2_hit[rows] = lru_batch_lookup(l2, vpns[miss_idx[rows]])

    miss_keys = miss_sizes if keys is None else keys[miss_idx]
    _accumulate_misses(
        hierarchy, miss_idx, miss_sizes, miss_keys, l2_hit, vpns
    )


def _seeded_total(initial: float, adds: np.ndarray) -> float:
    """``initial`` plus ``adds`` folded left-to-right, bit-exact.

    ``np.cumsum`` computes each prefix with one sequential float64 add, so
    seeding it with the accumulator's current value reproduces a scalar
    ``for v in adds: acc += v`` loop exactly.
    """
    if len(adds) == 0:
        return initial
    return float(np.cumsum(np.concatenate(([initial], adds)))[-1])


def _accumulate_misses(
    hierarchy, miss_idx, miss_sizes, miss_keys, l2_hit, vpns
) -> None:
    """Fold L1-miss costs into stats/clock/histograms in stream order.

    A walk costs ``hierarchy.walk_table[key]`` cycles and charges the clock
    that plus ``hierarchy.walk_charge``; it counts under its TLB level.
    The fold is chosen by its input.  The vectorized fold adds integer
    counters in bulk and folds each float accumulator's per-event cost
    stream with seeded ``np.cumsum`` (see :func:`_seeded_total`),
    preserving the scalar path's accumulation order bit-for-bit, and
    commits the clock with one ``advance_to``.  The per-event loop runs
    instead when

    * the ``tlb`` trace subsystem is on: it emits one event per walk;
    * the charges reach the clock's ``next_due_ns``: a periodic task
      fires between two of them, where the scalar path fires it;
    * there are fewer than :data:`_PER_EVENT_MISSES` misses: the loop
      is cheaper there.
    """
    stats = hierarchy.stats
    clock = hierarchy._clock
    h_walk = hierarchy._h_walk
    tracer = hierarchy._tracer
    trace = tracer.is_enabled("tlb")
    l2c = float(hierarchy.walk_config.l2_tlb_hit_cycles)
    charge = hierarchy.walk_charge
    table = hierarchy.walk_table
    n_levels = hierarchy.n_levels
    vectorized = not trace and len(l2_hit) >= _PER_EVENT_MISSES
    if vectorized:
        miss_cycles = np.array(table)[miss_keys]
        tc_adds = np.where(l2_hit, l2c, miss_cycles + l2c)
        clock_adds = (
            tc_adds
            if charge == l2c
            else np.where(l2_hit, l2c, miss_cycles + charge)
        )
        end_ns = _seeded_total(clock.now_ns, clock_adds / FREQ_GHZ)
        vectorized = end_ns < clock.next_due_ns
    if vectorized:
        walk_mask = ~l2_hit
        walk_sizes = miss_sizes[walk_mask]
        n_l2_hits = len(l2_hit) - len(walk_sizes)
        stats.l2_hits += n_l2_hits
        stats.walks += len(walk_sizes)
        size_counts = np.bincount(walk_sizes, minlength=n_levels)
        for s in range(n_levels):
            stats.walks_by_size[s] += int(size_counts[s])
        walk_adds = miss_cycles[walk_mask]
        stats.translation_cycles = _seeded_total(
            stats.translation_cycles, tc_adds
        )
        stats.walk_cycles = _seeded_total(stats.walk_cycles, walk_adds)
        clock.advance_to(end_ns)
        for s in range(n_levels):
            k = int(size_counts[s])
            if not k:
                continue
            # One level may see several walk values (a nested 4KB entry
            # comes from any (guest, host) pair with a 4KB side).
            h = h_walk[s]
            values = walk_adds[walk_sizes == s]
            buckets = np.bincount(
                np.searchsorted(h.bounds, values, side="left"),
                minlength=len(h.bucket_counts),
            )
            h.bucket_counts[:] = (buckets + h.bucket_counts).tolist()
            h.count += k
            h.sum = _seeded_total(h.sum, values)
            top = float(values.max())
            if h.max is None or top > h.max:
                h.max = top
        return

    walks_by_size = stats.walks_by_size
    miss_vpns = vpns[miss_idx]
    key_levels = np.zeros(len(table), dtype=np.int64)
    key_levels[miss_keys] = miss_sizes  # a walk key fixes its TLB level
    level_of = key_levels.tolist()
    for k, (key, hit2) in enumerate(  # trd: ignore[TRD008] per-event fold: tlb tracing, a deadline among the charges, or fewer misses than _PER_EVENT_MISSES
        zip(miss_keys.tolist(), l2_hit.tolist())
    ):
        if hit2:
            stats.l2_hits += 1
            stats.translation_cycles += l2c
            clock.advance(l2c / FREQ_GHZ)
            continue
        size = level_of[key]
        cycles = table[key]
        stats.walks += 1
        walks_by_size[size] += 1
        stats.walk_cycles += cycles
        stats.translation_cycles += cycles + l2c
        clock.advance((cycles + charge) / FREQ_GHZ)
        h_walk[size].observe(cycles)
        if trace:
            tracer.emit(
                "tlb",
                "walk",
                vpn=int(miss_vpns[k]),
                size=hierarchy._labels[size],
                cycles=cycles,
            )
