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
insert) — so hit/miss classification needs no sequential cache state:

1. **Initial state as pseudo-accesses.**  Each touched set's resident keys
   are prepended in LRU→MRU order; a key resident at depth ``d`` then
   behaves exactly as if referenced ``d`` steps in the past (the standard
   warm-start construction).
2. **Set grouping.**  A stable sort by set index makes each set's
   subsequence contiguous while preserving stream order within it.
3. **Run compression.**  An access whose key equals the set's previous
   access has stack distance 0 — a guaranteed hit.  One shifted compare
   classifies and removes these; removal never changes any other access's
   distance, because a window between two references to ``k`` contains no
   other ``k`` (so every removed duplicate's representative survives in
   the window).
4. **Near-window matches.**  On the compressed stream, an access whose
   key reappears within ``W`` positions back (same set) has at most
   ``W - 1`` distinct keys in between — a guaranteed hit.  ``W - 1``
   shifted compares classify these exactly.
5. **Exact fallback for the rest.**  The few accesses left unresolved
   (previous reference more than ``W`` compressed positions back) get an
   explicit distinct count over their window via ``np.unique``; no
   previous reference at all is a compulsory miss.  If the total window
   volume would be pathological, the whole call falls back to an exact
   dict replay instead.
6. **State write-back.**  The final per-set LRU contents are, by the same
   every-access-ends-MRU property, the last ``W`` distinct keys of the
   set's reference string ordered by last reference — rebuilt wholesale
   with two lexsorts, byte-identical to a scalar replay's dicts.

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

#: per-call budget (scaled by stream length) of long-window elements the
#: vectorized first-occurrence counts may process; real streams stay far
#: below it — only adversarial overlap patterns exceed it, and those fall
#: back to an exact dict replay
_SCAN_BUDGET_PER_ELEMENT = 16


def lru_batch_lookup(tlb: SetAssocTLB, keys: np.ndarray) -> np.ndarray:
    """Replay ``keys`` (in access order) through ``tlb``; returns hit bools.

    Equivalent, counter-for-counter and state-for-state, to::

        hits = []
        for k in keys:
            hit = tlb.lookup(int(k))
            if not hit:
                tlb.insert(int(k))
            hits.append(hit)

    but classified by the vectorized stack-distance scheme described in
    the module docstring and finished with a wholesale state write-back.
    """
    n = len(keys)
    hits = np.zeros(n, dtype=bool)
    if n == 0:
        return hits
    nsets = tlb.sets
    ways = tlb.ways

    if nsets == 1:
        setids = np.zeros(n, dtype=np.int64)
        touched_sets = np.zeros(1, dtype=np.int64)
    else:
        setids = keys % nsets
        touched_sets = np.unique(setids)

    # Pseudo-accesses encoding the initial per-set LRU state.
    pseudo_keys: list[int] = []
    pseudo_sets: list[int] = []
    for s in touched_sets.tolist():  # trd: ignore[TRD008] bounded by touched sets (TLB geometry), not stream length
        for k in tlb._sets[s]:  # trd: ignore[TRD008] at most `ways` resident entries per set
            pseudo_keys.append(k)
            pseudo_sets.append(s)
    n_pseudo = len(pseudo_keys)

    if n_pseudo:
        key_all = np.concatenate(
            [np.asarray(pseudo_keys, dtype=np.int64), keys]
        )
        set_all = np.concatenate(
            [np.asarray(pseudo_sets, dtype=np.int64), setids]
        )
        orig_all = np.concatenate(
            [np.full(n_pseudo, -1, dtype=np.int64), np.arange(n, dtype=np.int64)]
        )
    else:
        key_all = keys
        set_all = setids
        orig_all = np.arange(n, dtype=np.int64)

    # Group per set, stream order within each set (pseudos sort first).
    if nsets == 1:
        skey, sset, sorig = key_all, set_all, orig_all
    else:
        order = np.argsort(set_all, kind="stable")
        skey = key_all[order]
        sset = set_all[order]
        sorig = orig_all[order]

    m = len(skey)
    # Step 3: distance-0 duplicates.
    dup = np.zeros(m, dtype=bool)
    if nsets == 1:
        dup[1:] = skey[1:] == skey[:-1]
    else:
        dup[1:] = (skey[1:] == skey[:-1]) & (sset[1:] == sset[:-1])
    dup_orig = sorig[dup]
    hits[dup_orig[dup_orig >= 0]] = True

    keep = ~dup
    ckey = skey[keep]
    cset = sset[keep]
    corig = sorig[keep]
    mc = len(ckey)

    # Step 4: previous reference within `ways` compressed positions.
    # (Offset 1 can never match — compression removed adjacent repeats.)
    chit = np.zeros(mc, dtype=bool)
    for d in range(2, ways + 1):
        if mc <= d:
            break
        if nsets == 1:
            chit[d:] |= ckey[d:] == ckey[:-d]
        else:
            chit[d:] |= (ckey[d:] == ckey[:-d]) & (cset[d:] == cset[:-d])
    near_orig = corig[chit]
    hits[near_orig[near_orig >= 0]] = True

    # Step 5: the unresolved tail needs exact distinct counts.
    open_idx = np.flatnonzero(~chit & (corig >= 0))
    if len(open_idx):
        if not _resolve_far(
            tlb, hits, ckey, cset, corig, open_idx, ways, nsets
        ):
            # Pathological window volume: exact dict replay (rare).
            return _replay_scalar(tlb, keys)

    hit_count = int(hits.sum())
    tlb.hits += hit_count
    tlb.misses += n - hit_count

    _write_back_state(tlb, ckey, cset, touched_sets, nsets)
    return hits


def _resolve_far(
    tlb, hits, ckey, cset, corig, open_idx, ways, nsets
) -> bool:
    """Classify accesses whose previous same-key reference is far behind.

    Returns False when the aggregate window volume is too large to count
    economically (caller falls back to a dict replay).
    """
    # Previous occurrence of each compressed element's (set, key): one
    # stable argsort of a fused (set, key) integer groups equal pairs in
    # stream order, so each group's adjacency gives the links.  (The fused
    # value only needs to be injective; fall back to a lexsort in the
    # astronomically-unlikely case it would overflow int64.)
    mc = len(ckey)
    if nsets == 1:
        g = np.argsort(ckey, kind="stable")
        gk = ckey[g]
        same = gk[1:] == gk[:-1]
    else:
        kspan = int(ckey.max()) + 1
        if kspan < (1 << 62) // nsets:
            fused = cset * kspan + ckey
            g = np.argsort(fused, kind="stable")
            gf = fused[g]
            same = gf[1:] == gf[:-1]
        else:  # pragma: no cover - VPNs never get this large
            g = np.lexsort((np.arange(mc), ckey, cset))
            same = (ckey[g][1:] == ckey[g][:-1]) & (cset[g][1:] == cset[g][:-1])
    prev = np.full(mc, -1, dtype=np.int64)
    prev[g[1:][same]] = g[:-1][same]

    op = prev[open_idx]
    have_prev = op >= 0
    # Compulsory misses (no previous reference, not resident): nothing to
    # mark — `hits` already defaults to False.
    q_idx = open_idx[have_prev]
    if len(q_idx) == 0:
        return True
    q_prev = op[have_prev]
    q_orig = corig[q_idx]

    # A position j holds its window's *first* occurrence of its key
    # exactly when its own previous reference sits at or before the window
    # start (prev[j] < lo); each distinct key in the window contributes
    # exactly one such position, so the stack distance of a query
    # (p -> i) is a straight count over prev[p+1:i].  (The window cannot
    # contain the query's own key — q_prev is the *latest* previous
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
    budget = max(5_000_000, _SCAN_BUDGET_PER_ELEMENT * mc)
    lo = q_prev + 1
    hi = q_idx
    orig = q_orig
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
        hits[orig[exhausted & ~missed]] = True
        keep = ~exhausted & ~missed
        if not keep.any():
            return True
        if budget < 0:
            return False
        lo = lo[keep]
        hi = hi[keep]
        orig = orig[keep]
        counts = counts[keep]
        start += chunk
        chunk = min(chunk * 2, 65536)


# trd: scalar-fallback[equivalence-gated slow path; chosen only when the chunk heuristic rejects the vectorized kernel]
def _replay_scalar(tlb: SetAssocTLB, keys: np.ndarray) -> np.ndarray:
    """Exact dict replay — the guaranteed-correct slow path."""
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


# trd: scalar-fallback[per-set backward tail scan bounded by ways*sets, not stream length]
def _write_back_state(
    tlb: SetAssocTLB,
    ckey: np.ndarray,
    cset: np.ndarray,
    touched_sets: np.ndarray,
    nsets: int,
) -> None:
    """Rebuild each touched set's dict: last ``ways`` distinct keys, in
    last-reference order (LRU first) — exactly the scalar end state.

    Works on the compressed, set-sorted stream (initial-state pseudo
    entries included): run compression only drops *adjacent* repeats, so
    the backward order of last references is unchanged.  Each set is
    scanned backward from its block's end in geometrically growing tail
    slices — the resident keys are almost always found within the first
    few dozen elements.
    """
    ways = tlb.ways
    if nsets == 1:
        blocks = [(int(touched_sets[0]), 0, len(ckey))]
    else:
        starts = np.searchsorted(cset, touched_sets, side="left")
        ends = np.searchsorted(cset, touched_sets, side="right")
        blocks = list(
            zip(touched_sets.tolist(), starts.tolist(), ends.tolist())
        )
    for s, lo, hi in blocks:
        resident: list[int] = []
        seen: set[int] = set()
        take = 8 * ways
        j = hi
        while j > lo and len(resident) < ways:
            nlo = max(lo, j - take)
            for k in reversed(ckey[nlo:j].tolist()):
                if k not in seen:
                    seen.add(k)
                    resident.append(k)
                    if len(resident) >= ways:
                        break
            j = nlo
            take *= 2
        resident.reverse()
        tlb._sets[s] = dict.fromkeys(resident)


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
    # Keyed on the structure itself (identity): shared L2s dedupe, and
    # iteration follows ascending level order deterministically.
    by_struct: dict[SetAssocTLB, list[int]] = {}
    for size in range(n_levels):
        l2 = hierarchy._l2_by_level[size]
        by_struct.setdefault(l2, []).append(size)
    for l2, struct_sizes in by_struct.items():
        sel = np.isin(miss_sizes, struct_sizes)
        rows = np.flatnonzero(sel)
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
    trace = tracer is not None and tracer.is_enabled("tlb")
    l2c = float(hierarchy.walk_config.l2_tlb_hit_cycles)
    charge = hierarchy.walk_charge
    table = hierarchy.walk_table
    n_levels = hierarchy.n_levels
    vectorized = not trace and len(l2_hit) >= _PER_EVENT_MISSES
    if vectorized:
        miss_cycles = np.array(table)[miss_keys]
        tc_adds = np.where(l2_hit, l2c, miss_cycles + l2c)
        if clock is not None:
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
        if clock is not None:
            clock.advance_to(end_ns)
        if h_walk is not None:
            for s in range(n_levels):
                k = int(size_counts[s])
                if not k:
                    continue
                # One level may see several walk values (a nested 4KB
                # entry comes from any (guest, host) pair with a 4KB side).
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
            if clock is not None:
                clock.advance(l2c / FREQ_GHZ)
            continue
        size = level_of[key]
        cycles = table[key]
        stats.walks += 1
        walks_by_size[size] += 1
        stats.walk_cycles += cycles
        stats.translation_cycles += cycles + l2c
        if clock is not None:
            clock.advance((cycles + charge) / FREQ_GHZ)
        if h_walk is not None:
            h_walk[size].observe(cycles)
            if trace:
                tracer.emit(
                    "tlb",
                    "walk",
                    vpn=int(miss_vpns[k]),
                    size=hierarchy._labels[size],
                    cycles=cycles,
                )
