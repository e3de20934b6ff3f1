"""Virtual-address stream generators.

All generators return numpy int64 arrays of byte addresses.  They model the
locality classes the benchmarks exhibit:

* ``uniform`` — GUPS-style random updates: every access a fresh page.
* ``zipf`` — key-value-store skew: hot keys dominate, long cold tail.
* ``sequential`` — streaming scans (GAPBS top-down passes, CG row sweeps).
* ``strided`` — fixed-stride gathers (sparse matvec column accesses).
* ``pointer_chase`` — dependent random walks (B+tree descents, Canneal's
  netlist hops): like uniform in TLB terms but generated as a chain.
* ``mixture`` — weighted combination over labelled regions, for workloads
  with hot/cold structure (Graph500's hot frontier, Redis's stack).
"""

from __future__ import annotations

import math

import numpy as np

#: attempts per chunk of :func:`zipf_draws`: 128 KiB per temporary array.
#: 4.2M draws at a = 1.2 on a 2-vCPU AVX-512 Xeon took 0.25 s in chunks
#: of 8,192, 0.23 s of 16,384 and 0.32 s of 32,768 (best of 5)
_ZIPF_CHUNK = 1 << 14
#: ``np.power`` need not round like the libm ``pow`` numpy's Zipf sampler
#: calls (its float64 loop may be SIMD code); the largest gap seen is 1 ulp
#: (``tests/workloads/test_zipf_exact.py`` pins the margin).  A decision
#: whose inputs lie within this many ulps of its boundary is recomputed
#: with ``math.pow``, which is that libm ``pow``.
_POW_ULPS = 4
#: relative widening that covers ``_POW_ULPS`` ulps plus the half ulp the
#: widening multiply itself rounds away
_POW_SLACK = (_POW_ULPS + 1) * 2.0**-52
#: ``(double)INT64_MAX``: numpy rejects a draw above it
_INT64_CEIL = 9223372036854775808.0


def zipf_draws(rng: np.random.Generator, a: float, n: int) -> np.ndarray:
    """Exactly ``rng.zipf(a, n)``: the same values, the same generator after.

    numpy (>= 2) draws each value by rejection: two doubles ``U01, V``,
    ``U = U01 * Umin + (1 - U01)`` with ``Umin = pow(2**63, 1 - a)``,
    ``X = floor(pow(U, -1 / (a - 1)))`` rejected outside ``[1, 2**63]``,
    then accepted when ``V * X * (T - 1) / (b - 1) <= T / b`` with
    ``T = pow(1 + 1 / X, a - 1)`` and ``b = pow(2, a - 1)``; ``a >= 1025``
    returns 1 without drawing.  Here a chunk of attempts runs on arrays
    in the same IEEE operations, except that ``np.power`` stands in for
    ``pow``: every floor or accept decision it could flip by
    ``_POW_ULPS`` is recomputed with ``math.pow``.  Floating-point
    rounding is monotone, so the rest are decided as numpy decides them.
    The last chunk overdraws, so the generator is rewound to where that
    chunk began and redraws exactly the attempts used.
    """
    a = float(a)
    if not a > 1.0:  # also NaN
        raise ValueError(f"zipf alpha must be > 1, got {a}")
    out = np.empty(n, dtype=np.int64)
    if a >= 1025.0:
        out.fill(1)
        return out
    am1 = a - 1.0
    consts = (math.pow(_INT64_CEIL, -am1), -1.0 / am1, am1, math.pow(2.0, am1))
    bitgen = rng.bit_generator
    filled = 0
    while filled < n:
        need = n - filled
        m = min(_ZIPF_CHUNK, 2 * need + 16)
        state = bitgen.state
        draws = rng.random((m, 2))
        x, ok = _zipf_attempts(draws[:, 0], draws[:, 1], *consts)
        hits = np.flatnonzero(ok)
        if len(hits) < need:
            out[filled : filled + len(hits)] = x[hits]
            filled += len(hits)
            continue
        hits = hits[:need]
        out[filled:] = x[hits]
        used = int(hits[-1]) + 1
        if used < m:
            bitgen.state = state
            rng.random(2 * used)
        break
    return out


def _zipf_attempts(
    u01: np.ndarray, v: np.ndarray, umin: float, e: float, am1: float, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each attempt's ``X`` (as float64) and whether numpy accepts it."""
    bm1 = b - 1.0
    below, above = 1.0 - _POW_SLACK, 1.0 + _POW_SLACK
    with np.errstate(all="ignore"):
        u = u01 * umin + (1.0 - u01)
        p = np.power(u, e)
        x = np.floor(p)
        # libm's p lies in [p * below, p * above], so its floor in [lo, hi].
        lo = np.floor(p * below)
        recheck = (lo != np.floor(p * above)) & (lo <= _INT64_CEIL)
        ok = (x >= 1.0) & (x <= _INT64_CEIL)
        t = np.power(1.0 + 1.0 / x, am1)
        t_lo, t_hi = t * below, t * above
        vx = v * x
        accept = vx * (t_hi - 1.0) / bm1 <= t_lo / b
        reject = vx * (t_lo - 1.0) / bm1 > t_hi / b
    recheck |= ok & ~accept & ~reject
    ok &= accept
    for i in np.flatnonzero(recheck).tolist():
        x[i], ok[i] = _zipf_attempt(float(u[i]), float(v[i]), e, am1, b)
    return x, ok


def _zipf_attempt(
    u: float, v: float, e: float, am1: float, b: float
) -> tuple[float, bool]:
    """One attempt exactly as numpy's C loop computes it."""
    try:
        x = float(math.floor(math.pow(u, e)))
    except OverflowError:
        return math.inf, False
    if x > _INT64_CEIL or x < 1.0:
        return x, False
    t = math.pow(1.0 + 1.0 / x, am1)
    return x, v * x * (t - 1.0) / (b - 1.0) <= t / b


def uniform(rng: np.random.Generator, base: int, size: int, n: int) -> np.ndarray:
    """n addresses uniformly random in [base, base+size)."""
    if size <= 0 or n < 0:
        raise ValueError(f"bad uniform params size={size} n={n}")
    return base + rng.integers(0, size, n, dtype=np.int64)


def zipf(
    rng: np.random.Generator,
    base: int,
    size: int,
    n: int,
    alpha: float = 1.2,
    granule: int = 4096,
) -> np.ndarray:
    """n addresses with Zipf-distributed popularity over ``granule`` blocks.

    Block ranks are randomly permuted across the region so hot blocks are
    scattered (real key-value stores hash keys), which is what defeats
    naive hot-range heuristics.  Ranks come from :func:`zipf_draws`,
    which equals ``rng.zipf`` value for value.
    """
    blocks = max(1, size // granule)
    ranks = zipf_draws(rng, alpha, n) - 1
    ranks %= blocks
    perm = rng.permutation(blocks)
    # Built in place, so at most two stream-sized arrays are alive at once.
    addrs = perm[ranks]
    del ranks
    addrs *= granule
    addrs += rng.integers(0, granule, n, dtype=np.int64)
    addrs += base
    return addrs


def sequential(base: int, size: int, n: int, stride: int = 64) -> np.ndarray:
    """n addresses walking the region with ``stride``, wrapping around."""
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    idx = (np.arange(n, dtype=np.int64) * stride) % max(size, 1)
    return base + idx


def strided(
    rng: np.random.Generator, base: int, size: int, n: int, stride: int
) -> np.ndarray:
    """n addresses at random multiples of ``stride`` (sparse column gathers)."""
    slots = max(1, size // stride)
    return base + rng.integers(0, slots, n, dtype=np.int64) * stride


def pointer_chase(
    rng: np.random.Generator, base: int, size: int, n: int, node: int = 64
) -> np.ndarray:
    """n dependent accesses hopping between ``node``-sized slots."""
    slots = max(1, size // node)
    hops = rng.integers(0, slots, n, dtype=np.int64)
    return base + hops * node


def mixture(
    rng: np.random.Generator,
    parts: list[tuple[float, np.ndarray]],
    n: int,
) -> np.ndarray:
    """Interleave streams with given weights into one n-access stream.

    ``parts`` is [(weight, address_pool), ...]; each access draws its source
    stream by weight and consumes that stream round-robin.  Vectorized per
    part: the k accesses drawn from a part take ``pool[:k]`` in stream
    order (a view, no copy) or, when k exceeds the pool, the pool repeated.
    """
    weights = np.array([w for w, _ in parts], dtype=np.float64)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("mixture weights must be non-negative and sum > 0")
    weights = weights / weights.sum()
    choice = rng.choice(len(parts), size=n, p=weights)
    out = np.empty(n, dtype=np.int64)
    for c, (_, pool) in enumerate(parts):
        where = np.flatnonzero(choice == c)
        k = len(where)
        if not k:
            continue
        pool = np.asarray(pool)
        if k <= len(pool):
            out[where] = pool[:k]
        else:
            out[where] = pool[np.arange(k) % len(pool)]
    return out
