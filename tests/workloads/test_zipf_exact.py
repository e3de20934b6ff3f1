"""``zipf_draws`` is numpy's own ``Generator.zipf``, value for value.

Every Zipf stream the workloads draw comes from the vectorized replica in
:mod:`repro.workloads.access`; numpy's sampler is the oracle here.  Equal
means equal output *and* equal generator state afterwards, so every draw
that follows (permutations, offsets, the next stream) is unchanged too.
"""

import ast
import inspect
import math
import os

import numpy as np
import pytest

from repro.workloads import access
from repro.workloads.access import _POW_ULPS, _ZIPF_CHUNK, zipf_draws

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: the trees whose code draws Zipf streams
SCANNED = ("src", "benchmarks", "scripts")


def _scan_alphas() -> tuple[set[float], list[str]]:
    """Every exponent the code passes to ``zipf``, read from its source.

    Returns the literal ``alpha=`` arguments of ``zipf`` calls, the
    ``key_alpha`` class attributes those calls read through
    ``self.key_alpha``, and the default of :func:`access.zipf`; plus
    ``file:line`` of every ``alpha=`` argument that is neither.
    """
    default = inspect.signature(access.zipf).parameters["alpha"].default
    alphas, unresolved = {float(default)}, []
    for tree in SCANNED:
        for dirpath, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    module = ast.parse(f.read(), path)
                for node in ast.walk(module):
                    if (
                        isinstance(node, ast.Assign)
                        and any(
                            isinstance(t, ast.Name) and t.id == "key_alpha"
                            for t in node.targets
                        )
                        and isinstance(node.value, ast.Constant)
                    ):
                        alphas.add(float(node.value.value))
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    called = getattr(func, "attr", getattr(func, "id", None))
                    if called != "zipf":
                        continue
                    for kw in node.keywords:
                        if kw.arg != "alpha":
                            continue
                        if isinstance(kw.value, ast.Constant):
                            alphas.add(float(kw.value.value))
                        elif ast.unparse(kw.value) != "self.key_alpha":
                            unresolved.append(f"{path}:{node.lineno}")
    return alphas, unresolved


#: every exponent the workload models, experiments and benchmarks pass
REPO_ALPHAS = tuple(sorted(_scan_alphas()[0]))
#: plus the edges: near 1 (most attempts near 2**63), steep, and numpy's
#: short cut at 1025 and above, which draws nothing
EDGE_ALPHAS = (1.001, 2.5, 30.0, 1025.0, 1e6)
C = _ZIPF_CHUNK
SIZES = (0, 1, C - 1, C, C + 1, 3 * C + 7)
SEEDS = range(20)


def test_every_exponent_in_the_code_is_covered():
    """Each ``alpha`` passed to ``zipf`` is a literal or a ``key_alpha``,
    so :data:`REPO_ALPHAS` holds all of them."""
    alphas, unresolved = _scan_alphas()
    assert not unresolved
    # The key-value tiers (1.2, 1.25, 1.08) and the literal exponents.
    assert {1.08, 1.15, 1.2, 1.25, 1.35, 1.4, 1.5, 1.55, 1.6} <= alphas


def _same_state(a, b) -> bool:
    """Bit-generator states equal (MT19937's holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _assert_same_draws(oracle, replica, alpha, n):
    want = oracle.zipf(alpha, n)
    got = zipf_draws(replica, alpha, n)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want), (alpha, n)
    assert _same_state(
        replica.bit_generator.state, oracle.bit_generator.state
    ), (alpha, n)


@pytest.mark.parametrize("alpha", REPO_ALPHAS + EDGE_ALPHAS)
def test_equals_generator_zipf(alpha):
    for seed in SEEDS:
        oracle, replica = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in SIZES:
            _assert_same_draws(oracle, replica, alpha, n)


def test_primed_uint32_buffer_is_kept():
    for seed in SEEDS:
        oracle, replica = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (oracle, replica):
            rng.integers(0, 1 << 20, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1
        _assert_same_draws(oracle, replica, 1.2, C + 1)
        assert oracle.integers(0, 1 << 20, dtype=np.uint32) == replica.integers(
            0, 1 << 20, dtype=np.uint32
        )


def test_other_bit_generators():
    oracle = np.random.Generator(np.random.MT19937(3))
    replica = np.random.Generator(np.random.MT19937(3))
    for n in SIZES:
        _assert_same_draws(oracle, replica, 1.35, n)


def test_benchmark_sized_draw():
    oracle, replica = np.random.default_rng(42), np.random.default_rng(42)
    _assert_same_draws(oracle, replica, 1.2, 4_200_000)


@pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0, math.nan])
def test_alpha_at_or_below_one_raises(alpha):
    with pytest.raises(ValueError, match="alpha must be > 1"):
        zipf_draws(np.random.default_rng(0), alpha, 10)
    with pytest.raises(ValueError, match="alpha must be > 1"):
        access.zipf(np.random.default_rng(0), 0, 1 << 20, 10, alpha=alpha)


def test_zipf_stream_equals_the_generator_zipf_stream():
    """``access.zipf`` draws ranks, a permutation and offsets as before."""

    def oracle(rng, base, size, n, alpha, granule=4096):
        blocks = max(1, size // granule)
        ranks = rng.zipf(alpha, n).astype(np.int64) - 1
        ranks %= blocks
        perm = rng.permutation(blocks)
        offsets = rng.integers(0, granule, n, dtype=np.int64)
        return base + perm[ranks] * granule + offsets

    for alpha in REPO_ALPHAS:
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        got = access.zipf(a, 1 << 30, 32 << 20, 50_000, alpha=alpha)
        want = oracle(b, 1 << 30, 32 << 20, 50_000, alpha)
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in ulps between positive finite doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@pytest.mark.parametrize("alpha", REPO_ALPHAS)
def test_np_power_stays_within_the_ulp_margin(alpha):
    """The replica decides by ``np.power`` wherever ``_POW_ULPS`` of
    rounding cannot flip the result; that is exact only while ``np.power``
    stays that close to libm ``pow`` (``math.pow``) where it runs, for
    both exponents of the sampler on the inputs it feeds them."""
    am1 = alpha - 1.0
    e = -1.0 / am1
    umin = math.pow(9223372036854775808.0, -am1)
    u01 = np.random.default_rng(int(alpha * 100)).random(1_000_000)
    u = u01 * umin + (1.0 - u01)
    p = np.power(u, e)
    libm_p = np.array([math.pow(y, e) for y in u.tolist()])
    assert _ulps(p, libm_p).max() <= _POW_ULPS
    x = np.floor(libm_p)
    base = 1.0 + 1.0 / x[(x >= 1.0) & (x <= 9223372036854775808.0)]
    t = np.power(base, am1)
    libm_t = np.array([math.pow(y, am1) for y in base.tolist()])
    assert _ulps(t, libm_t).max() <= _POW_ULPS
