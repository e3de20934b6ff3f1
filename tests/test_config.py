"""Tests for the configuration layer."""

from dataclasses import fields, replace

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.config import (
    SCALE_FACTOR,
    SCALED_GEOMETRY,
    X86_GEOMETRY,
    CostModel,
    MachineConfig,
    PageGeometry,
    PageLevel,
    TLBConfig,
    WalkConfig,
    default_machine,
)
from repro.geometries import GEOMETRY_PRESETS

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)


class TestPageGeometry:
    def test_x86_sizes(self):
        assert X86_GEOMETRY.base_size == 4096
        assert X86_GEOMETRY.mid_size == 2 << 20
        assert X86_GEOMETRY.large_size == 1 << 30
        assert X86_GEOMETRY.mids_per_large == 512

    def test_scale_factor(self):
        assert SCALE_FACTOR == X86_GEOMETRY.large_size // SCALED_GEOMETRY.large_size

    def test_validation(self):
        with pytest.raises(ValueError):
            PageGeometry(12, 9, 9)  # mid == large
        with pytest.raises(ValueError):
            PageGeometry(12, 0, 5)
        with pytest.raises(ValueError):
            PageGeometry(0, 4, 8)

    @given(
        st.integers(10, 14),
        st.integers(1, 8),
        st.integers(9, 20),
    )
    def test_alignment_laws(self, base_shift, mid_order, large_order):
        if mid_order >= large_order:
            return
        g = PageGeometry(base_shift, mid_order, large_order)
        for size in (BASE, MID, LARGE):
            nbytes = g.bytes_for(size)
            for addr in (0, nbytes - 1, nbytes, 3 * nbytes + 17):
                down = g.align_down(addr, size)
                up = g.align_up(addr, size)
                assert down <= addr <= up
                assert down % nbytes == 0 and up % nbytes == 0
                assert up - down in (0, nbytes)
                assert g.is_aligned(down, size)

    def test_frames_for_consistency(self):
        g = SCALED_GEOMETRY
        assert g.frames_for(BASE) == 1
        assert g.frames_for(MID) * g.mids_per_large == g.frames_for(
            LARGE
        )


    def test_cached_arithmetic_is_invisible(self):
        """Per-level tuples are plain attributes: equality, hashing, repr
        and asdict see only the declared fields, and a geometry built
        another way still compares equal."""
        import dataclasses

        rebuilt = PageGeometry(
            base_shift=SCALED_GEOMETRY.base_shift, levels=SCALED_GEOMETRY.levels,
            l2_groups=SCALED_GEOMETRY.l2_groups,
        )
        assert rebuilt == SCALED_GEOMETRY
        assert hash(rebuilt) == hash(SCALED_GEOMETRY)
        fields = {f.name for f in dataclasses.fields(PageGeometry)}
        assert set(dataclasses.asdict(SCALED_GEOMETRY)) == fields
        assert "_bytes" not in repr(SCALED_GEOMETRY)
        assert "_leaf_probs" not in repr(SCALED_GEOMETRY)
        g = dataclasses.replace(SCALED_GEOMETRY, base_shift=13)
        assert g.bytes_for(LARGE) == 2 * SCALED_GEOMETRY.bytes_for(LARGE)
        assert g.all_levels == (0, 1, 2) and g.levels_desc == (2, 1, 0)
        assert g.levels_skipped_for(LARGE) == 2
        assert g.leaf_cached_prob_for(LARGE) == 0.85
        for level in g.all_levels:
            assert g.frames_for(level) == 1 << g.levels[level].order
            assert g.align_down(g.bytes_for(level) + 5, level) == g.bytes_for(level)


class TestWalkFacts:
    def test_undeclared_facts_default_by_level_index(self):
        g = PageGeometry(
            base_shift=12,
            levels=tuple(
                PageLevel(name=f"l{i}", label=f"L{i}", order=2 * i, promotable=i > 0)
                for i in range(4)
            ),
        )
        assert [g.levels_skipped_for(s) for s in g.all_levels] == [0, 1, 2, 3]
        assert [g.leaf_cached_prob_for(s) for s in g.all_levels] == [
            0.0, 0.60, 0.85, 0.85,
        ]

    def test_declared_facts_win(self):
        napot = GEOMETRY_PRESETS["sv-napot"].geometry
        assert [napot.levels_skipped_for(s) for s in napot.all_levels] == [
            0, 0, 1, 2,
        ]
        assert [napot.leaf_cached_prob_for(s) for s in napot.all_levels] == [
            0.0, 0.0, 0.60, 0.85,
        ]


class TestWalkConfig:
    def test_holds_machine_parameters_only(self):
        assert [f.name for f in fields(WalkConfig)] == [
            "levels_base", "mem_access_cycles", "pwc_hit_rate",
            "nested_pwc_hit_rate", "l2_tlb_hit_cycles",
        ]

    def test_five_level_counts(self):
        g = SCALED_GEOMETRY
        uncached = replace(
            g, levels=tuple(replace(lvl, leaf_cached_prob=0.0) for lvl in g.levels)
        )
        w = WalkConfig(
            levels_base=5, mem_access_cycles=1, pwc_hit_rate=0.0,
            nested_pwc_hit_rate=0.0,
        )
        assert w.depths(g) == (5, 4, 3)
        assert w.native_table(uncached)[BASE] == 5
        assert w.nested_table(uncached)[BASE * g.n_levels + BASE] == 35

    def test_leaf_cached_prob_per_size(self):
        g = SCALED_GEOMETRY
        assert g.leaf_cached_prob_for(BASE) == 0.0
        assert g.leaf_cached_prob_for(MID) < g.leaf_cached_prob_for(LARGE)


class TestMachineConfig:
    def test_rejects_partial_regions(self):
        with pytest.raises(ValueError):
            MachineConfig(
                geometry=SCALED_GEOMETRY,
                total_frames=SCALED_GEOMETRY.frames_per_large + 1,
            )

    def test_default_machine_sizes(self):
        m = default_machine(8)
        assert m.n_large_regions == 8
        assert m.total_bytes == 8 * SCALED_GEOMETRY.large_size

    def test_default_machine_uses_scaled_tlb_and_cost(self):
        m = default_machine(8)
        # The scaled shapes: mid pages get an L2 group of their own.
        assert m.geometry.levels[1].tlb.l2 == "mid"
        assert dict(m.geometry.l2_groups)["mid"] == TLBConfig(192, 12)
        # Scaled cost model: zeroing a scaled large page costs real-1GB time.
        assert m.cost.zero_ns(m.geometry.large_size) == pytest.approx(
            CostModel().zero_ns(X86_GEOMETRY.large_size)
        )

    def test_x86_machine_keeps_real_shapes(self):
        m = default_machine(4, X86_GEOMETRY)
        # Skylake: 4KB and 2MB share the 1536-entry L2.
        assert [lvl.tlb.l2 for lvl in m.geometry.levels] == [
            "shared", "shared", "large"
        ]
        assert dict(m.geometry.l2_groups)["shared"] == TLBConfig(1536, 12)
        assert m.cost.zero_bandwidth_bytes_per_ns == pytest.approx(2.6)

    def test_walk_is_kept_as_given(self):
        napot = GEOMETRY_PRESETS["sv-napot"].geometry
        m = MachineConfig(geometry=napot, total_frames=napot.frames_per_large)
        assert m.walk == WalkConfig()

    def test_scaled_copy(self):
        m = default_machine(8)
        m2 = m.scaled(16 * SCALED_GEOMETRY.frames_per_large)
        assert m2.n_large_regions == 16
        assert m2.geometry == m.geometry
