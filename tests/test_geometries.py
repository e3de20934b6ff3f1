"""Geometry presets, random N-level geometries, and per-machine levels.

The N-level :class:`~repro.config.PageGeometry` redesign claims that no
derived quantity depends on there being exactly three tiers.  These tests
pin that down three ways: the built-in presets boot and run end-to-end,
randomly generated valid geometries satisfy the arithmetic invariants the
rest of the simulator leans on, and page-size levels are always read from
a machine's own geometry — there is no process-wide alias a later machine
could repoint.
"""

import json
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.config import (
    PageGeometry,
    PageLevel,
    TLBConfig,
    TLBSection,
    WalkConfig,
    default_machine,
)
from repro.geometries import (
    GEOMETRY_PRESETS,
    geometry_from_dict,
    resolve_geometry,
)
from repro.mem.buddy import BuddyAllocator


@st.composite
def geometries(draw):
    """A random valid N-level geometry (2..5 levels, embedded TLB specs)."""
    n = draw(st.integers(2, 5))
    base_shift = draw(st.integers(12, 14))
    orders = [0]
    for _ in range(n - 1):
        orders.append(orders[-1] + draw(st.integers(1, 4)))
    levels = tuple(
        PageLevel(
            name=f"l{i}",
            label=f"L{i}",
            order=order,
            promotable=i > 0,
            thp_target=(i == 1),
            tlb=TLBSection(TLBConfig(8, 4), "shared"),
            levels_skipped=draw(st.integers(0, min(i, 3))),
            leaf_cached_prob=(
                draw(st.floats(0.0, 1.0)) if i else 0.0
            ),
        )
        for i, order in enumerate(orders)
    )
    return PageGeometry(
        base_shift=base_shift,
        levels=levels,
        l2_groups=(("shared", TLBConfig(64, 4)),),
        name="random",
    )


class TestGeometryProperties:
    """Arithmetic invariants over random valid geometries."""

    @given(geometries())
    def test_shifts_and_sizes_strictly_increase(self, g):
        shifts = [g.shift_for(level) for level in g.all_levels]
        assert shifts == sorted(set(shifts))
        sizes = [g.bytes_for(level) for level in g.all_levels]
        assert sizes == sorted(set(sizes))
        assert g.order_for(0) == 0
        assert g.bytes_for(0) == g.base_size == 1 << g.base_shift

    @given(geometries())
    def test_frames_match_orders(self, g):
        for level in g.all_levels:
            assert g.frames_for(level) == 1 << g.order_for(level)
            assert g.bytes_for(level) == g.frames_for(level) * g.base_size
            assert g.shift_for(level) == g.base_shift + g.order_for(level)

    @given(geometries(), st.integers(0, (1 << 40) - 1))
    def test_alignment_invariants(self, g, addr):
        for level in g.all_levels:
            size = g.bytes_for(level)
            down = g.align_down(addr, level)
            up = g.align_up(addr, level)
            assert down % size == 0 and up % size == 0
            assert down <= addr < down + size
            assert up == (down if addr == down else down + size)
            assert g.align_down(down, level) == down
            assert g.align_up(down, level) == down

    @given(geometries())
    def test_level_orderings(self, g):
        assert g.all_levels == tuple(range(g.n_levels))
        assert g.levels_desc == tuple(reversed(g.all_levels))
        assert g.top_level == g.n_levels - 1
        assert 0 < g.thp_level <= g.top_level
        assert len(set(lvl.name for lvl in g.levels)) == g.n_levels

    @settings(deadline=None)
    @given(geometries())
    def test_buddy_split_coalesce_round_trip(self, g):
        """Alloc/free one block of every level's order restores the pool."""
        top_order = g.order_for(g.top_level)
        total = 2 << top_order
        buddy = BuddyAllocator(total, top_order)
        for level in g.all_levels:
            pfn = buddy.alloc(g.order_for(level))
            assert buddy.free_frames == total - g.frames_for(level)
            buddy.free(pfn)
            assert buddy.free_frames == total
            buddy.check_invariants()
        # Splitting all the way down and back up coalesces to max blocks.
        assert buddy.free_blocks(top_order) == 2


class TestPresets:
    def test_x86_preset_machine_is_the_default_machine(self):
        assert GEOMETRY_PRESETS["x86"].machine(16) == default_machine(16)

    def test_sv_napot_is_four_levels(self):
        g = GEOMETRY_PRESETS["sv-napot"].geometry
        assert g.n_levels == 4
        assert g.labels == ("4KB", "64KB", "2MB", "1GB")
        # NAPOT pages are PTEs: full-depth walks, never structure-cached.
        depths = GEOMETRY_PRESETS["sv-napot"].walk.depths(g)
        assert depths[1] == depths[0]
        assert g.leaf_cached_prob_for(1) == 0.0
        # True superpage levels do shorten the walk.
        assert depths[2] < depths[0]

    def test_arm16k_granule_shift(self):
        g = GEOMETRY_PRESETS["arm16k"].geometry
        assert g.base_shift == 14
        depths = GEOMETRY_PRESETS["arm16k"].walk.depths(g)
        # Contiguous-bit entries never shorten a walk; blocks do.
        assert depths[1] == depths[0]
        assert depths[2] < depths[0]

    @pytest.mark.parametrize("key", sorted(GEOMETRY_PRESETS))
    def test_preset_runs_end_to_end(self, key):
        from repro.core.trident import TridentPolicy
        from repro.sim.system import System

        preset = GEOMETRY_PRESETS[key]
        machine = preset.machine(16)
        system = System(machine, TridentPolicy, seed=5)
        process = system.create_process("smoke")
        va = system.sys_mmap(process, 4 << 20)
        rng = np.random.default_rng(42)
        addrs = (va + rng.integers(0, 4 << 20, size=5000)).astype(np.int64)
        result = system.touch_batch(process, addrs)
        g = machine.geometry
        assert set(result.walks_by_size) == set(g.all_levels)
        assert process.tlb.n_levels == g.n_levels
        assert result.accesses == 5000
        system.run_daemons(2_000_000)
        assert sum(
            process.pagetable.mapped_bytes(s) for s in g.all_levels
        ) == 4 << 20

    def test_resolve_geometry_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown geometry"):
            resolve_geometry("no-such-geometry")

    def test_repeat_runs_are_deterministic(self):
        from repro.core.trident import TridentPolicy
        from repro.sim.bench import state_fingerprint
        from repro.sim.system import System

        def run():
            preset = GEOMETRY_PRESETS["sv-napot"]
            system = System(preset.machine(16), TridentPolicy, seed=5)
            process = system.create_process("det")
            va = system.sys_mmap(process, 4 << 20)
            rng = np.random.default_rng(7)
            addrs = (va + rng.integers(0, 4 << 20, size=8000)).astype(np.int64)
            system.touch_batch(process, addrs)
            return state_fingerprint(system, process)

        assert run() == run()


class TestGeometryFromDict:
    SPEC = {
        "name": "toy",
        "base_shift": 12,
        "levels": [
            {"name": "base", "order": 0, "l1": {"entries": 16, "ways": 4}},
            {"name": "big", "order": 4, "l1": {"entries": 4, "ways": 4},
             "l2": "shared", "thp_target": True},
        ],
        "l2_groups": {"shared": {"entries": 64, "ways": 8}},
    }

    def test_valid_spec_loads(self):
        preset = geometry_from_dict(self.SPEC)
        g = preset.geometry
        assert g.n_levels == 2
        assert g.bytes_for(1) == 1 << 16
        assert g.thp_level == 1

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda s: s.pop("levels"), "missing 'levels'"),
            (lambda s: s.pop("base_shift"), "missing 'base_shift'"),
            (lambda s: s.update(levels=[s["levels"][0]]), "at least two"),
            (lambda s: s["levels"][1].pop("order"), "missing 'order'"),
        ],
    )
    def test_schema_violations_raise(self, mutate, match):
        import copy

        spec = copy.deepcopy(self.SPEC)
        mutate(spec)
        with pytest.raises(ValueError, match=match):
            geometry_from_dict(spec)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda s: s["levels"][0].update(l1=[16, 4]),
                "levels[0].l1 must be an object",
            ),
            (lambda s: s.update(l2_groups=[1, 2]), "'l2_groups' must be an object"),
            (lambda s: s.update(walk=[1]), "'walk' must be an object"),
            # TLB shapes come only from the file: no level may omit l1.
            (
                lambda s: [level.pop("l1") for level in s["levels"]],
                "levels[0] is missing 'l1'",
            ),
            (
                lambda s: s["levels"][0].update(l2=None),
                "level 'base' must name an L2 group, got None",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run", "describe"])
    def test_non_object_values_exit_two_with_one_line(
        self, mutate, message, command, tmp_path, capsys
    ):
        import copy

        spec = copy.deepcopy(self.SPEC)
        mutate(spec)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        if command == "run":
            argv = ["run", "GUPS", "Trident", "--geometry", str(path)]
        else:
            argv = ["geometry", command, str(path)]
        assert main(argv) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("error: ") and message in out[0]


    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda s: s.update(base_shfit=12),
                "geometry spec: unknown key 'base_shfit'",
            ),
            (
                lambda s: s["levels"][1].update(leaf_cache_prob=0.5),
                "levels[1]: unknown key 'leaf_cache_prob'",
            ),
            (
                lambda s: s["levels"][0]["l1"].update(way=4),
                "levels[0].l1: unknown key 'way'",
            ),
            (
                lambda s: s["l2_groups"]["shared"].update(entires=64),
                "l2_groups[shared]: unknown key 'entires'",
            ),
            (
                lambda s: s.update(walk={"l2_tlb_hit": 9}),
                "'walk': unknown key 'l2_tlb_hit'",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "describe"])
    def test_unknown_keys_exit_two_with_one_line(
        self, mutate, message, command, tmp_path, capsys
    ):
        """A misspelt key is an error naming it and where it is, never a
        silently kept default."""
        import copy

        spec = copy.deepcopy(self.SPEC)
        mutate(spec)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["geometry", command, str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("error: ") and message in out[0]

    @pytest.mark.parametrize("value", [None, "four", [4]])
    @pytest.mark.parametrize(
        "place, where",
        [
            (lambda s, v: s["levels"][1].update(order=v), "levels[1].order"),
            (
                lambda s, v: s["levels"][0]["l1"].update(entries=v),
                "levels[0].l1.entries",
            ),
            (lambda s, v: s.update(walk={"levels_base": v}), "walk.levels_base"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "describe"])
    def test_non_numbers_exit_two_with_one_line(
        self, place, where, value, command, tmp_path, capsys
    ):
        """A null, string or list where a number belongs is an error
        naming the key and where it is, never a traceback."""
        import copy

        spec = copy.deepcopy(self.SPEC)
        place(spec, value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["geometry", command, str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"error: {path}: {where} must be a number, got {json.dumps(value)}"
        ]

    def test_walk_reads_every_walk_config_field(self):
        walk = {
            "levels_base": 5,
            "mem_access_cycles": 100,
            "pwc_hit_rate": 0.5,
            "nested_pwc_hit_rate": 0.9,
            "l2_tlb_hit_cycles": 99,
        }
        preset = geometry_from_dict(dict(self.SPEC, walk=walk))
        assert preset.walk == WalkConfig(**walk)
        assert geometry_from_dict(self.SPEC).walk == WalkConfig()

    @pytest.mark.parametrize(
        "name", ["toy_geometry.json", *sorted(GEOMETRY_PRESETS)]
    )
    def test_shipped_geometries_still_load(self, name):
        if name.endswith(".json"):
            name = str(Path(__file__).parent.parent / "examples" / name)
        assert resolve_geometry(name).geometry.n_levels >= 2


def test_each_machine_reads_its_own_top_level():
    """Building a second machine never repoints the first one's levels."""
    import repro.config
    from repro.core.trident import TridentPolicy
    from repro.sim.system import System

    napot = System(GEOMETRY_PRESETS["sv-napot"].machine(4), TridentPolicy, seed=1)
    assert napot.geometry.top_level == 3
    x86 = System(GEOMETRY_PRESETS["x86"].machine(4), TridentPolicy, seed=1)
    assert x86.geometry.top_level == 2
    assert napot.geometry.top_level == 3
    assert not hasattr(repro.config, "PageSize")
    assert not hasattr(repro.config, "set_active_geometry")
