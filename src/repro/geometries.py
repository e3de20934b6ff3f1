"""Built-in page-size geometry presets and the custom-JSON loader.

Trident's thesis — "harness *all* architectural page sizes" — is not an
x86 statement: any ISA that exposes a ladder of translation granules can
play.  This module packages three ladders as data:

* ``x86`` — the default x86-class pipeline (4KB/2MB/1GB, run at the
  reach-preserving scaled geometry every experiment already uses).
  Selecting it is bitwise-identical to not selecting anything.
* ``sv-napot`` — RISC-V with the SVNAPOT extension: a **four**-level
  4KB / 64KB-NAPOT / 2MB / 1GB ladder.  NAPOT pages are regular PTEs
  with a contiguity hint, so their walks run the full radix depth and
  their leaves are never structure-cached — encoded per level, not in
  code.
* ``arm16k`` — ARM 16KB granule with contiguous-bit 2MB-class blocks
  and 32MB-class L2 blocks.  Contiguous-bit entries, like NAPOT, are
  last-level PTEs (no walk shortening); only the true block mapping
  skips a level.

Like the x86 family, the non-x86 presets run *scaled* (orders shrunk,
level ratios preserved) so figures regenerate in seconds; each preset
records the paper-scale factor of its top level.

Custom geometries load from JSON via :func:`load_geometry_json`; see
``docs/geometry.md`` for the schema and ``repro geometry`` for the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from repro.config import (
    CostModel,
    MachineConfig,
    PageGeometry,
    PageLevel,
    SCALED_GEOMETRY,
    SCALE_FACTOR,
    TLBConfig,
    TLBSection,
    WalkConfig,
    X86_GEOMETRY,
)


@dataclass(frozen=True)
class GeometryPreset:
    """A runnable geometry: the level ladder (with its TLB shapes) plus
    machine parameters."""

    key: str
    title: str
    description: str
    geometry: PageGeometry
    walk: WalkConfig = field(default_factory=WalkConfig)
    #: multiplier mapping scaled bytes back to paper-scale bytes
    scale_factor: int = 1

    def machine(self, total_large_regions: int = 64) -> MachineConfig:
        """A machine of ``total_large_regions`` top-level regions."""
        return MachineConfig(
            geometry=self.geometry,
            total_frames=total_large_regions * self.geometry.frames_per_large,
            walk=self.walk,
            cost=CostModel().scaled_for(self.geometry),
        )


def _sv_napot_geometry() -> PageGeometry:
    """Scaled RISC-V SVNAPOT ladder: 4K / 64K-NAPOT / 2M / 1G classes.

    Scaled orders (0, 2, 5, 10) keep the strict ordering and shrink the
    top level to 4MB (the same 256x byte factor as the x86 scaled
    geometry).  The NAPOT level walks the full radix depth —
    ``levels_skipped=0`` — because a NAPOT "page" is 2^N ordinary PTEs
    whose low PPN bits encode the contiguity; only the true superpage
    levels shorten the walk.
    """
    shared = TLBConfig(192, 12)
    return PageGeometry(
        base_shift=12,
        levels=(
            PageLevel(
                name="base", label="4KB", order=0, promotable=False,
                tlb=TLBSection(TLBConfig(16, 4), "shared"),
                levels_skipped=0, leaf_cached_prob=0.0,
            ),
            PageLevel(
                name="napot", label="64KB", order=2,
                tlb=TLBSection(TLBConfig(8, 4), "shared"),
                # NAPOT leaves are PTEs: full-depth walk, never
                # structure-cached.
                levels_skipped=0, leaf_cached_prob=0.0,
            ),
            PageLevel(
                name="mega", label="2MB", order=5, thp_target=True,
                tlb=TLBSection(TLBConfig(4, 4), "mid"),
                levels_skipped=1, leaf_cached_prob=0.60,
            ),
            PageLevel(
                name="giga", label="1GB", order=10,
                tlb=TLBSection(TLBConfig(4, 4), "large"),
                levels_skipped=2, leaf_cached_prob=0.85,
            ),
        ),
        l2_groups=(
            ("shared", shared),
            ("mid", TLBConfig(192, 12)),
            ("large", TLBConfig(16, 4)),
        ),
        name="sv-napot",
    )


def _arm16k_geometry() -> PageGeometry:
    """Scaled ARM 16K-granule ladder: 16K / 2M-contig / 32M-block classes.

    Contiguous-bit entries are, like NAPOT, ordinary last-level
    descriptors carrying a contiguity hint — full-depth walks, uncached
    leaves, but a single TLB entry of larger reach.  Only the level-2
    block mapping actually shortens the walk.
    """
    return PageGeometry(
        base_shift=14,
        levels=(
            PageLevel(
                name="granule", label="16KB", order=0, promotable=False,
                tlb=TLBSection(TLBConfig(16, 4), "shared"),
                levels_skipped=0, leaf_cached_prob=0.0,
            ),
            PageLevel(
                name="contig", label="2MB", order=4, thp_target=True,
                tlb=TLBSection(TLBConfig(8, 4), "shared"),
                levels_skipped=0, leaf_cached_prob=0.0,
            ),
            PageLevel(
                name="block", label="32MB", order=8,
                tlb=TLBSection(TLBConfig(4, 4), "block"),
                levels_skipped=1, leaf_cached_prob=0.60,
            ),
        ),
        l2_groups=(
            ("shared", TLBConfig(192, 12)),
            ("block", TLBConfig(16, 4)),
        ),
        name="arm16k",
    )


def _presets() -> dict[str, GeometryPreset]:
    sv = _sv_napot_geometry()
    arm = _arm16k_geometry()
    return {
        "x86": GeometryPreset(
            key="x86",
            title="x86-64 4KB/2MB/1GB (scaled)",
            description=(
                "The default three-tier x86 pipeline at the scaled "
                "geometry every experiment runs; selecting it is "
                "bitwise-identical to the pre-geometry default."
            ),
            geometry=SCALED_GEOMETRY,
            scale_factor=SCALE_FACTOR,
        ),
        "sv-napot": GeometryPreset(
            key="sv-napot",
            title="RISC-V SVNAPOT 4KB/64KB/2MB/1GB (4 levels, scaled)",
            description=(
                "Four-level ladder with 64KB NAPOT pages: NAPOT leaves "
                "are PTEs (full-depth walks, uncached leaves) yet one "
                "TLB entry spans the whole naturally-aligned group."
            ),
            geometry=sv,
            scale_factor=X86_GEOMETRY.large_size // sv.large_size,
        ),
        "arm16k": GeometryPreset(
            key="arm16k",
            title="ARM 16KB granule, 2MB contiguous-bit, 32MB block (scaled)",
            description=(
                "16KB granule with contiguous-bit 2MB-class entries and "
                "32MB-class level-2 blocks; the contig level promotes "
                "like THP but never shortens a walk."
            ),
            geometry=arm,
            scale_factor=(32 << 20) // arm.large_size,
        ),
    }


GEOMETRY_PRESETS: dict[str, GeometryPreset] = _presets()


def resolve_geometry(name_or_path: str) -> GeometryPreset:
    """A preset by key, or a custom geometry loaded from a JSON file."""
    preset = GEOMETRY_PRESETS.get(name_or_path)
    if preset is not None:
        return preset
    if name_or_path.endswith(".json"):
        return load_geometry_json(name_or_path)
    known = ", ".join(sorted(GEOMETRY_PRESETS))
    raise ValueError(
        f"unknown geometry {name_or_path!r}; expected one of [{known}] "
        "or a path to a .json geometry file"
    )


#: the keys a custom geometry file may give, per object; any other key is
#: an error, so a misspelt field cannot silently leave its default
_TOP_KEYS = (
    "name", "title", "description", "base_shift", "levels", "l2_groups", "walk",
)
_LEVEL_KEYS = (
    "name", "label", "order", "promotable", "thp_target", "l1", "l2",
    "levels_skipped", "leaf_cached_prob",
)
_TLB_KEYS = ("entries", "ways")
_WALK_KEYS = tuple(f.name for f in fields(WalkConfig))


def _reject_unknown_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValueError(
                f"{where}: unknown key {key!r}; expected one of "
                f"{', '.join(allowed)}"
            )


def _number(cast, value: object, where: str):
    """``cast(value)``, or one error line naming where the bad value is."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where} must be a number, got {json.dumps(value)}") from None


def _tlb_config(obj: object, where: str) -> TLBConfig:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    _reject_unknown_keys(obj, _TLB_KEYS, where)
    try:
        entries, ways = obj["entries"], obj["ways"]
    except KeyError as e:
        raise ValueError(f"{where}: TLB config needs 'entries' and 'ways'") from e
    return TLBConfig(
        _number(int, entries, f"{where}.entries"),
        _number(int, ways, f"{where}.ways"),
    )


def _object_or_empty(spec: dict, key: str) -> dict:
    """``spec[key]`` when it is a JSON object, ``{}`` when absent/null."""
    value = spec.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be an object")
    return value


def geometry_from_dict(spec: dict, *, name: str = "") -> GeometryPreset:
    """Validate and build a custom geometry from a parsed JSON object.

    Raises :class:`ValueError` with a actionable message on any schema
    violation; :class:`PageGeometry`'s own validation (monotone orders,
    unique names, section/group consistency) runs on top.  Every level
    must give its ``l1`` TLB: the shapes come only from the file.
    """
    if not isinstance(spec, dict):
        raise ValueError("geometry spec must be a JSON object")
    _reject_unknown_keys(spec, _TOP_KEYS, "geometry spec")
    for key in ("base_shift", "levels"):
        if key not in spec:
            raise ValueError(f"geometry spec is missing {key!r}")
    raw_levels = spec["levels"]
    if not isinstance(raw_levels, list) or len(raw_levels) < 2:
        raise ValueError("'levels' must be a list of at least two levels")
    raw_groups = _object_or_empty(spec, "l2_groups")
    groups = tuple(
        (str(gname), _tlb_config(gcfg, f"l2_groups[{gname}]"))
        for gname, gcfg in raw_groups.items()
    )
    levels = []
    for i, raw in enumerate(raw_levels):
        if not isinstance(raw, dict):
            raise ValueError(f"levels[{i}] must be an object")
        _reject_unknown_keys(raw, _LEVEL_KEYS, f"levels[{i}]")
        for key in ("name", "order", "l1"):
            if key not in raw:
                raise ValueError(f"levels[{i}] is missing {key!r}")
        section = TLBSection(
            _tlb_config(raw["l1"], f"levels[{i}].l1"),
            raw.get("l2", "shared"),
        )
        levels.append(
            PageLevel(
                name=str(raw["name"]),
                label=str(raw.get("label", raw["name"])),
                order=_number(int, raw["order"], f"levels[{i}].order"),
                promotable=bool(raw.get("promotable", i > 0)),
                thp_target=bool(raw.get("thp_target", False)),
                tlb=section,
                levels_skipped=(
                    _number(
                        int, raw["levels_skipped"], f"levels[{i}].levels_skipped"
                    )
                    if "levels_skipped" in raw
                    else None
                ),
                leaf_cached_prob=(
                    _number(
                        float,
                        raw["leaf_cached_prob"],
                        f"levels[{i}].leaf_cached_prob",
                    )
                    if "leaf_cached_prob" in raw
                    else None
                ),
            )
        )
    geometry = PageGeometry(
        base_shift=_number(int, spec["base_shift"], "base_shift"),
        mid_order=None,
        large_order=None,
        levels=tuple(levels),
        l2_groups=groups,
        name=str(spec.get("name", name)),
    )
    walk_spec = _object_or_empty(spec, "walk")
    _reject_unknown_keys(walk_spec, _WALK_KEYS, "'walk'")
    # Each given field is cast to its default's type (int or float); the
    # rest keep the WalkConfig defaults.
    default = WalkConfig()
    walk = WalkConfig(**{
        key: _number(type(getattr(default, key)), value, f"walk.{key}")
        for key, value in walk_spec.items()
    })
    scale = X86_GEOMETRY.large_size // geometry.large_size
    return GeometryPreset(
        key=geometry.name or name or "custom",
        title=spec.get("title", geometry.name or "custom geometry"),
        description=spec.get("description", "custom JSON geometry"),
        geometry=geometry,
        walk=walk,
        scale_factor=max(1, scale),
    )


def load_geometry_json(path: str) -> GeometryPreset:
    """Load and validate a custom geometry from a JSON file."""
    with open(path) as f:
        try:
            spec = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON ({e})") from e
    try:
        return geometry_from_dict(spec, name=path)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
