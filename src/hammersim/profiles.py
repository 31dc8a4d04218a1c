"""Machine profiles: geometry, calibration, and scenario defaults.

A profile bundles everything a trial needs: DRAM geometry, the partition
split, the background-workload residue, channel classification rates, the
vulnerability-density calibration, and per-driver memory thresholds.  Two
builtin profiles ship: ``dell`` (8 GiB, measured channel rates 92.7/97.4)
and ``lenovo`` (same geometry with Lenovo's rates 100/99.0 and a larger
115 MiB residue; the exact DIMM population of that machine is not public,
so it mirrors the Dell layout).

Profiles also load from flat INI-style text, one section per module; see
``_SCHEMA`` for the layout.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .ambush import DEFAULT_SG_OPENS, DRIVER_SG, DRIVER_VIDEO, MIB
from .dram_model import (
    PAGE_SIZE,
    DramError,
    DramGeometry,
    HammerParams,
    MappingSpec,
    VulnCalibration,
    target_block_size,
)
from .os_model import SG_MAX_OPENS
from .timing_channel import PAIR_ATTEMPT_CAP, ChannelModel

GIB = 1024 * MIB


class ProfileError(ValueError):
    """Raised for inconsistent or unparseable profile definitions."""


def dell_mapping() -> MappingSpec:
    # One bit per DIMM/rank selector, three single-bit bank selectors,
    # rows in bits 18..32; everything else packs into the column.
    return MappingSpec.make(
        dimm=[[6]],
        rank=[[17]],
        bank=[[13], [14], [15]],
        row_range=(18, 32),
    )


def dell_geometry() -> DramGeometry:
    return DramGeometry(
        dimms=2,
        ranks_per_dimm=2,
        banks_per_rank=8,
        rows_per_bank=32768,
        row_size=8192,
        mapping=dell_mapping(),
    )


@dataclass(frozen=True)
class MachineProfile:
    """Everything one seeded trial needs to build and drive a simulator."""

    name: str
    geometry: DramGeometry
    channel: ChannelModel
    vulnerability: VulnCalibration
    threshold_video: int
    threshold_sg: int
    kernel_bytes: int = 1 * GIB
    residue_bytes: int = 56 * MIB
    bulk_bytes: int = 256 * MIB
    reserve_low_bytes: int = 64 * MIB
    fresh_bytes: int = 0
    max_order: int = 10
    hammer: HammerParams = field(default_factory=HammerParams)
    rounds_cap: int = 40
    reps_per_round: int = 1_000_000
    pair_attempt_cap: int = PAIR_ATTEMPT_CAP
    sg_opens: int = DEFAULT_SG_OPENS

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("profile needs a name")
        if not 0 < self.kernel_bytes < self.geometry.capacity:
            raise ProfileError("kernel partition must fit inside DRAM")
        if self.max_order < 0:
            raise ProfileError("max_order must be >= 0")
        # The preload holds one bit per page of a max-order block.  The
        # order is compared, not shifted, so a huge one is refused cheaply.
        if self.max_order >= (self.geometry.capacity // PAGE_SIZE).bit_length():
            raise ProfileError(f"a max_order {self.max_order} block is larger than the DRAM")
        # A fresh allocator lists every max-order block (dell at order 0: 2**21).
        blocks = self.geometry.capacity // (PAGE_SIZE << self.max_order)
        if blocks > 1 << 22:
            raise ProfileError(f"DRAM holds {blocks} max-order blocks, more than {1 << 22}")
        if self.residue_bytes >= self.kernel_bytes:
            raise ProfileError("residue must fit inside the kernel partition")
        for key in ("residue_bytes", "bulk_bytes", "reserve_low_bytes", "fresh_bytes"):
            if getattr(self, key) < 0:
                raise ProfileError(f"{key} must be >= 0")
        # The first pair of the larger pool of halves may draw any order
        # up to small_max_order, and the preload places it at that order.
        pages = -(-max(self.residue_bytes, self.fresh_bytes) // PAGE_SIZE)
        pair_order = min(self.small_max_order, pages.bit_length() - 1)
        if self.max_order < pair_order:
            raise ProfileError(f"max_order {self.max_order} is below the preload's"
                               f" pair order {pair_order}")
        budget = self.residue_bytes + self.bulk_bytes + self.reserve_low_bytes
        if budget > self.kernel_bytes:
            raise ProfileError("workload preload exceeds the kernel partition")
        if self.threshold_video <= 0 or self.threshold_sg <= 0:
            raise ProfileError("thresholds must be positive")
        if not 1 <= self.sg_opens <= SG_MAX_OPENS:
            raise ProfileError(f"sg_opens must be within 1..{SG_MAX_OPENS}")
        if self.rounds_cap < 0 or self.reps_per_round <= 0:
            raise ProfileError("rounds_cap >= 0 and reps_per_round > 0 required")
        if self.pair_attempt_cap < 1:
            raise ProfileError("pair_attempt_cap must be >= 1")
        bits = self.geometry.row_size * 8
        if self.vulnerability.cells_per_weak_row > bits:
            raise ProfileError(f"cells_per_weak_row must be <= {bits}, the bits of one row")

    @property
    def small_max_order(self) -> int:
        """The largest order of a preload pair's halves: a pair spans at
        most the target block."""
        return (target_block_size(self.geometry) // PAGE_SIZE).bit_length() - 2

    def threshold_for(self, driver: str) -> int:
        if driver == DRIVER_VIDEO:
            return self.threshold_video
        if driver == DRIVER_SG:
            return self.threshold_sg
        raise ProfileError(f"unknown driver {driver!r}")


def dell_profile() -> MachineProfile:
    return MachineProfile(
        name="dell",
        geometry=dell_geometry(),
        channel=ChannelModel(
            p_high_given_conflict=0.927,
            p_low_given_other=0.974,
        ),
        vulnerability=VulnCalibration(
            weak_row_rate=0.014,
            cells_per_weak_row=96.0,
            cell_probability=1.0,
        ),
        residue_bytes=56 * MIB,
        threshold_video=88 * MIB,
        threshold_sg=109 * MIB,
    )


def lenovo_profile() -> MachineProfile:
    return replace(
        dell_profile(),
        name="lenovo",
        channel=ChannelModel(
            p_high_given_conflict=1.0,
            p_low_given_other=0.990,
        ),
        residue_bytes=115 * MIB,
        threshold_video=147 * MIB,
        threshold_sg=168 * MIB,
    )


_BUILTIN_PROFILES = {"dell": dell_profile, "lenovo": lenovo_profile}


def builtin_profiles() -> dict[str, MachineProfile]:
    return {name: make() for name, make in _BUILTIN_PROFILES.items()}


def get_profile(name: str) -> MachineProfile:
    try:
        make = _BUILTIN_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_PROFILES))
        raise ProfileError(f"unknown profile {name!r} (builtin: {known})") from None
    return make()


def _parse_selectors(text: str) -> list[list[int]]:
    # "13;14;15" -> three one-bit selectors; "13,18;14,19" -> XOR pairs.
    text = text.strip()
    if not text:
        return []
    out = []
    for group in text.split(";"):
        bits = [int(b.strip()) for b in group.split(",") if b.strip()]
        if not bits:
            raise ValueError(f"empty selector group in {text!r}")
        out.append(bits)
    return out


def _parse_bit_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("-")
    return int(lo), int(hi)


def _parse_size(text: str) -> int:
    """Accept plain byte counts plus KiB/MiB/GiB suffixes (k/m/g)."""
    text = text.strip().lower()
    factor = 1
    for suffix, mult in (("gib", GIB), ("mib", MIB), ("kib", 1024),
                         ("g", GIB), ("m", MIB), ("k", 1024)):
        if text.endswith(suffix):
            factor = mult
            text = text[: -len(suffix)].strip()
            break
    return int(text) * factor


def _geometry(dimms, ranks_per_dimm, banks_per_rank, rows_per_bank, row_size,
              row_bits, dimm_bits=(), rank_bits=(), bank_bits=()) -> DramGeometry:
    mapping = MappingSpec.make(dimm_bits, rank_bits, bank_bits, row_bits)
    return DramGeometry(dimms, ranks_per_dimm, banks_per_rank, rows_per_bank,
                        row_size, mapping)


# Every INI section: the profile field it builds (None: it sets fields of
# the profile itself) and, per key, the field the key sets and the parser
# of its text.  [profile] base sets no field, it picks the profile the
# others override.  [dram] builds the whole geometry, so it must give every
# key of _DRAM_KEYS; every other section overrides single fields of the
# base profile.
_SCHEMA = {
    "profile": (None, {"name": ("name", str), "base": (None, str)}),
    "dram": ("geometry", {
        "dimms": ("dimms", int),
        "ranks_per_dimm": ("ranks_per_dimm", int),
        "banks_per_rank": ("banks_per_rank", int),
        "rows_per_bank": ("rows_per_bank", int),
        "row_size": ("row_size", _parse_size),
        "dimm_bits": ("dimm_bits", _parse_selectors),
        "rank_bits": ("rank_bits", _parse_selectors),
        "bank_bits": ("bank_bits", _parse_selectors),
        "row_bits": ("row_bits", _parse_bit_range),
    }),
    "allocator": (None, {
        "kernel_bytes": ("kernel_bytes", _parse_size),
        "max_order": ("max_order", int),
    }),
    "workload": (None, {
        "residue_bytes": ("residue_bytes", _parse_size),
        "bulk_bytes": ("bulk_bytes", _parse_size),
        "reserve_low_bytes": ("reserve_low_bytes", _parse_size),
        "fresh_bytes": ("fresh_bytes", _parse_size),
    }),
    "channel": ("channel", {
        "threshold_cycles": ("threshold_cycles", int),
        "conflict_rate": ("p_high_given_conflict", float),
        "other_rate": ("p_low_given_other", float),
    }),
    "vulnerability": ("vulnerability", {
        "weak_row_rate": ("weak_row_rate", float),
        "cells_per_weak_row": ("cells_per_weak_row", float),
        "cell_probability": ("cell_probability", float),
    }),
    "hammer": ("hammer", {
        "dose": ("dose", int),
        "single_sided_multiplier": ("single_sided_multiplier", float),
    }),
    "attack": (None, {
        "threshold_video": ("threshold_video", _parse_size),
        "threshold_sg": ("threshold_sg", _parse_size),
        "rounds_cap": ("rounds_cap", int),
        "reps_per_round": ("reps_per_round", int),
        "sg_opens": ("sg_opens", int),
        "pair_attempt_cap": ("pair_attempt_cap", int),
    }),
}

_DRAM_KEYS = ("dimms", "ranks_per_dimm", "banks_per_rank", "rows_per_bank",
              "row_size", "row_bits")


def load_profile(path: str) -> MachineProfile:
    """Load a profile from flat INI text laid out as _SCHEMA.

    Any omitted value falls back to the base profile (``[profile] base``,
    default ``dell``).  An unknown section or key, an unparseable value, or
    a value its config rejects raises ProfileError naming the section.
    """
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ProfileError(f"cannot read profile file {path!r}")
        base = get_profile(parser.get("profile", "base", fallback="dell"))
    except configparser.Error as exc:
        raise ProfileError(str(exc)) from None
    changes: dict[str, object] = {}
    for section in parser.sections():
        changes.update(_read_section(parser, section, base))
    return replace(base, **changes)


def _read_section(parser: configparser.ConfigParser, section: str,
                  base: MachineProfile) -> dict[str, object]:
    """The profile fields one section sets, each config checked by its own
    constructor."""
    if section not in _SCHEMA:
        raise ProfileError(f"unknown section [{section}]")
    target, keys = _SCHEMA[section]
    values: dict[str, object] = {}
    try:
        for key, text in parser.items(section):
            if key not in keys:
                raise ProfileError(f"unknown key {key!r}")
            name, parse = keys[key]
            try:
                value = parse(text)
            except ValueError:
                raise ProfileError(f"bad {key} value {text!r}") from None
            if name is not None:
                values[name] = value
        if target is None:
            return values
        if target == "geometry":
            missing = [key for key in _DRAM_KEYS if key not in values]
            if missing:
                raise ProfileError(f"is missing {', '.join(missing)}")
            return {target: _geometry(**values)}
        return {target: replace(getattr(base, target), **values)}
    except (ValueError, DramError, configparser.Error) as exc:
        raise ProfileError(f"[{section}] {exc}") from None
