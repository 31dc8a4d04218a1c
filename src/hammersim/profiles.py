"""Machine profiles: geometry, calibration, and scenario defaults.

A profile bundles everything a trial needs: DRAM geometry, the partition
split, the background-workload residue, channel classification rates, the
vulnerability-density calibration, and per-driver memory thresholds.  Two
builtin profiles ship: ``dell`` (8 GiB, measured channel rates 92.7/97.4)
and ``lenovo`` (same geometry with Lenovo's rates 100/99.0 and a larger
115 MiB residue; the exact DIMM population of that machine is not public,
so it mirrors the Dell layout).

Profiles also load from flat INI-style text, one section per module; see
``load_profile`` for the schema.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .ambush import DRIVER_SG, DRIVER_VIDEO, DRIVERS
from .dram_model import DramGeometry, HammerParams, MappingSpec
from .timing_channel import ChannelModel

MIB = 1024 * 1024
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
class VulnCalibration:
    """Density knobs for the per-row vulnerability map."""

    weak_row_rate: float = 0.0
    cells_per_weak_row: float = 0.0
    cell_probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.weak_row_rate <= 1.0:
            raise ProfileError("weak_row_rate must be within [0, 1]")
        if self.cells_per_weak_row < 0:
            raise ProfileError("cells_per_weak_row must be >= 0")
        if not 0.0 <= self.cell_probability <= 1.0:
            raise ProfileError("cell_probability must be within [0, 1]")


@dataclass(frozen=True)
class MachineProfile:
    """Everything one seeded trial needs to build and drive a simulator."""

    name: str
    geometry: DramGeometry
    channel: ChannelModel
    vulnerability: VulnCalibration
    kernel_bytes: int = 1 * GIB
    residue_bytes: int = 56 * MIB
    bulk_bytes: int = 256 * MIB
    reserve_low_bytes: int = 64 * MIB
    fresh_bytes: int = 0
    max_order: int = 10
    hammer: HammerParams = field(default_factory=HammerParams)
    rounds_cap: int = 40
    reps_per_round: int = 1_000_000
    pair_attempt_cap: int = 5000
    thresholds: dict[str, int] = field(default_factory=dict)
    sg_opens: int = 256

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("profile needs a name")
        if not 0 < self.kernel_bytes < self.geometry.capacity:
            raise ProfileError("kernel partition must fit inside DRAM")
        if self.residue_bytes >= self.kernel_bytes:
            raise ProfileError("residue must fit inside the kernel partition")
        budget = self.residue_bytes + self.bulk_bytes + self.reserve_low_bytes
        if budget > self.kernel_bytes:
            raise ProfileError("workload preload exceeds the kernel partition")
        for driver, value in self.thresholds.items():
            if driver not in DRIVERS:
                raise ProfileError(f"unknown driver {driver!r} in thresholds")
            if value <= 0:
                raise ProfileError("thresholds must be positive")
        if self.rounds_cap < 0 or self.reps_per_round <= 0:
            raise ProfileError("rounds_cap >= 0 and reps_per_round > 0 required")

    def threshold_for(self, driver: str) -> int:
        if driver not in DRIVERS:
            raise ProfileError(f"unknown driver {driver!r}")
        try:
            return self.thresholds[driver]
        except KeyError:
            raise ProfileError(
                f"profile {self.name!r} has no threshold for {driver!r}"
            ) from None


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
        thresholds={DRIVER_VIDEO: 88 * MIB, DRIVER_SG: 109 * MIB},
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
        thresholds={DRIVER_VIDEO: 147 * MIB, DRIVER_SG: 168 * MIB},
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
            raise ProfileError(f"empty selector group in {text!r}")
        out.append(bits)
    return out


def _parse_bit_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("-")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ProfileError(f"bad bit range {text!r}, expected 'lo-hi'") from None


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
    try:
        return int(text) * factor
    except ValueError:
        raise ProfileError(f"bad size value {text!r}") from None


_DRAM_KEYS = ("dimms", "ranks_per_dimm", "banks_per_rank", "rows_per_bank",
              "row_size", "row_bits")


def load_profile(path: str) -> MachineProfile:
    """Load a profile from flat INI text.

    Sections: ``[profile]`` (name, optional base to inherit a builtin),
    ``[dram]`` (geometry and mapping), ``[allocator]``, ``[workload]``,
    ``[channel]``, ``[vulnerability]``, ``[hammer]`` (the HammerParams
    fields), ``[attack]``.  Any omitted value
    falls back to the base profile (default ``dell``), except that a
    ``[dram]`` section replaces the whole geometry, so it must give every
    key of _DRAM_KEYS; only the selector lists may be left out (empty).
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ProfileError(f"cannot read profile file {path!r}")

    base_name = parser.get("profile", "base", fallback="dell")
    base = get_profile(base_name)
    name = parser.get("profile", "name", fallback=base.name)

    geometry = base.geometry
    if parser.has_section("dram"):
        d = parser["dram"]
        missing = [key for key in _DRAM_KEYS if key not in d]
        if missing:
            raise ProfileError(f"[dram] is missing {', '.join(missing)}")
        mapping = MappingSpec.make(
            dimm=_parse_selectors(d.get("dimm_bits", "")),
            rank=_parse_selectors(d.get("rank_bits", "")),
            bank=_parse_selectors(d.get("bank_bits", "")),
            row_range=_parse_bit_range(d["row_bits"]),
        )
        geometry = DramGeometry(
            dimms=d.getint("dimms"),
            ranks_per_dimm=d.getint("ranks_per_dimm"),
            banks_per_rank=d.getint("banks_per_rank"),
            rows_per_bank=d.getint("rows_per_bank"),
            row_size=_parse_size(d["row_size"]),
            mapping=mapping,
        )

    def size_of(section: str, key: str, default: int) -> int:
        if parser.has_option(section, key):
            return _parse_size(parser.get(section, key))
        return default

    channel = base.channel
    if parser.has_section("channel"):
        c = parser["channel"]
        channel = ChannelModel(
            threshold_cycles=c.getint(
                "threshold_cycles", base.channel.threshold_cycles
            ),
            p_high_given_conflict=c.getfloat(
                "conflict_rate", base.channel.p_high_given_conflict
            ),
            p_low_given_other=c.getfloat(
                "other_rate", base.channel.p_low_given_other
            ),
        )

    vuln = base.vulnerability
    if parser.has_section("vulnerability"):
        v = parser["vulnerability"]
        vuln = VulnCalibration(
            weak_row_rate=v.getfloat("weak_row_rate", vuln.weak_row_rate),
            cells_per_weak_row=v.getfloat(
                "cells_per_weak_row", vuln.cells_per_weak_row
            ),
            cell_probability=v.getfloat(
                "cell_probability", vuln.cell_probability
            ),
        )

    hammer = base.hammer
    if parser.has_section("hammer"):
        h = parser["hammer"]
        try:
            hammer = HammerParams(
                dose=h.getint("dose", hammer.dose),
                double_sided_multiplier=h.getfloat(
                    "double_sided_multiplier", hammer.double_sided_multiplier
                ),
                single_sided_multiplier=h.getfloat(
                    "single_sided_multiplier", hammer.single_sided_multiplier
                ),
                one_location_multiplier=h.getfloat(
                    "one_location_multiplier", hammer.one_location_multiplier
                ),
            )
        except ValueError as exc:
            raise ProfileError(f"[hammer] {exc}") from None

    thresholds = dict(base.thresholds)
    rounds_cap = base.rounds_cap
    reps = base.reps_per_round
    sg_opens = base.sg_opens
    pair_cap = base.pair_attempt_cap
    if parser.has_section("attack"):
        a = parser["attack"]
        for driver in DRIVERS:
            key = f"threshold_{driver}"
            if key in a:
                thresholds[driver] = _parse_size(a[key])
        rounds_cap = a.getint("rounds_cap", rounds_cap)
        reps = a.getint("reps_per_round", reps)
        sg_opens = a.getint("sg_opens", sg_opens)
        pair_cap = a.getint("pair_attempt_cap", pair_cap)

    return MachineProfile(
        name=name,
        geometry=geometry,
        channel=channel,
        vulnerability=vuln,
        kernel_bytes=size_of("allocator", "kernel_bytes", base.kernel_bytes),
        max_order=parser.getint("allocator", "max_order",
                                fallback=base.max_order),
        residue_bytes=size_of("workload", "residue_bytes", base.residue_bytes),
        bulk_bytes=size_of("workload", "bulk_bytes", base.bulk_bytes),
        reserve_low_bytes=size_of(
            "workload", "reserve_low_bytes", base.reserve_low_bytes
        ),
        fresh_bytes=size_of("workload", "fresh_bytes", base.fresh_bytes),
        hammer=hammer,
        rounds_cap=rounds_cap,
        reps_per_round=reps,
        pair_attempt_cap=pair_cap,
        thresholds=thresholds,
        sg_opens=sg_opens,
    )
