"""Row-buffer timing side channel for picking hammerable address pairs.

Alternating accesses to two rows of the same bank keep evicting each other
from the row buffer, so their paired access latency sits above the conflict
threshold; any other pair arrangement stays below it.  The model draws a
latency for the pair's true arrangement from one of two seeded lobes and
classifies purely from the drawn cycle count, so misclassification falls out
of the configured rates rather than from peeking at ground truth.

The lobe shapes are one choice among many consistent with the published
per-class classification rates; only the threshold rule and the rates are
contractual.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dram_model import PAGE_SIZE, DramGeometry
from .dram_model import map_phys_to_dram  # noqa: F401  (bench/tracer.py patches it here)

CONFLICT_THRESHOLD_CYCLES = 360
# Widths of the latency lobes above and below the threshold, in cycles.
HIGH_SPREAD = 140
LOW_SPREAD = 120


class ChannelError(Exception):
    pass


class PairSelectionError(ChannelError):
    """No pair classified as conflicting; attempts is how many were timed."""

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class ChannelModel:
    """Classification threshold and per-class accuracy rates."""

    threshold_cycles: int = CONFLICT_THRESHOLD_CYCLES
    p_high_given_conflict: float = 1.0
    p_low_given_other: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_high_given_conflict <= 1.0:
            raise ValueError("p_high_given_conflict must be within [0, 1]")
        if not 0.0 <= self.p_low_given_other <= 1.0:
            raise ValueError("p_low_given_other must be within [0, 1]")
        if self.threshold_cycles <= LOW_SPREAD + 1:
            raise ValueError("low lobe would cross below zero cycles")


@dataclass(frozen=True)
class LatencySample:
    """One paired-access measurement and its classification."""

    addr_a: int
    addr_b: int
    cycles: int
    classified_conflict: bool
    true_conflict: bool


def is_row_conflict_pair(addr_a: int, addr_b: int, geometry: DramGeometry) -> bool:
    """Ground truth: same dimm/rank/bank, different rows."""
    key_a = geometry.row_key_of(addr_a)
    key_b = geometry.row_key_of(addr_b)
    rows = geometry.rows_per_bank
    return key_a != key_b and key_a // rows == key_b // rows


def sample_latency_phys(
    addr_a: int,
    addr_b: int,
    geometry: DramGeometry,
    model: ChannelModel,
    rng: random.Random,
) -> LatencySample:
    """Draw a paired-access latency for two physical addresses."""
    truth = is_row_conflict_pair(addr_a, addr_b, geometry)
    if truth:
        above = rng.random() < model.p_high_given_conflict
    else:
        above = rng.random() >= model.p_low_given_other
    if above:
        cycles = model.threshold_cycles + int(
            rng.triangular(0, HIGH_SPREAD, HIGH_SPREAD * 0.25)
        )
    else:
        cycles = (
            model.threshold_cycles
            - 1
            - int(rng.triangular(0, LOW_SPREAD, LOW_SPREAD * 0.25))
        )
    classified = cycles >= model.threshold_cycles
    return LatencySample(addr_a, addr_b, cycles, classified, truth)


def sample_latency(os_model, vaddr_a: int, vaddr_b: int, model: ChannelModel, rng: random.Random) -> LatencySample:
    """Virtual-address wrapper; translations honour the TLB."""
    pa = os_model.translate(vaddr_a)
    pb = os_model.translate(vaddr_b)
    if pa is None or pb is None:
        raise ChannelError("cannot time an unmapped address")
    geometry = os_model.dram.geometry
    byte_a = pa * PAGE_SIZE + vaddr_a % PAGE_SIZE
    byte_b = pb * PAGE_SIZE + vaddr_b % PAGE_SIZE
    return sample_latency_phys(byte_a, byte_b, geometry, model, rng)


def select_hammer_pair(
    os_model,
    page_vaddrs: list[int],
    model: ChannelModel,
    rng: random.Random,
    *,
    max_attempts: int = 5000,
) -> tuple[tuple[int, int], int, tuple[int, int]]:
    """Probe random page pairs until one classifies as a row conflict.

    Returns the virtual pair, the attempt count, and the physical byte
    addresses the pair was timed at.  Raises PairSelectionError when the
    attempt budget runs out.
    """
    if len(page_vaddrs) < 2:
        raise PairSelectionError("need at least two pages to time")
    for attempt in range(1, max_attempts + 1):
        a, b = rng.sample(page_vaddrs, 2)
        sample = sample_latency(os_model, a, b, model, rng)
        if sample.classified_conflict:
            return (a, b), attempt, (sample.addr_a, sample.addr_b)
    raise PairSelectionError(
        f"no conflicting pair classified within {max_attempts} attempts", max_attempts
    )

