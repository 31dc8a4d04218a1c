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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .dram_model import PAGE_SIZE, DramGeometry
from .dram_model import map_phys_to_dram  # noqa: F401  (bench/tracer.py patches it here)
from .os_model import DoubleOwnedBuffer, OsModelError

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


class KeyedPages(NamedTuple):
    """A mapped buffer, each chunk's first page index, each page's row key."""

    buffer: DoubleOwnedBuffer
    starts: list[int]
    keys: list[int]
    rows_per_bank: int

    def page(self, i: int) -> tuple[int, int]:
        """(virtual address, frame) of page i."""
        c = bisect_right(self.starts, i) - 1
        chunk, offset = self.buffer.chunks[c], i - self.starts[c]
        return chunk.vbase + offset * PAGE_SIZE, chunk.frames()[offset]


def key_buffer(buffer: DoubleOwnedBuffer, geometry: DramGeometry) -> KeyedPages:
    """Key a mapped buffer's pages once.  They translate through their
    chunks' frames, never a page table, so no flip or flush moves them."""
    if not buffer.user_mapped:
        raise OsModelError("buffer is not user mapped")
    frames = [chunk.frames() for chunk in buffer.chunks]
    starts = list(accumulate(map(len, frames), initial=0))
    return KeyedPages(buffer, starts, geometry.page_keys(frames), geometry.rows_per_bank)


def _row_conflict(key_a: int, key_b: int, rows_per_bank: int) -> bool:
    return key_a != key_b and key_a // rows_per_bank == key_b // rows_per_bank


def _draw_cycles(truth: bool, model: ChannelModel, rng: random.Random) -> int:
    """A paired-access latency from the lobe the rates pick for the pair's
    true arrangement; at or above the threshold it reads as a conflict."""
    if (rng.random() < model.p_high_given_conflict if truth
            else rng.random() >= model.p_low_given_other):
        return model.threshold_cycles + int(rng.triangular(0, HIGH_SPREAD, HIGH_SPREAD * 0.25))
    return model.threshold_cycles - 1 - int(rng.triangular(0, LOW_SPREAD, LOW_SPREAD * 0.25))


def _index_pair(rng: random.Random, n: int) -> tuple[int, int]:
    """The indexes rng.sample(range(n), 2) draws, from the same randrange
    calls: up to 21 items the second is drawn from the n - 1 left once the
    last item fills the first's slot; above that, a repeat is redrawn."""
    i = rng.randrange(n)
    if n <= 21:
        j = rng.randrange(n - 1)
        return i, n - 1 if j == i else j
    j = rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    return i, j


def select_hammer_pair(pages: KeyedPages, model: ChannelModel, rng: random.Random, *,
                       max_attempts: int = 5000) -> tuple[tuple[int, int], int, tuple[int, int]]:
    """Probe random page pairs until one classifies as a row conflict.

    Each pair is the two page indexes rng.sample of the pages would draw,
    timed at the pages' first bytes.  Returns the virtual pair, the
    attempt count, and the physical byte addresses the pair was timed at.
    Raises PairSelectionError when the attempt budget runs out.
    """
    keys, rows = pages.keys, pages.rows_per_bank
    if len(keys) < 2:
        raise PairSelectionError("need at least two pages to time")
    for attempt in range(1, max_attempts + 1):
        i, j = _index_pair(rng, len(keys))
        truth = _row_conflict(keys[i], keys[j], rows)
        if _draw_cycles(truth, model, rng) >= model.threshold_cycles:
            (va, pfn_a), (vb, pfn_b) = pages.page(i), pages.page(j)
            return (va, vb), attempt, (pfn_a * PAGE_SIZE, pfn_b * PAGE_SIZE)
    raise PairSelectionError(
        f"no conflicting pair classified within {max_attempts} attempts", max_attempts)
