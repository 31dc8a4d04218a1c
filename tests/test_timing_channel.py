"""Latency lobes, classification rates, and conflict-pair selection."""

from __future__ import annotations

import random

import pytest

from hammersim.buddy_alloc import BuddyState, Partition
from hammersim.dram_model import (PAGE_SIZE, Dram, DramCoord, map_phys_to_dram,
                                  unmap_dram_to_phys)
from hammersim.os_model import OsModel
from hammersim.profiles import dell_geometry, dell_profile, lenovo_profile
from hammersim.timing_channel import (
    HIGH_SPREAD,
    LOW_SPREAD,
    ChannelError,
    ChannelModel,
    PairSelectionError,
    is_row_conflict_pair,
    sample_latency,
    sample_latency_phys,
    select_hammer_pair,
)

from helpers import simple_mapping

MIB = 1024 * 1024


def geo64():
    return simple_mapping(banks=2, rows=64, row_size=8192)


def conflict_pair(geo, rng):
    bank = rng.randrange(geo.banks_per_rank)
    r1, r2 = rng.sample(range(geo.rows_per_bank), 2)
    return (unmap_dram_to_phys(DramCoord(0, 0, bank, r1, rng.randrange(geo.row_size)), geo),
            unmap_dram_to_phys(DramCoord(0, 0, bank, r2, rng.randrange(geo.row_size)), geo))


def other_pair(geo, rng):
    if rng.random() < 0.5:  # same row, different column
        bank = rng.randrange(geo.banks_per_rank)
        row = rng.randrange(geo.rows_per_bank)
        c1, c2 = rng.sample(range(geo.row_size), 2)
        return (unmap_dram_to_phys(DramCoord(0, 0, bank, row, c1), geo),
                unmap_dram_to_phys(DramCoord(0, 0, bank, row, c2), geo))
    b1, b2 = rng.sample(range(geo.banks_per_rank), 2)
    return (unmap_dram_to_phys(DramCoord(0, 0, b1, rng.randrange(geo.rows_per_bank), 0), geo),
            unmap_dram_to_phys(DramCoord(0, 0, b2, rng.randrange(geo.rows_per_bank), 0), geo))


def test_ground_truth_classifier():
    geo = geo64()
    rng = random.Random(0)
    for _ in range(50):
        a, b = conflict_pair(geo, rng)
        assert is_row_conflict_pair(a, b, geo)
        a, b = other_pair(geo, rng)
        assert not is_row_conflict_pair(a, b, geo)


@pytest.mark.parametrize("geo", [geo64(), dell_geometry()], ids=["geo64", "dell"])
def test_conflict_pair_matches_coordinate_truth(geo):
    def truth(a, b):
        ca, cb = map_phys_to_dram(a, geo), map_phys_to_dram(b, geo)
        return ((ca.dimm, ca.rank, ca.bank) == (cb.dimm, cb.rank, cb.bank)
                and ca.row != cb.row)

    def addr(key):
        coord = DramCoord(*geo.unpack_row_key(key), rng.randrange(geo.row_size))
        return unmap_dram_to_phys(coord, geo)

    rng = random.Random(5)
    rows = geo.rows_per_bank
    banks = geo.dimms * geo.ranks_per_dimm * geo.banks_per_rank
    pairs = [(rng.randrange(geo.capacity), rng.randrange(geo.capacity))
             for _ in range(300)]
    for bank in range(banks):
        first, last = bank * rows, bank * rows + rows - 1
        pairs += [(addr(first), addr(last)), (addr(last), addr(last))]
        if bank + 1 < banks:
            # Consecutive packed keys across the bank edge: not one bank.
            pairs.append((addr(last), addr(last + 1)))
    verdicts = [is_row_conflict_pair(a, b, geo) for a, b in pairs]
    assert verdicts == [truth(a, b) for a, b in pairs]
    assert True in verdicts and False in verdicts


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(p_high_given_conflict=1.5)
    with pytest.raises(ValueError):
        ChannelModel(p_low_given_other=-0.1)
    with pytest.raises(ValueError):
        ChannelModel(threshold_cycles=LOW_SPREAD + 1)


def _rate_check(model: ChannelModel, n: int = 10_000, seed: int = 1):
    geo = geo64()
    rng = random.Random(seed)
    conflict_hits = sum(
        sample_latency_phys(*conflict_pair(geo, rng), geo, model, rng).classified_conflict
        for _ in range(n)
    )
    other_lows = sum(
        not sample_latency_phys(*other_pair(geo, rng), geo, model, rng).classified_conflict
        for _ in range(n)
    )
    return conflict_hits / n, other_lows / n


def test_dell_rates_within_two_points():
    model = dell_profile().channel
    conflict_rate, other_rate = _rate_check(model)
    assert abs(conflict_rate - 0.927) < 0.02
    assert abs(other_rate - 0.974) < 0.02


def test_lenovo_rates_within_two_points():
    model = lenovo_profile().channel
    conflict_rate, other_rate = _rate_check(model)
    assert conflict_rate == 1.0
    assert abs(other_rate - 0.990) < 0.02


def test_classification_is_pure_threshold_rule():
    geo = geo64()
    model = ChannelModel(p_high_given_conflict=0.8, p_low_given_other=0.9)
    rng = random.Random(3)
    for _ in range(2000):
        pair = conflict_pair(geo, rng) if rng.random() < 0.5 else other_pair(geo, rng)
        s = sample_latency_phys(*pair, geo, model, rng)
        assert s.classified_conflict == (s.cycles >= model.threshold_cycles)
        assert s.cycles >= 0
        if s.classified_conflict:
            assert s.cycles <= model.threshold_cycles + HIGH_SPREAD
        else:
            assert s.cycles >= model.threshold_cycles - 1 - LOW_SPREAD


def test_sampling_deterministic():
    geo = geo64()
    model = ChannelModel(p_high_given_conflict=0.9, p_low_given_other=0.95)

    def run(seed):
        rng = random.Random(seed)
        return [sample_latency_phys(*conflict_pair(geo, rng), geo, model, rng)
                for _ in range(100)]

    assert run(11) == run(11)
    assert run(11) != run(12)


def _buffer_os():
    buddy = BuddyState([
        Partition("kernel", 0, 32 * MIB),
        Partition("user", 32 * MIB, 16 * MIB),
    ])
    # Geometry must cover both partitions: 2 banks x 4096 rows x 8 KiB = 64 MiB.
    geo = simple_mapping(banks=2, rows=4096, row_size=8192)
    os_model = OsModel(Dram(geo), buddy)
    buffer = os_model.open_video(2)
    os_model.map_buffer(buffer)
    return os_model, buffer


def test_select_hammer_pair_finds_true_conflict():
    os_model, buffer = _buffer_os()
    model = ChannelModel()  # perfect rates
    pages = buffer.page_vaddrs()
    (va, vb), attempts, (pa, pb) = select_hammer_pair(
        os_model, pages, model, random.Random(2))
    assert attempts >= 1
    # The physical pair is the one timed: the pages' frames, at offset 0.
    assert (pa, pb) == (os_model.translate(va) * PAGE_SIZE,
                        os_model.translate(vb) * PAGE_SIZE)
    assert is_row_conflict_pair(pa, pb, os_model.dram.geometry)


def test_select_hammer_pair_exhausts_on_single_row():
    os_model, buffer = _buffer_os()
    # First two pages of a chunk share one row: no true conflict exists,
    # and a perfect channel never misclassifies one into existence.
    pages = buffer.page_vaddrs()[:2]
    with pytest.raises(PairSelectionError):
        select_hammer_pair(os_model, pages, ChannelModel(),
                           random.Random(0), max_attempts=64)
    with pytest.raises(PairSelectionError):
        select_hammer_pair(os_model, pages[:1], ChannelModel(), random.Random(0))


def test_sample_latency_rejects_unmapped():
    os_model, _ = _buffer_os()
    with pytest.raises(ChannelError):
        sample_latency(os_model, 0xDEAD000, 0xBEEF000, ChannelModel(),
                       random.Random(0))
