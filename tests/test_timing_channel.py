"""Latency lobes, classification rates, and conflict-pair selection."""

from __future__ import annotations

import random
from functools import partial

import pytest

from hammersim.buddy_alloc import Block, BuddyState, Partition
from hammersim.dram_model import PAGE_SIZE, Dram, DramCoord, map_phys_to_dram
from hammersim.os_model import BufferChunk, DoubleOwnedBuffer, OsModel
from hammersim.profiles import dell_geometry, dell_profile, lenovo_profile, load_profile
from hammersim.timing_channel import (
    HIGH_SPREAD,
    LOW_SPREAD,
    ChannelError,
    ChannelModel,
    PairSelectionError,
    key_buffer,
    select_hammer_pair,
)

from helpers import (buffer_pages, first_pages, full_placement, is_row_conflict_pair,
                     reference_select_pair, sample_latency, sample_latency_phys,
                     simple_mapping, small_attack_sim, unmap_dram_to_phys)
from test_ambush import ODD_GEOMETRIES
from test_dram_model import AUX_GEOMETRY

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
    (va, vb), attempts, (pa, pb) = select_hammer_pair(
        key_buffer(buffer, os_model.dram.geometry), model, random.Random(2))
    assert attempts >= 1
    # The physical pair is the one timed: the pages' frames, at offset 0.
    assert (pa, pb) == (os_model.translate(va) * PAGE_SIZE,
                        os_model.translate(vb) * PAGE_SIZE)
    assert is_row_conflict_pair(pa, pb, os_model.dram.geometry)


def test_select_hammer_pair_exhausts_on_single_row():
    os_model, buffer = _buffer_os()
    # First two pages of a chunk share one row: no true conflict exists,
    # and a perfect channel never misclassifies one into existence.
    geo = os_model.dram.geometry
    with pytest.raises(PairSelectionError):
        select_hammer_pair(key_buffer(first_pages(buffer, 2), geo), ChannelModel(),
                           random.Random(0), max_attempts=64)
    with pytest.raises(PairSelectionError):
        select_hammer_pair(key_buffer(first_pages(buffer, 1), geo), ChannelModel(),
                           random.Random(0))


def test_sample_latency_rejects_unmapped():
    os_model, _ = _buffer_os()
    with pytest.raises(ChannelError):
        sample_latency(os_model, 0xDEAD000, 0xBEEF000, ChannelModel(),
                       random.Random(0))


# --- the per-sample reference ---

# A perfect channel, and one that misreads both kinds of pair.
RATES = (ChannelModel(), ChannelModel(p_high_given_conflict=0.7, p_low_given_other=0.9))


def _selection(select, pages, model, seed: int, max_attempts: int):
    rng = random.Random(seed)
    try:
        result = select(pages, model, rng, max_attempts=max_attempts)
    except PairSelectionError as exc:
        result = ("exhausted", exc.attempts)
    return result, rng.getstate()


def assert_selection_matches_reference(os_model, buffer, seeds=range(3)):
    """select_hammer_pair on the buffer keyed once against the per-sample
    reference: the same result or exhaustion, and the same generator state,
    for every page count 2..40 and the whole buffer."""
    geo = os_model.dram.geometry
    reference = partial(reference_select_pair, os_model)
    counts = sum(chunk.page_count() for chunk in buffer.chunks)
    for n in [*range(2, min(40, counts) + 1), counts]:
        cut = first_pages(buffer, n)
        pages = key_buffer(cut, geo)
        for model in RATES:
            for seed in seeds:
                for max_attempts in (3, 200):
                    got = _selection(select_hammer_pair, pages, model, seed, max_attempts)
                    want = _selection(reference, list(buffer_pages(cut)), model, seed, max_attempts)
                    assert got == want, (n, model, seed, max_attempts)


@pytest.mark.parametrize("profile,driver", [("dell", "video"), ("lenovo", "sg")])
def test_selection_matches_reference_on_profiles(profile, driver):
    os_model, placement = full_placement(profile, driver, 7)
    assert_selection_matches_reference(os_model, placement.buffer)


def test_selection_matches_reference_on_one_sg_open(tmp_path):
    ini = tmp_path / "one_open.ini"
    ini.write_text("[attack]\nsg_opens = 1\n")
    os_model, placement = full_placement(load_profile(str(ini)), "sg", 7)
    assert len(placement.buffer.chunks) == 1
    assert_selection_matches_reference(os_model, placement.buffer, seeds=range(10))


@pytest.mark.parametrize("name", sorted(ODD_GEOMETRIES))
def test_selection_matches_reference_on_odd_geometries(name):
    os_model, placement = small_attack_sim(geometry=ODD_GEOMETRIES[name], seed=1)
    assert_selection_matches_reference(os_model, placement.buffer)


@pytest.mark.parametrize("geo", [AUX_GEOMETRY, dell_geometry()], ids=["aux", "dell"])
def test_selection_matches_reference_on_unaligned_chunks(geo):
    # Chunks at unaligned frames of any length, as no driver places them:
    # the keyed blocks split them at every alignment.
    pages = geo.capacity // PAGE_SIZE
    rng = random.Random(5)
    for _ in range(3):
        os_model = OsModel(Dram(geo), BuddyState([Partition("kernel", 0, PAGE_SIZE)]))
        chunks = []
        for _ in range(rng.randrange(1, 4)):
            count = rng.randrange(1, min(pages, 300))
            block = Block("kernel", rng.randrange(pages - count + 1), count, "video_buffer")
            chunks.append(BufferChunk(block, count * PAGE_SIZE))
        buffer = DoubleOwnedBuffer("video", chunks)
        os_model.map_buffer(buffer)
        assert_selection_matches_reference(os_model, buffer, seeds=range(2))
