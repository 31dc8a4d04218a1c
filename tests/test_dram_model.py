"""Address mapping, row geometry, and hammer behavior."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hammersim.dram_model import (
    FLIP_DIRECTIONS,
    FLIP_ONE_TO_ZERO,
    FLIP_ZERO_TO_ONE,
    PAGE_SIZE,
    AddressRangeError,
    Dram,
    DramCoord,
    DramGeometry,
    HammerParams,
    MappingError,
    MappingSpec,
    VulnCalibration,
    VulnCell,
    VulnerabilityMap,
    derive_seed,
    map_phys_to_dram,
    page_row_keys,
    rows_size_per_row_index,
    target_block_size,
)
from hammersim.profiles import dell_geometry

from helpers import (cells_map, numpy_coord_keys, pack_row_key, reference_hammer,
                     simple_mapping, unmap_dram_to_phys, validate_coord)


# --- derive_seed ---


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "trial", 0) == derive_seed(1, "trial", 0)
    seen = {derive_seed(1, "trial", i) for i in range(100)}
    assert len(seen) == 100
    assert all(0 <= s < 2**64 for s in seen)


# --- mapping examples ---


def test_dell_dimm_select_bit():
    geo = dell_geometry()
    assert map_phys_to_dram(0x0FFFFFF, geo).dimm == 1
    assert map_phys_to_dram(0x1000000, geo).dimm == 0


def test_address_zero_maps_to_origin():
    for geo in (dell_geometry(), simple_mapping(banks=2, rows=4, row_size=4096)):
        assert map_phys_to_dram(0, geo) == DramCoord(0, 0, 0, 0, 0)


def test_row_block_sizes_dell():
    geo = dell_geometry()
    assert rows_size_per_row_index(geo) == 256 * 1024
    assert target_block_size(geo) == 512 * 1024


def test_row_block_sizes_degenerate():
    geo = DramGeometry(
        dimms=1,
        ranks_per_dimm=1,
        banks_per_rank=1,
        rows_per_bank=4,
        row_size=8192,
        mapping=MappingSpec.make(dimm=[], rank=[], bank=[], row_range=(13, 14)),
    )
    assert rows_size_per_row_index(geo) == 8 * 1024
    assert target_block_size(geo) == 16 * 1024


def test_row_block_sizes_two_dimm_four_bank():
    geo = DramGeometry(
        dimms=2,
        ranks_per_dimm=1,
        banks_per_rank=4,
        rows_per_bank=4,
        row_size=8192,
        mapping=MappingSpec.make(
            dimm=[[13]], rank=[], bank=[[14], [15]], row_range=(16, 17)
        ),
    )
    assert rows_size_per_row_index(geo) == 64 * 1024
    assert target_block_size(geo) == 128 * 1024


def test_out_of_range_address_rejected():
    geo = simple_mapping(banks=2, rows=4, row_size=4096)
    with pytest.raises(AddressRangeError):
        map_phys_to_dram(geo.capacity, geo)
    with pytest.raises(AddressRangeError):
        map_phys_to_dram(-1, geo)
    with pytest.raises(AddressRangeError):
        unmap_dram_to_phys(DramCoord(0, 0, 2, 0, 0), geo)


def test_invalid_mapping_specs_rejected():
    make = MappingSpec.make
    # Selector count must match the coordinate width.
    with pytest.raises(MappingError):
        DramGeometry(1, 1, 4, 4, 4096, make(dimm=[], rank=[], bank=[[12]],
                                            row_range=(13, 14)))
    # Duplicate primary bits.
    with pytest.raises(MappingError):
        DramGeometry(1, 1, 4, 4, 4096, make(dimm=[], rank=[],
                                            bank=[[12], [12]],
                                            row_range=(13, 14)))
    # Primary inside the row range.
    with pytest.raises(MappingError):
        DramGeometry(1, 1, 2, 4, 4096, make(dimm=[], rank=[], bank=[[13]],
                                            row_range=(12, 13)))
    # Row range must match rows_per_bank.
    with pytest.raises(MappingError):
        DramGeometry(1, 1, 2, 4, 4096, make(dimm=[], rank=[], bank=[[11]],
                                            row_range=(12, 14)))
    # Two selectors computing the same XOR leave the map singular.
    with pytest.raises(MappingError):
        DramGeometry(1, 1, 4, 4, 4096, make(dimm=[], rank=[],
                                            bank=[[12, 13], [13, 12]],
                                            row_range=(14, 15)))


# --- exhaustive bijectivity ---


def _exhaustive_check(geo: DramGeometry) -> None:
    keys = numpy_coord_keys(geo)
    assert np.unique(keys).size == geo.capacity
    # Cross-check the scalar mapper against the vectorized oracle on a
    # sample, then roundtrip through the inverse.
    rng = random.Random(7)
    for _ in range(200):
        addr = rng.randrange(geo.capacity)
        coord = map_phys_to_dram(addr, geo)
        validate_coord(coord, geo)
        assert unmap_dram_to_phys(coord, geo) == addr


def test_tiny_geometry_bijective_exhaustively():
    geo = simple_mapping(banks=2, rows=4, row_size=4096)
    assert geo.capacity == 32 * 1024
    seen = set()
    for addr in range(geo.capacity):
        coord = map_phys_to_dram(addr, geo)
        key = (coord.dimm, coord.rank, coord.bank, coord.row, coord.column)
        assert key not in seen
        seen.add(key)
        assert unmap_dram_to_phys(coord, geo) == addr
    assert len(seen) == geo.capacity


def test_dell_mapping_roundtrip_sampled():
    geo = dell_geometry()
    rng = random.Random(11)
    for _ in range(2000):
        addr = rng.randrange(geo.capacity)
        assert unmap_dram_to_phys(map_phys_to_dram(addr, geo), geo) == addr


def test_selector_may_xor_another_primary():
    # bank0 = a12 ^ a13 and bank1 = a13 is invertible even though bit 13 is
    # both a primary and an auxiliary bit.
    geo = DramGeometry(1, 1, 4, 4, 4096, MappingSpec.make(
        dimm=[], rank=[], bank=[[12, 13], [13]], row_range=(14, 15)))
    _exhaustive_check(geo)
    assert map_phys_to_dram(1 << 13, geo).bank == 0b11


@st.composite
def small_geometries(draw) -> DramGeometry:
    dimms = draw(st.sampled_from([1, 2]))
    ranks = draw(st.sampled_from([1, 2]))
    banks = draw(st.sampled_from([1, 2, 4]))
    rows = draw(st.sampled_from([2, 4, 8]))
    row_size = draw(st.sampled_from([4096, 8192]))
    nd = dimms.bit_length() - 1
    nr = ranks.bit_length() - 1
    nb = banks.bit_length() - 1
    nrow = rows.bit_length() - 1
    addr_bits = nd + nr + nb + nrow + (row_size.bit_length() - 1)

    row_lo = draw(st.integers(0, addr_bits - nrow))
    row_set = set(range(row_lo, row_lo + nrow))
    pool = [b for b in range(addr_bits) if b not in row_set]
    order = draw(st.permutations(pool))
    primaries = order[: nd + nr + nb]
    aux_pool = [b for b in range(addr_bits) if b not in set(primaries)]

    def selector(primary: int) -> list[int]:
        bits = [primary]
        if aux_pool and draw(st.booleans()):
            bits.append(draw(st.sampled_from(aux_pool)))
        return bits

    it = iter(primaries)
    spec = MappingSpec.make(
        dimm=[selector(next(it)) for _ in range(nd)],
        rank=[selector(next(it)) for _ in range(nr)],
        bank=[selector(next(it)) for _ in range(nb)],
        row_range=(row_lo, row_lo + nrow - 1),
    )
    return DramGeometry(dimms, ranks, banks, rows, row_size, spec)


@given(small_geometries())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_mappings_are_bijective(geo):
    _exhaustive_check(geo)


def test_row_aligned_block_covers_rows_completely():
    geo = simple_mapping(banks=2, rows=16, row_size=8192)
    span = rows_size_per_row_index(geo)
    for base in (0, span, 3 * span):
        per_row: dict[tuple[int, int, int, int], int] = {}
        rows_seen = set()
        for addr in range(base, base + span):
            coord = map_phys_to_dram(addr, geo)
            rows_seen.add(coord.row)
            key = (coord.dimm, coord.rank, coord.bank, coord.row)
            per_row[key] = per_row.get(key, 0) + 1
        # One row index, every bank, each row complete.
        assert len(rows_seen) == 1
        assert len(per_row) == geo.banks_per_rank
        assert all(count == geo.row_size for count in per_row.values())


# --- row adjacency and page row keys ---


def test_page_row_keys_span():
    # Dell's DIMM selector sits inside the page offset, so one 4 KiB page
    # interleaves across both DIMMs.
    keys = page_row_keys(0, dell_geometry())
    assert len(keys) == 2
    assert {k[0] for k in keys} == {0, 1}
    # The simple layout keeps whole pages inside one row.
    geo = simple_mapping(banks=2, rows=16, row_size=8192)
    assert len(page_row_keys(3, geo)) == 1


# In-page auxiliary bits (7 and 9) under bank selectors whose primaries sit
# above the page offset split every page across all four banks, on top of
# the in-page DIMM primary (bit 6): 8 row keys per page.
AUX_GEOMETRY = DramGeometry(2, 1, 4, 8, 8192, MappingSpec.make(
    dimm=[[6, 15]], rank=[], bank=[[13, 7], [14, 9, 16]], row_range=(15, 17)))
AUX_ROW_KEYS = numpy_coord_keys(AUX_GEOMETRY) // np.uint64(AUX_GEOMETRY.row_size)


def test_page_row_keys_match_oracle():
    geo, row_keys = AUX_GEOMETRY, AUX_ROW_KEYS
    for pfn in range(geo.capacity // PAGE_SIZE):
        truth = set(row_keys[pfn * PAGE_SIZE:(pfn + 1) * PAGE_SIZE].tolist())
        packed = {pack_row_key(geo, *key) for key in page_row_keys(pfn, geo)}
        assert packed == truth
        assert len(packed) == 8


def test_row_key_of_matches_oracle():
    geo, row_keys = AUX_GEOMETRY, AUX_ROW_KEYS
    for addr in range(0, geo.capacity, 61):
        assert geo.row_key_of(addr) == row_keys[addr]
    assert geo.row_key_of(geo.capacity - 1) == row_keys[-1]
    for bad in (-1, geo.capacity):
        with pytest.raises(AddressRangeError):
            geo.row_key_of(bad)


def test_packed_row_keys_of_many_pages():
    geo = dell_geometry()
    last = geo.capacity // PAGE_SIZE - 1
    runs = [range(pfn, pfn + 1) for pfn in (0, 1, 7, 4096, 12345, last)]
    union = set().union(*(geo.packed_row_keys([run]) for run in runs))
    assert geo.packed_row_keys(runs) == union
    assert geo.packed_row_keys([range(8, 8)]) == set()
    for bad in ([range(-1, 1)], [range(3, 4), range(last + 1, last + 2)]):
        with pytest.raises(AddressRangeError):
            geo.packed_row_keys(bad)


@st.composite
def page_runs(draw, pages: int, max_length: int) -> range:
    """A run of up to max_length pages inside capacity, often a long one,
    from an unaligned start, a start aligned to 2**11 pages, or ending on
    the last page."""
    top = min(max_length, pages)
    length = draw(st.integers(0, top) | st.integers(top // 2, top))
    start = draw(st.integers(0, pages - length)
                 | st.integers(0, (pages - length) >> 11).map(lambda i: i << 11)
                 | st.just(pages - length))
    return range(start, start + length)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_packed_row_keys_of_runs_are_exact(data):
    # Runs cross the precomputed block order (2**10 pages) on dell; the
    # in-page auxiliary geometry has only 128 pages.
    geo, pages = AUX_GEOMETRY, AUX_GEOMETRY.capacity // PAGE_SIZE
    run = data.draw(page_runs(pages, pages), label="aux run")
    truth = set(AUX_ROW_KEYS[run.start * PAGE_SIZE:run.stop * PAGE_SIZE].tolist())
    assert geo.packed_row_keys([run]) == truth

    dell = dell_geometry()
    pages = dell.capacity // PAGE_SIZE
    runs = data.draw(st.lists(page_runs(pages, 3000), max_size=2), label="dell runs")
    union = set().union(*(dell.packed_row_keys([range(pfn, pfn + 1)])
                          for run in runs for pfn in run))
    assert dell.packed_row_keys(runs) == union

    length = data.draw(st.integers(1, 3000), label="outside length")
    start = data.draw(st.integers(-length, -1) | st.integers(pages - length + 1, pages),
                      label="outside start")
    with pytest.raises(AddressRangeError):
        dell.packed_row_keys([range(start, start + length)])


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_page_keys_are_each_pages_first_byte_key(data):
    # Per aligned block against the numpy oracle on the in-page auxiliary
    # geometry, and against one row_key_of per page on dell, in run order.
    geo, pages = AUX_GEOMETRY, AUX_GEOMETRY.capacity // PAGE_SIZE
    runs = data.draw(st.lists(page_runs(pages, pages), max_size=3), label="aux runs")
    assert geo.page_keys(runs) == [int(AUX_ROW_KEYS[pfn * PAGE_SIZE])
                                   for run in runs for pfn in run]

    dell = dell_geometry()
    pages = dell.capacity // PAGE_SIZE
    runs = data.draw(st.lists(page_runs(pages, 3000), max_size=2), label="dell runs")
    assert dell.page_keys(runs) == [dell.row_key_of(pfn * PAGE_SIZE)
                                    for run in runs for pfn in run]
    with pytest.raises(AddressRangeError):
        dell.page_keys([range(3, 4), range(pages - 1, pages + 1)])


# --- vulnerability map ---


def test_vuln_map_query_order_independent():
    geo = simple_mapping(banks=2, rows=64, row_size=8192)
    cal = VulnCalibration(weak_row_rate=0.5, cells_per_weak_row=3.0)
    a = VulnerabilityMap(geo, cal, seed=99)
    b = VulnerabilityMap(geo, cal, seed=99)
    keys = [pack_row_key(geo, 0, 0, bank, row) for bank in range(2) for row in range(64)]
    for key in keys:
        a.cells_in_row(key)
    for key in reversed(keys):
        b.cells_in_row(key)
    for key in keys:
        assert a.cells_in_row(key) == b.cells_in_row(key)


def test_vuln_map_cell_count_past_exp_underflow():
    # exp(-1000) underflows to zero: one product draw would stop near 745.
    geo = simple_mapping(banks=2, rows=128, row_size=8192)
    cal = VulnCalibration(weak_row_rate=1.0, cells_per_weak_row=1000.0)
    vm = VulnerabilityMap(geo, cal, seed=3)
    counts = [len(vm.cells_in_row(pack_row_key(geo, 0, 0, bank, row)))
              for bank in range(2) for row in range(100)]
    assert abs(sum(counts) / len(counts) - 1000) < 50


def test_vuln_map_from_cells_and_validation():
    geo = simple_mapping(banks=2, rows=16, row_size=8192)
    cell = VulnCell(100, 3, 1.0, FLIP_ONE_TO_ZERO)
    vm = cells_map(geo, [((0, 0, 1, 5), cell)])
    assert vm.cells_in_row(pack_row_key(geo, 0, 0, 1, 5)) == (cell,)
    assert vm.cells_in_row(pack_row_key(geo, 0, 0, 0, 5)) == ()
    with pytest.raises(ValueError):
        VulnCell(0, 9, 1.0, FLIP_ONE_TO_ZERO)
    with pytest.raises(ValueError):
        VulnCell(0, 0, 1.5, FLIP_ONE_TO_ZERO)
    for bad in (dict(weak_row_rate=2.0), dict(cells_per_weak_row=-1.0),
                dict(cells_per_weak_row=math.nan), dict(cell_probability=1.5)):
        with pytest.raises(ValueError):
            VulnCalibration(**bad)


# --- hammering ---


def _geo16() -> DramGeometry:
    return simple_mapping(banks=2, rows=16, row_size=8192)


def _addr(geo: DramGeometry, bank: int, row: int, column: int = 0) -> int:
    return unmap_dram_to_phys(DramCoord(0, 0, bank, row, column), geo)


def test_hammer_different_banks_never_flips():
    geo = _geo16()
    # Saturated map: every row weak, plenty of certain cells.
    cal = VulnCalibration(weak_row_rate=1.0, cells_per_weak_row=8.0, cell_probability=1.0)
    vm = VulnerabilityMap(geo, cal, seed=1)
    dram = Dram(geo, vm)
    flips = dram.hammer(
        [_addr(geo, 0, 4), _addr(geo, 1, 4)],
        reps=10_000_000,
        rng=random.Random(0),
    )
    assert flips == []


def test_double_sided_fires_exactly_the_planted_cell():
    # Aggressor rows 4 and 6 of one bank sandwich victim row 5: the pair
    # conflicts, both neighbours draw the cell, and it is reported once.
    geo = _geo16()
    coord = DramCoord(0, 0, 1, 5, 123)
    cell = VulnCell(123, 6, 1.0, FLIP_ONE_TO_ZERO)
    dram = Dram(geo, cells_map(geo, [((0, 0, 1, 5), cell)]))
    flips = dram.hammer(
        [_addr(geo, 1, 4), _addr(geo, 1, 6)],
        reps=dram.params.dose * 2,  # overcome the 0.5 multiplier
        rng=random.Random(0),
    )
    assert len(flips) == 1
    flip = flips[0]
    assert map_phys_to_dram(flip.addr, geo) == coord
    assert flip.bit == 6
    assert flip.direction == FLIP_ONE_TO_ZERO
    assert flip.addr == unmap_dram_to_phys(coord, geo)


def test_cells_at_one_column_and_bit_of_two_victim_rows_both_fire():
    # Rows 3 and 5 sit on either side of aggressor row 4 and hold a cell at
    # the same column and bit: two cells, two flips, though one aggressor
    # reaches both.
    geo = _geo16()
    cell = VulnCell(123, 6, 1.0, FLIP_ONE_TO_ZERO)
    dram = Dram(geo, cells_map(geo, [((0, 0, 1, 3), cell), ((0, 0, 1, 5), cell)]))
    flips = dram.hammer([_addr(geo, 1, 4), _addr(geo, 1, 12)], dram.params.dose * 2,
                        random.Random(0))
    assert [map_phys_to_dram(f.addr, geo) for f in flips] == [
        DramCoord(0, 0, 1, 3, 123), DramCoord(0, 0, 1, 5, 123)]


def test_single_sided_needs_bank_conflict_to_flip():
    geo = _geo16()
    coord = DramCoord(0, 0, 0, 5, 123)
    cell = VulnCell(123, 6, 1.0, FLIP_ZERO_TO_ONE)
    dram = Dram(geo, cells_map(geo, [((0, 0, 0, 5), cell)]))
    reps = dram.params.dose * 2  # overcome the 0.5 multiplier
    # Lone aggressor next to the victim: row buffer stays open, no flips.
    assert dram.hammer([_addr(geo, 0, 4)], reps, random.Random(0)) == []
    # Same aggressor plus a far row in the same bank: conflict, and the
    # planted cell fires exactly.
    flips = dram.hammer([_addr(geo, 0, 4), _addr(geo, 0, 12)], reps,
                        random.Random(0))
    assert len(flips) == 1
    flip = flips[0]
    assert map_phys_to_dram(flip.addr, geo) == coord
    assert flip.bit == 6
    assert flip.direction == FLIP_ZERO_TO_ONE
    assert flip.addr == unmap_dram_to_phys(coord, geo)


def test_single_sided_flips_at_bank_edge():
    # Victim row 0 via aggressor row 1: the lower neighbour is the edge.
    geo = _geo16()
    edge_cell = VulnCell(9, 1, 1.0, FLIP_ONE_TO_ZERO)
    dram = Dram(geo, cells_map(geo, [((0, 0, 0, 0), edge_cell)]))
    reps = dram.params.dose * 2  # overcome the 0.5 multiplier
    flips = dram.hammer([_addr(geo, 0, 1), _addr(geo, 0, 9)], reps,
                        random.Random(3))
    assert [map_phys_to_dram(f.addr, geo) for f in flips] == [DramCoord(0, 0, 0, 0, 9)]


def test_hammer_mode_validation():
    geo = _geo16()
    dram = Dram(geo)
    rng = random.Random(0)
    with pytest.raises(ValueError):
        dram.hammer([], 1000, rng)
    with pytest.raises(ValueError):
        dram.hammer([_addr(geo, 0, 4)], 0, rng)


def test_activation_accounting():
    geo = _geo16()
    dram = Dram(geo)
    dram.hammer([_addr(geo, 0, 4), _addr(geo, 0, 8)], 500,
                random.Random(0))
    assert dram.total_activations == 1000
    # A lone row is opened once, not hammered.
    dram.hammer([_addr(geo, 1, 3)], 500, random.Random(0))
    assert dram.total_activations == 1001


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 15)),
                min_size=1, max_size=5),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_flips_confined_to_adjacent_rows(rows, seed):
    geo = _geo16()
    cal = VulnCalibration(weak_row_rate=1.0, cells_per_weak_row=4.0, cell_probability=1.0)
    vm = VulnerabilityMap(geo, cal, seed=5)
    dram = Dram(geo, vm)
    addrs = [_addr(geo, bank, row) for bank, row in rows]
    flips = dram.hammer(addrs, 10_000_000, random.Random(seed))
    per_bank: dict[int, set[int]] = {}
    for bank, row in rows:
        per_bank.setdefault(bank, set()).add(row)
    allowed = set()
    for bank, bank_rows in per_bank.items():
        if len(bank_rows) < 2:
            continue  # no conflict, no hammering in this bank
        for row in bank_rows:
            allowed.update([(bank, row - 1), (bank, row + 1)])
    for flip in flips:
        coord = map_phys_to_dram(flip.addr, geo)
        assert (coord.bank, coord.row) in allowed
        assert flip.direction in FLIP_DIRECTIONS
    # No duplicate cells in one call.
    idents = [(f.addr, f.bit) for f in flips]
    assert len(idents) == len(set(idents))


def test_hammer_reproducible_bit_for_bit():
    geo = simple_mapping(banks=4, rows=64, row_size=8192)
    results = []
    for _ in range(2):
        cal = VulnCalibration(weak_row_rate=0.3, cells_per_weak_row=2.0, cell_probability=0.7)
        vm = VulnerabilityMap(geo, cal, seed=42)
        dram = Dram(geo, vm)
        rng = random.Random(42)
        run = []
        for row in (4, 8, 20, 33):
            run.extend(dram.hammer(
                [_addr(geo, 1, row), _addr(geo, 1, row + 2)],
                500_000, rng))
        results.append(run)
    assert results[0] == results[1]


@st.composite
def aggressor_lists(draw, geo: DramGeometry) -> list[int]:
    """Up to 6 aggressor addresses in one or two banks, on rows near one
    base row, often the first or the last row of the bank."""
    rows = geo.rows_per_bank
    banks = draw(st.lists(st.tuples(st.integers(0, geo.dimms - 1),
                                    st.integers(0, geo.ranks_per_dimm - 1),
                                    st.integers(0, geo.banks_per_rank - 1)),
                          min_size=1, max_size=2))
    base = draw(st.sampled_from([0, rows - 1]) | st.integers(0, rows - 1))
    row = (st.integers(-2, 2).map(lambda d: min(max(base + d, 0), rows - 1))
           | st.sampled_from([0, rows - 1]))
    coords = draw(st.lists(st.tuples(st.sampled_from(banks), row,
                                     st.integers(0, geo.row_size - 1)),
                           min_size=1, max_size=6))
    return [unmap_dram_to_phys(DramCoord(*bank, r, column), geo)
            for bank, r, column in coords]


@pytest.mark.parametrize("geo", [_geo16(), AUX_GEOMETRY, dell_geometry()],
                         ids=["geo16", "aux", "dell"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_hammer_matches_tuple_reference(geo, data):
    aggressors = data.draw(aggressor_lists(geo), label="aggressors")
    reps = data.draw(st.sampled_from([1, 400_000, 2_000_000]), label="reps")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    cal = VulnCalibration(weak_row_rate=0.7, cells_per_weak_row=3.0, cell_probability=0.6)
    packed = Dram(geo, VulnerabilityMap(geo, cal, seed=seed))
    tupled = Dram(geo, VulnerabilityMap(geo, cal, seed=seed))
    rng_packed, rng_tupled = random.Random(seed), random.Random(seed)
    flips = packed.hammer(aggressors, reps, rng_packed)
    assert flips == reference_hammer(tupled, aggressors, reps, rng_tupled)
    assert packed.total_activations == tupled.total_activations
    assert rng_packed.getstate() == rng_tupled.getstate()
