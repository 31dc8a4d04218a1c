"""Placement arithmetic, small-block draining, and interleaved stuffing."""

from __future__ import annotations

import random
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammersim.ambush import (
    DRIVER_SG,
    DRIVER_VIDEO,
    PlacementError,
    PlanError,
    drain_small_blocks,
    plan,
    run_ambush,
    verify_adjacency,
)
from hammersim.buddy_alloc import FRESH, Block, BuddyState, Partition, preload_workload
from hammersim.dram_model import (PAGE_SIZE, Dram, DramGeometry, MappingSpec,
                                  rows_size_per_row_index, target_block_size)
from hammersim.os_model import MARKER, PT_SPAN, BufferChunk, OsModel
from hammersim.profiles import get_profile

from helpers import (assert_guarded, full_placement, page_row_keys, reference_adjacency,
                     simple_mapping, small_attack_sim, unpacked_pairs)

MIB = 1024 * 1024
DELL_ROW_SPAN = rows_size_per_row_index(get_profile("dell").geometry)


# --- plan arithmetic ---


def test_plan_video_88mib():
    p = plan(88 * MIB, DRIVER_VIDEO)
    assert p.dev_request_bytes == 32 * 600 * 1024
    assert p.dev_buf_size == 18 * MIB
    assert p.file_size == 2 * MIB
    assert p.pt_size == 68 * MIB
    assert p.map_mem_size == 68 * MIB * 512
    assert p.vma_num == 17408
    assert p.pt_size // PAGE_SIZE == 17408


def test_plan_sg_109mib():
    p = plan(109 * MIB, DRIVER_SG)
    assert p.dev_request_bytes == 256 * 124 * 1024
    assert p.dev_buf_size == 31 * MIB
    assert p.pt_size == 76 * MIB
    assert p.vma_num == 19456


def test_plan_doubles_file_under_vma_pressure():
    p = plan(400 * MIB, DRIVER_VIDEO)
    assert p.file_size == 4 * MIB
    assert p.pt_size == 378 * MIB
    assert p.vma_num == 48384
    assert p.vma_num < p.vma_limit


def test_plan_boundary_and_errors():
    # Exactly buffers + file leaves a zero table budget.
    p = plan(20 * MIB, DRIVER_VIDEO)
    assert p.pt_size == 0 and p.vma_num == 0
    with pytest.raises(PlanError):
        plan(19 * MIB, DRIVER_VIDEO)
    with pytest.raises(PlanError):
        plan(88 * MIB, "floppy")
    with pytest.raises(PlanError):
        plan(88 * MIB, DRIVER_VIDEO, file_size=3 * MIB)


@given(st.integers(21, 500), st.integers(1, 1021), st.integers(1, 124))
@settings(max_examples=80, deadline=None)
def test_plan_invariants(threshold_mib, opens, reserved_kib):
    threshold = threshold_mib * MIB
    for driver, kwargs in ((DRIVER_VIDEO, {}),
                           (DRIVER_SG, dict(sg_opens=opens,
                                            sg_reserved=reserved_kib * 1024))):
        try:
            p = plan(threshold, driver, **kwargs)
        except PlanError:
            continue  # threshold too small for this buffer request
        assert p.pt_size == threshold - p.dev_buf_size - p.file_size
        assert p.pt_size >= 0
        assert p.map_mem_size == p.pt_size * 512
        assert p.vma_num == p.map_mem_size // p.file_size
        assert p.vma_num < p.vma_limit
        assert p.driver == driver
        assert p.dev_request_bytes == p.chunk_size * p.chunk_count
        assert p.dev_buf_size == p.dev_request_bytes // MIB * MIB
        assert p.dev_buf_size <= p.dev_request_bytes < p.dev_buf_size + MIB
        assert p.file_size % (2 * MIB) == 0
        # A buffer is allocated at least its request, in whole pages or
        # whole row spans, so the table room run_ambush works out never
        # exceeds the plan's mapping budget.
        map_bytes = PAGE_SIZE * (p.file_size // PT_SPAN)  # tables per mapping
        for unit in (PAGE_SIZE, DELL_ROW_SPAN):
            buffers = p.chunk_count * -(-p.chunk_size // unit) * unit
            assert buffers >= p.dev_buf_size
            assert (threshold - p.file_size - buffers) // map_bytes <= p.vma_num


# --- execution fixtures ---


def build_sim(*, residue=2 * MIB, fresh=0, seed=1):
    geo = simple_mapping(banks=2, rows=8192, row_size=8192)  # 128 MiB
    span = 2 * 8192
    buddy = BuddyState(
        [Partition("kernel", 0, 64 * MIB),
         Partition("user", 64 * MIB + span, 63 * MIB)],
        row_span=span,
    )
    os_model = OsModel(Dram(geo), buddy)
    # The low reserve keeps enough pristine max-order blocks for the
    # device buffers and tables, as the full-scale profiles do.
    preload_workload(
        buddy, "kernel",
        residue_bytes=residue,
        bulk_bytes=8 * MIB,
        reserve_low_bytes=40 * MIB,
        small_max_order=2,
        rng=random.Random(seed),
        fresh_bytes=fresh,
    )
    return os_model


def video_room(threshold):
    """The table room, in mappings of a 2 MiB file, that run_ambush leaves
    at threshold beside unguarded video buffers."""
    return (threshold - 2 * MIB - 32 * 600 * 1024) // PAGE_SIZE


def test_drain_consumes_exactly_the_residue():
    os_model = build_sim(residue=2 * MIB)
    target_order = (target_block_size(os_model.dram.geometry)
                    // PAGE_SIZE).bit_length() - 1
    assert os_model.buddy.free_pages_below("kernel", target_order) == 2 * MIB // PAGE_SIZE
    file = os_model.create_tmp_file(2 * MIB)
    drained, injected = drain_small_blocks(os_model, file, video_room(24 * MIB))
    assert drained == 2 * MIB // PAGE_SIZE
    assert injected == 0
    assert os_model.buddy.free_pages_below("kernel", target_order) == 0
    # The drain consumed small blocks only: every table sits below the
    # target order, so no pristine large block was broken.
    assert sum(run.count for run in os_model.vmas) == drained


def test_drain_on_pristine_pool_is_a_noop():
    os_model = build_sim(residue=0)
    file = os_model.create_tmp_file(2 * MIB)
    drained, _ = drain_small_blocks(os_model, file, video_room(24 * MIB))
    assert drained == 0
    assert os_model.vmas == []


def test_drain_absorbs_fresh_blocks_up_to_cap():
    os_model = build_sim(residue=2 * MIB, fresh=1 * MIB)
    file = os_model.create_tmp_file(2 * MIB)
    drained, injected = drain_small_blocks(os_model, file, video_room(24 * MIB))
    assert injected == 1 * MIB
    assert drained == 3 * MIB // PAGE_SIZE
    assert os_model.buddy.free_pages_below("kernel", 3) == 0


def _drain_one_map_at_a_time(small_pages, per_map, cap_bytes):
    """The drain as a loop of single mappings: the maps made."""
    maps = 0
    while maps * per_map < small_pages:
        if maps * per_map * PAGE_SIZE >= cap_bytes:
            break
        maps += 1
    return maps


@pytest.mark.parametrize("per_map", [1, 2])
def test_drain_count_matches_one_at_a_time_loop(per_map):
    # Each phase's count against the loop: the first capped by the room,
    # the second by the fresh bytes and what the first left of the room.
    geometry = simple_mapping(banks=2, rows=8192, row_size=8192)
    file = SimpleNamespace(templates=(b"",) * per_map)
    unit = per_map * PAGE_SIZE
    caps = (0, 1, PAGE_SIZE, 2 * PAGE_SIZE, 3 * PAGE_SIZE + 1)
    for small, small_after, fresh_bytes, room in product(range(6), range(6), caps, range(5)):
        calls, freed = [], []
        fresh = [SimpleNamespace(owner=FRESH, size=fresh_bytes)] * bool(fresh_bytes)
        os_model = SimpleNamespace(
            dram=SimpleNamespace(geometry=geometry),
            buddy=SimpleNamespace(
                free_pages_below=lambda *_: small_after if freed else small,
                blocks=lambda *_: iter(fresh), free=freed.append),
            vmas=[],
            mmap_primitive=lambda f, count: calls.append(count) or os_model.vmas.append(f),
            write_markers=lambda f: calls.append("markers"))
        first = _drain_one_map_at_a_time(small, per_map, room * unit)
        second = _drain_one_map_at_a_time(small_after, per_map,
                                          min(fresh_bytes, (room - first) * unit))
        assert drain_small_blocks(os_model, file, room) == (
            (first + second) * per_map, fresh_bytes)
        made = [count for count in (first, second) if count]
        assert calls == made[:1] + ["markers"] * bool(made) + made[1:]


def test_run_ambush_marks_the_file_once_across_its_mappings():
    os_model = build_sim(residue=2 * MIB, fresh=1 * MIB)
    placement = run_ambush(os_model, plan(24 * MIB, DRIVER_VIDEO))
    runs = os_model.vmas
    assert [run.count for run in runs] == [512, 256, video_room(24 * MIB) - 768]
    assert placement.pt_pages == video_room(24 * MIB)
    for vaddr in (runs[0].base, runs[-1].end - PAGE_SIZE):
        assert os_model.read_u64_virtual(vaddr) == MARKER


def test_run_ambush_with_no_table_room_maps_nothing():
    # The threshold holds exactly the file and the buffers as allocated,
    # although the plan, which charges the buffers at whole mebibytes,
    # budgets 192 mappings.
    os_model = build_sim(residue=2 * MIB)
    p = plan(2 * MIB + 32 * 600 * 1024, DRIVER_VIDEO)
    assert p.vma_num == 192 and video_room(p.threshold_mem_size) == 0
    placement = run_ambush(os_model, p)
    assert os_model.vmas == [] and placement.pt_pages == 0
    assert placement.footprint_bytes == p.threshold_mem_size
    # The residue is still free (the buffers' block tails add to it).
    assert os_model.buddy.free_pages_below("kernel", 3) >= 2 * MIB // PAGE_SIZE
    assert all(os_model.memory.read_u64(pfn * PAGE_SIZE) == 0
               for pfn in placement.file.pfns)


def test_run_ambush_refuses_buffers_and_file_past_the_threshold():
    os_model = build_sim(residue=2 * MIB)
    with pytest.raises(PlacementError, match="buffers and file alone exceed"):
        run_ambush(os_model, plan(20 * MIB, DRIVER_VIDEO))
    assert os_model.vmas == []


def test_run_ambush_fills_the_budget_with_a_capped_drain():
    # sg buffers are exactly 31 MiB, so the room equals the plan's budget,
    # and the 512 small pages outlast it: the drain takes the whole room.
    os_model = build_sim(residue=2 * MIB)
    p = plan(34 * MIB, DRIVER_SG)
    assert p.dev_request_bytes == p.dev_buf_size == 31 * MIB and p.vma_num == 256
    placement = run_ambush(os_model, p)
    assert (placement.drained_pt_pages, placement.stuffed_pt_pages) == (256, 0)
    assert placement.footprint_bytes == 34 * MIB


# --- full placement ---


def test_run_ambush_caps_footprint_at_threshold():
    os_model = build_sim(residue=2 * MIB)
    threshold = 24 * MIB
    placement = run_ambush(os_model, plan(threshold, DRIVER_VIDEO))
    assert placement.footprint_bytes <= threshold
    # Video chunks are page granular, so the cap binds exactly here.
    assert placement.footprint_bytes == threshold
    assert placement.drained_pt_pages == 512
    assert placement.stuffed_pt_pages > 0
    assert placement.buffer is not None
    assert placement.buffer.allocated_bytes == 32 * 600 * 1024
    assert sum(run.count for run in os_model.vmas) == placement.pt_pages
    # Nothing small is left over after the stuffing phase.
    assert os_model.buddy.free_pages_below("kernel", 3) == 0


def test_run_ambush_interleaves_buffers_with_tables():
    os_model = build_sim(residue=2 * MIB)
    placement = run_ambush(os_model, plan(24 * MIB, DRIVER_VIDEO))
    report = verify_adjacency(os_model, placement)
    assert report.adjacent
    assert len(report.pairs) > 0
    # Every reported pair is a buffer row next to a table row in one bank.
    for buffer_row, pt_row in unpacked_pairs(os_model.dram.geometry, report.pairs):
        assert buffer_row[:3] == pt_row[:3]
        assert abs(buffer_row[3] - pt_row[3]) == 1


def test_run_ambush_mitigated_has_no_adjacency():
    os_model = build_sim(residue=2 * MIB)
    placement = run_ambush(os_model, plan(26 * MIB, DRIVER_VIDEO),
                           mitigation=True)
    report = verify_adjacency(os_model, placement)
    assert not report.adjacent
    assert report.pairs == ()
    # Guard rows cost two spans per chunk: one "guard" run each.
    span = 2 * 8192
    for chunk in placement.buffer.chunks:
        assert_guarded(os_model.buddy, chunk.block, span)
    guards = [run for run in os_model.buddy._runs if run.owner == "guard"]
    assert len(guards) == len(placement.buffer.chunks) == 32


@pytest.mark.parametrize("table_row, adjacent", [
    ((0, 63), False),  # last row of bank 0: the packed key just below
    ((1, 1), True),
])
def test_adjacency_stops_at_bank_edges(table_row, adjacent):
    # simple_mapping packs keys as bank * 64 + row, so row 0 of bank 1 and
    # row 63 of bank 0 are consecutive keys but not neighbours.
    geo = simple_mapping(banks=2, rows=64, row_size=8192)

    def page(bank, row):
        return ((row << 14) | (bank << 13)) // PAGE_SIZE

    table = page(*table_row)
    os_model = SimpleNamespace(dram=SimpleNamespace(geometry=geo),
                               pt_pfns=lambda: {table},
                               pt_runs=[range(table, table + 1)])
    chunk = BufferChunk(Block("kernel", page(1, 0), 1, "t"), PAGE_SIZE)
    placement = SimpleNamespace(buffer=SimpleNamespace(chunks=[chunk]))
    report = verify_adjacency(os_model, placement)
    assert report == reference_adjacency(os_model, placement)
    assert report.adjacent == adjacent
    assert unpacked_pairs(geo, report.pairs) == (((0, 0, 1, 0), (0, 0, *table_row)),) * adjacent


# Guard rows for 256 sg buffers do not fit the lenovo pool, so the guarded
# lenovo case uses the video driver.
@pytest.mark.parametrize("profile, driver, mitigation", [
    ("dell", DRIVER_VIDEO, False),
    ("dell", DRIVER_VIDEO, True),
    ("lenovo", DRIVER_SG, False),
    ("lenovo", DRIVER_VIDEO, True),
])
def test_packed_key_adjacency_matches_tuple_reference(profile, driver, mitigation):
    for seed in (1, 2):
        os_model, placement = full_placement(profile, driver, seed,
                                             mitigation=mitigation)
        report = verify_adjacency(os_model, placement)
        assert report == reference_adjacency(os_model, placement)
        assert report.adjacent != mitigation


# 128 MiB geometries the builtin profiles do not cover, with 8 KiB rows
# and column bits wherever the others leave room.
ODD_GEOMETRIES = {
    # Row bits 8-20: a page spans 16 row indexes.
    "row bits below the page": DramGeometry(
        1, 1, 2, 8192, 8192, MappingSpec.make([], [], [[21]], (8, 20))),
    # The bank bit is address bit 13 XOR row bit 16.
    "bank folds a row bit": DramGeometry(
        1, 1, 2, 8192, 8192, MappingSpec.make([], [], [[13, 16]], (14, 26))),
    # Bank, rank and dimm bits sit above the row bits 13-22, so the row
    # index repeats every 8 MiB, and a slice of one row index is 2 pages.
    "row bits not on top": DramGeometry(
        2, 2, 4, 1024, 8192, MappingSpec.make([[25]], [[24]], [[12], [23]], (13, 22))),
}


@pytest.mark.parametrize("mitigation", [False, True], ids=["unguarded", "guarded"])
@pytest.mark.parametrize("name", sorted(ODD_GEOMETRIES))
def test_adjacency_matches_tuple_reference_on_odd_geometries(name, mitigation):
    for seed in (1, 2):
        os_model, placement = small_attack_sim(geometry=ODD_GEOMETRIES[name], seed=seed,
                                               mitigation=mitigation)
        assert verify_adjacency(os_model, placement) == reference_adjacency(os_model, placement)


def table_pages_read(monkeypatch, os_model, placement) -> list[int]:
    """Table pages verify_adjacency passes to DramGeometry.packed_row_keys,
    once per time passed."""
    tables = set(os_model.pt_pfns())
    read = []
    expand = DramGeometry.packed_row_keys

    def counting(self, runs):
        runs = list(runs)
        read.extend(pfn for run in runs for pfn in run if pfn in tables)
        return expand(self, runs)

    with monkeypatch.context() as patched:
        patched.setattr(DramGeometry, "packed_row_keys", counting)
        verify_adjacency(os_model, placement)
    return read


def bordering_table_pages(os_model, placement) -> set[int]:
    """Table pages with a row whose index is one off a buffer row's."""
    geometry = os_model.dram.geometry
    buffer_rows = {row for chunk in placement.buffer.chunks for pfn in chunk.frames()
                   for *_, row in page_row_keys(pfn, geometry)}
    return {pfn for pfn in os_model.pt_pfns()
            if any(row + d in buffer_rows
                   for *_, row in page_row_keys(pfn, geometry) for d in (-1, 1))}


@pytest.mark.parametrize("seed", [1, 2])
def test_guarded_dell_adjacency_reads_no_table_page(seed, monkeypatch):
    guarded = full_placement("dell", DRIVER_VIDEO, seed, mitigation=True)
    assert table_pages_read(monkeypatch, *guarded) == []


def test_adjacency_reads_only_the_bordering_slice_of_a_table_run(monkeypatch):
    # simple_mapping puts row index r in pages 4r .. 4r + 3.  The buffer
    # page holds row 0 of bank 1; the table run holds rows 1 and 2.
    geo = simple_mapping(banks=2, rows=64, row_size=8192)
    os_model = SimpleNamespace(dram=SimpleNamespace(geometry=geo),
                               pt_pfns=lambda: set(range(4, 12)),
                               pt_runs=[range(4, 12)])
    chunk = BufferChunk(Block("kernel", 2, 1, "t"), PAGE_SIZE)
    placement = SimpleNamespace(buffer=SimpleNamespace(chunks=[chunk]))
    assert table_pages_read(monkeypatch, os_model, placement) == [4, 5, 6, 7]
    report = verify_adjacency(os_model, placement)
    assert report == reference_adjacency(os_model, placement)
    assert unpacked_pairs(geo, report.pairs) == (((0, 0, 1, 0), (0, 0, 1, 1)),)


@pytest.mark.parametrize("build", [
    pytest.param(lambda seed: full_placement("dell", DRIVER_VIDEO, seed), id="dell"),
    pytest.param(lambda seed: small_attack_sim(
        geometry=ODD_GEOMETRIES["row bits not on top"], seed=seed), id="row bits not on top"),
    pytest.param(lambda seed: small_attack_sim(
        geometry=ODD_GEOMETRIES["row bits not on top"], seed=seed, mitigation=True),
        id="row bits not on top, guarded"),
])
def test_adjacency_reads_at_most_the_bordering_table_pages(build, monkeypatch):
    for seed in (1, 2):
        os_model, placement = build(seed)
        read = table_pages_read(monkeypatch, os_model, placement)
        bordering = bordering_table_pages(os_model, placement)
        assert len(read) <= len(bordering) < len(os_model.pt_pfns())
        assert set(read) <= bordering


def test_run_ambush_sg_driver():
    os_model = build_sim(residue=2 * MIB)
    placement = run_ambush(os_model, plan(36 * MIB, DRIVER_SG))
    assert placement.buffer.driver == "sg"
    assert placement.footprint_bytes <= 36 * MIB
    assert len(placement.buffer.chunks) == 256
