"""Virtual memory surface: page tables, TLB, files, buffers, creds."""

from __future__ import annotations

import copy
import random
import struct

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from hammersim.buddy_alloc import BuddyState, OutOfMemoryError, Partition
from hammersim.dram_model import (
    FLIP_ONE_TO_ZERO,
    FLIP_ZERO_TO_ONE,
    PAGE_SIZE,
    Dram,
    InjectedFlip,
)
from hammersim.os_model import (
    MARKER,
    MARKER_PAGE,
    PROBE_PTE,
    PT_SPAN,
    PTE_PRESENT,
    PTE_SIZE,
    PTES_PER_PAGE,
    PTE_USER,
    PTE_WRITABLE,
    SG_MAX_BYTES,
    VMA_LIMIT,
    BufferChunk,
    DoubleOwnedBuffer,
    DriverLimitError,
    OsModel,
    OsModelError,
    PhysicalMemory,
    PteEntry,
    VmaLimitError,
    cred_pattern,
)
from hammersim.timing_channel import key_buffer

from helpers import (FrameMemory, buffer_pages, full_placement, mapped_pages, own_file_pfn,
                     simple_mapping, table_windows, user_pte, windows)

MIB = 1024 * 1024


def make_os(*, kernel=32 * MIB, user=32 * MIB) -> OsModel:
    buddy = BuddyState([
        Partition("kernel", 0, kernel),
        Partition("user", kernel, user),
    ])
    dram = Dram(simple_mapping(banks=2, rows=64, row_size=8192))
    return OsModel(dram, buddy)


# --- page table entries ---


def test_pte_roundtrip_and_flags():
    flags = PTE_PRESENT | PTE_WRITABLE | PTE_USER
    entry = user_pte(0x40040)
    assert entry.raw & flags == flags
    assert entry.pfn == 0x40040
    assert PteEntry(entry.raw) == entry
    probe = PteEntry(PROBE_PTE)
    assert probe.raw & flags == flags
    assert probe.pfn == 0
    cleared = PteEntry(entry.raw & ~1)
    assert not cleared.raw & PTE_PRESENT and cleared.pfn == entry.pfn


# --- physical memory ---


def test_physical_memory_sparse_and_flips():
    mem = PhysicalMemory()
    assert mem.read(5 * PAGE_SIZE, 16) == bytes(16)
    mem.write(5 * PAGE_SIZE + 100, b"hello")
    assert mem.read(5 * PAGE_SIZE + 100, 5) == b"hello"
    # Accesses stay within one page: each accessor refuses a crossing
    # and changes nothing.  One that ends on a page's last byte is local.
    for access in (lambda: mem.write(6 * PAGE_SIZE - 2, b"abcd"),
                   lambda: mem.read(6 * PAGE_SIZE - 2, 4),
                   lambda: mem.write_u64(6 * PAGE_SIZE - 2, 1),
                   lambda: mem.read_u64(6 * PAGE_SIZE - 2)):
        with pytest.raises(ValueError, match="within one page"):
            access()
    assert mem.backed_pfns() == [5] and mem.dirty == {}
    mem.write(6 * PAGE_SIZE - 4, b"abcd")
    assert mem.read(6 * PAGE_SIZE - 4, 4) == b"abcd"
    assert mem.read_u64(6 * PAGE_SIZE - 8) == int.from_bytes(b"\0" * 4 + b"abcd", "little")
    assert mem.backed_pfns() == [5]
    # 1->0 only fires on a set bit, 0->1 only on a clear bit.
    addr = 5 * PAGE_SIZE + 100  # 'h' == 0x68, bit 3 set
    assert mem.flip_bit(addr, 3, FLIP_ONE_TO_ZERO)
    assert not mem.flip_bit(addr, 3, FLIP_ONE_TO_ZERO)
    assert mem.flip_bit(addr, 3, FLIP_ZERO_TO_ONE)
    assert mem.read(addr, 1) == b"h"
    with pytest.raises(ValueError):
        mem.flip_bit(addr, 3, "sideways")


def test_writes_and_flips_mark_dirty_table_entries():
    mem = PhysicalMemory()
    template = bytes(PAGE_SIZE)
    # Frames 10..13 are the tables of windows 5..8; 20 is a marker frame.
    mem.map_runs([(10, 14, 5, (template,)), (20, 21, None, (MARKER_PAGE,))])
    # Bytes 12..19 of frame 12 touch entries 1 and 2 of window 7's table.
    mem.write(12 * PAGE_SIZE + 12, b"x" * 8)
    assert mem.dirty == {1: {7}, 2: {7}}
    mem.write(20 * PAGE_SIZE + 8, b"y" * 16)
    mem.write_u64(30 * PAGE_SIZE + 8, 7)
    mem.write(14 * PAGE_SIZE, b"z")
    assert mem.dirty == {1: {7}, 2: {7}}
    mem.dirty.clear()
    assert mem.flip_bit(11 * PAGE_SIZE + 3 * 8 + 5, 1, FLIP_ZERO_TO_ONE)
    assert mem.dirty == {3: {6}}
    # A pull that changes nothing marks nothing.
    assert not mem.flip_bit(13 * PAGE_SIZE + 9 * 8, 1, FLIP_ONE_TO_ZERO)
    assert mem.dirty == {3: {6}}


@pytest.mark.parametrize("offset,marked", [
    (16, {2: {6}}),  # aligned: one entry
    (13, {1: {6}, 2: {6}}),  # unaligned within the page: two entries
    (PAGE_SIZE - 3, None),  # across into the next table: refused
], ids=["aligned", "unaligned", "crossing"])
def test_write_u64_writes_and_marks_like_write(offset, marked):
    template = bytes(range(256)) * 16
    mem, ref = PhysicalMemory(), PhysicalMemory()
    for memory in (mem, ref):
        # Frames 10..13 are the tables of windows 5..8.
        memory.map_runs([(10, 14, 5, (template,))])
    addr, value = 11 * PAGE_SIZE + offset, 0x0123_4567_89AB_CDEF
    if marked is None:
        # Every accessor refuses the crossing, and nothing is written or marked.
        for access in (lambda: mem.write_u64(addr, value),
                       lambda: mem.write(addr, struct.pack("<Q", value)),
                       lambda: mem.read_u64(addr),
                       lambda: mem.read(addr, 8)):
            with pytest.raises(ValueError, match="within one page"):
                access()
        assert mem.private == {} and mem.dirty == {}
        return
    mem.write_u64(addr, value)
    ref.write(addr, struct.pack("<Q", value))
    assert mem.private == ref.private and mem.read_u64(addr) == value
    assert mem.dirty == ref.dirty == marked


def test_map_runs_rejects_rows_over_the_base():
    mem = PhysicalMemory()
    template = bytes(range(256)) * 16
    mem.map_runs([(10, 20, 0, (template,)), (30, 34, None, (MARKER_PAGE,))])
    mem.write(31 * PAGE_SIZE, b"x")
    pages = dict(mem.pages)
    for start, stop in ((5, 11), (19, 25), (12, 14), (0, 40), (33, 36)):
        with pytest.raises(ValueError):
            mem.map_runs([(0, 1, None, (MARKER_PAGE,)), (start, stop, None, (MARKER_PAGE,))])
    assert dict(mem.pages) == pages and len(mem.base.rows) == 2
    # Rows that only touch a run's ends are disjoint from it.
    mem.map_runs([(20, 30, None, (MARKER_PAGE,)), (9, 10, None, (MARKER_PAGE,))])
    assert len(mem.pages) == 25


def test_second_marking_of_a_file_changes_nothing():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    os_model.write_markers(file)
    memory = os_model.memory
    memory.write(file.pfns[0] * PAGE_SIZE, b"x")
    pages = dict(memory.pages)
    with pytest.raises(ValueError):
        os_model.write_markers(file)
    assert dict(memory.pages) == pages and len(memory.pages) == len(file.pfns)
    assert memory.backed_pfns() == sorted(file.pfns)
    assert memory.read(file.pfns[0] * PAGE_SIZE, 8) == b"xilemark"


@pytest.mark.parametrize("seed", range(6))
def test_two_layer_memory_matches_per_frame_reference(seed):
    rng = random.Random(seed)
    frames = 64
    templates = [rng.randbytes(PAGE_SIZE) for _ in range(3)]
    saved = [bytes(t) for t in templates]
    # Frames 0..63 cut into segments, each mapped as one call of up to
    # three runs at a random step, some after they were written, and
    # some never mapped.
    cuts = sorted(rng.sample(range(1, frames), 15))
    segments = [range(a, b) for a, b in zip([0, *cuts], [*cuts, frames])]
    rng.shuffle(segments)
    segments = segments[:12]
    mem, ref = PhysicalMemory(), FrameMemory()

    def addr(length):
        """An address an access of length bytes can start at without
        leaving its page; some such accesses end on the page's last byte."""
        pfn = rng.randrange(frames + 2)
        if rng.random() < 0.3:  # near the page end
            return pfn * PAGE_SIZE + PAGE_SIZE - length - rng.randrange(4)
        return pfn * PAGE_SIZE + rng.randrange(PAGE_SIZE - length + 1)

    for _ in range(160):
        roll = rng.random()
        if roll < 0.1 and segments:
            seg = segments.pop()
            if rng.random() < 0.3:
                first, pages = None, (MARKER_PAGE,)
            else:
                first, pages = seg.start, tuple(rng.sample(templates, rng.randint(1, 3)))
            mid = rng.randint(seg.start, seg.stop)
            rows = [(start, stop, first, pages)
                    for start, stop in ((seg.start, mid), (mid, seg.stop)) if start < stop]
            rng.shuffle(rows)
            mem.map_runs(rows)
            ref.map_runs(rows)
        elif roll < 0.35:
            data = rng.randbytes(rng.randint(1, 12))
            a = addr(len(data))
            mem.write(a, data)
            ref.write(a, data)
        elif roll < 0.5:
            a, value = addr(8), rng.getrandbits(64)
            mem.write_u64(a, value)
            ref.write_u64(a, value)
        else:
            # Either direction, so about half the pulls change nothing.
            a, bit = addr(1), rng.randrange(8)
            direction = rng.choice([FLIP_ONE_TO_ZERO, FLIP_ZERO_TO_ONE])
            assert mem.flip_bit(a, bit, direction) == ref.flip_bit(a, bit, direction)
        for _ in range(4):
            a, b = addr(8), addr(20)
            assert mem.read_u64(a) == ref.read_u64(a)
            assert mem.read(b, 20) == ref.read(b, 20)
        # A whole page and a range inside one, unbacked frames included.
        pfn = rng.randrange(frames + 2)
        assert mem.read(pfn * PAGE_SIZE, PAGE_SIZE) == ref.read(pfn * PAGE_SIZE, PAGE_SIZE)
        a = pfn * PAGE_SIZE + rng.randrange(PAGE_SIZE - 256)
        assert mem.read(a, 256) == ref.read(a, 256)
        assert mem.backed_pfns() == ref.backed_pfns()
        assert len(mem.pages) == len(ref.pages)
        assert mem.dirty == ref.dirty
    assert mem.pages == ref.pages and ref.pages == mem.pages
    assert dict(mem.pages) == ref.pages
    # Frames never changed still share their run's page object.
    shared = [pfn for pfn, page in ref.pages.items() if type(page) is bytes]
    assert shared and all(mem.pages[pfn] is ref.pages[pfn] for pfn in shared)
    # A whole shared page reads as its object; an unbacked one as zeros.
    assert all(mem.read(pfn * PAGE_SIZE, PAGE_SIZE) is ref.pages[pfn] for pfn in shared)
    assert mem.read((frames + 9) * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
    # Bytes read from a private frame keep their value when it is written.
    pfn = next(pfn for pfn, page in ref.pages.items() if type(page) is bytearray)
    whole, part = mem.read(pfn * PAGE_SIZE, PAGE_SIZE), mem.read(pfn * PAGE_SIZE + 96, 64)
    expected = ref.read(pfn * PAGE_SIZE, PAGE_SIZE), ref.read(pfn * PAGE_SIZE + 96, 64)
    mem.write(pfn * PAGE_SIZE + 64, bytes(x ^ 0xFF for x in expected[0][64:192]))
    assert (whole, part) == expected and mem.read(pfn * PAGE_SIZE + 96, 64) != part
    assert templates == saved


def test_one_bit_in_a_base_frame_makes_memories_unequal():
    template = bytes(range(256)) * 16
    a, b = PhysicalMemory(), PhysicalMemory()
    for mem in (a, b):
        mem.map_runs([(10, 20, 0, (template,)), (30, 31, None, (MARKER_PAGE,))])
    assert a.pages == b.pages
    # A private copy holding the same bytes still compares equal...
    b.write(15 * PAGE_SIZE + 7, template[7:8])
    assert type(b.pages[15]) is bytearray
    assert a.pages == b.pages
    # ...while one flipped bit in a pristine base frame does not.
    assert a.flip_bit(12 * PAGE_SIZE + 100, 2, FLIP_ONE_TO_ZERO)
    assert a.pages != b.pages
    assert len(a.pages) == len(b.pages) == 11
    with pytest.raises(TypeError):
        a.pages[12] = template


# --- copy-on-write pages ---


def test_tables_from_one_template_stay_independent():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    (a,) = os_model.mmap_primitive(file)
    (b,) = os_model.mmap_primitive(file)
    pages = os_model.memory.pages
    template = pages[a]
    assert pages[b] is template
    pristine = os_model.memory.read(a * PAGE_SIZE, PAGE_SIZE)
    os_model.memory.write_u64(a * PAGE_SIZE + 3 * 8, PROBE_PTE)
    assert os_model.memory.flip_bit(b * PAGE_SIZE + 5 * 8 + 2, 0,
                                    FLIP_ZERO_TO_ONE)
    assert os_model.memory.read_u64(a * PAGE_SIZE + 3 * 8) == PROBE_PTE
    assert os_model.memory.read_u64(b * PAGE_SIZE + 3 * 8) != PROBE_PTE
    assert os_model.memory.read(a * PAGE_SIZE + 5 * 8, 8) == pristine[40:48]
    assert os_model.memory.read(b * PAGE_SIZE + 5 * 8, 8) != pristine[40:48]
    assert template == pristine


def test_flip_on_shared_page_makes_it_private():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    (a,) = os_model.mmap_primitive(file)
    (b,) = os_model.mmap_primitive(file)
    pages = os_model.memory.pages
    template = pages[a]
    pristine = bytes(template)
    # A pull towards the stored value changes nothing and copies nothing.
    assert not os_model.memory.flip_bit(a * PAGE_SIZE, 0, FLIP_ZERO_TO_ONE)
    assert pages[a] is template
    assert os_model.memory.flip_bit(a * PAGE_SIZE, 0, FLIP_ONE_TO_ZERO)
    assert type(pages[a]) is bytearray
    assert pages[b] is template
    assert template == pristine
    assert file.templates[0] is template


@pytest.mark.parametrize("profile,driver,mitigation", [
    ("dell", "video", False), ("dell", "video", True), ("lenovo", "sg", False)])
def test_placement_leaves_table_pages_shared(profile, driver, mitigation):
    os_model, _ = full_placement(profile, driver, 7, mitigation=mitigation)
    pages = os_model.memory.pages
    tables = os_model.pt_pfns()
    private = [pfn for pfn in tables if type(pages[pfn]) is bytearray]
    assert len(tables) > 10_000
    assert private == []
    os_model.buddy.check_invariants()
    kernel = os_model.buddy.partitions["kernel"]
    assert all(kernel.base <= pfn * PAGE_SIZE < kernel.end for pfn in tables)
    # One 2 MiB file needs one template; its marker pages share one too.
    assert len({id(pages[pfn]) for pfn in tables}) == 1
    assert len({id(pages[pfn]) for pfn in os_model.file.pfns}) == 1


@pytest.mark.parametrize("mitigation", [False, True])
def test_placement_writes_no_table_or_marker_frame(mitigation):
    # The tables and the file's marker pages are base runs, one row per run
    # taken; the private layer holds only frames written since.
    os_model, _ = full_placement("dell", "video", 7, mitigation=mitigation)
    memory, file = os_model.memory, os_model.file
    assert memory.private == {}
    assert len(memory.base.rows) == len(os_model.pt_runs) + len(file.runs)
    cred = os_model.plant_cred(1, 1000, random.Random(7))
    assert list(memory.private) == [cred.pfn]
    assert len(memory.pages) == len(os_model.pt_pfns()) + len(file.pfns) + 1


@pytest.mark.parametrize("seed", [7, 19])
@pytest.mark.parametrize("mitigation", [False, True])
def test_run_indexes_match_per_frame_oracle(seed, mitigation):
    os_model, placement = full_placement("dell", "video", seed, mitigation=mitigation)
    oracle = table_windows(os_model)
    assert len(oracle) == len(os_model._pt_pfns) > 10_000
    edges = {r.start - 1 for r in os_model.pt_runs} | {r.stop for r in os_model.pt_runs}
    rng = random.Random(seed)
    frames = os_model.dram.geometry.capacity // PAGE_SIZE
    others = {pfn for pfn in (rng.randrange(frames) for _ in range(3000))
              if pfn not in oracle}
    assert len(others) > 2000
    dirty = os_model.memory.dirty
    for pfn in [*oracle, *edges, *others]:
        assert os_model.is_pt_frame(pfn) == (pfn in oracle)
        # Marking entry idx of a frame marks the frame's window, if a table.
        dirty.clear()
        idx = pfn % PTES_PER_PAGE
        os_model.memory._mark(pfn, idx * PTE_SIZE, idx * PTE_SIZE + 1)
        want = {idx: {(oracle[pfn] - os_model.map_base) // PT_SPAN}} if pfn in oracle else {}
        assert dirty == want
    pages = buffer_pages(placement.buffer)
    assert len(pages) == sum(c.page_count() for c in placement.buffer.chunks)
    os_model.flush_tlb()
    for vpage, pfn in pages.items():
        assert os_model.translate(vpage + 8) == pfn
    gaps = [c.vbase + c.page_count() * PAGE_SIZE for c in placement.buffer.chunks]
    assert all(gap not in pages and os_model.translate(gap) is None for gap in gaps)


def test_deepcopy_marks_only_its_own_dirty_index():
    os_model, _ = full_placement("dell", "video", 7)
    twin = copy.deepcopy(os_model)
    assert twin.memory.dirty is not os_model.memory.dirty
    assert twin.memory.base is not os_model.memory.base
    a, b = os_model.pt_runs[0].start, os_model.pt_runs[-1].stop - 1
    twin.memory.write_u64(a * PAGE_SIZE + 8, PROBE_PTE)
    assert twin.memory.dirty and not os_model.memory.dirty
    os_model.memory.write_u64(b * PAGE_SIZE + 16, PROBE_PTE)
    assert set(twin.memory.dirty) == {1} and set(os_model.memory.dirty) == {2}
    outside = [r.stop for r in os_model.pt_runs] + [r.start - 1 for r in os_model.pt_runs]
    for pfn in [a, b, *outside]:
        assert twin.is_pt_frame(pfn) == os_model.is_pt_frame(pfn)


# --- files, mappings, translation ---


def test_tmp_file_validation_and_frames():
    os_model = make_os()
    with pytest.raises(ValueError):
        os_model.create_tmp_file(PAGE_SIZE)
    file = os_model.create_tmp_file(2 * PT_SPAN)
    assert len(file.pfns) == 2 * PT_SPAN // PAGE_SIZE
    assert len(set(file.pfns)) == len(file.pfns)
    part = os_model.buddy.partitions["user"]
    assert all(part.base <= p * PAGE_SIZE < part.end for p in file.pfns)


def test_mmap_builds_one_table_per_window():
    os_model = make_os()
    file = os_model.create_tmp_file(2 * PT_SPAN)
    pts = os_model.mmap_primitive(file)
    assert len(pts) == 2
    assert len(windows(os_model)) == 2
    # Tables live in the kernel partition.
    kernel = os_model.buddy.partitions["kernel"]
    for pfn in pts:
        assert kernel.base <= pfn * PAGE_SIZE < kernel.end
    # Every mapping is a fresh VMA with fresh tables, right after the last.
    pts2 = os_model.mmap_primitive(file)
    assert len(pts2) == 2
    assert os_model.mappings == 2
    # Both mappings translate to the same shared frames.
    for base in (os_model.map_base, os_model.map_base + file.size):
        for i in range(len(file.pfns)):
            assert os_model.translate(base + i * PAGE_SIZE) == file.pfns[i]


def test_mmap_count_equals_repeated_single_maps():
    bulk, single = make_os(), make_os()
    file, twin = bulk.create_tmp_file(2 * PT_SPAN), single.create_tmp_file(2 * PT_SPAN)
    bulk.write_markers(file)
    single.write_markers(twin)
    # Two table pages per mapping of a 4 MiB file.
    pfns = bulk.mmap_primitive(file, 5)
    want = [pfn for _ in range(5) for pfn in single.mmap_primitive(twin)]
    assert pfns == want and len(pfns) == 10
    assert bulk.file is file and bulk.mappings == single.mappings == 5
    assert windows(bulk) == windows(single)
    assert bulk.memory.pages == single.memory.pages
    assert bulk.pt_pfns() == single.pt_pfns() == set(pfns)
    # The second table of each mapping holds the file's second half.
    for vaddr in range(bulk.map_base, bulk.map_base + 5 * file.size, PAGE_SIZE * 97):
        assert bulk.translate(vaddr) == single.translate(vaddr)
        page = (vaddr - bulk.map_base) // PAGE_SIZE % len(file.pfns)
        assert bulk.translate(vaddr) == file.pfns[page]


def test_table_runs_may_start_mid_file():
    # One page taken first leaves free blocks of 1, 2, 4, ... pages, so the
    # ten tables of five 4 MiB mappings come as runs from windows 0, 1, 3
    # and 7; a run starting at an odd window starts on the file's second
    # half.
    os_model = make_os()
    os_model.buddy.take_pages("kernel", 1, "filler")
    file = os_model.create_tmp_file(2 * PT_SPAN)
    os_model.mmap_primitive(file, 5)
    assert [len(r) for r in os_model.pt_runs] == [1, 2, 4, 3]
    for i in range(5 * len(file.pfns)):
        vaddr = os_model.map_base + i * PAGE_SIZE
        assert os_model.translate(vaddr) == file.pfns[i % len(file.pfns)]


def test_mmap_failure_changes_nothing():
    os_model = make_os(kernel=64 * 1024)
    file, other = os_model.create_tmp_file(PT_SPAN), os_model.create_tmp_file(PT_SPAN)

    def state():
        return (os_model.buddy.buddy_info(), os_model.buddy.free_pages("kernel"),
                os_model.file, os_model.mappings, windows(os_model),
                dict(os_model.memory.pages), os_model.pt_pfns())

    os_model.mmap_primitive(file, 3)
    before = state()
    with pytest.raises(VmaLimitError):
        os_model.mmap_primitive(file, VMA_LIMIT - 3)  # the last one reaches the limit
    assert state() == before
    with pytest.raises(ValueError):
        os_model.mmap_primitive(file, 0)
    assert state() == before
    with pytest.raises(ValueError, match="one file"):
        os_model.mmap_primitive(other)
    assert state() == before
    big = make_os(kernel=64 * 1024)
    big_file = big.create_tmp_file(PT_SPAN)
    big.mmap_primitive(big_file, 10)
    with pytest.raises(OutOfMemoryError):
        big.mmap_primitive(big_file, 7)  # 16 kernel pages, 10 in use
    assert len(big.pt_pfns()) == 10 and big.mappings == 10
    assert big.buddy.free_pages("kernel") == 6


def test_window_tables_follow_map_order():
    # Window i from map_base is translated through the i-th table taken.
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    pfns = os_model.mmap_primitive(file, 3)
    tables = windows(os_model)
    assert list(tables) == [os_model.map_base + i * PT_SPAN for i in range(3)]
    assert list(tables.values()) == pfns
    for i, pfn in enumerate(pfns):
        os_model.memory.write_u64(pfn * PAGE_SIZE + 7 * 8, user_pte(0x7000 + i).raw)
    os_model.flush_tlb()
    for i, base in enumerate(tables):
        assert os_model.translate(base + 7 * PAGE_SIZE) == 0x7000 + i
    for bad in (os_model.map_base - PT_SPAN, os_model.map_base + 3 * PT_SPAN):
        assert os_model.translate(bad) is None


def test_vma_limit_enforced():
    # The kernel partition holds a table for every mapping below the limit.
    os_model = make_os(kernel=256 * MIB)
    file = os_model.create_tmp_file(PT_SPAN)
    os_model.mmap_primitive(file, 3)
    with pytest.raises(VmaLimitError):
        os_model.mmap_primitive(file, VMA_LIMIT - 3)
    assert os_model.mappings == 3
    os_model.mmap_primitive(file, VMA_LIMIT - 4)
    assert os_model.mappings == len(os_model.pt_pfns()) == VMA_LIMIT - 1
    with pytest.raises(VmaLimitError):
        os_model.mmap_primitive(file)


def test_translate_unmapped_returns_none():
    os_model = make_os()
    assert os_model.translate(os_model.map_base) is None
    assert os_model.read_u64_virtual(os_model.map_base) is None
    assert not os_model.write_u64_virtual(os_model.map_base, 1)


def test_virtual_access_must_stay_in_page():
    os_model = make_os()
    with pytest.raises(ValueError):
        os_model.read_virtual(os_model.map_base + PAGE_SIZE - 4, 8)
    with pytest.raises(ValueError):
        os_model.write_virtual(os_model.map_base + PAGE_SIZE - 4, b"x" * 8)


def test_tlb_staleness_until_flush():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    os_model.write_markers(file)
    (pt,) = os_model.mmap_primitive(file)
    vaddr = os_model.map_base
    assert os_model.translate(vaddr) == file.pfns[0]
    # Rewrite the entry to point at frame 3; the TLB still serves the old one.
    os_model.memory.write_u64(pt * PAGE_SIZE, user_pte(3).raw)
    assert os_model.translate(vaddr) == file.pfns[0]
    os_model.flush_tlb()
    assert os_model.translate(vaddr) == 3
    assert os_model.tlb.flush_count == 1


def test_demand_fault_heals_cleared_entry():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    (pt,) = os_model.mmap_primitive(file)
    vaddr = os_model.map_base + 5 * PAGE_SIZE
    os_model.memory.write_u64(pt * PAGE_SIZE + 5 * 8, 0)
    assert os_model.translate(vaddr) == file.pfns[5]
    raw = os_model.memory.read_u64(pt * PAGE_SIZE + 5 * 8)
    assert raw == user_pte(file.pfns[5]).raw


# --- marker scan ---


def linear_sweep(os_model: OsModel, slot: int | None = None) -> list[int]:
    """Every mapped page (or every page at entry slot of its table),
    ascending, through the same read path, never consulting the index,
    that reads neither the marker nor its own file page's header."""
    out = []
    for vaddr in mapped_pages(os_model, slot):
        value = os_model.read_u64_virtual(vaddr)
        own = own_file_pfn(os_model, vaddr)
        if value not in (MARKER, os_model.memory.read_u64(own * PAGE_SIZE)):
            out.append(vaddr)
    return out


def test_scan_empty_when_pristine():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    os_model.write_markers(file)
    for _ in range(3):
        os_model.mmap_primitive(file)
    assert list(os_model.iter_nonmarker_pages()) == []


def test_scan_reports_redirected_and_corrupted_pages():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    os_model.write_markers(file)
    pts = [os_model.mmap_primitive(file)[0] for _ in range(3)]
    # Redirect one entry of the second table to an unbacked frame.
    os_model.memory.write_u64(pts[1] * PAGE_SIZE + 7 * 8,
                              user_pte(0x7FF00).raw)
    # Corrupt one shared file page header: every mapping of page 9 reads
    # what the file holds, so none is a candidate.
    os_model.memory.write(file.pfns[9] * PAGE_SIZE, b"\x00")
    # An entry for another file page, redirected onto page 9, reads a
    # header that differs from its own.
    os_model.memory.write_u64(pts[2] * PAGE_SIZE + 4 * 8,
                              user_pte(file.pfns[9]).raw)
    expect = [os_model.map_base + PT_SPAN + 7 * PAGE_SIZE,
              os_model.map_base + 2 * PT_SPAN + 4 * PAGE_SIZE]
    assert list(os_model.iter_nonmarker_pages()) == expect
    assert linear_sweep(copy.deepcopy(os_model)) == expect


def test_scan_matches_brute_force_sweep():
    # Each mapping of a 4 MiB file has two tables, over the file's halves.
    os_model = make_os()
    file = os_model.create_tmp_file(2 * PT_SPAN)
    os_model.write_markers(file)
    for _ in range(4):
        os_model.mmap_primitive(file)
    rng = random.Random(31)
    pt_list = list(windows(os_model).values())
    for _ in range(25):
        pt_pfn = rng.choice(pt_list)
        off = rng.randrange(512) * 8 + rng.randrange(8)
        os_model.memory.flip_bit(pt_pfn * PAGE_SIZE + off, rng.randrange(8),
                                 rng.choice([FLIP_ONE_TO_ZERO, FLIP_ZERO_TO_ONE]))
    for _ in range(5):
        os_model.memory.write(rng.choice(file.pfns) * PAGE_SIZE,
                              bytes([rng.randrange(1, 256)]))
    linear = linear_sweep(copy.deepcopy(os_model))
    assert list(os_model.iter_nonmarker_pages()) == linear
    # Scanning twice is stable.
    assert list(os_model.iter_nonmarker_pages()) == linear


def test_scan_prunes_restored_entries():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    os_model.write_markers(file)
    (pt,) = os_model.mmap_primitive(file)
    vaddr = os_model.map_base + 3 * PAGE_SIZE
    pristine = os_model.memory.read_u64(pt * PAGE_SIZE + 3 * 8)
    os_model.memory.write_u64(pt * PAGE_SIZE + 3 * 8, PROBE_PTE)
    os_model.flush_tlb()
    assert list(os_model.iter_nonmarker_pages()) == [vaddr]
    os_model.memory.write_u64(pt * PAGE_SIZE + 3 * 8, pristine)
    os_model.flush_tlb()
    assert list(os_model.iter_nonmarker_pages()) == []
    # Entry 3 of window 0 maps vaddr.
    assert 0 not in os_model.memory.dirty.get(3, ())


def test_scan_keeps_restored_entry_while_tlb_is_stale():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    os_model.write_markers(file)
    (pt,) = os_model.mmap_primitive(file)
    vaddr = os_model.map_base + 2 * PAGE_SIZE
    entry = pt * PAGE_SIZE + 2 * 8
    pristine = os_model.memory.read_u64(entry)
    # Point the entry at the next file page, scan (caching that frame), and
    # restore the entry without a flush: the TLB still serves the other page.
    os_model.memory.write_u64(entry, user_pte(file.pfns[3]).raw)
    assert list(os_model.iter_nonmarker_pages()) == []
    os_model.memory.write_u64(entry, pristine)
    assert list(os_model.iter_nonmarker_pages()) == []
    # Page 3 reads its own file page; only the stale one is a candidate.
    os_model.memory.write(file.pfns[3] * PAGE_SIZE, b"\x00")
    expect = [vaddr]
    assert linear_sweep(copy.deepcopy(os_model)) == expect
    assert list(os_model.iter_nonmarker_pages()) == expect


class ScanMachine(RuleBasedStateMachine):
    """Interleaves flips, header writes, probes, flushes and mappings; after
    every step the indexed scan must match a linear sweep on a twin, in
    result and in the memory it leaves behind."""

    def __init__(self) -> None:
        super().__init__()
        self.os = make_os()
        # A 4 MiB file: each mapping has two tables, over the file's halves.
        self.file = self.os.create_tmp_file(2 * PT_SPAN)
        self.os.write_markers(self.file)
        self.os.mmap_primitive(self.file)
        self.probes: list[tuple[int, int]] = []  # (entry addr, saved raw)

    def _table(self, index: int) -> int:
        pfns = sorted(self.os.pt_pfns())
        return pfns[index % len(pfns)]

    # Entries and headers share the page range 0..3 of each half, and
    # flipping a low frame-number bit points an entry at a neighbouring file
    # page, so the rules often touch the same pages and undo each other.
    @rule(table=st.integers(0, 7), entry=st.integers(0, 3),
          bit=st.one_of(st.integers(12, 13), st.integers(0, 63)))
    def flip_table_bit(self, table, entry, bit):
        addr = self._table(table) * PAGE_SIZE + entry * 8 + bit // 8
        if self.os.memory.read(addr, 1)[0] >> bit % 8 & 1:
            self.os.memory.flip_bit(addr, bit % 8, FLIP_ONE_TO_ZERO)
        else:
            self.os.memory.flip_bit(addr, bit % 8, FLIP_ZERO_TO_ONE)

    @rule(half=st.integers(0, 1), page=st.integers(0, 3),
          offset=st.integers(0, 7), value=st.integers(0, 255))
    def dirty_file_header(self, half, page, offset, value):
        pfn = self.file.pfns[half * PTES_PER_PAGE + page]
        self.os.memory.write(pfn * PAGE_SIZE + offset, bytes([value]))

    @rule(table=st.integers(0, 63))
    def write_probe(self, table):
        addr = self._table(table) * PAGE_SIZE + 8
        self.probes.append((addr, self.os.memory.read_u64(addr)))
        self.os.memory.write_u64(addr, PROBE_PTE)

    @precondition(lambda self: self.probes)
    @rule()
    def restore_probe(self):
        addr, raw = self.probes.pop()
        self.os.memory.write_u64(addr, raw)

    @rule()
    def flush_tlb(self):
        self.os.flush_tlb()

    @precondition(lambda self: self.os.mappings < 5)
    @rule(count=st.integers(1, 3))
    def map_more(self, count):
        self.os.mmap_primitive(self.file, count)

    @invariant()
    def scan_matches_linear_sweep(self):
        for slot in (None, 1):
            # Reads never touch the allocator, DRAM or files.
            shared = (self.os.buddy, self.os.dram, self.file)
            twin = copy.deepcopy(self.os, {id(obj): obj for obj in shared})
            assert list(self.os.iter_nonmarker_pages(slot)) == linear_sweep(twin, slot)
            assert self.os.memory.pages == twin.memory.pages


TestScanMachine = ScanMachine.TestCase
TestScanMachine.settings = settings(max_examples=10, stateful_step_count=20,
                                    deadline=None)


# --- device buffers ---


def test_video_driver_limits_and_size():
    os_model = make_os(kernel=64 * MIB)
    with pytest.raises(DriverLimitError):
        os_model.open_video(0)
    with pytest.raises(DriverLimitError):
        os_model.open_video(33)
    buffer = os_model.open_video(32)
    assert len(buffer.chunks) == 32
    assert sum(chunk.size for chunk in buffer.chunks) == 32 * 600 * 1024  # 18.75 MiB ceiling
    assert all(c.block.owner == "video_buffer" for c in buffer.chunks)


def test_sg_driver_limits_and_size():
    os_model = make_os(kernel=64 * MIB)
    with pytest.raises(DriverLimitError):
        os_model.open_sg(0)
    with pytest.raises(DriverLimitError):
        os_model.open_sg(1022)
    with pytest.raises(DriverLimitError):
        os_model.open_sg(1, SG_MAX_BYTES + 1)
    buffer = os_model.open_sg(256, SG_MAX_BYTES)
    assert len(buffer.chunks) == 256
    assert sum(chunk.size for chunk in buffer.chunks) == 256 * SG_MAX_BYTES  # 31 MiB ceiling


def test_map_buffer_exposes_chunk_pages():
    os_model = make_os()
    buffer = os_model.open_video(2)
    assert all(chunk.vbase is None for chunk in buffer.chunks)
    with pytest.raises(OsModelError, match="not user mapped"):
        key_buffer(buffer, os_model.dram.geometry)
    os_model.map_buffer(buffer)
    assert all(chunk.vbase is not None for chunk in buffer.chunks)
    # A buffer with one chunk left unmapped is not mapped either.
    first, second = buffer.chunks
    partial = DoubleOwnedBuffer(buffer.driver, [first, BufferChunk(second.block, second.size)])
    with pytest.raises(OsModelError, match="not user mapped"):
        key_buffer(partial, os_model.dram.geometry)
    vaddrs = list(buffer_pages(buffer))
    assert len(vaddrs) == sum(c.page_count() for c in buffer.chunks)
    for chunk in buffer.chunks:
        for i in range(chunk.page_count()):
            pfn = os_model.translate(chunk.vbase + i * PAGE_SIZE)
            assert pfn == chunk.block.first + i
    # Buffer pages are readable and writable from user space.
    assert os_model.write_u64_virtual(vaddrs[0], 0xDEAD)
    assert os_model.read_u64_virtual(vaddrs[0]) == 0xDEAD


# --- creds ---


def test_cred_plant_and_getuid():
    os_model = make_os()
    rng = random.Random(5)
    cred = os_model.plant_cred(100, 1000, rng)
    assert os_model.getuid(100) == 1000
    raw = os_model.memory.read(cred.pfn * PAGE_SIZE + cred.offset, 24)
    assert raw == cred_pattern(1000)
    assert cred.offset % 4 == 0 and cred.offset <= PAGE_SIZE - 24
    with pytest.raises(Exception):
        os_model.plant_cred(100, 0, rng)
    # Overwriting the record changes the observed uid.
    os_model.memory.write(cred.pfn * PAGE_SIZE + cred.offset, cred_pattern(0))
    assert os_model.getuid(100) == 0


# --- flips ---


def test_apply_flips_filters_ineffective():
    os_model = make_os()
    os_model.memory.write(0, bytes([0b1000]))
    flips = [
        InjectedFlip(0, 3, FLIP_ONE_TO_ZERO),
        InjectedFlip(0, 2, FLIP_ONE_TO_ZERO),  # already zero
        InjectedFlip(0, 1, FLIP_ZERO_TO_ONE),
    ]
    applied = os_model.apply_flips(flips)
    assert [(f.bit, f.direction) for f in applied] == [
        (3, FLIP_ONE_TO_ZERO), (1, FLIP_ZERO_TO_ONE)]
    assert os_model.memory.read(0, 1) == bytes([0b0010])


def test_pt_pfns_tracks_tables():
    os_model = make_os()
    file = os_model.create_tmp_file(PT_SPAN)
    assert os_model.pt_pfns() == set()
    pts = os_model.mmap_primitive(file)
    assert os_model.pt_pfns() == {pts[0]}
