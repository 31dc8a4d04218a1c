"""Placement planning and execution: drain small blocks, interleave tables.

The plan mirrors the attack's own arithmetic: the device-buffer reservation
is charged at whole mebibytes, the page-table budget is what remains of the
threshold after the buffer and the mapping file, and the file doubles until
the mapping count fits under the VMA limit.  One mapping of a 2 MiB file
costs exactly one page-table page, so draining the allocator's small blocks
is just repeated mapping.

Execution works out the table room once, in whole mappings: what the
threshold leaves beside the file and the buffers, each buffer charged at
the size it will be allocated (whole pages, or under mitigation whole
row-index spans).  A buffer is allocated at least its request, so the room
never exceeds the plan's budget, and the footprint (buffer blocks + file
pages + table pages) stays within the threshold, as run_ambush checks at
the end.  The drain maps within the room before the buffers exist, and the
stuffing takes what it left; each phase knows its mapping count up front
and maps it as one run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .buddy_alloc import FRESH
from .dram_model import PAGE_SIZE, DramGeometry, rows_size_per_row_index, target_block_size
from .dram_model import page_row_keys  # noqa: F401  (bench/tracer.py patches it here)
from .os_model import (
    KERNEL_PARTITION,
    OsModel,
    SG_MAX_BYTES,
    VIDEO_CHUNK_BYTES,
    VIDEO_MAX_CHUNKS,
    VMA_LIMIT,
    DoubleOwnedBuffer,
    TmpFile,
)

MIB = 1 << 20

DRIVER_VIDEO = "video"
DRIVER_SG = "sg"
DRIVERS = (DRIVER_VIDEO, DRIVER_SG)

DEFAULT_FILE_SIZE = 2 * MIB
DEFAULT_SG_OPENS = 256


class AmbushError(Exception):
    pass


class PlanError(AmbushError):
    pass


class PlacementError(AmbushError):
    pass


@dataclass(frozen=True)
class AmbushPlan:
    """Derived placement arithmetic for one threshold/driver combination;
    plan() is its constructor."""

    threshold_mem_size: int
    driver: str
    chunk_size: int
    chunk_count: int
    dev_request_bytes: int
    dev_buf_size: int
    file_size: int
    pt_size: int
    map_mem_size: int
    vma_num: int
    vma_limit: int


def plan(
    threshold: int,
    driver: str,
    *,
    sg_opens: int = DEFAULT_SG_OPENS,
    sg_reserved: int = SG_MAX_BYTES,
    file_size: int = DEFAULT_FILE_SIZE,
    vma_limit: int = VMA_LIMIT,
) -> AmbushPlan:
    """Compute the placement arithmetic, doubling the file as needed."""
    if driver == DRIVER_VIDEO:
        chunk_size, chunk_count = VIDEO_CHUNK_BYTES, VIDEO_MAX_CHUNKS
    elif driver == DRIVER_SG:
        chunk_size, chunk_count = sg_reserved, sg_opens
    else:
        raise PlanError(f"unknown driver {driver!r}")
    dev_request = chunk_size * chunk_count
    dev_charged = (dev_request // MIB) * MIB
    if file_size <= 0 or file_size % DEFAULT_FILE_SIZE:
        raise PlanError("file size must be a positive multiple of 2 MiB")
    while True:
        pt_size = threshold - dev_charged - file_size
        if pt_size < 0:
            raise PlanError(
                "threshold leaves no room for the mapping file and buffers"
            )
        map_mem = pt_size * (PAGE_SIZE // 8)
        vma_num = map_mem // file_size
        if vma_num < vma_limit:
            break
        file_size *= 2
    return AmbushPlan(
        threshold_mem_size=threshold,
        driver=driver,
        chunk_size=chunk_size,
        chunk_count=chunk_count,
        dev_request_bytes=dev_request,
        dev_buf_size=dev_charged,
        file_size=file_size,
        pt_size=pt_size,
        map_mem_size=map_mem,
        vma_num=vma_num,
        vma_limit=vma_limit,
    )


@dataclass
class Placement:
    """What the executed placement left in memory."""

    plan: AmbushPlan
    file: TmpFile
    buffer: DoubleOwnedBuffer
    drained_pt_pages: int
    stuffed_pt_pages: int

    @property
    def pt_pages(self) -> int:
        return self.drained_pt_pages + self.stuffed_pt_pages

    @property
    def footprint_bytes(self) -> int:
        return self.buffer.allocated_bytes + self.file.size + self.pt_pages * PAGE_SIZE


def _map(os_model: OsModel, file: TmpFile, count: int) -> None:
    """Map the file count more times as one run; the model's first mapping
    marks the file."""
    if count > 0:
        first = not os_model.vmas
        os_model.mmap_primitive(file, count)
        if first:
            os_model.write_markers(file)


def drain_small_blocks(os_model: OsModel, file: TmpFile, room: int) -> tuple[int, int]:
    """Map the file until no free block below the target order remains.

    Each table page takes one page from the smallest free block, so the
    small blocks last exactly as many table pages as they hold pages.  The
    kernel partition's FRESH blocks are then freed, and as many bytes of
    small blocks as that injected are drained too.  The two phases map at
    most room mappings between them.  Returns (pt pages drained, fresh
    bytes injected).
    """
    buddy = os_model.buddy
    per_map = len(file.templates)  # one table per 2 MiB window of the file
    target_order = (target_block_size(os_model.dram.geometry) // PAGE_SIZE).bit_length() - 1

    def drain(cap: int) -> int:
        small = buddy.free_pages_below(KERNEL_PARTITION, target_order)
        maps = min(-(-small // per_map), cap)
        _map(os_model, file, maps)
        return maps

    maps = drain(room)
    fresh = [b for b in buddy.blocks(KERNEL_PARTITION) if b.owner == FRESH]
    for block in fresh:
        buddy.free(block)
    injected = sum(block.size for block in fresh)
    maps += drain(min(-(-injected // (per_map * PAGE_SIZE)), room - maps))
    return maps * per_map, injected


def place_interleaved(
    os_model: OsModel,
    plan_: AmbushPlan,
    file: TmpFile,
    maps: int,
    *,
    mitigation: bool = False,
) -> tuple[DoubleOwnedBuffer, int]:
    """Reserve the device buffers, then stuff maps more mappings' tables
    into the splits; returns the buffer and the table pages stuffed."""
    if plan_.driver == DRIVER_VIDEO:
        buffer = os_model.open_video(plan_.chunk_count, isolated=mitigation)
    else:
        buffer = os_model.open_sg(
            plan_.chunk_count, plan_.chunk_size, isolated=mitigation
        )
    os_model.map_buffer(buffer)
    _map(os_model, file, maps)
    return buffer, maps * len(file.templates)


def run_ambush(
    os_model: OsModel,
    plan_: AmbushPlan,
    *,
    mitigation: bool = False,
) -> Placement:
    """Execute the full placement: file, drain (fresh blocks included),
    buffers, stuffing, all within the table room."""
    file = os_model.create_tmp_file(plan_.file_size)
    per_map = len(file.templates)
    unit = rows_size_per_row_index(os_model.dram.geometry) if mitigation else PAGE_SIZE
    buffers = plan_.chunk_count * -(-plan_.chunk_size // unit) * unit
    room = (plan_.threshold_mem_size - file.size - buffers) // (PAGE_SIZE * per_map)
    if room < 0:
        raise PlacementError("buffers and file alone exceed the threshold")
    drained, _ = drain_small_blocks(os_model, file, room)
    buffer, stuffed = place_interleaved(os_model, plan_, file, room - drained // per_map,
                                        mitigation=mitigation)
    placement = Placement(plan_, file, buffer, drained, stuffed)
    if placement.footprint_bytes > plan_.threshold_mem_size:
        raise PlacementError("placement exceeded the memory threshold")
    return placement


@dataclass(frozen=True)
class AdjacencyReport:
    """Row adjacency between buffer rows and page-table rows: sorted
    (buffer row, table row) pairs of packed row keys, which
    DramGeometry.unpack_row_key decodes."""

    adjacent: bool
    pairs: tuple[tuple[int, int], ...]


def verify_adjacency(os_model: OsModel, placement: Placement) -> AdjacencyReport:
    """Check whether any buffer row neighbours a page-table row in-bank.

    Rows are compared as packed row keys, read per page run (the table
    runs as the allocator handed them out, one range per buffer chunk).
    Only the table pages whose row index borders a buffer row's index are
    read (see _bordering_runs); when there are none, nothing is.
    """
    geometry = os_model.dram.geometry
    rows = geometry.rows_per_bank
    buffer_runs = [chunk.frames() for chunk in placement.buffer.chunks]
    table_runs = _bordering_runs(geometry, os_model.pt_runs, buffer_runs)
    if not table_runs:
        return AdjacencyReport(False, ())
    pt_rows = geometry.packed_row_keys(table_runs)
    buffer_rows = geometry.packed_row_keys(buffer_runs)
    found = []
    for key in buffer_rows:
        row = key % rows
        if row > 0 and key - 1 in pt_rows:
            found.append((key, key - 1))
        if row < rows - 1 and key + 1 in pt_rows:
            found.append((key, key + 1))
    return AdjacencyReport(bool(found), tuple(sorted(found)))


_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1


def _bordering_runs(geometry: DramGeometry, table_runs, buffer_runs) -> list[range]:
    """The pages of table_runs whose row index is one more or one less
    than the row index of a page of buffer_runs.

    A row index is plain address bits (MappingSpec.row_index_bit_range).
    When they start at or above the page bits, every row a page touches
    has the page's row index, and the pages of one row index are slices of
    2**shift pages that repeat every rows_per_bank slices.  A table row
    next to a buffer row in-bank has a bordering index, so no other table
    page can hold one.  When the row bits start below the page bits, a
    page spans many row indexes and the runs are kept whole.
    """
    shift = geometry.mapping.row_index_bit_range[0] - _PAGE_SHIFT
    if shift < 0:
        return list(table_runs)
    rows = geometry.rows_per_bank
    indexes = set()
    for run in buffer_runs:
        if run:
            first, last = run.start >> shift, (run.stop - 1) >> shift
            indexes.update(t % rows for t in range(first, min(last, first + rows - 1) + 1))
    wanted = {i + d for i in indexes for d in (-1, 1)}
    clipped = []
    for run in table_runs:
        start, stop = run.start, run.stop
        first, last = start >> shift, stop - 1 >> shift
        if first == last:  # most runs lie inside one slice
            if first % rows in wanted:
                clipped.append(run)
            continue
        for t in range(first, last + 1):
            if t % rows in wanted:
                clipped.append(range(max(start, t << shift), min(stop, t + 1 << shift)))
    return clipped
