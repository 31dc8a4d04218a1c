"""Placement planning and execution: drain small blocks, interleave tables.

The plan mirrors the attack's own arithmetic: the device-buffer reservation
is charged at whole mebibytes, the page-table budget is what remains of the
threshold after the buffer and the mapping file, and the file doubles until
the mapping count fits under the VMA limit.  One mapping of a 2 MiB file
costs exactly one page-table page, so draining the allocator's small blocks
is just repeated mapping, and each phase knows its mapping count up front
and maps it as one run.

Execution enforces the threshold as a hard cap on actual bytes charged to
the attack (buffer blocks + file pages + table pages), which stops the
stuffing phase slightly before the plan's mapping budget when the charged
buffer figure was rounded down.  The drain, which maps before the buffers
exist, is capped by the same room, the buffers charged at the size they
will be allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .buddy_alloc import FRESH
from .dram_model import PAGE_SIZE, DramGeometry, rows_size_per_row_index, target_block_size
from .dram_model import page_row_keys  # noqa: F401  (bench/tracer.py patches it here)
from .os_model import (
    KERNEL_PARTITION,
    PT_SPAN,
    OsModel,
    SG_MAX_BYTES,
    VIDEO_CHUNK_BYTES,
    VIDEO_MAX_CHUNKS,
    VMA_LIMIT,
    DoubleOwnedBuffer,
    TmpFile,
    VmaLimitError,
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


class DrainError(AmbushError):
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


class MappingDriver:
    """Owns the mapping file and budget; stamps markers after the first map.

    table_room is the table pages the threshold leaves beside the file and
    the buffers, each charged at the size it will be allocated: under
    mitigation, a buffer chunk fills whole row-index spans.
    """

    def __init__(self, os_model: OsModel, plan_: AmbushPlan, *,
                 mitigation: bool = False) -> None:
        self.os = os_model
        self.plan = plan_
        self.file = os_model.create_tmp_file(plan_.file_size)
        self.pages_per_map = plan_.file_size // PT_SPAN
        self.mapped = 0
        self.pt_pages = 0
        unit = rows_size_per_row_index(os_model.dram.geometry) if mitigation else PAGE_SIZE
        buffers = plan_.chunk_count * -(-plan_.chunk_size // unit) * unit
        spare = plan_.threshold_mem_size - plan_.file_size - buffers
        self.table_room = max(0, spare) // PAGE_SIZE

    @property
    def budget_left(self) -> int:
        return self.plan.vma_num - self.mapped

    def map(self, count: int) -> int:
        """Map the file count more times as one run; returns the table
        pages added."""
        if count <= 0:
            return 0
        if count > self.budget_left:
            raise VmaLimitError("plan mapping budget exhausted")
        added = len(self.os.mmap_primitive(self.file, count))
        if not self.mapped:
            self.os.write_markers(self.file)
        self.mapped += count
        self.pt_pages += added
        return added


def drain_small_blocks(os_model: OsModel, mapper: MappingDriver) -> tuple[int, int]:
    """Map the file until no free block below the target order remains.

    The kernel partition's FRESH blocks are then freed, and as many bytes
    of small blocks as that injected are drained too.  Neither phase maps
    past the mapper's table room.  Returns (pt pages drained, fresh bytes
    injected).
    """
    def room() -> int:
        """The bytes of whole mappings that still fit in the table room."""
        per_map = mapper.pages_per_map
        return (mapper.table_room - mapper.pt_pages) // per_map * per_map * PAGE_SIZE

    drained = _drain_phase(os_model, mapper, room())
    buddy = os_model.buddy
    fresh = [b for b in buddy.blocks(KERNEL_PARTITION) if b.owner == FRESH]
    for block in fresh:
        buddy.free(block)
    injected = sum(block.size for block in fresh)
    if injected:
        drained += _drain_phase(os_model, mapper, min(injected, room()))
    return drained, injected


def _drain_phase(os_model: OsModel, mapper: MappingDriver, cap_bytes: int) -> int:
    """Map until the small blocks free now are drained, or cap_bytes of
    tables are; returns the table pages mapped.

    Each table page takes one page from the smallest free block, so the
    small blocks last exactly as many table pages as they hold pages.
    """
    target_order = _order_of(target_block_size(os_model.dram.geometry))
    small_pages = os_model.buddy.free_pages_below(KERNEL_PARTITION, target_order)
    per_map = mapper.pages_per_map
    cap_maps = -(-cap_bytes // (per_map * PAGE_SIZE))
    maps = -(-small_pages // per_map)
    capped = cap_maps < maps
    maps = min(maps, cap_maps)
    # Mapping one at a time checks the budget before every map, and once
    # more before the cap ends the drain early.
    if maps + capped > mapper.budget_left:
        raise DrainError("mapping budget exhausted before small blocks were drained")
    return mapper.map(maps)


def _order_of(size: int) -> int:
    pages = size // PAGE_SIZE
    return pages.bit_length() - 1


def place_interleaved(
    os_model: OsModel,
    plan_: AmbushPlan,
    mapper: MappingDriver,
    *,
    mitigation: bool = False,
) -> DoubleOwnedBuffer:
    """Reserve the device buffers, then stuff tables into the splits.

    Stuffing continues until either the plan's mapping budget or the
    threshold cap on actual charged bytes is reached, whichever binds
    first.
    """
    if plan_.driver == DRIVER_VIDEO:
        buffer = os_model.open_video(plan_.chunk_count, isolated=mitigation)
    else:
        buffer = os_model.open_sg(
            plan_.chunk_count, plan_.chunk_size, isolated=mitigation
        )
    os_model.map_buffer(buffer)
    if buffer.allocated_bytes + plan_.file_size > plan_.threshold_mem_size:
        raise PlacementError("buffers and file alone exceed the threshold")
    fits = max(0, (mapper.table_room - mapper.pt_pages) // mapper.pages_per_map)
    mapper.map(min(mapper.budget_left, fits))
    return buffer


def run_ambush(
    os_model: OsModel,
    plan_: AmbushPlan,
    *,
    mitigation: bool = False,
) -> Placement:
    """Execute the full placement: file, drain (fresh blocks included),
    buffers, stuffing."""
    mapper = MappingDriver(os_model, plan_, mitigation=mitigation)
    drained, _ = drain_small_blocks(os_model, mapper)
    buffer = place_interleaved(os_model, plan_, mapper, mitigation=mitigation)
    placement = Placement(
        plan=plan_,
        file=mapper.file,
        buffer=buffer,
        drained_pt_pages=drained,
        stuffed_pt_pages=mapper.pt_pages - drained,
    )
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
