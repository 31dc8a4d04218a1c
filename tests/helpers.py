"""Independent oracles shared by the unit and acceptance tests.

These deliberately recompute behavior through different mechanisms than
the package: the mapping oracle folds selector bits with numpy over every
address, the coordinate inverse takes a five-field (dimm, rank, bank, row,
column) coordinate where the package names a cell by row key and column,
the bitmap allocator tracks a free bitmap as one big integer instead of
per-order free lists, the reference preload carves by trial and error
where the package tests bitmasks of free pages, the reference hammer
groups decoded (dimm, rank, bank, row) coordinates and decodes fired cells
through that inverse where the package compares packed row keys, the
reference adjacency pairs (dimm, rank, bank, row) tuples page by page
where the package packs the keys of clipped runs, the verification oracle sweeps every mapped page linearly instead of
consulting the dirty index, the per-frame maps expand table runs and
buffer chunks frame by frame where the OS model bisects runs, the
per-frame memory keeps one dict entry for every backed frame where
physical memory keeps pristine frames as runs, the reference pair
selection translates and keys both pages of every draw where the package
keys the buffer once per trial, the reference escalation searches
every frame's page for the record where the package searches each
distinct page content once, and the reference hammer loop runs the
verification scan every round where the package replays a scan whose
result and effects it knows.

The physical-address latency sampler is no oracle: it draws by the
package's own packed-key rule and lobes, and lives here because only the
tests time a single pair of physical addresses.
"""

from __future__ import annotations

import csv
import io
import random
import struct
from itertools import chain, cycle
from typing import NamedTuple
from unittest import mock

import numpy as np

from hammersim.ambush import DRIVER_VIDEO, AdjacencyReport, plan, run_ambush
from hammersim.buddy_alloc import (
    _PLACE_ATTEMPTS,
    Block,
    BuddyState,
    OutOfMemoryError,
    FRESH,
    Partition,
    preload_workload,
)
from hammersim.dram_model import (
    FLIP_ONE_TO_ZERO,
    FLIP_ZERO_TO_ONE,
    PAGE_SIZE,
    AddressRangeError,
    Dram,
    DramCoord,
    DramGeometry,
    InjectedFlip,
    MappingSpec,
    VulnCalibration,
    VulnerabilityMap,
    _apply,
    aligned_blocks,
    map_phys_to_dram,
    page_row_keys,
    rows_size_per_row_index,
)
from hammersim import exploit, harness
from hammersim.harness import CSV_COLUMNS, HarnessError, TrialReport, build_sim
from hammersim.os_model import (MARKER, PROBE_PTE, PT_SPAN, PTE_SIZE, BufferChunk,
                                DoubleOwnedBuffer, OsModel, PteEntry, _user_pte, cred_pattern)
from hammersim.timing_channel import (ChannelError, ChannelModel, PairSelectionError,
                                      _draw_cycles, _row_conflict)
from hammersim.profiles import ProfileError, get_profile

MIB = 1024 * 1024


def simple_mapping(
    *,
    banks: int = 2,
    rows: int = 64,
    row_size: int = 8192,
) -> DramGeometry:
    """Small single-DIMM geometry for fast tests.

    Layout: column bits at the bottom, then bank selector bits, then the
    row index on top, so each row index owns one contiguous, row-aligned
    span of rows_size_per_row_index bytes.
    """
    if banks & (banks - 1) or rows & (rows - 1) or row_size & (row_size - 1):
        raise ProfileError("banks, rows, row_size must be powers of two")
    bank_lo = (row_size - 1).bit_length()
    bank_width = (banks - 1).bit_length()
    row_lo = bank_lo + bank_width
    row_hi = row_lo + (rows - 1).bit_length() - 1
    mapping = MappingSpec.make(
        dimm=[],
        rank=[],
        bank=[[bank_lo + i] for i in range(bank_width)],
        row_range=(row_lo, row_hi),
    )
    return DramGeometry(
        dimms=1,
        ranks_per_dimm=1,
        banks_per_rank=banks,
        rows_per_bank=rows,
        row_size=row_size,
        mapping=mapping,
    )


def parse_report(text: str) -> list[TrialReport]:
    """Read CSV report text back into trial rows (schema round-trip)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise HarnessError("report header does not match the schema")
    out = []
    for row in reader:
        if len(row) != len(CSV_COLUMNS):
            raise HarnessError("report row width does not match the schema")
        kwargs = {}
        for name, raw in zip(CSV_COLUMNS, row):
            field_type = TrialReport.__dataclass_fields__[name].type
            if field_type == "bool":
                kwargs[name] = bool(int(raw))
            elif field_type == "int":
                kwargs[name] = int(raw)
            else:
                kwargs[name] = raw
        out.append(TrialReport(**kwargs))
    return out


def pack_row_key(geometry: DramGeometry, dimm: int, rank: int, bank: int,
                 row: int) -> int:
    """The packed row key of (dimm, rank, bank, row), by mixed radix."""
    key = dimm * geometry.ranks_per_dimm + rank
    key = key * geometry.banks_per_rank + bank
    return key * geometry.rows_per_bank + row


def validate_coord(coord: DramCoord, geometry: DramGeometry) -> None:
    """Raise AddressRangeError unless every field of coord is in range."""
    if not (
        0 <= coord.dimm < geometry.dimms
        and 0 <= coord.rank < geometry.ranks_per_dimm
        and 0 <= coord.bank < geometry.banks_per_rank
        and 0 <= coord.row < geometry.rows_per_bank
        and 0 <= coord.column < geometry.row_size
    ):
        raise AddressRangeError(f"coordinate out of bounds: {coord}")


def unmap_dram_to_phys(coord: DramCoord, geometry: DramGeometry) -> int:
    """Inverse of map_phys_to_dram: the physical byte at coord, through the
    geometry's inverse matrix."""
    validate_coord(coord, geometry)
    key = pack_row_key(geometry, coord.dimm, coord.rank, coord.bank, coord.row)
    return _apply(geometry._inverse, key * geometry.row_size + coord.column)


def user_pte(pfn: int) -> PteEntry:
    """A present, writable, user entry for frame pfn."""
    return PteEntry(_user_pte(pfn))


def unpacked_pairs(geometry: DramGeometry, pairs) -> tuple:
    """Packed adjacency pairs as (dimm, rank, bank, row) tuple pairs."""
    return tuple((geometry.unpack_row_key(a), geometry.unpack_row_key(b))
                 for a, b in pairs)


def cells_map(geometry: DramGeometry, cells) -> VulnerabilityMap:
    """A map holding exactly the given (row, cell) pairs, each row a packed
    key or a (dimm, rank, bank, row) tuple: zero density, with their rows
    already in the row cache."""
    vm = VulnerabilityMap(geometry, VulnCalibration())
    for row, cell in cells:
        row_coord = geometry.unpack_row_key(row) if isinstance(row, int) else row
        validate_coord(DramCoord(*row_coord, cell.column), geometry)
        key = pack_row_key(geometry, *row_coord)
        vm._cache[key] = vm._cache.get(key, ()) + (cell,)
    return vm


def windows(os_model: OsModel) -> dict[int, int]:
    """Window base -> the frame of the page table that maps it."""
    return {os_model.map_base + i * PT_SPAN: pfn
            for i, pfn in enumerate(os_model._pt_pfns)}


def mapped_pages(os_model: OsModel, slot: int | None = None) -> range:
    """Every mapped page of the model's file, ascending; with slot given,
    only the pages mapped through that entry index of their table."""
    if os_model.file is None:
        return range(0)
    end = os_model.map_base + os_model.mappings * os_model.file.size
    if slot is None:
        return range(os_model.map_base, end, PAGE_SIZE)
    return range(os_model.map_base + slot * PAGE_SIZE, end, PT_SPAN)


def own_file_pfn(os_model: OsModel, vaddr: int) -> int:
    """The file frame a pristine entry maps vaddr to."""
    pfns = os_model.file.pfns
    return pfns[(vaddr - os_model.map_base) // PAGE_SIZE % len(pfns)]


def table_windows(os_model: OsModel) -> dict[int, int]:
    """Table frame -> the base of the window it maps, frame by frame from
    the table runs in window order."""
    frames = chain.from_iterable(os_model.pt_runs)
    return {pfn: os_model.map_base + i * PT_SPAN for i, pfn in enumerate(frames)}


class FrameMemory:
    """Per-frame reference physical memory: a dict entry for every backed
    frame, holding a shared immutable page until its first change gives
    the frame a private bytearray; unbacked frames read as zeros.  Every
    table frame has its own window-number entry, and each byte written or
    flipped in one marks its entry in dirty."""

    def __init__(self) -> None:
        self.pages: dict[int, bytes | bytearray] = {}
        self.windows: dict[int, int] = {}  # table frame -> window number
        self.dirty: dict[int, set[int]] = {}

    def map_runs(self, rows) -> None:
        """Rows as PhysicalMemory.map_runs takes them, frame by frame."""
        for start, stop, first, pages in rows:
            self.pages.update(zip(range(start, stop), cycle(pages)))
            if first is not None:
                self.windows.update(zip(range(start, stop), range(first, first + stop - start)))

    def _mark(self, pfn: int, off: int) -> None:
        if pfn in self.windows:
            self.dirty.setdefault(off // PTE_SIZE, set()).add(self.windows[pfn])

    def _page(self, pfn: int) -> bytearray:
        page = self.pages.get(pfn)
        if type(page) is not bytearray:
            page = bytearray(PAGE_SIZE) if page is None else bytearray(page)
            self.pages[pfn] = page
        return page

    def read(self, addr: int, length: int) -> bytes:
        zero = bytes(PAGE_SIZE)
        return bytes(self.pages.get(a // PAGE_SIZE, zero)[a % PAGE_SIZE]
                     for a in range(addr, addr + length))

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write(self, addr: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            pfn, off = divmod(addr + i, PAGE_SIZE)
            self._page(pfn)[off] = byte
            self._mark(pfn, off)

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, struct.pack("<Q", value))

    def flip_bit(self, addr: int, bit: int, direction: str) -> bool:
        current = self.read(addr, 1)[0] >> bit & 1
        if (direction, current) not in ((FLIP_ONE_TO_ZERO, 1), (FLIP_ZERO_TO_ONE, 0)):
            return False
        pfn, off = divmod(addr, PAGE_SIZE)
        self._page(pfn)[off] ^= 1 << bit
        self._mark(pfn, off)
        return True

    def backed_pfns(self) -> list[int]:
        return sorted(self.pages)


def buffer_pages(buffer) -> dict[int, int]:
    """Mapped buffer page -> frame, page by page from each chunk's frames."""
    return {chunk.vbase + i * PAGE_SIZE: pfn
            for chunk in buffer.chunks for i, pfn in enumerate(chunk.frames())}


def reference_free_lists(buddy: BuddyState) -> dict[str, list[list[int]]]:
    """A fresh allocator's free lists, block by block: every partition
    split whole into maximal aligned blocks by aligned_blocks."""
    free = {}
    for name, part in buddy.partitions.items():
        lists: list[list[int]] = [[] for _ in range(buddy.max_order + 1)]
        for first, order in aligned_blocks(
                part.base // PAGE_SIZE, part.size // PAGE_SIZE, buddy.max_order):
            lists[order].append(first)
        free[name] = lists
    return free


def reference_hammer(dram: Dram, aggressors: list[int], reps: int,
                     rng: random.Random) -> list[InjectedFlip]:
    """Dram.hammer on decoded coordinates: aggressors grouped by
    (dimm, rank, bank) tuples, victims at row - 1 and row + 1 inside the
    bank, and each fired cell's address decoded by unmap_dram_to_phys.
    Draws from rng and counts activations exactly as Dram.hammer does."""
    if not aggressors:
        raise ValueError("at least one aggressor address required")
    if reps <= 0:
        raise ValueError("reps must be positive")
    geometry = dram.geometry
    coords = [map_phys_to_dram(a, geometry) for a in aggressors]

    per_bank: dict[tuple[int, int, int], list[int]] = {}
    for c in coords:
        rows = per_bank.setdefault((c.dimm, c.rank, c.bank), [])
        if c.row not in rows:
            rows.append(c.row)

    hammered: list[tuple[tuple[int, int, int], int]] = []
    for bank, rows in per_bank.items():
        if len(rows) >= 2:
            dram.total_activations += reps * len(rows)
            hammered.extend((bank, row) for row in rows)
        else:
            dram.total_activations += 1

    mult = dram.params.single_sided_multiplier
    dose_factor = reps / dram.params.dose
    flips: list[InjectedFlip] = []
    fired: set[tuple[tuple[int, int, int, int], int, int]] = set()
    for bank, row in hammered:
        for victim_row in (row - 1, row + 1):
            if victim_row < 0 or victim_row >= geometry.rows_per_bank:
                continue
            victim = (*bank, victim_row)
            for cell in dram.vuln_map.cells_in_row(pack_row_key(geometry, *victim)):
                p = min(1.0, cell.probability * mult * dose_factor)
                if rng.random() >= p:
                    continue
                ident = (victim, cell.column, cell.bit)
                if ident in fired:
                    continue
                fired.add(ident)
                addr = unmap_dram_to_phys(DramCoord(*victim, cell.column), geometry)
                flips.append(InjectedFlip(addr, cell.bit, cell.direction))
    return flips


def numpy_coord_keys(geometry: DramGeometry) -> np.ndarray:
    """Map every physical address to a packed coordinate key, vectorized."""
    spec = geometry.mapping
    capacity = geometry.capacity
    addrs = np.arange(capacity, dtype=np.uint64)

    def fold(bits) -> np.ndarray:
        acc = np.zeros(capacity, dtype=np.uint64)
        for b in bits:
            acc ^= (addrs >> np.uint64(b)) & np.uint64(1)
        return acc

    def coordinate(selectors) -> np.ndarray:
        value = np.zeros(capacity, dtype=np.uint64)
        for i, bits in enumerate(selectors):
            value |= fold(bits) << np.uint64(i)
        return value

    dimm = coordinate(spec.dimm_select_bits)
    rank = coordinate(spec.rank_select_bits)
    bank = coordinate(spec.bank_select_bits)

    lo, hi = spec.row_index_bit_range
    row = (addrs >> np.uint64(lo)) & np.uint64((1 << (hi - lo + 1)) - 1)

    used = {b for sel in (spec.dimm_select_bits, spec.rank_select_bits,
                          spec.bank_select_bits) for bits in sel for b in bits[:1]}
    used |= set(range(lo, hi + 1))
    column_bits = [b for b in range(capacity.bit_length() - 1) if b not in used]
    column = np.zeros(capacity, dtype=np.uint64)
    for i, b in enumerate(sorted(column_bits)):
        column |= ((addrs >> np.uint64(b)) & np.uint64(1)) << np.uint64(i)

    key = dimm
    for part, size in (
        (rank, geometry.ranks_per_dimm),
        (bank, geometry.banks_per_rank),
        (row, geometry.rows_per_bank),
        (column, 1 << len(column_bits)),
    ):
        key = key * np.uint64(size) + part
    return key


class BitmapBuddy:
    """Bitmap-backed reference allocator with the same placement policy.

    Blocks are named by first page number, as the allocator names them.
    The free state is one integer per partition, bit i set when page i
    (relative to the partition's first page) is free.  Maximal free blocks are
    derived from the bitmap, so split and coalesce behavior is implicit
    rather than tracked: per order j, a mask of the aligned blocks whose
    pages are all free.  A change to the bitmap updates those masks only
    at the orders it touches: inside the changed block, and then up its
    chain of containing blocks until one keeps its state.
    """

    def __init__(self, partitions: list[Partition], max_order: int = 10) -> None:
        self.partitions = {p.name: p for p in partitions}
        self.max_order = max_order
        self.bits = {
            p.name: (1 << (p.size // PAGE_SIZE)) - 1 for p in partitions
        }
        # Alignment masks depend only on pool geometry, so build them once.
        self._align = {
            p.name: [
                self._aligned_mask(p.size // PAGE_SIZE, j)
                for j in range(max_order + 1)
            ]
            for p in partitions
        }
        # name -> per order, the aligned blocks that are wholly free
        self._full = {p.name: self._full_blocks(p.name) for p in partitions}
        self._masks = {p.name: [0] * (max_order + 1) for p in partitions}
        for name in self.partitions:
            self._refresh_masks(name, 0, max_order)

    @staticmethod
    def _aligned_mask(pages: int, order: int) -> int:
        # Bits at positions that are multiples of 2**order.
        step = 1 << order
        mask = 0
        for pos in range(0, pages, step):
            mask |= 1 << pos
        return mask

    def _full_blocks(self, name: str) -> list[int]:
        """Entry j has bit i set when pages [i, i + 2^j) are all free and i
        is aligned to 2^j, derived from the whole bitmap."""
        pages = self.partitions[name].size // PAGE_SIZE
        align = self._align[name]
        # Shifts bring in zeros, so no block runs past the end of the pool.
        full = self.bits[name] & ((1 << pages) - 1)
        aligned = [full & align[0]]
        for j in range(1, self.max_order + 1):
            full &= full >> (1 << (j - 1))
            aligned.append(full & align[j])
        return aligned

    def _refresh_masks(self, name: str, low: int, top: int) -> None:
        """Rederive the maximal masks of orders low .. top."""
        full, masks = self._full[name], self._masks[name]
        for j in range(low, min(top + 1, self.max_order)):
            # Drop halves of fully-free aligned parent blocks.
            parents = full[j + 1]
            masks[j] = full[j] & ~(parents | (parents << (1 << j)))
        if top == self.max_order:
            masks[top] = full[top]

    def _set_block(self, name: str, page: int, order: int, free: bool) -> None:
        """Free or take the aligned block of 2^order pages at page."""
        mask = ((1 << (1 << order)) - 1) << page
        outside = ~mask
        self.bits[name] = self.bits[name] | mask if free else self.bits[name] & outside
        full, masks, align = self._full[name], self._masks[name], self._align[name]
        # Every aligned block inside this one is now wholly free or wholly
        # taken, so none below its order is maximal.
        for j in range(order + 1):
            full[j] = full[j] | align[j] & mask if free else full[j] & outside
            masks[j] &= outside
        top = order
        for j in range(order + 1, self.max_order + 1):
            first = page >> j << j
            whole = (full[j - 1] >> first) & (full[j - 1] >> (first + (1 << (j - 1)))) & 1
            if whole == (full[j] >> first) & 1:
                break  # neither this block nor any containing block changed
            full[j] ^= 1 << first
            top = j
        self._refresh_masks(name, order, top)

    def _page(self, name: str, first: int) -> int:
        """Page first's bit index in the partition's bitmap."""
        return first - self.partitions[name].base // PAGE_SIZE

    def _set_range(self, name: str, first: int, pages: int, free: bool) -> None:
        """Free or take pages from first, one aligned block at a time."""
        page = self._page(name, first)
        while pages:
            align = (page & -page).bit_length() - 1 if page else self.max_order
            order = min(align, self.max_order, pages.bit_length() - 1)
            self._set_block(name, page, order, free)
            page += 1 << order
            pages -= 1 << order

    def maximal_masks(self, name: str) -> list[int]:
        """Entry j has bit i set when a maximal aligned free block of order
        j starts at page i (relative to the partition base)."""
        return list(self._masks[name])

    def allocate(self, name: str, order: int) -> int | None:
        """Lowest address of the smallest sufficient maximal block."""
        masks = self._masks[name]
        for j in range(order, self.max_order + 1):
            candidates = masks[j]
            if candidates:
                page = (candidates & -candidates).bit_length() - 1
                self._set_block(name, page, order, False)
                return self.partitions[name].base // PAGE_SIZE + page
        return None

    def free(self, name: str, first: int, order: int) -> None:
        self._set_block(name, self._page(name, first), order, True)

    def range_free(self, name: str, first: int, pages: int) -> bool:
        mask = ((1 << pages) - 1) << self._page(name, first)
        return self.bits[name] & mask == mask

    def take_range(self, name: str, first: int, pages: int) -> None:
        self._set_range(name, first, pages, False)

    def free_range(self, name: str, first: int, pages: int) -> None:
        self._set_range(name, first, pages, True)

    def free_pages(self, name: str) -> int:
        return self.bits[name].bit_count()


def free_block_set(buddy: BuddyState, partition: str) -> set[tuple[int, int]]:
    lists = buddy._free[partition]
    return {(first, order) for order, lst in enumerate(lists) for first in lst}


def assert_guarded(buddy: BuddyState, block, span: int) -> None:
    """block has its "guard" run: span bytes of pages on each side of
    block.frames, neither free nor inside any block."""
    first, stop = block.frames.start, block.frames.stop
    pages = span // PAGE_SIZE
    guards = (range(first - pages, first), range(stop, stop + pages))
    runs = [run for run in buddy._runs if run.owner == "guard" and run.spans == guards]
    assert [run.partition for run in runs] == [block.partition]
    held = [(first, first + (1 << order))
            for first, order in free_block_set(buddy, block.partition)]
    held += [(b.frames.start, b.frames.stop) for b in buddy.blocks(block.partition)]
    for guard in guards:
        assert not any(start < guard.stop and guard.start < end for start, end in held)


def free_masks(buddy: BuddyState, partition: str) -> list[int]:
    """The allocator's free lists in BitmapBuddy.maximal_masks form: entry j
    has bit i set when a free block of order j starts at page i of the
    partition."""
    base = buddy.partitions[partition].base // PAGE_SIZE
    masks = []
    for lst in buddy._free[partition]:
        mask = 0
        for first in lst:
            mask |= 1 << (first - base)
        masks.append(mask)
    return masks


def run_op_sequence(seed: int, steps: int, base: int = 4 * MIB,
                    size: int = 4 * MIB) -> None:
    """Random alloc/free walk comparing allocator and oracle after every op."""
    part = Partition("pool", base, size)
    buddy = BuddyState([part], max_order=10)
    oracle = BitmapBuddy([part], max_order=10)
    rng = random.Random(seed)
    live: list[Block] = []
    for _ in range(steps):
        if not live or rng.random() < 0.55:
            order = min(rng.randrange(11), rng.randrange(11))
            want = oracle.allocate("pool", order)
            try:
                block = buddy.allocate("pool", order, "t")
            except OutOfMemoryError:
                assert want is None
                continue
            assert want == block.first
            live.append(block)
        else:
            block = live.pop(rng.randrange(len(live)))
            buddy.free(block)
            oracle.free("pool", block.first, (block.pages - 1).bit_length())
        assert free_masks(buddy, "pool") == oracle.maximal_masks("pool")
    assert buddy.free_pages("pool") == oracle.free_pages("pool")


def reference_preload(
    buddy: BuddyState,
    partition: str,
    *,
    residue_bytes: int,
    bulk_bytes: int,
    reserve_low_bytes: int,
    small_max_order: int,
    rng: random.Random,
    fresh_bytes: int = 0,
) -> None:
    """preload_workload by trial and error through the allocator's own
    calls: every placement is an allocate_at that may fail, an anchor whose
    half fails is freed again, the stranded pages are one take_pages call
    and the residue halves are freed one by one; the fresh halves stay
    allocated, owned FRESH.  Draws from rng exactly as preload_workload
    does."""
    part = buddy.partitions[partition]
    lo = part.base + reserve_low_bytes

    def place(order: int) -> Block:
        size = PAGE_SIZE << order
        start = -(-lo // size) * size
        slots = (part.end - start) // size
        if slots <= 0:
            raise OutOfMemoryError("region too small for requested order")
        for _ in range(_PLACE_ATTEMPTS):
            base = start + rng.randrange(slots) * size
            try:
                return buddy.allocate_at(partition, base // PAGE_SIZE, order, "workload")
            except OutOfMemoryError:
                pass
        raise OutOfMemoryError("workload placement failed")

    placed = 0
    while placed < bulk_bytes:
        order = buddy.max_order
        while order > 0 and (PAGE_SIZE << order) > bulk_bytes - placed:
            order -= 1
        placed += place(order).size

    def build_pairs(total_bytes: int, owner: str, pool: str) -> list[Block]:
        halves: list[Block] = []
        remaining = total_bytes // PAGE_SIZE
        while remaining > 0:
            order = rng.randint(0, min(small_max_order, remaining.bit_length() - 1))
            size = PAGE_SIZE << order
            start = -(-lo // (2 * size)) * 2 * size
            slots = (part.end - start) // (2 * size)
            if slots <= 0:
                raise OutOfMemoryError("region too small for requested order")
            for _ in range(_PLACE_ATTEMPTS):
                pair_base = start + rng.randrange(slots) * 2 * size
                try:
                    anchor = buddy.allocate_at(partition, pair_base // PAGE_SIZE, order,
                                               "workload")
                except OutOfMemoryError:
                    continue
                try:
                    half = buddy.allocate_at(partition, (pair_base + size) // PAGE_SIZE,
                                             order, owner)
                except OutOfMemoryError:
                    buddy.free(anchor)
                    continue
                halves.append(half)
                remaining -= 1 << order
                break
            else:
                raise OutOfMemoryError(f"could not place {pool} pair")
        return halves

    residue_halves = build_pairs(residue_bytes, "workload", "residue")
    build_pairs(fresh_bytes, FRESH, "fresh")
    stranded = buddy.free_pages_below(partition, buddy.max_order)
    buddy.take_pages(partition, stranded, "workload")
    for half in residue_halves:
        buddy.free(half)


def small_attack_sim(*, vuln: VulnerabilityMap | None = None, seed: int = 1,
                     threshold: int = 24 * MIB, residue: int = 2 * MIB,
                     geometry: DramGeometry | None = None, mitigation: bool = False):
    """128 MiB machine (two banks unless geometry is given) with the full
    placement already run."""
    geo = simple_mapping(banks=2, rows=8192, row_size=8192) if geometry is None else geometry
    span = rows_size_per_row_index(geo)
    buddy = BuddyState(
        [Partition("kernel", 0, 64 * MIB),
         Partition("user", 64 * MIB + span, 63 * MIB)],
        row_span=span,
    )
    dram = Dram(geo, vuln)
    os_model = OsModel(dram, buddy)
    preload_workload(
        buddy, "kernel",
        residue_bytes=residue,
        bulk_bytes=8 * MIB,
        reserve_low_bytes=40 * MIB,
        small_max_order=2,
        rng=random.Random(seed),
    )
    placement = run_ambush(os_model, plan(threshold, DRIVER_VIDEO),
                           mitigation=mitigation)
    return os_model, placement


def full_placement(profile, driver: str, seed: int, *, mitigation: bool = False):
    """A machine (a builtin profile's name, or a profile) after the
    full-scale placement for driver."""
    profile = get_profile(profile) if isinstance(profile, str) else profile
    os_model = build_sim(profile, seed).os
    placement = run_ambush(
        os_model,
        plan(profile.threshold_for(driver), driver, sg_opens=profile.sg_opens),
        mitigation=mitigation,
    )
    return os_model, placement


def reference_adjacency(os_model: OsModel, placement) -> AdjacencyReport:
    """Row adjacency between buffer rows and page-table rows, found on
    (dimm, rank, bank, row) tuple sets: one page_row_keys call per page,
    neighbours built as tuples.  Only the sorted pairs are packed, by
    pack_row_key, into the report verify_adjacency gives."""
    geometry = os_model.dram.geometry
    pt_rows: set[tuple[int, int, int, int]] = set()
    for pfn in os_model.pt_pfns():
        pt_rows |= page_row_keys(pfn, geometry)
    pairs = set()
    for chunk in placement.buffer.chunks:
        first = chunk.block.first
        for pfn in range(first, first + chunk.page_count()):
            for d, r, b, row in page_row_keys(pfn, geometry):
                for neighbor_row in (row - 1, row + 1):
                    if (d, r, b, neighbor_row) in pt_rows:
                        pairs.add(((d, r, b, row), (d, r, b, neighbor_row)))
    packed = sorted((pack_row_key(geometry, *buffer_row), pack_row_key(geometry, *pt_row))
                    for buffer_row, pt_row in pairs)
    return AdjacencyReport(tuple(packed))


def fuzz_injections(os_model: OsModel, rng: random.Random, count: int) -> int:
    """Flip random bits in table frames (and a few file headers)."""
    pt_list = sorted(os_model.pt_pfns())
    file = os_model.file
    injected = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.75:
            pfn = rng.choice(pt_list)
            addr = pfn * PAGE_SIZE + rng.randrange(PAGE_SIZE)
        else:
            pfn = rng.choice(file.pfns)
            addr = pfn * PAGE_SIZE + rng.randrange(16)
        direction = rng.choice(["1to0", "0to1"])
        if os_model.memory.flip_bit(addr, rng.randrange(8), direction):
            injected += 1
    os_model.flush_tlb()
    return injected


def brute_force_verify(os_model: OsModel) -> tuple[int, int] | None:
    """Reference probe scan that never consults the dirty index.

    The candidate list comes from one linear sweep of every mapped page:
    those that read neither the marker nor their own file page's header.
    Re-scans after each probe walk the stride-512 probe positions directly:
    between sweeps only slot-1 entries change (probe writes and their
    restores), so checking every slot-1 position reproduces the capture
    algorithm's reads, repairs, and result exactly.  A probe position that
    was a candidate in the first sweep counts only once its header changes.
    """

    def sweep(slot: int | None) -> list[tuple[int, int]]:
        out = []
        for vaddr in mapped_pages(os_model, slot):
            value = os_model.read_u64_virtual(vaddr)
            if value is None or value == MARKER:
                continue
            own = own_file_pfn(os_model, vaddr)
            if value != os_model.memory.read_u64(own * PAGE_SIZE):
                out.append((vaddr, value))
        return out

    before = dict(sweep(None))
    for va in before:
        old_pte = os_model.read_u64_virtual(va + 8)
        if old_pte is None:
            continue
        os_model.write_u64_virtual(va + 8, PROBE_PTE)
        os_model.flush_tlb()
        found = None
        for vb, value in sweep(1):
            if vb != va and value != before.get(vb):
                found = vb
                break
        if found is not None:
            return va, found
        os_model.write_u64_virtual(va + 8, old_pte)
    return None


class LatencySample(NamedTuple):
    """One paired-access measurement and its classification."""

    cycles: int
    classified_conflict: bool
    true_conflict: bool


def is_row_conflict_pair(addr_a: int, addr_b: int, geometry: DramGeometry) -> bool:
    """Ground truth by the package's packed-key rule: same dimm/rank/bank,
    different rows."""
    return _row_conflict(geometry.row_key_of(addr_a), geometry.row_key_of(addr_b),
                         geometry.rows_per_bank)


def sample_latency_phys(addr_a: int, addr_b: int, geometry: DramGeometry,
                        model: ChannelModel, rng: random.Random) -> LatencySample:
    """Draw a paired-access latency for two physical addresses, by the
    lobe rule select_hammer_pair draws from."""
    truth = is_row_conflict_pair(addr_a, addr_b, geometry)
    cycles = _draw_cycles(truth, model, rng)
    return LatencySample(cycles, cycles >= model.threshold_cycles, truth)


def sample_latency(os_model: OsModel, vaddr_a: int, vaddr_b: int, model: ChannelModel,
                   rng: random.Random) -> tuple[LatencySample, tuple[int, int]]:
    """Time two virtual addresses at the physical bytes they translate to,
    honouring the TLB; returns the sample and those two byte addresses."""
    pa = os_model.translate(vaddr_a)
    pb = os_model.translate(vaddr_b)
    if pa is None or pb is None:
        raise ChannelError("cannot time an unmapped address")
    byte_a = pa * PAGE_SIZE + vaddr_a % PAGE_SIZE
    byte_b = pb * PAGE_SIZE + vaddr_b % PAGE_SIZE
    geometry = os_model.dram.geometry
    return sample_latency_phys(byte_a, byte_b, geometry, model, rng), (byte_a, byte_b)


def reference_select_pair(os_model: OsModel, page_vaddrs: list[int], model: ChannelModel,
                          rng: random.Random, *, max_attempts: int = 5000):
    """Pair selection draw by draw: rng.sample of the virtual pages, then
    both pages translated and keyed again for every timing sample."""
    if len(page_vaddrs) < 2:
        raise PairSelectionError("need at least two pages to time")
    for attempt in range(1, max_attempts + 1):
        a, b = rng.sample(page_vaddrs, 2)
        sample, timed = sample_latency(os_model, a, b, model, rng)
        if sample.classified_conflict:
            return (a, b), attempt, timed
    raise PairSelectionError(
        f"no conflicting pair classified within {max_attempts} attempts", max_attempts)


def reference_escalate(os_model: OsModel, va: int, vb: int, pid: int) -> bool:
    """escalate_root frame by frame: every frame's page is searched for the
    record anew, look-alikes zeroed, checked and restored in turn."""
    cred = os_model.creds[pid]
    pattern = cred_pattern(cred.uid)
    probe_addr = va + exploit.PROBE_ENTRY_INDEX * 8
    for pfn in os_model.memory.backed_pfns():
        os_model.write_u64_virtual(probe_addr, _user_pte(pfn))
        os_model.flush_tlb()
        page = os_model.read_virtual(vb, PAGE_SIZE)
        if page is None:
            continue
        offset = page.find(pattern)
        while offset >= 0:
            os_model.write_virtual(vb + offset, struct.pack("<I", 0))
            if os_model.getuid(pid) == 0:
                return True
            os_model.write_virtual(vb + offset, struct.pack("<I", cred.uid))
            offset = page.find(pattern, offset + 4)
    return False


def first_pages(buffer: DoubleOwnedBuffer, n: int) -> DoubleOwnedBuffer:
    """The mapped buffer cut to its first n pages, chunk by chunk."""
    chunks = []
    for chunk in buffer.chunks:
        take = min(n, chunk.page_count())
        chunks.append(BufferChunk(chunk.block, take * PAGE_SIZE, chunk.vbase))
        n -= take
        if not n:
            break
    return DoubleOwnedBuffer(buffer.driver, chunks)


def scan_every_round(os_model: OsModel, buffer: DoubleOwnedBuffer, channel: ChannelModel,
                     rng: random.Random, *, rounds_cap: int, reps_per_round: int, pid: int,
                     pair_attempt_cap: int = 5000) -> exploit.ExploitOutcome:
    """hammer_loop without replay: every round runs the verification scan.
    The pair selection, hammer, scan and escalation are looked up in the
    exploit module at call time, so a twin can patch them."""
    outcome = exploit.ExploitOutcome(status=exploit.STATUS_NONE, rounds=0)
    pages = exploit.key_buffer(buffer, os_model.dram.geometry)
    for _ in range(rounds_cap):
        outcome.rounds += 1
        try:
            _, attempts, aggressors = exploit.select_hammer_pair(
                pages, channel, rng, max_attempts=pair_attempt_cap)
        except PairSelectionError as exc:
            outcome.pair_attempts += exc.attempts
            outcome.pair_selection_failed = True
            break
        outcome.pair_attempts += attempts
        applied = os_model.apply_flips(
            os_model.dram.hammer(list(aggressors), reps_per_round, rng))
        outcome.flips.extend(applied)
        outcome.pt_flip_count += sum(
            1 for f in applied if os_model.is_pt_frame(f.addr // PAGE_SIZE))
        os_model.flush_tlb()
        result = exploit.verify_and_take_pt(os_model)
        if result is not None:
            outcome.found_va, outcome.found_vb = result
            outcome.status = exploit.STATUS_KERNEL
            if exploit.escalate_root(os_model, *result, pid):
                outcome.status = exploit.STATUS_ROOT
            break
    if outcome.status == exploit.STATUS_NONE and outcome.pt_flip_count > 0:
        outcome.status = exploit.STATUS_FLIPPABLE
    return outcome


def reference_loop(os_model: OsModel, buffer: DoubleOwnedBuffer, *args, verify=None, **kwargs):
    """scan_every_round with reference_select_pair, reference_hammer and
    reference_escalate, and verify when given, patched in where it looks
    them up."""

    def select(pages, model, rng, *, max_attempts):
        return reference_select_pair(os_model, list(buffer_pages(pages.buffer)), model, rng,
                                     max_attempts=max_attempts)

    with (mock.patch.object(exploit, "select_hammer_pair", select),
          mock.patch.object(Dram, "hammer", reference_hammer),
          mock.patch.object(exploit, "escalate_root", reference_escalate),
          mock.patch.object(exploit, "verify_and_take_pt",
                            verify or exploit.verify_and_take_pt)):
        return scan_every_round(os_model, buffer, *args, **kwargs)


def run_trial(profile, seed: int, *, reference: bool = False, **kwargs):
    """harness.run_single_trial for one trial seed; returns the CSV row, the
    trial's OS model and its hammered buffer (None without hammer rounds).
    With reference, the adjacency check is reference_adjacency and the
    hammer loop is reference_loop: each round runs the scan, takes its pair
    from reference_select_pair and hammers through reference_hammer, and a
    capture escalates through reference_escalate."""
    hammer_loop, seen = harness.hammer_loop, []

    def loop(os_model, buffer, *args, **kw):
        seen.append((os_model, buffer))
        return (reference_loop if reference else hammer_loop)(os_model, buffer, *args, **kw)

    adjacency = reference_adjacency if reference else harness.verify_adjacency
    with (mock.patch.object(harness, "hammer_loop", loop),
          mock.patch.object(harness, "verify_adjacency", adjacency)):
        report = harness.run_single_trial(profile, seed, **kwargs)
    os_model, buffer = seen[0] if seen else (None, None)
    return harness._row_values(report), os_model, buffer
