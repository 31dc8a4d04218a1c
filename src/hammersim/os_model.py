"""Kernel-facing machinery: physical memory, page tables, TLB, buffers, creds.

Page-table pages are real pages in the simulated physical memory, so a bit
flip landing in one rewrites translations with no extra bookkeeping.  Virtual
reads and writes go through the TLB first; a stale entry keeps pointing at
the old frame until an explicit flush, exactly the property the probing scan
depends on.

Physical memory has two layers.  The base layer is a sorted index of frame
runs, each backed by a cycle of shared pristine pages: the tables of one
mapping call and the marker pages of a file are a few rows, not a dict
entry per frame.  Frames written or flipped since live in a private dict
over it, copied on their first change; the memory is itself the read-only
frame -> page Mapping over both.  Every access stays within one page, as
every virtual access must; one that crosses a page raises ValueError.

The model maps one file, as the attack does: every mapping of it lies
back to back from MAP_BASE up, with one table per 2 MiB window, and the
model keeps the file and a count of mappings.  The tables are one list
indexed by window number, so finding a page's entry, its file frame and
its pristine value is arithmetic; the file carries its windows' pristine
tables.  The reverse lookups are by run: a table frame's window is a
bisection of the base layer, whose table runs carry their first window
number, and a buffer page's frame is one over the buffer's page runs;
neither is a per-frame table.

Physical memory marks every entry a write or flip touches in a table frame.
It remembers the run it marked last, as it does the run it read last, and
bisects only for a frame outside it; base rows are never removed, so a
remembered run stays valid, and the escalation walk's probe writes, all in
the captured table, hit it every time.  Marker scans visit
only pages behind a written entry: a page behind a pristine entry reads its
own file page, and the scan never reports such a page.  Every candidate is
re-read through the normal translation path before being reported, which
keeps the scan's observable behaviour identical to a full linear sweep.
"""

from __future__ import annotations

import random
import struct
from bisect import bisect, bisect_left
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, chain

from .buddy_alloc import Block, BuddyState, OutOfMemoryError
from .dram_model import (
    FLIP_DIRECTIONS,
    FLIP_ONE_TO_ZERO,
    PAGE_SIZE,
    Dram,
    InjectedFlip,
)

PTE_SIZE = 8
PTES_PER_PAGE = PAGE_SIZE // PTE_SIZE
PT_SPAN = PAGE_SIZE * PTES_PER_PAGE  # one table maps 2 MiB

PTE_PRESENT = 1 << 0
PTE_WRITABLE = 1 << 1
PTE_USER = 1 << 2
PTE_PFN_SHIFT = 12
PTE_PFN_MASK = (1 << 40) - 1

# Probe value written into a captured table: present, writable, user
# (plus the accessed-style bit kernels set), frame number zero.
PROBE_PTE = 0x27

# Eight-byte tag written at offset 0 of every mapped file page.
MARKER = int.from_bytes(b"filemark", "little")
MARKER_PAGE = MARKER.to_bytes(8, "little").ljust(PAGE_SIZE, b"\0")

ZERO_PAGE = bytes(PAGE_SIZE)
_U64 = struct.Struct("<Q")
_TABLE = struct.Struct(f"<{PTES_PER_PAGE}Q")
_NO_RUN = (0, 0, None, ())  # the row of a key in no run
_CROSSING = "accesses must stay within one page"

VIDEO_CHUNK_BYTES = 600 * 1024
VIDEO_MAX_CHUNKS = 32
SG_DEFAULT_BYTES = 32 * 1024
SG_MAX_BYTES = 124 * 1024
SG_MAX_OPENS = 1021

VMA_LIMIT = 65536

KERNEL_PARTITION = "kernel"
USER_PARTITION = "user"

# Both bases are 2 MiB aligned, so a mapped page's entry index in its table
# is its page number, or its page index in the file, modulo PTES_PER_PAGE.
MAP_BASE = 0x2000_0000_0000
BUFFER_BASE = 0x7000_0000_0000


class OsModelError(Exception):
    pass


class VmaLimitError(OsModelError):
    pass


class DriverLimitError(OsModelError):
    pass


@dataclass(frozen=True)
class PteEntry:
    """A raw 64-bit entry; pfn reads the live frame bits.

    Keeping the raw value means encode(decode(v)) == v even for bits the
    model does not interpret.
    """

    raw: int

    @property
    def pfn(self) -> int:
        return (self.raw >> PTE_PFN_SHIFT) & PTE_PFN_MASK


def _user_pte(pfn: int) -> int:
    """The raw value of a present, writable, user entry for frame pfn."""
    return pfn << PTE_PFN_SHIFT | PTE_PRESENT | PTE_WRITABLE | PTE_USER


class _RunIndex:
    """Disjoint key runs sorted by first key.  A run is a row (start, stop,
    first, pages): key start + i has the value first + i, or none when
    first is None, and physical memory's base layer reads its page from
    pages.  A lookup is one bisection, in row; get, base page reads and
    table marks all go through it."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.starts: list[int] = []

    def merge(self, rows) -> None:
        """Add runs, all of them in one sort.  A run that meets one already
        indexed raises ValueError and changes nothing."""
        rows = list(rows)
        for start, stop, _, _ in rows if self.rows else ():
            # Runs are disjoint: only the last one before stop can reach start.
            i = bisect_left(self.starts, stop)
            if i and self.rows[i - 1][1] > start:
                raise ValueError(f"keys {start}..{stop - 1} are indexed already")
        self.rows = sorted([*self.rows, *rows])
        self.starts = [row[0] for row in self.rows]

    def row(self, key: int) -> tuple | None:
        """The run that holds key, or None."""
        i = bisect(self.starts, key) - 1
        if i >= 0 and key < self.rows[i][1]:
            return self.rows[i]
        return None

    def get(self, key: int) -> int | None:
        start, _, first, _ = self.row(key) or _NO_RUN
        return None if first is None else first + key - start


class PhysicalMemory(Mapping):
    """Copy-on-write page store in two layers; unbacked pages read as zeros.

    The base layer is a run index of pristine frames: each run backs a
    frame range with a cycle of immutable page objects, so thousands of
    identical page tables, or a file's marker pages, cost one row.  The
    private layer is a dict of the frames written or flipped since; the
    first change to a base frame copies it there, and reads try the dict
    before the base.  As a Mapping it is frame -> page over both layers,
    backed frames only; pages is the memory itself.  Reads and writes stay
    within one page: one that crosses a page raises ValueError.

    Table runs carry their first window number, so a write or flip that
    lands in a table frame marks the entries it touched in dirty: entry
    index -> the window numbers of the tables written there.  Base lookups
    and marks each try the run they used last before they bisect.

    A checkpoint opens a journal: until the next checkpoint or
    end_journal, the first write or landed flip in each frame records the
    page the frame held.  unchanged_since compares those pages, the base
    runs and dirty with the checkpoint's, so it tells exactly whether the
    memory still reads, and marks, as it did then.
    """

    def __init__(self) -> None:
        self.private: dict[int, bytearray] = {}
        self.base = _RunIndex()
        self._last = self._marked = _NO_RUN  # the base runs read and marked last
        self.dirty: defaultdict[int, set[int]] = defaultdict(set)
        self.journal: dict[int, bytes] | None = None  # frame -> its page at the checkpoint

    @property
    def pages(self) -> Mapping[int, bytes | bytearray]:
        return self

    def __getitem__(self, pfn: int) -> bytes | bytearray:
        page = self.private.get(pfn) or self._base_page(pfn)
        if page is None:
            raise KeyError(pfn)
        return page

    def __iter__(self):
        return iter(self.backed_pfns())

    def __len__(self) -> int:
        return (sum(stop - start for start, stop, _, _ in self.base.rows)
                + sum(self._base_page(pfn) is None for pfn in self.private))

    def map_runs(self, rows) -> None:
        """Back frames with pristine pages, over whatever they held.

        A row is (start, stop, first, pages): frame start + i reads
        pages[i % len(pages)], and base.get gives it first + i.  Rows are
        disjoint; one that meets a run already in the base raises
        ValueError and changes nothing.
        """
        outside = [pfn for pfn in self.private if self._base_page(pfn) is None]
        self.base.merge(rows)
        for pfn in outside:
            if self._base_page(pfn) is not None:
                del self.private[pfn]

    def _base_page(self, pfn: int) -> bytes | None:
        # The run read last is tried before the bisection, as QEMU tries
        # its most recently used section before it searches the FlatView.
        start, stop, _, pages = self._last
        if not start <= pfn < stop:
            row = self.base.row(pfn)
            if row is None:
                return None
            start, stop, _, pages = self._last = row
        return pages[(pfn - start) % len(pages)]

    def _page(self, pfn: int) -> bytearray:
        """The frame's private, writable page, copied on first write."""
        page = self.private.get(pfn)
        if page is None:
            page = self.private[pfn] = bytearray(self._base_page(pfn) or PAGE_SIZE)
        return page

    def _record(self, pfn: int) -> None:
        """Journal the frame's page before its first change since the
        checkpoint."""
        if pfn not in self.journal:
            self.journal[pfn] = bytes(self.private.get(pfn) or self._base_page(pfn) or ZERO_PAGE)

    def checkpoint(self) -> tuple:
        """Open a new journal; the returned mark is what unchanged_since
        compares with."""
        self.journal = {}
        return self.journal, self.base.rows, {idx: set(marks) for idx, marks in self.dirty.items()}

    def unchanged_since(self, mark: tuple) -> bool:
        """Whether every frame reads, and dirty holds, what they did at the
        checkpoint that gave mark, its journal still open."""
        journal, rows, dirty = mark
        return (journal is self.journal and rows is self.base.rows and dirty == self.dirty
                and all((self.private.get(pfn) or self._base_page(pfn) or ZERO_PAGE) == page
                        for pfn, page in journal.items()))

    def end_journal(self) -> None:
        self.journal = None

    def read(self, addr: int, length: int) -> bytes:
        """The bytes at addr; a whole base page is its shared object."""
        pfn, off = divmod(addr, PAGE_SIZE)
        if off + length > PAGE_SIZE:
            raise ValueError(_CROSSING)
        page = self.private.get(pfn) or self._base_page(pfn) or ZERO_PAGE
        return bytes(page[off : off + length])

    def read_u64(self, addr: int) -> int:
        pfn, off = divmod(addr, PAGE_SIZE)
        if off > PAGE_SIZE - 8:
            raise ValueError(_CROSSING)
        page = self.private.get(pfn) or self._base_page(pfn) or ZERO_PAGE
        return _U64.unpack_from(page, off)[0]

    def _mark(self, pfn: int, start: int, end: int) -> None:
        """Mark the entries bytes start..end-1 of frame pfn touch, if it
        is a table frame.  The run marked last is tried first."""
        first, stop, number, _ = self._marked
        if not first <= pfn < stop:
            first, stop, number, _ = self._marked = self.base.row(pfn) or _NO_RUN
        if number is not None:
            number += pfn - first
            for idx in range(start // PTE_SIZE, (end + PTE_SIZE - 1) // PTE_SIZE):
                self.dirty[idx].add(number)

    def write(self, addr: int, data: bytes) -> None:
        pfn, off = divmod(addr, PAGE_SIZE)
        end = off + len(data)
        if end > PAGE_SIZE:
            raise ValueError(_CROSSING)
        if self.journal is not None:
            self._record(pfn)
        self._page(pfn)[off:end] = data
        self._mark(pfn, off, end)

    def write_u64(self, addr: int, value: int) -> None:
        pfn, off = divmod(addr, PAGE_SIZE)
        if off > PAGE_SIZE - 8:
            raise ValueError(_CROSSING)
        if self.journal is not None:
            self._record(pfn)
        _U64.pack_into(self.private.get(pfn) or self._page(pfn), off, value)
        self._mark(pfn, off, off + 8)

    def flip_bit(self, addr: int, bit: int, direction: str) -> bool:
        """Apply a disturbance flip; returns False when the cell's pull
        direction matches the stored value already."""
        if direction not in FLIP_DIRECTIONS:
            raise ValueError(f"unknown flip direction {direction!r}")
        pfn, off = divmod(addr, PAGE_SIZE)
        page = self.private.get(pfn) or self._base_page(pfn) or ZERO_PAGE
        if page[off] >> bit & 1 != (direction == FLIP_ONE_TO_ZERO):
            return False
        if self.journal is not None:
            self._record(pfn)
        self._page(pfn)[off] ^= 1 << bit
        self._mark(pfn, off, off + 1)
        return True

    def backed_pfns(self) -> list[int]:
        """Every backed frame, ascending: the base runs merged with the
        private frames outside them."""
        runs = (range(start, stop) for start, stop, _, _ in self.base.rows)
        extra = [pfn for pfn in self.private if self._base_page(pfn) is None]
        return sorted([*chain.from_iterable(runs), *extra])


class TlbCache:
    """Unbounded virtual-page to frame cache with explicit flush."""

    def __init__(self) -> None:
        self.entries: dict[int, int] = {}  # virtual page -> frame
        self.flush_count = 0

    def flush(self) -> None:
        self.entries.clear()
        self.flush_count += 1


@dataclass
class TmpFile:
    """A shared file: every mapping of it reuses the same frames, and
    window i of a mapping starts as table templates[i]."""

    size: int
    pfns: tuple[int, ...]
    runs: list[range]  # the same frames, as taken
    templates: tuple[bytes, ...]


@dataclass
class BufferChunk:
    """One driver reservation; block may be row-padded under mitigation."""

    block: Block
    size: int
    vbase: int | None = None

    def page_count(self) -> int:
        return -(-self.size // PAGE_SIZE)

    def frames(self) -> range:
        """The frames of the chunk's pages."""
        return self.block.frames[:self.page_count()]


@dataclass
class DoubleOwnedBuffer:
    """Device memory owned by the kernel yet mappable by the attacker."""

    driver: str
    chunks: list[BufferChunk]

    @property
    def allocated_bytes(self) -> int:
        return sum(c.block.size for c in self.chunks)


@dataclass
class CredPage:
    """Three uids followed by three gids, the kernel's process identity."""

    pfn: int
    offset: int
    uid: int


def cred_pattern(uid: int) -> bytes:
    return struct.pack("<6I", uid, uid, uid, uid, uid, uid)


class OsModel:
    """Wires DRAM, the allocator, and the virtual-memory surface together."""

    def __init__(self, dram: Dram, buddy: BuddyState) -> None:
        self.dram = dram
        self.buddy = buddy
        self.map_base = MAP_BASE
        self.memory = PhysicalMemory()
        self.tlb = TlbCache()
        self.file: TmpFile | None = None  # the one file mapped
        self.mappings = 0
        self.creds: dict[int, CredPage] = {}
        self._pt_pfns: list[int] = []  # window number from MAP_BASE -> table
        self.pt_runs: list[range] = []  # the table frames, as taken
        self._buffer = _RunIndex()  # buffer virtual page number -> pfn
        self._next_buffer_base = BUFFER_BASE

    # -- files and mappings -------------------------------------------------

    def create_tmp_file(self, size: int) -> TmpFile:
        if size <= 0 or size % PT_SPAN:
            raise ValueError("file size must be a positive multiple of 2 MiB")
        runs = self.buddy.take_pages(USER_PARTITION, size // PAGE_SIZE, "tmp_file")
        pfns = tuple(chain.from_iterable(runs))
        flags = _user_pte(0)
        entries = [pfn << PTE_PFN_SHIFT | flags for pfn in pfns]
        templates = tuple(_TABLE.pack(*entries[i : i + PTES_PER_PAGE])
                          for i in range(0, len(entries), PTES_PER_PAGE))
        return TmpFile(size, pfns, runs, templates)

    def _file_pfn(self, vaddr: int) -> int:
        """The file frame that mapped vaddr reads through a pristine entry."""
        pfns = self.file.pfns
        return pfns[(vaddr - MAP_BASE) // PAGE_SIZE % len(pfns)]

    def mmap_primitive(self, file: TmpFile, count: int = 1) -> list[int]:
        """Map the file count times back to back at the next free address
        and build the tables; returns the new table frames in window order.

        Raises ValueError for a file other than the one mapped already,
        VmaLimitError when the mapping count would reach the limit, and
        OutOfMemoryError when the kernel partition lacks the table pages;
        either way nothing changes.
        """
        if count < 1:
            raise ValueError("mapping count must be positive")
        if self.file is not None and file is not self.file:
            raise ValueError("the model maps one file only")
        if self.mappings + count >= VMA_LIMIT:
            raise VmaLimitError(f"mapping limit of {VMA_LIMIT} reached")
        templates = file.templates
        windows = len(templates)
        runs = self.buddy.take_pages(KERNEL_PARTITION, count * windows, "page_table")
        # Windows are contiguous from MAP_BASE, so the next one is free.
        first = len(self._pt_pfns)
        self.file = file
        self.mappings += count
        self.pt_runs.extend(runs)
        self._pt_pfns.extend(chain.from_iterable(runs))
        # Window first + i maps file window i % windows.
        rows = []
        for frames, number in zip(runs, accumulate(map(len, runs), initial=first)):
            k = (number - first) % windows
            rows.append((frames.start, frames.stop, number, templates[k:] + templates[:k]))
        self.memory.map_runs(rows)
        return self._pt_pfns[first:]

    def write_markers(self, file: TmpFile) -> None:
        """Give every page of the fresh file the shared marker page, the
        marker followed by zeros; this is the pristine baseline, so no
        entry is marked.  Marking a file twice raises ValueError."""
        self.memory.map_runs((r.start, r.stop, None, (MARKER_PAGE,)) for r in file.runs)

    # -- translation --------------------------------------------------------

    def translate(self, vaddr: int) -> int | None:
        vpage = vaddr & ~(PAGE_SIZE - 1)
        tlb = self.tlb.entries
        pfn = tlb.get(vpage)
        if pfn is not None:
            return pfn
        if vpage >= BUFFER_BASE:
            pfn = self._buffer.get(vpage // PAGE_SIZE)
            if pfn is None:
                return None
        else:
            number = (vpage - MAP_BASE) // PT_SPAN
            if not 0 <= number < len(self._pt_pfns):
                return None
            table, memory = self._pt_pfns[number], self.memory
            entry = vpage // PAGE_SIZE % PTES_PER_PAGE * PTE_SIZE
            raw = _U64.unpack_from(memory.private.get(table) or memory._base_page(table), entry)[0]
            if not raw & PTE_PRESENT:
                # A file-backed access through a non-present entry takes a
                # minor fault; the kernel reinstalls the mapping from the
                # file, healing whatever cleared the bit.
                raw = _user_pte(self._file_pfn(vpage))
                memory.write_u64(table * PAGE_SIZE + entry, raw)
            pfn = (raw >> PTE_PFN_SHIFT) & PTE_PFN_MASK
        tlb[vpage] = pfn
        return pfn

    def flush_tlb(self) -> None:
        self.tlb.flush()

    def read_virtual(self, vaddr: int, length: int) -> bytes | None:
        off = vaddr & (PAGE_SIZE - 1)
        if off + length > PAGE_SIZE:
            raise ValueError(_CROSSING)
        pfn = self.translate(vaddr)
        return None if pfn is None else self.memory.read(pfn * PAGE_SIZE + off, length)

    def read_u64_virtual(self, vaddr: int) -> int | None:
        off = vaddr & (PAGE_SIZE - 1)
        if off > PAGE_SIZE - 8:
            raise ValueError(_CROSSING)
        pfn = self.translate(vaddr)
        return None if pfn is None else self.memory.read_u64(pfn * PAGE_SIZE + off)

    def write_virtual(self, vaddr: int, data: bytes) -> bool:
        off = vaddr & (PAGE_SIZE - 1)
        if off + len(data) > PAGE_SIZE:
            raise ValueError(_CROSSING)
        pfn = self.translate(vaddr)
        if pfn is not None:
            self.memory.write(pfn * PAGE_SIZE + off, data)
        return pfn is not None

    def write_u64_virtual(self, vaddr: int, value: int) -> bool:
        off = vaddr & (PAGE_SIZE - 1)
        if off > PAGE_SIZE - 8:
            raise ValueError(_CROSSING)
        pfn = self.translate(vaddr)
        if pfn is not None:
            self.memory.write_u64(pfn * PAGE_SIZE + off, value)
        return pfn is not None

    # -- marker scan ----------------------------------------------------------

    def iter_nonmarker_pages(self, slot: int | None = None):
        """Scan candidates, ascending: mapped pages whose first eight
        bytes, read honouring the TLB, are neither the marker nor the
        header of the page's own file page (what reading the file returns).

        With slot given, only pages mapped through that entry index of
        their table are visited.

        Only pages behind a dirty table entry are visited; any other page
        reads its own file page.  Candidates whose table entry has returned
        to its pristine value, with the TLB agreeing, are dropped from the
        index.
        """
        memory, tlb = self.memory, self.tlb.entries
        dirty = memory.dirty
        idxs = dirty if slot is None else (slot,)
        for number, idx in sorted((n, i) for i in idxs for n in dirty.get(i, ())):
            vaddr = MAP_BASE + number * PT_SPAN + idx * PAGE_SIZE
            value = self.read_u64_virtual(vaddr)
            own = self._file_pfn(vaddr)
            if value != MARKER and value != memory.read_u64(own * PAGE_SIZE):
                yield vaddr
                continue
            raw = memory.read_u64(self._pt_pfns[number] * PAGE_SIZE + idx * PTE_SIZE)
            # A stale TLB entry keeps the page reading elsewhere until the
            # next flush, so it stays a candidate.
            if raw == _user_pte(own) and tlb.get(vaddr) == own:
                dirty[idx].discard(number)

    # -- double-owned device buffers -------------------------------------------

    def open_video(self, chunk_count: int = VIDEO_MAX_CHUNKS, *, isolated: bool = False) -> DoubleOwnedBuffer:
        """Reserve video capture chunks: fixed 600 KiB each, at most 32."""
        if chunk_count < 1 or chunk_count > VIDEO_MAX_CHUNKS:
            raise DriverLimitError(
                f"video driver accepts 1..{VIDEO_MAX_CHUNKS} chunks"
            )
        return self._open_chunks("video", chunk_count, VIDEO_CHUNK_BYTES, isolated)

    def open_sg(
        self,
        opens: int,
        reserved_size: int = SG_DEFAULT_BYTES,
        *,
        isolated: bool = False,
    ) -> DoubleOwnedBuffer:
        """Reserve one generic-scsi buffer per open; resizable to 124 KiB."""
        if opens < 1 or opens > SG_MAX_OPENS:
            raise DriverLimitError(f"sg driver accepts 1..{SG_MAX_OPENS} opens")
        if reserved_size <= 0 or reserved_size > SG_MAX_BYTES:
            raise DriverLimitError(
                f"sg reserved size must be within 1..{SG_MAX_BYTES} bytes"
            )
        return self._open_chunks("sg", opens, reserved_size, isolated)

    def _open_chunks(
        self, driver: str, count: int, chunk_bytes: int, isolated: bool
    ) -> DoubleOwnedBuffer:
        owner = f"{driver}_buffer"
        chunks: list[BufferChunk] = []
        for _ in range(count):
            if isolated:
                block = self.buddy.allocate_isolated_buffer(
                    KERNEL_PARTITION, chunk_bytes, owner
                )
            else:
                pages = -(-chunk_bytes // PAGE_SIZE)
                block = self.buddy.allocate_pages(KERNEL_PARTITION, pages, owner)
            chunks.append(BufferChunk(block, chunk_bytes))
        return DoubleOwnedBuffer(driver, chunks)

    def map_buffer(self, buffer: DoubleOwnedBuffer) -> None:
        """Give the attacker a user mapping of every chunk."""
        runs = []
        for chunk in buffer.chunks:
            chunk.vbase = self._next_buffer_base
            frames = chunk.frames()
            self._next_buffer_base += (len(frames) + 1) * PAGE_SIZE
            vpn = chunk.vbase // PAGE_SIZE
            runs.append((vpn, vpn + len(frames), frames.start, None))
        self._buffer.merge(runs)

    # -- creds ------------------------------------------------------------------

    def plant_cred(self, pid: int, uid: int, rng: random.Random) -> CredPage:
        """Place a process's identity record at a random free user page."""
        if pid in self.creds:
            raise OsModelError(f"pid {pid} already has a cred page")
        frames = self.buddy.frames[USER_PARTITION]
        block = None
        for _ in range(10000):
            try:
                block = self.buddy.allocate_at(USER_PARTITION, rng.choice(frames), 0, "cred")
                break
            except OutOfMemoryError:
                continue
        if block is None:
            raise OutOfMemoryError("no free page for a cred record")
        offset = rng.randrange(0, PAGE_SIZE - 24 + 1, 4)
        self.memory.write(block.first * PAGE_SIZE + offset, cred_pattern(uid))
        cred = CredPage(block.first, offset, uid)
        self.creds[pid] = cred
        return cred

    def getuid(self, pid: int) -> int:
        cred = self.creds[pid]
        data = self.memory.read(cred.pfn * PAGE_SIZE + cred.offset, 4)
        return struct.unpack("<I", data)[0]

    # -- flips --------------------------------------------------------------------

    def apply_flips(self, flips: list[InjectedFlip]) -> list[InjectedFlip]:
        """Write hammering outcomes into memory; returns those that changed
        a stored bit."""
        applied = []
        for flip in flips:
            if self.memory.flip_bit(flip.addr, flip.bit, flip.direction):
                applied.append(flip)
        return applied

    def pt_pfns(self) -> set[int]:
        return set(self._pt_pfns)

    def is_pt_frame(self, pfn: int) -> bool:
        return self.memory.base.get(pfn) is not None
