"""Partitioned buddy page allocator with owner tags and guard-row reservations.

Frames are page numbers: free lists hold first pages, a Block is a first
page and a page count, and a buddy is first ^ (1 << order), as in Linux.
Bytes appear only at the edges: Partition bounds and row_span, converted
once, and Block.size, which footprints read.

Policy mirrors the usual kernel allocator: the smallest sufficient order,
the lowest page within it, splits return the lower half, and freeing
coalesces eagerly with the buddy.  Partitions are hard walls, at least one
row-index span apart, so no block or row is shared across the divide.

The state is the free lists, the freeable blocks and the never-freed runs
(allocate_isolated_buffer's guard spans are a "guard" run); together they
tile each partition, so allocated + free == capacity.

take_pages hands out many order-0 pages in one pass, like Linux's
rmqueue_bulk, as page ranges held as one run.  preload_workload places the
background workload against bitmasks of free pages, drawing straight from
getrandbits, and tiles what it takes in one walk over the free blocks.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import NamedTuple

from .dram_model import PAGE_SIZE, aligned_blocks


class BuddyError(Exception):
    """Base class for allocator errors."""


class OutOfMemoryError(BuddyError):
    pass


class FreeError(BuddyError):
    """Double free, unknown block, or a free that crosses bookkeeping."""


class GuardPlacementError(BuddyError):
    pass


def _pages(nbytes: int) -> int:
    """The pages that hold nbytes, a partial last page counted whole."""
    return -(-nbytes // PAGE_SIZE)


@dataclass(frozen=True)
class Partition:
    """A contiguous physical range managed independently, in bytes."""

    name: str
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.base < 0:
            raise ValueError("partition must have positive size and base >= 0")
        if (self.base | self.size) % PAGE_SIZE:
            raise ValueError("partition bounds must be page aligned")

    @property
    def end(self) -> int:
        return self.base + self.size


class Block(NamedTuple):
    """A live allocation of pages first, first + 1, ...; pages need not be
    a power of two for carve-outs.  size is in bytes, for footprints.
    (A named tuple: built in half the time of a frozen dataclass.)"""

    partition: str
    first: int
    pages: int
    owner: str

    @property
    def frames(self) -> range:
        return range(self.first, self.first + self.pages)

    @property
    def size(self) -> int:
        return self.pages * PAGE_SIZE


class Run(NamedTuple):
    """Pages taken by one take_pages call, by the workload preload or as
    one buffer's guard rows, as page-number ranges; never freed."""

    partition: str
    owner: str
    spans: tuple[range, ...]


class BuddyState:
    """The allocator: per-partition free lists ordered by first page."""

    def __init__(
        self,
        partitions,
        *,
        max_order: int = 10,
        row_span: int | None = None,
    ) -> None:
        parts = sorted(partitions, key=lambda p: p.base)
        if not parts:
            raise ValueError("at least one partition required")
        if max_order < 0:
            raise ValueError("max_order must be >= 0")
        names = [p.name for p in parts]
        if len(set(names)) != len(names):
            raise ValueError("partition names must be unique")
        if row_span is not None:
            if row_span <= 0 or row_span % PAGE_SIZE:
                raise ValueError("row_span must be a positive multiple of the page size")
            for p in parts:
                if p.base % row_span or p.size % row_span:
                    raise ValueError(f"partition {p.name} must be aligned to the row span")
        for a, b in zip(parts, parts[1:]):
            gap = b.base - a.end
            if gap < 0:
                raise ValueError("partitions overlap")
            if row_span is not None and gap < row_span:
                raise ValueError("partitions must be separated by at least one row-index span")
        self.partitions: dict[str, Partition] = {p.name: p for p in parts}
        self.max_order = max_order
        self._row_pages = None if row_span is None else _pages(row_span)
        self.frames = {p.name: range(_pages(p.base), _pages(p.end)) for p in parts}
        self._free: dict[str, list[list[int]]] = {}
        self._allocated: dict[int, Block] = {}
        self._runs: list[Run] = []
        top = 1 << max_order
        for name, pages in self.frames.items():
            lists: list[list[int]] = [[] for _ in range(max_order + 1)]
            self._free[name] = lists
            # Whole max-order blocks fill [lo, hi); only the unaligned head
            # and tail are split, into blocks below the max order.
            first, stop = pages.start, pages.stop
            lo = min(-(-first // top) * top, stop)
            hi = max(stop // top * top, lo)
            for start, end in ((first, lo), (hi, stop)):
                for pfn, order in aligned_blocks(start, end - start, max_order):
                    lists[order].append(pfn)
            lists[max_order] += range(lo, hi, top)

    # -- queries ---------------------------------------------------------

    def buddy_info(self) -> dict[str, tuple[int, ...]]:
        """Free-block counts per order for every partition."""
        return {name: tuple(len(lst) for lst in lists)
                for name, lists in self._free.items()}

    def buddyinfo_text(self) -> str:
        return "\n".join(
            f"{name:>8} " + " ".join(f"{n:6d}" for n in row)
            for name, row in self.buddy_info().items()
        )

    def free_pages(self, partition: str) -> int:
        return self.free_pages_below(partition, self.max_order + 1)

    def free_pages_below(self, partition: str, order: int) -> int:
        lists = self._free[partition]
        return sum(len(lists[o]) << o for o in range(min(order, len(lists))))

    def blocks(self, partition: str | None = None):
        for block in self._allocated.values():
            if partition is None or block.partition == partition:
                yield block

    # -- allocation ------------------------------------------------------

    def allocate(self, partition: str, order: int, owner: str) -> Block:
        """Smallest sufficient order, lowest page first; splits keep the
        lower half."""
        if order < 0 or order > self.max_order:
            raise ValueError(f"order {order} out of range")
        lists = self._free[partition]
        for j in range(order, self.max_order + 1):
            if lists[j]:
                return self._split(partition, j, 0, lists[j][0], order, owner)
        raise OutOfMemoryError(f"no free block of order >= {order} in partition {partition!r}")

    def allocate_pages(self, partition: str, pages: int, owner: str) -> Block:
        """Contiguous run of exactly `pages` pages; the covering block's tail
        is returned to the free lists immediately."""
        if pages <= 0:
            raise ValueError("pages must be positive")
        order = (pages - 1).bit_length()
        if order > self.max_order:
            raise OutOfMemoryError("run larger than the maximum order")
        covering = self.allocate(partition, order, owner)
        block = self._allocated[covering.first] = Block(partition, covering.first, pages, owner)
        self._release(partition, covering.first + pages, covering.pages - pages)
        return block

    def allocate_at(self, partition: str, first: int, order: int, owner: str) -> Block:
        """Carve the 2**order pages from page first out of the free pool."""
        if order < 0 or order > self.max_order:
            raise ValueError(f"order {order} out of range")
        if first % (1 << order):
            raise ValueError("first page not aligned to the requested order")
        lists = self._free[partition]
        for j in range(order, self.max_order + 1):
            candidate = first >> j << j
            lst = lists[j]
            i = bisect_left(lst, candidate)
            if i < len(lst) and lst[i] == candidate:
                return self._split(partition, j, i, first, order, owner)
        raise OutOfMemoryError(f"no free block containing page {first:#x}")

    def _split(self, partition: str, j: int, i: int, first: int, order: int,
               owner: str) -> Block:
        """Take free block i of order j and split it down to the 2**order
        pages from page first, freeing each half that does not hold them,
        as Linux's expand() does for every path that takes a block."""
        lists = self._free[partition]
        low = lists[j].pop(i)
        while j > order:
            j -= 1
            half = 1 << j
            if first & half:
                insort(lists[j], low)
                low += half
            else:
                insort(lists[j], low + half)
        block = self._allocated[first] = Block(partition, first, 1 << order, owner)
        return block

    def take_pages(self, partition: str, n: int, owner: str) -> list[range]:
        """The frames that n allocate(partition, 0, owner) calls would
        return, in that order, taken in one pass over the free lists, as
        ranges of page numbers: one per free block taken, or part taken.

        Order-0 allocations consume the free blocks in (order, page)
        order, each from its low end, so only the last block is split: its
        remainder goes back as the aligned pieces the splits would leave.
        The pages form one run, which free() never accepts.  Raises
        OutOfMemoryError, with nothing changed, when fewer than n pages are
        free.
        """
        if n < 0:
            raise ValueError("page count must not be negative")
        free = self.free_pages(partition)
        if n > free:
            raise OutOfMemoryError(f"{n} pages requested, {free}"
                                   f" free in partition {partition!r}")
        lists = self._free[partition]
        spans: list[range] = []
        left = n
        for order, lst in enumerate(lists):
            if not left:
                break
            whole = min(len(lst), left >> order)
            size = 1 << order
            spans.extend(range(first, first + size) for first in lst[:whole])
            del lst[:whole]
            left -= whole << order
            if left and lst:
                # Every lower list is empty now, so the pieces land alone.
                first = lst.pop(0)
                spans.append(range(first, first + left))
                for rest, o in aligned_blocks(first + left, size - left, self.max_order):
                    insort(lists[o], rest)
                left = 0
        if n:
            self._runs.append(Run(partition, owner, tuple(spans)))
        return spans

    # -- freeing ---------------------------------------------------------

    def free(self, block: Block) -> None:
        """Return a registered block; any other block, including pages of a
        take_pages run, raises FreeError."""
        registered = self._allocated.get(block.first)
        if registered is None or registered != block:
            raise FreeError(f"block at page {block.first:#x} is not allocated")
        del self._allocated[block.first]
        self._release(block.partition, block.first, block.pages)

    def _release(self, partition: str, first: int, pages: int) -> None:
        """Return allocated pages to the free lists, coalescing each piece."""
        lists = self._free[partition]
        for start, order in aligned_blocks(first, pages, self.max_order):
            self._coalesce_in(lists, partition, start, order)

    def _coalesce_in(self, lists, partition: str, first: int, order: int) -> None:
        bounds = self.frames[partition]
        while order < self.max_order:
            size = 1 << order
            buddy = first ^ size
            if buddy < bounds.start or buddy + size > bounds.stop:
                break
            lst = lists[order]
            i = bisect_left(lst, buddy)
            if i < len(lst) and lst[i] == buddy:
                lst.pop(i)
                first = min(first, buddy)
                order += 1
            else:
                break
        insort(lists[order], first)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise BuddyError naming the first broken invariant.

        Per partition: free blocks, allocated blocks and run spans (so
        page tables and guard rows too) tile it exactly, so allocated +
        free == capacity; every free list is ascending and aligned to its
        order; and no free block's buddy is free at the same order below
        max_order.
        """
        for name, bounds in self.frames.items():
            lists = self._free[name]
            spans = sorted(
                [(first, 1 << o) for o, lst in enumerate(lists) for first in lst]
                + [(b.first, b.pages) for b in self.blocks(name)]
                + [(span.start, len(span)) for run in self._runs
                   if run.partition == name for span in run.spans])
            end = bounds.start
            for first, pages in spans:
                if first < end:
                    raise BuddyError(f"{name}: spans overlap at page {first:#x}")
                end = first + pages
            if end > bounds.stop or sum(p for _, p in spans) != len(bounds):
                raise BuddyError(f"{name}: allocated + free != capacity")
            for order, lst in enumerate(lists):
                size = 1 << order
                listed = set(lst)
                if lst != sorted(listed) or any(f % size for f in lst):
                    raise BuddyError(f"{name}: order-{order} list unsorted or misaligned")
                if order < self.max_order and any(f ^ size in listed for f in lst):
                    raise BuddyError(f"{name}: order-{order} free buddies left apart")

    # -- guarded buffers --------------------------------------------------

    def allocate_isolated_buffer(self, partition: str, size: int, owner: str) -> Block:
        """Place a buffer of size bytes with a guard row span on each side.

        The guard spans cover whole row-index spans, so no other allocation
        can ever share or neighbour the buffer's rows.  They are held as one
        "guard" run, reserved for the lifetime of the allocator.
        """
        span = self._row_pages
        if span is None:
            raise GuardPlacementError("allocator built without a row span")
        if size <= 0:
            raise GuardPlacementError("buffer size must be positive")
        body = -(-_pages(size) // span) * span
        order = (body + 2 * span - 1).bit_length()
        if order > self.max_order:
            raise GuardPlacementError("guarded buffer exceeds the maximum order")
        try:
            covering = self.allocate(partition, order, owner)
        except OutOfMemoryError as exc:
            raise GuardPlacementError(str(exc)) from exc
        # The covering block is aligned to its own size >= 4 row spans,
        # so carving at span boundaries keeps whole row indexes together.
        lower = covering.first
        del self._allocated[lower]
        block = self._allocated[lower + span] = Block(partition, lower + span, body, owner)
        upper = block.first + body
        self._runs.append(Run(partition, "guard", (range(lower, block.first),
                                                   range(upper, upper + span))))
        self._release(partition, upper + span, covering.pages - body - 2 * span)
        return block


# Random placements a workload block gets before the preload gives up.
_PLACE_ATTEMPTS = 2000

# Owner of the preload's fresh halves.  Each one's buddy is allocated, so
# freeing it later injects exactly its pages as a small free block, with no
# coalescing.
FRESH = "fresh"


def preload_workload(
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
    """Seed a background-workload memory state.

    Bulk blocks and (anchor, half) buddy pairs go to random aligned places
    above the reserved low region.  residue_bytes of halves stay free and
    cannot coalesce past their allocated anchors; fresh_bytes of halves stay
    allocated, as blocks owned FRESH, until the caller frees them.  Every
    other free page outside a whole free max-order block is taken, with the
    bulk and the anchors, as one run.  Each place is tested against its
    max-order block's bitmask of free pages: as no free buddies are left
    apart, an aligned range can be carved exactly when all of it is free.
    The free lists are written once, at the end, so an OutOfMemoryError
    changes nothing.

    A place among n slots and a pair order among n orders are drawn as
    rng.getrandbits(k), k = n.bit_length(), redrawn while >= n: the draws
    CPython's randrange(n) and randint(0, n - 1) make, so values and the
    generator's state match theirs draw for draw, without their calls.
    """
    if (residue_bytes | fresh_bytes) % PAGE_SIZE:
        raise ValueError("residue and fresh bytes must be page granular")
    if small_max_order < 0:
        raise ValueError("small_max_order must not be negative")
    if reserve_low_bytes >= buddy.partitions[partition].size:
        raise ValueError("low reserve leaves no room for the workload")
    bounds, top = buddy.frames[partition], buddy.max_order
    span, low, base = 1 << top, (1 << top) - 1, bounds.start >> top << top
    full, lo, end = (1 << span) - 1, bounds.start + _pages(reserve_low_bytes), bounds.stop
    lists = buddy._free[partition]
    blocks = sorted((first, order) for order, lst in enumerate(lists) for first in lst)
    free = [0] * ((end - 1 - base >> top) + 1)  # by max-order block from base
    for first, order in blocks:
        free[first - base >> top] |= ((1 << (1 << order)) - 1) << (first & low)
    table = []  # per order: (first place - base, slots, draw bits, mask, pages)
    for pages in (1 << order for order in range(top + 2)):
        start = -(-lo // pages) * pages
        slots = (end - start) // pages
        table.append((start - base, slots, slots.bit_length(), (1 << min(pages, span)) - 1, pages))
    getrandbits = rng.getrandbits

    def place(order: int, failure: str) -> int:
        """First page of a random free aligned range of 2**order pages
        above the reserve, now taken; at top + 1, two max-order blocks."""
        start, slots, k, bits, pages = table[order]
        if slots <= 0:
            raise OutOfMemoryError("region too small for requested order")
        for _ in range(_PLACE_ATTEMPTS):
            slot = getrandbits(k)  # rng.randrange(slots), draw for draw
            while slot >= slots:
                slot = getrandbits(k)
            pfn = start + slot * pages
            key, mask = pfn >> top, bits << (pfn & low)
            if free[key] & mask == mask and (pages <= span or free[key + 1] == full):
                free[key] ^= mask
                if pages > span:
                    free[key + 1] = 0
                return base + pfn
        raise OutOfMemoryError(failure)

    # Greedy blocks of whole pages; a partial last page is one more page.
    left = bulk_bytes
    while left > 0:
        order = max(0, min(top, (left // PAGE_SIZE).bit_length() - 1))
        place(order, "workload placement failed")
        left -= PAGE_SIZE << order

    def build_pairs(total_bytes: int, pool: str) -> list[tuple[int, int]]:
        """Place the pool's buddy pairs; returns each half's first page and
        order."""
        halves: list[tuple[int, int]] = []
        remaining, failure = _pages(total_bytes), f"could not place {pool} pair"
        while remaining > 0:
            orders = min(small_max_order, remaining.bit_length() - 1) + 1
            k = orders.bit_length()
            order = getrandbits(k)  # rng.randint(0, orders - 1), draw for draw
            while order >= orders:
                order = getrandbits(k)
            if order > top:
                raise ValueError(f"order {order} out of range")
            anchor = place(order + 1, failure)
            halves.append((anchor + (1 << order), order))
            remaining -= 1 << order
        return halves

    residue = build_pairs(residue_bytes, "residue")
    fresh = build_pairs(fresh_bytes, FRESH)

    # One ascending walk over the blocks that were free: an untouched max-order
    # block stays free; the rest, less the halves, joins the run in maximal spans.
    kept: list[list[int]] = [[] for _ in lists]
    for pfn, order in residue:
        kept[order].append(pfn)
    halves = sorted(residue + fresh) + [(end, 0)]  # the last stops the walk
    spans, i = [], 0
    for first, order in blocks:
        stop = first + (1 << order)
        if order == top and free[first - base >> top] == full:
            kept[top].append(first)
            continue
        if spans and spans[-1].stop == first and first & low:
            first = spans.pop().start
        while halves[i][0] < stop:
            pfn, half = halves[i]
            i += 1
            if pfn > first:
                spans.append(range(first, pfn))
            first = pfn + (1 << half)
        if first < stop:
            spans.append(range(first, stop))
    lists[:] = [sorted(lst) for lst in kept]
    if spans:
        buddy._runs.append(Run(partition, "workload", tuple(spans)))
    buddy._allocated.update(
        (pfn, Block(partition, pfn, 1 << order, FRESH)) for pfn, order in fresh)
