"""Partitioned buddy page allocator with owner tags and guard-row reservations.

Policy mirrors the usual kernel allocator: allocation takes the smallest
sufficient order and the lowest address within that order, splits return the
lower half, and freeing coalesces eagerly with the buddy (base XOR size).
Partitions are hard walls: no block ever crosses one, and neighbouring
partitions must be separated by at least one full row-index span so rows are
never shared across the divide.

The state is the free lists, the freeable blocks and the never-freed runs;
byte counts are derived from them.  Together they tile each partition, so
allocated + free == capacity.  Guard spans reserved by
allocate_isolated_buffer are held as a "guard" run.

take_pages hands out many order-0 pages in one pass, like Linux's
rmqueue_bulk, as page ranges held as one run, not one block per page.
preload_workload places the background workload against bitmasks of free
pages, then writes the free lists once; it draws its random places and
orders straight from the generator's getrandbits, as randrange and randint
would.
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


@dataclass(frozen=True)
class Partition:
    """A contiguous physical range managed independently."""

    name: str
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.base < 0:
            raise ValueError("partition must have positive size and base >= 0")
        if self.base % PAGE_SIZE or self.size % PAGE_SIZE:
            raise ValueError("partition bounds must be page aligned")

    @property
    def end(self) -> int:
        return self.base + self.size


class Block(NamedTuple):
    """A live allocation; pages need not be a power of two for carve-outs.
    (A named tuple: built in half the time of a frozen dataclass.)"""

    partition: str
    base: int
    pages: int
    owner: str

    @property
    def size(self) -> int:
        return self.pages * PAGE_SIZE

    @property
    def end(self) -> int:
        return self.base + self.size


class Run(NamedTuple):
    """Pages taken by one take_pages call, by the workload preload or as
    one buffer's guard rows, as page-number ranges; never freed."""

    partition: str
    owner: str
    spans: tuple[range, ...]


class BuddyState:
    """The allocator: per-partition free lists ordered by address."""

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
        self.row_span = row_span
        self._free: dict[str, list[list[int]]] = {}
        self._allocated: dict[int, Block] = {}
        self._runs: list[Run] = []
        top = 1 << max_order
        for p in parts:
            lists: list[list[int]] = [[] for _ in range(max_order + 1)]
            self._free[p.name] = lists
            # Whole max-order blocks fill [lo, hi); only the unaligned head
            # and tail are split, into blocks below the max order.
            first, stop = p.base // PAGE_SIZE, p.end // PAGE_SIZE
            lo = min(-(-first // top) * top, stop)
            hi = max(stop // top * top, lo)
            for start, end in ((first, lo), (hi, stop)):
                for pfn, order in aligned_blocks(start, end - start, max_order):
                    lists[order].append(pfn * PAGE_SIZE)
            lists[max_order] += range(lo * PAGE_SIZE, hi * PAGE_SIZE, top * PAGE_SIZE)

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

    def free_bytes(self, partition: str) -> int:
        return self.free_bytes_below(partition, self.max_order + 1)

    def free_bytes_below(self, partition: str, order: int) -> int:
        lists = self._free[partition]
        return sum(len(lists[o]) * (PAGE_SIZE << o) for o in range(min(order, len(lists))))

    def blocks(self, partition: str | None = None):
        for block in self._allocated.values():
            if partition is None or block.partition == partition:
                yield block

    # -- allocation ------------------------------------------------------

    def allocate(self, partition: str, order: int, owner: str) -> Block:
        """Smallest sufficient order, lowest address first; splits keep the
        lower half."""
        if order < 0 or order > self.max_order:
            raise ValueError(f"order {order} out of range")
        lists = self._free[partition]
        for j in range(order, self.max_order + 1):
            lst = lists[j]
            if lst:
                base = lst.pop(0)
                while j > order:
                    j -= 1
                    insort(lists[j], base + (PAGE_SIZE << j))
                block = self._allocated[base] = Block(partition, base, 1 << order, owner)
                return block
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
        if covering.pages == pages:
            return covering
        block = self._allocated[covering.base] = Block(partition, covering.base, pages, owner)
        self._release(partition, block.end, covering.pages - pages)
        return block

    def allocate_at(self, partition: str, base: int, order: int, owner: str) -> Block:
        """Carve a specific block out of the free pool (setup helper)."""
        if order < 0 or order > self.max_order:
            raise ValueError(f"order {order} out of range")
        size = PAGE_SIZE << order
        if base % size:
            raise ValueError("base not aligned to the requested order")
        lists = self._free[partition]
        for j in range(order, self.max_order + 1):
            candidate = base & ~((PAGE_SIZE << j) - 1)
            lst = lists[j]
            i = bisect_left(lst, candidate)
            if i < len(lst) and lst[i] == candidate:
                lst.pop(i)
                while j > order:
                    j -= 1
                    half = PAGE_SIZE << j
                    if base & half:
                        insort(lists[j], candidate)
                        candidate += half
                    else:
                        insort(lists[j], candidate + half)
                block = self._allocated[base] = Block(partition, base, 1 << order, owner)
                return block
        raise OutOfMemoryError(f"no free block containing {base:#x}")

    def take_pages(self, partition: str, n: int, owner: str) -> list[range]:
        """The frames that n allocate(partition, 0, owner) calls would
        return, in that order, taken in one pass over the free lists, as
        ranges of page numbers: one per free block taken, or part taken.

        Order-0 allocations consume the free blocks in (order, address)
        order, each from its low end, so only the last block is split: its
        remainder goes back as the aligned pieces the splits would leave.
        The pages form one run, which free() never accepts.  Raises
        OutOfMemoryError, with nothing changed, when fewer than n pages are
        free.
        """
        if n < 0:
            raise ValueError("page count must not be negative")
        free = self.free_bytes(partition)
        if n * PAGE_SIZE > free:
            raise OutOfMemoryError(f"{n} pages requested, {free // PAGE_SIZE}"
                                   f" free in partition {partition!r}")
        lists = self._free[partition]
        spans: list[range] = []
        left = n
        for order, lst in enumerate(lists):
            if not left:
                break
            whole = min(len(lst), left >> order)
            size = 1 << order
            spans.extend(range(base // PAGE_SIZE, base // PAGE_SIZE + size)
                         for base in lst[:whole])
            del lst[:whole]
            left -= whole << order
            if left and lst:
                # Every lower list is empty now, so the pieces land alone.
                first = lst.pop(0) // PAGE_SIZE
                spans.append(range(first, first + left))
                for rest, o in aligned_blocks(first + left, size - left, self.max_order):
                    insort(lists[o], rest * PAGE_SIZE)
                left = 0
        if n:
            self._runs.append(Run(partition, owner, tuple(spans)))
        return spans

    # -- freeing ---------------------------------------------------------

    def free(self, block: Block) -> None:
        """Return a registered block; any other block, including pages of a
        take_pages run, raises FreeError."""
        registered = self._allocated.get(block.base)
        if registered is None or registered != block:
            raise FreeError(f"block at {block.base:#x} is not allocated")
        del self._allocated[block.base]
        self._release(block.partition, block.base, block.pages)

    def _release(self, partition: str, base: int, pages: int) -> None:
        """Return allocated pages to the free lists, coalescing each piece."""
        lists = self._free[partition]
        for first, order in aligned_blocks(base // PAGE_SIZE, pages, self.max_order):
            self._coalesce_in(lists, partition, first * PAGE_SIZE, order)

    def _coalesce_in(self, lists, partition: str, base: int, order: int) -> None:
        part = self.partitions[partition]
        while order < self.max_order:
            size = PAGE_SIZE << order
            buddy = base ^ size
            if buddy < part.base or buddy + size > part.end:
                break
            lst = lists[order]
            i = bisect_left(lst, buddy)
            if i < len(lst) and lst[i] == buddy:
                lst.pop(i)
                base = min(base, buddy)
                order += 1
            else:
                break
        insort(lists[order], base)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise BuddyError naming the first broken invariant.

        Per partition: free blocks, allocated blocks and run spans (so
        page tables and guard rows too) tile it exactly, so allocated +
        free == capacity; every free list is ascending and aligned to its
        order; and no free block's buddy is free at the same order below
        max_order.
        """
        for name, part in self.partitions.items():
            lists = self._free[name]
            spans = sorted(
                [(b, PAGE_SIZE << o) for o, lst in enumerate(lists) for b in lst]
                + [(b.base, b.size) for b in self.blocks(name)]
                + [(span.start * PAGE_SIZE, len(span) * PAGE_SIZE)
                   for run in self._runs if run.partition == name
                   for span in run.spans])
            end = part.base
            for base, size in spans:
                if base < end:
                    raise BuddyError(f"{name}: spans overlap at {base:#x}")
                end = base + size
            if end > part.end or sum(s for _, s in spans) != part.size:
                raise BuddyError(f"{name}: allocated + free != capacity")
            for order, lst in enumerate(lists):
                size = PAGE_SIZE << order
                listed = set(lst)
                if lst != sorted(listed) or any(b % size for b in lst):
                    raise BuddyError(f"{name}: order-{order} list unsorted or misaligned")
                if order < self.max_order and any(b ^ size in listed for b in lst):
                    raise BuddyError(f"{name}: order-{order} free buddies left apart")

    # -- guarded buffers --------------------------------------------------

    def allocate_isolated_buffer(self, partition: str, size: int, owner: str) -> Block:
        """Place a buffer with one reserved guard row span on each side.

        The guard spans cover whole row-index spans, so no other allocation
        can ever share or neighbour the buffer's rows.  They are held as one
        "guard" run, reserved for the lifetime of the allocator.
        """
        if self.row_span is None:
            raise GuardPlacementError("allocator built without a row span")
        if size <= 0:
            raise GuardPlacementError("buffer size must be positive")
        span = self.row_span
        body = -(-size // span) * span
        total_pages = (body + 2 * span) // PAGE_SIZE
        order = (total_pages - 1).bit_length()
        if order > self.max_order:
            raise GuardPlacementError("guarded buffer exceeds the maximum order")
        try:
            covering = self.allocate(partition, order, owner)
        except OutOfMemoryError as exc:
            raise GuardPlacementError(str(exc)) from exc
        # The covering block is aligned to its own size >= 4 row spans,
        # so carving at span boundaries keeps whole row indexes together.
        del self._allocated[covering.base]
        block = Block(partition, covering.base + span, body // PAGE_SIZE, owner)
        self._allocated[block.base] = block
        first, pages = covering.base // PAGE_SIZE, span // PAGE_SIZE
        stop = block.end // PAGE_SIZE + pages
        self._runs.append(Run(partition, "guard", (range(first, first + pages),
                                                   range(stop - pages, stop))))
        self._release(partition, stop * PAGE_SIZE, covering.pages - (stop - first))
        return block


# Random placements a workload block gets before the preload gives up.
_PLACE_ATTEMPTS = 2000


@dataclass
class PreloadState:
    """What the workload preload left behind: fresh_halves are allocated
    blocks whose buddies are allocated too, so freeing one later injects
    exactly its bytes as a small free block, without any coalescing."""

    fresh_halves: list[Block]

    def inject_fresh(self, buddy: "BuddyState") -> int:
        injected = 0
        for half in self.fresh_halves:
            buddy.free(half)
            injected += half.size
        self.fresh_halves = []
        return injected


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
) -> PreloadState:
    """Seed a background-workload memory state.

    Bulk blocks and (anchor, half) buddy pairs go to random aligned places
    above the reserved low region.  residue_bytes of halves stay free and
    cannot coalesce past their allocated anchors; fresh_bytes of halves stay
    allocated until PreloadState.inject_fresh frees them.  Every other free
    page outside a whole free max-order block is taken, with the bulk and
    the anchors, as one run.  Each place is tested against its max-order
    block's bitmask of free pages: as no free buddies are left apart, an
    aligned range can be carved exactly when all of it is free.  The free
    lists are written once, at the end, so an OutOfMemoryError changes
    nothing.

    A place among n slots and a pair order among n orders are drawn as
    rng.getrandbits(k), k = n.bit_length(), redrawn while >= n: the draws
    CPython's randrange(n) and randint(0, n - 1) make, so values and the
    generator's state match theirs draw for draw, without their calls.
    """
    if residue_bytes % PAGE_SIZE or fresh_bytes % PAGE_SIZE:
        raise ValueError("residue and fresh bytes must be page granular")
    if small_max_order < 0:
        raise ValueError("small_max_order must not be negative")
    part = buddy.partitions[partition]
    lo = part.base + reserve_low_bytes
    if lo >= part.end:
        raise ValueError("low reserve leaves no room for the workload")
    top, end = buddy.max_order, part.end // PAGE_SIZE
    span = 1 << top
    full = (1 << span) - 1
    lists = buddy._free[partition]
    free = dict.fromkeys(range(part.base // PAGE_SIZE >> top, (end - 1 >> top) + 1), 0)
    for order, lst in enumerate(lists):
        for base in lst:
            pfn = base // PAGE_SIZE
            free[pfn >> top] |= ((1 << (1 << order)) - 1) << (pfn & (span - 1))
    initial = dict(free)
    getrandbits = rng.getrandbits

    def place(order: int, failure: str) -> int:
        """First page of a random free aligned range of 2**order pages
        above the reserve, now taken; at top + 1, two max-order blocks."""
        pages = 1 << order
        start = -(-lo // (pages * PAGE_SIZE)) * pages
        slots = (end - start) // pages
        if slots <= 0:
            raise OutOfMemoryError("region too small for requested order")
        bits = (1 << min(pages, span)) - 1
        k = slots.bit_length()
        for _ in range(_PLACE_ATTEMPTS):
            slot = getrandbits(k)  # rng.randrange(slots), draw for draw
            while slot >= slots:
                slot = getrandbits(k)
            pfn = start + slot * pages
            key, mask = pfn >> top, bits << (pfn & (span - 1))
            if free[key] & mask == mask and (pages <= span or free[key + 1] == full):
                free[key] ^= mask
                if pages > span:
                    free[key + 1] = 0
                return pfn
        raise OutOfMemoryError(failure)

    left = bulk_bytes
    while left > 0:
        order = top
        while order > 0 and (PAGE_SIZE << order) > left:
            order -= 1
        place(order, "workload placement failed")
        left -= PAGE_SIZE << order

    def build_pairs(total_bytes: int) -> list[tuple[int, int]]:
        """Place buddy pairs; returns each half's first page and order."""
        halves: list[tuple[int, int]] = []
        remaining = total_bytes // PAGE_SIZE
        while remaining > 0:
            orders = min(small_max_order, remaining.bit_length() - 1) + 1
            k = orders.bit_length()
            order = getrandbits(k)  # rng.randint(0, orders - 1), draw for draw
            while order >= orders:
                order = getrandbits(k)
            if order > top:
                raise ValueError(f"order {order} out of range")
            anchor = place(order + 1, "could not place residue pair")
            halves.append((anchor + (1 << order), order))
            remaining -= 1 << order
        return halves

    residue = build_pairs(residue_bytes)
    fresh = build_pairs(fresh_bytes)

    # Whole free max-order blocks and residue halves stay free, fresh
    # halves are registered, every other page that was free joins the run.
    kept: list[list[int]] = [[] for _ in lists]
    for pfn, order in residue + fresh:
        initial[pfn >> top] ^= ((1 << (1 << order)) - 1) << (pfn & (span - 1))
    for pfn, order in residue:
        kept[order].append(pfn * PAGE_SIZE)
    spans: list[range] = []
    for key, mask in free.items():
        if mask == full:
            kept[top].append(key * span * PAGE_SIZE)
            continue
        taken = initial[key]
        while taken:  # one range per run of set bits, lowest first
            low = taken & -taken
            above = taken + low
            taken &= above
            first = key * span + low.bit_length() - 1
            stop = key * span + (above ^ taken).bit_length() - 1
            spans.append(range(first, stop))
    lists[:] = [sorted(lst) for lst in kept]
    if spans:
        buddy._runs.append(Run(partition, "workload", tuple(spans)))
    fresh_halves = [Block(partition, pfn * PAGE_SIZE, 1 << order, "workload")
                    for pfn, order in fresh]
    buddy._allocated.update((half.base, half) for half in fresh_halves)
    return PreloadState(fresh_halves)
