"""DRAM geometry, physical-address mapping, and hammering.

The address map is linear over GF(2), the form DRAMA (Pessl et al., USENIX
Security 2016) measured on real memory controllers: every DIMM/rank/bank
coordinate bit is the XOR of a configured set of physical-address bits,
the row index is a contiguous bit range, and the column packs whatever
bits remain, in order.  The first bit of each selector list (its "primary"
bit) must be distinct and outside the row range; the bits that are
neither row bits nor primaries are the column bits.

DramGeometry builds the map once as one square GF(2) matrix: the packed
coordinate (column, row, bank, rank, dimm from the low end) of every
physical-address bit.  Its inverse comes from Gauss-Jordan elimination, so
a selector set that is not a bijection raises MappingError.
map_phys_to_dram, row_key_of and packed_row_keys read the forward matrix
and Dram.hammer the inverse, through 8-bit slice lookup tables;
packed_row_keys reads the forward matrix's page-number bits with the
column already shifted out.  A packed row key is one int per (dimm, rank,
bank, row) and the package's one name for a row: its bank is
key // rows_per_bank, and its in-bank neighbours are key +/- 1.  Because
the map is linear, the pages of an aligned block of 2**k pages touch the
rows of its first page XOR one fixed set of keys, so packed_row_keys takes
page runs and works per block, not per page.

Hammering is cell-granular and seeded.  A row only disturbs its neighbours
when it is re-activated repeatedly, which requires a row-buffer conflict:
two aggressor rows in the same bank.  Flips are drawn per vulnerable cell
with probability scaled by the single-sided multiplier and activation dose.
A cell is a column and bit under its row key; a fired cell's address is
the inverse map of its packed coordinate, key * row_size + column.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass, field

PAGE_SIZE = 4096

# Largest block order, in pages, whose row keys a geometry precomputes.
_KEY_BLOCK_MAX_ORDER = 10

FLIP_ONE_TO_ZERO = "1to0"
FLIP_ZERO_TO_ONE = "0to1"
FLIP_DIRECTIONS = (FLIP_ONE_TO_ZERO, FLIP_ZERO_TO_ONE)


class DramError(Exception):
    """Base class for DRAM model errors."""


class AddressRangeError(DramError):
    pass


class MappingError(DramError):
    pass


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed derived from the given parts.

    Used wherever a child RNG must be reproducible independently of call
    order (per-row cell generation, per-trial seeding).
    """
    text = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _ilog2(n: int, what: str) -> int:
    if n <= 0 or n & (n - 1):
        raise ValueError(f"{what} must be a positive power of two, got {n}")
    return n.bit_length() - 1


def _invert(images: list[int]) -> list[int]:
    """Gauss-Jordan inverse of the square GF(2) matrix whose column i is
    images[i]: returns the preimage of every unit vector."""
    n = len(images)
    rows = [(image, 1 << i) for i, image in enumerate(images)]
    for j in range(n):
        i = next((i for i in range(j, n) if rows[i][0] >> j & 1), None)
        if i is None:
            raise MappingError("selector functions are linearly dependent; "
                               "the address map is not invertible")
        rows[j], rows[i] = rows[i], rows[j]
        image, source = rows[j]
        for k in range(n):
            if k != j and rows[k][0] >> j & 1:
                rows[k] = (rows[k][0] ^ image, rows[k][1] ^ source)
    return [source for _, source in rows]


def _slice_tables(images: list[int]) -> tuple[tuple[int, ...], ...]:
    """Lookup tables of the linear map sending bit i to images[i]: table k
    holds the image of every value of input bits 8k..8k+7."""
    tables = []
    for lo in range(0, len(images), 8):
        table = [0]
        for image in images[lo:lo + 8]:
            table += [t ^ image for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def aligned_blocks(first: int, pages: int, max_order: int):
    """Split the pages first .. first + pages - 1 into maximal blocks that
    are aligned to their own size, of order at most max_order, ascending:
    yields (first page, order)."""
    while pages > 0:
        align = (first & -first).bit_length() - 1 if first else max_order
        order = min(align, max_order, pages.bit_length() - 1)
        yield first, order
        first += 1 << order
        pages -= 1 << order


def _apply(tables: tuple[tuple[int, ...], ...], x: int) -> int:
    out = 0
    for table in tables:
        out ^= table[x & 0xFF]
        x >>= 8
    return out


@dataclass(frozen=True)
class MappingSpec:
    """Physical-address-to-DRAM translation rule.

    Each selector is a tuple of bit lists, one list per coordinate bit
    (LSB first); the coordinate bit is the XOR of the listed physical
    address bits.  row_index_bit_range is inclusive on both ends.
    """

    dimm_select_bits: tuple[tuple[int, ...], ...]
    rank_select_bits: tuple[tuple[int, ...], ...]
    bank_select_bits: tuple[tuple[int, ...], ...]
    row_index_bit_range: tuple[int, int]

    @staticmethod
    def _normalize(lists) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(b) for b in lst) for lst in lists)

    @classmethod
    def make(cls, dimm, rank, bank, row_range) -> "MappingSpec":
        return cls(
            cls._normalize(dimm),
            cls._normalize(rank),
            cls._normalize(bank),
            (int(row_range[0]), int(row_range[1])),
        )


@dataclass(frozen=True)
class DramCoord:
    """Location of a byte: (dimm, rank, bank, row, column)."""

    dimm: int
    rank: int
    bank: int
    row: int
    column: int


@dataclass(frozen=True)
class DramGeometry:
    """Module counts, row dimensions, and the address mapping.

    All counts must be powers of two and the row size a multiple of the
    page size, so capacity is a power of two and the mapping can be a
    bit-level bijection.  A packed coordinate is the mixed-radix number
    (dimm, rank, bank, row, column); a packed row key drops the column.
    """

    dimms: int
    ranks_per_dimm: int
    banks_per_rank: int
    rows_per_bank: int
    row_size: int
    mapping: MappingSpec
    # Slice tables of the address matrix and of its inverse; slice tables
    # from a page number to its base row key; for each order k, the row
    # keys of pages 0 .. 2**k - 1 (XORed onto a block's first base key they
    # give the block's keys; order 0 holds the in-page deltas); and the
    # page count.
    _forward: tuple = field(init=False, repr=False, compare=False)
    _inverse: tuple = field(init=False, repr=False, compare=False)
    _page_rows: tuple = field(init=False, repr=False, compare=False)
    _block_keys: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _pages: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dimm_bits = _ilog2(self.dimms, "dimms")
        rank_bits = _ilog2(self.ranks_per_dimm, "ranks_per_dimm")
        bank_bits = _ilog2(self.banks_per_rank, "banks_per_rank")
        row_bits = _ilog2(self.rows_per_bank, "rows_per_bank")
        column_width = _ilog2(self.row_size, "row_size")
        if self.row_size % PAGE_SIZE:
            raise ValueError("row_size must be a multiple of the page size")

        m = self.mapping
        if len(m.dimm_select_bits) != dimm_bits:
            raise MappingError("dimm selector count does not match dimm count")
        if len(m.rank_select_bits) != rank_bits:
            raise MappingError("rank selector count does not match rank count")
        if len(m.bank_select_bits) != bank_bits:
            raise MappingError("bank selector count does not match bank count")

        addr_bits = dimm_bits + rank_bits + bank_bits + row_bits + column_width
        row_lo, row_hi = m.row_index_bit_range
        if row_hi - row_lo + 1 != row_bits:
            raise MappingError("row bit range width does not match rows_per_bank")
        if row_lo < 0 or row_hi >= addr_bits:
            raise MappingError("row bit range outside the address width")

        # Bank, rank and dimm bits sit above the row in a packed coordinate.
        selectors = m.bank_select_bits + m.rank_select_bits + m.dimm_select_bits
        for sel in selectors:
            if not sel:
                raise MappingError("empty selector bit list")
            if any(b < 0 or b >= addr_bits for b in sel):
                raise MappingError("selector bit outside the address width")
        primaries = {sel[0] for sel in selectors}
        if len(primaries) != len(selectors):
            raise MappingError("selector primary bits must be distinct")
        row_range = range(row_lo, row_hi + 1)
        if any(b in row_range for b in primaries):
            raise MappingError("selector primary bits must not overlap the row range")

        # images[b] is the packed coordinate of physical address 1 << b.
        images = [0] * addr_bits
        column_bits = [b for b in range(addr_bits)
                       if b not in row_range and b not in primaries]
        for i, b in enumerate(column_bits):
            images[b] = 1 << i
        for i, b in enumerate(row_range):
            images[b] = 1 << (column_width + i)
        for i, sel in enumerate(selectors):
            for b in sel:
                images[b] ^= 1 << (column_width + row_bits + i)

        page_shift = PAGE_SIZE.bit_length() - 1
        deltas = {0}
        for image in images[:page_shift]:
            deltas |= {d ^ (image >> column_width) for d in deltas}
        page_rows = [image >> column_width for image in images[page_shift:]]
        # Pages 2**k .. 2**(k+1) - 1 are those below 2**k XOR page 2**k.
        blocks = [deltas]
        for image in page_rows[:_KEY_BLOCK_MAX_ORDER]:
            blocks.append(blocks[-1] | {key ^ image for key in blocks[-1]})
        object.__setattr__(self, "_forward", _slice_tables(images))
        object.__setattr__(self, "_inverse", _slice_tables(_invert(images)))
        object.__setattr__(self, "_page_rows", _slice_tables(page_rows))
        object.__setattr__(self, "_block_keys", tuple(tuple(sorted(b)) for b in blocks))
        object.__setattr__(self, "_pages", 1 << (addr_bits - page_shift))

    @property
    def capacity(self) -> int:
        return (
            self.dimms
            * self.ranks_per_dimm
            * self.banks_per_rank
            * self.rows_per_bank
            * self.row_size
        )

    def row_key_of(self, addr: int) -> int:
        """Packed row key of the row holding physical byte addr."""
        if addr < 0 or addr >= self.capacity:
            raise AddressRangeError(f"address {addr:#x} outside capacity")
        return _apply(self._forward, addr) // self.row_size

    def unpack_row_key(self, key: int) -> tuple[int, int, int, int]:
        """(dimm, rank, bank, row) of a packed row key."""
        key, row = divmod(key, self.rows_per_bank)
        key, bank = divmod(key, self.banks_per_rank)
        dimm, rank = divmod(key, self.ranks_per_dimm)
        return (dimm, rank, bank, row)

    def packed_row_keys(self, runs: Iterable[range]) -> set[int]:
        """Packed row keys of every row the 4 KiB pages of the given page
        runs (ranges of page numbers, step 1) touch.

        Each run is split into aligned blocks.  An order-k block's pages
        are its first page XOR 0 .. 2**k - 1 and the map is linear, so its
        keys are its first page's base key XOR the precomputed keys of
        pages 0 .. 2**k - 1.

        In-bank neighbours of key k are k - 1 and k + 1, unless k's row is
        the first or the last of its bank.
        """
        tables, blocks = self._page_rows, self._block_keys
        bases: list[set[int]] = [set() for _ in blocks]  # per block order
        for first, order in self._blocks(runs, len(blocks) - 1):
            bases[order].add(_apply(tables, first))
        return {base ^ key for order, keys in enumerate(blocks)
                for base in bases[order] for key in keys}

    def page_keys(self, runs: Iterable[range]) -> list[int]:
        """Packed row key of the first byte of each page of the runs, in
        order.  Page first + i of an aligned block is key(first) XOR key(i),
        and the keys of pages 0 .. 2**k - 1 grow by doubling."""
        tables = self._page_rows
        low = [0]  # keys of pages 0 .. len(low) - 1
        keys: list[int] = []
        for first, order in self._blocks(runs, _KEY_BLOCK_MAX_ORDER):
            while len(low) < 1 << order:
                image = _apply(tables, len(low))
                low += [key ^ image for key in low]
            base = _apply(tables, first)
            keys += [base ^ key for key in low[:1 << order]]
        return keys

    def _blocks(self, runs: Iterable[range], cap: int):
        """Every run's aligned blocks, in order; checks the capacity."""
        for run in runs:
            if not run:
                continue
            if run.start < 0 or run.stop > self._pages:
                bad = run.start if run.start < 0 else run.stop - 1
                raise AddressRangeError(f"page {bad:#x} outside capacity")
            yield from aligned_blocks(run.start, len(run), cap)


def rows_size_per_row_index(geometry: DramGeometry) -> int:
    """Bytes of physical memory sharing one row-index value across all banks."""
    return geometry.dimms * geometry.ranks_per_dimm * geometry.banks_per_rank * geometry.row_size


def target_block_size(geometry: DramGeometry) -> int:
    """Smallest block guaranteed to span two full row indexes."""
    return rows_size_per_row_index(geometry) * 2


def map_phys_to_dram(addr: int, geometry: DramGeometry) -> DramCoord:
    """Translate a physical byte address to its DRAM coordinate."""
    if addr < 0 or addr >= geometry.capacity:
        raise AddressRangeError(f"address {addr:#x} outside capacity")
    key, column = divmod(_apply(geometry._forward, addr), geometry.row_size)
    return DramCoord(*geometry.unpack_row_key(key), column)


def page_row_keys(pfn: int, geometry: DramGeometry) -> set[tuple[int, int, int, int]]:
    """All (dimm, rank, bank, row) keys a 4 KiB page touches."""
    return {geometry.unpack_row_key(key)
            for key in geometry.packed_row_keys((range(pfn, pfn + 1),))}


@dataclass(frozen=True)
class VulnCell:
    """One flippable cell of a row: its column and bit, firing probability
    and direction."""

    column: int
    bit: int
    probability: float
    direction: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("cell probability must be within [0, 1]")
        if self.bit < 0 or self.bit > 7:
            raise ValueError("cell bit offset must be within [0, 7]")
        if self.direction not in FLIP_DIRECTIONS:
            raise ValueError(f"unknown flip direction {self.direction!r}")


# exp(-lam) underflows to zero near 745, so a larger mean is drawn as a sum
# of independent draws with means of at most this much; the sum is exact.
_POISSON_PART = 700.0


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's product method, one part of at most _POISSON_PART at a time."""
    k = 0
    while lam > 0:
        part = min(lam, _POISSON_PART)
        lam -= part
        limit = math.exp(-part)
        p = rng.random()
        while p > limit:
            k += 1
            p *= rng.random()
    return k


@dataclass(frozen=True)
class VulnCalibration:
    """Density knobs for the per-row vulnerability map."""

    weak_row_rate: float = 0.0
    cells_per_weak_row: float = 0.0
    cell_probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.weak_row_rate <= 1.0:
            raise ValueError("weak_row_rate must be within [0, 1]")
        if not 0.0 <= self.cells_per_weak_row < math.inf:
            raise ValueError("cells_per_weak_row must be finite and >= 0")
        if not 0.0 <= self.cell_probability <= 1.0:
            raise ValueError("cell_probability must be within [0, 1]")


class VulnerabilityMap:
    """Sparse per-cell susceptibility, generated lazily per bank row.

    Rows are independently "weak" with probability weak_row_rate; a weak row
    carries a Poisson number of cells at uniform positions.  Rows are named
    by packed row key.  Generation is keyed by a seed derived from the
    row's (dimm, rank, bank, row), so the same map emerges no matter which
    rows are queried first.
    """

    def __init__(
        self, geometry: DramGeometry, calibration: VulnCalibration, *, seed: int = 0
    ) -> None:
        self.geometry = geometry
        self.calibration = calibration
        self.seed = seed
        self._cache: dict[int, tuple[VulnCell, ...]] = {}

    def cells_in_row(self, key: int) -> tuple[VulnCell, ...]:
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        cal = self.calibration
        cells: tuple[VulnCell, ...] = ()
        if cal.weak_row_rate > 0.0:
            row_key = self.geometry.unpack_row_key(key)
            rng = random.Random(derive_seed(self.seed, "row", *row_key))
            if rng.random() < cal.weak_row_rate:
                n = _poisson(rng, cal.cells_per_weak_row)
                made = []
                for _ in range(n):
                    col = rng.randrange(self.geometry.row_size)
                    bit = rng.randrange(8)
                    direction = rng.choice(FLIP_DIRECTIONS)
                    made.append(VulnCell(col, bit, cal.cell_probability, direction))
                cells = tuple(made)
        self._cache[key] = cells
        return cells


@dataclass(frozen=True)
class HammerParams:
    """Knobs shared by all hammer calls.

    dose is the activation count at which a cell's configured probability
    applies unscaled; single_sided_multiplier scales it for hammering a
    timed same-bank pair whose rows need not sandwich the victim.
    """

    dose: int = 1_000_000
    single_sided_multiplier: float = 0.5

    def __post_init__(self) -> None:
        if self.dose <= 0:
            raise ValueError("dose must be positive")
        if not 0.0 <= self.single_sided_multiplier < math.inf:
            raise ValueError("single_sided_multiplier must be finite and >= 0")


@dataclass(frozen=True)
class InjectedFlip:
    """A fired cell: where it is and which way it pulls the bit."""

    addr: int
    bit: int
    direction: str


class Dram:
    """Geometry, the hammer entry point, and its activation count."""

    def __init__(
        self,
        geometry: DramGeometry,
        vuln_map: VulnerabilityMap | None = None,
        params: HammerParams | None = None,
    ) -> None:
        self.geometry = geometry
        self.vuln_map = (vuln_map if vuln_map is not None
                         else VulnerabilityMap(geometry, VulnCalibration()))
        self.params = params if params is not None else HammerParams()
        self.total_activations = 0

    def hammer(
        self,
        aggressors: list[int],
        reps: int,
        rng: random.Random,
    ) -> list[InjectedFlip]:
        """Activate aggressor rows and draw flips in their neighbours.

        Only rows that suffer repeated re-activation disturb anything,
        which takes at least two distinct aggressor rows in the same bank.
        """
        if not aggressors:
            raise ValueError("at least one aggressor address required")
        if reps <= 0:
            raise ValueError("reps must be positive")
        geometry = self.geometry
        rows = geometry.rows_per_bank
        # Bank key -> the distinct aggressor row keys in it, in call order.
        per_bank: dict[int, list[int]] = {}
        for addr in aggressors:
            key = geometry.row_key_of(addr)
            bank_rows = per_bank.setdefault(key // rows, [])
            if key not in bank_rows:
                bank_rows.append(key)

        hammered: list[int] = []
        for bank_rows in per_bank.values():
            if len(bank_rows) >= 2:
                self.total_activations += reps * len(bank_rows)
                hammered.extend(bank_rows)
            else:
                # A lone row per bank stays in the row buffer: opened once,
                # never re-activated, so it cannot disturb its neighbours.
                self.total_activations += 1

        mult = self.params.single_sided_multiplier
        dose_factor = reps / self.params.dose
        flips: list[InjectedFlip] = []
        fired: set[tuple[int, int, int]] = set()
        for key in hammered:
            for victim in (key - 1, key + 1):
                if victim // rows != key // rows:
                    continue  # past the first or last row of the bank
                for cell in self.vuln_map.cells_in_row(victim):
                    p = min(1.0, cell.probability * mult * dose_factor)
                    if rng.random() >= p:
                        continue
                    ident = (victim, cell.column, cell.bit)
                    if ident in fired:
                        continue
                    fired.add(ident)
                    addr = _apply(geometry._inverse, victim * geometry.row_size + cell.column)
                    flips.append(InjectedFlip(addr, cell.bit, cell.direction))
        return flips
