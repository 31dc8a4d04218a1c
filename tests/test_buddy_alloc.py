"""Buddy allocator: policy, coalescing, guards, and the bitmap oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammersim.buddy_alloc import (
    Block,
    BuddyState,
    FreeError,
    GuardPlacementError,
    OutOfMemoryError,
    Partition,
    preload_workload,
)
from hammersim.dram_model import PAGE_SIZE

from helpers import BitmapBuddy, free_block_set, run_op_sequence

MIB = 1024 * 1024


def make_pool(size: int = 4 * MIB, base: int = 0, **kwargs) -> BuddyState:
    return BuddyState([Partition("pool", base, size)], **kwargs)


def conservation_ok(buddy: BuddyState, partition: str) -> bool:
    part = buddy.partitions[partition]
    total = (buddy.allocated_bytes(partition)
             + buddy.free_bytes(partition)
             + buddy.guard_bytes(partition))
    return total == part.size


# --- basic policy ---


def test_fresh_pool_is_max_order_blocks():
    buddy = make_pool(4 * MIB)
    counts = buddy.buddy_info().order_counts("pool")
    assert counts[-1] == 4 * MIB // (PAGE_SIZE << 10)
    assert sum(counts[:-1]) == 0


def test_allocate_prefers_smallest_order_then_lowest_address():
    buddy = make_pool(4 * MIB)
    a = buddy.allocate("pool", 0, "t")
    assert a.base == 0 and a.pages == 1
    # The split left buddies at orders 0..9; an order-3 request must take
    # the stranded order-3 block, not split another max-order chunk.
    b = buddy.allocate("pool", 3, "t")
    assert b.base == 8 * PAGE_SIZE
    # An order-0 request takes the lowest free address overall.
    c = buddy.allocate("pool", 0, "t")
    assert c.base == PAGE_SIZE


def test_free_coalesces_back_to_pristine():
    buddy = make_pool(2 * MIB)
    before = buddy.buddy_info()
    blocks = [buddy.allocate("pool", o, "t") for o in (0, 0, 3, 5, 1)]
    for block in reversed(blocks):
        buddy.free(block)
    assert buddy.buddy_info() == before
    assert buddy.free_bytes("pool") == 2 * MIB


def test_double_free_and_foreign_free_rejected():
    buddy = make_pool(1 * MIB)
    block = buddy.allocate("pool", 2, "t")
    buddy.free(block)
    with pytest.raises(FreeError):
        buddy.free(block)
    with pytest.raises(FreeError):
        buddy.free(Block("pool", 64 * PAGE_SIZE, 1, "t"))


def test_allocate_order_bounds_and_oom():
    buddy = make_pool(1 * MIB)
    with pytest.raises(ValueError):
        buddy.allocate("pool", -1, "t")
    with pytest.raises(ValueError):
        buddy.allocate("pool", 11, "t")
    grabbed = [buddy.allocate("pool", 8, "t") for _ in range(1 * MIB // (PAGE_SIZE << 8))]
    assert buddy.free_bytes("pool") == 0
    with pytest.raises(OutOfMemoryError):
        buddy.allocate("pool", 0, "t")
    for g in grabbed:
        buddy.free(g)


def test_allocate_pages_exact_run_returns_tail():
    buddy = make_pool(1 * MIB)
    block = buddy.allocate_pages("pool", 5, "t")
    assert block.pages == 5 and block.base == 0
    # Covering order-3 block minus 5 pages leaves 3 pages free again.
    assert buddy.free_bytes("pool") == 1 * MIB - 5 * PAGE_SIZE
    assert conservation_ok(buddy, "pool")
    nxt = buddy.allocate("pool", 0, "t")
    assert nxt.base == 5 * PAGE_SIZE
    buddy.free(nxt)
    buddy.free(block)
    assert buddy.free_bytes("pool") == 1 * MIB


def test_allocate_at_carves_and_validates():
    buddy = make_pool(1 * MIB)
    block = buddy.allocate_at("pool", 256 * 1024, 4, "t")
    assert block.base == 256 * 1024 and block.pages == 16
    with pytest.raises(ValueError):
        buddy.allocate_at("pool", 3 * PAGE_SIZE, 1, "t")
    with pytest.raises(OutOfMemoryError):
        buddy.allocate_at("pool", 256 * 1024, 4, "t")
    assert conservation_ok(buddy, "pool")


def test_partition_walls_and_row_span_validation():
    span = 256 * 1024
    parts = [Partition("a", 0, 1 * MIB), Partition("b", 1 * MIB + span, 1 * MIB)]
    buddy = BuddyState(parts, row_span=span)
    a = buddy.allocate("a", 8, "t")
    assert a.end <= 1 * MIB
    with pytest.raises(ValueError):
        BuddyState([Partition("a", 0, 1 * MIB), Partition("b", 1 * MIB, 1 * MIB)],
                   row_span=span)
    with pytest.raises(ValueError):
        BuddyState([Partition("a", 0, span + PAGE_SIZE)], row_span=span)
    with pytest.raises(ValueError):
        BuddyState([Partition("a", 0, 1 * MIB), Partition("a", 2 * MIB, 1 * MIB)])


def test_unaligned_partition_base_seeds_correct_free_lists():
    buddy = BuddyState([Partition("odd", 3 * PAGE_SIZE, 13 * PAGE_SIZE)])
    assert buddy.free_bytes("odd") == 13 * PAGE_SIZE
    blocks = free_block_set(buddy, "odd")
    covered = set()
    for base, order in blocks:
        assert base % (PAGE_SIZE << order) == 0
        for p in range(base // PAGE_SIZE, base // PAGE_SIZE + (1 << order)):
            assert p not in covered
            covered.add(p)
    assert covered == set(range(3, 16))


# --- bitmap oracle equivalence ---


def test_matches_bitmap_oracle_quick():
    for seed in range(5):
        run_op_sequence(seed, steps=400)


def test_matches_bitmap_oracle_zero_base():
    run_op_sequence(99, steps=400, base=0, size=2 * MIB)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_matches_bitmap_oracle_property(seed):
    run_op_sequence(seed, steps=120, size=1 * MIB, base=1 * MIB)


# --- guarded buffers ---


def test_isolated_buffer_reserves_guards_both_sides():
    span = 256 * 1024
    buddy = make_pool(8 * MIB, row_span=span)
    iso = buddy.allocate_isolated_buffer("pool", span, "buffer")
    assert iso.block.size == span
    assert sum(size for _, size in iso.guard_spans) == 2 * span
    (lo_base, lo_size), (hi_base, hi_size) = iso.guard_spans
    assert lo_base + lo_size == iso.block.base
    assert hi_base == iso.block.end and hi_size == span
    assert conservation_ok(buddy, "pool")
    # Guards persist: drain everything and scan every allocation's rows.
    drained = []
    while True:
        try:
            drained.append(buddy.allocate("pool", 0, "drain"))
        except OutOfMemoryError:
            break
    assert buddy.free_bytes("pool") == 0
    buffer_rows = {iso.block.base // span}
    forbidden = {r - 1 for r in buffer_rows} | buffer_rows | {r + 1 for r in buffer_rows}
    for block in drained:
        rows = set(range(block.base // span, (block.end - 1) // span + 1))
        assert not rows & forbidden
    assert conservation_ok(buddy, "pool")


def test_isolated_buffer_rounds_to_row_span():
    span = 256 * 1024
    buddy = make_pool(8 * MIB, row_span=span)
    iso = buddy.allocate_isolated_buffer("pool", span + 1, "buffer")
    assert iso.block.size == 2 * span
    assert sum(size for _, size in iso.guard_spans) == 2 * span


def test_isolated_buffer_requires_row_span():
    buddy = make_pool(8 * MIB)
    with pytest.raises(GuardPlacementError):
        buddy.allocate_isolated_buffer("pool", 64 * 1024, "buffer")


# --- conservation under arbitrary mixed ops ---


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**16 - 1)),
                min_size=1, max_size=60),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conservation_under_mixed_ops(ops, seed):
    span = 64 * 1024
    buddy = make_pool(2 * MIB, row_span=span)
    rng = random.Random(seed)
    live: list[Block] = []
    for kind, arg in ops:
        try:
            if kind == 0:
                live.append(buddy.allocate("pool", arg % 11, "t"))
            elif kind == 1:
                live.append(buddy.allocate_pages("pool", arg % 40 + 1, "t"))
            elif kind == 2 and live:
                buddy.free(live.pop(rng.randrange(len(live))))
            elif kind == 3:
                buddy.allocate_isolated_buffer("pool", span * (arg % 2 + 1), "b")
        except (OutOfMemoryError, GuardPlacementError):
            pass
        assert conservation_ok(buddy, "pool")
        for base, order in free_block_set(buddy, "pool"):
            assert base % (PAGE_SIZE << order) == 0
            assert 0 <= base and base + (PAGE_SIZE << order) <= 2 * MIB


# --- workload preload ---


def test_preload_leaves_exact_residue():
    buddy = make_pool(64 * MIB)
    state = preload_workload(
        buddy, "pool",
        residue_bytes=3 * MIB,
        bulk_bytes=16 * MIB,
        reserve_low_bytes=4 * MIB,
        small_max_order=7,
        rng=random.Random(1),
    )
    # Everything free is either a pristine max-order block or residue.
    residue = buddy.free_bytes_below("pool", buddy.max_order)
    assert residue == 3 * MIB
    top = buddy.buddy_info().order_counts("pool")[buddy.max_order]
    assert buddy.free_bytes("pool") == residue + top * (PAGE_SIZE << 10)
    # Bulk blocks respect the low reserve and stay allocated.
    assert sum(b.size for b in state.bulk_blocks) == 16 * MIB
    assert all(b.base >= 4 * MIB for b in state.bulk_blocks)
    assert conservation_ok(buddy, "pool")


def test_preload_fresh_blocks_inject_on_demand():
    buddy = make_pool(64 * MIB)
    state = preload_workload(
        buddy, "pool",
        residue_bytes=1 * MIB,
        bulk_bytes=8 * MIB,
        reserve_low_bytes=4 * MIB,
        small_max_order=7,
        rng=random.Random(2),
        fresh_bytes=2 * MIB,
    )
    assert buddy.free_bytes_below("pool", buddy.max_order) == 1 * MIB
    injected = state.inject_fresh(buddy)
    assert injected == 2 * MIB
    assert buddy.free_bytes_below("pool", buddy.max_order) == 3 * MIB
    assert state.inject_fresh(buddy) == 0


def test_preload_deterministic():
    def snapshot(seed: int):
        buddy = make_pool(32 * MIB)
        preload_workload(
            buddy, "pool",
            residue_bytes=2 * MIB,
            bulk_bytes=8 * MIB,
            reserve_low_bytes=2 * MIB,
            small_max_order=7,
            rng=random.Random(seed),
        )
        return buddy.buddy_info(), sorted((b.base, b.pages) for b in buddy.blocks())

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)


def test_buddyinfo_text_lists_partitions():
    span = 256 * 1024
    parts = [Partition("kernel", 0, 1 * MIB), Partition("user", 1 * MIB + span, 1 * MIB)]
    text = BuddyState(parts, row_span=span).buddyinfo_text()
    lines = text.splitlines()
    assert len(lines) == 2
    assert "kernel" in lines[0] and "user" in lines[1]
    assert len(lines[0].split()) == 12  # name + orders 0..10
