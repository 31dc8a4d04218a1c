"""Buddy allocator: policy, coalescing, guards, and the bitmap oracle."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    multiple,
    rule,
)

from hammersim import harness
from hammersim.buddy_alloc import (
    FRESH,
    Block,
    BuddyError,
    BuddyState,
    FreeError,
    GuardPlacementError,
    OutOfMemoryError,
    Partition,
    preload_workload,
)
from hammersim.dram_model import PAGE_SIZE
from hammersim.harness import KERNEL_PARTITION, build_sim
from hammersim.profiles import get_profile

from helpers import (BitmapBuddy, assert_guarded, free_block_set, free_masks,
                     reference_free_lists, reference_preload, run_op_sequence)

MIB = 1024 * 1024


def make_pool(size: int = 4 * MIB, base: int = 0, **kwargs) -> BuddyState:
    return BuddyState([Partition("pool", base, size)], **kwargs)


def conservation_ok(buddy: BuddyState, partition: str) -> bool:
    """Blocks and runs (guard rows too) plus free pages make the capacity."""
    taken = sum(stop - start for start, stop in taken_spans(buddy, partition))
    return (taken + buddy.free_pages(partition)) * PAGE_SIZE == buddy.partitions[partition].size


# --- basic policy ---


def test_fresh_pool_is_max_order_blocks():
    buddy = make_pool(4 * MIB)
    counts = buddy.buddy_info()["pool"]
    assert counts[-1] == 4 * MIB // (PAGE_SIZE << 10)
    assert sum(counts[:-1]) == 0


def test_allocate_prefers_smallest_order_then_lowest_address():
    buddy = make_pool(4 * MIB)
    a = buddy.allocate("pool", 0, "t")
    assert a.first == 0 and a.pages == 1
    # The split left buddies at orders 0..9; an order-3 request must take
    # the stranded order-3 block, not split another max-order chunk.
    b = buddy.allocate("pool", 3, "t")
    assert b.first == 8
    # An order-0 request takes the lowest free page overall.
    c = buddy.allocate("pool", 0, "t")
    assert c.first == 1


def test_free_coalesces_back_to_pristine():
    buddy = make_pool(2 * MIB)
    before = buddy.buddy_info()
    blocks = [buddy.allocate("pool", o, "t") for o in (0, 0, 3, 5, 1)]
    for block in reversed(blocks):
        buddy.free(block)
    assert buddy.buddy_info() == before
    assert buddy.free_pages("pool") == 2 * MIB // PAGE_SIZE


def test_double_free_and_foreign_free_rejected():
    buddy = make_pool(1 * MIB)
    block = buddy.allocate("pool", 2, "t")
    buddy.free(block)
    with pytest.raises(FreeError):
        buddy.free(block)
    with pytest.raises(FreeError):
        buddy.free(Block("pool", 64, 1, "t"))


def test_allocate_order_bounds_and_oom():
    buddy = make_pool(1 * MIB)
    with pytest.raises(ValueError):
        buddy.allocate("pool", -1, "t")
    with pytest.raises(ValueError):
        buddy.allocate("pool", 11, "t")
    grabbed = [buddy.allocate("pool", 8, "t") for _ in range(1 * MIB // (PAGE_SIZE << 8))]
    assert buddy.free_pages("pool") == 0
    with pytest.raises(OutOfMemoryError):
        buddy.allocate("pool", 0, "t")
    for g in grabbed:
        buddy.free(g)


def test_allocate_pages_exact_run_returns_tail():
    buddy = make_pool(1 * MIB)
    block = buddy.allocate_pages("pool", 5, "t")
    assert block.pages == 5 and block.first == 0
    # Covering order-3 block minus 5 pages leaves 3 pages free again.
    assert buddy.free_pages("pool") == 1 * MIB // PAGE_SIZE - 5
    assert conservation_ok(buddy, "pool")
    nxt = buddy.allocate("pool", 0, "t")
    assert nxt.first == 5
    buddy.free(nxt)
    buddy.free(block)
    assert buddy.free_pages("pool") == 1 * MIB // PAGE_SIZE


def test_allocate_at_carves_and_validates():
    buddy = make_pool(1 * MIB)
    block = buddy.allocate_at("pool", 64, 4, "t")  # 256 KiB in
    assert block.first == 64 and block.pages == 16
    with pytest.raises(ValueError):
        buddy.allocate_at("pool", 3, 1, "t")
    with pytest.raises(OutOfMemoryError):
        buddy.allocate_at("pool", 64, 4, "t")
    assert conservation_ok(buddy, "pool")


def test_partition_walls_and_row_span_validation():
    span = 256 * 1024
    parts = [Partition("a", 0, 1 * MIB), Partition("b", 1 * MIB + span, 1 * MIB)]
    buddy = BuddyState(parts, row_span=span)
    a = buddy.allocate("a", 8, "t")
    assert a.frames.stop * PAGE_SIZE <= 1 * MIB
    with pytest.raises(ValueError):
        BuddyState([Partition("a", 0, 1 * MIB), Partition("b", 1 * MIB, 1 * MIB)],
                   row_span=span)
    with pytest.raises(ValueError):
        BuddyState([Partition("a", 0, span + PAGE_SIZE)], row_span=span)
    with pytest.raises(ValueError):
        BuddyState([Partition("a", 0, 1 * MIB), Partition("a", 2 * MIB, 1 * MIB)])


def test_unaligned_partition_base_seeds_correct_free_lists():
    buddy = BuddyState([Partition("odd", 3 * PAGE_SIZE, 13 * PAGE_SIZE)])
    assert buddy.free_pages("odd") == 13
    blocks = free_block_set(buddy, "odd")
    covered = set()
    for first, order in blocks:
        assert first % (1 << order) == 0
        for p in range(first, first + (1 << order)):
            assert p not in covered
            covered.add(p)
    assert covered == set(range(3, 16))


@given(st.integers(0, 3000), st.integers(1, 3000), st.integers(0, 2000),
       st.integers(0, 10), st.sampled_from([None, 1, 4, 64]))
@example(0, 4096, 0, 10, None)  # base 0
@example(3, 2061, 0, 10, None)  # base not aligned to a max-order block
@example(5, 7, 0, 3, None)  # smaller than one max-order block
@example(1000, 30, 9, 5, None)  # straddles a max-order boundary, no whole block
@example(64, 960, 1024, 10, 64)  # the row_span case, two partitions
@settings(max_examples=150, deadline=None)
def test_fresh_free_lists_match_block_by_block_split(base, pages, second, max_order,
                                                     row_pages):
    if row_pages is not None:
        base, pages = base // row_pages * row_pages, -(-pages // row_pages) * row_pages
        second = -(-second // row_pages) * row_pages
    parts = [Partition("a", base * PAGE_SIZE, pages * PAGE_SIZE)]
    if second:
        gap = row_pages or 1
        parts.append(Partition("b", (base + pages + gap) * PAGE_SIZE, second * PAGE_SIZE))
    buddy = BuddyState(parts, max_order=max_order,
                       row_span=row_pages and row_pages * PAGE_SIZE)
    reference = copy.deepcopy(buddy)
    reference._free = reference_free_lists(buddy)
    assert buddy._free == reference._free
    assert buddy.buddy_info() == reference.buddy_info()
    buddy.check_invariants()
    reference.check_invariants()


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


@given(st.integers(1, 3000), st.integers(0, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_bitmap_oracle_updates_match_a_fresh_derivation(pages, max_order, seed):
    # The oracle updates its masks only at the orders a change touches;
    # after any mix of range changes they must equal the masks derived
    # from the whole bitmap at once.
    part = Partition("pool", 0, pages * PAGE_SIZE)
    oracle = BitmapBuddy([part], max_order=max_order)
    rng = random.Random(seed)
    for _ in range(30):
        first = rng.randrange(pages)
        count = rng.randrange(1, pages - first + 1)
        change = oracle.free_range if rng.random() < 0.5 else oracle.take_range
        change("pool", first, count)
        fresh = BitmapBuddy([part], max_order=max_order)
        fresh.bits["pool"] = oracle.bits["pool"]
        fresh._full["pool"] = fresh._full_blocks("pool")
        fresh._refresh_masks("pool", 0, max_order)
        assert oracle._full["pool"] == fresh._full["pool"]
        assert oracle.maximal_masks("pool") == fresh.maximal_masks("pool")


# --- guarded buffers ---


def test_isolated_buffer_reserves_guards_both_sides():
    span = 256 * 1024
    buddy = make_pool(8 * MIB, row_span=span)
    block = buddy.allocate_isolated_buffer("pool", span, "buffer")
    assert block.size == span
    assert_guarded(buddy, block, span)
    assert conservation_ok(buddy, "pool")
    # Guards persist: drain everything and scan every allocation's rows.
    drained = []
    while True:
        try:
            drained.append(buddy.allocate("pool", 0, "drain"))
        except OutOfMemoryError:
            break
    assert buddy.free_pages("pool") == 0
    row_pages = span // PAGE_SIZE
    buffer_rows = {block.first // row_pages}
    forbidden = {r - 1 for r in buffer_rows} | buffer_rows | {r + 1 for r in buffer_rows}
    for other in drained:
        rows = set(range(other.first // row_pages, (other.frames.stop - 1) // row_pages + 1))
        assert not rows & forbidden
    assert_guarded(buddy, block, span)
    assert conservation_ok(buddy, "pool")


def test_isolated_buffer_rounds_to_row_span():
    span = 256 * 1024
    buddy = make_pool(8 * MIB, row_span=span)
    block = buddy.allocate_isolated_buffer("pool", span + 1, "buffer")
    assert block.size == 2 * span
    assert_guarded(buddy, block, span)


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
        for first, order in free_block_set(buddy, "pool"):
            assert first % (1 << order) == 0
            assert 0 <= first and (first + (1 << order)) * PAGE_SIZE <= 2 * MIB


# --- workload preload ---


def allocator_state(buddy: BuddyState):
    return (copy.deepcopy(buddy._free), buddy.buddy_info(),
            buddy.free_pages("pool"), taken_spans(buddy, "pool"))


def taken_spans(buddy: BuddyState, partition: str) -> list[tuple[int, int]]:
    """The partition's allocated pages, blocks and runs alike, as sorted
    [start, stop) page ranges with touching ranges merged."""
    spans = sorted([(b.first, b.first + b.pages) for b in buddy.blocks(partition)]
                   + [(r.start, r.stop) for run in buddy._runs
                      if run.partition == partition for r in run.spans])
    merged: list[tuple[int, int]] = []
    for start, stop in spans:
        if merged and merged[-1][1] == start:
            start = merged.pop()[0]
        merged.append((start, stop))
    return merged


def test_preload_leaves_exact_residue():
    buddy = make_pool(64 * MIB)
    preload_workload(
        buddy, "pool",
        residue_bytes=3 * MIB,
        bulk_bytes=16 * MIB,
        reserve_low_bytes=4 * MIB,
        small_max_order=7,
        rng=random.Random(1),
    )
    # Everything free is either a pristine max-order block or residue.
    residue = buddy.free_pages_below("pool", buddy.max_order)
    assert residue * PAGE_SIZE == 3 * MIB
    top = buddy.buddy_info()["pool"][buddy.max_order]
    assert buddy.free_pages("pool") == residue + (top << 10)
    # The bulk is the max-order blocks taken whole: every other touched
    # block keeps a free residue half.  Nothing below the reserve is taken.
    span = 1 << buddy.max_order
    spans = taken_spans(buddy, "pool")
    whole = sum(max(0, stop // span - -(-start // span)) for start, stop in spans)
    assert whole * span * PAGE_SIZE == 16 * MIB
    assert spans[0][0] * PAGE_SIZE >= 4 * MIB
    assert conservation_ok(buddy, "pool")
    buddy.check_invariants()


def fresh_blocks(buddy: BuddyState, partition: str) -> list[Block]:
    return [block for block in buddy.blocks(partition) if block.owner == FRESH]


def inject_fresh(buddy: BuddyState, partition: str) -> int:
    """Free the partition's fresh blocks, as the drain does; returns the
    bytes injected."""
    fresh = fresh_blocks(buddy, partition)
    for block in fresh:
        buddy.free(block)
    return sum(block.size for block in fresh)


def test_preload_fresh_blocks_inject_on_demand():
    buddy = make_pool(64 * MIB)
    preload_workload(
        buddy, "pool",
        residue_bytes=1 * MIB,
        bulk_bytes=8 * MIB,
        reserve_low_bytes=4 * MIB,
        small_max_order=7,
        rng=random.Random(2),
        fresh_bytes=2 * MIB,
    )
    assert buddy.free_pages_below("pool", buddy.max_order) * PAGE_SIZE == 1 * MIB
    injected = inject_fresh(buddy, "pool")
    assert injected == 2 * MIB
    assert buddy.free_pages_below("pool", buddy.max_order) * PAGE_SIZE == 3 * MIB
    assert fresh_blocks(buddy, "pool") == []


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
        return (buddy.buddy_info(), sorted((b.first, b.pages) for b in buddy.blocks()),
                [(r.start, r.stop) for run in buddy._runs for r in run.spans])

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)


def preload_result(buddy: BuddyState, partition: str) -> tuple:
    buddy.check_invariants()
    return (buddy._free[partition], buddy.buddy_info(), buddy.free_pages(partition),
            taken_spans(buddy, partition), fresh_blocks(buddy, partition))


@pytest.mark.parametrize("name", ["dell", "lenovo"])
def test_preload_matches_trial_and_error_on_profiles(name, monkeypatch):
    # build_sim's preload, then the same trial with the reference carver
    # patched in where bench/tracer.py patches the preload.
    for seed in (0, 2026):
        fast = build_sim(get_profile(name), seed)
        with monkeypatch.context() as patched:
            patched.setattr(harness, "preload_workload", reference_preload)
            slow = build_sim(get_profile(name), seed)
        assert (preload_result(fast.os.buddy, KERNEL_PARTITION)
                == preload_result(slow.os.buddy, KERNEL_PARTITION))


PRELOAD_POOLS = {
    # pool (base, size), max_order, preload arguments
    "fresh": ((0, 64 * MIB), 10, dict(residue_bytes=1 * MIB, bulk_bytes=8 * MIB,
                                      reserve_low_bytes=4 * MIB, small_max_order=7,
                                      fresh_bytes=2 * MIB)),
    "ragged": ((MIB + 12 * PAGE_SIZE, 37 * MIB + 5 * PAGE_SIZE), 10,
               dict(residue_bytes=2 * MIB, bulk_bytes=12 * MIB + 3 * PAGE_SIZE,
                    reserve_low_bytes=3 * MIB + 100, small_max_order=6,
                    fresh_bytes=256 * 1024)),
    "pair of top blocks": ((0, 4 * MIB), 5, dict(residue_bytes=512 * 1024,
                                                 bulk_bytes=MIB, reserve_low_bytes=0,
                                                 small_max_order=5, fresh_bytes=128 * 1024)),
    "used before": ((0, 16 * MIB), 8, dict(residue_bytes=1 * MIB, bulk_bytes=2 * MIB,
                                           reserve_low_bytes=MIB, small_max_order=4)),
}


@pytest.mark.parametrize("case", sorted(PRELOAD_POOLS))
def test_preload_matches_trial_and_error_on_small_pools(case):
    (base, size), max_order, kwargs = PRELOAD_POOLS[case]
    for seed in range(12):
        buddy = make_pool(size, base, max_order=max_order)
        if case == "used before":  # a fragmented pool, not a fresh one
            rng = random.Random(seed)
            live = [buddy.allocate("pool", rng.randrange(6), "t") for _ in range(40)]
            for block in rng.sample(live, 20):
                buddy.free(block)
            buddy.take_pages("pool", 70, "t")
        twin = copy.deepcopy(buddy)
        preload_workload(buddy, "pool", rng=random.Random(seed), **kwargs)
        reference_preload(twin, "pool", rng=random.Random(seed), **kwargs)
        assert preload_result(buddy, "pool") == preload_result(twin, "pool")
        if kwargs.get("fresh_bytes"):
            assert inject_fresh(buddy, "pool") == inject_fresh(twin, "pool")
            assert fresh_blocks(buddy, "pool") == []
            assert preload_result(buddy, "pool") == preload_result(twin, "pool")


@st.composite
def preload_pools(draw):
    """(pool, preload arguments, generator seed): ragged page-aligned bounds,
    max_order 2-10, and a pool that may have been used before the preload."""
    max_order = draw(st.integers(2, 10))
    top = 1 << max_order
    base, pages = draw(st.integers(0, 3 * top)), draw(st.integers(1, 6 * top))
    buddy = make_pool(pages * PAGE_SIZE, base * PAGE_SIZE, max_order=max_order)
    if draw(st.booleans()):  # used before: allocations, frees and a take
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        live = []
        for _ in range(draw(st.integers(1, 40))):
            try:
                live.append(buddy.allocate("pool", rng.randrange(min(6, max_order + 1)), "t"))
            except OutOfMemoryError:
                break
        for block in rng.sample(live, len(live) // 2):
            buddy.free(block)
        buddy.take_pages("pool", min(draw(st.integers(0, 80)), buddy.free_pages("pool")), "t")
    kwargs = dict(
        residue_bytes=draw(st.integers(0, pages // 3)) * PAGE_SIZE,
        fresh_bytes=draw(st.integers(0, pages // 6)) * PAGE_SIZE,
        bulk_bytes=draw(st.integers(0, pages * PAGE_SIZE // 2)),
        reserve_low_bytes=draw(st.integers(0, pages * PAGE_SIZE - 1)),
        small_max_order=draw(st.integers(0, max_order)))
    return buddy, kwargs, draw(st.integers(0, 2**32 - 1))


def preload_outcome(preload, buddy: BuddyState, kwargs: dict, seed: int):
    """(exception type and message, or None, generator state) of one
    preload."""
    rng = random.Random(seed)
    try:
        preload(buddy, "pool", rng=rng, **kwargs)
    except (OutOfMemoryError, ValueError) as exc:
        return (type(exc), str(exc)), rng.getstate()
    return None, rng.getstate()


@given(preload_pools())
@example((make_pool(4 * MIB, max_order=5),  # pairs of top blocks: anchors at order 6
          dict(residue_bytes=512 * 1024, bulk_bytes=MIB, reserve_low_bytes=0,
               small_max_order=5, fresh_bytes=128 * 1024), 3))
@settings(max_examples=150, deadline=None)
def test_preload_matches_trial_and_error_on_drawn_pools(pool):
    buddy, kwargs, seed = pool
    twin = copy.deepcopy(buddy)
    outcome = preload_outcome(preload_workload, buddy, kwargs, seed)
    assert outcome == preload_outcome(reference_preload, twin, kwargs, seed)
    if outcome[0] is not None:
        return
    assert preload_result(buddy, "pool") == preload_result(twin, "pool")
    # The run's form: each span inside one max-order block, ascending, and
    # no two spans of one block touching.
    top = buddy.max_order
    spans = [span for run in buddy._runs if run.owner == "workload" for span in run.spans]
    assert all(span and span.start >> top == span.stop - 1 >> top for span in spans)
    for left, right in zip(spans, spans[1:]):
        assert left.stop < right.start or (left.stop == right.start
                                           and right.start >> top != left.start >> top)


def dell_slot_counts() -> list[int]:
    """The slot counts dell's preload draws among: aligned ranges of every
    order up to a pair of max-order blocks, above the low reserve."""
    profile = get_profile("dell")
    end = profile.kernel_bytes // PAGE_SIZE
    counts = []
    for order in range(profile.max_order + 2):
        pages = 1 << order
        start = -(-profile.reserve_low_bytes // (pages * PAGE_SIZE)) * pages
        counts.append((end - start) // pages)
    return counts


def getrandbits_below(rng: random.Random, n: int) -> int:
    """preload_workload's draw among n choices."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


@pytest.mark.parametrize("n", sorted(
    {1, 2, 3} | {(1 << e) + d for e in (2, 5, 10, 17) for d in (-1, 0, 1)}
    | set(dell_slot_counts())))
def test_preload_draw_matches_randrange_and_randint(n):
    for seed in (0, 2026):
        for reference in (lambda rng: rng.randrange(n), lambda rng: rng.randint(0, n - 1)):
            drawn, twin = random.Random(seed), random.Random(seed)
            assert ([getrandbits_below(drawn, n) for _ in range(64)]
                    == [reference(twin) for _ in range(64)])
            assert drawn.getstate() == twin.getstate()


@pytest.mark.parametrize("case", sorted(PRELOAD_POOLS))
def test_preload_leaves_the_reference_generator_state(case):
    (base, size), max_order, kwargs = PRELOAD_POOLS[case]
    drawn, twin = random.Random(5), random.Random(5)
    preload_workload(make_pool(size, base, max_order=max_order), "pool", rng=drawn, **kwargs)
    reference_preload(make_pool(size, base, max_order=max_order), "pool", rng=twin, **kwargs)
    assert drawn.getstate() == twin.getstate()


@pytest.mark.parametrize("kwargs", [
    dict(residue_bytes=1 * MIB, bulk_bytes=16 * MIB),  # bulk over the room left
    dict(residue_bytes=7 * MIB, bulk_bytes=4 * MIB),   # residue pairs over it
], ids=["bulk", "residue"])
def test_failed_preload_changes_nothing(kwargs):
    buddy = make_pool(16 * MIB)
    buddy.allocate("pool", 3, "t")
    before = (allocator_state(buddy), list(buddy._runs), dict(buddy._allocated))
    with pytest.raises(OutOfMemoryError):
        preload_workload(buddy, "pool", reserve_low_bytes=4 * MIB,
                         small_max_order=7, rng=random.Random(3), **kwargs)
    assert (allocator_state(buddy), list(buddy._runs), dict(buddy._allocated)) == before


def test_preload_rejects_a_negative_small_max_order():
    # No order can be drawn, so the draw must not spin for one.
    with pytest.raises(ValueError, match="small_max_order"):
        preload_workload(make_pool(16 * MIB), "pool", residue_bytes=MIB, bulk_bytes=0,
                         reserve_low_bytes=0, small_max_order=-1, rng=random.Random(1))


def test_buddyinfo_text_lists_partitions():
    span = 256 * 1024
    parts = [Partition("kernel", 0, 1 * MIB), Partition("user", 1 * MIB + span, 1 * MIB)]
    text = BuddyState(parts, row_span=span).buddyinfo_text()
    lines = text.splitlines()
    assert len(lines) == 2
    assert "kernel" in lines[0] and "user" in lines[1]
    assert len(lines[0].split()) == 12  # name + orders 0..10


# --- bulk page takes ---


def frames(runs: list[range]) -> list[int]:
    """The pages of take_pages' runs in order; every run is a non-empty
    step-1 range."""
    assert all(type(run) is range and run.step == 1 and run for run in runs)
    return [pfn for run in runs for pfn in run]


def fragmented_pool(seed: int) -> BuddyState:
    """A 2 MiB pool after a random walk of allocations and frees."""
    buddy = make_pool(2 * MIB)
    rng = random.Random(seed)
    live: list[Block] = []
    for _ in range(60):
        if live and rng.random() < 0.4:
            buddy.free(live.pop(rng.randrange(len(live))))
        else:
            try:
                live.append(buddy.allocate("pool", rng.randrange(8), "t"))
            except OutOfMemoryError:
                pass
    return buddy


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["zero", "within one block", "across orders", "past free"]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_take_pages_equals_sequential_order0_allocations(seed, case, data):
    buddy = fragmented_pool(seed)
    free_pages = buddy.free_pages("pool")
    first_block = next((1 << o for o, lst in enumerate(buddy._free["pool"]) if lst), 0)
    assume(free_pages or case in ("zero", "past free"))
    if case == "zero":
        n = 0
    elif case == "within one block":
        n = data.draw(st.integers(1, first_block))
    elif case == "across orders":
        n = data.draw(st.integers(min(first_block + 1, free_pages), free_pages))
    else:
        n = data.draw(st.integers(free_pages + 1, free_pages + 64))
    twin = copy.deepcopy(buddy)
    if case == "past free":
        before = allocator_state(buddy)
        with pytest.raises(OutOfMemoryError):
            buddy.take_pages("pool", n, "page_table")
        assert allocator_state(buddy) == before
        return
    want = [twin.allocate("pool", 0, "page_table").first for _ in range(n)]
    assert frames(buddy.take_pages("pool", n, "page_table")) == want
    assert allocator_state(buddy) == allocator_state(twin)
    buddy.check_invariants()


def test_take_pages_on_the_dell_preload():
    buddy = build_sim(get_profile("dell"), 2026).os.buddy
    twin = copy.deepcopy(buddy)
    n = 15872  # the table pages of one dell/video placement
    want = [twin.allocate(KERNEL_PARTITION, 0, "page_table").first for _ in range(n)]
    assert frames(buddy.take_pages(KERNEL_PARTITION, n, "page_table")) == want
    assert buddy._free == twin._free
    assert buddy.buddy_info() == twin.buddy_info()
    buddy.check_invariants()


def test_free_rejects_pages_of_a_run():
    buddy = make_pool(1 * MIB)
    pfns = frames(buddy.take_pages("pool", 3, "page_table"))
    for pfn in pfns:
        with pytest.raises(FreeError):
            buddy.free(Block("pool", pfn, 1, "page_table"))
    with pytest.raises(FreeError):
        buddy.free(Block("pool", pfns[0], 2, "page_table"))
    assert buddy.partitions["pool"].size // PAGE_SIZE - buddy.free_pages("pool") == 3
    buddy.check_invariants()
    with pytest.raises(ValueError):
        buddy.take_pages("pool", -1, "page_table")


def test_check_invariants_names_broken_state():
    buddy = make_pool(1 * MIB)
    buddy.take_pages("pool", 5, "page_table")
    buddy.check_invariants()
    broken = copy.deepcopy(buddy)
    broken._free["pool"][0].append(0)  # a taken page listed free again
    with pytest.raises(BuddyError, match="overlap"):
        broken.check_invariants()
    broken = copy.deepcopy(buddy)
    broken._runs.clear()  # the taken pages belong to nobody
    with pytest.raises(BuddyError, match="capacity"):
        broken.check_invariants()
    # Two free buddies of order 2 in place of their order-3 parent.
    broken = copy.deepcopy(buddy)
    lists = broken._free["pool"]
    lists[3].remove(8)
    lists[2] = sorted(lists[2] + [8, 12])
    with pytest.raises(BuddyError, match="buddies"):
        broken.check_invariants()
    broken = copy.deepcopy(buddy)
    broken._free["pool"][0] = [0]  # free page 5 listed as taken page 0
    with pytest.raises(BuddyError, match="overlap"):
        broken.check_invariants()
    broken = copy.deepcopy(buddy)
    lists = broken._free["pool"]
    lists[0], lists[1] = [7], [5]  # same pages, order-1 at 5
    with pytest.raises(BuddyError, match="unsorted or misaligned"):
        broken.check_invariants()
    two = make_pool(8 * MIB)
    two._free["pool"][10].reverse()
    with pytest.raises(BuddyError, match="unsorted or misaligned"):
        two.check_invariants()
    # Guard rows are a run: dropped, their pages belong to nobody; listed
    # free, they are held twice.
    guarded = make_pool(1 * MIB, row_span=SPAN)
    guarded.allocate_isolated_buffer("pool", SPAN, "buffer")
    guarded.check_invariants()
    broken = copy.deepcopy(guarded)
    broken._runs.remove(next(run for run in broken._runs if run.owner == "guard"))
    with pytest.raises(BuddyError, match="capacity"):
        broken.check_invariants()
    broken = copy.deepcopy(guarded)
    broken._free["pool"][0].insert(0, 0)  # page 0 opens the lower guard
    with pytest.raises(BuddyError, match="overlap"):
        broken.check_invariants()


# --- state machine over every allocation path ---

SPAN = 64 * 1024


class AllocatorMachine(RuleBasedStateMachine):
    """Mixes every allocator operation on a 2 MiB pool; after each step the
    invariants hold and the free lists match the bitmap oracle."""

    blocks = Bundle("blocks")

    def __init__(self) -> None:
        super().__init__()
        part = Partition("pool", 0, 2 * MIB)
        self.buddy = BuddyState([part], row_span=SPAN)
        self.oracle = BitmapBuddy([part])

    @rule(target=blocks, order=st.integers(0, 10))
    def allocate(self, order):
        want = self.oracle.allocate("pool", order)
        try:
            block = self.buddy.allocate("pool", order, "t")
        except OutOfMemoryError:
            assert want is None
            return multiple()
        assert block.first == want
        return block

    @rule(target=blocks, pages=st.integers(1, 40))
    def allocate_pages(self, pages):
        order = (pages - 1).bit_length()
        want = self.oracle.allocate("pool", order)
        try:
            block = self.buddy.allocate_pages("pool", pages, "t")
        except OutOfMemoryError:
            assert want is None
            return multiple()
        assert block.first == want and block.pages == pages
        self.oracle.free_range("pool", block.frames.stop, (1 << order) - pages)
        return block

    @rule(target=blocks, order=st.integers(0, 9), slot=st.integers(0, 511))
    def allocate_at(self, order, slot):
        first = slot % (512 >> order) << order
        expect = self.oracle.range_free("pool", first, 1 << order)
        try:
            block = self.buddy.allocate_at("pool", first, order, "t")
        except OutOfMemoryError:
            assert not expect
            return multiple()
        assert expect
        self.oracle.take_range("pool", first, 1 << order)
        return block

    @rule(block=consumes(blocks))
    def free(self, block):
        self.buddy.free(block)
        self.oracle.free_range("pool", block.first, block.pages)

    @rule(target=blocks, spans=st.integers(1, 2))
    def allocate_isolated_buffer(self, spans):
        order = ((spans + 2) * SPAN // PAGE_SIZE - 1).bit_length()
        want = self.oracle.allocate("pool", order)
        try:
            block = self.buddy.allocate_isolated_buffer("pool", spans * SPAN, "b")
        except GuardPlacementError:
            assert want is None
            return multiple()
        span = SPAN // PAGE_SIZE
        assert (block.first, block.size) == (want + span, spans * SPAN)
        assert_guarded(self.buddy, block, SPAN)
        # Only the guard-to-guard span stays taken; the rest is free again.
        used = (spans + 2) * span
        self.oracle.free_range("pool", want + used, (1 << order) - used)
        return multiple()  # a guarded buffer is never freed

    @rule(n=st.integers(0, 80))
    def take_pages(self, n):
        if n > self.oracle.free_pages("pool"):
            with pytest.raises(OutOfMemoryError):
                self.buddy.take_pages("pool", n, "page_table")
            return
        want = [self.oracle.allocate("pool", 0) for _ in range(n)]
        assert frames(self.buddy.take_pages("pool", n, "page_table")) == want

    @invariant()
    def matches_oracle(self):
        self.buddy.check_invariants()
        assert free_masks(self.buddy, "pool") == self.oracle.maximal_masks("pool")
        assert self.buddy.free_pages("pool") == self.oracle.free_pages("pool")


TestAllocatorMachine = AllocatorMachine.TestCase
TestAllocatorMachine.settings = settings(max_examples=60, stateful_step_count=30,
                                         deadline=None)
