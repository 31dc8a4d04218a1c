"""Acceptance gate: nine end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; each
test prints ``criterion N: PASS/FAIL - detail`` before asserting, so the
verdict survives even when the assertion fires.  Every criterion carries a
wall-clock budget that is part of the check.
"""

from __future__ import annotations

import copy
import random
import time

import numpy as np

from hammersim.ambush import DRIVER_VIDEO
from hammersim.dram_model import (
    PAGE_SIZE,
    DramCoord,
    DramGeometry,
    MappingSpec,
    rows_size_per_row_index,
    target_block_size,
)
from hammersim.exploit import verify_and_take_pt
from hammersim.harness import (
    STRATEGY_AMBUSH,
    STRATEGY_FENG_SHUI,
    run_trials,
)
from hammersim.profiles import get_profile

from helpers import (
    brute_force_verify,
    fuzz_injections,
    numpy_coord_keys,
    run_op_sequence,
    sample_latency_phys,
    small_attack_sim,
    unmap_dram_to_phys,
    user_pte,
    windows,
)

MIB = 1024 * 1024


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_row_block_sizes():
    t0 = time.perf_counter()
    geo = get_profile("dell").geometry
    span = rows_size_per_row_index(geo)
    block = target_block_size(geo)
    elapsed = time.perf_counter() - t0
    ok = span == 256 * 1024 and block == 512 * 1024 and elapsed < 1.0
    line = _report(1, ok, f"row span {span // 1024} KiB, "
                          f"target block {block // 1024} KiB ({elapsed:.2f}s)")
    assert ok, line


def test_criterion_2_allocator_matches_bitmap_oracle():
    t0 = time.perf_counter()
    for seed in range(100):
        run_op_sequence(seed, 10_000)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    line = _report(2, ok, "free set equal to bitmap oracle after every op, "
                          f"100 seeds x 10000 ops on 4 MiB ({elapsed:.1f}s)")
    assert ok, line


def _random_geometry(rng: random.Random) -> DramGeometry:
    while True:
        dimms = rng.choice([1, 2])
        ranks = rng.choice([1, 2])
        banks = rng.choice([1, 2, 4])
        rows = rng.choice([4, 8, 16, 32])
        row_size = rng.choice([4096, 8192])
        if dimms * ranks * banks * rows * row_size <= MIB:
            break
    nd = dimms.bit_length() - 1
    nr = ranks.bit_length() - 1
    nb = banks.bit_length() - 1
    nrow = rows.bit_length() - 1
    addr_bits = nd + nr + nb + nrow + (row_size.bit_length() - 1)
    row_lo = rng.randrange(addr_bits - nrow + 1)
    row_set = set(range(row_lo, row_lo + nrow))
    pool = [b for b in range(addr_bits) if b not in row_set]
    rng.shuffle(pool)
    primaries = pool[: nd + nr + nb]
    aux_pool = [b for b in range(addr_bits) if b not in set(primaries)]

    def selector(primary: int) -> list[int]:
        bits = [primary]
        if aux_pool and rng.random() < 0.5:
            bits.append(rng.choice(aux_pool))
        return bits

    it = iter(primaries)
    spec = MappingSpec.make(
        dimm=[selector(next(it)) for _ in range(nd)],
        rank=[selector(next(it)) for _ in range(nr)],
        bank=[selector(next(it)) for _ in range(nb)],
        row_range=(row_lo, row_lo + nrow - 1),
    )
    return DramGeometry(dimms, ranks, banks, rows, row_size, spec)


def test_criterion_3_mapping_bijectivity():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    collisions = 0
    for _ in range(20):
        geo = _random_geometry(rng)
        keys = numpy_coord_keys(geo)
        # Distinct keys, counted without np.unique's sort.
        distinct = np.count_nonzero(np.bincount(keys.astype(np.int64)))
        collisions += geo.capacity - int(distinct)
    elapsed = time.perf_counter() - t0
    ok = collisions == 0 and elapsed < 10.0
    line = _report(3, ok, f"20 random mappings exhaustively bijective, "
                          f"{collisions} collisions ({elapsed:.1f}s)")
    assert ok, line


def test_criterion_4_placement_adjacency():
    t0 = time.perf_counter()
    profile = get_profile("dell")
    threshold = profile.threshold_for(DRIVER_VIDEO)
    agg = run_trials(profile, STRATEGY_AMBUSH, 50, 2026, rounds_cap=0)
    over = sum(1 for t in agg.trials if t.footprint_bytes > threshold)
    elapsed = time.perf_counter() - t0
    ok = (threshold == 88 * MIB and agg.adjacency_count == 50
          and over == 0 and elapsed < 60.0)
    line = _report(4, ok, f"adjacency {agg.adjacency_count}/50, "
                          f"{over} trials above the 88 MiB threshold "
                          f"({elapsed:.1f}s)")
    assert ok, line


def _class_rates(profile_name: str, seed: int) -> tuple[float, float]:
    profile = get_profile(profile_name)
    geo = profile.geometry
    rng = random.Random(seed)

    def rand_coord() -> DramCoord:
        return DramCoord(
            rng.randrange(geo.dimms),
            rng.randrange(geo.ranks_per_dimm),
            rng.randrange(geo.banks_per_rank),
            rng.randrange(geo.rows_per_bank),
            rng.randrange(geo.row_size),
        )

    conflict_hits = 0
    other_hits = 0
    for _ in range(10_000):
        a = rand_coord()
        row_b = (a.row + 1 + rng.randrange(geo.rows_per_bank - 1)) \
            % geo.rows_per_bank
        b = DramCoord(a.dimm, a.rank, a.bank, row_b, rng.randrange(geo.row_size))
        sample = sample_latency_phys(
            unmap_dram_to_phys(a, geo), unmap_dram_to_phys(b, geo),
            geo, profile.channel, rng,
        )
        assert sample.true_conflict
        conflict_hits += sample.classified_conflict
    for _ in range(10_000):
        a = rand_coord()
        if rng.random() < 0.5:
            # Same row of the same bank: a row-buffer hit.
            b = DramCoord(a.dimm, a.rank, a.bank, a.row,
                          rng.randrange(geo.row_size))
        else:
            bank_b = (a.bank + 1 + rng.randrange(geo.banks_per_rank - 1)) \
                % geo.banks_per_rank
            b = DramCoord(a.dimm, a.rank, bank_b,
                          rng.randrange(geo.rows_per_bank),
                          rng.randrange(geo.row_size))
        sample = sample_latency_phys(
            unmap_dram_to_phys(a, geo), unmap_dram_to_phys(b, geo),
            geo, profile.channel, rng,
        )
        assert not sample.true_conflict
        other_hits += not sample.classified_conflict
    return conflict_hits / 10_000, other_hits / 10_000


def test_criterion_5_channel_rates():
    t0 = time.perf_counter()
    dell_conflict, dell_other = _class_rates("dell", 501)
    lenovo_conflict, lenovo_other = _class_rates("lenovo", 502)
    elapsed = time.perf_counter() - t0
    ok = (abs(dell_conflict - 0.927) <= 0.02
          and abs(dell_other - 0.974) <= 0.02
          and abs(lenovo_conflict - 1.0) <= 0.02
          and abs(lenovo_other - 0.990) <= 0.02
          and elapsed < 30.0)
    line = _report(5, ok, "10000 pairs/class: "
                          f"dell {dell_conflict:.1%}/{dell_other:.1%}, "
                          f"lenovo {lenovo_conflict:.1%}/{lenovo_other:.1%} "
                          f"({elapsed:.1f}s)")
    assert ok, line


def _inject_exact(os_model, rng: random.Random, want: int) -> int:
    landed = 0
    for _ in range(50):
        if landed >= want:
            break
        landed += fuzz_injections(os_model, rng, want - landed)
    return landed


def _inject_table_redirect(os_model, rng: random.Random) -> int:
    """Flip one entry bit so it points at another live table frame.

    Same single-bit disturbance as the random injections, but aimed where
    a real capture becomes possible, so the success path of the scan gets
    fuzzed too and not just the restore path.
    """
    pts = sorted(os_model.pt_pfns())
    tables = windows(os_model)
    bases = sorted(tables)
    rng.shuffle(bases)
    for base in bases:
        for entry in rng.sample(range(2, 512), 24):
            addr = tables[base] * PAGE_SIZE + entry * 8
            raw = os_model.memory.read_u64(addr)
            for target in pts:
                delta = raw ^ user_pte(target).raw
                if delta and delta & (delta - 1) == 0:
                    bit = delta.bit_length() - 1
                    direction = "1to0" if raw >> bit & 1 else "0to1"
                    flipped = os_model.memory.flip_bit(
                        addr + bit // 8, bit % 8, direction)
                    os_model.flush_tlb()
                    return int(flipped)
    return 0


def test_criterion_6_verification_oracle_equivalence():
    t0 = time.perf_counter()
    injected = 0
    comparisons = 0
    mismatches = 0
    state_diffs = 0
    captures = 0
    for scenario in range(8):
        os_model, _ = small_attack_sim(seed=scenario % 3 + 1,
                                       threshold=21 * MIB,
                                       residue=128 * 1024)
        rng = random.Random(3000 + scenario)
        for batch in range(9):
            if batch == 8:
                landed = _inject_table_redirect(os_model, rng)
                if not landed:
                    continue
                injected += landed
            else:
                injected += _inject_exact(os_model, rng, 5)
            twin = copy.deepcopy(os_model)
            got = verify_and_take_pt(os_model)
            want = brute_force_verify(twin)
            comparisons += 1
            mismatches += got != want
            state_diffs += os_model.memory.pages != twin.memory.pages
            if got is not None:
                captures += 1
                os_model, _ = small_attack_sim(seed=scenario % 3 + 1,
                                               threshold=21 * MIB,
                                               residue=128 * 1024)
    elapsed = time.perf_counter() - t0
    ok = (injected >= 256 and captures >= 1 and mismatches == 0
          and state_diffs == 0 and elapsed < 60.0)
    line = _report(6, ok, f"{injected} injected flips, {comparisons} "
                          f"verifications ({captures} captures): "
                          f"{mismatches} result mismatches, "
                          f"{state_diffs} memory divergences ({elapsed:.1f}s)")
    assert ok, line


def test_criterion_7_end_to_end_statistics():
    t0 = time.perf_counter()
    profile = get_profile("dell")
    agg = run_trials(profile, STRATEGY_AMBUSH, 200, 2026)
    elapsed = time.perf_counter() - t0
    ratio = agg.root_count / agg.flippable_count if agg.flippable_count else 0.0
    ok = (0.30 <= agg.flippable_rate <= 0.50
          and abs(ratio - 1 / 7) <= 0.07
          and elapsed < 300.0)
    per = f"1 per {agg.flippable_count / agg.root_count:.1f}" \
        if agg.root_count else "none"
    line = _report(7, ok, f"flippable {agg.flippable_count}/200 "
                          f"({agg.flippable_rate:.1%}), "
                          f"root {agg.root_count} ({per} flippable) "
                          f"({elapsed:.1f}s)")
    assert ok, line


def test_criterion_8_guard_row_mitigation():
    t0 = time.perf_counter()
    profile = get_profile("dell")
    agg = run_trials(profile, STRATEGY_AMBUSH, 200, 2026, mitigation=True, rounds_cap=0)
    elapsed = time.perf_counter() - t0
    ok = (agg.adjacency_count == 0
          and agg.guard_cost_per_buffer == 16 * 1024
          and elapsed < 60.0)
    line = _report(8, ok, f"adjacency {agg.adjacency_count}/200 with guards, "
                          f"{agg.guard_cost_per_buffer // 1024} KiB per buffer "
                          f"({elapsed:.1f}s)")
    assert ok, line


def test_criterion_9_strategy_footprints():
    t0 = time.perf_counter()
    profile = get_profile("dell")
    threshold = profile.threshold_for(DRIVER_VIDEO)
    feng = run_trials(profile, STRATEGY_FENG_SHUI, 1, 7).trials[0]
    ambush = run_trials(profile, STRATEGY_AMBUSH, 1, 7, rounds_cap=0).trials[0]
    elapsed = time.perf_counter() - t0
    share = feng.footprint_bytes / feng.available_bytes
    ok = (share >= 0.99 and ambush.footprint_bytes <= threshold
          and elapsed < 60.0)
    line = _report(9, ok, f"feng_shui holds {share:.1%} of free memory "
                          f"({feng.footprint_bytes // MIB} MiB), ambush "
                          f"{ambush.footprint_bytes // MIB} MiB of "
                          f"{threshold // MIB} MiB allowed ({elapsed:.1f}s)")
    assert ok, line
