"""Experiment runner: seeded trials, baselines, aggregation, reports.

A trial builds a fresh simulator from a profile, seeds a background
workload, runs one placement strategy, and (for the ambush) hammers until
capture or the round cap.  Everything is derived from the trial seed, so
identical (profile, strategy, seed) produce byte-identical reports.

Baseline strategies run at allocator granularity: ``feng_shui`` hoards
large-to-medium blocks until only sub-row fragments remain, ``spray``
interleaves 2 MiB data blocks with one page-table page each until memory
runs out.  Both exist for the footprint comparison against the ambush,
which stays at its configured threshold.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, fields

from .ambush import (
    DRIVER_VIDEO,
    DRIVERS,
    Placement,
    plan,
    run_ambush,
    verify_adjacency,
)
from .buddy_alloc import (
    BuddyState,
    OutOfMemoryError,
    Partition,
    preload_workload,
)
from .dram_model import (
    PAGE_SIZE,
    Dram,
    VulnerabilityMap,
    derive_seed,
    rows_size_per_row_index,
)
from .exploit import (
    STATUS_KERNEL,
    STATUS_NONE,
    STATUS_ORDER,
    STATUS_ROOT,
    ExploitOutcome,
    hammer_loop,
)
from .os_model import KERNEL_PARTITION, USER_PARTITION, OsModel
from .profiles import MachineProfile

STRATEGY_AMBUSH = "ambush"
STRATEGY_SPRAY = "spray"
STRATEGY_FENG_SHUI = "feng_shui"
STRATEGIES = (STRATEGY_AMBUSH, STRATEGY_SPRAY, STRATEGY_FENG_SHUI)

POOL_PARTITION = "pool"

DEFAULT_PID = 1
DEFAULT_UID = 1000


class HarnessError(ValueError):
    """Raised for invalid experiment configuration."""


@dataclass(frozen=True, kw_only=True)
class TrialReport:
    """One row of the experiment output; field order is the CSV schema.
    The defaults are a trial that placed no buffer and hammered nothing."""

    seed: int
    profile: str
    strategy: str
    driver: str
    mitigation: bool = False
    threshold_bytes: int = 0
    available_bytes: int
    footprint_bytes: int
    adjacency: bool = False
    adjacency_pairs: int = 0
    pt_pages: int
    flips: int = 0
    pt_flips: int = 0
    outcome: str = STATUS_NONE
    rounds: int = 0
    pair_attempts: int = 0
    activations: int = 0
    guard_buffers: int = 0
    guard_cost_bytes: int = 0


CSV_COLUMNS = tuple(f.name for f in fields(TrialReport))


@dataclass
class SimBundle:
    """A fully built per-trial simulator."""

    profile: MachineProfile
    os: OsModel


def _preload(buddy: BuddyState, partition: str, profile: MachineProfile,
             trial_seed: int, *, fresh_bytes: int) -> None:
    """The profile's background workload in partition, seeded per trial.

    preload_workload is looked up in this module at call time, where
    bench/tracer.py patches it.
    """
    preload_workload(
        buddy,
        partition,
        residue_bytes=profile.residue_bytes,
        bulk_bytes=profile.bulk_bytes,
        reserve_low_bytes=profile.reserve_low_bytes,
        small_max_order=profile.small_max_order,
        rng=random.Random(derive_seed(trial_seed, "preload")),
        fresh_bytes=fresh_bytes,
    )


def build_sim(profile: MachineProfile, trial_seed: int) -> SimBundle:
    """Build DRAM, partitioned allocator, OS state, and the preload."""
    geometry = profile.geometry
    vuln = VulnerabilityMap(
        geometry, profile.vulnerability, seed=derive_seed(trial_seed, "vuln")
    )
    dram = Dram(geometry, vuln_map=vuln, params=profile.hammer)
    row_span = rows_size_per_row_index(geometry)
    user_base = profile.kernel_bytes + row_span
    buddy = BuddyState(
        [
            Partition(KERNEL_PARTITION, 0, profile.kernel_bytes),
            Partition(USER_PARTITION, user_base, geometry.capacity - user_base),
        ],
        max_order=profile.max_order,
        row_span=row_span,
    )
    _preload(buddy, KERNEL_PARTITION, profile, trial_seed,
             fresh_bytes=profile.fresh_bytes)
    return SimBundle(profile=profile, os=OsModel(dram, buddy))


def place(
    bundle: SimBundle,
    driver: str,
    threshold_bytes: int | None = None,
    *,
    mitigation: bool = False,
) -> Placement:
    """Run the ambush placement on a built simulator, at the profile's
    threshold for driver unless threshold_bytes is given."""
    profile = bundle.profile
    threshold = (
        profile.threshold_for(driver) if threshold_bytes is None else threshold_bytes
    )
    plan_ = plan(threshold, driver, sg_opens=profile.sg_opens)
    return run_ambush(bundle.os, plan_, mitigation=mitigation)


def _hoard(buddy: BuddyState, order: int, owner: str) -> list:
    held = []
    while True:
        try:
            held.append(buddy.allocate(POOL_PARTITION, order, owner))
        except OutOfMemoryError:
            return held


def _feng_shui_footprint(buddy: BuddyState, profile: MachineProfile) -> tuple[int, int]:
    """Exhaust the whole free pool, release one block spanning full rows,
    then spray page-table pages until the hole refills.

    The hole is the only free space left, so the sprayed tables land there
    deterministically and the footprint equals what was free to begin with.
    """
    span = rows_size_per_row_index(profile.geometry)
    held = []
    for order in range(profile.max_order, -1, -1):
        held.extend(_hoard(buddy, order, "feng_shui"))
    hole = min((b for b in held if b.size >= span),
               key=lambda b: b.size, default=None)
    pt_pages = 0
    if hole is not None:
        held.remove(hole)
        buddy.free(hole)
        pt_pages = buddy.free_pages(POOL_PARTITION)
        buddy.take_pages(POOL_PARTITION, pt_pages, "page_table")
    footprint = sum(b.size for b in held) + pt_pages * PAGE_SIZE
    return footprint, pt_pages


def _spray_footprint(buddy: BuddyState, profile: MachineProfile) -> tuple[int, int]:
    """Data block plus one page-table page per 2 MiB region until OOM."""
    data_order = (2 * 1024 * 1024 // PAGE_SIZE).bit_length() - 1
    footprint = 0
    pt_count = 0
    while True:
        try:
            data = buddy.allocate(POOL_PARTITION, data_order, "spray_data")
        except OutOfMemoryError:
            break
        footprint += data.size
        try:
            pt = buddy.allocate(POOL_PARTITION, 0, "page_table")
        except OutOfMemoryError:
            break
        footprint += pt.size
        pt_count += 1
    return footprint, pt_count


def _run_baseline_trial(
    profile: MachineProfile,
    trial_seed: int,
    *,
    strategy: str,
    driver: str,
) -> TrialReport:
    geometry = profile.geometry
    buddy = BuddyState(
        [Partition(POOL_PARTITION, 0, geometry.capacity)],
        max_order=profile.max_order,
        row_span=rows_size_per_row_index(geometry),
    )
    _preload(buddy, POOL_PARTITION, profile, trial_seed, fresh_bytes=0)
    available = buddy.free_pages(POOL_PARTITION) * PAGE_SIZE
    if strategy == STRATEGY_FENG_SHUI:
        footprint, pt_pages = _feng_shui_footprint(buddy, profile)
    else:
        footprint, pt_pages = _spray_footprint(buddy, profile)
    return TrialReport(
        seed=trial_seed,
        profile=profile.name,
        strategy=strategy,
        driver=driver,
        available_bytes=available,
        footprint_bytes=footprint,
        pt_pages=pt_pages,
    )


def run_single_trial(
    profile: MachineProfile,
    trial_seed: int,
    *,
    strategy: str = STRATEGY_AMBUSH,
    driver: str = DRIVER_VIDEO,
    threshold_bytes: int | None = None,
    mitigation: bool = False,
    rounds_cap: int | None = None,
) -> TrialReport:
    if strategy not in STRATEGIES:
        raise HarnessError(f"unknown strategy {strategy!r}")
    if driver not in DRIVERS:
        raise HarnessError(f"unknown driver {driver!r}")
    if rounds_cap is not None and rounds_cap < 0:
        raise HarnessError("rounds_cap must be >= 0")
    if strategy != STRATEGY_AMBUSH:
        if mitigation or threshold_bytes is not None or rounds_cap is not None:
            raise HarnessError(f"strategy {strategy!r} takes no mitigation, "
                               "threshold_bytes or rounds_cap (ambush only)")
        return _run_baseline_trial(profile, trial_seed, strategy=strategy, driver=driver)
    bundle = build_sim(profile, trial_seed)
    buddy = bundle.os.buddy
    available = (buddy.free_pages(KERNEL_PARTITION)
                 + buddy.free_pages(USER_PARTITION)) * PAGE_SIZE
    placement = place(bundle, driver, threshold_bytes, mitigation=mitigation)
    adjacency = verify_adjacency(bundle.os, placement)
    bundle.os.plant_cred(
        DEFAULT_PID, DEFAULT_UID, random.Random(derive_seed(trial_seed, "cred"))
    )
    cap = profile.rounds_cap if rounds_cap is None else rounds_cap
    if cap > 0:
        outcome = hammer_loop(
            bundle.os,
            placement.buffer,
            profile.channel,
            random.Random(derive_seed(trial_seed, "hammer")),
            rounds_cap=cap,
            reps_per_round=profile.reps_per_round,
            pid=DEFAULT_PID,
            pair_attempt_cap=profile.pair_attempt_cap,
        )
    else:
        outcome = ExploitOutcome(status=STATUS_NONE, rounds=0)
    guard_pairs = len(placement.buffer.chunks) if mitigation else 0
    guard_cost = guard_pairs * 2 * profile.geometry.row_size
    return TrialReport(
        seed=trial_seed,
        profile=profile.name,
        strategy=STRATEGY_AMBUSH,
        driver=driver,
        mitigation=mitigation,
        threshold_bytes=placement.plan.threshold_mem_size,
        available_bytes=available,
        footprint_bytes=placement.footprint_bytes,
        adjacency=adjacency.adjacent,
        adjacency_pairs=len(adjacency.pairs),
        pt_pages=placement.pt_pages,
        flips=outcome.flip_count,
        pt_flips=outcome.pt_flip_count,
        outcome=outcome.status,
        rounds=outcome.rounds,
        pair_attempts=outcome.pair_attempts,
        activations=bundle.os.dram.total_activations,
        guard_buffers=guard_pairs,
        guard_cost_bytes=guard_cost,
    )


@dataclass(frozen=True)
class AggregateReport:
    """Deterministic fold of trial rows, ordered by trial index."""

    profile: str
    strategy: str
    master_seed: int
    trials: tuple[TrialReport, ...]

    @property
    def n(self) -> int:
        return len(self.trials)

    def _fraction(self, count: int) -> float:
        return count / self.n if self.n else 0.0

    @property
    def adjacency_count(self) -> int:
        return sum(1 for t in self.trials if t.adjacency)

    @property
    def adjacency_rate(self) -> float:
        return self._fraction(self.adjacency_count)

    @property
    def flippable_count(self) -> int:
        return sum(1 for t in self.trials if t.pt_flips > 0)

    @property
    def flippable_rate(self) -> float:
        return self._fraction(self.flippable_count)

    @property
    def exploitable_count(self) -> int:
        kernel_rank = STATUS_ORDER.index(STATUS_KERNEL)
        return sum(
            1
            for t in self.trials
            if STATUS_ORDER.index(t.outcome) >= kernel_rank
        )

    @property
    def exploitable_rate(self) -> float:
        return self._fraction(self.exploitable_count)

    @property
    def root_count(self) -> int:
        return sum(1 for t in self.trials if t.outcome == STATUS_ROOT)

    @property
    def max_footprint(self) -> int:
        return max((t.footprint_bytes for t in self.trials), default=0)

    @property
    def min_available(self) -> int:
        return min((t.available_bytes for t in self.trials), default=0)

    @property
    def guard_cost_per_buffer(self) -> int:
        costs = {
            t.guard_cost_bytes // t.guard_buffers
            for t in self.trials
            if t.guard_buffers
        }
        if len(costs) > 1:
            raise HarnessError("inconsistent guard accounting across trials")
        return costs.pop() if costs else 0


def run_trials(
    profile: MachineProfile,
    strategy: str,
    n: int,
    seed: int,
    *,
    driver: str = DRIVER_VIDEO,
    threshold_bytes: int | None = None,
    mitigation: bool = False,
    rounds_cap: int | None = None,
) -> AggregateReport:
    """Run n independently seeded trials and fold them into a report."""
    if n < 0:
        raise HarnessError("trial count must be >= 0")
    trials = []
    for index in range(n):
        trial_seed = derive_seed(seed, "trial", index)
        trials.append(
            run_single_trial(
                profile,
                trial_seed,
                strategy=strategy,
                driver=driver,
                threshold_bytes=threshold_bytes,
                mitigation=mitigation,
                rounds_cap=rounds_cap,
            )
        )
    return AggregateReport(
        profile=profile.name,
        strategy=strategy,
        master_seed=seed,
        trials=tuple(trials),
    )


def _row_values(trial: TrialReport) -> list[str]:
    values = []
    for name in CSV_COLUMNS:
        value = getattr(trial, name)
        if isinstance(value, bool):
            values.append(str(int(value)))
        else:
            values.append(str(value))
    return values


def emit_report(aggregate: AggregateReport, fmt: str = "csv",
                path: str | None = None) -> str:
    """Serialize an aggregate; csv is one row per trial, text a summary."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for trial in aggregate.trials:
            writer.writerow(_row_values(trial))
        text = out.getvalue()
    elif fmt == "text":
        lines = [
            f"profile:            {aggregate.profile}",
            f"strategy:           {aggregate.strategy}",
            f"seed:               {aggregate.master_seed}",
            f"trials:             {aggregate.n}",
            f"adjacency:          {aggregate.adjacency_count}/{aggregate.n}"
            f" ({aggregate.adjacency_rate:.1%})",
            f"flippable runs:     {aggregate.flippable_count}/{aggregate.n}"
            f" ({aggregate.flippable_rate:.1%})",
            f"exploitable runs:   {aggregate.exploitable_count}/{aggregate.n}"
            f" ({aggregate.exploitable_rate:.1%})",
            f"root runs:          {aggregate.root_count}/{aggregate.n}",
            f"max footprint:      {aggregate.max_footprint} bytes",
            f"min available:      {aggregate.min_available} bytes",
            f"guard cost/buffer:  {aggregate.guard_cost_per_buffer} bytes",
        ]
        text = "\n".join(lines) + "\n"
    else:
        raise HarnessError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
