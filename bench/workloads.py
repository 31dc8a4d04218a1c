"""The benchmark's three workloads.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned.  The master seed is the only input; each
op derives its own seed from it, so the same seed gives the same ops in
any process.  The package is reached only through the module namespace
``hs`` (see run.load_package), and names are looked up at call time, so
the tracer's wrappers are the ones that run when it is installed.

- ``exploit``: one op is one full ambush trial (dell, video, 40-round cap),
  the shape of acceptance criterion 7.  The only workload that times the
  channel, hammers DRAM and escalates.
- ``guarded``: one op is one guarded placement (mitigation on, round cap
  0), the shape of criterion 8.  Placement alone, through the allocator's
  guard-row path; the hammer loop does no work.
- ``scan``: one op is one verification batch on a full-scale dell/video
  placement, the shape of criterion 6.  A batch lands single-bit flips in
  page-table frames, runs the verification scan and escalates on capture.
  Episode builds run between ops: they count in ops per second but not in
  the per-op times.
"""

from __future__ import annotations

import hashlib
import random

PROFILE = "dell"
DRIVER = "video"
PID = 1
UID = 1000

# An episode is SCAN_RANDOM_BATCHES batches of random flips, then one batch
# with a single redirect flip that points an entry at a page-table frame.
# Random flips never redirect, so every episode reaches its capture at the
# same op and episodes cost alike; any capture ends the episode.
SCAN_RANDOM_BATCHES = 11
SCAN_FLIPS_PER_BATCH = 10
# Draws per landed flip before a batch gives up; a pull towards the value a
# bit already holds leaves memory unchanged and is drawn again.
SCAN_DRAWS_PER_FLIP = 64
PFN_BITS = 40


class CheckError(Exception):
    """An op's output broke an invariant the benchmark checks."""


class TrialWorkload:
    """exploit and guarded: op i is harness trial i of the master seed."""

    def __init__(self, hs, seed: int, *, mitigation: bool, rounds_cap: int | None):
        self.hs = hs
        self.profile = hs.profiles.get_profile(PROFILE)
        self.seed = seed
        self.mitigation = mitigation
        self.rounds_cap = rounds_cap
        self.threshold = self.profile.threshold_for(DRIVER)

    def prepare(self, index: int) -> None:
        pass

    def run(self, index: int):
        hs = self.hs
        report = hs.harness.run_single_trial(
            self.profile,
            hs.dram_model.derive_seed(self.seed, "trial", index),
            strategy=hs.harness.STRATEGY_AMBUSH,
            driver=DRIVER,
            mitigation=self.mitigation,
            rounds_cap=self.rounds_cap,
        )
        self.check(report)
        return report

    def check(self, report) -> None:
        cap = self.profile.rounds_cap if self.rounds_cap is None else self.rounds_cap
        if report.footprint_bytes > self.threshold:
            raise CheckError(f"footprint {report.footprint_bytes} above threshold")
        if report.rounds > cap:
            raise CheckError(f"{report.rounds} rounds above the cap of {cap}")
        if report.outcome not in self.hs.exploit.STATUS_ORDER:
            raise CheckError(f"unknown outcome {report.outcome!r}")
        if self.mitigation:
            guards = self.hs.ambush.plan(self.threshold, DRIVER).chunk_count
            row = self.profile.geometry.row_size
            if report.adjacency or report.adjacency_pairs:
                raise CheckError("guarded placement left a table row adjacent")
            if (report.guard_buffers, report.guard_cost_bytes) != (guards, guards * 2 * row):
                raise CheckError("guard rows do not match one row pair per buffer")
            if report.flips or report.activations or report.pair_attempts:
                raise CheckError("hammer loop ran with a round cap of 0")

    def report(self, records) -> str:
        """The CSV report of every completed trial, via harness.emit_report."""
        harness = self.hs.harness
        aggregate = harness.AggregateReport(
            profile=self.profile.name,
            strategy=harness.STRATEGY_AMBUSH,
            master_seed=self.seed,
            trials=tuple(r for r in records if r is not None),
        )
        return harness.emit_report(aggregate, "csv")


class _Episode:
    def __init__(self, number: int, bundle, rng: random.Random) -> None:
        self.number = number
        self.bundle = bundle
        self.rng = rng
        self.pt_frames = sorted(bundle.os.pt_pfns())
        self.pt_set = set(self.pt_frames)
        self.batches = 0


class ScanWorkload:
    """scan: op i is one flip batch plus verification on the open episode."""

    def __init__(self, hs, seed: int) -> None:
        self.hs = hs
        self.profile = hs.profiles.get_profile(PROFILE)
        self.seed = seed
        self.page_size = hs.dram_model.PAGE_SIZE
        self.episode: _Episode | None = None
        self.episodes = 0

    def prepare(self, index: int) -> None:
        """Open a new episode when the last one ended: build, place, plant."""
        if self.episode is not None:
            return
        hs = self.hs
        derive_seed = hs.dram_model.derive_seed
        episode_seed = derive_seed(self.seed, "episode", self.episodes)
        profile = self.profile
        bundle = hs.harness.build_sim(profile, episode_seed)
        hs.ambush.run_ambush(
            bundle.os,
            hs.ambush.plan(profile.threshold_for(DRIVER), DRIVER,
                           sg_opens=profile.sg_opens),
        )
        bundle.os.plant_cred(PID, UID, random.Random(derive_seed(episode_seed, "cred")))
        self.episode = _Episode(self.episodes, bundle,
                                random.Random(derive_seed(episode_seed, "flips")))
        self.episodes += 1

    def _redirects(self, episode: _Episode, entry_addr: int, bit: int) -> bool:
        """Whether flipping bit of a present entry maps it onto a table frame."""
        os_model = self.hs.os_model
        index = bit - os_model.PTE_PFN_SHIFT
        if not 0 <= index < PFN_BITS:
            return False
        raw = episode.bundle.os.memory.read_u64(entry_addr)
        return bool(raw & os_model.PTE_PRESENT) and (
            os_model.PteEntry(raw).pfn ^ (1 << index) in episode.pt_set)

    def _flip(self, episode: _Episode, entry_addr: int, bit: int, direction: str):
        landed = episode.bundle.os.memory.flip_bit(entry_addr + bit // 8, bit % 8, direction)
        return (entry_addr + bit // 8, bit % 8, direction) if landed else None

    def _random_flips(self, episode: _Episode) -> list[tuple[int, int, str]]:
        rng = episode.rng
        landed = []
        for _ in range(SCAN_FLIPS_PER_BATCH * SCAN_DRAWS_PER_FLIP):
            if len(landed) == SCAN_FLIPS_PER_BATCH:
                break
            pfn = rng.choice(episode.pt_frames)
            entry_addr = pfn * self.page_size + rng.randrange(self.page_size // 8) * 8
            bit = rng.randrange(64)
            direction = rng.choice(("1to0", "0to1"))
            if self._redirects(episode, entry_addr, bit):
                continue
            flip = self._flip(episode, entry_addr, bit, direction)
            if flip is not None:
                landed.append(flip)
        return landed

    def _redirect_flip(self, episode: _Episode) -> list[tuple[int, int, str]]:
        """One flip that points an entry (slot 2 or above) at a table frame."""
        rng = episode.rng
        frames = list(episode.pt_frames)
        rng.shuffle(frames)
        for pfn in frames:
            for slot in rng.sample(range(2, self.page_size // 8), 24):
                entry_addr = pfn * self.page_size + slot * 8
                bits = [b for b in range(64) if self._redirects(episode, entry_addr, b)]
                if bits:
                    bit = rng.choice(bits)
                    raw = episode.bundle.os.memory.read_u64(entry_addr)
                    direction = "1to0" if raw >> bit & 1 else "0to1"
                    return [self._flip(episode, entry_addr, bit, direction)]
        raise CheckError("no entry can be redirected onto a table frame")

    def run(self, index: int):
        # An op that raises ends its episode; the next op opens a new one.
        episode, self.episode = self.episode, None
        assert episode is not None, "prepare() opens an episode before run()"
        os_model = episode.bundle.os
        exploit = self.hs.exploit
        redirect = episode.batches == SCAN_RANDOM_BATCHES
        flips = self._redirect_flip(episode) if redirect else self._random_flips(episode)
        os_model.flush_tlb()
        found = exploit.verify_and_take_pt(os_model)
        root = None
        if found is not None:
            va, vb = found
            slot = (vb - os_model.map_base) // self.page_size % 512
            if va == vb or slot != exploit.PROBE_ENTRY_INDEX:
                raise CheckError(f"capture {found} is not a probe position")
            root = exploit.escalate_root(os_model, va, vb, PID)
            if root != (os_model.getuid(PID) == 0):
                raise CheckError("escalation result disagrees with the uid")
        elif redirect:
            raise CheckError("verification missed a redirected table entry")
        episode.batches += 1
        record = {
            "episode": episode.number,
            "batch": episode.batches,
            "flips": flips,
            "found": found,
            "root": root,
        }
        if found is not None:
            record["backed_pages"] = len(os_model.memory.pages)
            record["tlb_flushes"] = os_model.tlb.flush_count
            record["pt_pages"] = len(episode.pt_frames)
        else:
            self.episode = episode
        return record

    def report(self, records) -> str:
        """One line per batch: flips landed, capture, escalation, counts."""
        return "".join(f"{sorted(r.items())}\n" for r in records if r is not None)


WORKLOADS = ("exploit", "guarded", "scan")
DESCRIPTIONS = {
    "exploit": "dell profile, video driver, ambush, 40-round cap; one op is one trial",
    "guarded": "dell profile, video driver, guard rows on, round cap 0; one op is one placement",
    "scan": (f"dell/video placement per episode, {SCAN_RANDOM_BATCHES} batches of "
             f"{SCAN_FLIPS_PER_BATCH} random table-frame flips, then one redirect flip "
             f"that captures; one op is one batch"),
}


def make(name: str, hs, seed: int):
    if name == "exploit":
        return TrialWorkload(hs, seed, mitigation=False, rounds_cap=None)
    if name == "guarded":
        return TrialWorkload(hs, seed, mitigation=True, rounds_cap=0)
    if name == "scan":
        return ScanWorkload(hs, seed)
    raise ValueError(f"unknown workload {name!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
