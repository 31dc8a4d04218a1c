"""Trial harness: seeding, reports, baselines, mitigation, and the CLI."""

from __future__ import annotations

import configparser
import dataclasses
import gc
import hashlib
import io
import os
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammersim import profiles
from hammersim.ambush import DRIVER_VIDEO, plan, run_ambush
from hammersim.cli import main
from hammersim.dram_model import HammerParams
from hammersim.harness import (
    STRATEGY_AMBUSH,
    STRATEGY_FENG_SHUI,
    STRATEGY_SPRAY,
    AggregateReport,
    HarnessError,
    TrialReport,
    build_sim,
    emit_report,
    run_single_trial,
    run_trials,
)
from hammersim.profiles import (
    MachineProfile,
    ProfileError,
    VulnCalibration,
    load_profile,
)
from hammersim.timing_channel import ChannelModel

from helpers import parse_report, simple_mapping

MIB = 1024 * 1024


def small_profile(**overrides) -> MachineProfile:
    params = dict(
        name="desk",
        geometry=simple_mapping(banks=2, rows=8192, row_size=8192),
        channel=ChannelModel(),
        vulnerability=VulnCalibration(
            weak_row_rate=0.0, cells_per_weak_row=0.0, cell_probability=1.0
        ),
        kernel_bytes=64 * MIB,
        residue_bytes=2 * MIB,
        bulk_bytes=8 * MIB,
        reserve_low_bytes=40 * MIB,
        rounds_cap=0,
        thresholds={"video": 24 * MIB, "sg": 36 * MIB},
    )
    params.update(overrides)
    return MachineProfile(**params)


# --- trials and reports ---


def test_run_trials_deterministic_csv():
    profile = small_profile()
    first = emit_report(run_trials(profile, STRATEGY_AMBUSH, 2, 11))
    again = emit_report(run_trials(profile, STRATEGY_AMBUSH, 2, 11))
    other = emit_report(run_trials(profile, STRATEGY_AMBUSH, 2, 12))
    assert first == again
    assert first != other


def test_report_roundtrip_and_aggregate():
    profile = small_profile()
    aggregate = run_trials(profile, STRATEGY_AMBUSH, 3, 7)
    rows = parse_report(emit_report(aggregate))
    assert rows == list(aggregate.trials)
    assert len({row.seed for row in rows}) == 3
    assert {row.strategy for row in rows} == {STRATEGY_AMBUSH}
    assert {row.profile for row in rows} == {"desk"}
    # Placement-only runs: adjacency comes free, nothing was hammered.
    assert aggregate.n == 3
    assert aggregate.adjacency_count == 3
    assert aggregate.adjacency_rate == 1.0
    assert aggregate.flippable_count == 0
    assert aggregate.exploitable_count == 0
    assert aggregate.root_count == 0
    assert all(row.outcome == "none" and row.rounds == 0 for row in rows)
    assert aggregate.max_footprint <= 24 * MIB
    assert all(row.footprint_bytes <= row.available_bytes for row in rows)


def test_parse_report_rejects_bad_text():
    profile = small_profile()
    text = emit_report(run_trials(profile, STRATEGY_AMBUSH, 1, 7))
    header, row = text.splitlines()
    with pytest.raises(HarnessError):
        parse_report("a,b,c\n1,2,3\n")
    with pytest.raises(HarnessError):
        parse_report(header + "\n" + ",".join(row.split(",")[:-1]) + "\n")


def test_text_report_summarizes():
    profile = small_profile()
    aggregate = run_trials(profile, STRATEGY_AMBUSH, 1, 7)
    text = emit_report(aggregate, "text")
    assert "adjacency:          1/1" in text
    assert "profile:            desk" in text
    with pytest.raises(HarnessError):
        emit_report(aggregate, "yaml")


def test_empty_run():
    aggregate = run_trials(small_profile(), STRATEGY_AMBUSH, 0, 1)
    assert aggregate.n == 0
    assert aggregate.adjacency_rate == 0.0
    assert aggregate.flippable_rate == 0.0
    assert aggregate.max_footprint == 0
    assert aggregate.guard_cost_per_buffer == 0
    assert parse_report(emit_report(aggregate)) == []


def test_unknown_strategy_and_driver():
    profile = small_profile()
    with pytest.raises(HarnessError):
        run_single_trial(profile, 1, strategy="teleport")
    with pytest.raises(HarnessError):
        run_single_trial(profile, 1, driver="floppy")


def test_guard_accounting_must_agree():
    base = run_trials(small_profile(), STRATEGY_AMBUSH, 1, 7).trials[0]
    a = dataclasses.replace(base, guard_buffers=2, guard_cost_bytes=32768)
    b = dataclasses.replace(base, guard_buffers=2, guard_cost_bytes=65536)
    broken = AggregateReport("desk", STRATEGY_AMBUSH, 0, (a, b))
    with pytest.raises(HarnessError):
        broken.guard_cost_per_buffer


# --- baselines ---


def test_baselines_dwarf_ambush_footprint():
    profile = small_profile()
    ambush = run_trials(profile, STRATEGY_AMBUSH, 1, 3).trials[0]
    feng = run_trials(profile, STRATEGY_FENG_SHUI, 1, 3).trials[0]
    spray = run_trials(profile, STRATEGY_SPRAY, 1, 3).trials[0]
    assert ambush.footprint_bytes <= 24 * MIB
    for row in (feng, spray):
        assert row.pt_pages > 0
        assert row.footprint_bytes > 1.5 * ambush.footprint_bytes
        assert row.footprint_bytes <= row.available_bytes
    # Exhaust-and-refill grooming pins the whole free pool.
    assert feng.footprint_bytes == feng.available_bytes


def test_baseline_deterministic():
    profile = small_profile()
    one = run_trials(profile, STRATEGY_FENG_SHUI, 2, 5)
    two = run_trials(profile, STRATEGY_FENG_SHUI, 2, 5)
    assert emit_report(one) == emit_report(two)


# --- mitigation ---


def test_finished_model_is_freed_without_the_cycle_collector():
    # Seed 5's preload retries failed placements; a kept exception, like
    # a write hook bound to the model, would hold the model in a cycle
    # until a full collection.
    profile = profiles.get_profile("dell")
    gc.disable()
    try:
        bundle = build_sim(profile, 5)
        run_ambush(bundle.os, plan(profile.threshold_for(DRIVER_VIDEO),
                                   DRIVER_VIDEO), mitigation=True)
        model, buddy = weakref.ref(bundle.os), weakref.ref(bundle.os.buddy)
        del bundle
        assert model() is None
        assert buddy() is None
    finally:
        gc.enable()


def test_placement_leaves_objects_per_block_not_per_mapping():
    # A guarded dell placement maps 15,872 times and leaves 1,835 free
    # blocks.  Measured: 1,026 new tracked objects with mappings as runs
    # (935 of them preload blocks), 51,949 with one Block, Vma and
    # PageTablePage per mapping.  The bound is about twice the free blocks.
    profile = profiles.get_profile("dell")
    threshold = profile.threshold_for(DRIVER_VIDEO)

    def place(seed):
        bundle = build_sim(profile, seed)
        run_ambush(bundle.os, plan(threshold, DRIVER_VIDEO), mitigation=True)
        return bundle

    place(4)  # warm every cache a first placement fills
    gc.collect()
    before = len(gc.get_objects())
    bundle = place(5)
    gc.collect()
    assert bundle.os.pt_pfns()
    assert len(gc.get_objects()) - before < 4000


def test_same_seed_gives_same_csv_across_hash_seeds():
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "hammersim.cli", "run", "--profile", "dell",
             "--trials", "2", "--seed", "5"],
            env=env, capture_output=True, timeout=300, check=True)
        outputs.append(done.stdout)
    assert outputs[0].count(b"\n") == 3  # header and two trials
    assert outputs[0] == outputs[1]


def test_mitigation_removes_adjacency():
    profile = small_profile(thresholds={"video": 26 * MIB, "sg": 36 * MIB})
    aggregate = run_trials(profile, STRATEGY_AMBUSH, 3, 9, mitigation=True, rounds_cap=0)
    assert aggregate.n == 3
    assert aggregate.adjacency_count == 0
    assert aggregate.guard_cost_per_buffer == 2 * 8192
    assert all(t.mitigation for t in aggregate.trials)
    assert all(t.guard_buffers == 32 for t in aggregate.trials)


# --- profiles from INI ---


INI_SMALL = """
[profile]
name = tiny
base = dell

[dram]
dimms = 1
ranks_per_dimm = 1
banks_per_rank = 2
rows_per_bank = 8192
row_size = 8k
dimm_bits =
rank_bits =
bank_bits = 13
row_bits = 14-26

[allocator]
kernel_bytes = 64m
max_order = 10

[workload]
residue_bytes = 2m
bulk_bytes = 8m
reserve_low_bytes = 40m

[vulnerability]
weak_row_rate = 0
cells_per_weak_row = 0

[attack]
threshold_video = 24m
rounds_cap = 0
"""


@pytest.fixture
def ini_path(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(INI_SMALL)
    return str(path)


def test_load_profile_overrides(ini_path):
    profile = load_profile(ini_path)
    assert profile.name == "tiny"
    assert profile.geometry.rows_per_bank == 8192
    assert profile.geometry.banks_per_rank == 2
    assert profile.kernel_bytes == 64 * MIB
    assert profile.reserve_low_bytes == 40 * MIB
    assert profile.vulnerability.weak_row_rate == 0.0
    assert profile.threshold_for("video") == 24 * MIB
    assert profile.rounds_cap == 0
    # Unlisted knobs inherit from the base machine.
    assert profile.threshold_for("sg") == 109 * MIB
    assert profile.sg_opens == 256
    assert profile.channel.p_high_given_conflict == pytest.approx(0.927)


@pytest.mark.parametrize("key", ["row_bits", "row_size", "banks_per_rank"])
def test_cli_rejects_partial_dram_section(tmp_path, capsys, key):
    # A [dram] section replaces the whole geometry, so it cannot omit a
    # geometry key; leaving one out must not end in a traceback.
    path = tmp_path / "partial.ini"
    path.write_text("\n".join(line for line in INI_SMALL.splitlines()
                              if not line.startswith(key + " ")))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--profile", str(path)])
    assert exc.value.code == 2
    assert f"error: [dram] is missing {key}" in capsys.readouterr().err


def test_load_profile_hammer_section(tmp_path):
    path = tmp_path / "hammer.ini"
    path.write_text("[hammer]\ndose = 500000\nsingle_sided_multiplier = 0.25\n")
    profile = load_profile(str(path))
    assert profile.hammer == HammerParams(dose=500_000, single_sided_multiplier=0.25)


@pytest.mark.parametrize("line", ["dose = 0", "dose = many",
                                  "single_sided_multiplier = -0.5",
                                  "single_sided_multiplier = nan"])
def test_cli_rejects_bad_hammer_value(tmp_path, capsys, line):
    path = tmp_path / "hammer.ini"
    path.write_text(f"[hammer]\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--profile", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # A known key with a bad value: the error names the key's value check.
    assert err.startswith("error: [hammer] ") and "unknown key" not in err
    assert line.split(" = ")[0] in err


def test_load_profile_fallbacks(tmp_path):
    path = tmp_path / "bare.ini"
    path.write_text("[profile]\nname = clone\n")
    profile = load_profile(str(path))
    assert profile.name == "clone"
    assert profile.kernel_bytes == 1024 * MIB
    assert profile.geometry.rows_per_bank == 32768
    with pytest.raises(ProfileError):
        load_profile(str(tmp_path / "missing.ini"))


# Profile files the CLI must reject with exit 2 and a one-line error, not
# a traceback or a run on ignored or out-of-range values.
BAD_PROFILES = {
    "max_order": ("[allocator]\nmax_order = -1\n", "error: max_order must be >= 0"),
    # dell holds 2**21 pages, so an order-40 block would need a 2**40-bit mask.
    "huge_max_order": ("[allocator]\nmax_order = 40\n",
                       "error: a max_order 40 block is larger than the DRAM"),
    # Shifting a page by this order would not fit in memory.
    "overflowing_max_order": (f"[allocator]\nmax_order = {10 ** 30}\n",
                              f"error: a max_order {10 ** 30} block is larger than the DRAM"),
    # dell's preload draws pair halves up to order 6 (its 512 KiB target block).
    "max_order_below_pairs": ("[allocator]\nmax_order = 2\n",
                              "error: max_order 2 is below the preload's pair order 6"),
    "repeated_key": ("[hammer]\ndose = 5\ndose = 6\n",
                     "option 'dose' in section 'hammer' already exists"),
    "no_section_header": ("dose = 5\n[hammer]\n",
                          "error: File contains no section headers"),
    "percent": ("[profile]\nname = 100%\n", "error: [profile] '%'"),
    "section_typo": ("[hamer]\ndose = 5\n", "error: unknown section [hamer]"),
    "hammer_key_typo": ("[hammer]\ndoze = 5\n", "error: [hammer] unknown key 'doze'"),
    "double_sided_multiplier": ("[hammer]\ndouble_sided_multiplier = 7.5\n",
                                "error: [hammer] unknown key 'double_sided_multiplier'"),
    "one_location_multiplier": ("[hammer]\none_location_multiplier = 3.0\n",
                                "error: [hammer] unknown key 'one_location_multiplier'"),
    "attack_key_typo": ("[attack]\nthreshold_vidoe = 10m\n",
                        "error: [attack] unknown key 'threshold_vidoe'"),
    "negative_residue": ("[workload]\nresidue_bytes = -2m\n",
                         "error: residue_bytes must be >= 0"),
    "negative_bulk": ("[workload]\nbulk_bytes = -8m\n", "error: bulk_bytes must be >= 0"),
    "negative_fresh": ("[workload]\nfresh_bytes = -4k\n", "error: fresh_bytes must be >= 0"),
    "pair_attempt_cap": ("[attack]\npair_attempt_cap = -1\n",
                         "error: pair_attempt_cap must be >= 1"),
    "conflict_rate": ("[channel]\nconflict_rate = 1.5\n",
                      "error: [channel] p_high_given_conflict"),
    # One above dell's 8 KiB row of 65,536 bits.
    "cells_per_weak_row": ("[vulnerability]\ncells_per_weak_row = 65537\n",
                           "error: cells_per_weak_row must be <= 65536"),
    # 256 TiB: a fresh allocator would list 2**26 max-order blocks.
    "oversized_dram": ("[dram]\ndimms = 2\nranks_per_dimm = 2\nbanks_per_rank = 8\n"
                       "rows_per_bank = 1073741824\nrow_size = 8192\ndimm_bits = 6\n"
                       "rank_bits = 17\nbank_bits = 13;14;15\nrow_bits = 18-47\n",
                       "error: DRAM holds 67108864 max-order blocks, more than 4194304"),
}


@pytest.mark.parametrize("command", ["run", "buddyinfo"])
@pytest.mark.parametrize("text,message", BAD_PROFILES.values(), ids=BAD_PROFILES)
def test_cli_rejects_bad_profile(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([command, "--profile", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["run", "buddyinfo"])
def test_cli_names_the_fresh_pool_whose_pairs_do_not_fit(tmp_path, capsys, command):
    # The residue pairs fit; 200 MiB of fresh ones do not.
    path = tmp_path / "fresh.ini"
    path.write_text("[workload]\nfresh_bytes = 200m\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--profile", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: could not place fresh pair\n"


def test_readme_schema_sample_loads_as_dell(tmp_path):
    # The documented sample lists every key the loader knows, and with
    # dell's name it loads as dell.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("## Profile INI schema", 1)[1]
    sample = schema.split("```ini\n", 1)[1].split("```", 1)[0]
    documented = configparser.ConfigParser()
    documented.read_string(sample)
    assert {name: set(documented[name]) for name in documented.sections()} == {
        name: set(keys) for name, (_, keys) in profiles._SCHEMA.items()}
    path = tmp_path / "readme.ini"
    path.write_text(sample.replace("name = mybox", "name = dell"))
    assert load_profile(str(path)) == profiles.get_profile("dell")


def test_get_profile_builds_only_the_named_profile(monkeypatch):
    built = []
    original = profiles.dell_geometry

    def counting_geometry():
        built.append(1)
        return original()

    monkeypatch.setattr(profiles, "dell_geometry", counting_geometry)
    assert profiles.get_profile("dell").name == "dell"
    assert len(built) == 1


# --- command line ---


def test_cli_profiles_lists_builtins(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    assert "dell:" in out and "lenovo:" in out
    assert "8 GiB" in out


def test_cli_run_emits_csv(ini_path, capsys):
    assert main(["run", "--profile", ini_path, "--trials", "1",
                 "--seed", "3"]) == 0
    rows = parse_report(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0].profile == "tiny"
    assert rows[0].footprint_bytes <= 24 * MIB
    assert rows[0].adjacency


def test_cli_guarded_run_with_fresh_blocks_stays_within_threshold(tmp_path, capsys):
    # The drain maps the fresh blocks' tables before the guarded buffers,
    # which fill whole row-index spans, are allocated; it must leave them
    # their room.
    path = tmp_path / "fresh.ini"
    path.write_text("[workload]\nfresh_bytes = 8m\n")
    assert main(["run", "--profile", str(path), "--trials", "4", "--seed", "2026",
                 "--rounds-cap", "0", "--mitigation"]) == 0
    rows = parse_report(capsys.readouterr().out)
    assert len(rows) == 4
    assert all(row.mitigation and row.guard_buffers for row in rows)
    assert all(0 < row.footprint_bytes <= row.threshold_bytes for row in rows)


# dell's [dram] with the row index in bits 3-17 (below the page bits and
# below the bank, rank and dimm bits) and bank selectors that XOR-fold
# row bits 3-5.
INI_FOLDED_LOW_ROWS = """
[profile]
base = dell

[dram]
dimms = 2
ranks_per_dimm = 2
banks_per_rank = 8
rows_per_bank = 32768
row_size = 8192
dimm_bits = 21
rank_bits = 22
bank_bits = 18,3;19,4;20,5
row_bits = 3-17
"""

# sha256 of the CSV each run printed before the adjacency check read only
# the table pages bordering a buffer row.
FOLDED_LOW_ROWS_DIGESTS = {
    (): "5ce1bf69379a2ee20cf6d6f3bdb24c74684aea755873b75193b6825cdefc3097",
    ("--mitigation",): "05c4bc8b512c15cadc398258663cf135c2be5670ba207f47ea817124018c7890",
}


@pytest.mark.parametrize("flags", sorted(FOLDED_LOW_ROWS_DIGESTS))
def test_cli_run_on_folded_low_row_bits(tmp_path, capsys, flags):
    path = tmp_path / "folded.ini"
    path.write_text(INI_FOLDED_LOW_ROWS)
    assert main(["run", "--profile", str(path), "--trials", "2",
                 "--rounds-cap", "0", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FOLDED_LOW_ROWS_DIGESTS[flags]


def test_cli_run_text_to_file(ini_path, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["run", "--profile", ini_path, "--trials", "1", "--seed", "3",
                 "--format", "text", "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert "adjacency:          1/1" in out_path.read_text()


def test_cli_buddyinfo(ini_path, capsys):
    assert main(["buddyinfo", "--profile", ini_path, "--placement"]) == 0
    out = capsys.readouterr().out
    assert "after preload:" in out
    assert "after placement:" in out
    assert "kernel" in out and "user" in out


def test_cli_rejects_unknown_profile():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--profile", "warehouse"])
    assert exc.value.code == 2


def test_cli_rejects_negative_rounds_cap(ini_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--profile", ini_path, "--rounds-cap", "-3"])
    assert exc.value.code == 2
    assert "error: rounds_cap must be >= 0" in capsys.readouterr().err


AMBUSH_ONLY_FLAGS = {"mitigation": ["--mitigation"], "threshold_bytes": ["--threshold-bytes", "1"],
                     "rounds_cap": ["--rounds-cap", "3"]}
PLACEMENT_ONLY = "error: --driver and --threshold-bytes apply only with --placement\n"
REFUSED_FLAGS = {
    f"{strategy}-{name}": (["run", "--strategy", strategy, *flag],
                           f"error: strategy {strategy!r} takes no mitigation, "
                           "threshold_bytes or rounds_cap (ambush only)\n")
    for strategy in ("feng_shui", "spray") for name, flag in AMBUSH_ONLY_FLAGS.items()
} | {
    "buddyinfo-threshold_bytes": (["buddyinfo", "--threshold-bytes", "1"], PLACEMENT_ONLY),
    "buddyinfo-driver": (["buddyinfo", "--driver", "sg"], PLACEMENT_ONLY),
    "buddyinfo-refused_threshold": (
        ["buddyinfo", "--placement", "--threshold-bytes", "1"],
        "error: threshold leaves no room for the mapping file and buffers\n"),
    # The plan budgets 0 tables at 20 MiB, but 32 video buffers of 600 KiB
    # and the 2 MiB file already pass it.
    "run-buffers_past_threshold": (
        ["run", "--threshold-bytes", str(20 * MIB)],
        "error: buffers and file alone exceed the threshold\n"),
}


@pytest.mark.parametrize("argv,message", REFUSED_FLAGS.values(), ids=REFUSED_FLAGS)
def test_cli_rejects_mitigation_on_a_baseline_strategy(ini_path, capsys, argv, message):
    # A baseline placement has no guard rows, no threshold and no hammer
    # rounds; running it without them and reporting the defaults would
    # pass off a different experiment.  Likewise buddyinfo's driver and
    # threshold shape only its placement snapshot, and a refused placement
    # prints no snapshot before its error.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--profile", ini_path])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", message)


def test_cli_run_counts_the_attempts_of_a_failed_pair_selection(ini_path, capsys):
    # A channel that never reads a conflict times the whole attempt cap in
    # the first round; the report counts every one of those attempts.
    with open(ini_path, "a", encoding="utf-8") as handle:
        handle.write("\n[channel]\nconflict_rate = 0\nother_rate = 1\n")
    assert main(["run", "--profile", ini_path, "--rounds-cap", "3"]) == 0
    (row,) = parse_report(capsys.readouterr().out)
    assert (row.rounds, row.pair_attempts) == (1, 5000)


def test_cli_reports_infeasible_guarded_placement(ini_path, capsys):
    # 256 guarded sg buffers need more pristine blocks than the pool holds;
    # the CLI must surface that as a clean error, not a traceback.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--profile", ini_path, "--driver", "sg",
              "--mitigation", "--threshold-bytes", str(60 * MIB)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_places_sg_when_the_drain_fills_the_plan_budget(capsys):
    # 256 sg buffers of 124 KiB are exactly 31 MiB, so at 43 MiB the table
    # room equals the plan's budget of 2,560 mappings, and dell's small
    # blocks outlast it: the drain alone fills the threshold.
    threshold = 45_088_768
    assert main(["run", "--driver", "sg", "--threshold-bytes", str(threshold),
                 "--rounds-cap", "0"]) == 0
    (row,) = parse_report(capsys.readouterr().out)
    assert (row.footprint_bytes, row.pt_pages) == (threshold, 2560)


# --- no input gives a traceback ---

# One drawn INI file gives all its keys values of one kind: typical, zero,
# negative, huge, wrong-type or garbage.  The values are by parser, with a
# key's own where the parser's would not do.  Huge values are refused or
# cost nothing; values that ask for real work stay out of the draw: round
# caps stay at most 2, pair attempts at 5,000, cells per weak row at dell's
# 96, the max order at least 2 (at 0, dell lists 2**21 free blocks), and a
# [dram] section describes at most dell's 8 GiB.
KINDS = ("typical", "zero", "negative", "huge", "wrong_type", "garbage")
HUGE = str(10 ** 30)
INI_VALUES = {
    int: ("1", "0", "-1", HUGE, "1.5", "x"),
    float: ("0.5", "0", "-0.1", "1e308", "x", "nan"),
    str: ("mybox", "", "-", "x" * 300, "1", "100%"),
    profiles._parse_size: ("2m", "0", "-4k", HUGE + "g", "1.5m", "x"),
    profiles._parse_selectors: ("6", "", "-1", HUGE, "1.5", "13;;14"),
    profiles._parse_bit_range: ("18-32", "0-0", "-1-3", "0-" + HUGE, "5", "x"),
}
KEY_VALUES = {  # kind -> value, where a key departs from its parser's
    "base": {"typical": "lenovo", "garbage": "vax"},
    "kernel_bytes": {"typical": "1g"},
    "max_order": {"typical": "10", "zero": "2"},
    "threshold_video": {"typical": "43m"},
    "threshold_sg": {"typical": "43m"},
    "rounds_cap": {"typical": "2", "huge": "2"},
    "pair_attempt_cap": {"huge": "5000"},
    "threshold_cycles": {"typical": "360"},
    "conflict_rate": {"typical": "0.927"},
    "other_rate": {"typical": "0.974"},
    "cells_per_weak_row": {"typical": "96", "huge": "65537"},
    "dimms": {"typical": "2"},
    "ranks_per_dimm": {"typical": "2"},
    "banks_per_rank": {"typical": "8"},
    "rows_per_bank": {"typical": "32768"},
    "row_size": {"typical": "8192"},
    "rank_bits": {"typical": "17"},
    "bank_bits": {"typical": "13;14;15"},
}
INI_KEYS = [(section, key, parse) for section, (_, keys) in profiles._SCHEMA.items()
            for key, (_, parse) in keys.items()]
THRESHOLDS = [None, -1, 0, 20 * MIB, 43 * MIB, 45_088_768, 88 * MIB, 1 << 30, 1 << 40]


def typical(values):
    """values[0] at least half the time, else any of values."""
    return st.sampled_from(values[:1]) | st.sampled_from(values)


@st.composite
def ini_text(draw):
    """INI text over profiles._SCHEMA: up to four drawn keys outside
    [dram] and, one time in four, a whole [dram] section, all of one drawn
    kind; and always an [attack] rounds_cap of at most 2."""
    kind = draw(st.sampled_from(KINDS))

    def value(key, parse):
        return KEY_VALUES.get(key, {}).get(kind) or INI_VALUES[parse][KINDS.index(kind)]

    keys = [entry for entry in INI_KEYS if entry[0] != "dram"]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 0:
        chosen += [entry for entry in INI_KEYS if entry[0] == "dram"
                   and (entry[1] in profiles._DRAM_KEYS or draw(st.booleans()))]
    sections = {"attack": {"rounds_cap": draw(typical(["2", "0", "1", "-1", "x"]))}}
    for section, key, parse in chosen:
        sections.setdefault(section, {})[key] = value(key, parse)
    return "".join(f"[{name}]\n" + "".join(f"{key} = {text}\n" for key, text in keys.items())
                   for name, keys in sections.items())


def cli_argv():
    """run or buddyinfo argv, at most one trial; the profile goes last."""
    def flag(name, values):
        return typical(values).map(
            lambda value: [] if value is None else [name] if value is True
            else [name, str(value)])

    def command(name, *flags):
        return st.tuples(*flags).map(lambda parts: [name, *chain.from_iterable(parts)])

    common = (flag("--seed", [None, 2026, -1, 10 ** 30]),
              flag("--threshold-bytes", THRESHOLDS), flag("--driver", [None, "video", "sg"]))
    return command("run", *common, flag("--strategy", [None, "spray", "feng_shui"]),
                   flag("--trials", [None, 0, -5]), flag("--mitigation", [None, True]),
                   flag("--rounds-cap", [None, 0, 2, -3]),
                   flag("--format", [None, "text"])) | command(
        "buddyinfo", *common, flag("--placement", [True, None]))


@given(text=ini_text(), argv=cli_argv())
@settings(max_examples=300, deadline=None)
def test_cli_exits_cleanly_on_any_drawn_input(tmp_path_factory, text, argv):
    # Any input ends in exit 0 with nothing on stderr, or in exit 2 with
    # one "error: ..." line; an exception escaping main fails the test.
    path = tmp_path_factory.mktemp("cli") / "drawn.ini"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--profile", str(path)])
    except SystemExit as exc:
        code = exc.code
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (
        code == 2 and len(lines) == 1 and lines[0].startswith("error: ")), (code, lines)
