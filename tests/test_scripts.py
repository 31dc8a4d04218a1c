"""Smoke tests for the tools under scripts/."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def paired_ops(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paired_ops.py"), str(ROOT), str(ROOT), *args],
        capture_output=True, text=True, timeout=300, check=True)
    return done.stdout.splitlines()


def test_paired_ops_runs_a_checkout_against_itself():
    lines = paired_ops("--workload", "guarded", "--ops", "2")
    assert lines[0] == "guarded: seed 2026, 2 ops per side, reports equal"
    assert lines[-2].split()[-2:] == ["B/A", "sum"]
    label, ops, a_ms, b_ms, ratio, total = lines[-1].split()
    assert (label, ops) == ("all", "2")
    assert float(a_ms) > 0 and float(b_ms) > 0 and float(ratio) > 0 and float(total) > 0


def load_script():
    spec = importlib.util.spec_from_file_location("paired_ops", ROOT / "scripts" / "paired_ops.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_paired_ops_times_scan_episode_builds_as_their_own_row():
    # Op 0 opens the first episode: one build, timed on both sides.
    lines = paired_ops("--workload", "scan", "--ops", "2")
    assert lines[0] == "scan: seed 2026, 2 ops per side, reports equal"
    table = [line.split() for line in lines[-3:]]
    assert [row[:2] for row in table] == [["all", "2"], ["non-capture", "2"], ["prepare", "1"]]
    assert all(float(value) > 0 for row in table for value in row[2:])

    # The all row's medians are over ops, its summed ratio over builds too.
    rows = [(2.0, 1.0, "prepare"), (1.0, 1.0, "non-capture"), (1.0, 1.0, "non-capture")]
    table = [line.split() for line in load_script().summary(rows)[1:]]
    assert [(row[0], row[1], row[2], row[4], row[5]) for row in table] == [
        ("all", "2", "1000.000", "1.000", "0.750"),
        ("non-capture", "2", "1000.000", "1.000", "1.000"),
        ("prepare", "1", "2000.000", "0.500", "0.500")]


def test_paired_ops_splits_exploit_trials_by_outcome():
    # Three exploit trials of seed 2026: trials 0 and 1 land no table flip,
    # trial 2 lands some; a row for each status beside "all", and no empty
    # rows.
    lines = paired_ops("--workload", "exploit", "--ops", "3")
    assert lines[0] == "exploit: seed 2026, 3 ops per side, reports equal"
    assert [line.split()[:2] for line in lines[-3:]] == [
        ["all", "3"], ["none", "2"], ["flippable_only", "1"]]

    rows = [(1.0, 0.5, "flippable_only"), (1.0, 0.5, "none"), (4.0, 4.0, "root_privilege"),
            (1.0, 0.5, "flippable_only")]
    table = [line.split() for line in load_script().summary(rows)[1:]]
    assert [(row[0], row[1], row[4], row[5]) for row in table] == [
        ("all", "4", "0.500", "0.786"), ("none", "1", "0.500", "0.500"),
        ("flippable_only", "2", "0.500", "0.500"), ("root_privilege", "1", "1.000", "1.000")]
