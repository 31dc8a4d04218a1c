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


def test_paired_ops_splits_exploit_trials_by_outcome():
    # Two exploit trials of seed 2026, neither reaching root: an "other"
    # row beside "all", and no empty "root" row.
    lines = paired_ops("--workload", "exploit", "--ops", "2")
    assert lines[0] == "exploit: seed 2026, 2 ops per side, reports equal"
    assert [line.split()[:2] for line in lines[-2:]] == [["all", "2"], ["other", "2"]]

    spec = importlib.util.spec_from_file_location("paired_ops", ROOT / "scripts" / "paired_ops.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = [(1.0, 0.5, "other"), (1.0, 0.5, "other"), (4.0, 4.0, "root")]
    table = [line.split() for line in script.summary(rows)[1:]]
    assert [(row[0], row[1], row[4], row[5]) for row in table] == [
        ("all", "3", "0.500", "0.833"), ("other", "2", "0.500", "0.500"),
        ("root", "1", "1.000", "1.000")]
