"""Smoke tests for the tools under scripts/."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_paired_ops_runs_a_checkout_against_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paired_ops.py"), str(ROOT), str(ROOT),
         "--workload", "guarded", "--ops", "2"],
        capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "guarded: seed 2026, 2 ops per side, reports equal"
    assert lines[-2].split()[-2:] == ["B/A", "sum"]
    label, ops, a_ms, b_ms, ratio, total = lines[-1].split()
    assert (label, ops) == ("all", "2")
    assert float(a_ms) > 0 and float(b_ms) > 0 and float(ratio) > 0 and float(total) > 0
