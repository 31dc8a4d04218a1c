"""Golden digests: byte-identical CSV reports for fixed seeds.

The benchmark's digest gate pins the same reports in
bench/expected_digests.json (read here, never written), so a refactor
that changes any report byte fails Tier-1 without running the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from hammersim.ambush import DRIVER_VIDEO
from hammersim.harness import STRATEGY_AMBUSH, emit_report, run_trials
from hammersim.profiles import get_profile

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "expected_digests.json"


@pytest.mark.parametrize("workload, overrides", [
    ("exploit", {}),
    ("guarded", {"mitigation": True, "rounds_cap": 0}),
])
def test_report_digest(workload, overrides):
    expected = json.loads(DIGESTS.read_text())[workload]
    aggregate = run_trials(get_profile("dell"), STRATEGY_AMBUSH, 4, 2026,
                           driver=DRIVER_VIDEO, **overrides)
    text = emit_report(aggregate, "csv")
    assert hashlib.sha256(text.encode()).hexdigest() == expected
