"""Golden digests: byte-identical reports for fixed seeds.

The benchmark's digest gate pins the same reports in
bench/expected_digests.json (read here, never written), so a refactor
that changes any report byte fails Tier-1 without running the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from hammersim import cli
from hammersim.ambush import DRIVER_SG, DRIVER_VIDEO
from hammersim.harness import STRATEGY_AMBUSH, emit_report, run_trials
from hammersim.profiles import get_profile

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = BENCH / "expected_digests.json"


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


# sha256 of 4-trial lenovo CSV reports at seed 2026, pinned from the
# reports these runs printed before the adjacency check read only the
# bordering table pages; the benchmark pins dell alone.
LENOVO_DIGESTS = {
    (DRIVER_SG, False): "9838bfede60440e51e9f650e574cc364354f1394c9083de9d889c006b8b45be2",
    (DRIVER_VIDEO, True): "d33ef4854a21c7816616c6c3ba8e8fed3e317a6447a13c0547600ecd1456cbe9",
}


@pytest.mark.parametrize("driver, mitigation", sorted(LENOVO_DIGESTS))
def test_lenovo_report_digest(driver, mitigation):
    aggregate = run_trials(get_profile("lenovo"), STRATEGY_AMBUSH, 4, 2026,
                           driver=driver, mitigation=mitigation, rounds_cap=0)
    text = emit_report(aggregate, "csv")
    assert (hashlib.sha256(text.encode()).hexdigest()
            == LENOVO_DIGESTS[driver, mitigation])


# sha256 of the output of each command on a dell profile with 8 MiB of
# fresh blocks: the builtin profiles have none, so no other digest frees
# and drains fresh blocks.
FRESH_DIGESTS = {
    ("run", "--trials", "4", "--seed", "2026", "--rounds-cap", "3"):
        "fb39e48c3c75358a519bb41e1b424c1d727d85bc7c1d361ae038e3d008d4cce7",
    ("buddyinfo", "--placement"):
        "cb860091b1f46fdf4d607675a2dca92cc5bdffc97368d6865f8b53e34dbeeab0",
}


@pytest.mark.parametrize("args", sorted(FRESH_DIGESTS))
def test_fresh_blocks_digest(args, tmp_path, capsys):
    ini = tmp_path / "fresh.ini"
    ini.write_text("[workload]\nfresh_bytes = 8m\n")
    assert cli.main([args[0], "--profile", str(ini), *args[1:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FRESH_DIGESTS[args]


def test_scan_digest():
    # The benchmark's own scan workload at its gate size: 24 ops, seed 2026.
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    hs = SimpleNamespace(**{
        name: importlib.import_module(f"hammersim.{name}")
        for name in ("profiles", "dram_model", "os_model", "ambush",
                     "exploit", "harness")})
    scan = workloads.ScanWorkload(hs, 2026)
    records = []
    for index in range(24):
        scan.prepare(index)
        records.append(scan.run(index))
    expected = json.loads(DIGESTS.read_text())["scan"]
    assert workloads.digest(scan.report(records)) == expected
