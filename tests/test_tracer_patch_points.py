"""The benchmark tracer can still patch every package name it wraps.

bench/tracer.py replaces package functions and methods by name, so renaming
or deleting one of them breaks the traced benchmark run.  This installs the
tracer on the package the way bench/run.py loads it, then uninstalls it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("profiles", "dram_model", "buddy_alloc", "os_model", "ambush",
           "timing_channel", "exploit", "harness")


def test_tracer_installs_and_restores_every_patch():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hs = SimpleNamespace(**{
        name: importlib.import_module(f"hammersim.{name}") for name in MODULES})

    t = tracer.Tracer()
    try:
        t.install(hs)
        patches = list(t._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        t.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
    patched = {(owner.__name__, attr) for owner, attr, _ in patches}
    assert {("hammersim.ambush", "page_row_keys"),
            ("hammersim.timing_channel", "map_phys_to_dram")} <= patched
