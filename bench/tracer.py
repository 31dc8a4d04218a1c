"""Per-layer spans and counters, recorded from outside the package.

Each wrapper replaces a name where its caller looks it up: a module global
(``hammersim.exploit.verify_and_take_pt`` is called by ``hammer_loop``
through the ``exploit`` module's globals) or a class attribute
(``OsModel.translate``).  A span's self time is its duration minus the time
its child spans cover.  Counters sit at the same boundaries, so ratios are
measured where the work happens.  Nothing under ``src/`` is edited, and
``uninstall`` puts every original name back.

No layer has a queue or a second thread, so there is no wait time to
record: every span is busy time.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "unattributed"

# (metric name, unit) in report order.  "count" metrics are exact
# simulated or call counts and must repeat for the same seed and size.
PER_LAYER = (
    ("harness.build_sim_s", "s"),
    ("harness.emit_report_s", "s"),
    ("buddy_alloc.preload_s", "s"),
    ("buddy_alloc.ops", "count"),
    ("buddy_alloc.ops_per_s", "1/s"),
    ("os_model.mmap_s", "s"),
    ("os_model.mmaps", "count"),
    ("os_model.pt_pages", "count"),
    ("os_model.translate_s", "s"),
    ("os_model.translates", "count"),
    ("os_model.tlb_flushes", "count"),
    ("ambush.drain_s", "s"),
    ("ambush.interleave_s", "s"),
    ("ambush.adjacency_s", "s"),
    ("ambush.pt_pages_drained", "count"),
    ("dram_model.page_row_keys_s", "s"),
    ("dram_model.page_row_keys_calls", "count"),
    ("dram_model.map_s", "s"),
    ("dram_model.map_calls", "count"),
    ("dram_model.hammer_s", "s"),
    ("dram_model.flips_drawn", "count"),
    ("dram_model.activations", "count"),
    ("timing_channel.select_s", "s"),
    ("timing_channel.pair_attempts", "count"),
    ("timing_channel.pairs_per_attempt", "1"),
    ("exploit.verify_s", "s"),
    ("exploit.verify_calls", "count"),
    ("exploit.probe_writes", "count"),
    ("exploit.flips_applied_per_drawn", "1"),
    ("exploit.captures", "count"),
    ("exploit.escalate_s", "s"),
    ("exploit.escalate_frames", "count"),
    ("trace.unattributed_s", "s"),
)

BUDDY_OPS = ("allocate", "allocate_pages", "allocate_at",
             "allocate_isolated_buffer", "free")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span stack plus per-name self time, call counts and counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span name, seconds covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap fn so every call records a span called name."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt

        return traced

    def run(self, fn, *args):
        """Call fn inside the root span; its self time is unattributed."""
        return self.span(ROOT, fn)(*args)

    def _innermost(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, hs) -> None:
        """Patch the package modules in namespace hs (see run.load_package)."""
        counts = self.counts
        OsModel = hs.os_model.OsModel
        Dram = hs.dram_model.Dram
        BuddyState = hs.buddy_alloc.BuddyState
        PairSelectionError = hs.timing_channel.PairSelectionError

        self._patch(hs.harness, "build_sim",
                    self.span("harness.build_sim", hs.harness.build_sim))
        self._patch(hs.harness, "emit_report",
                    self.span("harness.emit_report", hs.harness.emit_report))
        self._patch(hs.harness, "preload_workload",
                    self.span("buddy_alloc.preload", hs.harness.preload_workload))
        for method in BUDDY_OPS:
            self._patch(BuddyState, method,
                        self.span("buddy_alloc.op", getattr(BuddyState, method)))

        mmap = self.span("os_model.mmap", OsModel.mmap_primitive)

        def mmap_primitive(os_self, *args, **kwargs):
            new_pts = mmap(os_self, *args, **kwargs)
            counts["pt_pages"] += len(new_pts)
            return new_pts

        self._patch(OsModel, "mmap_primitive", mmap_primitive)
        self._patch(OsModel, "translate",
                    self.span("os_model.translate", OsModel.translate))
        flush_tlb = OsModel.flush_tlb

        def flush(os_self):
            before = os_self.tlb.flush_count
            flush_tlb(os_self)
            counts["tlb_flushes"] += os_self.tlb.flush_count - before

        self._patch(OsModel, "flush_tlb", flush)
        write_u64_virtual = OsModel.write_u64_virtual

        def probe_write(os_self, vaddr, value):
            innermost = self._innermost()
            if innermost == "exploit.verify":
                counts["probe_writes"] += 1
            elif innermost == "exploit.escalate":
                counts["escalate_frames"] += 1
            return write_u64_virtual(os_self, vaddr, value)

        self._patch(OsModel, "write_u64_virtual", probe_write)
        apply_flips = OsModel.apply_flips

        def applied(os_self, flips):
            out = apply_flips(os_self, flips)
            counts["flips_applied"] += len(out)
            return out

        self._patch(OsModel, "apply_flips", applied)

        drain_span = self.span("ambush.drain", hs.ambush.drain_small_blocks)

        def drain(*args, **kwargs):
            drained, injected = drain_span(*args, **kwargs)
            counts["pt_pages_drained"] += drained
            return drained, injected

        self._patch(hs.ambush, "drain_small_blocks", drain)
        self._patch(hs.ambush, "place_interleaved",
                    self.span("ambush.interleave", hs.ambush.place_interleaved))
        self._patch(hs.harness, "verify_adjacency",
                    self.span("ambush.adjacency", hs.harness.verify_adjacency))
        self._patch(hs.ambush, "page_row_keys",
                    self.span("dram_model.page_row_keys", hs.ambush.page_row_keys))
        map_span = self.span("dram_model.map", hs.dram_model.map_phys_to_dram)
        self._patch(hs.dram_model, "map_phys_to_dram", map_span)
        self._patch(hs.timing_channel, "map_phys_to_dram", map_span)
        hammer_span = self.span("dram_model.hammer", Dram.hammer)

        def hammer(dram, *args, **kwargs):
            before = dram.total_activations
            flips = hammer_span(dram, *args, **kwargs)
            counts["activations"] += dram.total_activations - before
            counts["flips_drawn"] += len(flips)
            return flips

        self._patch(Dram, "hammer", hammer)
        select_span = self.span("timing_channel.select",
                                hs.exploit.select_hammer_pair)
        default_attempts = hs.exploit.select_hammer_pair.__kwdefaults__["max_attempts"]

        def select(*args, max_attempts=default_attempts, **kwargs):
            try:
                result = select_span(*args, max_attempts=max_attempts, **kwargs)
            except PairSelectionError:
                counts["pair_attempts"] += max_attempts
                raise
            counts["pair_attempts"] += result[1]
            counts["pairs_found"] += 1
            return result

        self._patch(hs.exploit, "select_hammer_pair", select)
        verify_span = self.span("exploit.verify", hs.exploit.verify_and_take_pt)

        def verify(os_model):
            found = verify_span(os_model)
            counts["captures"] += found is not None
            return found

        self._patch(hs.exploit, "verify_and_take_pt", verify)
        self._patch(hs.exploit, "escalate_root",
                    self.span("exploit.escalate", hs.exploit.escalate_root))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric, zero where the layer did no work."""
        s, calls, counts = self.self_s, self.calls, self.counts
        buddy_ops = calls["buddy_alloc.op"]
        values = {
            "harness.build_sim_s": s["harness.build_sim"],
            "harness.emit_report_s": s["harness.emit_report"],
            "buddy_alloc.preload_s": s["buddy_alloc.preload"],
            "buddy_alloc.ops": buddy_ops,
            "buddy_alloc.ops_per_s": _ratio(buddy_ops, s["buddy_alloc.op"]),
            "os_model.mmap_s": s["os_model.mmap"],
            "os_model.mmaps": calls["os_model.mmap"],
            "os_model.pt_pages": counts["pt_pages"],
            "os_model.translate_s": s["os_model.translate"],
            "os_model.translates": calls["os_model.translate"],
            "os_model.tlb_flushes": counts["tlb_flushes"],
            "ambush.drain_s": s["ambush.drain"],
            "ambush.interleave_s": s["ambush.interleave"],
            "ambush.adjacency_s": s["ambush.adjacency"],
            "ambush.pt_pages_drained": counts["pt_pages_drained"],
            "dram_model.page_row_keys_s": s["dram_model.page_row_keys"],
            "dram_model.page_row_keys_calls": calls["dram_model.page_row_keys"],
            "dram_model.map_s": s["dram_model.map"],
            "dram_model.map_calls": calls["dram_model.map"],
            "dram_model.hammer_s": s["dram_model.hammer"],
            "dram_model.flips_drawn": counts["flips_drawn"],
            "dram_model.activations": counts["activations"],
            "timing_channel.select_s": s["timing_channel.select"],
            "timing_channel.pair_attempts": counts["pair_attempts"],
            "timing_channel.pairs_per_attempt": _ratio(
                counts["pairs_found"], counts["pair_attempts"]),
            "exploit.verify_s": s["exploit.verify"],
            "exploit.verify_calls": calls["exploit.verify"],
            "exploit.probe_writes": counts["probe_writes"],
            "exploit.flips_applied_per_drawn": _ratio(
                counts["flips_applied"], counts["flips_drawn"]),
            "exploit.captures": counts["captures"],
            "exploit.escalate_s": s["exploit.escalate"],
            "exploit.escalate_frames": counts["escalate_frames"],
            "trace.unattributed_s": s[ROOT],
        }
        assert list(values) == [name for name, _ in PER_LAYER]
        return values

    def layer_shares(self) -> list[tuple[str, float]]:
        """Self time per layer (span-name prefix), largest first."""
        by_layer: defaultdict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            by_layer[name.split(".")[0]] += seconds
        total = sum(by_layer.values())
        return sorted(((layer, _ratio(sec, total)) for layer, sec in by_layer.items()),
                      key=lambda item: -item[1])


@contextlib.contextmanager
def installed(hs):
    """A fresh Tracer patched into hs for the duration of the block."""
    tracer = Tracer()
    tracer.install(hs)
    try:
        yield tracer
    finally:
        tracer.uninstall()
