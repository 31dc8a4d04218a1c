"""hammersim benchmark: host time per trial, per guarded placement and per
verification batch, plus a traced run that splits the time by layer.

Run from the repository root:

    python3 bench/run.py --workload exploit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` runs the workload for ``--seconds`` of host time and reports
the end-to-end metrics, scaled to a reference host speed (see REFERENCE_S).  ``--trace 1`` runs a fixed number of ops twice in
one process, first untraced and then traced, and reports the per-layer
metrics and the tracing overhead; the fixed size makes every count repeat
exactly for a given seed.  Both modes finish with the correctness gate: the
default seed's ops at a fixed size must hash to the digests in
``expected_digests.json``.  The last line of output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

A workload runs in one process and one thread.  ``setup_s`` is timed in
fresh interpreters started one at a time, and ``--workload all`` runs the
workloads one after another, each in its own process, so that each
process's peak RSS belongs to one workload.  See README.md beside this
file for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracer as tracer_mod
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_DIGESTS = BENCH_DIR / "expected_digests.json"

MODULES = ("profiles", "dram_model", "buddy_alloc", "os_model", "ambush",
           "timing_channel", "exploit", "harness")
DEFAULT_SEED = 2026
SETUP_REPEATS = 15
# Ops the gate runs at the default seed, and ops per phase of a traced run.
GATE_OPS = {"exploit": 4, "guarded": 4, "scan": 24}
TRACE_OPS = {"exploit": 12, "guarded": 16, "scan": 48}
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
TRACE_RATES = (
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ratio", "1"),
    ("trace.host_slowdown", "1"),
)
# This host's speed drifts by a third or more within minutes, from load
# outside the benchmark's control, which would swamp any regression bound.
# So a fixed reference task that uses only the standard library runs between
# ops, and end-to-end times are reported in seconds of a host that runs the
# task in REFERENCE_S: each time is divided by (mean task time / REFERENCE_S)
# over the same run.  REFERENCE_S is the task's median on a 2-vCPU Linux VM
# with Python 3.11.  Raw host figures are printed beside the scaled ones.
REFERENCE_S = 0.018
CALIBRATE_EVERY_S = 1.0
NO_WAIT_NOTE = ("wait time: none to report; no layer has a queue or a second "
                "thread, so every span is busy time")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_args(argv):
    names = workloads.WORKLOADS + ("all",)
    parser = _Parser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="one of: " + ", ".join(names))
    parser.add_argument("--seed", type=int, required=True,
                        help="master seed; every input derives from it")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds to measure with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead")
    args = parser.parse_args(argv)
    if args.workload not in names:
        raise UsageError(f"unknown workload {args.workload!r} "
                         f"(choose from {', '.join(names)})")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    if not args.seconds > 0 or math.isinf(args.seconds):
        raise UsageError("--seconds must be a positive number")
    if args.ops is not None and args.ops < 1:
        raise UsageError("--ops must be >= 1")
    return args


# -- setup ----------------------------------------------------------------

def load_package():
    """The package's modules from src/ as one namespace.

    Workloads and the tracer look names up through it, so they see the
    tracer's wrappers while it is installed.
    """
    return SimpleNamespace(**{
        name: importlib.import_module(f"hammersim.{name}") for name in MODULES})


# Runs in a fresh interpreter: imports the package and loads the profile,
# timed from the interpreter's first line so interpreter start-up is left out.
SETUP_PROBE = f"""import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import importlib
for name in {MODULES!r}:
    importlib.import_module("hammersim." + name)
sys.modules["hammersim.profiles"].get_profile({workloads.PROFILE!r})
print(time.perf_counter() - t0)
"""


def measure_setup():
    """Median host seconds of SETUP_REPEATS fresh-interpreter set-ups, one at
    a time, and the host slowdown sampled between them."""
    times = []
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        speed.sample()
        child = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                               stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(child.stdout.split()[-1]))
    speed.sample()
    return statistics.median(times), speed.slowdown()


# -- measurement ----------------------------------------------------------

def reference_task():
    """Host seconds for a fixed stdlib-only task: allocation, hashing, sorting.

    The collector is off while it runs, so the package's live objects do not
    change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        for i in range(30_000):
            table[i * 7919 % 100_003] = bytearray(64)
        total = 0
        for key, value in sorted(table.items()):
            total += key * len(value) % 7
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference-task samples taken through a run; slowdown() is their mean
    over REFERENCE_S, so 1.0 means the reference host speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        # The first run after an op finds caches filled by the package; the
        # second one, which is kept, does not depend on what the op touched.
        t0 = perf_counter()
        reference_task()
        self.samples.append(reference_task())
        self._last = perf_counter()
        self.spent += self._last - t0

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_S


def measure(workload, *, seconds=None, ops=None, tracer=None, speed=None):
    """Run ops until the time or op budget is spent; one op at a time.

    With speed given, reference-task samples run between ops; their time is
    left out of the wall time.
    """
    call = (lambda fn, i: fn(i)) if tracer is None else tracer.run
    op_times, records, problems = [], [], []
    failed = 0
    if speed is not None:
        speed.sample()
    start = perf_counter()
    spent_before = speed.spent if speed is not None else 0.0
    deadline = start + (seconds or 0)
    index = 0
    while (index < ops) if ops is not None else (perf_counter() < deadline):
        try:
            call(workload.prepare, index)
            t0 = perf_counter()
            try:
                records.append(call(workload.run, index))
            finally:
                op_times.append(perf_counter() - t0)
        except workloads.CheckError as exc:
            problems.append(f"op {index}: {exc}")
            records.append(None)
        except Exception:  # an op that raises is a failed op; keep going
            failed += 1
            records.append(None)
            print(f"op {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
        index += 1
        if speed is not None:
            speed.maybe_sample()
    text = call(workload.report, records)
    wall = perf_counter() - start
    if speed is not None:
        wall -= speed.spent - spent_before
        speed.sample()
    return SimpleNamespace(op_times=op_times, records=records, failed=failed,
                           problems=problems, wall=wall, text=text,
                           digest=workloads.digest(text))


def tail(op_times):
    """(percentile, seconds) of the op with exactly TAIL_BEYOND slower ops:
    the highest percentile that still has that many ops beyond it."""
    ordered = sorted(op_times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def gate(hs, name, tracer=None):
    """Problems found by the digest gate at the default seed (empty if none)."""
    expected = json.loads(EXPECTED_DIGESTS.read_text())[name]
    result = measure(workloads.make(name, hs, DEFAULT_SEED),
                     ops=GATE_OPS[name], tracer=tracer)
    problems = list(result.problems)
    if result.failed:
        problems.append(f"{result.failed} gate ops raised")
    if result.digest != expected:
        problems.append(f"digest mismatch at seed {DEFAULT_SEED} x "
                        f"{GATE_OPS[name]} ops: got {result.digest}, "
                        f"expected {expected}")
    verdict = "ok" if not problems else "MISMATCH"
    print(f"gate {name}: seed {DEFAULT_SEED} x {GATE_OPS[name]} ops "
          f"sha256 {result.digest} {verdict}")
    return problems


# -- environment ----------------------------------------------------------

def _git_commit():
    """HEAD of a git checkout at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0")
        tree.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "src_sha256": tree.hexdigest(),
    }


# -- modes ----------------------------------------------------------------

def _print_metric(name, value, unit, detail=""):
    shown = value if isinstance(value, int) else f"{value:.6g}"
    print(f"metric {name} = {shown} {unit}" + (f"  ({detail})" if detail else ""))


def run_end_to_end(name, seed, seconds, ops):
    setup_host_s, setup_slowdown = measure_setup()
    hs = load_package()
    speed = HostSpeed()
    result = measure(workloads.make(name, hs, seed), seconds=seconds, ops=ops,
                     speed=speed)
    slowdown = speed.slowdown()
    problems = result.problems + gate(hs, name)
    n = len(result.op_times)
    attempted = len(result.records)
    level, tail_s = tail(result.op_times)
    beyond = sum(1 for t in result.op_times if t > tail_s)
    host = {
        "ops_per_s": attempted / result.wall,
        "op_s_p50": statistics.median(result.op_times),
        "op_s_tail": tail_s,
        "setup_s": setup_host_s,
    }
    metrics = {
        "ops_per_s": host["ops_per_s"] * slowdown,
        "op_s_p50": host["op_s_p50"] / slowdown,
        "op_s_tail": host["op_s_tail"] / slowdown,
        "setup_s": host["setup_s"] / setup_slowdown,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "ops_per_s": f"{attempted} ops in {result.wall:.3f} host s, closed loop, one client",
        "op_s_tail": f"p{level:.4g} over {n} ops, {beyond} beyond",
        "setup_s": f"median of {SETUP_REPEATS} fresh-interpreter imports plus profile loads",
        "peak_rss_mib": "ru_maxrss of this process, which runs only this workload",
    }
    print(f"digest {name}: seed {seed} x {attempted} ops sha256 {result.digest}")
    print(f"host slowdown: {slowdown:.4f} over the run ({len(speed.samples)} samples), "
          f"{setup_slowdown:.4f} over set-up; reference task {REFERENCE_S} s")
    for metric, unit in END_TO_END:
        detail = details.get(metric, "")
        if metric in host:
            detail = f"host {host[metric]:.6g} {unit}" + (f"; {detail}" if detail else "")
        _print_metric(metric, metrics[metric], unit, detail)
    _print_metric("failed_share", result.failed / attempted, "1",
                  f"{result.failed} of {attempted} ops raised")
    return problems, attempted, result.failed, {
        metric: {"value": metrics[metric], "unit": unit} for metric, unit in END_TO_END}


def run_traced(name, seed, ops):
    hs = load_package()
    size = ops or TRACE_OPS[name]
    plain = measure(workloads.make(name, hs, seed), ops=size)
    speed = HostSpeed()
    with tracer_mod.installed(hs) as tracer:
        traced = measure(workloads.make(name, hs, seed), ops=size, tracer=tracer,
                         speed=speed)
    with tracer_mod.installed(hs) as gate_tracer:
        problems = plain.problems + traced.problems + gate(hs, name, gate_tracer)
    if traced.digest != plain.digest:
        problems.append(f"traced digest {traced.digest} differs from "
                        f"untraced {plain.digest}")
    print(f"digest {name}: seed {seed} x {size} ops sha256 {traced.digest} "
          f"(untraced {plain.digest})")
    values = tracer.metrics()
    untraced_rate = size / plain.wall
    traced_rate = size / traced.wall
    values["trace.ops_per_s_untraced"] = untraced_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_ratio"] = traced_rate / untraced_rate
    values["trace.host_slowdown"] = speed.slowdown()
    units = dict(tracer_mod.PER_LAYER + TRACE_RATES)
    for metric, unit in tracer_mod.PER_LAYER + TRACE_RATES:
        _print_metric(metric, values[metric], unit)
    print(f"tracing overhead: traced/untraced ops_per_s = {traced_rate:.4g}"
          f" / {untraced_rate:.4g} = {traced_rate / untraced_rate:.3f}")
    print("self-time share by layer: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in tracer.layer_shares()))
    print(NO_WAIT_NOTE)
    return problems, len(traced.records), traced.failed, {
        metric: {"value": values[metric], "unit": units[metric]} for metric in units}


def run_all(args):
    """Each workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.ops is not None:
            cmd += ["--ops", str(args.ops)]
        print(f"== {name}", flush=True)
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1]) if child.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            print(f"error: workload {name} exited with status {child.returncode}",
                  file=sys.stderr)
            return 1, None
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    return 0, {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "hammersim" / "__init__.py").is_file():
        print(f"error: no hammersim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment()))
    if args.workload == "all":
        status, summary = run_all(args)
        if summary is not None:
            print(json.dumps(summary))
        return status
    print(f"workload {args.workload}: {workloads.DESCRIPTIONS[args.workload]}")
    if args.trace:
        problems, attempted, failed, metrics = run_traced(
            args.workload, args.seed, args.ops)
    else:
        problems, attempted, failed, metrics = run_end_to_end(
            args.workload, args.seed, args.seconds, args.ops)
    for problem in problems:
        print(f"incorrect: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
