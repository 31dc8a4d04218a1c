"""Time two checkouts' benchmark ops against each other in one process.

    python3 scripts/paired_ops.py CHECKOUT_A CHECKOUT_B --workload scan --ops 240

Each checkout is a directory holding ``src/hammersim`` and
``bench/workloads.py``.  Both packages and both workload modules are loaded
side by side under their own names, and op i of the workload runs on A and
on B in turn, A first on even ops and B first on odd ones, so slow host
phases land on both sides alike.  Each op's report line must be the same
on both sides.  The output is the median per-op time of each side, the
median over ops of the ratio B/A, and the ratio of the summed times B/A
(a few slow ops weigh more in it than in the median).  Ops that escalate
cost far more than the rest and dominate the sum, so ``scan`` also reports
its capture and non-capture batches apart, and ``exploit`` its trials by
outcome status (``none``, ``flippable_only``, ``kernel_privilege``,
``root_privilege``), which shows where a saving lands.

Preparing an op is timed apart from running it.  ``bench/run.py`` leaves a
``scan`` episode build out of the per-op times but counts it in
``ops_per_s``, so ``scan`` reports its builds as a ``prepare`` row, and the
``all`` row's summed ratio counts them with the ops: that ratio is what
``ops_per_s`` follows.  Nothing under either checkout is written.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import pkgutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

DEFAULT_SEED = 2026


def load_side(checkout: Path, tag: str):
    """(package namespace, workloads module) of one checkout, loaded under
    names ending in tag so that two checkouts can share a process."""
    src = checkout / "src" / "hammersim"
    bench = checkout / "bench" / "workloads.py"
    if not (src / "__init__.py").is_file() or not bench.is_file():
        raise FileNotFoundError(f"{checkout} has no src/hammersim or bench/workloads.py")
    package = f"hammersim_{tag}"
    spec = importlib.util.spec_from_file_location(
        package, src / "__init__.py", submodule_search_locations=[str(src)])
    _exec(spec)
    names = [info.name for info in pkgutil.iter_modules([str(src)])]
    hs = SimpleNamespace(**{
        name: importlib.import_module(f"{package}.{name}") for name in names})
    workloads = _exec(importlib.util.spec_from_file_location(f"workloads_{tag}", bench))
    return hs, workloads


def _exec(spec):
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _timed(workload, index: int):
    """(prepare seconds, run seconds, record) of op index."""
    t0 = perf_counter()
    workload.prepare(index)
    t1 = perf_counter()
    record = workload.run(index)
    return t1 - t0, perf_counter() - t1, record


# Groups a row can report in beside "all", in print order: scan batches by
# capture, exploit trials by outcome status.  "prepare" rows are episode
# builds, not ops.
GROUP_ORDER = ("non-capture", "capture", "none", "flippable_only", "kernel_privilege",
               "root_privilege", "prepare")


def _group(name: str, record) -> str | None:
    """A scan batch's group by capture, an exploit trial's by outcome."""
    if name == "scan":
        return "non-capture" if record["found"] is None else "capture"
    if name == "exploit":
        return record.outcome
    return None


def run_pairs(sides, name: str, seed: int, ops: int):
    """Rows of (A seconds, B seconds, label): one per op, labelled with its
    group or None, after a "prepare" row when the op's preparation builds
    a scan episode.  Raises AssertionError on the first op whose report
    differs."""
    work = [workloads.make(name, hs, seed) for hs, workloads in sides]
    rows = []
    for index in range(ops):
        builds = name == "scan" and work[0].episode is None
        order = (0, 1) if index % 2 == 0 else (1, 0)
        results = [None, None]
        for side in order:
            results[side] = _timed(work[side], index)
        (prep_a, time_a, record_a), (prep_b, time_b, record_b) = results
        text_a, text_b = (w.report([r]) for w, r in zip(work, (record_a, record_b)))
        if text_a != text_b:
            raise AssertionError(f"op {index} differs:\nA: {text_a}\nB: {text_b}")
        if builds:
            rows.append((prep_a, prep_b, "prepare"))
        rows.append((time_a, time_b, _group(name, record_a)))
    return rows


def summary(rows) -> list[str]:
    """The table: "all" gives the medians of the ops and the summed ratio
    of every row, episode builds included; each group its own rows."""
    groups = {"all": [r for r in rows if r[2] != "prepare"]}
    for label in GROUP_ORDER:
        groups[label] = [r for r in rows if r[2] == label]
    lines = [f"{'ops':>20} {'A p50 ms':>9} {'B p50 ms':>9} {'B/A p50':>8} {'B/A sum':>8}"]
    for label, group in groups.items():
        if not group:
            continue
        a = statistics.median(r[0] for r in group) * 1e3
        b = statistics.median(r[1] for r in group) * 1e3
        ratio = statistics.median(r[1] / r[0] for r in group)
        summed = rows if label == "all" else group
        total = sum(r[1] for r in summed) / sum(r[0] for r in summed)
        lines.append(f"{label:<16}{len(group):>4} {a:9.3f} {b:9.3f} {ratio:8.3f} {total:8.3f}")
    return lines


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--workload", required=True, choices=("exploit", "guarded", "scan"))
    parser.add_argument("--ops", type=int, default=20)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be positive")
    try:
        sides = [load_side(args.checkout_a.resolve(), "a"),
                 load_side(args.checkout_b.resolve(), "b")]
    except FileNotFoundError as exc:
        parser.error(str(exc))
    rows = run_pairs(sides, args.workload, args.seed, args.ops)
    print(f"{args.workload}: seed {args.seed}, {args.ops} ops per side, reports equal")
    print("A:", args.checkout_a)
    print("B:", args.checkout_b)
    print("\n".join(summary(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
