"""Cross-process reproducibility check for the benchmark.

Runs every workload at a tiny size twice, each time in a fresh process and
with tracing on, one process at a time.  The two runs of a workload must
print byte-identical digests (the run's own ops, its untraced twin and the
default-seed gate) and identical exact counts.

    python3 bench/selftest.py

Exit status 0 when every workload agrees with itself, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7
TINY_OPS = {"exploit": 2, "guarded": 2, "scan": 6}
EXACT_UNITS = ("count", "1")


def run_once(name: str):
    """(digest lines, exact counts, correct) of one child process."""
    cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(SEED),
           "--trace", "1", "--ops", str(TINY_OPS[name])]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: run.py exited with status {child.returncode}")
    digests = [line for line in lines if line.startswith(("digest ", "gate "))]
    result = json.loads(lines[-1])
    counts = {
        metric: entry["value"]
        for metric, entry in result["metrics"].items()
        if entry["unit"] in EXACT_UNITS and not metric.startswith("trace.")
    }
    return digests, counts, result["correct"]


def main() -> int:
    ok = True
    for name in TINY_OPS:
        first, second = run_once(name), run_once(name)
        same = first == second and first[2]
        ok &= same
        print(f"{name}: {'identical' if same else 'DIFFERENT'} across two processes "
              f"({len(first[0])} digests, {len(first[1])} exact counts, "
              f"correct={first[2]}/{second[2]})")
        if not same:
            for a, b in zip(first[0], second[0]):
                if a != b:
                    print(f"  {a}\n  {b}")
            for metric in first[1]:
                if first[1][metric] != second[1].get(metric):
                    print(f"  {metric}: {first[1][metric]} vs {second[1].get(metric)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
