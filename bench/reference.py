"""Regenerate the reference figures of bench/README.md.

    python3 bench/reference.py

Runs every workload once per seed of each of SETS with --trace 0, for the
run_seconds of BENCHMARK.json, then once with --trace 1 on the first seed,
and prints markdown tables: per set, the median of each end-to-end metric
with the spread (interquartile range over median) of its runs; the change
of each median from the first set to the second; and the traced run's
per-layer metrics.  About 45 minutes.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys

import mpmath
import numpy as np

import run
import spans
import workloads


def _once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Two sets of ten seeds: the spread within a set and the change of the
# medians between the sets are what the bounds of BENCHMARK.json must hold.
SETS = (range(11, 21), range(21, 31))


def main():
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = sorted(workloads.WORKLOADS)

    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"mpmath {mpmath.__version__}, {run.CORES} cores, {platform.machine()}, "
          f"seeds {', '.join(f'{s.start}–{s.stop - 1}' for s in SETS)}, "
          f"--seconds {seconds}\n")
    print("Each cell: median of the set's runs (interquartile range / median); "
          "the last column is the change of the median from the first set.\n")
    print("| workload | metric | failed share | "
          + " | ".join(f"seeds {s.start}–{s.stop - 1}" for s in SETS) + " | change |")
    print("| --- | --- | --- |" + " ---: |" * (len(SETS) + 1))
    for workload in names:
        results = [[_once(workload, seed, seconds, 0) for seed in s] for s in SETS]
        shares = {f"{r['failed']}/{r['attempted']}" for rs in results for r in rs}
        for metric, unit, _ in run.END_TO_END:
            cells, medians = [], []
            for rs in results:
                values = [r["metrics"][metric]["value"] for r in rs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                cells.append(f"{med:.4g} ({(q3 - q1) / med:.3f})")
            print(f"| `{workload}` | `{metric}` ({unit}) | {', '.join(sorted(shares))} | "
                  + " | ".join(cells) + f" | {medians[-1] / medians[0] - 1:+.3f} |")

    first = SETS[0].start
    traced = {w: _once(w, first, seconds, 1)["metrics"] for w in names}
    print("\n| metric | unit | " + " | ".join(f"`{w}`" for w in names) + " |")
    print("| --- | --- |" + " ---: |" * len(names))
    rows = [(m, u) for m, u, _, _ in spans.PER_LAYER] + [(m, u) for m, u, _ in spans.RUN_LEVEL]
    for metric, unit in rows:
        cells = [traced[w][metric]["value"] for w in names]
        fmt = "{:.0f}" if unit in ("count", "bytes") else "{:.4f}"
        print(f"| `{metric}` | {unit} | " + " | ".join(fmt.format(v) for v in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
