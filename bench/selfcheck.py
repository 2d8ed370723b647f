"""Check that BENCHMARK.json and what the benchmark prints agree.

    python3 bench/selfcheck.py

Runs every workload briefly with --trace 0 and --trace 1 and checks that
each printed metric appears in BENCHMARK.json under the same unit, that
every metric and workload of BENCHMARK.json is printed, and that the
directions in BENCHMARK.json match the tables in run.py and spans.py.
Then runs the benchmark in a directory that holds only BENCHMARK.json and
bench/, where it must fail without printing a result.  Exits 1 on any
mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd, workload, trace):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(workloads.WORKLOADS):
        problems.append(f"workloads: BENCHMARK.json {sorted(declared)} vs "
                        f"run.py {sorted(workloads.WORKLOADS)}")
    tables = {0: {n: (u, b) for n, u, b in run.END_TO_END},
              1: {n: (u, b) for n, u, b, _ in spans.PER_LAYER}}
    tables[1].update({n: (u, b) for n, u, b in spans.RUN_LEVEL})
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        in_json = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if in_json != tables[trace]:
            diff = set(in_json.items()) ^ set(tables[trace].items())
            problems.append(f"{key}: BENCHMARK.json and the code differ on {sorted(diff)}")
        for workload in sorted(declared & set(workloads.WORKLOADS)):
            proc = _run(ROOT, workload, trace)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{workload} --trace {trace}: no result line "
                                f"(exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} --trace {trace}: keys {sorted(result)}")
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            expected = {n: u for n, (u, _) in in_json.items()}
            if printed != expected:
                diff = set(printed.items()) ^ set(expected.items())
                problems.append(f"{workload} --trace {trace}: printed and declared "
                                f"metrics differ on {sorted(diff)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} --trace {trace}: correct={result['correct']}, "
                                f"attempted={result['attempted']}")
            print(f"{workload} --trace {trace}: {len(printed)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")

    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, sorted(declared)[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"without src/: exit {proc.returncode}, nothing printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for line in problems:
        print(f"MISMATCH {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
