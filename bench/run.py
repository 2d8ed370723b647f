"""Benchmark of gausspurity: one workload, one closed-loop client, one JSON line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its src/
directory.  The workload is built from --seed, then whole rounds of its
operations run until --seconds would be exceeded.  Every output is
checked (workloads.py, checks.py); an operation that raises or fails a
check counts as failed and the run goes on.  The last line of standard
output is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
CORES = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SPAWNS = 5          # fresh interpreters timed per run for setup_s
IMPORT_SPAWNS = 5         # fresh `import gausspurity` timed for cli.spawn_import_s
MIN_PAIRS = 2             # untraced/traced round pairs of a traced run, at least

# (metric, unit, better); all four are reported on every workload.
END_TO_END = (("setup_s", "s", "lower"), ("wall_s", "s", "lower"),
              ("op_p50_s", "s", "lower"), ("peak_rss_mib", "MiB", "lower"))


def _env():
    """Environment of the program's children: the checkout's src/, thread caps."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
                **{var: str(CORES) for var in THREAD_VARS})


def _spawn_seconds(code, cwd, env, times):
    """Median wall time of `python -c code` in a fresh interpreter."""
    took = []
    for _ in range(times):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        took.append(time.perf_counter() - t)
    return statistics.median(took)


def _run_round(ops, tracer=None):
    """Run every op once; return (op seconds, op failed, failure messages).

    Operations of a known fault run untraced, so that their spans do not
    enter the per-layer figures.
    """
    seconds, failed, messages = [], [], []
    for op in ops:
        t = time.perf_counter()
        try:
            res = op.run() if tracer is None else tracer.run_op(op.run, op.fault is None)
            err = []
        except Exception as exc:          # a failed operation; the run goes on
            res, err = None, [f"{op.name}: {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t
        if not err:
            try:
                err = op.check(res)
            except Exception as exc:      # malformed output is a failed check
                err = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        seconds.append(dt)
        failed.append(bool(err))
        messages.append(err)
    return seconds, failed, messages


def _rounds(ops, budget, tracer=None):
    """Whole rounds until the next one would end past `budget` seconds."""
    out = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_round()
        rec = _run_round(ops, tracer)
        layer = tracer.end_round() if tracer is not None else None
        out.append((rec, layer))
        now = time.perf_counter()
        if now - t0 + (now - r0) > budget:
            return out


def _tally(ops, rounds):
    attempted = failed = 0
    unexpected, known = [], set()
    for (_, fails, messages), _ in rounds:
        for op, f, msg in zip(ops, fails, messages):
            attempted += 1
            failed += f
            if f and op.fault is None:
                unexpected += msg
            elif f:
                known.add(f"known fault ({op.fault}) {msg[0]}")
    for line in sorted(known):
        print(line, file=sys.stderr)
    for line in unexpected[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("round seconds: " + " ".join(f"{_round_wall(ops, rec):.3f}" for rec in rounds),
          file=sys.stderr)
    return attempted, failed, not unexpected


def _timed(ops, seconds):
    """The op times that the time metrics cover: those of no known fault.

    Fault ops are attempted and counted but not timed, so that fixing a
    fault does not change which operations the times cover.
    """
    return [dt for op, dt in zip(ops, seconds) if op.fault is None]


def _round_wall(ops, rec):
    return sum(_timed(ops, rec[0][0]))


def _wall(ops, rounds):
    return statistics.median(_round_wall(ops, rec) for rec in rounds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The caps must be in place before numpy is first imported.
    os.environ.update({var: str(CORES) for var in THREAD_VARS})
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if not (SRC / "gausspurity" / "__init__.py").is_file():
        print(f"error: no gausspurity sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gausspurity
    import gausspurity.cli  # noqa: F401  (the package does not import cli)
    if Path(gausspurity.__file__).resolve().parent != SRC / "gausspurity":
        print(f"error: imported {gausspurity.__file__}, not the checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        return _measure(args, gausspurity, work, _env())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, gp, work, env):
    import spans
    import workloads

    warmup = "import gausspurity\n" + workloads.WARMUP[args.workload]
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = _spawn_seconds(warmup, work, env, SETUP_SPAWNS)
    else:
        metrics["cli.spawn_import_s"] = _spawn_seconds("import gausspurity", work, env,
                                                       IMPORT_SPAWNS)
    ctx = workloads.Context(gp=gp, work=work, python=sys.executable, env=env,
                            in_process=bool(args.trace))
    cwd = os.getcwd()
    os.chdir(work)                        # the warm-up writes relative paths
    try:
        exec(compile(warmup, "<warm-up>", "exec"), {})
    finally:
        os.chdir(cwd)
    ops = workloads.WORKLOADS[args.workload](args.seed, ctx)

    if not args.trace:
        rounds = _rounds(ops, args.seconds)
        attempted, failed, correct = _tally(ops, rounds)
        # Each op's median over rounds, then the median over ops: no op's
        # fastest or slowest round decides the figure.
        per_op = zip(*(_timed(ops, sec) for (sec, _, _), _ in rounds))
        op_times = [statistics.median(times) for times in per_op]
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli_roundtrip"
               else resource.RUSAGE_SELF)
        metrics.update(wall_s=_wall(ops, rounds), op_p50_s=statistics.median(op_times),
                       peak_rss_mib=resource.getrusage(who).ru_maxrss / 1024.0)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        # Pairs of an untraced and a traced round, so that both see the same
        # drift of the host; the overhead is the median of the per-pair
        # differences.  The in-process warm-up carried the first-call costs.
        tracer = spans.Tracer(gp.errors.DegenerateSampleError)
        t0 = time.perf_counter()
        plain, traced = [], []
        while True:
            r0 = time.perf_counter()
            plain += _rounds(ops, 0.0)
            uninstall = spans.install(tracer, gp)
            try:
                traced += _rounds(ops, 0.0, tracer)
            finally:
                uninstall()
            now = time.perf_counter()
            if len(traced) >= MIN_PAIRS and now - t0 + (now - r0) > args.seconds:
                break
        attempted, failed, correct = _tally(ops, plain + traced)
        layers = [layer for _, layer in traced]
        for name, _, _, _ in spans.PER_LAYER:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        wall, untraced = _wall(ops, traced), _wall(ops, plain)
        program = statistics.median(layer["program_self_s"] for layer in layers)
        overhead = statistics.median(_round_wall(ops, t) - _round_wall(ops, p)
                                     for p, t in zip(plain, traced))
        metrics.update({"trace.wall_s": wall, "trace.untraced_wall_s": untraced,
                        "trace.overhead_s": overhead,
                        "trace.program_share": program / wall,
                        "trace.spans": statistics.median(layer["trace.spans"]
                                                         for layer in layers)})
        tracer.write(OUT / f"trace-{args.workload}.npz")
        units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
        units.update((name, unit) for name, unit, _ in spans.RUN_LEVEL)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
