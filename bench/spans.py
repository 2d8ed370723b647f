"""Spans around the program's public functions, recorded from outside it.

install() replaces every public function of the six layer modules under
each name a module looks it up by (experiments.sample_q and cli.sample_q
are separate bindings of sampling.sample_q), plus the CSV methods of the
record classes.  Each call records a span (name, start, end, parent, op);
spans stay in memory in flat arrays and are written out once, at the end
of the run.  Counts are computed from the arguments of each call.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("states", "sampling", "estimation", "channel", "experiments", "cli")
EXPERIMENTS = ("fig_varnx", "fig_trequad", "fig_varr", "fig_varnth",
               "evolution_r0_sweep", "evolution_time", "ratio_check")
COMMANDS = ("figure", "evolve", "sample", "estimate")
ROOT_SPAN = "bench.op"

# Span names that differ from "<module>.<function>": every CSV writer and
# reader of the sampling layer is one stage.
_RENAMED = {"write_homodyne_batches": "sampling.csv_write",
            "read_homodyne_batches": "sampling.csv_read"}
_CSV_METHODS = (("QSampleBatch", "to_csv", "sampling.csv_write"),
                ("HomodyneBatch", "to_csv", "sampling.csv_write"),
                ("QSampleBatch", "from_csv", "sampling.csv_read"),
                ("HomodyneBatch", "from_csv", "sampling.csv_read"))

def _s(name, how):
    return (name, "s", "lower", how)


def _n(name, how, unit="count"):
    return (name, unit, "lower", how)


# (metric, unit, better, how it is read off a round): "incl" is the total
# time of the spans of that name, "self" the same minus the time of their
# child spans, "calls" their number, "count" a counter from _COUNTERS and
# "layer" the self time of all spans of a layer.
PER_LAYER = (
    _s("states.purity_by_phase_space_integral.s", "incl"),
    _n("states.purity_by_phase_space_integral.calls", "calls"),
    _n("states.cov_from_params.calls", "calls"),
    _s("sampling.sample_q.s", "incl"),
    _n("sampling.sample_q.draws", "count"),
    _s("sampling.sample_homodyne.s", "incl"),
    _n("sampling.sample_homodyne.draws", "count"),
    _s("sampling.csv_write.s", "incl"),
    _n("sampling.csv_write.bytes", "count", "bytes"),
    _s("sampling.csv_read.s", "incl"),
    _n("sampling.csv_read.rows", "count"),
    _s("estimation.purity_from_q.s", "self"),
    _s("estimation.estimate_purity_homodyne.s", "incl"),
    _n("estimation.bootstrap.resample_elems", "count"),
    _s("estimation.moments_from_q.s", "incl"),
    _s("estimation.error_scaling_sweep.s", "self"),
    _n("estimation.degenerate", "count"),
    _s("channel.integrate_cov_ode.s", "incl"),
    _n("channel.integrate_cov_ode.steps", "count"),
    _s("channel.trajectory.s", "incl"),
    _n("channel.trajectory.points", "count"),
    _n("channel.mu_of_t.calls", "calls"),
    _n("channel.evolve_cov.calls", "calls"),
    _s("experiments.run_experiment.s", "self"),
    *(_s(f"experiments.run_experiment.{e}.s", "count") for e in EXPERIMENTS),
    _s("experiments.emit.s", "incl"),
    _n("experiments.emit.bytes", "count", "bytes"),
    _s("cli.main.s", "self"),
    *(_s(f"cli.command.{c}.s", "count") for c in COMMANDS),
    *(_s(f"layer.{layer}.self_s", "layer") for layer in LAYERS + ("bench",)),
)
# Whole-run figures, filled in by run.py: (metric, unit, better).
RUN_LEVEL = (("cli.spawn_import_s", "s", "lower"), ("trace.wall_s", "s", "lower"),
             ("trace.untraced_wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
             ("trace.program_share", "fraction", "higher"),
             ("trace.spans", "count", "lower"))


def _span_of(name):
    """Strip the trailing unit or counter from a metric name."""
    return name.rsplit(".", 1)[0]


def _rows(result):
    if isinstance(result, dict):
        return sum(b.n for b in result.values())
    return result.n


# Counters per span name: (call arguments by name, result, seconds) ->
# (counter, amount).  Each is computed from the call itself.
_COUNTERS = {
    "sampling.sample_q": lambda a, res, dt: ("sampling.sample_q.draws", 2 * a["n"]),
    "sampling.sample_homodyne":
        lambda a, res, dt: ("sampling.sample_homodyne.draws", a["n"]),
    "sampling.csv_write":
        lambda a, res, dt: ("sampling.csv_write.bytes", os.path.getsize(a["path"])),
    "sampling.csv_read": lambda a, res, dt: ("sampling.csv_read.rows", _rows(res)),
    "estimation.purity_from_q": lambda a, res, dt: (
        "estimation.bootstrap.resample_elems", a["resamples"] * a["batch"].n),
    "estimation.estimate_purity_homodyne": lambda a, res, dt: (
        "estimation.bootstrap.resample_elems",
        a["resamples"] * (a["b0"].n + a["b45"].n + a["b90"].n)),
    "channel.integrate_cov_ode": lambda a, res, dt: (
        "channel.integrate_cov_ode.steps",
        max(1, int(math.ceil(a["t"] / a["step"] - 1e-12)))),
    "channel.trajectory":
        lambda a, res, dt: ("channel.trajectory.points", int(np.size(a["times"]))),
    "experiments.emit":
        lambda a, res, dt: ("experiments.emit.bytes", os.path.getsize(a["path"])),
    "experiments.run_experiment":
        lambda a, res, dt: (f"experiments.run_experiment.{a['config'].experiment}.s", dt),
    "cli.main": lambda a, res, dt: (f"cli.command.{a['argv'][0]}.s", dt),
}


class Tracer:
    """In-memory span store with per-round aggregation."""

    def __init__(self, degenerate_error):
        self.names, self._ids = [], {}
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack = []
        self._op = -1
        self._paused = False
        self._degenerate = degenerate_error
        self.counts = defaultdict(float)
        self._round_start = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._id(name)
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)
        stack, clock, counts = self._stack, time.perf_counter, self.counts

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                # A degenerate sample is counted once, where it is raised.
                if (isinstance(exc, self._degenerate)
                        and not getattr(exc, "_bench_counted", False)):
                    exc._bench_counted = True
                    counts["estimation.degenerate"] += 1
                raise
            dt = self._close(idx)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key, amount = counter(bound.arguments, res, dt)
                counts[key] += amount
            return res

        return traced

    def _close(self, idx):
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def run_op(self, fn, record=True):
        """Run one benchmark operation under a root span, or with no spans."""
        if not record:
            self._paused = True
            try:
                return fn()
            finally:
                self._paused = False
        self._op += 1
        return self.wrap(fn, ROOT_SPAN)()

    def begin_round(self):
        self.counts.clear()
        self._round_start = len(self.start)

    def end_round(self):
        """Per-layer metrics of the spans recorded since begin_round()."""
        a = self._round_start
        name = np.asarray(self.name[a:], dtype=np.intp)
        parent = np.asarray(self.parent[a:], dtype=np.intp) - a
        dur = np.asarray(self.end[a:]) - np.asarray(self.start[a:])
        k = len(self.names)
        child = parent >= 0
        own = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        incl = np.bincount(name, weights=dur, minlength=k)
        self_t = np.bincount(name, weights=own, minlength=k)
        calls = np.bincount(name, minlength=k)
        layer_self = defaultdict(float)
        for i, n in enumerate(self.names):
            layer_self[n.split(".", 1)[0]] += self_t[i]

        def by_name(table, span):
            i = self._ids.get(span)
            return 0.0 if i is None else float(table[i])

        out = {}
        for metric, _, _, kind in PER_LAYER:
            span = _span_of(metric)
            if kind == "incl":
                out[metric] = by_name(incl, span)
            elif kind == "self":
                out[metric] = by_name(self_t, span)
            elif kind == "calls":
                out[metric] = by_name(calls, span)
            elif kind == "layer":
                out[metric] = layer_self[span.split(".")[1]]
            else:
                out[metric] = float(self.counts[metric])
        out["trace.spans"] = float(len(dur))
        out["program_self_s"] = sum(layer_self[layer] for layer in LAYERS)
        return out

    def write(self, path):
        """All spans of the run as arrays of one .npz file; names index `names`."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), op=np.asarray(self.op))


def install(tracer, gp):
    """Wrap the public functions of the six layers under every binding.

    Returns a function that puts the original bindings back.
    """
    modules = {m: importlib.import_module(f"gausspurity.{m}") for m in LAYERS}
    saved, wrapped = [], {}
    for consumer in (gp, *modules.values()):
        for attr, obj in list(vars(consumer).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("gausspurity.") or home not in modules:
                continue
            if obj not in wrapped:
                wrapped[obj] = tracer.wrap(obj, _RENAMED.get(obj.__name__,
                                                             f"{home}.{obj.__name__}"))
            saved.append((consumer, attr, obj))
            setattr(consumer, attr, wrapped[obj])
    for cls_name, meth, span in _CSV_METHODS:
        cls = getattr(modules["sampling"], cls_name)
        raw = cls.__dict__[meth]
        saved.append((cls, meth, raw))
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, span)))
        else:
            setattr(cls, meth, tracer.wrap(raw, span))

    def uninstall():
        for owner, attr, obj in saved:
            setattr(owner, attr, obj)
    return uninstall
