"""Command-line harness: figure reproduction, evolution, sampling, estimation.

Subcommands
    figure {varnx,trequad,varr,varnth}   simulated-experiment tables
    evolve {time,r0-sweep,ratio}         noisy-channel evolution tables
    sample                               emit synthetic measurement CSVs
    estimate                             purity estimate from a CSV record

Validation failures exit nonzero with a machine-readable JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .channel import BathParams
from .errors import GaussPurityError
from .estimation import (estimate_purity_homodyne, purity_from_q,
                         THREE_QUADRATURE_PHASES)
from .experiments import ExperimentConfig, emit, run_experiment
from .sampling import (QSampleBatch, read_homodyne_batches, sample_homodyne,
                       sample_q, write_homodyne_batches)
from .states import GaussianParams, GaussianState

_FIGURES = {"varnx": "fig_varnx", "trequad": "fig_trequad",
            "varr": "fig_varr", "varnth": "fig_varnth"}
_EVOLUTIONS = {"time": "evolution_time", "r0-sweep": "evolution_r0_sweep",
               "ratio": "ratio_check"}


def _add_state_args(parser):
    parser.add_argument("--x0", type=float, default=0.0)
    parser.add_argument("--p0", type=float, default=0.0)
    parser.add_argument("--nbar", type=float, default=0.0)
    parser.add_argument("--r", type=float, default=0.0)
    parser.add_argument("--phi", type=float, default=0.0)


def _state_from_args(args) -> GaussianState:
    return GaussianState.from_params(GaussianParams(
        x0=args.x0, p0=args.p0, nbar=args.nbar, r=args.r, phi=args.phi))


def _load_config(path, experiment: str) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    # a previously emitted JSON report can be re-fed directly
    if "config" in data and "experiment" in data.get("config", {}):
        data = data["config"]
    # set before construction, so a missing state takes this experiment's default
    return ExperimentConfig.from_dict({**data, "experiment": experiment})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausspurity",
        description="Gaussian-state purity: simulated measurements and "
                    "noisy-channel evolution")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="run a simulated-experiment table")
    fig.add_argument("name", choices=sorted(_FIGURES))
    evo = sub.add_parser("evolve", help="run a channel-evolution table")
    evo.add_argument("name", choices=sorted(_EVOLUTIONS))
    for p in (fig, evo):
        p.add_argument("--config", help="JSON config (or emitted JSON report)")
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    evo.add_argument("--bath-n", type=float, dest="bath_n")
    evo.add_argument("--bath-m1", type=float, dest="bath_m1", default=0.0)
    evo.add_argument("--bath-m2", type=float, dest="bath_m2", default=0.0)
    evo.add_argument("--gamma", type=float, default=1.0)

    smp = sub.add_parser("sample", help="emit a synthetic measurement CSV")
    smp.add_argument("--kind", choices=("q", "homodyne"), required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--theta", type=float, action="append",
                     help="homodyne phase; repeatable, default 0 pi/4 pi/2")
    smp.add_argument("--out", required=True)
    _add_state_args(smp)

    est = sub.add_parser("estimate", help="estimate purity from a CSV record")
    est.add_argument("--method", choices=("q", "three-quadrature"), required=True)
    est.add_argument("--input", required=True)
    est.add_argument("--resamples", type=int, default=400)
    est.add_argument("--level", type=float, default=0.68)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out")
    return parser


def _cmd_experiment(args, experiment: str) -> int:
    if args.config:
        config = _load_config(args.config, experiment)
    else:
        kwargs = {"experiment": experiment}
        if experiment in _EVOLUTIONS.values() and getattr(args, "bath_n", None) is not None:
            kwargs["bath"] = BathParams(gamma=args.gamma, N=args.bath_n,
                                        M1=args.bath_m1, M2=args.bath_m2)
        config = ExperimentConfig(**kwargs)
    overrides = {"seed": args.seed, "trials": args.trials, "output_path": args.out}
    # replace() re-runs __post_init__, so the overrides are validated too
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    emit(run_experiment(config), args.out, args.format)
    return 0


def _cmd_sample(args) -> int:
    state = _state_from_args(args)
    if args.kind == "q":
        sample_q(state, args.n, args.seed).to_csv(args.out)
    else:
        thetas = args.theta if args.theta else list(THREE_QUADRATURE_PHASES)
        # one independent Philox stream per phase, spawned from the seed
        children = np.random.SeedSequence(args.seed).spawn(len(thetas))
        batches = [sample_homodyne(state, th, args.n, child)
                   for th, child in zip(thetas, children)]
        write_homodyne_batches(batches, args.out)
    return 0


def _cmd_estimate(args) -> int:
    if args.method == "q":
        batch = QSampleBatch.from_csv(args.input)
        estimate = purity_from_q(batch, resamples=args.resamples,
                                 level=args.level, seed=args.seed)
    else:
        groups = read_homodyne_batches(args.input)
        batches = []
        for expected in THREE_QUADRATURE_PHASES:
            match = [b for t, b in groups.items()
                     if math.isclose(t, expected, abs_tol=1e-9)]
            if not match:
                raise ValueError(
                    f"{args.input}: missing quadrature theta={expected}; the "
                    "three-quadrature method needs theta = 0, pi/4, pi/2")
            batches.append(match[0])
        estimate = estimate_purity_homodyne(*batches, resamples=args.resamples,
                                            level=args.level, seed=args.seed)
    text = estimate.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "figure":
            return _cmd_experiment(args, _FIGURES[args.name])
        if args.command == "evolve":
            return _cmd_experiment(args, _EVOLUTIONS[args.name])
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
    except (GaussPurityError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}),
              file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
