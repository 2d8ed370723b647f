"""Command-line harness: figure reproduction, evolution, sampling, estimation.

Subcommands
    figure {varnx,trequad,varr,varnth}   simulated-experiment tables
    evolve {time,r0-sweep,ratio}         noisy-channel evolution tables
    sample                               emit synthetic measurement CSVs
    estimate                             purity estimate from a CSV record

figure and evolve build one ExperimentConfig: from --config, or else the
experiment's defaults, with every flag given applied over it as an override.
Only figure takes --seed and --trials.  The evolve flags --bath-* and --gamma
build one bath, which needs --bath-n; a field whose flag is not given takes
BathParams' default.

Validation failures exit nonzero with a machine-readable JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .channel import BathParams
from .errors import GaussPurityError
from .estimation import THREE_QUADRATURE_PHASES, estimate_purity_homodyne, purity_from_q
from .experiments import ExperimentConfig, emit, run_experiment
from .sampling import (QSampleBatch, read_homodyne_batches, sample_homodyne,
                       sample_q, write_homodyne_batches)
from .states import GaussianParams, GaussianState

_FIGURES = {"varnx": "fig_varnx", "trequad": "fig_trequad",
            "varr": "fig_varr", "varnth": "fig_varnth"}
_EVOLUTIONS = {"time": "evolution_time", "r0-sweep": "evolution_r0_sweep",
               "ratio": "ratio_check"}


def _load_config(path, experiment: str) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        # a previously emitted JSON report can be re-fed directly
        if isinstance(data.get("config"), dict) and "experiment" in data["config"]:
            data = data["config"]
        # set before construction, so a missing state takes this experiment's default
        data = {**data, "experiment": experiment}
    return ExperimentConfig.from_dict(data)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausspurity",
        description="Gaussian-state purity: simulated measurements and "
                    "noisy-channel evolution")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="run a simulated-experiment table")
    fig.add_argument("name", choices=sorted(_FIGURES))
    fig.set_defaults(run=_cmd_experiment, experiments=_FIGURES)
    evo = sub.add_parser("evolve", help="run a channel-evolution table")
    evo.add_argument("name", choices=sorted(_EVOLUTIONS))
    evo.set_defaults(run=_cmd_experiment, experiments=_EVOLUTIONS)
    for p in (fig, evo):
        p.add_argument("--config", help="JSON config (or emitted JSON report)")
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    fig.add_argument("--seed", type=int)
    fig.add_argument("--trials", type=int)
    # each dest is the BathParams field the flag sets
    evo.add_argument("--bath-n", type=float, dest="N", metavar="BATH_N")
    evo.add_argument("--bath-m1", type=float, dest="M1", metavar="BATH_M1")
    evo.add_argument("--bath-m2", type=float, dest="M2", metavar="BATH_M2")
    evo.add_argument("--gamma", type=float)

    smp = sub.add_parser("sample", help="emit a synthetic measurement CSV")
    smp.set_defaults(run=_cmd_sample)
    smp.add_argument("--kind", choices=("q", "homodyne"), required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--theta", type=float, action="append",
                     help="homodyne phase; repeatable, default 0 pi/4 pi/2")
    smp.add_argument("--out", required=True)
    for f in fields(GaussianParams):
        smp.add_argument(f"--{f.name}", type=float, default=f.default)

    est = sub.add_parser("estimate", help="estimate purity from a CSV record")
    est.set_defaults(run=_cmd_estimate)
    est.add_argument("--method", choices=("q", "three-quadrature"), required=True)
    est.add_argument("--input", required=True)
    est.add_argument("--resamples", type=int, default=400)
    est.add_argument("--level", type=float, default=0.68)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out")
    return parser


def _cmd_experiment(args) -> int:
    experiment = args.experiments[args.name]
    config = (_load_config(args.config, experiment) if args.config
              else ExperimentConfig(experiment))
    bath = {f.name: getattr(args, f.name) for f in fields(BathParams)
            if getattr(args, f.name, None) is not None}
    if bath and "N" not in bath:
        raise ValueError("--gamma, --bath-m1 and --bath-m2 set a bath, which needs --bath-n")
    overrides = {"seed": getattr(args, "seed", None), "trials": getattr(args, "trials", None),
                 "bath": BathParams(**bath) if bath else None}
    # replace() re-runs __post_init__, so the overrides are validated too
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    emit(run_experiment(config), args.out, args.format)
    return 0


def _cmd_sample(args) -> int:
    state = GaussianState.from_params(GaussianParams(
        **{f.name: getattr(args, f.name) for f in fields(GaussianParams)}))
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
        # the nearest phase to each; estimate_purity_homodyne checks it to within 1e-9
        batches = [groups[min(groups, key=lambda t: abs(t - th))]
                   for th in THREE_QUADRATURE_PHASES]
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
        return args.run(args)
    except (GaussPurityError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
