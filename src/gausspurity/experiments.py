"""Desk-scale simulated experiments, reproducible from (config, seed).

_EXPERIMENTS lists each experiment: its runner and the default of each config
field that it reads.  ExperimentConfig fills those left None and rejects any
other one set, so an evolution, which draws nothing, takes no trials or seed.
The four Monte Carlo figures share one runner, and at one trial a Q estimate
carries the parametric (Wishart) bootstrap CI of its fitted Q covariance.  A
report echoes its config, defaults filled, so it can be re-run bit-identically,
and is emitted as CSV (plot-ready) or JSON.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .channel import BathParams, GaussianParams, integrate_cov_ode, mu_of_t, trajectory
from .estimation import (EstimationMethod, _check_bootstrap, _check_grid, _check_integer,
                         _monte_carlo, _q_trial, _three_quadrature_trial)
from .states import GaussianState, purity

# Fig. 1/2 state: strongly squeezed thermal state with true purity 0.5.
DEFAULT_STATE = GaussianParams(nbar=0.5, r=1.5, phi=0.0)
# fig_varnth sweeps nbar at the squeezing r = 1.0 unless a state is given.
VARNTH_STATE = GaussianParams(nbar=0.5, r=1.0, phi=0.0)

DEFAULT_N_GRID = [1_000, 3_000, 10_000, 30_000, 100_000]
DEFAULT_R_GRID = [0.0, 0.5, 1.0, 1.5, 2.0]
DEFAULT_NBAR_GRID = [0.1, 0.5, 1.0, 2.0, 4.0]
DEFAULT_T_GRID = [0.1 * k for k in range(51)]

# Inputs of the time-evolution figure: coherent, squeezed vacuum, hot thermal.
EVOLUTION_INPUTS = (("coherent", GaussianParams()),
                    ("squeezed", GaussianParams(r=1.5)),
                    ("thermal", GaussianParams(nbar=9.5)))

ODE_ORACLE_STEP = 5e-3

# The Monte Carlo fields that every figure reads, and their defaults.
_MONTE_CARLO = {"trials": 1, "seed": 0, "resamples": 400, "level": 0.68}


@dataclass
class ExperimentConfig:
    experiment: str
    state: Optional[GaussianParams] = None    # None: the experiment's default, or unread
    bath: Optional[BathParams] = None
    n_grid: Optional[list] = None
    r_grid: Optional[list] = None
    nbar_grid: Optional[list] = None
    t_grid: Optional[list] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    resamples: Optional[int] = None
    level: Optional[float] = None

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose one of {tuple(_EXPERIMENTS)}")
        spec = _EXPERIMENTS[self.experiment]
        for name in (f.name for f in fields(self)[1:]):
            value = getattr(self, name)
            if name not in spec.reads and value is not None:
                *others, last = (repr(e) for e, x in _EXPERIMENTS.items() if name in x.reads)
                only = f"{', '.join(others)} and {last} do" if others else f"{last} does"
                raise ValueError(f"experiment {self.experiment!r} takes no {name}; "
                                 f"only {only}")
            value = spec.reads.get(name) if value is None else value
            if value is not None and name.endswith("_grid"):
                value = _check_grid(name, value,
                                    spec.figure.method if name == "n_grid" else None)
            setattr(self, name, value)
        if "trials" not in spec.reads:
            return
        _check_integer("trials", self.trials, 1)
        _check_integer("seed", self.seed, 0)
        _check_bootstrap(self.resamples, self.level)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = _field_values("config", d, cls)
        for key, params in (("state", GaussianParams), ("bath", BathParams)):
            if d.get(key) is not None:
                d[key] = params(**_field_values(key, d[key], params))
        return cls(**d)


def _field_values(name: str, d, cls) -> dict:
    """A copy of d, checked to be a JSON object whose keys are all fields of cls."""
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object, got {d!r}")
    names = [f.name for f in fields(cls)]
    unknown = [k for k in d if k not in names]
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; expected some of {names}")
    return dict(d)


@dataclass
class ExperimentReport:
    experiment: str
    columns: list
    rows: list                 # list of dicts keyed by column name
    config: dict
    provenance: dict


def _report(config: ExperimentConfig, columns, rows) -> ExperimentReport:
    return ExperimentReport(config.experiment, columns, rows, asdict(config),
                            {"library_version": __version__, "seed": config.seed})


# How far a figure's estimates sit from mu_true: its last column.
_DEVIATIONS = {"rel_err": lambda est, mu: float(np.mean(np.abs(est - mu) / mu)),
               "bias": lambda est, mu: float(est.mean()) - mu}


def _figure(config, axis, n, method, last_column) -> ExperimentReport:
    """Monte Carlo figure report: one row per value of the config's axis grid.

    The axis is n, the sample size, or a field of the config state swept at
    the fixed sample size n.  Error bars are the trial's own interval when
    one estimate survives (the bootstrap CI at trials = 1), else mean +/-
    across-trial standard deviation.  A point whose every trial is
    degenerate gives NaN.  The trial is looked up per call, not kept in the
    table, so that a patched _q_trial is the one run.
    """
    values = getattr(config, f"{axis}_grid")
    state = GaussianState.from_params(config.state)
    points = [(state, v) if n is None else
              (GaussianState.from_params(replace(config.state, **{axis: v})), n)
              for v in values]
    trial = (_three_quadrature_trial if method == _TQ else _q_trial if config.trials > 1
             else partial(_q_trial, resamples=config.resamples, level=config.level))
    columns = [axis, "mu_hat", "err_low", "err_high", "mu_true", last_column,
               "n_degenerate"]
    rows = []
    for value, (state, _), (est, cis, degenerate) in zip(
            values, points, _monte_carlo(points, config.trials, config.seed, trial)):
        mu_true = purity(state.cov)
        if est.size == 0:
            mu_hat = lo = hi = deviation = math.nan
        else:
            if est.size == 1:
                mu_hat, (lo, hi) = float(est[0]), cis[0]
            else:
                mu_hat, s = float(est.mean()), float(est.std(ddof=1))
                lo, hi = mu_hat - s, mu_hat + s
            deviation = _DEVIATIONS[last_column](est, mu_true)
        rows.append(dict(zip(columns, [value, mu_hat, lo, hi, mu_true, deviation,
                                       degenerate])))
    return _report(config, columns, rows)


def run_evolution_time(config: ExperimentConfig) -> ExperimentReport:
    """Purity/squeezing trajectories of the three reference inputs.

    Like every evolution table it runs at gamma = 1, so its times are gamma*t
    and its rows do not depend on gamma.  Each row carries the residual of the
    closed-form mu against the RK4 oracle, which is integrated once per input
    along the ascending time grid in steps of ODE_ORACLE_STEP.  A leg of the
    grid longer than ODE_MAX_STEPS such steps raises ValueError.
    """
    bath = replace(config.bath, gamma=1.0)
    columns = ["input", "gamma_t", "mu", "r", "phi", "ode_residual"]
    rows = []
    for label, params in EVOLUTION_INPUTS:
        traj = trajectory(params, bath, config.t_grid)
        oracle, t_prev = GaussianState.from_params(params), 0.0
        for t, mu, r, phi in zip(config.t_grid, traj.mus, traj.rs, traj.phis):
            oracle = integrate_cov_ode(oracle, bath, t - t_prev, step=ODE_ORACLE_STEP)
            t_prev = t
            rows.append(dict(zip(columns,
                                 [label, t, float(mu), float(r), float(phi),
                                  float(abs(mu - purity(oracle.cov)))])))
    return _report(config, columns, rows)


def run_evolution_r0_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Purity at gamma*t = 1 versus initial squeezing, thermal baths N in {0, 0.5, 1}."""
    columns = ["N", "r0", "mu"]
    rows = []
    for n_bath in (0.0, 0.5, 1.0):
        bath = BathParams(N=n_bath)
        for r0 in config.r_grid:
            mu = mu_of_t(GaussianParams(r=r0), bath, 1.0)
            rows.append(dict(zip(columns, [n_bath, r0, mu])))
    return _report(config, columns, rows)


def run_ratio_check(config: ExperimentConfig) -> ExperimentReport:
    """Squeezed (r0 = 1.5) over coherent input purity at gamma*t = 1, in closed form."""
    bath = replace(config.bath, gamma=1.0)
    mu_sq = mu_of_t(GaussianParams(r=1.5), bath, 1.0)
    mu_coh = mu_of_t(GaussianParams(), bath, 1.0)
    columns = ["gamma_t", "mu_squeezed", "mu_coherent", "ratio"]
    rows = [dict(zip(columns, [1.0, mu_sq, mu_coh, mu_sq / mu_coh]))]
    return _report(config, columns, rows)


class _Figure(NamedTuple):
    axis: str                   # the swept grid and first column: n, r or nbar
    n: Optional[int]            # the fixed sample size, None when the axis is n
    method: EstimationMethod    # of its trials, and what its n_grid is checked for
    last_column: str            # rel_err or bias


class _Experiment(NamedTuple):
    run: Callable               # run(config, *figure) -> ExperimentReport
    reads: dict                 # each config field it reads: its default
    figure: tuple = ()          # a figure's _Figure


_Q, _TQ = EstimationMethod.Q_JOINT, EstimationMethod.THREE_QUADRATURE
_EXPERIMENTS = {
    "fig_varnx": _Experiment(_figure, {"state": DEFAULT_STATE, "n_grid": DEFAULT_N_GRID,
                                       **_MONTE_CARLO}, _Figure("n", None, _Q, "rel_err")),
    "fig_trequad": _Experiment(_figure, {"state": DEFAULT_STATE, "n_grid": DEFAULT_N_GRID,
                                         **_MONTE_CARLO}, _Figure("n", None, _TQ, "bias")),
    "fig_varr": _Experiment(_figure, {"state": DEFAULT_STATE, "r_grid": DEFAULT_R_GRID,
                                      **_MONTE_CARLO}, _Figure("r", 30_000, _Q, "rel_err")),
    "fig_varnth": _Experiment(_figure, {"state": VARNTH_STATE, "nbar_grid": DEFAULT_NBAR_GRID,
                                        **_MONTE_CARLO},
                              _Figure("nbar", 10_000, _Q, "rel_err")),
    "evolution_r0_sweep": _Experiment(run_evolution_r0_sweep,
                                      {"r_grid": [0.1 * k for k in range(21)]}),
    "evolution_time": _Experiment(run_evolution_time,
                                  {"bath": BathParams(N=0.5), "t_grid": DEFAULT_T_GRID}),
    "ratio_check": _Experiment(run_ratio_check, {"bath": BathParams(N=1.0)}),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    run, _, figure = _EXPERIMENTS[config.experiment]
    return run(config, *figure)


def emit(report: ExperimentReport, path, fmt: str = "csv"):
    """Write a report as CSV (rows only) or JSON (full report)."""
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=report.columns)
                writer.writeheader()
                writer.writerows(report.rows)
        elif fmt == "json":
            with open(path, "w") as fh:
                json.dump(asdict(report), fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
