"""Desk-scale simulated experiments, reproducible from (config, seed).

Each runner returns an ExperimentReport: a flat table plus an echo of the
configuration and provenance, so a report can be re-run bit-identically
and emitted as CSV (plot-ready) or JSON (machine-readable).

The Q-method runners draw Gaussian records, so at one trial each estimate
carries the parametric (Wishart) bootstrap CI of its own fitted Q covariance.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import Optional

import numpy as np

from . import __version__
from .channel import BathParams, GaussianParams, integrate_cov_ode, mu_of_t, trajectory
from .estimation import (EstimationMethod, _check_bootstrap, _check_grid, _monte_carlo,
                         _q_trial, _three_quadrature_trial)
from .states import GaussianState, purity

# Fig. 1/2 state: strongly squeezed thermal state with true purity 0.5.
DEFAULT_STATE = GaussianParams(nbar=0.5, r=1.5, phi=0.0)
# fig_varnth sweeps nbar at the squeezing r = 1.0 unless a state is given.
VARNTH_STATE = GaussianParams(nbar=0.5, r=1.0, phi=0.0)

DEFAULT_N_GRID = [1_000, 3_000, 10_000, 30_000, 100_000]
DEFAULT_R_GRID = [0.0, 0.5, 1.0, 1.5, 2.0]
DEFAULT_NBAR_GRID = [0.1, 0.5, 1.0, 2.0, 4.0]
DEFAULT_T_GRID = [0.1 * k for k in range(51)]

VARR_N = 30_000
VARNTH_N = 10_000

# Inputs of the time-evolution figure: coherent, squeezed vacuum, hot thermal.
EVOLUTION_INPUTS = (("coherent", GaussianParams()),
                    ("squeezed", GaussianParams(r=1.5)),
                    ("thermal", GaussianParams(nbar=9.5)))

ODE_ORACLE_STEP = 5e-3


@dataclass
class ExperimentConfig:
    experiment: str
    state: Optional[GaussianParams] = None    # None: the experiment's default
    bath: Optional[BathParams] = None
    n_grid: Optional[list] = None
    r_grid: Optional[list] = None
    nbar_grid: Optional[list] = None
    t_grid: Optional[list] = None
    trials: int = 1
    seed: int = 0
    resamples: int = 400
    level: float = 0.68
    output_path: str = ""

    def __post_init__(self):
        if self.experiment not in _RUNNERS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose one of {tuple(_RUNNERS)}")
        if self.bath is not None and self.experiment not in ("evolution_time", "ratio_check"):
            raise ValueError(f"experiment {self.experiment!r} takes no bath; only "
                             "'evolution_time' and 'ratio_check' do")
        if self.state is None:
            self.state = (VARNTH_STATE if self.experiment == "fig_varnth"
                          else DEFAULT_STATE)
        for name in ("trials", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        _check_bootstrap(self.resamples, self.level)
        n_method = (EstimationMethod.THREE_QUADRATURE if self.experiment == "fig_trequad"
                    else EstimationMethod.Q_JOINT)
        for name in ("n_grid", "r_grid", "nbar_grid", "t_grid"):
            if getattr(self, name) is not None:
                setattr(self, name, _check_grid(name, getattr(self, name),
                                                n_method if name == "n_grid" else None))

    def to_dict(self) -> dict:
        return asdict(self)

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

    def to_dict(self) -> dict:
        return asdict(self)


def _report(config: ExperimentConfig, columns, rows) -> ExperimentReport:
    return ExperimentReport(config.experiment, columns, rows, config.to_dict(),
                            {"library_version": __version__, "seed": config.seed})


# How far a figure's estimates sit from mu_true: its last column.
_DEVIATIONS = {"rel_err": lambda est, mu: float(np.mean(np.abs(est - mu) / mu)),
               "bias": lambda est, mu: float(est.mean()) - mu}


def _figure(config, grid, points, trial, last_column) -> ExperimentReport:
    """Monte Carlo figure report: one row per point, keyed by grid = (column, values).

    Error bars are the trial's own interval when one estimate survives (the
    bootstrap CI at trials = 1), else mean +/- across-trial standard
    deviation.  A point whose every trial is degenerate gives NaN.
    """
    column, values = grid
    columns = [column, "mu_hat", "err_low", "err_high", "mu_true", last_column,
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


def _q_trial_for(config: ExperimentConfig):
    """_q_trial, with its parametric-bootstrap CI when the figure shows one trial."""
    return (_q_trial if config.trials > 1
            else partial(_q_trial, resamples=config.resamples, level=config.level))


def run_fig_varnx(config: ExperimentConfig) -> ExperimentReport:
    """Q-method purity estimate versus the number of data."""
    n_grid = [int(n) for n in config.n_grid or DEFAULT_N_GRID]
    state = GaussianState.from_params(config.state)
    return _figure(config, ("n", n_grid), [(state, n) for n in n_grid],
                   _q_trial_for(config), "rel_err")


def run_fig_trequad(config: ExperimentConfig) -> ExperimentReport:
    """Three-quadrature estimate versus the number of data.

    n >= 6 is the total budget, split as n//3 detections per quadrature.
    Degenerate trials are flagged in their own column, never dropped
    silently.
    """
    n_grid = [int(n) for n in config.n_grid or DEFAULT_N_GRID]
    state = GaussianState.from_params(config.state)
    return _figure(config, ("n", n_grid), [(state, n) for n in n_grid],
                   _three_quadrature_trial, "bias")


def run_fig_varr(config: ExperimentConfig) -> ExperimentReport:
    """Q-method estimate versus squeezing at fixed nbar, N_x = 3*10^4."""
    grid = [float(r) for r in config.r_grid or DEFAULT_R_GRID]
    points = [(GaussianState.from_params(replace(config.state, r=r)), VARR_N)
              for r in grid]
    return _figure(config, ("r", grid), points, _q_trial_for(config), "rel_err")


def run_fig_varnth(config: ExperimentConfig) -> ExperimentReport:
    """Q-method estimate versus nbar at the state's squeezing, N_x = 10^4."""
    grid = [float(nb) for nb in config.nbar_grid or DEFAULT_NBAR_GRID]
    points = [(GaussianState.from_params(replace(config.state, nbar=nb)), VARNTH_N)
              for nb in grid]
    return _figure(config, ("nbar", grid), points, _q_trial_for(config), "rel_err")


def run_evolution_time(config: ExperimentConfig) -> ExperimentReport:
    """Purity/squeezing trajectories of the three reference inputs.

    The bath is the config bath (default N = 0.5 thermal).  Each row carries
    the residual of the closed-form mu against the RK4 oracle, which is
    integrated once per input along the ascending time grid in steps of
    gamma*t = ODE_ORACLE_STEP, so its work does not depend on gamma.  A leg
    of the grid longer than ODE_MAX_STEPS such steps raises ValueError.
    """
    bath = config.bath or BathParams(N=0.5)
    times = np.asarray(config.t_grid or DEFAULT_T_GRID, dtype=float) / bath.gamma
    step = ODE_ORACLE_STEP / bath.gamma
    columns = ["input", "gamma_t", "mu", "r", "phi", "ode_residual"]
    rows = []
    for label, params in EVOLUTION_INPUTS:
        traj = trajectory(params, bath, times)
        oracle, t_prev = GaussianState.from_params(params), 0.0
        for t, gt, mu, r, phi in zip(times, traj.times, traj.mus, traj.rs, traj.phis):
            oracle = integrate_cov_ode(oracle, bath, t - t_prev, step=step)
            t_prev = t
            rows.append(dict(zip(columns,
                                 [label, float(gt), float(mu), float(r), float(phi),
                                  float(abs(mu - purity(oracle.cov)))])))
    return _report(config, columns, rows)


def run_evolution_r0_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Purity at gamma*t = 1 versus initial squeezing, thermal baths N in {0, 0.5, 1}."""
    r_grid = config.r_grid or [0.1 * k for k in range(21)]
    columns = ["N", "r0", "mu"]
    rows = []
    for n_bath in (0.0, 0.5, 1.0):
        bath = BathParams(N=n_bath)
        for r0 in r_grid:
            mu = mu_of_t(GaussianParams(r=float(r0)), bath, 1.0 / bath.gamma)
            rows.append(dict(zip(columns, [n_bath, float(r0), mu])))
    return _report(config, columns, rows)


def run_ratio_check(config: ExperimentConfig) -> ExperimentReport:
    """Squeezed (r0 = 1.5) over coherent input purity at gamma*t = 1, in closed form.

    The bath is the config bath (default N = 1 thermal).
    """
    bath = config.bath or BathParams(N=1.0)
    t = 1.0 / bath.gamma
    mu_sq = mu_of_t(GaussianParams(r=1.5), bath, t)
    mu_coh = mu_of_t(GaussianParams(), bath, t)
    columns = ["gamma_t", "mu_squeezed", "mu_coherent", "ratio"]
    rows = [dict(zip(columns, [1.0, mu_sq, mu_coh, mu_sq / mu_coh]))]
    return _report(config, columns, rows)


_RUNNERS = {"fig_varnx": run_fig_varnx, "fig_trequad": run_fig_trequad,
            "fig_varr": run_fig_varr, "fig_varnth": run_fig_varnth,
            "evolution_r0_sweep": run_evolution_r0_sweep,
            "evolution_time": run_evolution_time, "ratio_check": run_ratio_check}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    return _RUNNERS[config.experiment](config)


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
                json.dump(report.to_dict(), fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
