"""The four benchmark workloads: operations, their seeded inputs and checks.

A workload is built once per run from --seed and yields a fixed list of
operations.  One round runs every operation once; rounds repeat with the
same inputs, so the share of failed operations is the same in every run.
The program receives only the generated inputs, and every output is
judged by checks.py, which does not call the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks as C

PHASES = (0.0, math.pi / 4.0, math.pi / 2.0)

# The paper's reference inputs, restated here rather than imported so that
# the checks stay independent of the program's own constants.
FIG_STATE = (0.5, 1.5, 0.0)                       # (nbar, r, phi), mu = 1/2
FIG_N_GRID = (1_000, 3_000, 10_000, 30_000, 100_000)
VARR_GRID, VARR_N = (0.0, 0.5, 1.0, 1.5, 2.0), 30_000
VARNTH_GRID, VARNTH_N, VARNTH_R = (0.1, 0.5, 1.0, 2.0, 4.0), 10_000, 1.0
EVOLUTION_INPUTS = {"coherent": (0.0, 0.0, 0.0), "squeezed": (0.0, 1.5, 0.0),
                    "thermal": (9.5, 0.0, 0.0)}
EVOLUTION_GRID = tuple(0.1 * k for k in range(51))
ODE_RESIDUAL_MAX = 1e-8
PAPER_RATIO, PAPER_RATIO_TOL = 0.537, 1e-3
TREQUAD_RTOL = 0.1
# The 68 % coverage test: independent Q records of COVERAGE_N pairs, each
# with a bootstrap of COVERAGE_B resamples.  Over 3000 such records the
# CIs covered the true mu 67.3 % of the time.
COVERAGE_RECORDS, COVERAGE_N, COVERAGE_B = 200, 1_000, 200

# Fault (a): pure squeezed vacua along x on a ladder of squeezing; r = 4 and
# r = 8 raise PhysicalityError from the cancellation in cov_from_params.
LADDER = (0.0, 0.5, 1.5, 3.0, 4.0, 6.0, 8.0)
LADDER_FAULTY = (4.0, 8.0)
LADDER_BATH = (1.0, 1.0, 0.5, 0.3)                # (gamma, N, M1, M2)
LADDER_GT = np.linspace(0.0, 60.0, 3001)
LADDER_CHECK_EVERY = 50
# Fault (a), small squeezing: r(t) of a coherent input at gamma*t = 1e-6
# through acosh(1 + eps); the relative error asked for is 1e-8.
SMALL_GT, SMALL_R_RTOL = 1e-6, 1e-8
# Fault (b): `sample --kind homodyne` seeds phase i with seed + i, so the
# pi/4 record of seed 0 and the 0 record of seed 1 coincide.
CORR_N, CORR_MAX = 30_000, 0.05


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]      # failure messages; empty when correct
    fault: Optional[str] = None          # the known fault this op exposes


@dataclass
class Context:
    """What a workload needs: the program's modules and where to write."""

    gp: object                           # the imported gausspurity package
    work: object                         # pathlib.Path of a scratch directory
    python: str
    env: dict
    in_process: bool                     # run CLI commands through cli.main


def _state(ctx, nbar, r, phi):
    return ctx.gp.states.GaussianState.from_params(
        ctx.gp.states.GaussianParams(nbar=nbar, r=r, phi=phi))


def _bath(ctx, bath):
    gamma, n, m1, m2 = bath
    return ctx.gp.channel.BathParams(gamma=gamma, N=n, M1=m1, M2=m2)


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2**31, size=k)]


def _squeezed_bath(rng):
    """A squeezed bath with gamma = 1: the RK4 oracle steps in physical time,
    so its work, unlike its answers, would otherwise scale with 1/gamma."""
    n = float(rng.uniform(0.2, 1.5))
    m = float(rng.uniform(0.3, 0.9)) * math.sqrt(n * (n + 1.0))
    arg = float(rng.uniform(0.0, 2.0 * math.pi))
    return (1.0, n, m * math.cos(arg), m * math.sin(arg))


# --- checks on program outputs ---------------------------------------------

def _close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * abs(b)


def check_q_rows(where, rows, truths, trials):
    """Rows of fig_varnx / fig_varr / fig_varnth against the Q-method statistics.

    truths holds (grid value, nbar, r, phi, n) per row.  With one trial the
    error bars are the bootstrap CI; with more they are mean +/- sd.
    """
    bad = []
    if [row[0] for row in rows] != [t[0] for t in truths]:
        return [f"{where}: grid {[row[0] for row in rows]} != {[t[0] for t in truths]}"]
    for (_, mu_hat, lo, hi, mu_true, rel_err, n_deg), (g, nbar, r, phi, n) in zip(rows, truths):
        at = f"{where}[{g}]"
        mu = C.analytic_purity(nbar)
        if not _close(mu_true, mu):
            bad.append(f"{at}: mu_true {mu_true} != 1/(2 nbar + 1) = {mu}")
        if not 0 <= n_deg <= trials:
            bad.append(f"{at}: n_degenerate {n_deg} outside [0, {trials}]")
            continue
        k = trials - n_deg
        if k == 0:
            continue
        if not lo <= mu_hat <= hi:
            bad.append(f"{at}: error bar [{lo}, {hi}] does not bracket {mu_hat}")
        if not _close(rel_err, abs(mu_hat - mu) / mu, 1e-9) and trials == 1:
            bad.append(f"{at}: rel_err {rel_err} inconsistent with mu_hat")
        st = C.q_method_stats(C.float_cov(nbar, r, phi), n)
        if trials == 1 and st.trusted:
            bad += [f"{at}: degenerate"] if n_deg else C.check_estimate(
                at, mu_hat, lo, hi, st.mean, st.se)
        elif trials > 1 and st.trusted:
            bad += _check_trial_mean(at, mu_hat, lo, hi, st, k, n_deg)
    return bad


def _check_trial_mean(at, mu_hat, lo, hi, st, k, n_deg):
    bad = [f"{at}: {n_deg} degenerate trials"] if n_deg else []
    if not abs(mu_hat - st.mean) <= C.Z_MAX * st.se / math.sqrt(k):
        bad.append(f"{at}: mean {mu_hat} is "
                   f"{abs(mu_hat - st.mean) * math.sqrt(k) / st.se:.1f} "
                   f"errors of the mean from {st.mean}")
    spread = 0.5 * (hi - lo) / st.se
    if not C.SPREAD_RANGE[0] <= spread <= C.SPREAD_RANGE[1]:
        bad.append(f"{at}: across-trial sd is {spread:.2f} standard errors")
    return bad


def check_trequad_rows(where, rows, trials):
    """fig_trequad on the default state: n split as n//3 per quadrature.

    On this state the estimate is too heavy-tailed for the propagated
    error (see checks.Stats.trusted); the largest n gets a coarse bound.
    """
    bad = []
    if [row[0] for row in rows] != list(FIG_N_GRID):
        return [f"{where}: grid {[row[0] for row in rows]} != {list(FIG_N_GRID)}"]
    mu = C.analytic_purity(FIG_STATE[0])
    for n, mu_hat, lo, hi, mu_true, bias, n_deg in rows:
        at = f"{where}[{n}]"
        if not _close(mu_true, mu):
            bad.append(f"{at}: mu_true {mu_true} != {mu}")
        if not 0 <= n_deg <= trials:
            bad.append(f"{at}: n_degenerate {n_deg} outside [0, {trials}]")
            continue
        k = trials - n_deg
        if k == 0:
            continue
        if not abs((mu_hat - mu_true) - bias) <= 1e-12:
            bad.append(f"{at}: bias {bias} != mu_hat - mu_true")
        if k > 1 and not lo <= mu_hat <= hi:
            bad.append(f"{at}: error bar [{lo}, {hi}] does not bracket {mu_hat}")
        if n == FIG_N_GRID[-1] and not abs(mu_hat - mu) <= TREQUAD_RTOL * mu:
            bad.append(f"{at}: mean {mu_hat} more than {TREQUAD_RTOL:.0%} from {mu}")
    return bad


def _report_rows(report):
    return [tuple(row[c] for c in report.columns) for row in report.rows]


def check_estimate_dict(where, est, method, n, stats):
    bad = []
    if est["method"] != method or est["n"] != n or est["level"] != 0.68:
        bad.append(f"{where}: header {est['method']}, n={est['n']}, level={est['level']}")
    if stats.trusted:
        bad += C.check_estimate(where, est["mu_hat"], est["ci_low"], est["ci_high"],
                                stats.mean, stats.se)
    elif not est["ci_low"] <= est["mu_hat"] <= est["ci_high"]:
        bad.append(f"{where}: CI does not bracket mu_hat")
    return bad


def check_sweep(where, rows, grid, stats_of_n, mu):
    """error_scaling_sweep: mean |err|/mu against its prediction, and ~ 1/sqrt(n)."""
    bad = []
    if [row.n for row in rows] != list(grid):
        return [f"{where}: grid {[row.n for row in rows]} != {list(grid)}"]
    scaled = []
    for row in rows:
        st = stats_of_n(row.n)
        if not st.trusted:
            continue
        if row.n_degenerate:
            bad.append(f"{where}[{row.n}]: {row.n_degenerate} degenerate trials")
        predicted = math.sqrt(2.0 / math.pi) * st.se / mu
        if not 0.5 <= row.mean_rel_err / predicted <= 1.6:
            bad.append(f"{where}[{row.n}]: mean_rel_err {row.mean_rel_err:.3g} vs "
                       f"predicted {predicted:.3g}")
        scaled.append(row.mean_rel_err * math.sqrt(row.n))
    if len(scaled) < 2:
        bad.append(f"{where}: fewer than two grid points in the CLT regime")
    elif max(scaled) > 2.0 * min(scaled):
        bad.append(f"{where}: mean_rel_err*sqrt(n) not constant: {scaled}")
    return bad


def check_evolution_rows(where, rows, bath, inputs, grid=EVOLUTION_GRID):
    """evolution_time rows: closed forms against mpmath, and the RK4 residual."""
    bad = []
    if len(rows) != len(inputs) * len(grid):
        return [f"{where}: {len(rows)} rows"]
    for label, gt, mu, r, phi, residual in rows:
        at = f"{where}[{label}, {gt:.3g}]"
        bad += C.check_evolution_point(at, *inputs[label], bath, gt, mu, r, phi)
        if not 0.0 <= residual < ODE_RESIDUAL_MAX:
            bad.append(f"{at}: ode_residual {residual}")
    return bad


def check_trajectory(where, traj, r0, bath):
    bad = []
    if len(traj.times) != len(LADDER_GT):
        return [f"{where}: {len(traj.times)} points"]
    idx = list(range(0, len(LADDER_GT), LADDER_CHECK_EVERY))
    for i in idx:
        bad += C.check_evolution_point(f"{where}[{LADDER_GT[i]:.3g}]", 0.0, r0, 0.0, bath,
                                       float(traj.times[i]), float(traj.mus[i]),
                                       float(traj.rs[i]), float(traj.phis[i]))
    mu_inf = C.asymptote_mu(bath)
    if not _close(float(traj.mus[-1]), mu_inf, 1e-12):
        bad.append(f"{where}: mu at gamma t = {LADDER_GT[-1]} is {traj.mus[-1]}, "
                   f"asymptote {mu_inf}")
    return bad


# --- workloads ----------------------------------------------------------------

def _coverage_inputs(ctx, rng):
    """COVERAGE_RECORDS Q records of distinct seeded states, with their true mu.

    States are drawn until the propagated statistics are trusted at
    COVERAGE_N pairs, where the bootstrap CI is meant to hold its level.
    """
    records = []
    while len(records) < COVERAGE_RECORDS:
        p = (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.0, 1.0)),
             float(rng.uniform(0.0, math.pi)))
        st = C.q_method_stats(C.float_cov(*p), COVERAGE_N)
        if not st.trusted:
            continue
        data_seed, boot_seed = _seeds(rng, 2)
        records.append((ctx.gp.sampling.sample_q(_state(ctx, *p), COVERAGE_N, data_seed),
                        boot_seed, st, C.analytic_purity(p[0])))
    return records


def bootstrap_ci(seed, ctx):
    """Figure runners with one trial (bootstrap CIs) and direct estimator calls."""
    gp = ctx.gp
    rng = np.random.default_rng(seed)
    fig_seeds = _seeds(rng, 3)
    q_state, h_state = [(float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.0, 1.0)),
                         float(rng.uniform(0.0, math.pi))) for _ in range(2)]
    data_seeds, est_seeds = _seeds(rng, 4), _seeds(rng, 2)

    def fig(experiment, fig_seed, truths):
        config = gp.experiments.ExperimentConfig(experiment, trials=1, resamples=400,
                                                 seed=fig_seed)
        return Op(f"run_experiment.{experiment}",
                  lambda: gp.experiments.run_experiment(config),
                  lambda rep: check_q_rows(experiment, _report_rows(rep), truths, 1))

    nb, r, phi = FIG_STATE
    ops = [fig("fig_varnx", fig_seeds[0], [(n, nb, r, phi, n) for n in FIG_N_GRID]),
           fig("fig_varr", fig_seeds[1], [(g, nb, g, phi, VARR_N) for g in VARR_GRID]),
           fig("fig_varnth", fig_seeds[2],
               [(g, g, VARNTH_R, phi, VARNTH_N) for g in VARNTH_GRID])]

    batch = gp.sampling.sample_q(_state(ctx, *q_state), 100_000, data_seeds[0])
    q_stats = C.q_method_stats(C.float_cov(*q_state), 100_000)
    ops.append(Op("purity_from_q",
                  lambda: gp.estimation.purity_from_q(batch, resamples=400, level=0.68,
                                                      seed=est_seeds[0]).to_dict(),
                  lambda est: check_estimate_dict("purity_from_q", est, "q_joint",
                                                  100_000, q_stats)))

    state = _state(ctx, *h_state)
    batches = [gp.sampling.sample_homodyne(state, th, 30_000, s)
               for th, s in zip(PHASES, data_seeds[1:])]
    h_stats = C.three_quadrature_stats(C.float_cov(*h_state), 30_000)
    ops.append(Op("estimate_purity_homodyne",
                  lambda: gp.estimation.estimate_purity_homodyne(
                      *batches, resamples=400, level=0.68, seed=est_seeds[1]).to_dict(),
                  lambda est: check_estimate_dict("estimate_purity_homodyne", est,
                                                  "three_quadrature", 90_000, h_stats)))

    records = _coverage_inputs(ctx, rng)

    def check_coverage(estimates):
        bad, intervals = [], []
        for i, (est, (_, _, st, mu)) in enumerate(zip(estimates, records)):
            if not est.ci_low <= est.mu_hat <= est.ci_high:
                bad.append(f"purity_from_q.coverage[{i}]: CI does not bracket mu_hat")
            if not abs(est.mu_hat - st.mean) <= C.Z_MAX * st.se:
                bad.append(f"purity_from_q.coverage[{i}]: mu_hat {est.mu_hat} is "
                           f"{abs(est.mu_hat - st.mean) / st.se:.1f} errors from {st.mean}")
            intervals.append((est.ci_low, est.ci_high, mu))
        return bad + C.check_coverage("purity_from_q.coverage", intervals, 0.68)

    ops.append(Op("purity_from_q.coverage",
                  lambda: [gp.estimation.purity_from_q(b, resamples=COVERAGE_B, level=0.68,
                                                       seed=s)
                           for b, s, _, _ in records],
                  check_coverage))
    return ops


def _sample_q_fault(ctx, r):
    state = _state(ctx, 0.0, r, 0.0)
    cov = C.float_cov(0.0, r, 0.0)

    def check(batch):
        q = np.cov(batch.pairs, rowvar=False)
        want = (cov[0] + 0.5, cov[1] + 0.5)
        return [f"sample_q.r{r:g}: Q variance {got} != {w}"
                for got, w in zip((q[0, 0], q[1, 1]), want)
                if abs(got - w) > C.Z_MAX * w * math.sqrt(2.0 / batch.n)]

    return Op(f"sample_q.r{r:g}", lambda: ctx.gp.sampling.sample_q(state, 10_000, 0),
              check, fault="a")


def mc_sweep(seed, ctx):
    """Point-estimate Monte Carlo: figure runners with 20 trials and error sweeps."""
    gp = ctx.gp
    rng = np.random.default_rng(seed)
    fig_seeds = _seeds(rng, 4)
    sweep_seeds = _seeds(rng, 2)
    q_state = (float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.0, 0.3)),
               float(rng.uniform(0.0, math.pi)))
    tq_state = (float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.0, 0.3)),
                float(rng.uniform(0.0, math.pi)))
    trials = 20

    def fig(experiment, fig_seed, check):
        config = gp.experiments.ExperimentConfig(experiment, trials=trials, seed=fig_seed)
        return Op(f"run_experiment.{experiment}",
                  lambda: gp.experiments.run_experiment(config),
                  lambda rep: check(_report_rows(rep)))

    nb, r, phi = FIG_STATE
    ops = [fig("fig_varnx", fig_seeds[0], lambda rows: check_q_rows(
               "fig_varnx", rows, [(n, nb, r, phi, n) for n in FIG_N_GRID], trials)),
           fig("fig_trequad", fig_seeds[1],
               lambda rows: check_trequad_rows("fig_trequad", rows, trials)),
           fig("fig_varr", fig_seeds[2], lambda rows: check_q_rows(
               "fig_varr", rows, [(g, nb, g, phi, VARR_N) for g in VARR_GRID], trials)),
           fig("fig_varnth", fig_seeds[3], lambda rows: check_q_rows(
               "fig_varnth", rows, [(g, g, VARNTH_R, phi, VARNTH_N) for g in VARNTH_GRID],
               trials))]

    def sweep(name, p, method, grid, stats, sweep_seed):
        state = _state(ctx, *p)
        return Op(f"error_scaling_sweep.{name}",
                  lambda: gp.estimation.error_scaling_sweep(state, method, grid, 100,
                                                            sweep_seed),
                  lambda rows: check_sweep(f"error_scaling_sweep.{name}", rows, grid,
                                           stats, C.analytic_purity(p[0])))

    methods = gp.estimation.EstimationMethod
    q_cov, tq_cov = C.float_cov(*q_state), C.float_cov(*tq_state)
    ops += [sweep("q", q_state, methods.Q_JOINT, (1_000, 10_000, 100_000),
                  lambda n: C.q_method_stats(q_cov, n), sweep_seeds[0]),
            sweep("three_quadrature", tq_state, methods.THREE_QUADRATURE,
                  (3_000, 30_000, 300_000),
                  lambda n: C.three_quadrature_stats(tq_cov, max(2, n // 3)),
                  sweep_seeds[1])]
    ops += [_sample_q_fault(ctx, r) for r in LADDER_FAULTY]
    return ops


def channel_evolution(seed, ctx):
    """Closed-form evolution, the RK4 oracle and phase-space integrals."""
    gp = ctx.gp
    ch, ex = gp.channel, gp.experiments
    rng = np.random.default_rng(seed)
    sq_bath = _squeezed_bath(rng)
    default_bath = (1.0, 0.5, 0.0, 0.0)

    def runner(name, experiment, check, bath=None):
        config = ex.ExperimentConfig(experiment,
                                     bath=None if bath is None else _bath(ctx, bath))
        return Op(name, lambda: ex.run_experiment(config),
                  lambda rep: check(_report_rows(rep)))

    def check_r0(rows):
        bad = [] if len(rows) == 63 else [f"evolution_r0_sweep: {len(rows)} rows"]
        for n_bath, r0, mu in rows:
            mu_ref = float(C.mu_r_phi(C.sigma_t(0.0, r0, 0.0, (1.0, n_bath, 0.0, 0.0), 1.0))[0])
            if not _close(mu, mu_ref, C.MU_RTOL):
                bad.append(f"evolution_r0_sweep[{n_bath}, {r0}]: mu {mu} != {mu_ref}")
        return bad

    def check_ratio(rows):
        (gt, mu_sq, mu_coh, ratio), = rows
        bath = (1.0, 1.0, 0.0, 0.0)
        bad = []
        for label, got, r0 in (("squeezed", mu_sq, 1.5), ("coherent", mu_coh, 0.0)):
            ref = float(C.mu_r_phi(C.sigma_t(0.0, r0, 0.0, bath, 1.0))[0])
            if not _close(got, ref, C.MU_RTOL):
                bad.append(f"ratio_check: mu_{label} {got} != {ref}")
        if not abs(ratio - PAPER_RATIO) <= PAPER_RATIO_TOL or not _close(ratio, mu_sq / mu_coh):
            bad.append(f"ratio_check: ratio {ratio}, paper {PAPER_RATIO}")
        return bad

    ops = [runner("evolution_time.thermal_bath", "evolution_time",
                  lambda rows: check_evolution_rows("evolution_time", rows, default_bath,
                                                    EVOLUTION_INPUTS)),
           runner("evolution_time.squeezed_bath", "evolution_time",
                  lambda rows: check_evolution_rows("evolution_time.squeezed", rows,
                                                    sq_bath, EVOLUTION_INPUTS), sq_bath),
           runner("evolution_r0_sweep", "evolution_r0_sweep", check_r0),
           runner("ratio_check", "ratio_check", check_ratio)]

    ladder_bath = _bath(ctx, LADDER_BATH)
    for r0 in LADDER:
        params = ch.GaussianParams(r=r0)
        ops.append(Op(f"trajectory.r{r0:g}",
                      lambda p=params: ch.trajectory(p, ladder_bath, LADDER_GT),
                      lambda traj, r0=r0: check_trajectory(f"trajectory.r{r0:g}", traj,
                                                           r0, LADDER_BATH),
                      fault="a" if r0 in LADDER_FAULTY else None))

    inputs = [(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)),
               float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 3.0)))
              for _ in range(8)]
    bath = _bath(ctx, sq_bath)
    evolved = [ch.evolve_cov(_state(ctx, nb, r, phi), bath, gt / sq_bath[0])
               for nb, r, phi, gt in inputs]

    def check_integrals(values):
        bad = []
        for (nb, r, phi, gt), got in zip(inputs, values):
            ref = float(C.mu_r_phi(C.sigma_t(nb, r, phi, sq_bath, gt))[0])
            if not _close(got, ref, 1e-6):
                bad.append(f"purity_by_phase_space_integral: {got} != {ref}")
        return bad

    ops.append(Op("purity_by_phase_space_integral",
                  lambda: [gp.states.purity_by_phase_space_integral(s) for s in evolved],
                  check_integrals))

    def check_small_r(r_got):
        err = C.r_relative_error(0.0, 0.0, 0.0, LADDER_BATH, SMALL_GT, r_got)
        return [] if err <= SMALL_R_RTOL else [
            f"r_of_t at gamma t = {SMALL_GT}: relative error {err:.2e} > {SMALL_R_RTOL}"]

    ops.append(Op("r_of_t.small_gt",
                  lambda: ch.r_of_t(ch.GaussianParams(), ladder_bath,
                                    SMALL_GT / LADDER_BATH[0]),
                  check_small_r, fault="a"))
    return ops


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cli_op(ctx, name, argv, check, fault=None):
    def run():
        if ctx.in_process:
            code = ctx.gp.cli.main(argv)
            err = ""
        else:
            proc = subprocess.run([ctx.python, "-m", "gausspurity.cli", *argv],
                                  cwd=ctx.work, env=ctx.env, capture_output=True,
                                  text=True)
            code, err = proc.returncode, proc.stderr
        if code != 0:
            raise RuntimeError(f"gausspurity {' '.join(argv)} exited {code}: {err.strip()}")

    return Op(name, run, lambda _: check(), fault)


def cli_roundtrip(seed, ctx):
    """CLI commands as a user types them, chained through files."""
    rng = np.random.default_rng(seed)
    work = ctx.work
    q_state = (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.0, 1.0)),
               float(rng.uniform(0.0, math.pi)))
    h_state = (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.0, 1.0)),
               float(rng.uniform(0.0, math.pi)))
    seeds = _seeds(rng, 5)
    bath_n = float(rng.uniform(0.2, 2.0))
    q_csv, q_est, h_csv, h_est = (str(work / f) for f in
                                  ("q.csv", "q_est.json", "hom.csv", "hom_est.json"))
    trequad, evo_json, evo_csv = (str(work / f) for f in
                                  ("trequad.csv", "evo.json", "evo.csv"))
    ref0, ref1 = str(work / "hom_seed0.csv"), str(work / "hom_seed1.csv")

    def state_args(p):
        return ["--nbar", repr(p[0]), "--r", repr(p[1]), "--phi", repr(p[2])]

    def check_record(path, header, rows, thetas=None):
        def check():
            lines = _read_csv(path)
            bad = [] if lines[0] == header else [f"{path}: header {lines[0]}"]
            if len(lines) - 1 != rows:
                bad.append(f"{path}: {len(lines) - 1} rows, expected {rows}")
            if thetas is not None:
                got = sorted({float(line[0]) for line in lines[1:]})
                if any(abs(a - b) > 1e-12 for a, b in zip(got, thetas)) or len(got) != 3:
                    bad.append(f"{path}: phases {got}")
            return bad
        return check

    def check_json_estimate(path, method, n, stats, where):
        def check():
            with open(path) as fh:
                est = json.load(fh)
            return check_estimate_dict(where, est, method, n, stats)
        return check

    def check_trequad():
        lines = _read_csv(trequad)
        rows = [(int(a), *map(float, rest[:5]), int(rest[5])) for a, *rest in lines[1:]]
        return check_trequad_rows("figure trequad", rows, 20)

    def check_evolve_json():
        with open(evo_json) as fh:
            report = json.load(fh)
        rows = [tuple(row[c] for c in report["columns"]) for row in report["rows"]]
        return check_evolution_rows("evolve time", rows, (1.0, bath_n, 0.0, 0.0),
                                    EVOLUTION_INPUTS)

    def check_refed_csv():
        with open(evo_json) as fh:
            report = json.load(fh)
        expected = io.StringIO(newline="")
        writer = csv.DictWriter(expected, fieldnames=report["columns"])
        writer.writeheader()
        writer.writerows(report["rows"])
        with open(evo_csv, newline="") as fh:
            got = fh.read()
        return [] if got == expected.getvalue() else [
            "evolve time --config: CSV differs from the rows of the re-fed report"]

    def check_seed_independence():
        def column(path, theta):
            return [float(v) for t, v in _read_csv(path)[1:] if abs(float(t) - theta) < 1e-12]
        corr = float(np.corrcoef(column(ref0, PHASES[1]), column(ref1, PHASES[0]))[0, 1])
        return [] if abs(corr) < CORR_MAX else [
            f"sample --seed 0 (theta = pi/4) and --seed 1 (theta = 0) correlate at {corr:.3f}"]

    hom = lambda s, out: ["sample", "--kind", "homodyne", "--n", str(CORR_N),
                          "--seed", str(s), "--out", out]
    _cli_op(ctx, "reference", hom(0, ref0), lambda: []).run()

    return [
        _cli_op(ctx, "sample.q", ["sample", "--kind", "q", "--n", "100000",
                                  *state_args(q_state), "--seed", str(seeds[0]),
                                  "--out", q_csv],
                check_record(q_csv, ["x", "p"], 100_000)),
        _cli_op(ctx, "estimate.q", ["estimate", "--method", "q", "--input", q_csv,
                                    "--seed", str(seeds[1]), "--out", q_est],
                check_json_estimate(q_est, "q_joint", 100_000,
                                    C.q_method_stats(C.float_cov(*q_state), 100_000),
                                    "estimate --method q")),
        _cli_op(ctx, "sample.homodyne", ["sample", "--kind", "homodyne", "--n", "30000",
                                         *state_args(h_state), "--seed", str(seeds[2]),
                                         "--out", h_csv],
                check_record(h_csv, ["theta", "value"], 90_000, PHASES)),
        _cli_op(ctx, "estimate.three_quadrature",
                ["estimate", "--method", "three-quadrature", "--input", h_csv,
                 "--seed", str(seeds[3]), "--out", h_est],
                check_json_estimate(h_est, "three_quadrature", 90_000,
                                    C.three_quadrature_stats(C.float_cov(*h_state), 30_000),
                                    "estimate --method three-quadrature")),
        _cli_op(ctx, "figure.trequad", ["figure", "trequad", "--trials", "20",
                                        "--seed", str(seeds[4]), "--out", trequad],
                check_trequad),
        _cli_op(ctx, "evolve.time.json", ["evolve", "time", "--bath-n", repr(bath_n),
                                          "--format", "json", "--out", evo_json],
                check_evolve_json),
        _cli_op(ctx, "evolve.time.refed", ["evolve", "time", "--config", evo_json,
                                           "--out", evo_csv],
                check_refed_csv),
        _cli_op(ctx, "sample.homodyne.seed1", hom(1, ref1), check_seed_independence,
                fault="b"),
    ]


WORKLOADS = {"bootstrap_ci": bootstrap_ci, "mc_sweep": mc_sweep,
             "channel_evolution": channel_evolution, "cli_roundtrip": cli_roundtrip}

# The warm-up call each workload makes after `import gausspurity`; setup_s
# times it in a fresh interpreter.  It runs in the scratch directory.
WARMUP = {
    "bootstrap_ci": (
        "from gausspurity import GaussianParams, GaussianState, purity_from_q, sample_q\n"
        "purity_from_q(sample_q(GaussianState.from_params(GaussianParams(nbar=0.5)),"
        " 2000, 0), resamples=20)\n"),
    "mc_sweep": (
        "from gausspurity import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig('fig_varnx', n_grid=[1000], trials=2))\n"),
    "channel_evolution": (
        "from gausspurity import BathParams, GaussianParams, GaussianState, "
        "integrate_cov_ode, trajectory\n"
        "trajectory(GaussianParams(r=1.0), BathParams(N=0.5), [0.0, 0.5, 1.0])\n"
        "integrate_cov_ode(GaussianState.vacuum(), BathParams(N=0.5), 0.1, 5e-3)\n"),
    "cli_roundtrip": (
        "from gausspurity.cli import main\n"
        "main(['evolve', 'ratio', '--out', 'warmup_ratio.csv'])\n"),
}
