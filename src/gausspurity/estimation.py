"""Statistical recovery of purity from measurement records.

Two estimators are provided:

* the joint (Q-function) method: vacuum-corrected sample second moments
  give an estimate of the covariance matrix, and the purity follows from
  mu = 1/(2*sqrt(det sigma));
* the three-quadrature method: sample variances of x_theta at
  theta = 0, pi/4, pi/2 are plugged into
  mu = [4*v45*(v0 + v90 - v45) - (v0 - v90)^2]^{-1/2}.

Uncertainty is quantified by a bootstrap percentile interval (68% by
default).  The public estimators resample the record itself
(nonparametric), which assumes nothing about the data, so CSV records and
lab data need not be Gaussian; the resamples are drawn and reduced in
cache-sized row blocks, and their bits do not depend on the block size.  A
simulated Q trial, Gaussian by construction, draws its single-trial
interval from the Wishart law of its own fitted Q covariance (parametric).
A simulated three-quadrature trial draws each sample variance from its
chi-square law, not from records (sample_homodyne stays for the CLI and for
callers that want records).  Monte Carlo trials run on min(cores, trials)
threads, each Q trial in its thread's one reused (n, 2) buffer, and no
result depends on the thread count.  Each method has one purity rule, shared
by the point estimate and its resamples, which gives NaN where the moments
are unphysical: the point then raises DegenerateSampleError instead of being
clamped (small-n unreliability is real), and the interval drops the resample.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSampleError, InsufficientDataError
from .sampling import (HomodyneBatch, QSampleBatch, _check_integer, _homodyne_variance,
                       _q_pairs, make_rng)
from .states import GaussianState, _finite, _number, purity

THREE_QUADRATURE_PHASES = (0.0, math.pi / 4.0, math.pi / 2.0)

_BLOCK_ELEMS = 262_144      # values per row block of _resampled_covs
_SUM_ROWS = 4096            # rows per block of _cov_in_place's running sum
_worker = threading.local()     # .z: _q_trial's (n, 2) scratch on this thread
_NOT_POSITIVE_DEFINITE = ("estimated covariance is not positive definite; "
                          "too few data for this state")
_NON_POSITIVE_BRACKET = ("three-quadrature bracket is non-positive; "
                         "the homodyne method is not statistically reliable here")


class EstimationMethod(str, Enum):
    Q_JOINT = "q_joint"
    THREE_QUADRATURE = "three_quadrature"


@dataclass(frozen=True)
class MomentEstimate:
    """Sample means and vacuum-corrected second moments from Q-data."""

    mean_x: float
    mean_p: float
    sxx_hat: float
    spp_hat: float
    sxp_hat: float


@dataclass(frozen=True)
class PurityEstimate:
    """Point estimate of purity with a bootstrap confidence interval."""

    mu_hat: float
    ci_low: float
    ci_high: float
    level: float
    n: int
    method: EstimationMethod
    bootstrap: str             # "nonparametric" or "parametric"
    resamples_used: int        # physical bootstrap resamples behind the CI

    def to_dict(self) -> dict:
        return {**asdict(self), "method": self.method.value}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def moments_from_q(batch: QSampleBatch) -> MomentEstimate:
    """Estimate first and second moments of the state from Q-samples.

    The Q-function carries one extra vacuum unit of noise in each
    quadrature, so 1/2 is subtracted from the sample variances; the
    cross moment needs no correction.  Unbiased (n-1) estimators are
    used throughout.
    """
    c = _q_cov(batch)
    return MomentEstimate(mean_x=float(batch.x.mean()), mean_p=float(batch.p.mean()),
                          sxx_hat=float(c[0, 0]) - 0.5, spp_hat=float(c[1, 1]) - 0.5,
                          sxp_hat=float(c[0, 1]))


def _q_cov(batch: QSampleBatch) -> np.ndarray:
    """Unbiased 2x2 sample covariance of the Q-pairs, vacuum noise included."""
    if batch.n < 2:
        raise InsufficientDataError(f"need at least 2 Q-samples, got {batch.n}")
    return _cov_in_place(np.array(batch.pairs))


def _cov_in_place(z: np.ndarray) -> np.ndarray:
    """np.cov(z, rowvar=False) of (n, 2) pairs by its own steps and bits; centres z.
    A C-ordered z's rows are added in np.cov's order, one after another, by a running
    sum over row blocks, not by numpy's loop of one two-value row per step."""
    if z.flags.c_contiguous:
        run = np.zeros((min(len(z), _SUM_ROWS) + 1, 2))    # row 0: the sum so far
        for block in np.split(z, range(_SUM_ROWS, len(z), _SUM_ROWS)):
            part = run[:len(block) + 1]
            part[1:] = block
            np.cumsum(part, axis=0, out=part)
            run[0] = part[-1]
        mean = run[0] / len(z)
    else:       # an F-ordered z.T is contiguous, and numpy's mean of it pairwise
        mean = z.T.mean(axis=1)
    for col, m in zip(z.T, mean):
        col -= m
    return np.dot(z.T, z) * (1 / (len(z) - 1))


def _q_purity(c: np.ndarray) -> float:
    """Plug-in purity of a fitted Q covariance, the vacuum half taken off its diagonal."""
    return _point(_q_purities(c[0, 0] - 0.5, c[1, 1] - 0.5, c[0, 1]), _NOT_POSITIVE_DEFINITE)


def purity_from_moments(m: MomentEstimate) -> float:
    """Plug-in purity from estimated moments; exact on analytic input."""
    return _point(_q_purities(m.sxx_hat, m.spp_hat, m.sxp_hat), _NOT_POSITIVE_DEFINITE)


def _q_purities(sxx, spp, sxp):
    """0.5/sqrt(det) of vacuum-corrected moments, floats or arrays; NaN where unphysical."""
    det = sxx * spp - sxp * sxp
    return 0.5 / np.sqrt(np.where((sxx > 0) & (spp > 0) & (det > 0), det, np.nan))


def _point(mu, why: str) -> float:
    """A point estimate mu as a float; DegenerateSampleError(why) where it is NaN."""
    if math.isnan(mu):
        raise DegenerateSampleError(why)
    return float(mu)


def _resampled_covs(cols, products, k: int, rng: np.random.Generator) -> np.ndarray:
    """(sum g_i g_j - n m_i m_j)/(n-1) of k resamples of the columns, per (i, j).

    Row blocks of about _BLOCK_ELEMS values stay in cache and give the same bits
    at any size: integers() is one stream however split, and rows reduce alone.
    """
    n = cols[0].size
    rows = max(1, min(k, _BLOCK_ELEMS // n))
    # one work buffer, and idx freed before the next draw: glibc then reuses the
    # same heap pages instead of trimming them and faulting them in again
    work, out = np.empty((len(cols) + 1, rows, n)), np.empty((len(products), k))
    for start in range(0, k, rows):
        idx = rng.integers(0, n, size=(min(rows, k - start), n))
        g, prod = work[:-1, :len(idx)], work[-1, :len(idx)]
        for col, buf in zip(cols, g):
            np.take(col, idx, out=buf, mode="clip")    # "clip" is unbuffered; idx is in range
        m = g.mean(axis=2)
        for row, (i, j) in zip(out[:, start:], products):
            row[:len(idx)] = (np.multiply(g[i], g[j], out=prod).sum(axis=1)
                              - n * m[i] * m[j]) / (n - 1)
        del idx
    return out


def _bootstrap_q(pairs: np.ndarray, resamples: int, rng: np.random.Generator) -> np.ndarray:
    """Purity of bootstrap resamples of a Q-batch; NaN where degenerate."""
    # contiguous copies, not strided column views, halve what the random reads span
    sxx, spp, sxp = _resampled_covs(np.ascontiguousarray(pairs.T),
                                    ((0, 0), (1, 1), (0, 1)), resamples, rng)
    return _q_purities(sxx - 0.5, spp - 0.5, sxp)


def _parametric_q(q_cov: np.ndarray, n: int, resamples: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Purity of parametric bootstrap resamples of a Gaussian Q-batch.

    (n-1) times the sample covariance of n Gaussian pairs is Wishart with
    n-1 degrees of freedom and scale C, the fitted Q covariance.  Bartlett's
    decomposition draws it as L A A^T L^T, with L the Cholesky factor of C
    and A lower triangular: a11 = sqrt(chi2_{n-1}), a22 = sqrt(chi2_{n-2}),
    a21 ~ N(0, 1).  Degenerate resamples give NaN.
    """
    (l11, _), (l21, l22) = np.linalg.cholesky(q_cov)
    a11 = np.sqrt(rng.chisquare(n - 1, resamples))
    a22 = np.sqrt(rng.chisquare(n - 2, resamples))
    a21 = rng.standard_normal(resamples)
    # B = L A, resampled covariance S* = B B^T / (n-1)
    b11, b21, b22 = l11 * a11, l21 * a11 + l22 * a21, l22 * a22
    return _q_purities(b11 * b11 / (n - 1) - 0.5,
                       (b21 * b21 + b22 * b22) / (n - 1) - 0.5,
                       b11 * b21 / (n - 1))


def _check_bootstrap(resamples: int, level: float):
    """Reject, before any draw, what no bootstrap interval can come from."""
    _check_integer("resamples", resamples, 2)
    if not _number(level):
        raise ValueError(f"confidence level must be a real number, got {level!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")


def _bootstrap_estimate(point, mus, resamples, level, n, method, kind):
    """The point with the percentile interval of the physical (not NaN) resamples of a kind."""
    mus = mus[~np.isnan(mus)]
    if mus.size < max(2, resamples // 2):
        raise DegenerateSampleError(
            f"only {mus.size}/{resamples} bootstrap resamples were physical")
    lo, hi = np.quantile(mus, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return PurityEstimate(point, min(float(lo), point), max(float(hi), point), level, n,
                          method, kind, mus.size)


def purity_from_q(batch: QSampleBatch, resamples: int = 400,
                  level: float = 0.68, seed=0) -> PurityEstimate:
    """Purity estimate from a Q-batch with a nonparametric bootstrap percentile CI.

    The resamples redraw the pairs themselves, so the interval assumes
    nothing about their law.
    """
    if batch.n < 3:
        raise InsufficientDataError(f"need at least 3 Q-samples, got {batch.n}")
    _check_bootstrap(resamples, level)
    rng = make_rng(seed)
    point = _q_purity(_q_cov(batch))
    return _bootstrap_estimate(point, _bootstrap_q(batch.pairs, resamples, rng),
                               resamples, level, batch.n, EstimationMethod.Q_JOINT,
                               "nonparametric")


def purity_from_three_quadratures(var0: float, var45: float, var90: float) -> float:
    """Purity from the variances of x_0, x_{pi/4}, x_{pi/2}.

    Exact when fed analytic variances; with sample variances the bracket
    can go non-positive, which raises DegenerateSampleError.
    """
    return _point(_three_quadrature_purity(var0, var45, var90), _NON_POSITIVE_BRACKET)


def _three_quadrature_purity(var0: float, var45: float, var90: float) -> float:
    """bracket^(-1/2) of three float variances by libm pow; NaN where bracket <= 0.
    diff * diff, not diff ** 2, which would call libm pow and may round otherwise."""
    diff = var0 - var90
    bracket = 4.0 * var45 * (var0 + var90 - var45) - diff * diff
    return bracket ** -0.5 if bracket > 0 else math.nan


def estimate_purity_homodyne(b0: HomodyneBatch, b45: HomodyneBatch,
                             b90: HomodyneBatch, resamples: int = 400,
                             level: float = 0.68, seed=0) -> PurityEstimate:
    """Three-quadrature purity estimate with a bootstrap percentile CI.

    Each batch is resampled in one pass of its own, phase 0, pi/4, pi/2 in
    turn.  Degenerate resamples are dropped from the interval; a degenerate
    point estimate propagates as an error.
    """
    for batch, expected in zip((b0, b45, b90), THREE_QUADRATURE_PHASES):
        if abs(batch.theta - expected) > 1e-9:
            raise ValueError(f"quadrature phase mismatch: expected theta={expected}, "
                             f"got {batch.theta}")
    _check_bootstrap(resamples, level)
    rng = make_rng(seed)
    v0, v45, v90 = (float(np.var(b.values, ddof=1)) for b in (b0, b45, b90))
    point = purity_from_three_quadratures(v0, v45, v90)
    # on floats, as the point: numpy's array power may round otherwise than libm pow
    mus = np.array(list(map(_three_quadrature_purity, *(
        _resampled_covs((b.values,), ((0, 0),), resamples, rng)[0].tolist()
        for b in (b0, b45, b90)))))
    return _bootstrap_estimate(point, mus, resamples, level, b0.n + b45.n + b90.n,
                               EstimationMethod.THREE_QUADRATURE, "nonparametric")


@dataclass(frozen=True)
class SweepRow:
    """One sample-size point of an error-scaling sweep."""

    n: int
    mean_rel_err: float
    std_rel_err: float
    n_degenerate: int


def error_scaling_sweep(state: GaussianState, method: EstimationMethod,
                        n_grid, trials: int, seed) -> list:
    """Mean relative error |mu_hat - mu|/mu versus the number of data.

    For the three-quadrature method the budget n >= 6 is split as n//3
    detections per quadrature, and degenerate trials are counted rather
    than silently dropped.  Both the across-trial mean and the
    across-trial standard deviation of the relative error are reported.
    """
    n_grid = _check_grid("n_grid", n_grid, method)
    _check_integer("trials", trials, 1)
    _check_integer("seed", seed, 0)
    mu_true = purity(state.cov)
    trial = _q_trial if method == EstimationMethod.Q_JOINT else _three_quadrature_trial
    rows = []
    for n, (estimates, _, degenerate) in zip(
            n_grid, _monte_carlo([(state, n) for n in n_grid], trials, seed, trial)):
        errs = np.abs(estimates - mu_true) / mu_true
        rows.append(SweepRow(n=n,
                             mean_rel_err=float(errs.mean()) if errs.size else math.nan,
                             std_rel_err=float(errs.std(ddof=1)) if errs.size > 1 else math.nan,
                             n_degenerate=degenerate))
    return rows


def _check_grid(name: str, grid, method=None) -> list:
    """grid, any iterable but a string, as a list of floats, checked finite, non-empty
    and strictly ascending.

    With a method, grid holds the sample sizes of that method, returned as
    ints: whole numbers n >= 2, and n >= 6 for three-quadrature budgets,
    which are split as n//3 per phase and need n//3 >= 2 values in each.
    """
    # a 0-d array is Iterable, but iterating it raises TypeError
    if (isinstance(grid, str) or not isinstance(grid, Iterable)
            or isinstance(grid, np.ndarray) and grid.ndim == 0):
        raise ValueError(f"{name} must be a list of numbers, got {grid!r}")
    grid = list(grid)
    if not all(_number(v) and _finite(v) for v in grid):
        raise ValueError(f"{name} values must be finite real numbers, got {grid}")
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be non-empty and strictly ascending, got {grid}")
    if method is not None:
        if any(v % 1 for v in grid):
            raise ValueError(f"{name} values must be whole numbers, got {grid}")
        if grid[0] < 2:
            raise ValueError(f"{name} values must be >= 2, got {grid}")
        if method == EstimationMethod.THREE_QUADRATURE and grid[0] < 6:
            raise ValueError(f"three-quadrature budgets are split as n//3 per phase and "
                             f"need n//3 >= 2, that is n >= 6, got {grid}")
    return list(map(float if method is None else int, grid))


def _q_trial(state: GaussianState, n: int, rng: np.random.Generator, resamples=0, level=0.68):
    """Q-method estimate from n >= 2 pairs in the thread's reused buffer; with resamples,
    the parametric bootstrap CI of the fitted Q covariance, drawn further along rng."""
    if len(getattr(_worker, "z", ())) != n:
        _worker.z = np.empty((n, 2))
    c = _cov_in_place(_q_pairs(state, n, rng, _worker.z))
    mu = _q_purity(c)       # degenerate at n = 2 (c has rank 1): _parametric_q gets n >= 3
    if not resamples:
        return mu, (math.nan, math.nan)
    pe = _bootstrap_estimate(mu, _parametric_q(c, n, resamples, rng), resamples, level, n,
                             EstimationMethod.Q_JOINT, "parametric")
    return mu, (pe.ci_low, pe.ci_high)


def _three_quadrature_trial(state: GaussianState, n: int, rng: np.random.Generator):
    """Three-quadrature point estimate from a budget of n >= 6, m = n//3 per phase.

    Each phase draws its sample variance from the law of m Gaussian homodyne
    values, (u^T sigma u) * chi2_{m-1}/(m-1), instead of the m records.
    """
    state.cov.require_physical()
    m = n // 3
    v = [_homodyne_variance(state.cov, th) * rng.chisquare(m - 1) / (m - 1)
         for th in THREE_QUADRATURE_PHASES]
    return _point(_three_quadrature_purity(*v), _NON_POSITIVE_BRACKET), (math.nan, math.nan)


def _monte_carlo(points, trials: int, seed, trial) -> list:
    """Seeded Monte Carlo simulated experiment: (estimates, cis, n_degenerate) per point.

    Trial j at point i runs trial(state, n, rng) -> (mu_hat, (ci_low, ci_high))
    on its own Philox stream, child k = i*trials + j of SeedSequence(seed).  A
    trial that raises DegenerateSampleError is counted, not kept.  Worker w of
    min(cores, trials) threads (0: the caller) runs each j = w mod workers, so
    no result depends on that count; any other error is re-raised from the
    lowest failing k, as a serial loop would raise it.  _q_trial and
    _three_quadrature_trial call no public function, so wrappers put on public
    names run on the calling thread alone.
    """
    children = np.random.SeedSequence(seed).spawn(len(points) * trials)
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1, trials)
    outcomes = [None] * len(children)       # per child k; None if degenerate

    def work(w):
        for i, (state, n) in enumerate(points):
            for k in range(i * trials + w, (i + 1) * trials, workers):
                try:
                    outcomes[k] = trial(state, n, np.random.Generator(
                        np.random.Philox(children[k])))
                except DegenerateSampleError:
                    pass
                except Exception as exc:
                    outcomes[k] = exc
                    return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    vars(_worker).clear()                   # worker threads drop theirs as they end
    for t in threads:
        t.join()
    if failed := next((o for o in outcomes if isinstance(o, Exception)), None):
        raise failed
    kept = [[o for o in outcomes[s:s + trials] if o is not None]
            for s in range(0, len(outcomes), trials)]
    return [(np.array([mu for mu, _ in pt], dtype=float), [ci for _, ci in pt],
             trials - len(pt)) for pt in kept]
