"""Independent output checks: closed forms, propagated errors, 50-digit oracles.

Nothing here calls gausspurity.  Each check takes plain numbers (or
parsed program output) and returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np

mpmath.mp.dps = 50

# |mu_hat - mu| and CI half-widths are judged in units of the propagated
# standard error.  Eight errors, not six, because the three-quadrature
# estimate has heavier than Gaussian tails (a 4e6-draw simulation over
# seeded states reached 7.8).
Z_MAX = 8.0
HALF_WIDTH_RANGE = (0.6, 1.6)     # 68 % CI half-width / standard error
SPREAD_RANGE = (0.3, 2.2)         # across-trial sd / standard error, 20 trials
# Each tail of the binomial coverage bound.  For 200 intervals at 68 % the
# accepted counts are 104-166 (52-83 %): a seed fails with probability
# about 2e-6, while coverage of 50 % or 100 % fails always.
COVERAGE_ALPHA = 1e-6


def analytic_purity(nbar):
    """mu = 1/(2*nbar + 1)."""
    return 1.0 / (2.0 * nbar + 1.0)


def cov_of(nbar, r, phi):
    """(sxx, spp, sxp) of the state (nbar, r, phi), in 50-digit arithmetic."""
    c = (2 * mpmath.mpf(nbar) + 1) / 2
    r2, p2 = 2 * mpmath.mpf(r), 2 * mpmath.mpf(phi)
    ch, sh = mpmath.cosh(r2), mpmath.sinh(r2)
    return (c * (ch - sh * mpmath.cos(p2)), c * (ch + sh * mpmath.cos(p2)),
            c * sh * mpmath.sin(p2))


def float_cov(nbar, r, phi):
    return tuple(float(v) for v in cov_of(nbar, r, phi))


def sigma_t(nbar, r, phi, bath, gt):
    """sigma(t) = sigma_inf*(1 - e^{-gamma t}) + sigma(0)*e^{-gamma t}.

    bath is a (gamma, N, M1, M2) tuple and gt the dimensionless gamma*t.
    """
    _, n_bath, m1, m2 = (mpmath.mpf(v) for v in bath)
    half = (2 * n_bath + 1) / 2
    sinf = (half + m1, half - m1, m2)
    eta = mpmath.exp(-mpmath.mpf(gt))
    return tuple(a * (1 - eta) + b * eta
                 for a, b in zip(sinf, cov_of(nbar, r, phi)))


def mu_r_phi(cov):
    """Purity, squeezing magnitude and angle of a covariance (sxx, spp, sxp).

    r is a quarter of the log-ratio of the eigenvalues, which stays exact
    as r -> 0; phi follows the library convention
    2*phi = atan2(2*sxp, spp - sxx), normalized to [0, pi).
    """
    sxx, spp, sxp = cov
    det = sxx * spp - sxp * sxp
    half_gap = mpmath.sqrt(((sxx - spp) / 2) ** 2 + sxp * sxp)
    mid = (sxx + spp) / 2
    r = mpmath.log((mid + half_gap) / (mid - half_gap)) / 4
    phi = (mpmath.atan2(2 * sxp, spp - sxx) / 2) % mpmath.pi
    return 1 / (2 * mpmath.sqrt(det)), r, phi


def asymptote_mu(bath):
    """Channel asymptote ((2N+1)^2 - 4|M|^2)^{-1/2}."""
    _, n_bath, m1, m2 = (mpmath.mpf(v) for v in bath)
    return float(((2 * n_bath + 1) ** 2 - 4 * (m1 * m1 + m2 * m2)) ** mpmath.mpf(-0.5))


# Tolerances of the closed forms against the 50-digit oracle.  r(t) comes
# out of acosh(1 + eps) in the library, which cannot resolve r below about
# sqrt(eps) ~ 1e-8, hence the absolute floor on r and the cut-off for phi.
MU_RTOL = 1e-11
R_ATOL, R_RTOL = 3e-8, 1e-9
PHI_ATOL, PHI_MIN_R = 1e-7, 1e-4


def check_evolution_point(where, nbar, r, phi, bath, gt, mu_got, r_got, phi_got):
    mu_ref, r_ref, phi_ref = (float(v) for v in mu_r_phi(sigma_t(nbar, r, phi, bath, gt)))
    bad = []
    if not abs(mu_got - mu_ref) <= MU_RTOL * mu_ref:
        bad.append(f"{where}: mu {mu_got!r} != {mu_ref!r}")
    if not abs(r_got - r_ref) <= R_ATOL + R_RTOL * r_ref:
        bad.append(f"{where}: r {r_got!r} != {r_ref!r}")
    if r_ref > PHI_MIN_R:
        d = (phi_got - phi_ref + math.pi / 2) % math.pi - math.pi / 2
        if not abs(d) <= PHI_ATOL:
            bad.append(f"{where}: phi {phi_got!r} != {phi_ref!r}")
    return bad


def r_relative_error(nbar, r, phi, bath, gt, r_got):
    r_ref = float(mu_r_phi(sigma_t(nbar, r, phi, bath, gt))[1])
    return abs(r_got - r_ref) / r_ref


class Stats(NamedTuple):
    """Propagated mean and standard error of an estimate."""

    mean: float
    se: float
    rel: float        # relative error of the bracket D or B under the root
    linear: float     # share of its variance from the linear term

    @property
    def trusted(self) -> bool:
        """The bracket is known to 10 % and its spread is mostly linear.

        The quadratic term has exponential rather than Gaussian tails: for
        the three-quadrature method on a state squeezed along x (phi = 0)
        the linear term nearly vanishes, and one trial in 10^4 lands ten
        standard errors out, which no Z_MAX or 20-trial mean absorbs.
        """
        return self.rel <= 0.1 and self.linear >= 0.8


def _propagate(value, grad, hess, cov, f, f1, f2):
    """Moments of f(X) for X = value + dX, dX ~ N(0, cov), to second order.

    grad and hess are those of X in the estimated inputs; f1, f2 are the
    first two derivatives of f at value.
    """
    g, h, v = np.asarray(grad), np.asarray(hess), np.asarray(cov)
    shift = 0.5 * np.trace(h @ v)
    linear = g @ v @ g
    var = linear + 0.5 * np.trace(h @ v @ h @ v)
    return Stats(f(value) + f1(value) * shift + 0.5 * f2(value) * var,
                 abs(f1(value)) * math.sqrt(var), math.sqrt(var) / value,
                 linear / var)


def q_method_stats(cov, n):
    """Mean, standard error and validity of the Q-method estimate.

    mu_hat = 1/(2 sqrt D), D = (S_xx - 1/2)(S_pp - 1/2) - S_xp^2, where S is
    the sample covariance of n Husimi-Q pairs.  S is Gaussian-distributed to
    leading order with Cov(S_ij, S_kl) = (Q_ik Q_jl + Q_il Q_jk)/(n - 1),
    Q = sigma + I/2.
    """
    sxx, spp, sxp = cov
    qxx, qpp, qxp = sxx + 0.5, spp + 0.5, sxp
    v = np.array([[2 * qxx * qxx, 2 * qxp * qxp, 2 * qxx * qxp],
                  [2 * qxp * qxp, 2 * qpp * qpp, 2 * qpp * qxp],
                  [2 * qxx * qxp, 2 * qpp * qxp, qxx * qpp + qxp * qxp]]) / (n - 1)
    hess = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
    return _propagate(sxx * spp - sxp * sxp, [spp, sxx, -2 * sxp], hess, v,
                      lambda d: 0.5 * d ** -0.5, lambda d: -0.25 * d ** -1.5,
                      lambda d: 0.375 * d ** -2.5)


def quadrature_variances(cov):
    sxx, spp, sxp = cov
    return sxx, 0.5 * (sxx + spp) + sxp, spp          # theta = 0, pi/4, pi/2


def three_quadrature_stats(cov, m):
    """Mean, standard error and validity of the three-quadrature estimate.

    mu_hat = B^{-1/2}, B = 4 v45 (v0 + v90 - v45) - (v0 - v90)^2, from m
    detections per quadrature; the three sample variances are independent
    with Var(v_hat) = 2 v^2/(m - 1).
    """
    v0, v45, v90 = quadrature_variances(cov)
    bracket = 4 * v45 * (v0 + v90 - v45) - (v0 - v90) ** 2
    grad = [4 * v45 - 2 * (v0 - v90), 4 * (v0 + v90 - 2 * v45),
            4 * v45 + 2 * (v0 - v90)]
    hess = [[-2, 4, 2], [4, -8, 4], [2, 4, -2]]
    v = np.diag([2 * x * x / (m - 1) for x in (v0, v45, v90)])
    return _propagate(bracket, grad, hess, v, lambda b: b ** -0.5,
                      lambda b: -0.5 * b ** -1.5, lambda b: 0.75 * b ** -2.5)


def check_estimate(where, mu_hat, lo, hi, mu_true, se):
    """Point estimate within Z_MAX errors; its 68 % CI brackets it and is SE-wide."""
    bad = []
    if not abs(mu_hat - mu_true) <= Z_MAX * se:
        bad.append(f"{where}: mu_hat {mu_hat} is {abs(mu_hat - mu_true) / se:.1f} "
                   f"errors from {mu_true}")
    if not lo <= mu_hat <= hi:
        bad.append(f"{where}: CI [{lo}, {hi}] does not bracket {mu_hat}")
    ratio = 0.5 * (hi - lo) / se
    if not HALF_WIDTH_RANGE[0] <= ratio <= HALF_WIDTH_RANGE[1]:
        bad.append(f"{where}: CI half-width is {ratio:.2f} standard errors")
    return bad


def binomial_bounds(n, p, alpha=COVERAGE_ALPHA):
    """Smallest and largest counts whose binomial tails both exceed alpha."""
    pmf = [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]
    lo, acc = 0, 0.0
    while acc + pmf[lo] < alpha:
        acc += pmf[lo]
        lo += 1
    hi, acc = n, 0.0
    while acc + pmf[hi] < alpha:
        acc += pmf[hi]
        hi -= 1
    return lo, hi


def check_coverage(where, intervals, level):
    """Share of CIs (lo, hi, mu_true) covering mu_true, within binomial bounds."""
    covered = sum(lo <= mu <= hi for lo, hi, mu in intervals)
    lo, hi = binomial_bounds(len(intervals), level)
    if lo == 0 or hi == len(intervals):
        return [f"{where}: {len(intervals)} CIs are too few for a coverage test"]
    if not lo <= covered <= hi:
        return [f"{where}: {covered}/{len(intervals)} CIs cover the truth, "
                f"outside [{lo}, {hi}]"]
    return []
