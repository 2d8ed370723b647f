"""Gaussian-state evolution in thermal and squeezed-thermal noisy channels.

A Markovian bath is described by the damping rate gamma (inverse photon
lifetime), a thermal parameter N and a complex squeezing M = M1 + i*M2
with |M|^2 <= N(N+1).  At the covariance level the dynamics is the linear
matrix equation

    d(sigma)/dt = gamma * (sigma_inf - sigma),     dX0/dt = -gamma/2 * X0,

whose solution is the convex combination
sigma(t) = sigma_inf*(1 - e^{-gamma t}) + sigma(0)*e^{-gamma t}.  The
closed forms for purity, squeezing magnitude and squeezing angle along
the trajectory all come from one pass over that combination; a fixed-step
Runge-Kutta integrator of the same ODE is provided as an independent oracle.

The squeezing angle is recovered with a two-argument arctangent so it
always matches the angle of sigma(t) itself; the tangent-only asymptotic
formula tan(2*phi_inf) = -M2/M1 is quadrant-blind, which matters for the
optimal-input construction (see optimal_input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalBathError, UnsupportedConditionError
from .states import (PHYSICALITY_RTOL, CovMatrix, GaussianParams, GaussianState, _spectral,
                     _squeezing, _with_det)


@dataclass(frozen=True)
class BathParams:
    """Noisy-channel description (gamma, N, M1, M2)."""

    gamma: float = 1.0
    N: float = 0.0
    M1: float = 0.0
    M2: float = 0.0

    @property
    def m_abs2(self) -> float:
        return self.M1**2 + self.M2**2


@dataclass(frozen=True)
class ChannelAsymptote:
    """Asymptotic purity, squeezing and thermal photon number of a channel."""

    mu_inf: float
    r_inf: float
    phi_inf: float
    nbar_inf: float


def validate_bath(bath: BathParams) -> BathParams:
    """Check finite values, gamma > 0, N >= 0 and the positivity bound |M|^2 <= N(N+1)."""
    _bath_det(bath)
    return bath


def _bath_det(bath: BathParams) -> float:
    """Check the bath; its det sigma_inf = ((2N+1)^2 - 4|M|^2)/4, exactly rounded.

    |M|^2 <= N(N+1) is det sigma_inf >= 1/4, checked with the PHYSICALITY_RTOL
    slack that every covariance gets.  Each square is split into two floats
    that sum to it exactly, and fsum rounds the sum of all terms once.
    """
    if not all(map(math.isfinite, (bath.gamma, bath.N, bath.M1, bath.M2))):
        raise UnphysicalBathError(f"bath parameters must be finite, got {bath}")
    if bath.gamma <= 0:
        raise UnphysicalBathError(f"damping rate must satisfy gamma > 0, got {bath.gamma}")
    if bath.N < 0:
        raise UnphysicalBathError(f"thermal parameter must satisfy N >= 0, got {bath.N}")
    (n, n_lo), (m1, m1_lo), (m2, m2_lo) = map(_square, (2.0 * bath.N, 2.0 * bath.M1,
                                                       2.0 * bath.M2))
    if not math.isfinite(n + n_lo + m1 + m1_lo + m2 + m2_lo):
        raise UnphysicalBathError(f"bath parameters overflow det sigma_inf, got {bath}")
    det = math.fsum((n, n_lo, 4.0 * bath.N, 1.0, -m1, -m1_lo, -m2, -m2_lo)) / 4.0
    if det < 0.25 * (1.0 - PHYSICALITY_RTOL):
        raise UnphysicalBathError(
            f"bath squeezing violates |M|^2 <= N(N+1): |M|^2 = {bath.m_abs2}, "
            f"N(N+1) = {bath.N * (bath.N + 1.0)}, det sigma_inf = {det} < 1/4")
    return det


def _square(a: float):
    """(a*a, its rounding error): two floats whose sum is a^2 exactly (Veltkamp-Dekker)."""
    hi = a * a
    split = 134217729.0 * a                # 2^27 + 1 splits a into two 26-bit halves
    ah = split - (split - a)
    al = a - ah
    return hi, ((ah * ah - hi) + 2.0 * ah * al) + al * al


def asymptotic_cov(bath: BathParams) -> CovMatrix:
    """Asymptotic covariance sigma_inf of the channel, carrying its exactly rounded det."""
    half = (2.0 * bath.N + 1.0) / 2.0
    return _with_det(half + bath.M1, half - bath.M1, bath.M2, _bath_det(bath))


def channel_asymptote(bath: BathParams) -> ChannelAsymptote:
    """Asymptotic (mu, r, phi, nbar) reached by every input state."""
    mu_inf = 0.5 / math.sqrt(asymptotic_cov(bath).det)
    # sigma_inf has 2*sxp = 2*M2 and spp - sxx = -2*M1
    r_inf, phi_inf = _squeezing(mu_inf, 2.0 * bath.M2, -2.0 * bath.M1)
    return ChannelAsymptote(mu_inf=mu_inf, r_inf=float(r_inf), phi_inf=float(phi_inf),
                            nbar_inf=(1.0 / mu_inf - 1.0) / 2.0)


def _relaxation(bath: BathParams, t):
    """(e^{-gamma t}, 1 - e^{-gamma t}) on a scalar or an array of times t >= 0.

    1 - e^{-gamma t} comes from expm1, so it keeps its digits at small gamma*t.
    """
    t = np.asarray(t, dtype=float)[()]      # [()]: a 0-d array becomes a numpy scalar
    if (t < 0).any():
        raise ValueError(f"time must be >= 0, got {np.min(t)}")
    gt = bath.gamma * t
    return np.exp(-gt), -np.expm1(-gt)


def _like_t(values):
    """A Python float for a scalar t, the array itself for an array of times."""
    return float(values) if values.ndim == 0 else values


def _evolved(cov: CovMatrix, bath: BathParams, eta, om):
    """(sxx, spp, sxp, det) of sigma(t) = sigma_inf*om + sigma(0)*eta, (eta, om) = _relaxation.

    det is expanded in det(sigma_inf), det(sigma(0)) and tr(adj(sigma_inf) sigma(0)),
    not taken from sigma(t)'s entries, which cancel at large squeezing."""
    sinf = asymptotic_cov(bath)
    cross = sinf.sxx * cov.spp + sinf.spp * cov.sxx - 2.0 * sinf.sxp * cov.sxp
    return (sinf.sxx * om + cov.sxx * eta, sinf.spp * om + cov.spp * eta,
            sinf.sxp * om + cov.sxp * eta,
            sinf.det * om * om + cov.det * eta * eta + cross * om * eta)


def evolve_cov(state: GaussianState, bath: BathParams, t: float) -> GaussianState:
    """Exact state at time t: convex combination of sigma(0) and sigma_inf.

    First moments are damped as e^{-gamma t/2} (the channel absorbs the coherent
    photons of the state); the covariance carries det sigma(t) as mu_of_t expands it.
    """
    state.cov.require_physical()
    cov = _with_det(*(float(v) for v in _evolved(state.cov, bath, *_relaxation(bath, t))))
    damp = float(np.exp(-0.5 * bath.gamma * np.asarray(t, dtype=float)))
    return GaussianState(cov=cov, x0=state.x0 * damp, p0=state.p0 * damp)


def _closed_forms(state0: GaussianParams, bath: BathParams, t):
    """(mu, r, phi, sxx, spp, sxp) of the input state0 at t, each like t, in one pass.

    spp - sxx of sigma(t) comes from -2*M1 and that of sigma(0), not from its
    entries, so r(t) keeps its digits as the squeezing vanishes."""
    cov0, gap0 = _spectral((2.0 * state0.nbar + 1.0) / 2.0, state0.r, state0.phi)
    eta, om = _relaxation(bath, t)
    sxx, spp, sxp, det = _evolved(cov0, bath, eta, om)
    mu = 0.5 / np.sqrt(det)
    return (mu, *_squeezing(mu, 2.0 * sxp, gap0 * eta - 2.0 * bath.M1 * om), sxx, spp, sxp)


def mu_of_t(state0: GaussianParams, bath: BathParams, t):
    """Purity at time t (a scalar or an array) of the evolved state, from the expanded det."""
    return _like_t(_closed_forms(state0, bath, t)[0])


def r_of_t(state0: GaussianParams, bath: BathParams, t):
    """Squeezing magnitude at time t (a scalar or an array), in closed form, exact as r -> 0."""
    return _like_t(_closed_forms(state0, bath, t)[1])


def phi_of_t(state0: GaussianParams, bath: BathParams, t):
    """Squeezing angle at time t (a scalar or an array), normalized to [0, pi).

    atan2 keeps the angle consistent with sigma(t) at all times.  In a thermal
    bath (M = 0) the angle is constant; when the squeezing vanishes it is set to 0.
    """
    return _like_t(_closed_forms(state0, bath, t)[2])


def mu_optimal(mu0: float, bath: BathParams, t: float) -> float:
    """Purity evolution of a non-squeezed input: the optimum at every time."""
    if not 0.0 < mu0 <= 1.0:
        raise ValueError(f"initial purity must lie in (0, 1], got {mu0}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    mu_inf = channel_asymptote(bath).mu_inf
    eta = math.exp(-bath.gamma * t)
    return mu0 * mu_inf / (mu0 + eta * (mu_inf - mu0))


def has_purity_minimum(state0: GaussianParams, bath: BathParams) -> bool:
    """Whether mu(t) dips through an interior minimum in a thermal bath.

    The criterion cosh(2*r0) > max(mu0/mu_inf, mu_inf/mu0) holds only for
    M = 0; squeezed baths are rejected (locate the minimum numerically on
    mu_of_t instead).
    """
    if bath.M1 != 0.0 or bath.M2 != 0.0:
        raise UnsupportedConditionError(
            "the purity-minimum criterion is defined for thermal (M = 0) baths only")
    validate_bath(bath)
    mu0 = state0.mu
    mu_inf = 1.0 / (2.0 * bath.N + 1.0)
    return math.cosh(2.0 * state0.r) > max(mu0 / mu_inf, mu_inf / mu0)


def optimal_input(bath: BathParams) -> GaussianParams:
    """Pure input state whose purity evolution is optimal at every time.

    The input squeezing magnitude equals the asymptotic one, and its angle
    equals the angle of sigma_inf, so the input and bath contributions to
    the determinant of the convex combination cancel exactly and mu(t)
    reduces to mu_optimal(1, bath, t).  In a thermal bath this is a
    coherent state.

    Note: relative to the quadrant-blind branch of tan(2*phi_inf) = -M2/M1
    this angle is the "orthogonal" choice phi + pi/2; expressed through
    the angle of the asymptotic covariance matrix (which is what
    channel_asymptote returns) it coincides with phi_inf itself.
    """
    asym = channel_asymptote(bath)
    return GaussianParams(nbar=0.0, r=asym.r_inf, phi=asym.phi_inf)


def integrate_cov_ode(state: GaussianState, bath: BathParams, t: float,
                      step: float) -> GaussianState:
    """Fixed-step classical RK4 integration of the covariance/mean ODE.

    Purely an independent oracle for evolve_cov; the ODE is linear, so no
    adaptive stepping is warranted.  Matches the closed form to O(step^4).
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    state.cov.require_physical()
    sinf = asymptotic_cov(bath)
    g = bath.gamma
    target = np.array([sinf.sxx, sinf.spp, sinf.sxp, 0.0, 0.0])
    rate = np.array([g, g, g, 0.5 * g, 0.5 * g])
    y = np.array([state.cov.sxx, state.cov.spp, state.cov.sxp, state.x0, state.p0])

    def f(y):
        return rate * (target - y)

    n_steps = max(1, int(math.ceil(t / step - 1e-12)))
    h = t / n_steps
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return GaussianState(cov=CovMatrix(sxx=y[0], spp=y[1], sxp=y[2]),
                         x0=y[3], p0=y[4])


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times in units of 1/gamma plus per-time columns."""

    times: np.ndarray        # gamma * t
    mus: np.ndarray
    rs: np.ndarray
    phis: np.ndarray
    sxx: np.ndarray
    spp: np.ndarray
    sxp: np.ndarray
    x0: np.ndarray
    p0: np.ndarray

    @property
    def states(self) -> list:
        """The evolved GaussianState at each time, built on demand, with det 1/(2 mu)^2."""
        return [GaussianState(_with_det(float(a), float(b), float(c), 0.25 / float(mu)**2),
                              float(x), float(p)) for a, b, c, mu, x, p in
                zip(self.sxx, self.spp, self.sxp, self.mus, self.x0, self.p0)]

    def to_csv(self, path):
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma_t", "mu", "r", "phi",
                             "sxx", "spp", "sxp", "x0", "p0"])
            writer.writerows(zip(self.times, self.mus, self.rs, self.phis,
                                 self.sxx, self.spp, self.sxp, self.x0, self.p0))


def trajectory(state0: GaussianParams, bath: BathParams, times) -> Trajectory:
    """Evaluate the analytic evolution on a time grid (physical times)."""
    times = np.asarray(times, dtype=float)
    damp = np.exp(-0.5 * bath.gamma * times)
    return Trajectory(bath.gamma * times, *_closed_forms(state0, bath, times),
                      state0.x0 * damp, state0.p0 * damp)
