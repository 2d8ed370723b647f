"""Gaussian-state evolution in thermal and squeezed-thermal noisy channels.

A Markovian bath is described by the damping rate gamma (inverse photon
lifetime), a thermal parameter N and a complex squeezing M = M1 + i*M2
with |M|^2 <= N(N+1).  A BathParams is checked when it is built and carries
its exactly rounded det sigma_inf, so no function re-checks a bath.  At the
covariance level the dynamics is the linear
matrix equation

    d(sigma)/dt = gamma * (sigma_inf - sigma),     dX0/dt = -gamma/2 * X0,

whose solution is the convex combination
sigma(t) = sigma_inf*(1 - e^{-gamma t}) + sigma(0)*e^{-gamma t}.  The
closed forms for purity, squeezing magnitude and squeezing angle along
the trajectory all come from one pass over that combination, and the purity
alone stops before the squeezing.  A fixed-step Runge-Kutta integrator of the
same ODE is provided as an independent oracle; it steps each component in
Python floats, with the bits of a numpy 5-vector step at about 1/8 its cost.

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
from .states import (PHYSICALITY_RTOL, CovMatrix, GaussianParams, GaussianState, _finite,
                     _number, _spectral, _squeezing, _with_det)

# Most RK4 steps one integrate_cov_ode call may take: a bound on the oracle's work.
ODE_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class BathParams:
    """Noisy-channel description (gamma, N, M1, M2), checked when it is built.

    Finite values, gamma > 0, N >= 0 and |M|^2 <= N(N+1), which is
    det sigma_inf = ((2N+1)^2 - 4|M|^2)/4 >= 1/4, checked with the
    PHYSICALITY_RTOL slack that every covariance gets.  Each square is split
    into two floats that sum to it exactly, and fsum rounds the sum of all
    terms once, so the bath carries its det sigma_inf exactly rounded.
    """

    gamma: float = 1.0
    N: float = 0.0
    M1: float = 0.0
    M2: float = 0.0
    _det = None         # not a field: det sigma_inf, exactly rounded

    def __post_init__(self):
        values = (self.gamma, self.N, self.M1, self.M2)
        if not all(map(_number, values)):
            raise UnphysicalBathError(f"bath parameters must be real numbers, got {self}")
        if not all(map(_finite, values)):
            raise UnphysicalBathError(f"bath parameters must be finite, got {self}")
        if self.gamma <= 0:
            raise UnphysicalBathError(f"damping rate must satisfy gamma > 0, got {self.gamma}")
        if self.N < 0:
            raise UnphysicalBathError(f"thermal parameter must satisfy N >= 0, got {self.N}")
        (n, n_lo), (m1, m1_lo), (m2, m2_lo) = map(_square, (2.0 * self.N, 2.0 * self.M1,
                                                           2.0 * self.M2))
        if not math.isfinite(n + n_lo + m1 + m1_lo + m2 + m2_lo):
            raise UnphysicalBathError(f"bath parameters overflow det sigma_inf, got {self}")
        det = math.fsum((n, n_lo, 4.0 * self.N, 1.0, -m1, -m1_lo, -m2, -m2_lo)) / 4.0
        if det < 0.25 * (1.0 - PHYSICALITY_RTOL):
            raise UnphysicalBathError(
                f"bath squeezing violates |M|^2 <= N(N+1): |M|^2 = {self.m_abs2}, "
                f"N(N+1) = {self.N * (self.N + 1.0)}, det sigma_inf = {det} < 1/4")
        object.__setattr__(self, "_det", det)

    @property
    def m_abs2(self) -> float:
        return self.M1 * self.M1 + self.M2 * self.M2


@dataclass(frozen=True)
class ChannelAsymptote:
    """Asymptotic purity, squeezing and thermal photon number of a channel."""

    mu_inf: float
    r_inf: float
    phi_inf: float
    nbar_inf: float


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
    return _with_det(half + bath.M1, half - bath.M1, bath.M2, bath._det)


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
    if not (t >= 0).all():                  # NaN fails t >= 0
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


def _purity_forms(state0: GaussianParams, bath: BathParams, t):
    """(mu, (sxp, gap0, eta, om)) of the input state0 at t, each like t.

    The purity, then sxp of sigma(t), spp - sxx of sigma(0) and _relaxation(bath, t),
    from which _closed_forms goes on to the squeezing."""
    cov0, gap0 = _spectral((2.0 * state0.nbar + 1.0) / 2.0, state0.r, state0.phi)
    eta, om = _relaxation(bath, t)
    _, _, sxp, det = _evolved(cov0, bath, eta, om)
    return 0.5 / np.sqrt(det), (sxp, gap0, eta, om)


def _closed_forms(state0: GaussianParams, bath: BathParams, t):
    """(mu, r, phi) of the input state0 at t, each like t, in one pass.

    spp - sxx of sigma(t) comes from -2*M1 and that of sigma(0), not from its
    entries, so r(t) keeps its digits as the squeezing vanishes."""
    mu, (sxp, gap0, eta, om) = _purity_forms(state0, bath, t)
    return (mu, *_squeezing(mu, 2.0 * sxp, gap0 * eta - 2.0 * bath.M1 * om))


def mu_of_t(state0: GaussianParams, bath: BathParams, t):
    """Purity at time t (a scalar or an array) of the evolved state, from the expanded det."""
    return _like_t(_purity_forms(state0, bath, t)[0])


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
    """Purity evolution of a non-squeezed input: the optimum at every time.

    mu0*mu_inf / (mu0*(1 - e^{-gamma t}) + mu_inf*e^{-gamma t}) sums two positive
    terms, so it keeps its digits at small gamma*t whatever mu_inf/mu0 is."""
    if not 0.0 < mu0 <= 1.0:
        raise ValueError(f"initial purity must lie in (0, 1], got {mu0}")
    mu_inf = channel_asymptote(bath).mu_inf
    eta, om = _relaxation(bath, t)
    return _like_t(mu0 * mu_inf / (mu0 * om + mu_inf * eta))


def has_purity_minimum(state0: GaussianParams, bath: BathParams) -> bool:
    """Whether mu(t) dips through an interior minimum in a thermal bath.

    The criterion cosh(2*r0) > max(mu0/mu_inf, mu_inf/mu0) holds only for
    M = 0; squeezed baths are rejected (locate the minimum numerically on
    mu_of_t instead).
    """
    if bath.M1 != 0.0 or bath.M2 != 0.0:
        raise UnsupportedConditionError(
            "the purity-minimum criterion is defined for thermal (M = 0) baths only")
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
    The five components (sxx, spp, sxp, x0, p0) do not couple, so each is
    stepped alone in Python floats, in the operation order of the 5-vector
    numpy step (h*k/2 as (h/2)*k, the stage sum left to right); IEEE rounding
    is the same on a float as on an array element, so the bits are too.
    A call takes at most ODE_MAX_STEPS steps, under 2 s, of gamma*h <= 2.78 (RK4
    diverges past about 2.785); any other call raises ValueError.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    # checked without t/step, which may overflow to inf before ceil sees it
    if t > ODE_MAX_STEPS * step:
        raise ValueError(f"t = {t} takes more than {ODE_MAX_STEPS:.0e} RK4 steps "
                         f"of {step}")
    state.cov.require_physical()
    sinf = asymptotic_cov(bath)
    g = float(bath.gamma)
    n_steps = max(1, int(math.ceil(t / step - 1e-12)))
    h = float(t / n_steps)
    if g * h > 2.78:
        raise ValueError(f"gamma*h = {g * h} > 2.78 nears RK4's real-axis stability bound "
                         "of about 2.785, past which it diverges; take a smaller step")
    hh, h6 = 0.5 * h, h / 6.0
    out = []
    for y, rate, target in ((state.cov.sxx, g, sinf.sxx), (state.cov.spp, g, sinf.spp),
                            (state.cov.sxp, g, sinf.sxp), (state.x0, 0.5 * g, 0.0),
                            (state.p0, 0.5 * g, 0.0)):
        y, target = float(y), float(target)
        for _ in range(n_steps):
            k1 = rate * (target - y)
            k2 = rate * (target - (y + hh * k1))
            k3 = rate * (target - (y + hh * k2))
            k4 = rate * (target - (y + h * k3))
            y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    sxx, spp, sxp, x0, p0 = out
    return GaussianState(cov=CovMatrix(sxx=sxx, spp=spp, sxp=sxp), x0=x0, p0=p0)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times in units of 1/gamma plus the closed forms at each."""

    times: np.ndarray        # gamma * t
    mus: np.ndarray
    rs: np.ndarray
    phis: np.ndarray


def trajectory(state0: GaussianParams, bath: BathParams, times) -> Trajectory:
    """Evaluate the analytic evolution on a time grid (physical times)."""
    times = np.asarray(times, dtype=float)
    return Trajectory(bath.gamma * times, *_closed_forms(state0, bath, times))
