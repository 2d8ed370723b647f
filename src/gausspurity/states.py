"""Single-mode Gaussian states in the covariance-matrix representation.

Conventions: hbar = 1 and x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2),
so the vacuum has quadrature variance 1/2 and every physical covariance
matrix satisfies det(sigma) >= 1/4.

A state is described either phenomenologically, by displacement (x0, p0),
mean thermal photon number nbar, squeezing magnitude r and squeezing angle
phi, or canonically by the first-moment vector and the symmetric 2x2
covariance matrix.  With c = (2*nbar + 1)/2 the two are connected by

    sigma_xx = c * (e^{-2r}*cos(phi)^2 + e^{2r}*sin(phi)^2)
    sigma_pp = c * (e^{-2r}*sin(phi)^2 + e^{2r}*cos(phi)^2)
    sigma_xp = c * sinh(2r)*sin(2*phi),

sums and products that cancel at no squeezing.  Such a covariance carries its
exact det c^2, so the purity mu = 1/(2*sqrt(det sigma)) = 1/(2*nbar + 1),
independent of displacement and squeezing, holds to the last bit at any r.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PhysicalityError

VACUUM_VAR = 0.5

# Relative slack on det(sigma) >= 1/4, absorbs float noise from round-trips.
PHYSICALITY_RTOL = 1e-10

# Below this squeezing magnitude the angle is undefined; fixed to phi = 0.
_R_EPS = 1e-12

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Quadrature box half-width in sigmas (a tail mass of 1.2e-15 per axis), orders, tolerances.
_BOX_SIGMAS = 8.0
_QUAD_ORDERS = (40, 80, 160, 320, 640, 1280)
_QUAD_RTOL, _QUAD_ATOL = 1e-8, 1e-10


def _number(v, kind=(float, numbers.Real)) -> bool:    # float first skips a slow ABC check
    """Whether v is a number of kind; a bool, which JSON true and false become, is not."""
    return isinstance(v, kind) and not isinstance(v, bool)


def _finite(v) -> bool:
    """math.isfinite(v), but False, not OverflowError, for an int too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _angle(phi, r):
    """phi mod pi in [0, pi) on floats or arrays: pi, which a tiny negative phi rounds
    up to, becomes 0, as does the angle where r < _R_EPS, which is undefined."""
    phi = phi % math.pi
    return phi * ((phi != math.pi) & (r >= _R_EPS))


@dataclass(frozen=True)
class GaussianParams:
    """Phenomenological parametrization (x0, p0, nbar, r, phi).

    phi is stored normalized to [0, pi) since phi and phi + pi describe the
    same state; when r vanishes the angle is meaningless and is set to 0.
    """

    x0: float = 0.0
    p0: float = 0.0
    nbar: float = 0.0
    r: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        values = (self.x0, self.p0, self.nbar, self.r, self.phi)
        if not all(map(_number, values)):
            raise ValueError(f"state parameters must be real numbers, got {self}")
        if not all(map(_finite, values)):
            raise ValueError(f"state parameters must be finite, got {self}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        # the largest entry of sigma is about (nbar + 1/2) * e^{2r}
        if 2.0 * self.r + max(0.0, math.log(self.nbar + 0.5)) > _LOG_FLOAT_MAX:
            raise ValueError(f"r = {self.r} at nbar = {self.nbar} overflows the "
                             "covariance entries")
        object.__setattr__(self, "phi", float(_angle(self.phi, self.r)))

    @property
    def mu(self) -> float:
        """Purity 1/(2*nbar + 1) of the state."""
        return 1.0 / (2.0 * self.nbar + 1.0)


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric 2x2 quadrature covariance matrix (sigma_xx, sigma_pp, sigma_xp)."""

    sxx: float
    spp: float
    sxp: float = 0.0
    _det = None         # not a field: det, where known more exactly than from the entries

    @property
    def det(self) -> float:
        return self.sxx * self.spp - self.sxp * self.sxp if self._det is None else self._det

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.sxx, self.sxp], [self.sxp, self.spp]])

    def is_physical(self) -> bool:
        return (self.sxx > 0 and self.spp > 0
                and self.det >= 0.25 * (1.0 - PHYSICALITY_RTOL))

    def require_physical(self) -> "CovMatrix":
        if not self.is_physical():
            raise PhysicalityError(
                f"unphysical covariance matrix: sxx={self.sxx}, spp={self.spp}, "
                f"sxp={self.sxp}, det={self.det} < 1/4")
        return self


@dataclass(frozen=True)
class GaussianState:
    """First moments plus covariance matrix: the canonical representation."""

    cov: CovMatrix
    x0: float = 0.0
    p0: float = 0.0

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.x0, self.p0])

    @classmethod
    def from_params(cls, params: GaussianParams) -> "GaussianState":
        return cls(cov=cov_from_params(params), x0=params.x0, p0=params.p0)

    @classmethod
    def vacuum(cls) -> "GaussianState":
        return cls(cov=CovMatrix(VACUUM_VAR, VACUUM_VAR, 0.0))


def _with_det(sxx, spp, sxp, det) -> CovMatrix:
    """A CovMatrix that carries det, known more exactly than its entries give it."""
    object.__setattr__(cov := CovMatrix(sxx=sxx, spp=spp, sxp=sxp), "_det", det)
    return cov


def _spectral(c: float, r: float, phi: float):
    """(sigma, carrying det c^2, and spp - sxx, which the entries lose as r -> 0)."""
    em, ep = math.exp(-2.0 * r), math.exp(2.0 * r)
    cos, sin, half_gap = math.cos(phi), math.sin(phi), c * math.sinh(2.0 * r)
    sxx, spp = c * (em * cos * cos + ep * sin * sin), c * (em * sin * sin + ep * cos * cos)
    return (_with_det(sxx, spp, half_gap * math.sin(2.0 * phi), c * c),
            2.0 * half_gap * math.cos(2.0 * phi))


def _squeezing(mu, two_sxp, gap):
    """(r, phi) from mu, 2*sxp and gap = spp - sxx, like them: _spectral inverted.

    asinh keeps the digits of r as r -> 0, and atan2 resolves the quadrant of 2*phi."""
    r = 0.5 * np.arcsinh(mu * np.hypot(two_sxp, gap))
    return r, _angle(0.5 * np.arctan2(two_sxp, gap), r)


def cov_from_params(params: GaussianParams) -> CovMatrix:
    """Covariance matrix of the state (x0, p0, nbar, r, phi)."""
    return _spectral((2.0 * params.nbar + 1.0) / 2.0, params.r, params.phi)[0]


def params_from_cov(state: GaussianState) -> GaussianParams:
    """Invert cov_from_params: nbar from det = (2*nbar+1)^2/4, (r, phi) by _squeezing."""
    cov, mu = state.cov, purity(state.cov)
    r, phi = _squeezing(mu, 2.0 * cov.sxp, cov.spp - cov.sxx)
    return GaussianParams(x0=state.x0, p0=state.p0, nbar=max(0.0, (1.0 / mu - 1.0) / 2.0),
                          r=float(r), phi=float(phi))


def purity(cov: CovMatrix) -> float:
    """mu = 1/(2*sqrt(det sigma)), in (0, 1] for physical matrices."""
    cov.require_physical()
    return 1.0 / (2.0 * math.sqrt(cov.det))


def _wigner_array(state: GaussianState, x, p):
    """Wigner density evaluated elementwise on arrays of phase-space points.

    Normalized over dx dp (unit integral, vacuum peak 1/pi)."""
    cov = state.cov
    det = cov.sxx * cov.spp - cov.sxp * cov.sxp    # from the entries: an independent oracle
    dx = np.asarray(x, dtype=float) - state.x0
    dp = np.asarray(p, dtype=float) - state.p0
    # sigma^{-1} written out for the 2x2 symmetric case
    quad = (cov.spp * dx * dx - 2.0 * cov.sxp * dx * dp + cov.sxx * dp * dp) / det
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gaussian_weighted_integral(state: GaussianState,
                               integrand: Callable[[np.ndarray, np.ndarray], np.ndarray]
                               ) -> float:
    """Integral of integrand(x, p) * W(x, p) over phase space.

    Tensor-product Gauss-Legendre quadrature on a box aligned with the
    principal axes of the covariance matrix, extending _BOX_SIGMAS standard
    deviations along each axis.  The order is doubled until two successive
    values agree to _QUAD_RTOL (plus _QUAD_ATOL for integrals near zero).
    """
    state.cov.require_physical()
    evals, evecs = np.linalg.eigh(state.cov.matrix)
    half = _BOX_SIGMAS * np.sqrt(evals)
    prev = None
    for order in _QUAD_ORDERS:
        t, w = _gauss_legendre(order)
        u0 = half[0] * t
        u1 = half[1] * t
        U0, U1 = np.meshgrid(u0, u1, indexing="ij")
        X = state.x0 + evecs[0, 0] * U0 + evecs[0, 1] * U1
        P = state.p0 + evecs[1, 0] * U0 + evecs[1, 1] * U1
        vals = integrand(X, P) * _wigner_array(state, X, P)
        total = float(half[0] * half[1] * np.einsum("i,j,ij->", w, w, vals))
        if prev is not None and abs(total - prev) <= _QUAD_RTOL * abs(total) + _QUAD_ATOL:
            return total
        prev = total
    raise RuntimeError(f"quadrature did not converge below order {_QUAD_ORDERS[-1]}")


def purity_by_phase_space_integral(state: GaussianState) -> float:
    """Numerical purity from the overlap integral of the Wigner function.

    mu = 2*pi * Int W^2 dx dp for the unit-normalized W used here (the
    same quantity as (pi/2) * Int W^2 in the d^2(alpha)-normalized
    convention).  Independent oracle for purity(); agrees with the
    closed form to well below 1e-6.
    """
    w = lambda x, p: _wigner_array(state, x, p)
    return 2.0 * math.pi * gaussian_weighted_integral(state, w)


def seralian(X, sigma, gamma) -> float:
    """Scalar X sigma^{-1} gamma sigma^{-1} X^T - Tr[gamma sigma^{-1}].

    Its Gaussian-weighted phase-space integral vanishes for any symmetric
    gamma, which is what decouples the diffusion terms from the
    first-moment dynamics in a noisy channel.
    """
    m = sigma.matrix if isinstance(sigma, CovMatrix) else np.asarray(sigma, dtype=float)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-300:
        raise ValueError("singular covariance matrix")
    inv = np.linalg.inv(m)
    X = np.asarray(X, dtype=float)
    g = np.asarray(gamma, dtype=float)
    return float(X @ inv @ g @ inv @ X - np.trace(g @ inv))
