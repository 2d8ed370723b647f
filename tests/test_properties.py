"""Property tests of the (nbar, r, phi) <-> sigma core against 50-digit mpmath.

States range over nbar in [0, 50], r in [0, 12] and any phi; baths over
gamma in [0.1, 10] and either N in [0, 10] with |M| up to the bound
sqrt(N(N+1)), or N in [10, 1e6] with |M| up to 0.998 of it.
The relative bound is 1e-12 throughout.  Where a float input fixes the
answer only to a few ulps of some larger quantity, the bound adds that
term explicitly (a few EPS times it), and each such term is named:

* r from float entries of order c = nbar + 1/2 is known to about EPS;
* a quadrature variance is known to EPS in its angle, so to EPS times its
  derivative in the angle;
* r(t) and phi(t) come from sums of bath and input terms, each known to
  EPS of itself, which cancel where the squeezing of sigma(t) vanishes.

det sigma_inf = ((2N+1)^2 - 4|M|^2)/4 is exactly rounded at any N.  The
entries of sigma_inf are known only to EPS of its larger eigenvalue, so the
eigenvalue ratio, (1 + f)/(1 - f) at |M| = f*sqrt(N(N+1)), scales that error
in det sigma(t).  On the bound the ratio is about 16N^2, so on-bound baths
stay at N <= 10 (ratio <= 1764), and larger N keeps f <= 0.998 (ratio <= 999).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gausspurity import (BathParams, GaussianParams, GaussianState, asymptotic_cov,
                         channel_asymptote, evolve_cov, homodyne_variance, mu_of_t,
                         mu_optimal, optimal_input, params_from_cov, purity,
                         sample_q, trajectory)

mpmath = pytest.importorskip("mpmath")

EPS = 2.0**-52
RTOL = 1e-12
GAMMA_T = (0.0, 1e-6, 0.3, 2.0, 40.0)

nbars = st.floats(0.0, 50.0)
squeezings = st.floats(0.0, 12.0)
angles = st.floats(-100.0, 100.0)


@st.composite
def states(draw, max_r=12.0, pure=False):
    return GaussianParams(nbar=0.0 if pure else draw(nbars),
                          r=draw(st.floats(0.0, max_r)), phi=draw(angles))


@st.composite
def baths(draw, squeezed=True):
    on_bound = draw(st.booleans())
    n = draw(st.floats(0.0, 10.0) if on_bound else st.floats(10.0, 1e6))
    fraction = draw(st.floats(0.0, 1.0 if on_bound else 0.998))
    m = fraction * math.sqrt(n * (n + 1.0)) if squeezed else 0.0
    angle = draw(angles)
    return BathParams(gamma=draw(st.floats(0.1, 10.0)), N=n,
                      M1=m * math.cos(angle), M2=m * math.sin(angle))


def _quadrature(p, alpha):
    """c*(e^{-2r} cos^2 alpha + e^{2r} sin^2 alpha) and its derivative in alpha."""
    c, r = (2 * mpmath.mpf(p.nbar) + 1) / 2, mpmath.mpf(p.r)
    return (c * (mpmath.exp(-2 * r) * mpmath.cos(alpha) ** 2
                 + mpmath.exp(2 * r) * mpmath.sin(alpha) ** 2),
            2 * c * mpmath.sinh(2 * r) * mpmath.sin(2 * alpha))


def _sigma0(p):
    """(sxx, spp, sxp) of the state p in mpmath: its principal axes sit at -phi."""
    phi = mpmath.mpf(p.phi)
    c, r = (2 * mpmath.mpf(p.nbar) + 1) / 2, mpmath.mpf(p.r)
    return (_quadrature(p, phi)[0], _quadrature(p, phi + mpmath.pi / 2)[0],
            c * mpmath.sinh(2 * r) * mpmath.sin(2 * phi))


def _close(got, ref, atol=0.0):
    # ulp(0.0), the smallest subnormal: no float lies nearer a tinier reference
    return abs(mpmath.mpf(got) - ref) <= RTOL * abs(ref) + atol + math.ulp(0.0)


def _angle_gap(a, b):
    """|a - b| modulo pi."""
    return abs((mpmath.mpf(a) - b + mpmath.pi / 2) % mpmath.pi - mpmath.pi / 2)


class TestStates:
    @given(states())
    def test_entries_and_purity(self, p):
        cov = GaussianState.from_params(p).cov
        with mpmath.workdps(50):
            for got, ref in zip((cov.sxx, cov.spp, cov.sxp), _sigma0(p)):
                assert _close(got, ref), (got, ref)
            assert _close(purity(cov), 1 / (2 * mpmath.mpf(p.nbar) + 1))

    @given(nbars, squeezings, angles, squeezings, angles)
    def test_purity_depends_on_nbar_alone(self, nbar, r1, phi1, r2, phi2):
        mus = [purity(GaussianState.from_params(GaussianParams(nbar=nbar, r=r, phi=phi)).cov)
               for r, phi in ((0.0, 0.0), (r1, phi1), (r2, phi2))]
        assert mus[0] == mus[1] == mus[2] == GaussianParams(nbar=nbar).mu

    @given(states())
    def test_params_round_trip(self, p):
        back = params_from_cov(GaussianState.from_params(p))
        assert abs(back.nbar - p.nbar) <= RTOL * p.nbar + EPS
        assert abs(back.r - p.r) <= RTOL * p.r + 2 * EPS
        if p.r >= 1e-6:
            # the entries hold 2*phi to about EPS * coth(2r)
            assert _angle_gap(back.phi, mpmath.mpf(p.phi)) <= RTOL + EPS / math.tanh(2 * p.r)

    @given(states(), st.floats(-10.0, 10.0))
    def test_homodyne_variance(self, p, theta):
        got = homodyne_variance(GaussianState.from_params(p), theta)
        with mpmath.workdps(50):
            ref, slope = _quadrature(p, mpmath.mpf(theta) + mpmath.mpf(p.phi))
            assert _close(got, ref, 4 * EPS * abs(slope)), (got, ref)

    @given(states(), st.integers(0, 2**32))
    def test_sample_q_accepts_every_state(self, p, seed):
        assert np.isfinite(sample_q(GaussianState.from_params(p), 16, seed).pairs).all()


def _reference_mu_r_phi(p, bath, gt):
    """mu, r, phi of sigma(t) and the size of the terms of its anisotropy, in mpmath."""
    _, n, m1, m2 = (mpmath.mpf(v) for v in (bath.gamma, bath.N, bath.M1, bath.M2))
    eta = mpmath.exp(-mpmath.mpf(gt))
    half = (2 * n + 1) / 2
    sxx, spp, sxp = (a * (1 - eta) + b * eta
                     for a, b in zip((half + m1, half - m1, m2), _sigma0(p)))
    mu = 1 / (2 * mpmath.sqrt(sxx * spp - sxp * sxp))
    # 2*sxp and spp - sxx of sigma(t) from their own closed forms: at 50 digits
    # the entries cannot resolve a squeezing as small as r = 1e-300
    half_gap = (2 * mpmath.mpf(p.nbar) + 1) / 2 * mpmath.sinh(2 * mpmath.mpf(p.r))
    two_phi = 2 * mpmath.mpf(p.phi)
    two_sxp = 2 * m2 * (1 - eta) + 2 * half_gap * mpmath.sin(two_phi) * eta
    gap = -2 * m1 * (1 - eta) + 2 * half_gap * mpmath.cos(two_phi) * eta
    amplitude = mpmath.hypot(two_sxp, gap)
    terms = 2 * mpmath.hypot(m1, m2) * (1 - eta) + 2 * half_gap * eta
    return (mu, mpmath.asinh(mu * amplitude) / 2,
            (mpmath.atan2(two_sxp, gap) / 2) % mpmath.pi, amplitude, terms)


class TestChannel:
    @given(states(max_r=8.0), baths())
    def test_trajectory(self, p, bath):
        traj = trajectory(p, bath, np.array(GAMMA_T) / bath.gamma)
        with mpmath.workdps(50):
            for i, gt in enumerate(GAMMA_T):
                mu, r, phi, amplitude, terms = _reference_mu_r_phi(p, bath, gt)
                assert _close(traj.mus[i], mu), (gt, traj.mus[i], mu)
                # the anisotropy is known to EPS of its terms: EPS * mu * terms in sinh(2r)
                assert _close(traj.rs[i], r, 2 * EPS * mu * terms / mpmath.cosh(2 * r)), (
                    gt, traj.rs[i], r)
                if r >= 1e-6:
                    assert _angle_gap(traj.phis[i], phi) <= RTOL + 2 * EPS * terms / amplitude

    @given(states(), baths())
    def test_every_input_reaches_the_asymptote(self, p, bath):
        asym = channel_asymptote(bath)
        with mpmath.workdps(60):
            n, m1, m2 = (mpmath.mpf(v) for v in (bath.N, bath.M1, bath.M2))
            det = ((2 * n + 1) ** 2 - 4 * (m1 * m1 + m2 * m2)) / 4
            assert abs(asymptotic_cov(bath).det - det) <= EPS / 2 * det     # exactly rounded
            assert _close(asym.mu_inf, det ** -0.5 / 2)
        assert mu_of_t(p, bath, 80.0 / bath.gamma) == pytest.approx(asym.mu_inf, rel=RTOL)

    @given(states(), baths(squeezed=False), st.sampled_from(GAMMA_T[1:]))
    def test_coherent_input_is_optimal_in_a_thermal_bath(self, p, bath, gt):
        t = gt / bath.gamma
        coherent = mu_of_t(GaussianParams(nbar=p.nbar), bath, t)
        assert coherent == pytest.approx(mu_optimal(p.mu, bath, t), rel=RTOL)
        assert mu_of_t(p, bath, t) <= coherent * (1.0 + RTOL)

    @given(states(pure=True), baths(), st.sampled_from(GAMMA_T[1:]))
    def test_optimal_input_is_optimal_in_a_squeezed_bath(self, p, bath, gt):
        t = gt / bath.gamma
        best = mu_of_t(optimal_input(bath), bath, t)
        assert best == pytest.approx(mu_optimal(1.0, bath, t), rel=RTOL)
        assert mu_of_t(p, bath, t) <= best * (1.0 + RTOL)


@pytest.mark.parametrize("r", [4.0, 8.0, 12.0])
@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_pure_squeezed_vacuum_is_physical(r, phi):
    p = GaussianParams(r=r, phi=phi)
    state = GaussianState.from_params(p)
    assert purity(state.cov) == 1.0
    back = params_from_cov(state)
    assert (back.nbar, back.r, back.phi) == pytest.approx((0.0, r, phi), rel=RTOL, abs=EPS)
    assert sample_q(state, 1_000, 0).n == 1_000
    bath = BathParams(gamma=1.0, N=1.0, M1=0.5, M2=0.3)
    traj = trajectory(p, bath, np.linspace(0.0, 60.0, 31))
    assert traj.mus[0] == 1.0
    assert traj.mus[-1] == pytest.approx(channel_asymptote(bath).mu_inf, rel=RTOL)
    # evolved states carry det(t) from the expansion behind mu(t)
    assert purity(evolve_cov(state, bath, 2.0).cov) == pytest.approx(traj.mus[1], rel=RTOL)
