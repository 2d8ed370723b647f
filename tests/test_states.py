import math

import numpy as np
import pytest

from gausspurity import (CovMatrix, GaussianParams,
                         GaussianState, PhysicalityError, cov_from_params,
                         gaussian_weighted_integral, params_from_cov, purity,
                         purity_by_phase_space_integral, seralian)
from gausspurity.states import _gauss_legendre, _wigner_array

I2 = np.eye(2)
A2 = np.diag([1.0, -1.0])
B2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_params(rng, displaced=True):
    return GaussianParams(
        x0=rng.uniform(-3, 3) if displaced else 0.0,
        p0=rng.uniform(-3, 3) if displaced else 0.0,
        nbar=rng.uniform(0, 10),
        r=rng.uniform(0, 2),
        phi=rng.uniform(0, math.pi))


class TestCovFromParams:
    def test_vacuum(self):
        c = cov_from_params(GaussianParams())
        assert (c.sxx, c.spp, c.sxp) == (0.5, 0.5, 0.0)

    def test_squeezed_thermal(self):
        c = cov_from_params(GaussianParams(nbar=0.5, r=1.5))
        assert c.sxx == pytest.approx(math.exp(-3), rel=1e-13)
        assert c.spp == pytest.approx(math.exp(3), rel=1e-13)
        assert c.sxp == 0.0

    def test_thermal(self):
        c = cov_from_params(GaussianParams(nbar=1.0))
        assert (c.sxx, c.spp, c.sxp) == (1.5, 1.5, 0.0)

    def test_det_depends_on_nbar_only(self, rng):
        for _ in range(200):
            p = random_params(rng)
            det = cov_from_params(p).det
            assert det == pytest.approx((2 * p.nbar + 1) ** 2 / 4, rel=1e-12)

    def test_rejects_negative_nbar(self):
        with pytest.raises(ValueError):
            GaussianParams(nbar=-0.1)

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            GaussianParams(r=-1.0)

    def test_phi_normalized(self):
        p = GaussianParams(r=1.0, phi=math.pi + 0.3)
        assert p.phi == pytest.approx(0.3)
        assert GaussianParams(r=0.0, phi=0.7).phi == 0.0
        # -1e-20 % pi rounds to pi itself, once stored outside [0, pi)
        assert GaussianParams(r=1.0, phi=-1e-20).phi == 0.0


class TestParamsFromCov:
    def test_vacuum(self):
        p = params_from_cov(GaussianState.vacuum())
        assert (p.nbar, p.r, p.phi) == (0.0, 0.0, 0.0)

    def test_thermal(self):
        p = params_from_cov(GaussianState(cov=CovMatrix(1.5, 1.5, 0.0)))
        assert p.nbar == pytest.approx(1.0, abs=1e-12)
        assert p.r == 0.0

    def test_round_trip_fixed(self):
        p0 = GaussianParams(nbar=0.5, r=1.5, phi=math.pi / 8)
        p1 = params_from_cov(GaussianState.from_params(p0))
        assert p1.nbar == pytest.approx(p0.nbar, abs=1e-12)
        assert p1.r == pytest.approx(p0.r, abs=1e-12)
        assert p1.phi == pytest.approx(p0.phi, abs=1e-12)

    def test_round_trip_randomized(self, rng):
        for _ in range(300):
            p0 = random_params(rng)
            p1 = params_from_cov(GaussianState.from_params(p0))
            assert p1.nbar == pytest.approx(p0.nbar, abs=1e-11)
            assert p1.r == pytest.approx(p0.r, abs=1e-11)
            if p0.r > 1e-6:
                assert p1.phi == pytest.approx(p0.phi, abs=1e-9)
            assert p1.x0 == p0.x0 and p1.p0 == p0.p0

    def test_rejects_unphysical(self):
        with pytest.raises(PhysicalityError):
            params_from_cov(GaussianState(cov=CovMatrix(0.3, 0.3, 0.0)))

    def test_squeezing_matches_mpmath(self):
        """r of a state built by from_params is the r it was built from, to r = 12.

        Entries of order c = nbar + 1/2 hold r only to about one ulp of
        itself, hence the absolute 2**-52 next to the relative 1e-12: at
        r = 1e-9 that absolute term is what the entries allow.
        """
        for nbar in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 20.0):
            for r in (1e-9, 1e-6, 1e-3, 3.0, 8.0, 12.0):
                for phi in (0.0, 0.4, math.pi / 4, 2.5):
                    state = GaussianState.from_params(GaussianParams(nbar=nbar, r=r, phi=phi))
                    got = params_from_cov(state).r
                    assert abs(got - r) <= 1e-12 * r + 2.0**-52, (nbar, r, phi, got)

    @pytest.mark.parametrize("r", [1e-9, 1e-6, 1e-3, 3.0])
    def test_squeezing_of_raw_entries_matches_mpmath(self, r):
        """r of raw CovMatrix entries, whose det is their own, in 50-digit arithmetic."""
        mpmath = pytest.importorskip("mpmath")
        for nbar in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 20.0):
            for phi in (0.0, 0.4, math.pi / 4, 2.5):
                c = (2.0 * nbar + 1.0) / 2.0
                # the cosh/sinh form, rounded otherwise than from_params rounds
                cov = CovMatrix(c * (math.cosh(2 * r) - math.sinh(2 * r) * math.cos(2 * phi)),
                                c * (math.cosh(2 * r) + math.sinh(2 * r) * math.cos(2 * phi)),
                                c * math.sinh(2 * r) * math.sin(2 * phi))
                with mpmath.workdps(50):
                    sxx, spp, sxp = (mpmath.mpf(v) for v in (cov.sxx, cov.spp, cov.sxp))
                    mu = 1 / (2 * mpmath.sqrt(sxx * spp - sxp * sxp))
                    ref = mpmath.asinh(mu * mpmath.sqrt((sxx - spp) ** 2 + 4 * sxp * sxp)) / 2
                got = params_from_cov(GaussianState(cov=cov)).r
                assert abs(got - ref) <= 1e-12 * ref, (nbar, r, phi, got)


class TestPurity:
    def test_vacuum(self):
        assert purity(CovMatrix(0.5, 0.5, 0.0)) == 1.0

    def test_squeezed_thermal_half(self):
        c = cov_from_params(GaussianParams(nbar=0.5, r=1.5))
        assert purity(c) == pytest.approx(0.5, rel=1e-12)

    def test_thermal_third(self):
        assert purity(CovMatrix(1.5, 1.5, 0.0)) == pytest.approx(1 / 3, rel=1e-12)

    def test_rejects_unphysical(self):
        with pytest.raises(PhysicalityError):
            purity(CovMatrix(0.4, 0.4, 0.0))

    def test_universality(self, rng):
        for _ in range(100):
            nbar = rng.uniform(0, 10)
            mus = {purity(cov_from_params(GaussianParams(
                nbar=nbar, r=rng.uniform(0, 2), phi=rng.uniform(0, math.pi))))
                for _ in range(5)}
            for mu in mus:
                assert mu == pytest.approx(1 / (2 * nbar + 1), abs=1e-12)

    def test_from_nbar(self):
        assert GaussianParams(nbar=0.0).mu == 1.0
        assert GaussianParams(nbar=0.5).mu == 0.5
        assert GaussianParams(nbar=9.5).mu == pytest.approx(0.05)
        with pytest.raises(ValueError, match="nbar must be >= 0"):
            GaussianParams(nbar=-1e-3)


class TestWigner:
    def test_vacuum_peak(self):
        w = _wigner_array(GaussianState.vacuum(), 0.0, 0.0)
        assert w == pytest.approx(1 / math.pi, rel=1e-13)

    def test_vacuum_off_center(self):
        w = _wigner_array(GaussianState.vacuum(), 1.0, 0.0)
        assert w == pytest.approx(math.exp(-1) / math.pi, rel=1e-13)

    def test_thermal_peak(self):
        w = _wigner_array(GaussianState.from_params(GaussianParams(nbar=1.0)), 0.0, 0.0)
        assert w == pytest.approx(1 / (3 * math.pi), rel=1e-13)

    def test_positive_and_maximal_at_mean(self, rng):
        p = random_params(rng)
        st = GaussianState.from_params(p)
        peak = _wigner_array(st, p.x0, p.p0)
        assert peak > 0
        w = _wigner_array(st, rng.uniform(-5, 5, 20), rng.uniform(-5, 5, 20))
        assert np.all((0 < w) & (w <= peak))


class TestPhaseSpaceIntegral:
    def test_vacuum(self):
        st = GaussianState.vacuum()
        assert purity_by_phase_space_integral(st) == pytest.approx(1.0, abs=1e-6)

    def test_squeezed_thermal(self):
        st = GaussianState.from_params(GaussianParams(nbar=0.5, r=1.5))
        assert purity_by_phase_space_integral(st) == pytest.approx(0.5, abs=1e-6)

    def test_thermal(self):
        st = GaussianState.from_params(GaussianParams(nbar=1.0))
        assert purity_by_phase_space_integral(st) == pytest.approx(1 / 3, abs=1e-6)

    def test_matches_closed_form_randomized(self, rng):
        for _ in range(10):
            p = random_params(rng)
            st = GaussianState.from_params(p)
            assert purity_by_phase_space_integral(st) == pytest.approx(
                purity(st.cov), abs=1e-6)

    def test_cached_quadrature_rule_is_read_only(self):
        nodes, weights = _gauss_legendre(40)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(40)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)
        assert _gauss_legendre(40)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights *= 2.0


def _seralian_integrand(state, gamma):
    cov = state.cov
    det = cov.det
    inv = np.array([[cov.spp, -cov.sxp], [-cov.sxp, cov.sxx]]) / det
    m = inv @ gamma @ inv
    trace = np.trace(gamma @ inv)

    def f(x, p):
        dx, dp = x - state.x0, p - state.p0
        return (m[0, 0] * dx * dx + 2 * m[0, 1] * dx * dp
                + m[1, 1] * dp * dp) - trace

    return f


class TestSeralian:
    def test_origin(self):
        assert seralian([0, 0], CovMatrix(0.5, 0.5, 0.0), I2) == pytest.approx(-4.0)

    def test_displaced(self):
        assert seralian([1, 0], CovMatrix(0.5, 0.5, 0.0), I2) == pytest.approx(0.0)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            seralian([1, 0], np.zeros((2, 2)), I2)

    def test_weighted_integral_vanishes(self, rng):
        for _ in range(8):
            p = random_params(rng)
            st = GaussianState.from_params(p)
            gamma = (rng.uniform(-1, 1) * I2 + rng.uniform(-1, 1) * A2
                     + rng.uniform(-1, 1) * B2)
            val = gaussian_weighted_integral(st, _seralian_integrand(st, gamma))
            assert abs(val) < 1e-8


class TestPhysicality:
    def test_constructed_matrices_physical(self, rng):
        for _ in range(200):
            c = cov_from_params(random_params(rng))
            assert c.det >= 0.25 - 1e-12
            assert c.is_physical()

    def test_tolerance_band(self):
        # just inside the float-noise band
        eps = 0.25 * (1 - 0.5e-10)
        assert CovMatrix(math.sqrt(eps), math.sqrt(eps), 0.0).is_physical()
        assert not CovMatrix(0.49, 0.49, 0.0).is_physical()
