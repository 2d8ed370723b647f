import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspurity import (BathParams, CovMatrix, GaussianParams, GaussianState,
                         PhysicalityError, Trajectory, UnphysicalBathError,
                         UnsupportedConditionError, asymptotic_cov,
                         channel_asymptote, evolve_cov,
                         has_purity_minimum, integrate_cov_ode, mu_of_t,
                         mu_optimal, optimal_input, params_from_cov,
                         phi_of_t, purity, r_of_t, trajectory)

VACUUM_BATH = BathParams(gamma=1.0, N=0.0, M1=0.0, M2=0.0)
THERMAL_BATH = BathParams(gamma=1.0, N=1.0, M1=0.0, M2=0.0)
SQUEEZED_BATH = BathParams(gamma=1.0, N=1.0, M1=0.5, M2=0.0)


def random_bath(rng):
    n = rng.uniform(0.0, 3.0)
    mmax = math.sqrt(n * (n + 1))
    mabs = rng.uniform(0.0, 0.95 * mmax)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return BathParams(gamma=rng.uniform(0.2, 3.0), N=n,
                      M1=mabs * math.cos(ang), M2=mabs * math.sin(ang))


class TestBathValidation:
    def test_good_baths_pass(self, rng):
        for _ in range(20):
            random_bath(rng)

    def test_boundary_m_allowed(self):
        n = 1.0
        BathParams(N=n, M1=math.sqrt(n * (n + 1)), M2=0.0)

    def test_large_n_bound_has_the_physicality_slack(self):
        # a relative 1e-12 on |M|^2 once let this bath through with mu_inf = 1.000002
        n = 1000.0
        with pytest.raises(UnphysicalBathError):
            BathParams(N=n, M1=math.sqrt(n * (n + 1) * (1 + 1e-12)))
        m = math.sqrt(n * (n + 1)) * (1 - 1e-12)
        inside = BathParams(N=n, M1=m * math.cos(0.3), M2=m * math.sin(0.3))
        exact = (Fraction(2 * n + 1) ** 2 - 4 * Fraction(inside.M1) ** 2
                 - 4 * Fraction(inside.M2) ** 2) / 4
        assert asymptotic_cov(inside).det == float(exact)       # exactly rounded
        assert channel_asymptote(inside).mu_inf <= 1.0

    def test_too_much_correlation(self):
        with pytest.raises(UnphysicalBathError):
            BathParams(N=1.0, M1=1.5, M2=0.0)

    def test_negative_occupation(self):
        with pytest.raises(UnphysicalBathError):
            BathParams(N=-0.1)

    def test_nonpositive_rate(self):
        with pytest.raises(UnphysicalBathError):
            BathParams(gamma=0.0, N=1.0)

    def test_replace_checks_the_new_bath(self):
        with pytest.raises(UnphysicalBathError):
            replace(SQUEEZED_BATH, M1=1.5)
        assert asymptotic_cov(replace(SQUEEZED_BATH, M2=0.3)).det == pytest.approx(
            (9.0 - 4.0 * (0.25 + 0.09)) / 4.0, rel=1e-15)

    def test_det_is_not_a_field(self):
        # a field would be echoed into every JSON report and break from_dict
        bath = BathParams(gamma=2.0, N=1.0, M1=0.5, M2=0.3)
        assert asdict(bath) == {"gamma": 2.0, "N": 1.0, "M1": 0.5, "M2": 0.3}
        assert BathParams(**asdict(bath)) == bath


class TestAsymptote:
    def test_thermal_bath_cov(self):
        cov = asymptotic_cov(THERMAL_BATH)
        assert cov.sxx == pytest.approx(1.5)
        assert cov.spp == pytest.approx(1.5)
        assert cov.sxp == 0.0

    def test_squeezed_bath_cov(self):
        cov = asymptotic_cov(SQUEEZED_BATH)
        assert cov.sxx == pytest.approx(2.0)
        assert cov.spp == pytest.approx(1.0)
        assert cov.sxp == 0.0

    def test_thermal_asymptote(self):
        a = channel_asymptote(THERMAL_BATH)
        assert a.mu_inf == pytest.approx(1 / 3)
        assert a.r_inf == 0.0
        assert a.phi_inf == 0.0
        assert a.nbar_inf == pytest.approx(1.0)

    def test_squeezed_asymptote(self):
        a = channel_asymptote(SQUEEZED_BATH)
        assert a.mu_inf == pytest.approx(1 / math.sqrt(8))
        assert a.r_inf == pytest.approx(0.1732868, abs=1e-6)
        assert a.phi_inf == pytest.approx(math.pi / 2)

    def test_pure_boundary_bath(self):
        # |M|^2 = N(N+1) leaves the stationary state pure
        n = 0.5
        a = channel_asymptote(BathParams(N=n, M1=math.sqrt(n * (n + 1))))
        assert a.mu_inf == pytest.approx(1.0)
        assert a.nbar_inf == pytest.approx(0.0, abs=1e-12)

    def test_asymptote_matches_cov_decomposition(self, rng):
        for _ in range(20):
            bath = random_bath(rng)
            a = channel_asymptote(bath)
            p = params_from_cov(GaussianState(cov=asymptotic_cov(bath)))
            assert a.mu_inf == pytest.approx(p.mu, rel=1e-10)
            assert a.r_inf == pytest.approx(p.r, abs=1e-9)
            if a.r_inf > 1e-6:
                assert a.phi_inf == pytest.approx(p.phi, abs=1e-9)

    @pytest.mark.parametrize("n_bath", [1e-6, 0.01, 0.5, 1.0, 3.0, 20.0])
    def test_weakly_squeezed_asymptote_matches_mpmath(self, n_bath):
        # r_inf = asinh(2 mu_inf |M|)/2 in 50-digit arithmetic, |M| from
        # far below to on the bound N(N+1)
        mpmath = pytest.importorskip("mpmath")
        for frac in (1e-9, 1e-6, 1e-3, 0.3, 0.9, 1.0):
            for angle in (0.0, 1.0, 4.0):
                m = frac * math.sqrt(n_bath * (n_bath + 1.0))
                bath = BathParams(N=n_bath, M1=m * math.cos(angle),
                                  M2=m * math.sin(angle))
                with mpmath.workdps(50):
                    n, m1, m2 = (mpmath.mpf(v) for v in (bath.N, bath.M1, bath.M2))
                    m_abs2 = m1 * m1 + m2 * m2
                    mu_inf = ((2 * n + 1) ** 2 - 4 * m_abs2) ** mpmath.mpf(-0.5)
                    ref = float(mpmath.asinh(2 * mu_inf * mpmath.sqrt(m_abs2)) / 2)
                r_inf = channel_asymptote(bath).r_inf
                assert abs(r_inf - ref) <= 1e-12 * ref, (frac, angle, r_inf, ref)

    def test_weakly_squeezed_bath_keeps_its_angle(self):
        bath = BathParams(N=1.0, M1=-0.6e-8, M2=0.8e-8)
        a = channel_asymptote(bath)
        assert a.r_inf == pytest.approx(1e-8 / math.sqrt(9.0), rel=1e-12)
        angle = (0.5 * math.atan2(2.0 * bath.M2, -2.0 * bath.M1)) % math.pi
        assert a.phi_inf == angle != 0.0
        assert optimal_input(bath).phi == angle


class TestEvolveCov:
    def test_vacuum_into_thermal_bath(self):
        out = evolve_cov(GaussianState.vacuum(), THERMAL_BATH, 1.0)
        expected = 1.5 + (0.5 - 1.5) * math.exp(-1.0)
        assert out.cov.sxx == pytest.approx(expected)
        assert out.cov.spp == pytest.approx(expected)
        assert expected == pytest.approx(1.13212, abs=1e-5)

    def test_mean_damping(self):
        st = GaussianState(cov=GaussianState.vacuum().cov, x0=2.0, p0=-4.0)
        out = evolve_cov(st, BathParams(gamma=2.0, N=0.0), 1.0)
        assert out.x0 == pytest.approx(2.0 * math.exp(-1.0))
        assert out.p0 == pytest.approx(-4.0 * math.exp(-1.0))

    def test_endpoints(self, rng):
        st0 = GaussianState.from_params(GaussianParams(nbar=0.3, r=1.0, phi=0.7))
        bath = random_bath(rng)
        at0 = evolve_cov(st0, bath, 0.0).cov
        assert (at0.sxx, at0.spp, at0.sxp) == (st0.cov.sxx, st0.cov.spp, st0.cov.sxp)
        late = evolve_cov(st0, bath, 60.0 / bath.gamma).cov
        target = asymptotic_cov(bath)
        assert late.sxx == pytest.approx(target.sxx, abs=1e-9)
        assert late.sxp == pytest.approx(target.sxp, abs=1e-9)

    def test_stays_physical(self, rng):
        for _ in range(30):
            bath = random_bath(rng)
            st0 = GaussianState.from_params(GaussianParams(
                nbar=rng.uniform(0, 3), r=rng.uniform(0, 2),
                phi=rng.uniform(0, math.pi)))
            t = rng.uniform(0, 5)
            assert evolve_cov(st0, bath, t).cov.is_physical()


class TestClosedForms:
    STATE = GaussianParams(nbar=0.5, r=1.5, phi=0.0)

    def test_mu_examples(self):
        mu1 = mu_of_t(GaussianParams(nbar=0.0, r=0.0), THERMAL_BATH, 1.0)
        assert mu1 == pytest.approx(0.4416493, abs=1e-6)
        mu2 = mu_of_t(GaussianParams(nbar=0.0, r=1.5), THERMAL_BATH, 1.0)
        assert mu2 == pytest.approx(0.2371655, abs=1e-6)
        assert mu2 / mu1 == pytest.approx(0.537, abs=1e-3)

    def test_mu_endpoints(self, rng):
        for _ in range(10):
            bath = random_bath(rng)
            p = GaussianParams(nbar=rng.uniform(0, 2), r=rng.uniform(0, 2),
                               phi=rng.uniform(0, math.pi))
            assert mu_of_t(p, bath, 0.0) == pytest.approx(p.mu, rel=1e-12)
            assert mu_of_t(p, bath, 80.0 / bath.gamma) == pytest.approx(
                channel_asymptote(bath).mu_inf, rel=1e-9)

    def test_mu_matches_cov_evolution(self, rng):
        for _ in range(50):
            bath = random_bath(rng)
            p = GaussianParams(nbar=rng.uniform(0, 2), r=rng.uniform(0, 2),
                               phi=rng.uniform(0, math.pi))
            t = rng.uniform(0, 4)
            out = evolve_cov(GaussianState.from_params(p), bath, t)
            assert mu_of_t(p, bath, t) == pytest.approx(purity(out.cov), rel=1e-12)

    def test_r_phi_match_cov_evolution(self, rng):
        for _ in range(50):
            bath = random_bath(rng)
            p = GaussianParams(nbar=rng.uniform(0, 2), r=rng.uniform(0.2, 2),
                               phi=rng.uniform(0, math.pi))
            t = rng.uniform(0, 3)
            out = evolve_cov(GaussianState.from_params(p), bath, t)
            decomposed = params_from_cov(out)
            assert r_of_t(p, bath, t) == pytest.approx(decomposed.r, abs=1e-9)
            if decomposed.r > 1e-6:
                assert phi_of_t(p, bath, t) == pytest.approx(
                    decomposed.phi, abs=1e-9)

    def test_thermal_bath_keeps_angle(self):
        p = GaussianParams(nbar=0.2, r=1.0, phi=1.1)
        for t in (0.3, 1.0, 2.5):
            assert phi_of_t(p, THERMAL_BATH, t) == pytest.approx(1.1)
        assert r_of_t(p, THERMAL_BATH, 40.0) == pytest.approx(0.0, abs=1e-9)

    def test_squeezed_bath_limits(self):
        p = GaussianParams(nbar=0.5, r=1.5, phi=math.pi / 4)
        assert r_of_t(p, SQUEEZED_BATH, 50.0) == pytest.approx(
            0.1732868, abs=1e-6)
        assert phi_of_t(p, SQUEEZED_BATH, 50.0) == pytest.approx(math.pi / 2)


class TestOptimalInput:
    def test_mu_optimal_curve(self):
        mu0, mu_inf = 0.9, 1 / 3
        vals = [mu_optimal(mu0, THERMAL_BATH, t) for t in np.linspace(0, 8, 40)]
        assert vals[0] == pytest.approx(mu0)
        assert vals[-1] == pytest.approx(mu_inf, abs=1e-3)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_mu_optimal_fixed_point(self):
        # when mu0 equals the asymptotic purity the curve is flat
        assert mu_optimal(1 / 3, THERMAL_BATH, 1.7) == pytest.approx(1 / 3)

    def test_mu_optimal_purification(self):
        # a bath purer than the input lifts the purity monotonically
        bath = BathParams(N=0.125)          # mu_inf = 0.8
        vals = [mu_optimal(0.2, bath, t) for t in (0, 1, 3, 20)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.8, abs=1e-6)

    def test_mu_optimal_keeps_its_digits_at_small_gamma_t(self):
        # mu0 + e^{-gamma t}(mu_inf - mu0) once lost 1.2e-12 of mu here
        bath = BathParams(N=15701.0)
        assert mu_optimal(1.0, bath, 1e-6) == pytest.approx(
            mu_of_t(GaussianParams(), bath, 1e-6), rel=4e-16)

    def test_optimal_input_thermal_bath(self):
        p = optimal_input(THERMAL_BATH)
        assert p.r == 0.0
        assert p.mu == pytest.approx(1.0)

    def test_optimal_input_squeezed_bath(self):
        p = optimal_input(SQUEEZED_BATH)
        assert p.r == pytest.approx(0.1732868, abs=1e-6)
        assert p.phi == pytest.approx(math.pi / 2)

    def test_optimal_input_achieves_mu_optimal(self, rng):
        for _ in range(15):
            bath = random_bath(rng)
            p = optimal_input(bath)
            for t in (0.1, 0.7, 2.0):
                assert mu_of_t(p, bath, t) == pytest.approx(
                    mu_optimal(1.0, bath, t), rel=1e-12)

    def test_optimal_input_beats_other_angles(self, rng):
        # scanning the squeezing angle: any other orientation at the same
        # (mu0, r) decays at least as fast at every time
        bath = random_bath(rng)
        best = optimal_input(bath)
        for t in (0.2, 1.0, 3.0):
            mu_best = mu_of_t(best, bath, t)
            for phi in np.linspace(0, math.pi, 20, endpoint=False):
                other = GaussianParams(nbar=best.nbar, r=best.r, phi=phi)
                assert mu_of_t(other, bath, t) <= mu_best + 1e-12

    def test_minimum_criterion(self):
        deep = GaussianParams(nbar=0.0, r=1.5)          # cosh 3 ~ 10
        shallow = GaussianParams(nbar=0.0, r=0.2)
        assert has_purity_minimum(deep, THERMAL_BATH)
        assert not has_purity_minimum(shallow, THERMAL_BATH)

    def test_minimum_criterion_matches_curve(self, rng):
        ts = np.linspace(1e-4, 12, 3000)
        for _ in range(15):
            bath = BathParams(gamma=rng.uniform(0.5, 2), N=rng.uniform(0, 2))
            p = GaussianParams(nbar=rng.uniform(0, 1.5), r=rng.uniform(0, 2),
                               phi=rng.uniform(0, math.pi))
            mus = np.array([mu_of_t(p, bath, t) for t in ts])
            dips_below_both = mus.min() < min(p.mu, channel_asymptote(bath).mu_inf) - 1e-9
            assert has_purity_minimum(p, bath) == dips_below_both

    def test_minimum_criterion_rejects_correlated_bath(self):
        with pytest.raises(UnsupportedConditionError):
            has_purity_minimum(GaussianParams(nbar=0.0, r=1.5), SQUEEZED_BATH)


class TestOdeIntegration:
    def test_matches_closed_form(self, rng):
        for _ in range(5):
            bath = random_bath(rng)
            p = GaussianParams(x0=1.0, p0=-0.5, nbar=rng.uniform(0, 2),
                               r=rng.uniform(0, 2), phi=rng.uniform(0, math.pi))
            t = rng.uniform(0.5, 3)
            st0 = GaussianState.from_params(p)
            num = integrate_cov_ode(st0, bath, t, step=5e-3)
            ref = evolve_cov(st0, bath, t)
            assert num.cov.sxx == pytest.approx(ref.cov.sxx, abs=1e-8)
            assert num.cov.spp == pytest.approx(ref.cov.spp, abs=1e-8)
            assert num.cov.sxp == pytest.approx(ref.cov.sxp, abs=1e-8)
            assert num.x0 == pytest.approx(ref.x0, abs=1e-8)
            assert num.p0 == pytest.approx(ref.p0, abs=1e-8)

    def test_fixed_point(self):
        target = asymptotic_cov(SQUEEZED_BATH)
        out = integrate_cov_ode(GaussianState(cov=target), SQUEEZED_BATH,
                                2.0, step=1e-2)
        assert out.cov.sxx == pytest.approx(target.sxx, abs=1e-12)
        assert out.cov.spp == pytest.approx(target.spp, abs=1e-12)

    def test_purity_rate_relation(self):
        # d(mu)/dt = gamma (mu - mu^2 cosh 2r / mu_inf) for a thermal bath
        bath = THERMAL_BATH
        mu_inf = channel_asymptote(bath).mu_inf
        p = GaussianParams(nbar=0.3, r=1.2)
        h = 1e-5
        for t in (0.2, 0.7, 1.5):
            mu = mu_of_t(p, bath, t)
            r = r_of_t(p, bath, t)
            dmu = (mu_of_t(p, bath, t + h) - mu_of_t(p, bath, t - h)) / (2 * h)
            rate = bath.gamma * (mu - mu * mu * math.cosh(2 * r) / mu_inf)
            assert dmu == pytest.approx(rate, abs=1e-6)

    def test_squeezing_rate_relation(self):
        # d(r)/dt = -(gamma/2)(mu/mu_inf) sinh 2r for a thermal bath
        bath = THERMAL_BATH
        mu_inf = channel_asymptote(bath).mu_inf
        p = GaussianParams(nbar=0.3, r=1.2)
        h = 1e-5
        for t in (0.2, 0.7, 1.5):
            mu = mu_of_t(p, bath, t)
            r = r_of_t(p, bath, t)
            dr = (r_of_t(p, bath, t + h) - r_of_t(p, bath, t - h)) / (2 * h)
            rate = -0.5 * bath.gamma * (mu / mu_inf) * math.sinh(2 * r)
            assert dr == pytest.approx(rate, abs=1e-6)


def _close_arrays(got, want, rel):
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= rel * np.abs(want)))


class TestArrayClosedForms:
    TIMES = np.concatenate([[0.0], np.logspace(-9, 1.5, 40)])

    @settings(max_examples=60, deadline=None)
    @given(nbar=st.floats(0.0, 5.0), r=st.floats(0.0, 3.0),
           phi=st.floats(0.0, math.pi), gamma=st.floats(0.1, 5.0),
           n_bath=st.floats(0.0, 3.0), m_frac=st.floats(0.0, 1.0),
           m_angle=st.floats(0.0, 2.0 * math.pi))
    def test_array_matches_scalar(self, nbar, r, phi, gamma, n_bath, m_frac, m_angle):
        mabs = m_frac * math.sqrt(n_bath * (n_bath + 1.0))
        bath = BathParams(gamma=gamma, N=n_bath, M1=mabs * math.cos(m_angle),
                          M2=mabs * math.sin(m_angle))
        p = GaussianParams(nbar=nbar, r=r, phi=phi)
        ts = self.TIMES / gamma
        for fn in (mu_of_t, r_of_t, phi_of_t):
            arr = fn(p, bath, ts)
            assert isinstance(arr, np.ndarray) and arr.shape == ts.shape
            scal = [fn(p, bath, float(t)) for t in ts]
            assert all(type(v) is float for v in scal)
            if fn is phi_of_t:
                # the angle is taken mod pi: compare on the circle
                d = (arr - np.asarray(scal) + math.pi / 2) % math.pi - math.pi / 2
                assert np.all(np.abs(d) <= 1e-14 * math.pi)
            else:
                assert _close_arrays(arr, scal, 1e-14)

    def test_squeezed_bath_and_t0(self):
        p = GaussianParams(nbar=0.5, r=1.5, phi=math.pi / 4)
        ts = np.array([0.0, 0.3, 2.0])
        assert _close_arrays(mu_of_t(p, SQUEEZED_BATH, ts),
                             [mu_of_t(p, SQUEEZED_BATH, t) for t in ts], 1e-14)
        assert mu_of_t(p, SQUEEZED_BATH, ts)[0] == pytest.approx(p.mu, rel=1e-15)
        assert r_of_t(p, SQUEEZED_BATH, ts)[0] == pytest.approx(1.5, rel=1e-15)
        assert phi_of_t(p, SQUEEZED_BATH, ts)[0] == pytest.approx(math.pi / 4, rel=1e-15)

    def test_negative_time_rejected(self):
        # NaN compares false with 0, so it once slipped through "t < 0" as a NaN answer
        for fn in (mu_of_t, r_of_t, phi_of_t):
            for t in (np.array([0.0, -1e-3]), -1.0, math.nan, np.array([0.0, math.nan])):
                with pytest.raises(ValueError):
                    fn(GaussianParams(), THERMAL_BATH, t)
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError):
                evolve_cov(GaussianState.vacuum(), THERMAL_BATH, t)
            with pytest.raises(ValueError):
                mu_optimal(0.5, THERMAL_BATH, t)
        # the RK4 oracle takes finite steps over a finite time, within RK4's stability
        # bound: gamma*h = 10 once gave sxx = -2.46e7
        for bath, t, step in ((THERMAL_BATH, -1.0, 0.1), (THERMAL_BATH, math.nan, 0.1),
                              (THERMAL_BATH, math.inf, 0.1), (THERMAL_BATH, 1.0, 0.0),
                              (THERMAL_BATH, 1.0, math.nan), (THERMAL_BATH, 1.0, math.inf),
                              (BathParams(gamma=10.0, N=1.0), 3.0, 1.0)):
            with pytest.raises(ValueError):
                integrate_cov_ode(GaussianState.vacuum(), bath, t, step)
        # the closed forms give the asymptote at t = inf
        mu_inf = channel_asymptote(THERMAL_BATH).mu_inf
        assert mu_of_t(GaussianParams(r=1.0), THERMAL_BATH, math.inf) == mu_inf
        assert mu_optimal(0.5, THERMAL_BATH, math.inf) == mu_inf

    def test_bath_validated_for_arrays(self):
        with pytest.raises(UnphysicalBathError):
            mu_of_t(GaussianParams(), BathParams(N=1.0, M1=1.5), np.array([0.0, 1.0]))


class TestSqueezingPrecision:
    """r(t) against sigma(t) evolved in 50-digit arithmetic."""

    BATH = (1.0, 1.0, 0.5, 0.3)
    GT = (1e-9, 1e-6, 1e-3, 0.5, 3.0, 30.0)

    @staticmethod
    def reference_r(mpmath, p, bath, gt):
        _, n_bath, m1, m2 = (mpmath.mpf(v) for v in bath)
        c = (2 * mpmath.mpf(p.nbar) + 1) / 2
        ch, sh = mpmath.cosh(2 * mpmath.mpf(p.r)), mpmath.sinh(2 * mpmath.mpf(p.r))
        c2, s2 = mpmath.cos(2 * mpmath.mpf(p.phi)), mpmath.sin(2 * mpmath.mpf(p.phi))
        sigma0 = (c * (ch - sh * c2), c * (ch + sh * c2), c * sh * s2)
        half = (2 * n_bath + 1) / 2
        eta = mpmath.exp(-mpmath.mpf(gt))
        sxx, spp, sxp = (a * (1 - eta) + b * eta for a, b in
                         zip((half + m1, half - m1, m2), sigma0))
        # a quarter of the log-ratio of the eigenvalues
        gap = mpmath.sqrt(((sxx - spp) / 2) ** 2 + sxp * sxp)
        mid = (sxx + spp) / 2
        return mpmath.log((mid + gap) / (mid - gap)) / 4

    @pytest.mark.parametrize("p", [GaussianParams(),
                                   GaussianParams(nbar=1.5),
                                   GaussianParams(nbar=0.3, r=0.8, phi=0.3)],
                             ids=["coherent", "thermal", "squeezed"])
    def test_r_of_t_matches_mpmath(self, p):
        mpmath = pytest.importorskip("mpmath")
        bath = BathParams(*self.BATH)
        rs = r_of_t(p, bath, np.array(self.GT))
        for gt, r in zip(self.GT, rs):
            with mpmath.workdps(50):
                ref = float(self.reference_r(mpmath, p, self.BATH, gt))
            assert abs(r - ref) <= 1e-12 * ref, (gt, r, ref)
            assert r_of_t(p, bath, gt) == pytest.approx(ref, rel=1e-12)


class TestTrajectory:
    def test_columns_and_values(self):
        times = [0.0, 0.5, 1.0, 2.0]
        traj = trajectory(GaussianParams(nbar=0.0, r=0.0), THERMAL_BATH, times)
        assert isinstance(traj, Trajectory)
        assert list(traj.times) == times
        assert traj.mus[0] == pytest.approx(1.0)
        assert traj.mus[2] == pytest.approx(0.4416493, abs=1e-6)

    def test_rejects_unphysical_state(self):
        bad = GaussianState(cov=CovMatrix(sxx=0.1, spp=0.1, sxp=0.0))
        with pytest.raises(PhysicalityError):
            evolve_cov(bad, THERMAL_BATH, 1.0)
