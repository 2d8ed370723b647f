import math

import numpy as np
import pytest

from gausspurity import (GaussianParams, GaussianState, HomodyneBatch,
                         QSampleBatch, homodyne_variance, q_covariance,
                         sample_homodyne, sample_q)
from gausspurity.sampling import _write_csv

SQUEEZED = GaussianState.from_params(GaussianParams(nbar=0.5, r=1.5))


class TestDeterminism:
    def test_q_same_seed_identical(self):
        a = sample_q(SQUEEZED, 500, seed=123)
        b = sample_q(SQUEEZED, 500, seed=123)
        assert np.array_equal(a.pairs, b.pairs)

    def test_q_different_seed_differs(self):
        a = sample_q(SQUEEZED, 500, seed=123)
        b = sample_q(SQUEEZED, 500, seed=124)
        assert not np.array_equal(a.pairs, b.pairs)

    def test_homodyne_same_seed_identical(self):
        a = sample_homodyne(SQUEEZED, 0.3, 500, seed=55)
        b = sample_homodyne(SQUEEZED, 0.3, 500, seed=55)
        assert a.theta == b.theta
        assert np.array_equal(a.values, b.values)


class TestQSampling:
    def test_vacuum_covariance_near_identity(self):
        batch = sample_q(GaussianState.vacuum(), 40_000, seed=1)
        c = np.cov(batch.pairs, rowvar=False, ddof=1)
        tol = 3 / math.sqrt(batch.n) * 3
        assert abs(c[0, 0] - 1.0) < tol
        assert abs(c[1, 1] - 1.0) < tol
        assert abs(c[0, 1]) < tol

    def test_squeezed_variances(self):
        batch = sample_q(SQUEEZED, 200_000, seed=2)
        vx = np.var(batch.x, ddof=1)
        vp = np.var(batch.p, ddof=1)
        ex, ep = math.exp(-3) + 0.5, math.exp(3) + 0.5
        assert vx == pytest.approx(ex, rel=5 * math.sqrt(2 / batch.n))
        assert vp == pytest.approx(ep, rel=5 * math.sqrt(2 / batch.n))

    def test_mean_tracks_displacement(self):
        st = GaussianState.from_params(GaussianParams(x0=1.5, p0=-0.7))
        batch = sample_q(st, 100_000, seed=3)
        assert batch.x.mean() == pytest.approx(1.5, abs=0.02)
        assert batch.p.mean() == pytest.approx(-0.7, abs=0.02)

    def test_moment_consistency_over_batches(self):
        # mean of sample variances across independent batches vs analytic
        st = SQUEEZED
        n, m = 10_000, 100
        vxs = [np.var(sample_q(st, n, seed=1000 + k).x, ddof=1) for k in range(m)]
        analytic = st.cov.sxx + 0.5
        se = analytic * math.sqrt(2 / n) / math.sqrt(m)
        assert abs(np.mean(vxs) - analytic) < 5 * se

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_q(SQUEEZED, 0, seed=0)


class TestHomodyneSampling:
    def test_vacuum_variance(self):
        b = sample_homodyne(GaussianState.vacuum(), 0.0, 50_000, seed=4)
        assert np.var(b.values, ddof=1) == pytest.approx(0.5, abs=3 * math.sqrt(2 / b.n) * 0.5)

    def test_squeezed_quadrature(self):
        b = sample_homodyne(SQUEEZED, 0.0, 50_000, seed=5)
        assert np.var(b.values, ddof=1) == pytest.approx(
            math.exp(-3), rel=5 * math.sqrt(2 / b.n))

    def test_rotated_quadrature(self):
        b = sample_homodyne(SQUEEZED, math.pi / 4, 50_000, seed=6)
        assert np.var(b.values, ddof=1) == pytest.approx(
            math.cosh(3), rel=5 * math.sqrt(2 / b.n))

    def test_mean_convention(self):
        # theta = 0 reproduces <x> = x0, theta = pi/2 reproduces <p> = p0
        st = GaussianState.from_params(GaussianParams(x0=2.0, p0=-1.0))
        bx = sample_homodyne(st, 0.0, 50_000, seed=7)
        bp = sample_homodyne(st, math.pi / 2, 50_000, seed=8)
        assert bx.values.mean() == pytest.approx(2.0, abs=0.02)
        assert bp.values.mean() == pytest.approx(-1.0, abs=0.02)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            sample_homodyne(SQUEEZED, 0.0, 1, seed=0)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_theta(self, theta):
        # unchecked, inf reaches math.cos, whose "math domain error" names no input
        with pytest.raises(ValueError, match="homodyne theta must be finite"):
            homodyne_variance(SQUEEZED, theta)
        with pytest.raises(ValueError, match="homodyne theta must be finite"):
            sample_homodyne(SQUEEZED, theta, 10, seed=0)


@pytest.mark.parametrize("draw", [
    lambda n: sample_q(SQUEEZED, n, seed=0),
    lambda n: sample_homodyne(SQUEEZED, 0.0, n, seed=0)], ids=["q", "homodyne"])
@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, "3"], ids=repr)
def test_sample_count_must_be_an_integer(draw, n):
    with pytest.raises(ValueError, match="sample count n must be an integer"):
        draw(n)
    assert draw(np.int64(3)).n == 3


class TestVarianceFormulas:
    def test_homodyne_matches_phenomenological_form(self, rng):
        for _ in range(50):
            p = GaussianParams(nbar=rng.uniform(0, 3), r=rng.uniform(0, 2),
                               phi=rng.uniform(0, math.pi))
            st = GaussianState.from_params(p)
            theta = rng.uniform(0, 2 * math.pi)
            closed = (1 / (2 * p.mu)) * (
                math.exp(-2 * p.r) * math.cos(theta + p.phi) ** 2
                + math.exp(2 * p.r) * math.sin(theta + p.phi) ** 2)
            assert homodyne_variance(st, theta) == pytest.approx(closed, rel=1e-10)

    def test_q_marginal_wider_than_homodyne(self):
        for phi in (0.0, math.pi / 2):
            st = GaussianState.from_params(GaussianParams(nbar=0.3, r=1.0, phi=phi))
            assert q_covariance(st)[0, 0] == pytest.approx(
                homodyne_variance(st, 0.0) + 0.5)
            assert q_covariance(st)[0, 0] > homodyne_variance(st, 0.0)


class TestCsv:
    def test_q_round_trip(self, tmp_path):
        batch = sample_q(SQUEEZED, 200, seed=9)
        path = tmp_path / "q.csv"
        batch.to_csv(path)
        assert path.read_text().splitlines()[0] == "x,p"
        back = QSampleBatch.from_csv(path)
        np.testing.assert_allclose(back.pairs, batch.pairs, rtol=1e-15)

    def test_homodyne_round_trip(self, tmp_path):
        batch = sample_homodyne(SQUEEZED, math.pi / 4, 200, seed=10)
        path = tmp_path / "h.csv"
        batch.to_csv(path)
        assert path.read_text().splitlines()[0] == "theta,value"
        back = HomodyneBatch.from_csv(path)
        assert back.theta == pytest.approx(batch.theta, rel=1e-15)
        np.testing.assert_allclose(back.values, batch.values, rtol=1e-15)

    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_writer_matches_savetxt(self, tmp_path, cols):
        # np.savetxt, one %-format per row, is the reference; 20000 rows span
        # three write blocks, and the specials sit in the first and last
        rows = np.random.default_rng(2).standard_normal((20_000, cols))
        rows *= 10.0 ** np.random.default_rng(3).integers(-300, 300, rows.shape)
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072e-308,
                    1.8e308, -1.8e308, 0.1, 1 / 3, 1e16, 2.0**53 + 2]
        rows.ravel()[:len(specials)] = specials
        rows.ravel()[-len(specials):] = specials
        path, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        _write_csv(path, "a,b", rows)
        np.savetxt(ref, rows, delimiter=",", header="a,b", comments="", fmt="%.17g")
        assert path.read_bytes() == ref.read_bytes()

    def test_reader_rejects_the_other_header(self, tmp_path):
        path = tmp_path / "h.csv"
        sample_homodyne(SQUEEZED, 0.0, 10, seed=1).to_csv(path)
        with pytest.raises(ValueError, match="expected CSV header 'x,p', "
                                             "found 'theta,value'"):
            QSampleBatch.from_csv(path)
        sample_q(SQUEEZED, 10, seed=2).to_csv(path)
        with pytest.raises(ValueError, match="expected CSV header 'theta,value', "
                                             "found 'x,p'"):
            HomodyneBatch.from_csv(path)
