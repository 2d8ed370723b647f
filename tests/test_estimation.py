import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import gausspurity
import gausspurity.estimation as estimation
from gausspurity import (CovMatrix, DegenerateSampleError, EstimationMethod,
                         GaussianParams, GaussianState,
                         InsufficientDataError, MomentEstimate,
                         PhysicalityError, QSampleBatch,
                         error_scaling_sweep, estimate_purity_homodyne,
                         moments_from_q, purity, purity_from_moments,
                         purity_from_q, purity_from_three_quadratures,
                         sample_homodyne, sample_q)
from gausspurity.estimation import (_cov_in_place, _monte_carlo, _q_trial,
                                    _three_quadrature_trial)
from gausspurity.experiments import ExperimentConfig, run_experiment
from gausspurity.sampling import _q_pairs, q_covariance

SQUEEZED = GaussianState.from_params(GaussianParams(nbar=0.5, r=1.5))
PHASES = (0.0, math.pi / 4, math.pi / 2)


def analytic_moments(state):
    return MomentEstimate(mean_x=state.x0, mean_p=state.p0,
                          sxx_hat=state.cov.sxx, spp_hat=state.cov.spp,
                          sxp_hat=state.cov.sxp)


class TestMomentsFromQ:
    def test_hand_batch(self):
        # unbiased variance of {1, -1, 0, 0} is 2/3, minus the vacuum half
        batch = QSampleBatch(pairs=[(1, 0), (-1, 0), (0, 1), (0, -1)])
        m = moments_from_q(batch)
        assert (m.mean_x, m.mean_p) == (0.0, 0.0)
        assert m.sxx_hat == pytest.approx(2 / 3 - 0.5)
        assert m.spp_hat == pytest.approx(2 / 3 - 0.5)
        assert m.sxp_hat == pytest.approx(0.0)

    def test_large_vacuum_batch(self):
        m = moments_from_q(sample_q(GaussianState.vacuum(), 100_000, seed=11))
        assert m.sxx_hat == pytest.approx(0.5, abs=0.02)
        assert m.spp_hat == pytest.approx(0.5, abs=0.02)

    def test_squeezed_batch(self):
        m = moments_from_q(sample_q(SQUEEZED, 100_000, seed=12))
        assert m.sxx_hat == pytest.approx(math.exp(-3), abs=0.01)
        assert m.spp_hat == pytest.approx(math.exp(3), rel=0.03)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            moments_from_q(QSampleBatch(pairs=[(0.0, 0.0)]))


class TestPurityFromQ:
    def test_plug_in_consistency(self, rng):
        for _ in range(20):
            p = GaussianParams(nbar=rng.uniform(0, 5), r=rng.uniform(0, 2),
                               phi=rng.uniform(0, math.pi))
            st = GaussianState.from_params(p)
            assert purity_from_moments(analytic_moments(st)) == pytest.approx(
                purity(st.cov), abs=1e-12)

    def test_squeezed_thermal_few_percent(self):
        est = purity_from_q(sample_q(SQUEEZED, 100_000, seed=13))
        assert est.mu_hat == pytest.approx(0.5, rel=0.05)
        assert est.ci_low <= est.mu_hat <= est.ci_high
        assert est.method == EstimationMethod.Q_JOINT
        assert est.n == 100_000

    def test_to_dict_follows_the_fields(self):
        est = purity_from_q(sample_q(SQUEEZED, 1_000, seed=13), resamples=50)
        d = est.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(est)]
        assert type(d["method"]) is str and d["method"] == "q_joint"
        assert json.loads(est.to_json()) == d

    def test_thermal_more_precise_than_squeezed(self):
        thermal = GaussianState.from_params(GaussianParams(nbar=1.0))
        n, trials = 10_000, 40
        def spread(state):
            ests = [purity_from_moments(moments_from_q(sample_q(state, n, seed=100 + k)))
                    for k in range(trials)]
            return np.std(ests) / purity(state.cov)
        assert spread(thermal) < spread(SQUEEZED)
        est = purity_from_q(sample_q(thermal, 10_000, seed=14))
        assert est.mu_hat == pytest.approx(1 / 3, rel=0.1)

    def test_degenerate_batch_rejected(self):
        # sample variances far below the vacuum floor
        batch = QSampleBatch(pairs=[(0.0, 0.0), (0.01, 0.0), (-0.01, 0.0),
                                    (0.0, 0.01), (0.0, -0.01)])
        with pytest.raises(DegenerateSampleError):
            purity_from_q(batch)

    def test_bootstrap_reproducible(self):
        batch = sample_q(SQUEEZED, 5_000, seed=15)
        a = purity_from_q(batch, resamples=200, seed=7)
        b = purity_from_q(batch, resamples=200, seed=7)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_bootstrap_coverage(self):
        # nominal 68% interval should cover the truth in a 60-76% band
        state = GaussianState.from_params(GaussianParams(nbar=1.0))
        mu_true = purity(state.cov)
        trials, hits = 400, 0
        for k in range(trials):
            batch = sample_q(state, 500, seed=3_000 + k)
            est = purity_from_q(batch, resamples=300, seed=k)
            hits += est.ci_low <= mu_true <= est.ci_high
        assert 0.60 <= hits / trials <= 0.76

    @pytest.mark.parametrize("resamples", [0, 1])
    def test_too_few_resamples_rejected_before_drawing(self, resamples):
        batch = sample_q(SQUEEZED, 1_000, seed=16)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError,
                           match=f"^resamples must be >= 2, got {resamples}$"):
            purity_from_q(batch, resamples=resamples, seed=rng)
        assert rng.bit_generator.state == state
        assert purity_from_q(batch, resamples=2, seed=5).resamples_used == 2

    def test_asymptotically_unbiased(self):
        n, trials = 100_000, 200
        for nbar, r in [(0.1, 1.5), (0.5, 1.0), (1.0, 0.0)]:
            state = GaussianState.from_params(GaussianParams(nbar=nbar, r=r))
            mu_true = purity(state.cov)
            ests = np.array([purity_from_moments(moments_from_q(
                sample_q(state, n, seed=10_000 + k))) for k in range(trials)])
            se = ests.std(ddof=1) / math.sqrt(trials)
            assert abs(ests.mean() - mu_true) < 3 * se

    def test_invariant_under_displacement_and_rotation(self):
        n, trials = 10_000, 100
        variants = [GaussianParams(nbar=0.5, r=1.0),
                    GaussianParams(x0=2.0, p0=-1.0, nbar=0.5, r=1.0),
                    GaussianParams(nbar=0.5, r=1.0, phi=math.pi / 3)]
        stats = []
        for j, params in enumerate(variants):
            state = GaussianState.from_params(params)
            ests = np.array([purity_from_moments(moments_from_q(
                sample_q(state, n, seed=20_000 + 1_000 * j + k)))
                for k in range(trials)])
            stats.append((ests.mean(), ests.std(ddof=1) / math.sqrt(trials)))
        (m0, s0) = stats[0]
        for m, s in stats[1:]:
            assert abs(m - m0) < 3 * math.hypot(s, s0)


class TestThreeQuadratureFormula:
    def test_vacuum(self):
        assert purity_from_three_quadratures(0.5, 0.5, 0.5) == pytest.approx(1.0)

    def test_thermal(self):
        assert purity_from_three_quadratures(1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_squeezed_exact(self):
        # bracket collapses to 4*(cosh^2 - sinh^2) = 4 by the hyperbolic identity
        mu = purity_from_three_quadratures(math.exp(-3), math.cosh(3), math.exp(3))
        assert mu == pytest.approx(0.5, rel=1e-12)

    def test_exact_on_analytic_variances(self, rng):
        from gausspurity import homodyne_variance
        for _ in range(30):
            p = GaussianParams(nbar=rng.uniform(0, 3), r=rng.uniform(0, 2),
                               phi=rng.uniform(0, math.pi))
            st = GaussianState.from_params(p)
            v = [homodyne_variance(st, th) for th in PHASES]
            assert purity_from_three_quadratures(*v) == pytest.approx(
                p.mu, rel=1e-10)

    def test_degenerate_bracket(self):
        with pytest.raises(DegenerateSampleError):
            purity_from_three_quadratures(0.5, 10.0, 0.5)

    def test_nan_is_degenerate_not_returned(self):
        with pytest.raises(DegenerateSampleError):
            purity_from_three_quadratures(math.nan, 1.0, 1.0)
        with pytest.raises(DegenerateSampleError):
            purity_from_moments(MomentEstimate(0.0, 0.0, math.nan, 1.0, 0.0))


class TestScalarAndResampledFormulas:
    """A point estimate and its bootstrap resamples go through the same formula.

    The scalar forms once squared with **, which on a float calls libm pow;
    about 1 float in 1,200 then rounds otherwise than the product numpy takes
    for an array, so 10^4 random inputs hold several such cases.
    """

    def test_q_purity(self):
        rng = np.random.default_rng(5)
        sxx, spp = rng.uniform(0.5, 2.0, (2, 10_000))
        sxp = rng.uniform(-0.4, 0.4, 10_000)
        scalar = [estimation._plug_in_purity(a, b, c)
                  for a, b, c in zip(sxx.tolist(), spp.tolist(), sxp.tolist())]
        assert scalar == estimation._q_purities(sxx, spp, sxp).tolist()

    def test_three_quadrature_bracket(self):
        rng = np.random.default_rng(6)
        v0, v45, v90 = rng.uniform(0.5, 2.0, (3, 10_000))
        scalar = [estimation._three_quadrature_bracket(*v)
                  for v in zip(v0.tolist(), v45.tolist(), v90.tolist())]
        assert scalar == estimation._three_quadrature_bracket(v0, v45, v90).tolist()

    def test_point_and_resample_take_the_same_root(self, monkeypatch):
        batches = [sample_homodyne(SQUEEZED, th, 50, seed=255 + i)
                   for i, th in enumerate(PHASES)]
        bracket = estimation._three_quadrature_bracket(
            *(float(np.var(b.values, ddof=1)) for b in batches))
        # numpy's array power takes this bracket's -1/2 power an ulp off libm pow
        assert (np.full(400, bracket) ** -0.5)[0] != bracket ** -0.5
        # every resample then has the point's variances, and so its bracket
        monkeypatch.setattr(estimation, "_resampled_covs", lambda cols, products, k, rng:
                            np.full((1, k), float(np.var(cols[0], ddof=1))))
        est = estimate_purity_homodyne(*batches, resamples=400, seed=0)
        assert est.ci_low == est.mu_hat == est.ci_high


class TestEstimatePurityHomodyne:
    def _batches(self, state, m, seed):
        return [sample_homodyne(state, th, m, seed=seed + i)
                for i, th in enumerate(PHASES)]

    def test_vacuum_batches(self):
        est = estimate_purity_homodyne(*self._batches(GaussianState.vacuum(),
                                                      10_000, 30))
        assert est.ci_low <= 1.0 + 0.05
        assert est.mu_hat == pytest.approx(1.0, rel=0.05)
        assert est.method == EstimationMethod.THREE_QUADRATURE
        assert est.n == 30_000

    def test_phase_mismatch_rejected(self):
        st = GaussianState.vacuum()
        good = self._batches(st, 100, 40)
        bad = sample_homodyne(st, 0.3, 100, seed=41)
        with pytest.raises(ValueError):
            estimate_purity_homodyne(bad, good[1], good[2])

    @pytest.mark.parametrize("resamples", [0, 1])
    def test_too_few_resamples_rejected_before_drawing(self, resamples):
        batches = self._batches(GaussianState.vacuum(), 100, 42)
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ValueError,
                           match=f"^resamples must be >= 2, got {resamples}$"):
            estimate_purity_homodyne(*batches, resamples=resamples, seed=rng)
        assert rng.bit_generator.state == state

    def test_bias_positive_for_phi_zero(self):
        state = SQUEEZED
        trials, m = 200, 3_000
        ests = []
        for k in range(trials):
            v = [np.var(sample_homodyne(state, th, m, seed=50_000 + 3 * k + i).values,
                        ddof=1) for i, th in enumerate(PHASES)]
            try:
                ests.append(purity_from_three_quadratures(*v))
            except DegenerateSampleError:
                pass
        ests = np.array(ests)
        bias = ests.mean() - 0.5
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert bias > 3 * se

    def test_bias_flips_with_quadrature_roles(self):
        # The estimator is symmetric under swapping the theta = 0 and
        # theta = pi/2 records, so a phi = 0 -> pi/2 rotation cannot change
        # the bias; the sign does flip when the pi/4 quadrature lands on the
        # antisqueezed axis (phi = pi/4 here) instead of the squeezed one.
        trials, m = 300, 3_000
        biases = {}
        for label, phi in [("neg", math.pi / 4), ("pos", 3 * math.pi / 4)]:
            state = GaussianState.from_params(
                GaussianParams(nbar=0.5, r=1.5, phi=phi))
            ests = []
            for k in range(trials):
                v = [np.var(sample_homodyne(state, th, m,
                                            seed=60_000 + 3 * k + i).values,
                            ddof=1) for i, th in enumerate(PHASES)]
                try:
                    ests.append(purity_from_three_quadratures(*v))
                except DegenerateSampleError:
                    pass
            ests = np.array(ests)
            biases[label] = (ests.mean() - 0.5,
                             ests.std(ddof=1) / math.sqrt(ests.size))
        assert biases["neg"][0] < -3 * biases["neg"][1]
        assert biases["pos"][0] > 3 * biases["pos"][1]

    def test_symmetric_under_quarter_rotation(self):
        # phi = 0 and phi = pi/2 give statistically indistinguishable bias
        trials, m = 150, 3_000
        means = []
        for j, phi in enumerate((0.0, math.pi / 2)):
            state = GaussianState.from_params(
                GaussianParams(nbar=0.5, r=1.5, phi=phi))
            ests = []
            for k in range(trials):
                v = [np.var(sample_homodyne(state, th, m,
                                            seed=70_000 + 1_000 * j + 3 * k + i).values,
                            ddof=1) for i, th in enumerate(PHASES)]
                try:
                    ests.append(purity_from_three_quadratures(*v))
                except DegenerateSampleError:
                    pass
            ests = np.array(ests)
            means.append((ests.mean(), ests.std(ddof=1) / math.sqrt(ests.size)))
        (m0, s0), (m1, s1) = means
        assert abs(m0 - m1) < 4 * math.hypot(s0, s1)


def _one_shot_covs(values, idx):
    """Reference: (sum g^2 - n m^2)/(n-1) of every resample, from one (B, n) gather."""
    n = values.size
    g = values[idx]
    m = g.mean(axis=1)
    return ((g * g).sum(axis=1) - n * m * m) / (n - 1)


class TestNonparametricResampling:
    """The row-blocked resampling kernel against one (B, n) draw."""

    N, B = 1001, 37     # odd, so no block size divides the work evenly

    @pytest.fixture(params=["one", "n+1", "3n-1", "all"])
    def block(self, request, monkeypatch):
        n = self.N
        elems = {"one": 1, "n+1": n + 1, "3n-1": 3 * n - 1, "all": 10**9}[request.param]
        monkeypatch.setattr(estimation, "_BLOCK_ELEMS", elems)

    def test_q_bootstrap_bits_do_not_depend_on_the_block(self, block):
        pairs = sample_q(SQUEEZED, self.N, seed=81).pairs
        rng = estimation.make_rng(82)
        idx = rng.integers(0, self.N, size=(self.B, self.N))
        x, p = pairs[:, 0], pairs[:, 1]
        n, gx, gp = self.N, x[idx], p[idx]
        sxp = ((gx * gp).sum(axis=1) - n * gx.mean(axis=1) * gp.mean(axis=1)) / (n - 1)
        expected = estimation._q_purities(_one_shot_covs(x, idx) - 0.5,
                                          _one_shot_covs(p, idx) - 0.5, sxp)
        got = estimation._bootstrap_q(pairs, self.B, estimation.make_rng(82))
        assert got.tobytes() == expected.tobytes()

    def test_homodyne_bits_do_not_depend_on_the_block(self, block):
        # unequal phase sizes, phases drawn in the order 0, pi/4, pi/2; at about
        # 60,000 values per phase n * B passes 2e6, where draws were once split
        for i, sizes in enumerate([(2000, 2001, 1999), (60_000, 60_001, 59_999)]):
            batches = [sample_homodyne(SQUEEZED, th, m, seed=83 + 3 * i + j)
                       for j, (th, m) in enumerate(zip(PHASES, sizes))]
            rng = estimation.make_rng(84)
            w0, w45, w90 = (_one_shot_covs(b.values, rng.integers(0, b.n, size=(self.B, b.n)))
                            for b in batches)
            bracket = 4.0 * w45 * (w0 + w90 - w45) - (w0 - w90) ** 2
            mus = np.array([b ** -0.5 for b in bracket[bracket > 0].tolist()])
            # the levels as the library forms them: 0.15999999999999998, 0.8400000000000001
            lo, hi = np.quantile(mus, [(1.0 - 0.68) / 2.0, (1.0 + 0.68) / 2.0])
            est = estimate_purity_homodyne(*batches, resamples=self.B, seed=84)
            assert (est.ci_low, est.ci_high) == (min(float(lo), est.mu_hat),
                                                 max(float(hi), est.mu_hat))
            assert est.resamples_used == mus.size

    @pytest.mark.parametrize("call", ["purity_from_q", "estimate_purity_homodyne"])
    def test_peak_memory_is_bounded(self, call):
        # the resamples are reduced block by block, never held as (B, n) arrays
        if call == "purity_from_q":
            batch = sample_q(SQUEEZED, 100_000, seed=85)
            run = lambda: purity_from_q(batch, resamples=400, seed=86)
        else:
            batches = [sample_homodyne(SQUEEZED, th, 30_000, seed=87 + i)
                       for i, th in enumerate(PHASES)]
            run = lambda: estimate_purity_homodyne(*batches, resamples=400, seed=86)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestErrorScalingSweep:
    def test_q_clt_scaling(self):
        rows = error_scaling_sweep(GaussianState.vacuum(),
                                   EstimationMethod.Q_JOINT,
                                   [1_000, 10_000, 100_000], trials=40, seed=1)
        errs = [row.mean_rel_err for row in rows]
        assert errs[0] > errs[1] > errs[2]
        for a, b in zip(errs, errs[1:]):
            assert 2.0 < a / b < 5.0      # sqrt(10) apart, with sampling slack

    def test_q_squeezed_few_percent_at_1e5(self):
        rows = error_scaling_sweep(SQUEEZED, EstimationMethod.Q_JOINT,
                                   [100_000], trials=30, seed=2)
        assert 0.005 < rows[0].mean_rel_err < 0.05

    def test_three_quadrature_runs_and_flags_degenerates(self):
        rows = error_scaling_sweep(SQUEEZED, EstimationMethod.THREE_QUADRATURE,
                                   [300, 3_000, 30_000], trials=30, seed=3)
        assert all(row.n_degenerate >= 0 for row in rows)
        assert rows[-1].mean_rel_err < 1.0

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            error_scaling_sweep(SQUEEZED, EstimationMethod.Q_JOINT,
                                [100, 100], trials=2, seed=0)

    # a three-quadrature budget is split as n//3 per phase: 2 to 5 leave fewer than two
    @pytest.mark.parametrize("method, n_grid", [
        *(pytest.param(method, n_grid, id=f"n_grid{i}-{method.value}")
          for i, n_grid in enumerate([[-3], [0], [1], [1, 30]])
          for method in EstimationMethod),
        pytest.param(EstimationMethod.THREE_QUADRATURE, [2],
                     id="n_grid4-three_quadrature"),
        pytest.param(EstimationMethod.THREE_QUADRATURE, [5],
                     id="n_grid5-three_quadrature")])
    def test_rejects_sample_sizes_below_two_before_drawing(self, method, n_grid,
                                                           monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew trials for a rejected grid")

        monkeypatch.setattr(estimation, "_monte_carlo", no_draws)
        with pytest.raises(ValueError, match=">= 2"):
            error_scaling_sweep(SQUEEZED, method, n_grid, trials=2, seed=0)

    @pytest.mark.parametrize("trials, seed, message", [
        (True, 0, "trials must be an integer, got True"),
        (2.5, 0, "trials must be an integer, got 2.5"),
        (0, 0, "trials must be >= 1, got 0"),
        (2, 1.5, "seed must be an integer, got 1.5"),
        (2, -1, "seed must be >= 0, got -1")],
        ids=["trials-bool", "trials-float", "trials-0", "seed-float", "seed-negative"])
    def test_trials_and_seed_are_checked_as_a_config_checks_them(self, trials, seed,
                                                                 message, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew trials for a rejected trial count or seed")

        monkeypatch.setattr(estimation, "_monte_carlo", no_draws)
        for call in (lambda: error_scaling_sweep(SQUEEZED, EstimationMethod.Q_JOINT, [30],
                                                 trials=trials, seed=seed),
                     lambda: ExperimentConfig("fig_varnx", trials=trials, seed=seed)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


def _records_trial(state, n, rng):
    """The three-quadrature trial computed from m homodyne records per phase."""
    m = max(2, n // 3)
    v = [float(np.var(sample_homodyne(state, th, m, rng).values, ddof=1))
         for th in PHASES]
    return purity_from_three_quadratures(*v), (math.nan, math.nan)


def _quantile_se(x, q):
    """Distribution-free standard error of the q-quantile of a sample.

    Half the distance between the order statistics N*q -/+ sqrt(N*q*(1-q)),
    the one-sigma band of the binomial count below the quantile.
    """
    x = np.sort(x)
    k, d = q * (x.size - 1), math.sqrt(x.size * q * (1 - q))
    return (x[min(x.size - 1, round(k + d))] - x[max(0, round(k - d))]) / 2


class TestThreeQuadratureTrialLaw:
    TRIALS = 4_000

    @pytest.mark.parametrize("nbar, r, n", [(0.5, 1.5, 30),      # ~half degenerate
                                            (1.5, 0.2, 3_000)])  # none degenerate
    def test_chi_square_variances_match_records(self, nbar, r, n):
        state = GaussianState.from_params(GaussianParams(nbar=nbar, r=r, phi=0.4))
        (mu_rec, _, deg_rec), = _monte_carlo([(state, n)], self.TRIALS, 1,
                                             _records_trial)
        (mu_chi, _, deg_chi), = _monte_carlo([(state, n)], self.TRIALS, 2,
                                             _three_quadrature_trial)
        p = (deg_rec + deg_chi) / (2 * self.TRIALS)
        assert abs(deg_rec - deg_chi) <= 5 * math.sqrt(2 * self.TRIALS * p * (1 - p))
        for q in (0.25, 0.5, 0.75):
            se = math.hypot(_quantile_se(mu_rec, q), _quantile_se(mu_chi, q))
            assert abs(np.quantile(mu_rec, q) - np.quantile(mu_chi, q)) <= 5 * se

    def test_unphysical_state_raises_before_drawing(self):
        state = GaussianState(cov=CovMatrix(sxx=0.4, spp=0.4))     # det 0.16 < 1/4
        with pytest.raises(PhysicalityError):
            error_scaling_sweep(state, EstimationMethod.THREE_QUADRATURE, [30],
                                trials=2, seed=0)
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(PhysicalityError):
            _three_quadrature_trial(state, 30, rng)
        # nothing was drawn: the stream is where a fresh one starts
        assert rng.random() == np.random.Generator(np.random.Philox(0)).random()


def test_runtime_imports_no_scipy():
    """The library, its CLI and a three-quadrature sweep run on numpy alone."""
    code = ("import sys, gausspurity, gausspurity.cli\n"
            "from gausspurity import (EstimationMethod, GaussianState,\n"
            "                         error_scaling_sweep)\n"
            "error_scaling_sweep(GaussianState.vacuum(),\n"
            "                    EstimationMethod.THREE_QUADRATURE, [30], 2, 0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(gausspurity.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _pipeline_purity(state, n, seed):
    """What the Q trial computes: sample_q, moments_from_q, purity_from_moments."""
    rng = np.random.Generator(np.random.Philox(seed))
    try:
        return purity_from_moments(moments_from_q(sample_q(state, n, rng)))
    except DegenerateSampleError:
        return "degenerate"


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def _trial_purity(state, n, seed):
    rng = _philox(seed)
    try:
        mu, ci = _q_trial(state, n, rng)
    except DegenerateSampleError:
        return "degenerate"
    assert all(math.isnan(b) for b in ci)
    return mu


DISPLACED = GaussianState.from_params(GaussianParams(x0=40.0, p0=-7.5, nbar=0.3,
                                                     r=0.8, phi=2.1))
Q_SIZES = [2, 3, 7, 1_000, 4_097, 8_193, 100_001]


class TestQTrial:
    @pytest.mark.parametrize("state", [SQUEEZED, DISPLACED], ids=["squeezed", "displaced"])
    @pytest.mark.parametrize("n", Q_SIZES)
    def test_pairs_are_the_one_shot_product(self, state, n):
        """The blocked in-place product gives the bits of mean + z @ chol^T."""
        for seed in range(3):
            z = np.random.Generator(np.random.Philox(seed)).standard_normal((n, 2))
            chol = np.linalg.cholesky(q_covariance(state))
            out = np.empty((n, 2))
            got = _q_pairs(state, n, np.random.Generator(np.random.Philox(seed)), out)
            assert got is out
            assert np.array_equal(got, state.mean + z @ chol.T)

    @pytest.mark.parametrize("state", [SQUEEZED, DISPLACED], ids=["squeezed", "displaced"])
    @pytest.mark.parametrize("n", Q_SIZES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_covariance_is_np_cov(self, state, n, order):
        pairs = np.asarray(sample_q(state, n, seed=n).pairs, order=order)
        want = np.cov(pairs, rowvar=False, ddof=1)
        assert np.array_equal(_cov_in_place(np.array(pairs)), want)
        assert np.array_equal(estimation._q_cov(QSampleBatch(pairs=pairs)), want)

    @pytest.mark.parametrize("state", [SQUEEZED, DISPLACED], ids=["squeezed", "displaced"])
    @pytest.mark.parametrize("n", Q_SIZES)
    def test_bit_equal_to_the_public_pipeline(self, state, n):
        seeds = range(3 if n > 10_000 else 40)
        got = [_trial_purity(state, n, s) for s in seeds]
        assert got == [_pipeline_purity(state, n, s) for s in seeds]
        if n == 1_000:
            assert "degenerate" not in got

    @pytest.mark.parametrize("n", [2, 3])
    def test_degenerate_small_trials_agree(self, n):
        got = [_trial_purity(SQUEEZED, n, s) for s in range(60)]
        assert got == [_pipeline_purity(SQUEEZED, n, s) for s in range(60)]
        assert "degenerate" in got
        assert (n == 2) == (set(got) == {"degenerate"})     # a rank-1 sample at n = 2

    def test_buffer_reuse_across_sizes_keeps_the_bits(self):
        for n in (7, 7, 1_000, 3, 1_000, 7):
            assert _trial_purity(DISPLACED, n, n) == _pipeline_purity(DISPLACED, n, n)

    def test_parametric_bootstrap_reproducible(self):
        a = _q_trial(SQUEEZED, 5_000, _philox(15), resamples=200)
        b = _q_trial(SQUEEZED, 5_000, _philox(15), resamples=200)
        assert a == b
        mu, (lo, hi) = a
        assert lo <= mu <= hi < 1.0
        # the interval is drawn after the pairs, so the point estimate keeps its bits
        assert mu == _q_trial(SQUEEZED, 5_000, _philox(15))[0]

    def test_parametric_bootstrap_coverage(self):
        # same state, sizes, record seeds and band as the nonparametric test
        state = GaussianState.from_params(GaussianParams(nbar=1.0))
        mu_true = purity(state.cov)
        trials, hits = 400, 0
        for k in range(trials):
            _, (lo, hi) = _q_trial(state, 500, _philox(3_000 + k), resamples=300)
            hits += lo <= mu_true <= hi
        assert 0.60 <= hits / trials <= 0.76

    def test_parametric_bootstrap_fits_covariance_once(self, monkeypatch):
        before = _q_trial(SQUEEZED, 5_000, _philox(7), resamples=200)
        calls = []
        real_cov = estimation._cov_in_place

        def counting_cov(*args, **kwargs):
            calls.append(1)
            return real_cov(*args, **kwargs)

        monkeypatch.setattr(estimation, "_cov_in_place", counting_cov)
        after = _q_trial(SQUEEZED, 5_000, _philox(7), resamples=200)
        assert len(calls) == 1
        assert after == before
        batch = sample_q(SQUEEZED, 5_000, _philox(7))
        assert after[0] == purity_from_moments(moments_from_q(batch))

    def test_unphysical_state(self):
        with pytest.raises(PhysicalityError):
            _q_trial(GaussianState(cov=CovMatrix(sxx=0.4, spp=0.4)), 10,
                     np.random.Generator(np.random.Philox(0)))


def _cores(monkeypatch, count):
    monkeypatch.setattr(estimation.os, "sched_getaffinity",
                        lambda pid: set(range(count)))


class TestParallelMonteCarlo:
    WORKERS = (1, 2, 3)

    @pytest.mark.parametrize("experiment, kw", [
        ("fig_varnx", dict(n_grid=[10, 300, 3_000])),
        ("fig_trequad", dict(n_grid=[6, 300, 3_000])),
        ("fig_varr", dict(r_grid=[0.0, 1.0])),
        ("fig_varnth", dict(nbar_grid=[0.0, 2.0])),
    ])
    @pytest.mark.parametrize("trials", [1, 2, 7])
    def test_runners_do_not_depend_on_the_worker_count(self, experiment, kw, trials,
                                                       monkeypatch):
        config = ExperimentConfig(experiment=experiment, trials=trials, seed=9,
                                  resamples=50, **kw)
        reports = []
        for workers in self.WORKERS:
            _cores(monkeypatch, workers)
            reports.append(json.dumps(run_experiment(config).rows))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("method, n_grid", [
        (EstimationMethod.Q_JOINT, [4, 10, 1_000, 20_000]),
        (EstimationMethod.THREE_QUADRATURE, [6, 30, 3_000, 300_000]),
    ])
    def test_sweeps_do_not_depend_on_the_worker_count(self, method, n_grid,
                                                      monkeypatch):
        sweeps = []
        for workers in self.WORKERS:
            _cores(monkeypatch, workers)
            sweeps.append(error_scaling_sweep(SQUEEZED, method, n_grid, trials=11, seed=4))
        assert repr(sweeps[0]) == repr(sweeps[1]) == repr(sweeps[2])
        assert sweeps[0][0].n_degenerate > 0

    @pytest.mark.parametrize("trial", [_q_trial, _three_quadrature_trial])
    def test_worker_errors_reach_the_caller(self, trial, monkeypatch):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        bad = GaussianState(cov=CovMatrix(sxx=0.4, spp=0.4))     # det 0.16 < 1/4
        for workers in self.WORKERS:
            _cores(monkeypatch, workers)
            with pytest.raises(PhysicalityError):
                _monte_carlo([(SQUEEZED, 30), (bad, 30)], 5, 0, trial)
        assert hooked == []

    def test_worker_threads_call_no_public_function(self, monkeypatch):
        """Trials off the calling thread stay inside private helpers."""
        off_main = []

        def recording(fn):
            def call(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(fn.__qualname__)
                return fn(*args, **kwargs)
            return call

        for layer in ("states", "sampling", "estimation", "channel", "experiments"):
            module = importlib.import_module(f"gausspurity.{layer}")
            for name, obj in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__.startswith("gausspurity.")):
                    monkeypatch.setattr(module, name, recording(obj))
        _cores(monkeypatch, 3)
        for method in EstimationMethod:
            error_scaling_sweep(SQUEEZED, method, [30, 3_000], trials=7, seed=2)
        for experiment in ("fig_varnx", "fig_trequad", "fig_varr", "fig_varnth"):
            run_experiment(ExperimentConfig(experiment=experiment, trials=4, seed=2))
        assert off_main == []

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        def pure_python(state, n, rng):
            u = sum(rng.random() for _ in range(n))
            if u < n * 0.45:
                raise DegenerateSampleError(repr(u))
            return u, (u, u)

        points = [(None, n) for n in (5, 40, 200)]
        _cores(monkeypatch, 1)
        serial = _monte_carlo(points, 23, 8, pure_python)
        _cores(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _monte_carlo(points, 23, 8, pure_python)
        finally:
            sys.setswitchinterval(interval)
        assert repr(threaded) == repr(serial)
        assert all(0 < degenerate < 23 for _, _, degenerate in serial)

    def test_the_lowest_failing_trial_is_raised(self, monkeypatch):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)

        def flaky(state, n, rng):
            u = rng.random()
            if u < 0.3:
                raise RuntimeError(repr(u))
            return u, (math.nan, math.nan)

        raised = []
        for workers in self.WORKERS:
            _cores(monkeypatch, workers)
            for seed in range(12):
                with pytest.raises(RuntimeError) as info:
                    _monte_carlo([(None, 1)] * 3, 8, seed, flaky)
                raised.append(str(info.value))
        assert raised[:12] == raised[12:24] == raised[24:]
        assert hooked == []
